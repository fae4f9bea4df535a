#include "core/service_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/stats.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

using test::small_dataset;

const ModelRegistry& fitted_registry() {
  static const ModelRegistry registry = ModelRegistry::fit(small_dataset());
  return registry;
}

TEST(ServiceModel, FitRequiresEnoughSessions) {
  // A service index beyond the catalogue range throws via slice().
  EXPECT_THROW(ServiceModel::fit(small_dataset(), 10000), InvalidArgument);
}

TEST(ServiceModel, FitProducesSaneParameters) {
  const std::size_t netflix = service_index("Netflix");
  const ServiceModel model = ServiceModel::fit(small_dataset(), netflix);
  EXPECT_EQ(model.name(), "Netflix");
  EXPECT_GT(model.session_share(), 0.0);
  EXPECT_GT(model.duration().beta(), 1.0);  // streaming super-linearity
  EXPECT_LE(model.volume().peaks().size(), 3u);
}

TEST(ServiceModel, SampleProducesConsistentTriples) {
  const std::size_t fb = service_index("Facebook");
  const ServiceModel model = ServiceModel::fit(small_dataset(), fb);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const ServiceModel::Draw draw = model.sample(rng);
    EXPECT_GT(draw.volume_mb, 0.0);
    EXPECT_GE(draw.duration_s, 1.0);
    EXPECT_LE(draw.duration_s, 6.0 * 3600.0);
    EXPECT_NEAR(draw.throughput_mbps(),
                8.0 * draw.volume_mb / draw.duration_s, 1e-12);
  }
}

TEST(ServiceModel, SampledVolumesMatchTheMixture) {
  const std::size_t fb = service_index("Facebook");
  const ServiceModel model = ServiceModel::fit(small_dataset(), fb);
  Rng rng(2);
  std::vector<double> sampled;
  for (int i = 0; i < 50000; ++i) {
    sampled.push_back(model.sample(rng).volume_mb);
  }
  // Sample median matches the mixture median.
  EXPECT_NEAR(std::log10(quantile(sampled, 0.5)),
              std::log10(model.volume().mixture().quantile(0.5)), 0.05);
}

TEST(ServiceModel, DurationJitterSpreadsDurations) {
  const std::size_t fb = service_index("Facebook");
  const ServiceModel model = ServiceModel::fit(small_dataset(), fb);
  Rng rng_a(3), rng_b(3);
  RunningStats no_jitter, with_jitter;
  for (int i = 0; i < 20000; ++i) {
    no_jitter.add(std::log10(model.sample(rng_a, 0.0).duration_s));
    with_jitter.add(std::log10(model.sample(rng_b, 0.2).duration_s));
  }
  EXPECT_GT(with_jitter.stddev(), no_jitter.stddev());
}

TEST(ServiceModel, JsonRoundTripPreservesParameters) {
  const std::size_t netflix = service_index("Netflix");
  const ServiceModel model = ServiceModel::fit(small_dataset(), netflix);
  const ServiceModel rebuilt = ServiceModel::from_json(model.to_json());
  EXPECT_EQ(rebuilt.name(), model.name());
  EXPECT_DOUBLE_EQ(rebuilt.volume().main().mu(), model.volume().main().mu());
  EXPECT_DOUBLE_EQ(rebuilt.volume().main().sigma(),
                   model.volume().main().sigma());
  ASSERT_EQ(rebuilt.volume().peaks().size(), model.volume().peaks().size());
  for (std::size_t i = 0; i < model.volume().peaks().size(); ++i) {
    EXPECT_DOUBLE_EQ(rebuilt.volume().peaks()[i].k,
                     model.volume().peaks()[i].k);
    EXPECT_DOUBLE_EQ(rebuilt.volume().peaks()[i].mu,
                     model.volume().peaks()[i].mu);
  }
  EXPECT_DOUBLE_EQ(rebuilt.duration().alpha(), model.duration().alpha());
  EXPECT_DOUBLE_EQ(rebuilt.duration().beta(), model.duration().beta());
  EXPECT_DOUBLE_EQ(rebuilt.session_share(), model.session_share());
}

TEST(ModelRegistry, FitsAllPopularServices) {
  const ModelRegistry& registry = fitted_registry();
  EXPECT_GE(registry.services().size(), 15u);
  EXPECT_TRUE(registry.has("Facebook"));
  EXPECT_TRUE(registry.has("Netflix"));
  EXPECT_FALSE(registry.has("NoSuchService"));
  EXPECT_THROW(registry.by_name("NoSuchService"), InvalidArgument);
  EXPECT_EQ(registry.by_name("Netflix").name(), "Netflix");
}

// The registry fits its services on parallel jobs; the result must equal a
// serial ServiceModel::fit loop in service order, skip rule included.
TEST(ParallelModelFit, RegistryMatchesASerialServiceModelLoop) {
  const MeasurementDataset& dataset = small_dataset();
  JsonArray serial;
  for (std::size_t s = 0; s < dataset.num_services(); ++s) {
    if (dataset.slice(s, Slice::kTotal).sessions < 100) continue;
    serial.push_back(ServiceModel::fit(dataset, s).to_json());
  }
  EXPECT_EQ(fitted_registry().to_json().at("services").dump(2),
            Json(std::move(serial)).dump(2));
}

TEST(ModelRegistry, ArrivalsAreFittedToo) {
  const ModelRegistry& registry = fitted_registry();
  EXPECT_EQ(registry.arrivals().classes().size(), kNumDeciles);
}

TEST(ModelRegistry, SaveLoadRoundTrip) {
  const ModelRegistry& registry = fitted_registry();
  const std::string path = ::testing::TempDir() + "/mtd_registry.json";
  registry.save(path);
  const ModelRegistry loaded = ModelRegistry::load(path);
  EXPECT_EQ(loaded.services().size(), registry.services().size());
  const ServiceModel& orig = registry.by_name("Netflix");
  const ServiceModel& back = loaded.by_name("Netflix");
  EXPECT_DOUBLE_EQ(back.volume().main().mu(), orig.volume().main().mu());
  EXPECT_DOUBLE_EQ(back.duration().beta(), orig.duration().beta());
  EXPECT_DOUBLE_EQ(
      loaded.arrivals().class_model(5).peak_mu,
      registry.arrivals().class_model(5).peak_mu);
  std::remove(path.c_str());
}

TEST(ModelRegistry, JsonIsParsableAndStructured) {
  const Json json = fitted_registry().to_json();
  const Json round = Json::parse(json.dump(2));
  EXPECT_GE(round.at("services").as_array().size(), 15u);
  EXPECT_EQ(round.at("arrivals").at("classes").as_array().size(),
            kNumDeciles);
  const Json& first = round.at("services").as_array().front();
  for (const char* key :
       {"name", "mu", "sigma", "peaks", "alpha", "beta", "session_share"}) {
    EXPECT_TRUE(first.contains(key)) << key;
  }
}

}  // namespace
}  // namespace mtd
