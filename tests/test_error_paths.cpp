// Systematic error-path coverage: every public entry point rejects
// malformed input with a typed exception rather than UB or silent garbage.
#include <gtest/gtest.h>

#include "core/service_model.hpp"
#include "core/traffic_generator.hpp"
#include "dataset/measurement.hpp"
#include "io/json.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

TEST(ErrorPaths, ExceptionHierarchy) {
  // All library exceptions derive from mtd::Error (and std::runtime_error),
  // so callers can catch at any granularity.
  try {
    throw InvalidArgument("x");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "x");
  }
  try {
    throw NumericalError("y");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "y");
  }
  try {
    throw ParseError("z");
  } catch (const Error&) {
    SUCCEED();
  }
}

TEST(ErrorPaths, RequireHelper) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), InvalidArgument);
  try {
    require(false, "specific message");
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(ErrorPaths, EmptyDatasetCannotBeFitted) {
  NetworkConfig config;
  config.num_bs = 10;
  Rng rng(1);
  static const Network network = Network::build(config, rng);
  MeasurementDataset empty(network, 1);
  empty.finalize();
  EXPECT_THROW(ArrivalModel::fit(empty), InvalidArgument);
  EXPECT_THROW(ModelRegistry::fit(empty), InvalidArgument);
  EXPECT_THROW(ServiceModel::fit(empty, 0), InvalidArgument);
}

TEST(ErrorPaths, RegistryFromMalformedJson) {
  EXPECT_THROW(ModelRegistry::from_json(Json::parse("{}")), ParseError);
  EXPECT_THROW(
      ModelRegistry::from_json(Json::parse(R"({"services": 3})")),
      ParseError);
  // A service entry missing required fields.
  EXPECT_THROW(ModelRegistry::from_json(Json::parse(
                   R"({"services": [{"name": "X"}], "arrivals": {}})")),
               ParseError);
  EXPECT_THROW(ModelRegistry::load("/nonexistent/models.json"), Error);
}

TEST(ErrorPaths, ServiceModelFromIncompleteJson) {
  const Json incomplete = Json::parse(
      R"({"name": "X", "mu": 0.0, "sigma": 0.5, "peaks": []})");
  EXPECT_THROW(ServiceModel::from_json(incomplete), ParseError);
}

TEST(ErrorPaths, VolumeModelRejectsDegeneratePeaks) {
  // Peak sigma must be positive when reassembling from parameters.
  std::vector<ResidualPeak> bad_peaks{{0.1, 0.0, 0.0, -0.1, 0.1}};
  EXPECT_THROW(VolumeModel(Log10Normal(0.0, 0.5), std::move(bad_peaks)),
               InvalidArgument);
}

TEST(ErrorPaths, DatasetAccessorsRangeChecked) {
  const auto& ds = test::tiny_dataset();
  EXPECT_THROW((void)ds.slice(10000, Slice::kTotal), InvalidArgument);
  EXPECT_THROW((void)ds.decile_arrivals(200), InvalidArgument);
}

TEST(ErrorPaths, GeneratorConfigValidation) {
  NetworkConfig config;
  config.num_bs = 10;
  Rng rng(2);
  static const Network network = Network::build(config, rng);
  TraceConfig bad;
  bad.num_days = 0;
  EXPECT_THROW(TraceGenerator(network, bad), InvalidArgument);
  bad = TraceConfig{};
  bad.rate_scale = 0.0;
  EXPECT_THROW(TraceGenerator(network, bad), InvalidArgument);
}

TEST(ErrorPaths, NetworkConfigValidation) {
  Rng rng(3);
  NetworkConfig bad;
  bad.first_decile_rate = 10.0;
  bad.last_decile_rate = 5.0;  // not increasing
  EXPECT_THROW(Network::build(bad, rng), InvalidArgument);
}

TEST(ErrorPaths, MixtureAverageValidation) {
  const Axis axis(0.0, 1.0, 4);
  BinnedPdf a(axis);
  a.add(0.5);
  const std::vector<BinnedPdf> pdfs{a};
  const std::vector<double> too_many{1.0, 2.0};
  EXPECT_THROW(mixture_average(pdfs, too_many), InvalidArgument);
  EXPECT_THROW(mixture_average({}, {}), InvalidArgument);
}

}  // namespace
}  // namespace mtd
