#include "dataset/network.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"

namespace mtd {

const char* to_string(Region r) noexcept {
  switch (r) {
    case Region::kUrban: return "urban";
    case Region::kSemiUrban: return "semi-urban";
    case Region::kRural: return "rural";
  }
  return "?";
}

const char* to_string(Rat r) noexcept {
  return r == Rat::k4G ? "4G" : "5G";
}

Network Network::build(const NetworkConfig& config, Rng& rng) {
  require(config.num_bs >= kNumDeciles,
          "Network::build: need at least one BS per decile");
  require(config.first_decile_rate > 0.0 &&
              config.last_decile_rate > config.first_decile_rate,
          "Network::build: decile rates must be positive and increasing");

  Network net;
  net.config_ = config;
  net.bs_.reserve(config.num_bs);

  const double growth =
      std::pow(config.last_decile_rate / config.first_decile_rate,
               1.0 / static_cast<double>(kNumDeciles - 1));
  std::array<double, kNumDeciles> decile_rates{};
  for (std::size_t d = 0; d < kNumDeciles; ++d) {
    decile_rates[d] = config.first_decile_rate * std::pow(growth, d);
  }

  for (std::size_t i = 0; i < config.num_bs; ++i) {
    BaseStation bs;
    bs.id = static_cast<std::uint32_t>(i);
    // Uniform decile membership: each decile holds 10% of the BSs.
    bs.decile = static_cast<std::uint8_t>((i * kNumDeciles) / config.num_bs);

    // Busier BSs are more likely urban; lighter ones rural.
    const double urban_p =
        0.15 + 0.7 * static_cast<double>(bs.decile) / (kNumDeciles - 1);
    const double u = rng.uniform();
    if (u < urban_p) {
      bs.region = Region::kUrban;
    } else if (u < urban_p + 0.6 * (1.0 - urban_p)) {
      bs.region = Region::kSemiUrban;
    } else {
      bs.region = Region::kRural;
    }
    // Urban BSs belong to one of the 5 largest metropolitan areas with
    // probability 60%.
    if (bs.region == Region::kUrban && rng.bernoulli(0.6)) {
      bs.city = static_cast<std::uint8_t>(rng.uniform_index(kNumCities));
    }
    bs.rat = rng.bernoulli(config.fraction_5g) ? Rat::k5G : Rat::k4G;

    const double jitter =
        1.0 + config.rate_jitter * (2.0 * rng.uniform() - 1.0);
    bs.peak_rate = decile_rates[bs.decile] * jitter;
    bs.offpeak_scale =
        std::max(0.02, bs.peak_rate * config.offpeak_scale_ratio);
    net.bs_.push_back(bs);
  }
  return net;
}

Network Network::from_base_stations(std::vector<BaseStation> bs,
                                    const NetworkConfig& config) {
  require(!bs.empty(), "Network::from_base_stations: need at least one BS");
  for (const BaseStation& b : bs) {
    require(b.decile < kNumDeciles,
            "Network::from_base_stations: decile out of range");
    require(b.peak_rate > 0.0 && b.offpeak_scale > 0.0,
            "Network::from_base_stations: rates must be positive");
  }
  Network net;
  net.config_ = config;
  net.config_.num_bs = bs.size();
  net.bs_ = std::move(bs);
  for (std::size_t i = 0; i < net.bs_.size(); ++i) {
    net.bs_[i].id = static_cast<std::uint32_t>(i);
  }
  return net;
}

std::vector<std::uint32_t> Network::in_decile(std::uint8_t d) const {
  std::vector<std::uint32_t> out;
  for (const auto& bs : bs_) {
    if (bs.decile == d) out.push_back(bs.id);
  }
  return out;
}

std::vector<std::uint32_t> Network::in_region(Region r) const {
  std::vector<std::uint32_t> out;
  for (const auto& bs : bs_) {
    if (bs.region == r) out.push_back(bs.id);
  }
  return out;
}

std::vector<std::uint32_t> Network::in_city(std::uint8_t city) const {
  std::vector<std::uint32_t> out;
  for (const auto& bs : bs_) {
    if (bs.city == city) out.push_back(bs.id);
  }
  return out;
}

std::vector<std::uint32_t> Network::with_rat(Rat r) const {
  std::vector<std::uint32_t> out;
  for (const auto& bs : bs_) {
    if (bs.rat == r) out.push_back(bs.id);
  }
  return out;
}

double Network::decile_peak_rate(std::uint8_t d) const {
  require(d < kNumDeciles, "decile_peak_rate: bad decile");
  const double growth =
      std::pow(config_.last_decile_rate / config_.first_decile_rate,
               1.0 / static_cast<double>(kNumDeciles - 1));
  return config_.first_decile_rate * std::pow(growth, d);
}

}  // namespace mtd
