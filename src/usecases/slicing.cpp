#include "usecases/slicing.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/time_utils.hpp"
#include "events/session_source.hpp"

namespace mtd {

namespace {

/// Spreads one session's constant-rate demand over the minutes it spans.
/// `series` is a per-minute Mbps series of length horizon_minutes.
void add_session_demand(std::vector<double>& series, std::size_t start_minute,
                        double start_second_in_minute, double duration_s,
                        double rate_mbps) {
  double remaining = duration_s;
  double offset = start_second_in_minute;
  std::size_t minute = start_minute;
  while (remaining > 0.0 && minute < series.size()) {
    const double seconds_here = std::min(remaining, 60.0 - offset);
    series[minute] += rate_mbps * seconds_here / 60.0;
    remaining -= seconds_here;
    offset = 0.0;
    ++minute;
  }
}

/// The antenna population: deciles cycled around config.antenna_decile so
/// the evaluation covers heterogeneous loads.
std::vector<std::uint8_t> antenna_deciles(const SlicingConfig& config) {
  std::vector<std::uint8_t> out;
  out.reserve(config.num_antennas);
  for (std::size_t a = 0; a < config.num_antennas; ++a) {
    const int jitter = static_cast<int>(a % 5) - 2;
    const int decile =
        std::clamp(static_cast<int>(config.antenna_decile) + jitter, 0,
                   static_cast<int>(kNumDeciles) - 1);
    out.push_back(static_cast<std::uint8_t>(decile));
  }
  return out;
}

/// Per-minute, per-service ground-truth demand of one antenna over the
/// evaluation horizon.
std::vector<std::vector<double>> real_demand(const ArrivalClassModel& arrival,
                                             const ArrivalModel& shares,
                                             const SlicingConfig& config,
                                             Rng& rng) {
  const GroundTruthDrawSource source;
  const std::size_t horizon = config.eval_days * kMinutesPerDay;
  std::vector<std::vector<double>> demand(
      source.num_services(), std::vector<double>(horizon, 0.0));

  for (std::size_t day = 0; day < config.eval_days; ++day) {
    for (std::size_t minute = 0; minute < kMinutesPerDay; ++minute) {
      const std::uint32_t count = arrival.sample_minute(minute, rng);
      const std::size_t global_minute = day * kMinutesPerDay + minute;
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::size_t service = shares.sample_service(rng);
        const SessionDrawSource::Draw draw = source.sample(service, rng);
        add_session_demand(demand[service], global_minute,
                           rng.uniform(0.0, 60.0), draw.duration_s,
                           draw.throughput_mbps());
      }
    }
  }
  return demand;
}

/// Monte-Carlo estimate of the per-entity (service or category) 95th
/// percentile of peak-hour per-minute demand, under a given session source
/// and entity-share vector.
std::vector<double> allocate_by_quantile(
    const ArrivalClassModel& arrival, std::span<const double> entity_shares,
    const std::function<SessionDrawSource::Draw(std::size_t, Rng&)>& draw_entity,
    const SlicingConfig& config, Rng& rng) {
  const std::size_t n = entity_shares.size();
  const std::size_t horizon = config.calibration_days * kMinutesPerDay;
  std::vector<std::vector<double>> demand(n,
                                          std::vector<double>(horizon, 0.0));

  std::vector<double> cdf(entity_shares.begin(), entity_shares.end());
  double acc = 0.0;
  for (double& v : cdf) {
    acc += v;
    v = acc;
  }
  require(acc > 0.0, "allocate_by_quantile: zero shares");
  for (double& v : cdf) v /= acc;
  cdf.back() = 1.0;

  for (std::size_t day = 0; day < config.calibration_days; ++day) {
    for (std::size_t minute = 0; minute < kMinutesPerDay; ++minute) {
      const std::uint32_t count = arrival.sample_minute(minute, rng);
      const std::size_t global_minute = day * kMinutesPerDay + minute;
      for (std::uint32_t k = 0; k < count; ++k) {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const auto entity = std::min(
            static_cast<std::size_t>(it - cdf.begin()), n - 1);
        const SessionDrawSource::Draw draw = draw_entity(entity, rng);
        add_session_demand(demand[entity], global_minute,
                           rng.uniform(0.0, 60.0), draw.duration_s,
                           draw.throughput_mbps());
      }
    }
  }

  // 95th percentile of peak-hour minutes per entity.
  std::vector<double> allocation(n, 0.0);
  for (std::size_t e = 0; e < n; ++e) {
    std::vector<double> peak;
    peak.reserve(demand[e].size());
    for (std::size_t m = 0; m < demand[e].size(); ++m) {
      if (is_peak_minute(m % kMinutesPerDay)) peak.push_back(demand[e][m]);
    }
    allocation[e] = quantile(peak, config.sla_quantile);
  }
  return allocation;
}

struct StrategyAllocations {
  std::string name;
  /// allocation[antenna][service] in Mbps.
  std::vector<std::vector<double>> per_service;
};

/// Ground-truth demand, demand[antenna][service][minute] in Mbps.
using DemandTensor = std::vector<std::vector<std::vector<double>>>;

/// Allocations + evaluation against a ground-truth demand tensor, sized to
/// num_antennas and filled by fill_demand(j, demand) for j < demand_jobs;
/// shared by the Monte-Carlo and the SessionSource-backed entry points. The
/// demand jobs run in the calibration fork (calibration never reads the
/// demand), each writing only its own antennas. The strategy side is
/// calibration Monte-Carlo either way — only where the evaluated demand
/// comes from differs.
SlicingResult evaluate_strategies(
    const ModelRegistry& registry, const SlicingConfig& config,
    std::size_t demand_jobs,
    const std::function<void(std::size_t, DemandTensor&)>& fill_demand) {
  const auto& catalog = service_catalog();
  const std::size_t num_services = catalog.size();
  const std::vector<std::uint8_t> deciles = antenna_deciles(config);
  const ArrivalModel& arrivals = registry.arrivals();

  // split() derives children from the seed alone, so this root yields the
  // same strategy streams whichever entry point built the demand tensor.
  const Rng root(config.seed);

  std::vector<StrategyAllocations> strategies{
      {"model (ours)", {}},
      {"bm a (3 categories, Table-1 shares)", {}},
      {"bm b (3 categories, literature shares)", {}},
  };
  for (StrategyAllocations& strategy : strategies) {
    strategy.per_service.resize(config.num_antennas);
  }

  // Ours: per-service Monte-Carlo with the fitted models.
  const ModelDrawSource model(registry);
  const auto model_draw = [&model](std::size_t service, Rng& r) {
    return model.sample(service, r);
  };

  // Benchmarks: the operator knows the *total* antenna demand (BS-level
  // counters exist without any session-level instrumentation) and provisions
  // its 95th percentile, but splits it across slices using only 3-category
  // session shares - uniformly within each category, since no intra-category
  // information is available (Sec. 6.1.1). bm a uses Table-1-aggregated
  // category shares, bm b the literature shares.
  const GroundTruthDrawSource measured;
  const auto total_draw = [&measured, &arrivals](std::size_t, Rng& r) {
    return measured.sample(arrivals.sample_service(r), r);
  };
  const std::array<std::array<double, 3>, 2> category_shares{
      table1_category_shares(), literature_shares()};
  std::array<std::size_t, 3> members{0, 0, 0};
  for (const auto& profile : catalog) {
    ++members[static_cast<std::size_t>(profile.category)];
  }

  // One calibration job per (strategy, antenna), on the stream
  // root.split(2000 | 3000 | 4000 + antenna) of its strategy, next to the
  // demand jobs. Jobs are claimed heaviest first: the demand jobs, then the
  // calibration jobs by antenna decile, descending (strategy-major within a
  // decile). The claim order is a fixed permutation, so the lowest failing
  // claim still decides which error surfaces.
  DemandTensor demand(config.num_antennas);
  std::vector<std::size_t> calibration(strategies.size() *
                                       config.num_antennas);
  std::iota(calibration.begin(), calibration.end(), std::size_t{0});
  std::stable_sort(calibration.begin(), calibration.end(),
                   [&](std::size_t x, std::size_t y) {
                     return deciles[x % config.num_antennas] >
                            deciles[y % config.num_antennas];
                   });
  parallel_for(demand_jobs + calibration.size(), [&](std::size_t claim) {
    if (claim < demand_jobs) {
      fill_demand(claim, demand);
      return;
    }
    const std::size_t job = calibration[claim - demand_jobs];
    const std::size_t k = job / config.num_antennas;
    const std::size_t a = job % config.num_antennas;
    const ArrivalClassModel& arrival = arrivals.class_model(deciles[a]);
    Rng rng = root.split(2000 + 1000 * k + a);
    std::vector<double>& out = strategies[k].per_service[a];
    if (k == 0) {
      out = allocate_by_quantile(arrival, arrivals.service_shares(),
                                 model_draw, config, rng);
      return;
    }
    // Total-demand calibration: one aggregate entity fed by all services.
    const std::array<double, 1> total_share{1.0};
    const double total = allocate_by_quantile(arrival, total_share, total_draw,
                                              config, rng)[0];
    const std::array<double, 3>& shares = category_shares[k - 1];
    out.resize(num_services);
    for (std::size_t s = 0; s < num_services; ++s) {
      const auto cat = static_cast<std::size_t>(catalog[s].category);
      out[s] = total * shares[cat] / static_cast<double>(members[cat]);
    }
  });

  // ---- evaluation -----------------------------------------------------------
  SlicingResult result;
  const std::size_t fig12_service = service_index(config.fig12_service);

  for (const StrategyAllocations& strategy : strategies) {
    SliceStrategyResult row;
    row.name = strategy.name;
    std::vector<double> satisfied;
    satisfied.reserve(config.num_antennas * num_services);
    for (std::size_t a = 0; a < config.num_antennas; ++a) {
      for (std::size_t s = 0; s < num_services; ++s) {
        const double alloc = strategy.per_service[a][s];
        row.total_allocated_mbps += alloc;
        std::size_t ok = 0, total = 0;
        const std::vector<double>& series = demand[a][s];
        for (std::size_t m = 0; m < series.size(); ++m) {
          if (!is_peak_minute(m % kMinutesPerDay)) continue;
          ++total;
          if (series[m] <= alloc) ++ok;
        }
        if (total > 0) {
          satisfied.push_back(static_cast<double>(ok) /
                              static_cast<double>(total));
        }
      }
    }
    row.mean_satisfied = mean(satisfied);
    row.stddev_satisfied = stddev(satisfied);
    std::size_t met = 0;
    for (double v : satisfied) {
      if (v >= config.sla_quantile) ++met;
    }
    row.sla_met_fraction =
        satisfied.empty()
            ? 0.0
            : static_cast<double>(met) / static_cast<double>(satisfied.size());
    row.fig12_allocation_mbps =
        strategy.per_service[config.fig12_antenna][fig12_service];
    result.strategies.push_back(row);
  }

  result.fig12_demand_mbps = demand[config.fig12_antenna][fig12_service];
  return result;
}

}  // namespace

void validate(const SlicingConfig& config, const std::string& where) {
  require(config.num_antennas >= 1, where + ": num_antennas must be >= 1");
  require(config.eval_days >= 1, where + ": eval_days must be >= 1");
  require(config.calibration_days >= 1,
          where + ": calibration_days must be >= 1");
  require(config.sla_quantile >= 0.0 && config.sla_quantile <= 1.0,
          where + ": sla_quantile must be in [0, 1]");
  require(config.fig12_antenna < config.num_antennas,
          where + ": fig12_antenna must be < num_antennas");
  static_cast<void>(service_index(config.fig12_service));
}

SlicingResult run_slicing(const ModelRegistry& registry,
                          const SlicingConfig& config) {
  validate(config, "run_slicing");
  const std::vector<std::uint8_t> deciles = antenna_deciles(config);
  const ArrivalModel& arrivals = registry.arrivals();

  const Rng root(config.seed);

  // Ground-truth demand, one job per antenna on root.split(1000 + a).
  return evaluate_strategies(
      registry, config, config.num_antennas,
      [&](std::size_t a, DemandTensor& demand) {
        Rng rng = root.split(1000 + a);
        demand[a] = real_demand(arrivals.class_model(deciles[a]), arrivals,
                                config, rng);
      });
}

SlicingResult run_slicing_from_source(SessionSource& source,
                                      const ModelRegistry& registry,
                                      const SlicingConfig& config) {
  validate(config, "run_slicing_from_source");
  // Scan days are 16-bit: the last one, eval_days - 1, must fit.
  require(config.eval_days <= std::size_t{1} << 16,
          "run_slicing_from_source: eval_days must be <= 65536");
  const std::size_t num_services = service_catalog().size();
  const std::size_t horizon = config.eval_days * kMinutesPerDay;

  // Ground-truth demand streamed from the trace: antenna a evaluates the
  // sessions of BS a over the horizon, one per-BS push-down scan each.
  // Sub-minute placement comes from the ordering key (event_start_second),
  // so the tensor is identical whichever SessionSource implementation
  // delivers the events. One job runs every scan, in antenna order, so the
  // source is never scanned concurrently.
  return evaluate_strategies(
      registry, config, 1, [&](std::size_t, DemandTensor& demand) {
        for (std::size_t a = 0; a < config.num_antennas; ++a) {
          demand[a].assign(num_services, std::vector<double>(horizon));
          SourceQuery query;
          query.bs = static_cast<std::uint32_t>(a);
          query.day_hi = static_cast<std::uint16_t>(config.eval_days - 1);
          query.kinds = EventKindMask{}.set(EventKind::kSession);
          (void)source.scan(query, [&](const StreamEvent& event) {
            const Session& s = std::get<SessionEvent>(event.payload).session;
            if (s.service >= num_services) return;
            const std::size_t minute = static_cast<std::size_t>(event.key.day) *
                                           kMinutesPerDay +
                                       event.key.minute_of_day;
            add_session_demand(demand[a][s.service], minute,
                               event_start_second(event.key), s.duration_s,
                               s.throughput_mbps());
          });
        }
      });
}

}  // namespace mtd
