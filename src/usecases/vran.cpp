#include "usecases/vran.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/time_utils.hpp"

namespace mtd {

const char* to_string(PackingPolicy p) noexcept {
  switch (p) {
    case PackingPolicy::kFirstFitDecreasing: return "first-fit decreasing";
    case PackingPolicy::kBestFitDecreasing: return "best-fit decreasing";
    case PackingPolicy::kWorstFitDecreasing: return "worst-fit decreasing";
    case PackingPolicy::kNoConsolidation: return "no consolidation";
  }
  return "?";
}

namespace {

/// Bins one slot may use: VranTimeline::active_ps counts them in 16 bits.
constexpr std::size_t kMaxBins = std::numeric_limits<std::uint16_t>::max();

/// pack_loads into caller-owned storage: sorts `loads` descending in place
/// and packs them into `bins`, which is cleared first, so a caller reusing
/// both allocates nothing once they have grown. Returns nullptr, or why the
/// loads cannot be packed: a non-finite load, or more than kMaxBins bins.
/// No bin holds more than `capacity`, so loads summing to more than
/// kMaxBins bins' worth are rejected before any is split; a huge load
/// cannot spin the splitting loop.
[[nodiscard]] const char* pack_into(std::span<double> loads, double capacity,
                                    PackingPolicy policy,
                                    std::vector<double>& bins) {
  double total = 0.0;
  for (const double load : loads) {
    if (!std::isfinite(load)) return "non-finite load";
    if (load > 0.0) total += load;
  }
  if (total / capacity > static_cast<double>(kMaxBins)) {
    return "loads need more than 65535 bins";
  }
  std::sort(loads.begin(), loads.end(), std::greater<>());
  bins.clear();
  for (double load : loads) {
    if (load <= 0.0) continue;
    // Oversized items are split: fill whole bins, then place the remainder.
    while (load > capacity) {
      bins.push_back(capacity);
      load -= capacity;
    }
    if (policy == PackingPolicy::kNoConsolidation) {
      bins.push_back(load);
      continue;
    }
    std::size_t chosen = bins.size();
    switch (policy) {
      case PackingPolicy::kFirstFitDecreasing:
        for (std::size_t b = 0; b < bins.size(); ++b) {
          if (bins[b] + load <= capacity) {
            chosen = b;
            break;
          }
        }
        break;
      case PackingPolicy::kBestFitDecreasing: {
        double best_slack = capacity + 1.0;
        for (std::size_t b = 0; b < bins.size(); ++b) {
          const double slack = capacity - bins[b] - load;
          if (slack >= 0.0 && slack < best_slack) {
            best_slack = slack;
            chosen = b;
          }
        }
        break;
      }
      case PackingPolicy::kWorstFitDecreasing: {
        double best_slack = -1.0;
        for (std::size_t b = 0; b < bins.size(); ++b) {
          const double slack = capacity - bins[b] - load;
          if (slack >= 0.0 && slack > best_slack) {
            best_slack = slack;
            chosen = b;
          }
        }
        break;
      }
      case PackingPolicy::kNoConsolidation:
        break;
    }
    if (chosen < bins.size()) {
      bins[chosen] += load;
    } else {
      bins.push_back(load);
    }
  }
  return bins.size() > kMaxBins ? "loads need more than 65535 bins" : nullptr;
}

}  // namespace

PackingResult pack_loads(std::vector<double> loads, double capacity,
                         PackingPolicy policy) {
  require(capacity > 0.0, "pack_loads: capacity must be positive");
  PackingResult result;
  if (const char* why = pack_into(loads, capacity, policy, result.bin_loads)) {
    throw InvalidArgument(std::string("pack_loads: ") + why);
  }
  result.bins = result.bin_loads.size();
  return result;
}

namespace {

/// One scheduled session arrival, shared across strategies. The measured
/// rate and duration are filled only by the SessionSource-backed schedule
/// (the Monte-Carlo path redraws the ground truth instead).
struct ArrivalEvent {
  std::uint32_t second;   // absolute second within the horizon
  std::uint16_t ru;
  std::uint16_t service;
  float rate_mbps = 0.0f;
  float duration_s = 0.0f;
};

/// Session characteristics attached to one arrival by one strategy.
using ArrivalDraw =
    std::function<SessionDrawSource::Draw(const ArrivalEvent&, Rng&)>;

/// Builds the shared realization of class-level session arrivals.
std::vector<ArrivalEvent> build_arrival_schedule(const ArrivalModel& arrivals,
                                                 const ArrivalClassModel& cls,
                                                 std::size_t num_rus,
                                                 std::size_t num_days,
                                                 Rng& rng) {
  std::vector<ArrivalEvent> schedule;
  for (std::size_t ru = 0; ru < num_rus; ++ru) {
    for (std::size_t day = 0; day < num_days; ++day) {
      for (std::size_t minute = 0; minute < kMinutesPerDay; ++minute) {
        const std::uint32_t count = cls.sample_minute(minute, rng);
        const std::size_t base_second =
            (day * kMinutesPerDay + minute) * kSecondsPerMinute;
        for (std::uint32_t k = 0; k < count; ++k) {
          ArrivalEvent event;
          event.second = static_cast<std::uint32_t>(
              base_second + rng.uniform_index(kSecondsPerMinute));
          event.ru = static_cast<std::uint16_t>(ru);
          event.service =
              static_cast<std::uint16_t>(arrivals.sample_service(rng));
          schedule.push_back(event);
        }
      }
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const ArrivalEvent& a, const ArrivalEvent& b) {
              return a.second < b.second;
            });
  return schedule;
}

/// Simulates the packing over the horizon for one strategy: sessions from
/// `draw` attached to the shared arrival schedule.
VranTimeline simulate(const std::string& name,
                      const std::vector<ArrivalEvent>& schedule,
                      const ArrivalDraw& draw,
                      std::size_t num_rus, std::size_t horizon_s,
                      const PsPowerModel& ps, PackingPolicy policy,
                      Rng& rng) {
  VranTimeline timeline;
  timeline.name = name;
  timeline.active_ps.assign(horizon_s, 0);
  timeline.power_w.assign(horizon_s, 0.0f);

  // Session end events: min-heap of (end_second, ru, rate).
  struct EndEvent {
    std::uint32_t second;
    std::uint16_t ru;
    float rate;
  };
  const auto later = [](const EndEvent& a, const EndEvent& b) {
    return a.second > b.second;
  };
  std::priority_queue<EndEvent, std::vector<EndEvent>, decltype(later)> ends(
      later);

  std::vector<double> ru_load(num_rus, 0.0);
  std::size_t next_arrival = 0;
  // Packing scratch, reused every slot. A slot in which no RU load changed
  // packs exactly as the one before it, so it repeats that slot's result.
  std::vector<double> sorted;
  std::vector<double> bins;
  bool changed = true;
  std::uint16_t active = 0;
  float power_w = 0.0f;

  for (std::uint32_t t = 0; t < horizon_s; ++t) {
    while (!ends.empty() && ends.top().second <= t) {
      const EndEvent e = ends.top();
      ends.pop();
      ru_load[e.ru] = std::max(0.0, ru_load[e.ru] - e.rate);
      changed = true;
    }
    while (next_arrival < schedule.size() &&
           schedule[next_arrival].second <= t) {
      const ArrivalEvent& a = schedule[next_arrival];
      const SessionDrawSource::Draw d = draw(a, rng);
      const double rate = d.throughput_mbps();
      const auto end_second = static_cast<std::uint32_t>(
          std::min<double>(t + std::max(1.0, d.duration_s), 4.0e9));
      ru_load[a.ru] += rate;
      ends.push(EndEvent{end_second, a.ru, static_cast<float>(rate)});
      ++next_arrival;
      changed = true;
    }

    if (changed) {
      sorted.assign(ru_load.begin(), ru_load.end());
      if (const char* why = pack_into(sorted, ps.capacity_mbps, policy, bins)) {
        throw InvalidArgument("vran " + name + ": slot " + std::to_string(t) +
                              ": " + why);
      }
      active = static_cast<std::uint16_t>(bins.size());
      double power = 0.0;
      for (double load : bins) power += ps.power(load / ps.capacity_mbps);
      power_w = static_cast<float>(power);
      changed = false;
    }
    timeline.active_ps[t] = active;
    timeline.power_w[t] = power_w;
  }
  return timeline;
}

/// Fills `out` (cleared first) with the APE of `model` against `real`,
/// skipping slots where the reference is 0.
template <typename T>
void ape_series(const std::vector<T>& real, const std::vector<T>& model,
                std::vector<double>& out) {
  out.clear();
  for (std::size_t i = 0; i < real.size(); ++i) {
    if (real[i] <= T{0}) continue;
    const auto reference = static_cast<double>(real[i]);
    out.push_back(std::abs(static_cast<double>(model[i]) - reference) /
                  reference);
  }
}

/// Mean session throughput (Mbit/s) under a draw function, for the
/// normalization factors of bm b / bm c: the paper scales the benchmarks so
/// that the (per-class) session throughput matches the measurements.
/// `category` restricts to one literature category (-1 = all services).
double mean_session_throughput(
    const ArrivalDraw& draw,
    const std::vector<ArrivalEvent>& schedule, Rng& rng, int category = -1) {
  const auto& catalog = service_catalog();
  double total = 0.0;
  std::size_t count = 0;
  // Subsample the schedule for speed; 50k draws give a stable mean.
  const std::size_t stride = std::max<std::size_t>(1, schedule.size() / 50000);
  for (std::size_t i = 0; i < schedule.size(); i += stride) {
    const std::size_t service = schedule[i].service;
    if (category >= 0 &&
        static_cast<int>(catalog[service].category) != category) {
      continue;
    }
    total += draw(schedule[i], rng).throughput_mbps();
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

/// Runs every strategy over one shared arrival realization. The
/// measurement strategy is `measurement_draw` — a ground-truth redraw in
/// the Monte-Carlo path, the recorded session characteristics in the
/// SessionSource-backed path; everything downstream (models, benchmark
/// normalization, packing, APE) is identical.
VranResult run_strategies(const ModelRegistry& registry,
                          const VranConfig& config,
                          const std::vector<ArrivalEvent>& schedule,
                          const ArrivalDraw& measurement_draw,
                          const Rng& root) {
  const std::size_t num_rus = config.num_edge_sites * config.rus_per_site;
  const std::size_t horizon_s =
      config.num_days * kMinutesPerDay * kSecondsPerMinute;

  const ModelDrawSource model(registry);
  const CategoryDrawSource raw_categories;

  const auto model_draw = [&model](const ArrivalEvent& a, Rng& r) {
    return model.sample(a.service, r);
  };
  const auto category_draw = [&raw_categories](const ArrivalEvent& a,
                                               Rng& r) {
    return raw_categories.sample(a.service, r);
  };

  // Normalization factors for bm b (system-wide) and bm c (per category):
  // scale the benchmarks' session rates (and hence volumes, duration held
  // fixed) so their mean session throughput matches the measurement.
  Rng norm_rng = root.split(2);
  const double real_mean_tp =
      mean_session_throughput(measurement_draw, schedule, norm_rng);
  const double bm_mean_tp =
      mean_session_throughput(category_draw, schedule, norm_rng);
  const double system_scale =
      bm_mean_tp > 0.0 ? real_mean_tp / bm_mean_tp : 1.0;

  std::array<double, 3> category_scale{1.0, 1.0, 1.0};
  for (int cat = 0; cat < 3; ++cat) {
    const double real =
        mean_session_throughput(measurement_draw, schedule, norm_rng, cat);
    const double bm =
        mean_session_throughput(category_draw, schedule, norm_rng, cat);
    category_scale[static_cast<std::size_t>(cat)] =
        bm > 0.0 ? real / bm : 1.0;
  }

  const CategoryDrawSource bmb_source(
      {system_scale, system_scale, system_scale});
  const CategoryDrawSource bmc_source(category_scale);
  const auto bmb_draw = [&bmb_source](const ArrivalEvent& a, Rng& r) {
    return bmb_source.sample(a.service, r);
  };
  const auto bmc_draw = [&bmc_source](const ArrivalEvent& a, Rng& r) {
    return bmc_source.sample(a.service, r);
  };

  // Run every strategy over the shared arrival realization.
  struct Strategy {
    std::string name;
    ArrivalDraw draw;
  };
  const std::vector<Strategy> strategies{
      {"measurement (ground truth)", measurement_draw},
      {"model (ours)", model_draw},
      {"bm a (raw categories)", category_draw},
      {"bm b (system-normalized)", bmb_draw},
      {"bm c (category-normalized)", bmc_draw},
  };

  // One simulation job per strategy, on the stream root.split(100 + i).
  std::vector<VranTimeline> timelines(strategies.size());
  parallel_for(strategies.size(), [&](std::size_t i) {
    Rng rng = root.split(100 + i);
    timelines[i] = simulate(strategies[i].name, schedule, strategies[i].draw,
                            num_rus, horizon_s, config.ps, config.packing,
                            rng);
  });

  // One post-processing job per strategy, each into its own row. A job
  // reuses one APE buffer: the active-PS boxplot is taken before the
  // buffer is refilled with the power APE.
  const VranTimeline& real = timelines.front();
  const std::size_t series_start =
      std::min(config.series_start_minute * kSecondsPerMinute, horizon_s - 1);
  const std::size_t series_len =
      std::min(config.series_seconds, horizon_s - series_start);
  VranResult result;
  result.strategies.resize(timelines.size());
  parallel_for(timelines.size(), [&](std::size_t i) {
    const VranTimeline& timeline = timelines[i];
    VranStrategyResult& row = result.strategies[i];
    row.name = timeline.name;
    std::vector<double> ape;
    ape.reserve(horizon_s);
    ape_series(real.active_ps, timeline.active_ps, ape);
    if (!ape.empty()) {
      row.ape_active_ps = boxplot_stats_in_place(ape);
      row.median_ape_active_ps = row.ape_active_ps.median;
    }
    ape_series(real.power_w, timeline.power_w, ape);
    if (!ape.empty()) {
      row.ape_power = boxplot_stats_in_place(ape);
      row.median_ape_power = row.ape_power.median;
    }
    double mean_power = 0.0;
    for (float p : timeline.power_w) mean_power += p;
    row.mean_power_w =
        timeline.power_w.empty()
            ? 0.0
            : mean_power / static_cast<double>(timeline.power_w.size());
    row.power_series_w.assign(
        timeline.power_w.begin() + static_cast<std::ptrdiff_t>(series_start),
        timeline.power_w.begin() +
            static_cast<std::ptrdiff_t>(series_start + series_len));
  });
  return result;
}

}  // namespace

void validate(const VranConfig& config, const std::string& where) {
  constexpr std::size_t kMaxRus = std::size_t{1} << 16;
  constexpr std::size_t kMaxDays =
      std::numeric_limits<std::uint32_t>::max() /
      (kMinutesPerDay * kSecondsPerMinute);
  require(config.num_edge_sites >= 1,
          where + ": num_edge_sites must be >= 1");
  require(config.rus_per_site >= 1, where + ": rus_per_site must be >= 1");
  require(config.rus_per_site <= kMaxRus / config.num_edge_sites,
          where + ": num_edge_sites x rus_per_site must be <= 65536");
  require(config.num_days >= 1, where + ": num_days must be >= 1");
  require(config.num_days <= kMaxDays,
          where + ": num_days must be <= " + std::to_string(kMaxDays));
  require(config.ps.capacity_mbps > 0.0,
          where + ": ps.capacity_mbps must be positive");
}

VranResult run_vran(const ModelRegistry& registry, const VranConfig& config) {
  validate(config, "run_vran");
  const std::size_t num_rus = config.num_edge_sites * config.rus_per_site;

  const Rng root(config.seed);
  Rng arrival_rng = root.split(1);

  const ArrivalModel& arrivals = registry.arrivals();
  const std::vector<ArrivalEvent> schedule = build_arrival_schedule(
      arrivals, arrivals.class_model(config.ru_decile), num_rus,
      config.num_days, arrival_rng);

  const GroundTruthDrawSource truth;
  const auto truth_draw = [&truth](const ArrivalEvent& a, Rng& r) {
    return truth.sample(a.service, r);
  };
  return run_strategies(registry, config, schedule, truth_draw, root);
}

VranResult run_vran_from_source(SessionSource& source,
                                const ModelRegistry& registry,
                                const VranConfig& config) {
  validate(config, "run_vran_from_source");
  const std::size_t num_rus = config.num_edge_sites * config.rus_per_site;

  const Rng root(config.seed);

  // The shared arrival realization streamed from the trace: RU r replays
  // the recorded sessions of BS r over days [0, num_days) — one per-BS
  // push-down scan each — with the arrival second derived from the event
  // key. The measurement strategy then replays each session's own recorded
  // rate and duration; the models attach their draws to the same arrivals.
  const std::size_t num_services = service_catalog().size();
  std::vector<ArrivalEvent> schedule;
  for (std::size_t ru = 0; ru < num_rus; ++ru) {
    SourceQuery query;
    query.bs = static_cast<std::uint32_t>(ru);
    query.day_hi = static_cast<std::uint16_t>(config.num_days - 1);
    query.kinds = EventKindMask{}.set(EventKind::kSession);
    (void)source.scan(query, [&](const StreamEvent& event) {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      if (s.service >= num_services) return;
      ArrivalEvent arrival;
      arrival.second = static_cast<std::uint32_t>(
          event.key.clock_minute() * kSecondsPerMinute +
          static_cast<std::size_t>(event_start_second(event.key)));
      arrival.ru = static_cast<std::uint16_t>(ru);
      arrival.service = s.service;
      arrival.rate_mbps = static_cast<float>(s.throughput_mbps());
      arrival.duration_s = static_cast<float>(s.duration_s);
      schedule.push_back(arrival);
    });
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const ArrivalEvent& a, const ArrivalEvent& b) {
              return a.second < b.second;
            });

  const auto measurement_draw = [](const ArrivalEvent& a, Rng&) {
    // The recorded session, rebuilt as a draw: volume = rate x time / 8.
    return SessionDrawSource::Draw{
        static_cast<double>(a.rate_mbps) * a.duration_s / 8.0,
        static_cast<double>(a.duration_s)};
  };
  return run_strategies(registry, config, schedule, measurement_draw, root);
}

}  // namespace mtd
