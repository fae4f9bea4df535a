// Hot-path micro-benchmarks: the O(1) sampling kernels and the
// zero-allocation serializers against the implementations they replaced.
//
// Each section times the optimized kernel and a faithful local
// reimplementation of the retired baseline over the same inputs:
//   service_draw     alias table vs lower_bound over the Table-1 share CDF
//   mixture_draw     alias component pick vs cumulative-weight linear scan
//   circadian_minute per-minute activity LUT vs direct evaluation
//   pow10            exp2-based base-10 exponential vs std::pow(10, x)
//   uniform_block    4-lane BlockRng block fill vs per-draw scalar Rng
//   pow10_block      vectorized exp2 polynomial block vs scalar pow10_fast
//   alias_sample_block batched alias lookup vs per-element pick
//   minute_batch_fill  SoA minute kernel vs the scalar session draw chain
//   mixture_scan_k*  in-register CDF scan vs alias pick at k components
//                    (the scan wins below the k<=4 crossover the batch
//                    kernel uses; the alias table stays for large tables)
//   ndjson_serialize hand-rolled buffered writer vs JsonObject-per-event
//   binary_serialize patched-length single buffer vs frame-per-event
//   csv_serialize    to_chars rows vs ofstream operator<<
//   page_checksum    XXH64 vs four-lane FNV-1a over 4 KiB leaf payloads
//                    (bytes/s; the trace store's page checksum)
//
// One JSON line per row goes to stdout and the full report to
// BENCH_hotpaths.json (schema: {bench, fast, rows: [{name, unit,
// baseline_per_s, optimized_per_s, speedup}]}) for CI trend tracking.
// MTD_BENCH_FAST shrinks iteration counts for smoke runs. google-benchmark
// timings of the same kernels follow the JSON lines.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/alias_table.hpp"
#include "common/batch_rng/block_rng.hpp"
#include "common/batch_rng/vec_math.hpp"
#include "common/fmt.hpp"
#include "common/fnv.hpp"
#include "common/time_utils.hpp"
#include "dataset/generator.hpp"
#include "dataset/service_catalog.hpp"
#include "dataset/trace_io.hpp"
#include "events/event_codec.hpp"
#include "events/event_sink.hpp"
#include "io/json.hpp"
#include "store/format.hpp"

namespace {

using namespace mtd;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string temp_file(const char* name) {
  return std::string("/tmp/") + name;
}

/// One comparison row; `per_s` is ops (draws, events) per second.
JsonObject make_row(const char* name, const char* unit, double baseline_per_s,
                    double optimized_per_s) {
  JsonObject row;
  row.emplace("name", name);
  row.emplace("unit", unit);
  row.emplace("baseline_per_s", baseline_per_s);
  row.emplace("optimized_per_s", optimized_per_s);
  row.emplace("speedup",
              baseline_per_s > 0.0 ? optimized_per_s / baseline_per_s : 0.0);
  return row;
}

void print_row(const JsonObject& row) {
  std::cout << Json(JsonObject(row)).dump() << "\n";
}

// ---------------------------------------------------------------------------
// sampling kernels

std::vector<double> share_cdf() {
  const std::vector<double> shares = normalized_session_shares();
  std::vector<double> cdf(shares.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    acc += shares[i];
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

/// Pre-drawn uniforms so the kernel comparisons time only the selection,
/// not the shared RNG cost. 4096 values defeat the branch predictor
/// without falling out of L1.
std::vector<double> uniform_grid(std::uint64_t seed) {
  std::vector<double> us(4096);
  Rng rng(seed);
  for (double& u : us) u = rng.uniform();
  return us;
}

/// Best ops/s over `reps` runs of `loop` (min-time discipline: the fastest
/// rep is the least perturbed by whatever else the host is doing).
template <typename F>
double best_rate(std::uint64_t iters, int reps, F&& loop) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    loop();
    const double rate = static_cast<double>(iters) / seconds_since(t0);
    best = std::max(best, rate);
  }
  return best;
}

JsonObject bench_service_draw(std::uint64_t iters) {
  const std::vector<double> cdf = share_cdf();
  const AliasTable alias{std::span<const double>(normalized_session_shares())};
  const std::vector<double> us = uniform_grid(123);

  std::uint64_t sink = 0;
  const double base = best_rate(iters, 3, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), us[i & 4095]);
      sink += static_cast<std::size_t>(it - cdf.begin());
    }
  });
  const double opt = best_rate(iters, 3, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) sink += alias.pick(us[i & 4095]);
  });

  benchmark::DoNotOptimize(sink);
  return make_row("service_draw", "draws", base, opt);
}

JsonObject bench_mixture_draw(std::uint64_t iters) {
  // The largest mixture in the catalog (main + up to three residual
  // peaks): the case where component selection costs the most.
  std::size_t widest = 0;
  for (std::size_t s = 0; s < service_catalog().size(); ++s) {
    if (service_catalog()[s].volume_mixture().size() >
        service_catalog()[widest].volume_mixture().size()) {
      widest = s;
    }
  }
  const Log10NormalMixture mixture = service_catalog()[widest].volume_mixture();
  const auto components = mixture.components();
  const std::vector<double> us = uniform_grid(456);

  std::uint64_t sink = 0;
  const double base = best_rate(iters, 3, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      // The retired selection: cumulative linear scan over the weights.
      double u = us[i & 4095];
      std::size_t pick = components.size() - 1;
      for (std::size_t c = 0; c < components.size(); ++c) {
        u -= components[c].weight;
        if (u <= 0.0) {
          pick = c;
          break;
        }
      }
      sink += pick;
    }
  });
  const double opt = best_rate(iters, 3, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += mixture.component_alias().pick(us[i & 4095]);
    }
  });

  benchmark::DoNotOptimize(sink);
  return make_row("mixture_draw", "picks", base, opt);
}

JsonObject bench_circadian(std::uint64_t sweeps) {
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t s = 0; s < sweeps; ++s) {
    for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
      sink += circadian_activity(m);
    }
  }
  const double base_s = seconds_since(t0);

  const auto t1 = Clock::now();
  for (std::uint64_t s = 0; s < sweeps; ++s) {
    for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
      sink += circadian_activity_lut(m);
    }
  }
  const double opt_s = seconds_since(t1);

  benchmark::DoNotOptimize(sink);
  const double evals = static_cast<double>(sweeps * kMinutesPerDay);
  return make_row("circadian_minute", "evals", evals / base_s, evals / opt_s);
}

JsonObject bench_pow10(std::uint64_t iters) {
  // Pre-drawn exponents so both loops time only the exponential.
  std::vector<double> xs(4096);
  Rng rng(789);
  for (double& x : xs) x = rng.normal(0.5, 1.2);

  double sink = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    sink += std::pow(10.0, xs[i & 4095]);
  }
  const double base_s = seconds_since(t0);

  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    sink += pow10_fast(xs[i & 4095]);
  }
  const double opt_s = seconds_since(t1);

  benchmark::DoNotOptimize(sink);
  return make_row("pow10", "evals", static_cast<double>(iters) / base_s,
                  static_cast<double>(iters) / opt_s);
}

// ---------------------------------------------------------------------------
// SoA batch kernels (common/batch_rng; DESIGN.md sec. 16)
//
// Each row compares the scalar per-draw path the engine's kScalar kernel
// uses against the batched SoA form the kBatch kernel uses, per element.
// The primitive rows (uniform_block, pow10_block) can land near or below
// 1.0 on the default x86-64 target: 2-wide SSE2 vectors barely beat
// scalar xoshiro / libm exp2, and the batch forms additionally buy
// digest portability (no libm) and lane-stable streams. The composed row
// (minute_batch_fill) is where the SoA layout pays — one pass over fused
// columns instead of a per-session draw chain.

JsonObject bench_uniform_block(std::uint64_t iters) {
  constexpr std::size_t kBlock = 1024;
  std::vector<double> out(kBlock);
  const std::uint64_t blocks = std::max<std::uint64_t>(1, iters / kBlock);
  const std::uint64_t draws = blocks * kBlock;

  double sink = 0.0;
  const double base = best_rate(draws, 3, [&] {
    Rng rng(11);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      for (std::size_t i = 0; i < kBlock; ++i) out[i] = rng.uniform();
      sink += out[kBlock - 1];
    }
  });
  const double opt = best_rate(draws, 3, [&] {
    BlockRng rng(Rng(11), 0);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      rng.uniform_block(out.data(), kBlock);
      sink += out[kBlock - 1];
    }
  });

  benchmark::DoNotOptimize(sink);
  return make_row("uniform_block", "draws", base, opt);
}

JsonObject bench_pow10_block(std::uint64_t iters) {
  std::vector<double> xs(4096);
  std::vector<double> out(4096);
  Rng rng(790);
  for (double& x : xs) x = rng.normal(0.5, 1.2);
  const std::uint64_t sweeps = std::max<std::uint64_t>(1, iters / xs.size());
  const std::uint64_t evals = sweeps * xs.size();

  double sink = 0.0;
  const double base = best_rate(evals, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i] = pow10_fast(xs[i]);
      sink += out[0];
    }
  });
  const double opt = best_rate(evals, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      vec::pow10_block(xs.data(), out.data(), xs.size());
      sink += out[0];
    }
  });

  benchmark::DoNotOptimize(sink);
  return make_row("pow10_block", "evals", base, opt);
}

JsonObject bench_alias_sample_block(std::uint64_t iters) {
  const AliasTable alias{std::span<const double>(normalized_session_shares())};
  const std::vector<double> us = uniform_grid(321);
  std::vector<std::uint32_t> out(us.size());
  const std::uint64_t sweeps = std::max<std::uint64_t>(1, iters / us.size());
  const std::uint64_t picks = sweeps * us.size();

  std::uint64_t sink = 0;
  const double base = best_rate(picks, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      for (std::size_t i = 0; i < us.size(); ++i) {
        out[i] = static_cast<std::uint32_t>(alias.pick(us[i]));
      }
      sink += out[0];
    }
  });
  const double opt = best_rate(picks, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      alias.sample_block(us.data(), out.data(), us.size());
      sink += out[0];
    }
  });

  benchmark::DoNotOptimize(sink);
  return make_row("alias_sample_block", "picks", base, opt);
}

/// One full generated day of one busy BS, per session: the scalar
/// per-session draw chain (kScalar's inner loop) vs the SoA minute fill
/// (kBatch). Both sides sample the identical per-minute session counts;
/// the streams differ by design (BlockRng v1 vs the scalar stream).
JsonObject bench_minute_fill(bool fast) {
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 20231024;
  const Network& network = mtd::bench::bench_network();
  // The busiest BS: decile 9 has the largest blocks, where the SoA path
  // matters most.
  std::size_t busiest = 0;
  for (std::size_t i = 0; i < network.size(); ++i) {
    if (network[i].decile > network[busiest].decile) busiest = i;
  }
  const TraceGenerator generator(network, trace);
  const std::size_t day = 0;
  const BaseStation scaled = generator.day_scaled(network[busiest], day);

  // Per-minute counts from the batch path, reused for both sides so the
  // comparison times sampling, not arrival draws.
  MinuteBlock block;
  std::vector<std::uint32_t> counts(kMinutesPerDay);
  std::uint64_t day_sessions = 0;
  for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
    generator.sample_minute_block(scaled, day, m, block);
    counts[m] = block.count;
    day_sessions += block.count;
  }

  const std::uint64_t sweeps = fast ? 2 : 10;
  const std::uint64_t sessions = sweeps * day_sessions;

  double sink = 0.0;
  const double base = best_rate(sessions, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      Rng rng = generator.bs_day_rng(scaled, day);
      for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
        for (std::uint32_t c = 0; c < counts[m]; ++c) {
          sink += generator.sample_session(scaled, day, m, rng).volume_mb;
        }
      }
    }
  });
  const double opt = best_rate(sessions, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
        generator.sample_minute_block(scaled, day, m, block);
        if (block.count != 0) sink += block.volume_mb[0];
      }
    }
  });

  benchmark::DoNotOptimize(sink);
  return make_row("minute_batch_fill", "sessions", base, opt);
}

/// Component-selection crossover (the PR 5 alias regression, resolved):
/// for k-component mixtures, an in-register branchless CDF scan vs an
/// alias-table pick. The batch kernel scans when k <= 4 (every catalog
/// mixture) and keeps the alias table for large tables — these rows show
/// the crossover: speedup > 1 (scan wins) at small k, < 1 at large k.
JsonObject bench_mixture_scan(std::size_t k, std::uint64_t iters) {
  // Skewed weights like real mixtures (dominant main component).
  std::vector<double> weights(k);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) total += weights[i] = 1.0 / (i + 1.0);
  for (double& w : weights) w /= total;
  const AliasTable alias{std::span<const double>(weights)};
  std::vector<double> cum(k);
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) cum[i] = acc += weights[i];
  cum.back() = 2.0;  // padded sentinel, as in SessionBlockKernel
  const std::vector<double> us = uniform_grid(111 + k);

  std::uint64_t sink = 0;
  const double base = best_rate(iters, 3, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += alias.pick(us[i & 4095]);
    }
  });
  const double opt = best_rate(iters, 3, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      const double u = us[i & 4095];
      std::size_t pick = 0;
      for (std::size_t j = 0; j + 1 < k; ++j) pick += u > cum[j] ? 1 : 0;
      sink += pick;
    }
  });

  benchmark::DoNotOptimize(sink);
  const std::string name = "mixture_scan_k" + std::to_string(k);
  return make_row(name.c_str(), "picks", base, opt);
}

// ---------------------------------------------------------------------------
// serialization

std::vector<StreamEvent> serialization_events(std::size_t count) {
  std::vector<StreamEvent> events;
  events.reserve(count);
  Rng rng(20231024);
  const std::size_t services = service_catalog().size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 64 == 0) {
      events.push_back(StreamEvent{
          {static_cast<std::uint32_t>(i % 100), 1,
           static_cast<std::uint16_t>(i % kMinutesPerDay), i},
          MinuteEvent{static_cast<std::uint32_t>(i % 37)}});
      continue;
    }
    Session s;
    s.bs = static_cast<std::uint32_t>(i % 100);
    s.service = static_cast<std::uint16_t>(i % services);
    s.day = 1;
    s.minute_of_day = static_cast<std::uint16_t>(i % kMinutesPerDay);
    s.transient = (i % 5) == 0;
    s.volume_mb = rng.log10_normal(0.5, 1.2);
    s.duration_s = 1.0 + rng.uniform() * 21599.0;
    events.push_back(
        StreamEvent{{s.bs, 1, s.minute_of_day, i}, SessionEvent{s}});
  }
  return events;
}

/// The retired NDJSON encoding: one JsonObject (std::map) and one dump
/// string per event, written line-by-line through the stream.
void json_era_ndjson(const std::vector<StreamEvent>& events,
                     std::ofstream& out) {
  for (const StreamEvent& event : events) {
    JsonObject obj;
    obj.emplace("kind", to_string(event.kind()));
    obj.emplace("bs", static_cast<double>(event.key.bs));
    obj.emplace("day", static_cast<double>(event.key.day));
    obj.emplace("minute", static_cast<double>(event.key.minute_of_day));
    obj.emplace("seq", static_cast<double>(event.key.seq));
    if (event.kind() == EventKind::kMinute) {
      obj.emplace("arrivals",
                  static_cast<double>(
                      std::get<MinuteEvent>(event.payload).arrivals));
    } else {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      obj.emplace("service", static_cast<double>(s.service));
      obj.emplace("transient", s.transient);
      obj.emplace("volume_mb", s.volume_mb);
      obj.emplace("duration_s", s.duration_s);
    }
    out << Json(std::move(obj)).dump() << '\n';
  }
}

JsonObject bench_ndjson(const std::vector<StreamEvent>& events) {
  const std::string base_path = temp_file("mtd_bench_base.ndjson");
  const std::string opt_path = temp_file("mtd_bench_opt.ndjson");

  const auto t0 = Clock::now();
  {
    std::ofstream out(base_path, std::ios::binary | std::ios::trunc);
    json_era_ndjson(events, out);
  }
  const double base_s = seconds_since(t0);

  const auto t1 = Clock::now();
  {
    NdjsonEventWriter writer(opt_path);
    for (const StreamEvent& e : events) writer.on_event(e);
    writer.close();
  }
  const double opt_s = seconds_since(t1);

  std::remove(base_path.c_str());
  std::remove(opt_path.c_str());
  const double n = static_cast<double>(events.size());
  return make_row("ndjson_serialize", "events", n / base_s, n / opt_s);
}

/// The retired binary framing: payload into a reused buffer but a fresh
/// frame string and two stream writes per event.
void frame_era_binary(const std::vector<StreamEvent>& events,
                      std::ofstream& out) {
  const auto put_u16 = [](std::string& b, std::uint16_t v) {
    b.push_back(static_cast<char>(v & 0xff));
    b.push_back(static_cast<char>((v >> 8) & 0xff));
  };
  const auto put_u32 = [](std::string& b, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  const auto put_u64 = [](std::string& b, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  const auto put_f64 = [&put_u64](std::string& b, double v) {
    put_u64(b, std::bit_cast<std::uint64_t>(v));
  };
  out.write(BinaryEventWriter::kMagic, sizeof(BinaryEventWriter::kMagic));
  std::string buf;
  for (const StreamEvent& event : events) {
    buf.clear();
    buf.push_back(static_cast<char>(event.kind()));
    put_u32(buf, event.key.bs);
    put_u16(buf, event.key.day);
    put_u16(buf, event.key.minute_of_day);
    put_u64(buf, event.key.seq);
    if (event.kind() == EventKind::kMinute) {
      put_u32(buf, std::get<MinuteEvent>(event.payload).arrivals);
    } else {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      put_u16(buf, s.service);
      buf.push_back(s.transient ? 1 : 0);
      put_f64(buf, s.volume_mb);
      put_f64(buf, s.duration_s);
    }
    std::string frame;
    put_u32(frame, static_cast<std::uint32_t>(buf.size()));
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

JsonObject bench_binary(const std::vector<StreamEvent>& events) {
  const std::string base_path = temp_file("mtd_bench_base.bin");
  const std::string opt_path = temp_file("mtd_bench_opt.bin");

  const auto t0 = Clock::now();
  {
    std::ofstream out(base_path, std::ios::binary | std::ios::trunc);
    frame_era_binary(events, out);
  }
  const double base_s = seconds_since(t0);

  const auto t1 = Clock::now();
  {
    BinaryEventWriter writer(opt_path);
    for (const StreamEvent& e : events) writer.on_event(e);
    writer.close();
  }
  const double opt_s = seconds_since(t1);

  std::remove(base_path.c_str());
  std::remove(opt_path.c_str());
  const double n = static_cast<double>(events.size());
  return make_row("binary_serialize", "events", n / base_s, n / opt_s);
}

JsonObject bench_csv(const std::vector<StreamEvent>& events) {
  const std::string base_path = temp_file("mtd_bench_base.csv");
  const std::string opt_path = temp_file("mtd_bench_opt.csv");

  std::uint64_t sessions = 0;
  const auto t0 = Clock::now();
  {
    std::ofstream out(base_path, std::ios::binary | std::ios::trunc);
    out << "bs,service,day,minute_of_day,volume_mb,duration_s\n";
    for (const StreamEvent& e : events) {
      if (e.kind() != EventKind::kSession) continue;
      const Session& s = std::get<SessionEvent>(e.payload).session;
      const std::string& name = service_catalog()[s.service].name;
      out << s.bs << ',';
      if (name.find(',') != std::string::npos) {
        out << '"' << name << '"';
      } else {
        out << name;
      }
      out << ',' << s.day << ',' << s.minute_of_day << ',' << s.volume_mb
          << ',' << s.duration_s << '\n';
      ++sessions;
    }
  }
  const double base_s = seconds_since(t0);

  const auto t1 = Clock::now();
  {
    SessionCsvWriter writer(opt_path);
    for (const StreamEvent& e : events) {
      if (e.kind() != EventKind::kSession) continue;
      writer.on_session(std::get<SessionEvent>(e.payload).session);
    }
    writer.close();
  }
  const double opt_s = seconds_since(t1);

  std::remove(base_path.c_str());
  std::remove(opt_path.c_str());
  const double n = static_cast<double>(sessions);
  return make_row("csv_serialize", "sessions", n / base_s, n / opt_s);
}

// ---------------------------------------------------------------------------
// page checksum

/// The retired page checksum: FNV-1a of four pages in one lane-interleaved
/// pass over the prefix they share, each lane then finishing its own tail.
/// One multiply per byte per lane bounds it however well the lanes overlap.
std::array<std::uint64_t, 4> four_lane_fnv1a64(
    const std::array<std::string_view, 4>& lanes) {
  std::size_t common = lanes[0].size();
  for (const std::string_view lane : lanes) {
    common = std::min(common, lane.size());
  }
  const auto byte = [&lanes](std::size_t lane, std::size_t i) {
    return static_cast<std::uint8_t>(lanes[lane][i]);
  };
  std::uint64_t h0 = kFnvOffsetBasis;
  std::uint64_t h1 = kFnvOffsetBasis;
  std::uint64_t h2 = kFnvOffsetBasis;
  std::uint64_t h3 = kFnvOffsetBasis;
  for (std::size_t i = 0; i < common; ++i) {
    h0 = (h0 ^ byte(0, i)) * kFnvPrime;
    h1 = (h1 ^ byte(1, i)) * kFnvPrime;
    h2 = (h2 ^ byte(2, i)) * kFnvPrime;
    h3 = (h3 ^ byte(3, i)) * kFnvPrime;
  }
  return {fnv1a64(lanes[0].substr(common), h0),
          fnv1a64(lanes[1].substr(common), h1),
          fnv1a64(lanes[2].substr(common), h2),
          fnv1a64(lanes[3].substr(common), h3)};
}

/// 64 leaf payloads packed as the store packs them: length-prefixed event
/// records up to a 4 KiB page's capacity.
std::vector<std::string> leaf_payloads(const std::vector<StreamEvent>& events) {
  constexpr std::size_t kCapacity = 4096 - store::kPageHeaderBytes;
  std::vector<std::string> leaves(1);
  for (std::size_t i = 0;; ++i) {
    char record[4 + kMaxEventPayloadBytes];
    const std::size_t len =
        encode_event_payload(events[i % events.size()], record + 4);
    (void)store_le(record, static_cast<std::uint32_t>(len));
    if (leaves.back().size() + 4 + len > kCapacity) {
      if (leaves.size() == 64) return leaves;
      leaves.emplace_back();
    }
    leaves.back().append(record, 4 + len);
  }
}

JsonObject bench_page_checksum(const std::vector<StreamEvent>& events,
                               std::uint64_t sweeps) {
  const std::vector<std::string> leaves = leaf_payloads(events);
  std::uint64_t bytes = 0;
  for (const std::string& leaf : leaves) bytes += leaf.size();
  bytes *= sweeps;

  std::uint64_t sink = 0;
  const double base = best_rate(bytes, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      for (std::size_t i = 0; i < leaves.size(); i += 4) {
        const std::array<std::uint64_t, 4> sums = four_lane_fnv1a64(
            {leaves[i], leaves[i + 1], leaves[i + 2], leaves[i + 3]});
        sink += sums[0] ^ sums[1] ^ sums[2] ^ sums[3];
      }
    }
  });
  const double opt = best_rate(bytes, 3, [&] {
    for (std::uint64_t s = 0; s < sweeps; ++s) {
      for (const std::string& leaf : leaves) sink += store::xxh64(leaf);
    }
  });

  benchmark::DoNotOptimize(sink);
  return make_row("page_checksum", "bytes", base, opt);
}

// ---------------------------------------------------------------------------
// google-benchmark timings of the same kernels

void BM_ServiceDrawAlias(benchmark::State& state) {
  const AliasTable alias{std::span<const double>(normalized_session_shares())};
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(alias.sample(rng));
}
BENCHMARK(BM_ServiceDrawAlias);

void BM_ServiceDrawLowerBound(benchmark::State& state) {
  const std::vector<double> cdf = share_cdf();
  Rng rng(1);
  for (auto _ : state) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK(BM_ServiceDrawLowerBound);

void BM_Pow10Fast(benchmark::State& state) {
  double x = 0.73;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pow10_fast(x));
  }
}
BENCHMARK(BM_Pow10Fast);

void BM_Pow10Std(benchmark::State& state) {
  double x = 0.73;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::pow(10.0, x));
  }
}
BENCHMARK(BM_Pow10Std);

void BM_CircadianLut(benchmark::State& state) {
  std::size_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circadian_activity_lut(m));
    m = (m + 1) % kMinutesPerDay;
  }
}
BENCHMARK(BM_CircadianLut);

void BM_CircadianDirect(benchmark::State& state) {
  std::size_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circadian_activity(m));
    m = (m + 1) % kMinutesPerDay;
  }
}
BENCHMARK(BM_CircadianDirect);

}  // namespace

int main(int argc, char** argv) {
  const bool fast = mtd::bench::fast_mode();
  const std::uint64_t draw_iters = fast ? 200000 : 4000000;
  const std::uint64_t sweeps = fast ? 100 : 2000;
  const std::size_t event_count = fast ? 50000 : 500000;

  const std::vector<StreamEvent> events = serialization_events(event_count);

  JsonArray rows;
  for (JsonObject row :
       {bench_service_draw(draw_iters), bench_mixture_draw(draw_iters),
        bench_circadian(sweeps), bench_pow10(draw_iters),
        bench_uniform_block(draw_iters), bench_pow10_block(draw_iters),
        bench_alias_sample_block(draw_iters), bench_minute_fill(fast),
        bench_mixture_scan(2, draw_iters), bench_mixture_scan(4, draw_iters),
        bench_mixture_scan(8, draw_iters), bench_mixture_scan(16, draw_iters),
        bench_ndjson(events), bench_binary(events), bench_csv(events),
        bench_page_checksum(events, sweeps)}) {
    print_row(row);
    rows.emplace_back(std::move(row));
  }

  JsonObject report;
  report.emplace("bench", "hot_paths");
  report.emplace("fast", fast);
  report.emplace("rows", std::move(rows));
  mtd::write_file("BENCH_hotpaths.json", Json(std::move(report)).dump());
  std::cerr << "[bench] wrote BENCH_hotpaths.json\n";
  return mtd::bench::run_benchmarks(argc, argv);
}
