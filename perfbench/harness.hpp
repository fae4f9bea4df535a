// Measurement plumbing of the repository benchmark: clocks and resource
// usage, order statistics, the metric set printed as the result line, the
// span recorder of traced runs, and the sampled-cell digests the output
// checks compare.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generator.hpp"
#include "events/event_sink.hpp"
#include "events/stream_event.hpp"
#include "io/json.hpp"

namespace mtd::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of this process so far.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this process image so far (VmHWM in
/// /proc/self/status), MB. Not getrusage's ru_maxrss: Linux carries that
/// over exec, so it also counts the launching process (13.7 MB of Python
/// under run.py).
[[nodiscard]] double peak_rss_mb();
/// Returns the heap's free pages to the system (malloc_trim) and resets
/// the peak resident set to the current one (writes 5 to
/// /proc/self/clear_refs), so peak_rss_mb() then reports the peak since.
void reset_peak_rss();

/// Tracks the peak of the live heap (glibc mallinfo2: bytes in use in the
/// arenas plus mmapped chunks) on a background thread while it runs. Heap
/// bytes, not the resident set: pages a previous job freed stay resident,
/// so the resident set barely grows when the next job allocates again.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Stops polling and returns the peak growth of the live heap over its
  /// size at construction, MB.
  double stop();

 private:
  double baseline_mb_;
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_;
  std::thread thread_;
};

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of `values` that has at least ten samples beyond
/// it: the (n - 11)-th smallest of n, which is the 100 (n - 11) / (n - 1)th
/// percentile (the minimum when there are fewer than eleven samples).
[[nodiscard]] double tail_of(std::vector<double> values);

/// The metrics of one run, printed in the result line with their units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Sets `name` unless an earlier set() recorded it: a workload's own
  /// measurement of a layer takes precedence over a probe of that layer.
  void set_if_absent(const std::string& name, double value,
                     const std::string& unit);
  [[nodiscard]] Json to_json() const;

 private:
  JsonObject metrics_;
};

/// One span of a traced run: a call into a layer made from the benchmark.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Records spans in memory (single-threaded: every span is opened and
/// closed on the benchmark's own thread) and writes them out at exit.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// One JSON object per line: name, start_ns, end_ns, parent.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a no-op when
/// the tracer is null (untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name)) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// A (BS, day) cell of a generated trace.
struct Cell {
  std::uint32_t bs = 0;
  std::uint16_t day = 0;
};

/// FNV-1a digests of the events of a few sampled (BS, day) cells, folded
/// over encode_event_payload bytes in arrival order. Both sides of an
/// output check fold through this class: the stream under test and the
/// reference regenerated with TraceGenerator::run_bs_day.
class CellDigests {
 public:
  /// `num_bs` x `num_days` is the trace the cells are drawn from.
  CellDigests(std::vector<Cell> cells, std::size_t num_bs,
              std::size_t num_days);

  /// Folds `event` when it belongs to a sampled cell.
  void fold(const StreamEvent& event) {
    const std::size_t index =
        static_cast<std::size_t>(event.key.bs) * num_days_ + event.key.day;
    if (index < slot_.size() && slot_[index] >= 0) {
      fold_into(static_cast<std::size_t>(slot_[index]), event);
    }
  }

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& digests() const noexcept {
    return digests_;
  }
  void reset();

 private:
  void fold_into(std::size_t slot, const StreamEvent& event);

  std::vector<Cell> cells_;
  std::size_t num_days_;
  std::vector<std::int16_t> slot_;  // per (bs, day): index into cells_, or -1
  std::vector<std::uint64_t> digests_;
};

/// `count` distinct cells of a `num_bs` x `num_days` trace, drawn from
/// `seed`.
[[nodiscard]] std::vector<Cell> sample_cells(std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t num_bs,
                                             std::size_t num_days);

/// Digests of the sampled cells regenerated one (BS, day) at a time with
/// TraceGenerator::run_bs_day(..., GeneratorKernel::kBatch) — the minute
/// and session events, numbered as the engine numbers them.
[[nodiscard]] std::vector<std::uint64_t> reference_digests(
    const TraceGenerator& generator, const std::vector<Cell>& cells,
    std::size_t num_days);

/// Times every kStride-th call of a hot function and extrapolates to all
/// calls, which keeps clock reads off most of them. The stride is coprime
/// with the engine's 64-event ring batches, so the timed calls do not line
/// up with batch heads, and each sample has the cost of one clock read
/// subtracted.
class SampledTimer {
 public:
  static constexpr std::uint64_t kStride = 17;

  template <typename F>
  void call(F&& f) {
    if (calls_++ % kStride != 0) {
      f();
      return;
    }
    const auto start = Clock::now();
    f();
    const double elapsed = seconds_since(start) - clock_read_s();
    timed_s_ += elapsed > 0.0 ? elapsed : 0.0;
    ++timed_;
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  /// Estimated seconds spent in all calls.
  [[nodiscard]] double busy_s() const noexcept {
    return timed_ > 0 ? timed_s_ / static_cast<double>(timed_) *
                            static_cast<double>(calls_)
                      : 0.0;
  }

 private:
  /// Median cost of one steady_clock read on this host, measured once.
  static double clock_read_s();

  std::uint64_t calls_ = 0;
  std::uint64_t timed_ = 0;
  double timed_s_ = 0.0;
};

/// Times the calls into an inner sink (close() in full).
class TimedEventSink final : public EventSink {
 public:
  explicit TimedEventSink(EventSink& inner) : inner_(&inner) {}
  void on_event(const StreamEvent& event) override {
    timer_.call([&] { inner_->on_event(event); });
  }
  void close() override;

  [[nodiscard]] std::uint64_t events() const noexcept {
    return timer_.calls();
  }
  /// Estimated seconds spent inside the inner sink, close included.
  [[nodiscard]] double busy_s() const noexcept {
    return timer_.busy_s() + close_s_;
  }

 private:
  EventSink* inner_;
  SampledTimer timer_;
  double close_s_ = 0.0;
};

/// The seed of one named input stream of a run: every input is drawn from
/// the run's --seed through its own salt.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt) noexcept;

}  // namespace mtd::perfbench
