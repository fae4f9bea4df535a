#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "events/event_codec.hpp"

namespace mtd::perfbench {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
  }
}

namespace {

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace

HeapSampler::HeapSampler()
    : baseline_mb_(heap_in_use_mb()), peak_mb_(baseline_mb_) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double now = heap_in_use_mb();
      if (now > peak_mb_.load(std::memory_order_relaxed)) {
        peak_mb_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

HeapSampler::~HeapSampler() { static_cast<void>(stop()); }

double HeapSampler::stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    const double now = heap_in_use_mb();
    if (now > peak_mb_.load()) peak_mb_.store(now);
  }
  return peak_mb_.load() - baseline_mb_;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_of(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(values.begin(), values.end());
  return values[values.size() > 10 ? values.size() - 11 : 0];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  JsonObject entry;
  entry.emplace("value", value);
  entry.emplace("unit", unit);
  metrics_.insert_or_assign(name, Json(std::move(entry)));
}

void Metrics::set_if_absent(const std::string& name, double value,
                            const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) set(name, value, unit);
}

Json Metrics::to_json() const { return Json(metrics_); }

int Tracer::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans nest: the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    JsonObject line;
    line.emplace("name", span.name);
    line.emplace("start_ns", static_cast<double>(span.start_ns));
    line.emplace("end_ns", static_cast<double>(span.end_ns));
    line.emplace("parent", static_cast<double>(span.parent));
    out << Json(std::move(line)).dump() << "\n";
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Rebuilds the engine's event numbering from TraceSink callbacks: per
/// (BS, day), the minute event then its sessions, one seq each.
class EventRebuilder final : public TraceSink {
 public:
  explicit EventRebuilder(CellDigests& digests) : digests_(&digests) {}

  void on_minute(const BaseStation& bs, std::size_t day,
                 std::size_t minute_of_day, std::uint32_t count) override {
    StreamEvent event;
    event.key = EventKey{bs.id, static_cast<std::uint16_t>(day),
                         static_cast<std::uint16_t>(minute_of_day), seq_++};
    event.payload = MinuteEvent{count};
    digests_->fold(event);
  }
  void on_session(const Session& session) override {
    StreamEvent event;
    event.key = EventKey{session.bs, session.day, session.minute_of_day,
                         seq_++};
    event.payload = SessionEvent{session};
    digests_->fold(event);
  }

 private:
  CellDigests* digests_;
  std::uint64_t seq_ = 0;
};

}  // namespace

CellDigests::CellDigests(std::vector<Cell> cells, std::size_t num_bs,
                         std::size_t num_days)
    : cells_(std::move(cells)),
      num_days_(num_days),
      slot_(num_bs * num_days, -1),
      digests_(cells_.size(), kFnvOffset) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    slot_.at(static_cast<std::size_t>(cells_[i].bs) * num_days_ +
             cells_[i].day) = static_cast<std::int16_t>(i);
  }
}

void CellDigests::reset() {
  std::fill(digests_.begin(), digests_.end(), kFnvOffset);
}

void CellDigests::fold_into(std::size_t slot, const StreamEvent& event) {
  char buf[kMaxEventPayloadBytes];
  const std::size_t n = encode_event_payload(event, buf);
  std::uint64_t h = digests_[slot];
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint8_t>(buf[i])) * kFnvPrime;
  }
  digests_[slot] = h;
}

std::vector<Cell> sample_cells(std::uint64_t seed, std::size_t count,
                               std::size_t num_bs, std::size_t num_days) {
  const std::size_t total = num_bs * num_days;
  count = std::min(count, total);
  Rng rng(seed);
  std::vector<std::uint8_t> taken(total, 0);
  std::vector<Cell> cells;
  while (cells.size() < count) {
    const std::size_t index = rng.uniform_index(total);
    if (taken[index] != 0) continue;
    taken[index] = 1;
    cells.push_back(Cell{static_cast<std::uint32_t>(index / num_days),
                         static_cast<std::uint16_t>(index % num_days)});
  }
  return cells;
}

std::vector<std::uint64_t> reference_digests(const TraceGenerator& generator,
                                             const std::vector<Cell>& cells,
                                             std::size_t num_days) {
  const Network& network = generator.network();
  CellDigests digests(cells, network.size(), num_days);
  for (const Cell& cell : cells) {
    EventRebuilder rebuilder(digests);
    generator.run_bs_day(network[cell.bs], cell.day, rebuilder,
                         GeneratorKernel::kBatch);
  }
  return digests.digests();
}

double SampledTimer::clock_read_s() {
  static const double cost = [] {
    std::vector<double> samples;
    for (int i = 0; i < 1001; ++i) {
      const auto start = Clock::now();
      samples.push_back(seconds_since(start));
    }
    return median(std::move(samples));
  }();
  return cost;
}

void TimedEventSink::close() {
  const auto start = Clock::now();
  inner_->close();
  close_s_ += seconds_since(start);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  // splitmix64 finalizer over the mixed pair.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace mtd::perfbench
