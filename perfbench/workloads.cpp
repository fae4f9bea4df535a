#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/service_model.hpp"
#include "dataset/measurement.hpp"
#include "dataset/service_catalog.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "store/store_session_source.hpp"
#include "store/trace_store.hpp"
#include "usecases/slicing.hpp"
#include "usecases/vran.hpp"

namespace mtd::perfbench {
namespace {

// Salts of the inputs drawn from the run's seed.
constexpr std::uint64_t kNetworkSalt = 1;
constexpr std::uint64_t kTraceSalt = 2;
constexpr std::uint64_t kCellSalt = 3;
constexpr std::uint64_t kFitNetworkSalt = 4;
constexpr std::uint64_t kFitTraceSalt = 5;
constexpr std::uint64_t kUsecaseSalt = 6;

/// Sampled (BS, day) cells whose event digests the output checks compare.
constexpr std::size_t kSampledCells = 16;

/// Engine workloads run three producers plus the consumer (the calling
/// thread): one busy thread per core of a 4-core host, with the library's
/// default ring size.
constexpr std::size_t kWorkers = 3;

/// Seed of the usecase_replay result digest committed below.
constexpr std::uint64_t kDefaultSeed = 20231024;

Network build_network(std::size_t num_bs, std::uint64_t seed) {
  NetworkConfig config;
  config.num_bs = num_bs;
  Rng rng(seed);
  return Network::build(config, rng);
}

EngineConfig engine_config(bool traced) {
  EngineConfig config;
  config.num_workers = kWorkers;
  config.kernel = GeneratorKernel::kBatch;
  config.event_kinds = EventKindMask::session_replay();
  config.backpressure = BackpressurePolicy::kBlock;
  // Traced runs sample the ring occupancy at a 50 ms period.
  if (traced) config.telemetry_period_s = 0.05;
  return config;
}

TraceConfig trace_config(std::size_t num_days, std::uint64_t seed,
                         double rate_scale = 1.0) {
  TraceConfig trace;
  trace.num_days = num_days;
  trace.seed = seed;
  trace.rate_scale = rate_scale;
  return trace;
}

std::uint64_t events_of(const TelemetrySnapshot& t, bool consumed) {
  std::uint64_t n = 0;
  for (const EventKindCounters& c : t.kinds) {
    n += consumed ? c.consumed : c.produced;
  }
  return n;
}

std::uint64_t lost_events(const TelemetrySnapshot& t) {
  std::uint64_t n = 0;
  for (const EventKindCounters& c : t.kinds) {
    n += c.dropped + c.sink_errors + c.discarded;
  }
  return n;
}

/// The engine's conservation identity, with nothing dropped, rejected or
/// discarded under blocking backpressure.
void check_engine(const TelemetrySnapshot& t,
                  std::vector<std::string>& failures) {
  if (!t.accounted_for() || lost_events(t) != 0) {
    failures.push_back("engine telemetry: conservation broken or events lost");
  }
}

void remove_store(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".pages", ignored);
}

/// Forwards the stream and records what the output checks need: the
/// sampled-cell digests, the session count and the sum of the per-minute
/// arrival counts.
class CheckingSink final : public EventSink {
 public:
  CheckingSink(EventSink& inner, CellDigests& digests)
      : inner_(&inner), digests_(&digests) {}

  void on_event(const StreamEvent& event) override {
    digests_->fold(event);
    if (const auto* minute = std::get_if<MinuteEvent>(&event.payload)) {
      arrivals_ += minute->arrivals;
    } else if (event.kind() == EventKind::kSession) {
      ++sessions_;
    }
    inner_->on_event(event);
  }
  void close() override { inner_->close(); }

  [[nodiscard]] std::uint64_t sessions() const noexcept { return sessions_; }
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }

 private:
  EventSink* inner_;
  CellDigests* digests_;
  std::uint64_t sessions_ = 0;
  std::uint64_t arrivals_ = 0;
};

/// Engine statistics of the traced jobs of one workload. Producer stall is
/// reported as a share of the producers' time only: in seconds it reads
/// exactly 0 on every run of a pipeline that never fills its rings.
struct EngineTrace {
  std::vector<double> stall_fraction;
  std::vector<double> queue_depths;

  void attach(StreamEngine& engine) {
    engine.on_snapshot([this](const TelemetrySnapshot& t) {
      queue_depths.push_back(static_cast<double>(t.queue_depth));
    });
  }
  void record(const TelemetrySnapshot& t) {
    stall_fraction.push_back(
        t.wall_seconds > 0.0
            ? t.producer_stall_seconds /
                  (static_cast<double>(kWorkers) * t.wall_seconds)
            : 0.0);
  }
  void report(Metrics& out) const {
    if (stall_fraction.empty()) return;
    out.set_if_absent("engine.stall_fraction", median(stall_fraction),
                      "ratio");
    out.set_if_absent("engine.queue_depth_p50",
                      queue_depths.empty() ? 0.0 : median(queue_depths),
                      "batches");
  }
};

/// Compares the sampled-cell digests of the stream under test with the
/// cells regenerated one (BS, day) at a time.
void check_digests(const TraceGenerator& generator, const CellDigests& got,
                   std::size_t num_days, bool corrupt,
                   std::vector<std::string>& failures) {
  std::vector<std::uint64_t> want =
      reference_digests(generator, got.cells(), num_days);
  if (corrupt) want.front() ^= 1;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got.digests()[i]) {
      failures.push_back("cell (bs " + std::to_string(got.cells()[i].bs) +
                         ", day " + std::to_string(got.cells()[i].day) +
                         ") digest differs from run_bs_day");
    }
  }
}

// -- stream_binary ------------------------------------------------------------

class StreamBinary final : public Workload {
 public:
  explicit StreamBinary(const RunContext& ctx)
      : ctx_(ctx), num_bs_(ctx.scale == Scale::kFull ? 1000 : 12) {}

  void setup(bool traced) override {
    engine_.reset();  // the engine points into the network it replaces
    network_.emplace(
        build_network(num_bs_, derive_seed(ctx_.seed, kNetworkSalt)));
    trace_ = trace_config(num_days_, derive_seed(ctx_.seed, kTraceSalt));
    engine_.emplace(*network_, trace_, engine_config(traced));
    if (traced) engine_trace_.attach(*engine_);
    digests_.emplace(sample_cells(derive_seed(ctx_.seed, kCellSalt),
                                  kSampledCells, num_bs_, num_days_),
                     num_bs_, num_days_);
  }

  JobResult job(Tracer* tracer) override {
    digests_->reset();
    SpanScope job_span(tracer, "job.stream_binary");
    const auto start = Clock::now();
    BinaryEventWriter writer("/dev/null");
    CheckingSink checking(writer, *digests_);
    TimedEventSink timed(checking);
    EventSink& sink = tracer != nullptr ? static_cast<EventSink&>(timed)
                                        : static_cast<EventSink&>(checking);
    EngineResult result;
    {
      SpanScope span(tracer, "engine.run");
      result = engine_->run(sink);
    }
    {
      SpanScope span(tracer, "events.close");
      sink.close();
    }
    JobResult out;
    out.wall_s = seconds_since(start);
    const TelemetrySnapshot& t = result.telemetry;
    out.sessions = t.of(EventKind::kSession).consumed;
    out.attempted = events_of(t, false);
    out.failed = lost_events(t);

    check_engine(t, failures_);
    if (writer.events_written() != events_of(t, true)) {
      failures_.push_back("events written != events consumed");
    }
    if (checking.sessions() != checking.arrivals() ||
        checking.sessions() != out.sessions) {
      failures_.push_back("sessions != sum of minute counts");
    }
    record_digests();
    if (tracer != nullptr) {
      engine_trace_.record(t);
      sink_busy_s_ += timed.busy_s();
      sink_events_ += timed.events();
      sink_busy_fraction_.push_back(timed.busy_s() / t.wall_seconds);
    }
    return out;
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures = failures_;
    if (!first_digests_) {
      failures.push_back("no job ran");
      return failures;
    }
    const TraceGenerator generator(*network_, trace_);
    check_digests(generator, *digests_, num_days_, ctx_.corrupt_reference,
                  failures);
    return failures;
  }

  void layer_metrics(Metrics& out) const override {
    engine_trace_.report(out);
    if (sink_events_ > 0) {
      out.set_if_absent("events.sink_ns_per_event",
                        1e9 * sink_busy_s_ / static_cast<double>(sink_events_),
                        "ns");
      out.set_if_absent("events.sink_busy_fraction",
                        median(sink_busy_fraction_), "ratio");
    }
  }

 private:
  /// Every job streams the same trace, so every job's digests must agree.
  void record_digests() {
    if (!first_digests_) {
      first_digests_ = digests_->digests();
    } else if (*first_digests_ != digests_->digests()) {
      failures_.push_back("sampled-cell digests differ between jobs");
    }
  }

  // One simulated day per job.
  static constexpr std::size_t num_days_ = 1;

  RunContext ctx_;
  std::size_t num_bs_;
  TraceConfig trace_;
  std::optional<Network> network_;
  std::optional<StreamEngine> engine_;
  std::optional<CellDigests> digests_;
  std::optional<std::vector<std::uint64_t>> first_digests_;
  std::vector<std::string> failures_;
  EngineTrace engine_trace_;
  double sink_busy_s_ = 0.0;
  std::uint64_t sink_events_ = 0;
  std::vector<double> sink_busy_fraction_;
};

// -- ingest_store -------------------------------------------------------------

class IngestStore final : public Workload {
 public:
  explicit IngestStore(const RunContext& ctx)
      : ctx_(ctx),
        num_bs_(ctx.scale == Scale::kFull ? 40 : 10),
        num_days_(ctx.scale == Scale::kFull ? 3 : 2),
        path_(ctx.work_dir + "/ingest.store") {}

  void setup(bool traced) override {
    engine_.reset();
    network_.emplace(
        build_network(num_bs_, derive_seed(ctx_.seed, kNetworkSalt)));
    trace_ = trace_config(num_days_, derive_seed(ctx_.seed, kTraceSalt));
    EngineConfig config = engine_config(traced);
    config.checkpoint_interval_minutes = 60;
    engine_.emplace(*network_, trace_, config);
    if (traced) engine_trace_.attach(*engine_);
  }

  JobResult job(Tracer* tracer) override {
    remove_store(path_);
    SpanScope job_span(tracer, "job.ingest_store");
    const auto start = Clock::now();
    store::TraceStoreWriter writer = store::TraceStoreWriter::create(path_);
    EngineResult result;
    {
      SpanScope span(tracer, "store.run_engine_into_store");
      result = run_engine_into_store(*engine_, writer,
                                     StoreRunPolicy{.compact_every_days = 2});
    }
    {
      SpanScope span(tracer, "store.close");
      writer.close();
    }
    JobResult out;
    out.wall_s = seconds_since(start);
    const TelemetrySnapshot& t = result.telemetry;
    out.sessions = t.of(EventKind::kSession).consumed;
    out.attempted = events_of(t, false);
    out.failed = lost_events(t);

    consumed_events_ = events_of(t, true);
    check_engine(t, failures_);
    if (writer.events_committed() != consumed_events_) {
      failures_.push_back("store committed events != events consumed");
    }
    if (tracer != nullptr) engine_trace_.record(t);
    return out;
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures = failures_;
    if (consumed_events_ == 0) {
      failures.push_back("no job ran");
      return failures;
    }
    // The store of the last job, reopened from disk.
    store::TraceStore reader(path_);
    const store::StoreVerifyReport report = reader.verify();
    if (report.events != reader.manifest().events ||
        report.events != consumed_events_) {
      failures.push_back("verify() event count != manifest or consumed count");
    }
    CellDigests digests(sample_cells(derive_seed(ctx_.seed, kCellSalt),
                                     kSampledCells, num_bs_, num_days_),
                        num_bs_, num_days_);
    for (const Cell& cell : digests.cells()) {
      static_cast<void>(reader.scan(cell.bs, cell.day, cell.day,
                                    [&](const StreamEvent& event) {
                                      digests.fold(event);
                                    }));
    }
    check_digests(TraceGenerator(*network_, trace_), digests, num_days_,
                  ctx_.corrupt_reference, failures);
    return failures;
  }

  void layer_metrics(Metrics& out) const override { engine_trace_.report(out); }

 private:
  RunContext ctx_;
  std::size_t num_bs_;
  std::size_t num_days_;
  std::string path_;
  TraceConfig trace_;
  std::optional<Network> network_;
  std::optional<StreamEngine> engine_;
  std::uint64_t consumed_events_ = 0;
  std::vector<std::string> failures_;
  EngineTrace engine_trace_;
};

// -- usecase_replay -----------------------------------------------------------

/// Counts the scans of a SessionSource and the events they deliver; when
/// traced, also times each scan and records its query. A scan that throws
/// aborts the use case, and with it the run.
class ObservedSource final : public SessionSource {
 public:
  ObservedSource(SessionSource& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}

  std::uint64_t scan(const SourceQuery& query,
                     const std::function<void(const StreamEvent&)>& fn)
      override {
    ++scans_;
    SpanScope span(tracer_, "store.scan");
    const auto start = Clock::now();
    const std::uint64_t delivered = inner_->scan(query, fn);
    if (tracer_ != nullptr) {
      scan_s_.push_back(seconds_since(start));
      queries_.push_back(query);
    }
    delivered_ += delivered;
    return delivered;
  }

  [[nodiscard]] std::uint64_t scans() const noexcept { return scans_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] const std::vector<double>& scan_s() const noexcept {
    return scan_s_;
  }
  [[nodiscard]] const std::vector<SourceQuery>& queries() const noexcept {
    return queries_;
  }

 private:
  SessionSource* inner_;
  Tracer* tracer_;
  std::uint64_t scans_ = 0;
  std::uint64_t delivered_ = 0;
  std::vector<double> scan_s_;
  std::vector<SourceQuery> queries_;
};

/// FNV-1a over the bit patterns of every number the two use cases report.
class ResultDigest {
 public:
  void add(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void add(float v) { mix(std::bit_cast<std::uint32_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t result_digest(const SlicingResult& slicing,
                            const VranResult& vran) {
  ResultDigest d;
  for (const SliceStrategyResult& s : slicing.strategies) {
    d.add(s.mean_satisfied);
    d.add(s.stddev_satisfied);
    d.add(s.sla_met_fraction);
    d.add(s.total_allocated_mbps);
    d.add(s.fig12_allocation_mbps);
  }
  for (const double v : slicing.fig12_demand_mbps) d.add(v);
  for (const VranStrategyResult& s : vran.strategies) {
    d.add(s.median_ape_active_ps);
    d.add(s.median_ape_power);
    d.add(s.mean_power_w);
    for (const float v : s.power_series_w) d.add(v);
  }
  return d.value();
}

/// Result digest of usecase_replay at the default seed and full scale. A
/// change to the generated stream, the store's read order, the model fit
/// or either use case moves it.
constexpr std::uint64_t kDefaultSeedResultDigest = 18127582283228863339ULL;

class UsecaseReplay final : public Workload {
 public:
  explicit UsecaseReplay(const RunContext& ctx)
      : ctx_(ctx), path_(ctx.work_dir + "/usecase.store") {
    const bool full = ctx.scale == Scale::kFull;
    slicing_.num_antennas = full ? 10 : 6;
    slicing_.eval_days = full ? 2 : 1;
    slicing_.seed = derive_seed(ctx.seed, kUsecaseSalt);
    vran_.num_edge_sites = 1;
    vran_.rus_per_site = 10;
    vran_.num_days = 1;
    vran_.seed = derive_seed(ctx.seed, kUsecaseSalt + 1);
    fit_bs_ = full ? 30 : 20;
  }

  void setup(bool /*traced*/) override {
    source_.reset();
    reader_.reset();
    remove_store(path_);
    // The trace the use cases read: hourly commits and one compaction, at a
    // quarter of the paper's arrival rates.
    const std::size_t num_bs = std::max<std::size_t>(
        {slicing_.num_antennas, vran_.num_edge_sites * vran_.rus_per_site,
         std::size_t{10}});
    const std::size_t num_days = std::max(slicing_.eval_days, vran_.num_days);
    const Network network =
        build_network(num_bs, derive_seed(ctx_.seed, kNetworkSalt));
    EngineConfig config = engine_config(false);
    config.checkpoint_interval_minutes = 60;
    StreamEngine engine(
        network,
        trace_config(num_days, derive_seed(ctx_.seed, kTraceSalt), 0.25),
        config);
    store::TraceStoreWriter writer = store::TraceStoreWriter::create(path_);
    const EngineResult result = run_engine_into_store(
        engine, writer, StoreRunPolicy{.compact_every_days = num_days});
    writer.close();
    if (!result.checkpoint.complete()) {
      throw std::runtime_error("usecase_replay: store build did not complete");
    }

    // The models are fitted on rate-1.0 data: ModelRegistry::fit throws
    // "emd: zero-mass distribution" on rate-0.25 datasets.
    const Network fit_network =
        build_network(fit_bs_, derive_seed(ctx_.seed, kFitNetworkSalt));
    const MeasurementDataset dataset = collect_dataset(
        fit_network, trace_config(2, derive_seed(ctx_.seed, kFitTraceSalt)));
    const auto fit_start = Clock::now();
    registry_.emplace(ModelRegistry::fit(dataset));
    fit_s_ = seconds_since(fit_start);

    reader_.emplace(path_);
    source_.emplace(*reader_);
  }

  JobResult job(Tracer* tracer) override {
    SpanScope job_span(tracer, "job.usecase_replay");
    reader_->reset_telemetry();
    ObservedSource source(*source_, tracer);
    const auto start = Clock::now();
    std::optional<SlicingResult> slicing;
    std::optional<VranResult> vran;
    {
      SpanScope span(tracer, "usecases.slicing");
      const auto t0 = Clock::now();
      slicing = run_slicing_from_source(source, *registry_, slicing_);
      if (tracer != nullptr) slicing_s_.push_back(seconds_since(t0));
    }
    {
      SpanScope span(tracer, "usecases.vran");
      const auto t0 = Clock::now();
      vran = run_vran_from_source(source, *registry_, vran_);
      if (tracer != nullptr) vran_s_.push_back(seconds_since(t0));
    }
    JobResult out;
    out.wall_s = seconds_since(start);
    out.sessions = source.delivered();
    out.attempted = source.scans();
    check_job(*slicing, *vran, source.delivered());
    if (tracer != nullptr) record_trace(source, *tracer);
    return out;
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures = failures_;
    if (!digest_) failures.push_back("no job ran");
    return failures;
  }

  void layer_metrics(Metrics& out) const override {
    out.set_if_absent("core.fit_s", fit_s_, "s");
    if (scan_s_.empty()) return;
    out.set_if_absent("store.scan_ms_p50", 1e3 * median(scan_s_), "ms");
    out.set_if_absent("store.scan_ms_tail", 1e3 * tail_of(scan_s_), "ms");
    out.set_if_absent("store.scans_timed", static_cast<double>(scan_s_.size()),
                      "count");
    out.set_if_absent("store.scans", median(scans_), "count");
    out.set_if_absent("store.scan_only_s", median(scan_only_s_), "s");
    out.set_if_absent("store.pages_read", median(pages_read_), "count");
    out.set_if_absent("store.pages_per_scan",
                      median(pages_read_) / median(scans_), "pages");
    out.set_if_absent("store.leaves_skipped_fence",
                      median(leaves_skipped_fence_), "count");
    out.set_if_absent("store.leaves_skipped_bloom",
                      median(leaves_skipped_bloom_), "count");
    const double slicing_s = median(slicing_s_);
    const double vran_s = median(vran_s_);
    out.set_if_absent("usecases.slicing_s", slicing_s, "s");
    out.set_if_absent("usecases.vran_s", vran_s, "s");
    out.set_if_absent("usecases.self_s",
                      slicing_s + vran_s - median(scan_only_s_), "s");
  }

 private:
  void check_job(const SlicingResult& slicing, const VranResult& vran,
                 std::uint64_t delivered) {
    if (delivered == 0) failures_.push_back("the source delivered no sessions");
    const std::uint64_t digest = result_digest(slicing, vran);
    if (digest_) {
      // Every job reads the same store: its results must be bit-identical.
      if (*digest_ != digest) {
        failures_.push_back("use-case results differ between jobs");
      }
      return;
    }
    digest_ = digest;
    if (ctx_.seed == kDefaultSeed && ctx_.scale == Scale::kFull &&
        digest != kDefaultSeedResultDigest) {
      failures_.push_back("result digest " + std::to_string(digest) +
                          " != committed " +
                          std::to_string(kDefaultSeedResultDigest));
    }
    // Table 2: the fitted models satisfy more peak minutes than either
    // literature benchmark.
    const auto& s = slicing.strategies;
    if (s.size() != 3 || !(s[0].mean_satisfied > s[1].mean_satisfied) ||
        !(s[0].mean_satisfied > s[2].mean_satisfied)) {
      failures_.push_back("Table 2: ours does not beat bm a and bm b");
    }
    // Fig. 13: the fitted models track ground-truth power more closely
    // than bm a and bm b. bm c, which calibrates per-category throughput
    // against the ground truth, ties with them at this scale and either
    // side wins depending on the seed (0.024-0.035 vs 0.031-0.039), so
    // its place is pinned only by the default-seed digest.
    const auto& v = vran.strategies;
    if (v.size() != 5 || !(v[1].median_ape_power < v[2].median_ape_power) ||
        !(v[1].median_ape_power < v[3].median_ape_power)) {
      std::string message =
          "Fig. 13: ours does not beat bm a and bm b; median power APEs:";
      for (const VranStrategyResult& row : v) {
        message += ' ';
        message += std::to_string(row.median_ape_power);
      }
      failures_.push_back(std::move(message));
    }
  }

  void record_trace(const ObservedSource& source, Tracer& tracer) {
    const store::StoreReadTelemetry& t = reader_->telemetry();
    pages_read_.push_back(static_cast<double>(t.pages_read));
    leaves_skipped_fence_.push_back(
        static_cast<double>(t.leaves_skipped_fence));
    leaves_skipped_bloom_.push_back(
        static_cast<double>(t.leaves_skipped_bloom));
    scans_.push_back(static_cast<double>(source.scans()));
    scan_s_.insert(scan_s_.end(), source.scan_s().begin(),
                   source.scan_s().end());
    // The store's self time: the same queries with a no-op callback.
    SpanScope span(&tracer, "store.scan_only");
    const auto start = Clock::now();
    for (const SourceQuery& query : source.queries()) {
      static_cast<void>(source_->scan(query, [](const StreamEvent&) {}));
    }
    scan_only_s_.push_back(seconds_since(start));
  }

  RunContext ctx_;
  std::string path_;
  SlicingConfig slicing_;
  VranConfig vran_;
  std::size_t fit_bs_ = 0;
  std::optional<ModelRegistry> registry_;
  std::optional<store::TraceStore> reader_;
  std::optional<store::StoreSessionSource> source_;
  double fit_s_ = 0.0;
  std::optional<std::uint64_t> digest_;
  std::vector<std::string> failures_;
  std::vector<double> scan_s_;
  std::vector<double> scans_;
  std::vector<double> scan_only_s_;
  std::vector<double> pages_read_;
  std::vector<double> leaves_skipped_fence_;
  std::vector<double> leaves_skipped_bloom_;
  std::vector<double> slicing_s_;
  std::vector<double> vran_s_;
};

// -- paper_dataset ------------------------------------------------------------

/// Times the calls into an inner TraceSink.
class TimedTraceSink final : public TraceSink {
 public:
  explicit TimedTraceSink(TraceSink& inner) : inner_(&inner) {}

  void on_minute(const BaseStation& bs, std::size_t day,
                 std::size_t minute_of_day, std::uint32_t count) override {
    timer_.call([&] { inner_->on_minute(bs, day, minute_of_day, count); });
  }
  void on_session(const Session& session) override {
    timer_.call([&] { inner_->on_session(session); });
  }

  [[nodiscard]] double busy_s() const noexcept { return timer_.busy_s(); }

 private:
  TraceSink* inner_;
  SampledTimer timer_;
};

/// Share tolerance of the Table 1 check: every service with a planted
/// session share of at least 0.5% must land within 10% of it (relative).
constexpr double kMinCheckedShare = 0.005;
constexpr double kShareTolerance = 0.10;

class PaperDataset final : public Workload {
 public:
  explicit PaperDataset(const RunContext& ctx)
      : ctx_(ctx),
        num_bs_(ctx.scale == Scale::kFull ? 40 : 10),
        num_days_(ctx.scale == Scale::kFull ? 3 : 2) {}

  void setup(bool /*traced*/) override {
    network_.emplace(
        build_network(num_bs_, derive_seed(ctx_.seed, kNetworkSalt)));
    trace_ = trace_config(num_days_, derive_seed(ctx_.seed, kTraceSalt));
  }

  JobResult job(Tracer* tracer) override {
    SpanScope job_span(tracer, "job.paper_dataset");
    const auto start = Clock::now();
    std::optional<MeasurementDataset> dataset;
    if (tracer == nullptr) {
      dataset.emplace(collect_dataset(*network_, trace_));
      static_cast<void>(ModelRegistry::fit(*dataset));
    } else {
      // collect_dataset's steps, with the aggregation timed.
      HeapSampler heap;
      dataset.emplace(*network_, num_days_);
      TimedTraceSink timed(*dataset);
      {
        SpanScope span(tracer, "dataset.generate");
        TraceGenerator(*network_, trace_).run(timed);
      }
      {
        SpanScope span(tracer, "dataset.finalize");
        const auto t0 = Clock::now();
        dataset->finalize();
        finalize_s_.push_back(seconds_since(t0));
      }
      aggregate_heap_mb_.push_back(heap.stop());
      {
        SpanScope span(tracer, "core.fit");
        const auto t0 = Clock::now();
        static_cast<void>(ModelRegistry::fit(*dataset));
        fit_s_.push_back(seconds_since(t0));
      }
      aggregate_ns_per_session_.push_back(
          1e9 * timed.busy_s() /
          static_cast<double>(dataset->total_sessions()));
    }
    JobResult out;
    out.wall_s = seconds_since(start);
    out.sessions = dataset->total_sessions();
    out.attempted = num_bs_ * num_days_;
    out.failed = missing_cells(*dataset);
    check_job(*dataset, out.failed);
    return out;
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures = failures_;
    if (!totals_) failures.push_back("no job ran");
    return failures;
  }

  void layer_metrics(Metrics& out) const override {
    if (fit_s_.empty()) return;
    out.set_if_absent("dataset.aggregate_ns_per_session",
                      median(aggregate_ns_per_session_), "ns");
    out.set_if_absent("dataset.finalize_s", median(finalize_s_), "s");
    out.set_if_absent("dataset.aggregate_heap_mb",
                      median(aggregate_heap_mb_), "MB");
    out.set_if_absent("core.fit_s", median(fit_s_), "s");
  }

 private:
  /// (BS, day) cells whose 1440 minutes did not all reach the dataset.
  [[nodiscard]] std::uint64_t missing_cells(
      const MeasurementDataset& dataset) const {
    std::uint64_t minutes = 0;
    for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
      const DecileArrivalStats& stats = dataset.decile_arrivals(d);
      minutes += stats.day_stats.count() + stats.night_stats.count();
    }
    const std::uint64_t expected = num_bs_ * num_days_ * kMinutesPerDay;
    return minutes >= expected
               ? 0
               : (expected - minutes + kMinutesPerDay - 1) / kMinutesPerDay;
  }

  void check_job(const MeasurementDataset& dataset, std::uint64_t missing) {
    if (missing != 0) failures_.push_back("cells missing from the dataset");
    std::uint64_t per_service = 0;
    for (std::size_t s = 0; s < dataset.num_services(); ++s) {
      per_service += dataset.slice(s, Slice::kTotal).sessions;
    }
    if (per_service != dataset.total_sessions() || per_service == 0) {
      failures_.push_back("per-service sessions do not sum to the total");
    }
    const std::vector<double> observed = dataset.session_shares();
    const std::vector<double> planted = normalized_session_shares();
    for (std::size_t s = 0; s < planted.size(); ++s) {
      if (planted[s] < kMinCheckedShare) continue;
      if (std::abs(observed[s] / planted[s] - 1.0) > kShareTolerance) {
        failures_.push_back("Table 1 share of " + service_catalog()[s].name +
                            " off by more than 10%");
      }
    }
    const std::pair<std::uint64_t, double> totals{dataset.total_sessions(),
                                                  dataset.total_volume_mb()};
    if (!totals_) {
      totals_ = totals;
    } else if (*totals_ != totals) {
      failures_.push_back("dataset totals differ between jobs");
    }
  }

  RunContext ctx_;
  std::size_t num_bs_;
  std::size_t num_days_;
  TraceConfig trace_;
  std::optional<Network> network_;
  std::optional<std::pair<std::uint64_t, double>> totals_;
  std::vector<std::string> failures_;
  std::vector<double> aggregate_ns_per_session_;
  std::vector<double> finalize_s_;
  std::vector<double> aggregate_heap_mb_;
  std::vector<double> fit_s_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx) {
  if (name == "stream_binary") return std::make_unique<StreamBinary>(ctx);
  if (name == "ingest_store") return std::make_unique<IngestStore>(ctx);
  if (name == "usecase_replay") return std::make_unique<UsecaseReplay>(ctx);
  if (name == "paper_dataset") return std::make_unique<PaperDataset>(ctx);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace mtd::perfbench
