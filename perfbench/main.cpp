// mtd_perfbench: runs one workload of the repository benchmark and prints
// its metrics (README.md in this directory).
//
//   mtd_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--scale full|smoke] [--out-dir DIR] [--corrupt-reference]
//
// Untraced runs repeat the workload's job until S seconds have passed,
// with set-ups interleaved, and report the end-to-end metrics over the
// whole window. Traced runs (--trace 1) alternate untraced and traced
// jobs over the same window, fill in the layers the workload does not call
// from smoke-scale runs of the other workloads and the layer probes, report
// the per-layer metrics and write the spans to DIR/spans/. The last line of
// standard output is the JSON result; the exit code is 0 only when every
// output check passed.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace mtd;
using namespace mtd::perfbench;

constexpr std::size_t kMinSetups = 3;
constexpr double kSetupBatchS = 0.001;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinJobs = 3;
/// Enough smoke-scale use-case jobs (16 scans each) that the scan tail has
/// ten samples beyond it above the median.
constexpr std::size_t kProbeJobs = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 20231024;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string out_dir = "perfbench-out";
  bool corrupt_reference = false;
};

Options parse_options(int argc, char** argv) {
  Options options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string& value = args[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        throw std::invalid_argument("--scale takes full or smoke");
      }
      options.scale = value == "full" ? Scale::kFull : Scale::kSmoke;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return options;
}

/// A private scratch directory under the output directory, removed with
/// everything in it when the run ends, so concurrent runs never share a
/// store path and no store outlives its run.
class WorkDir {
 public:
  explicit WorkDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run.XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path_ = pattern;
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

struct RunOutcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(const JobResult& job) {
    attempted += job.attempted;
    failed += job.failed;
  }
};

RunOutcome untraced_run(Workload& workload, const Options& options) {
  RunOutcome outcome;
  // The first set-up, which also pays for the process's own start-up, only
  // sizes the setup_s samples: each times a batch of set-ups lasting about
  // kSetupBatchS, divided by its size.
  const auto first = Clock::now();
  workload.setup(false);
  const std::size_t batch = static_cast<std::size_t>(
      std::max(1.0, kSetupBatchS / seconds_since(first)));
  const double setup_rss_mb = peak_rss_mb();  // process start + one set-up
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  const auto time_setups = [&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) workload.setup(false);
    const double elapsed = seconds_since(start);
    setup_total_s += elapsed;
    setup_s.push_back(elapsed / static_cast<double>(batch));
  };

  // Set-ups are interleaved with the jobs, taking kSetupShare of the
  // window, so setup_s samples the same stretch of host time as the jobs.
  // Each job runs on the inputs of the latest set-up.
  //
  // The job metrics are totals over the window, not medians over jobs: the
  // shared host switches between speed levels about 1.45x apart for seconds
  // at a time, so job times are bimodal and their median jumps between the
  // levels from one run to the next, while the total follows the share of
  // the window spent at each.
  std::size_t jobs = 0;
  double job_s = 0.0;
  std::uint64_t sessions = 0;
  double cpu_s = 0.0;
  // Peak resident set of each job, reset before it: the peak of the whole
  // run would follow the one job whose engine rings happened to fill.
  std::vector<double> rss_mb;
  const auto start = Clock::now();
  while (jobs < kMinJobs || setup_s.size() < kMinSetups ||
         seconds_since(start) < options.seconds) {
    while (setup_s.size() < kMinSetups ||
           setup_total_s < kSetupShare * seconds_since(start)) {
      time_setups();
    }
    reset_peak_rss();
    const double cpu_start = cpu_seconds();
    const JobResult job = workload.job(nullptr);
    cpu_s += cpu_seconds() - cpu_start;
    rss_mb.push_back(peak_rss_mb());
    outcome.add(job);
    ++jobs;
    job_s += job.wall_s;
    sessions += job.sessions;
  }
  std::cerr << "[perfbench] " << options.workload << ": " << jobs
            << " jobs, " << sessions << " sessions, " << setup_s.size()
            << " set-up samples of " << batch << "\n";

  outcome.failures = workload.check();
  Metrics& m = outcome.metrics;
  m.set("setup_s", median(setup_s), "s");
  m.set("wall_s", job_s / static_cast<double>(jobs), "s");
  m.set("sessions_per_s", static_cast<double>(sessions) / job_s,
        "sessions/s");
  m.set("cpu_ns_per_session",
        sessions > 0 ? 1e9 * cpu_s / static_cast<double>(sessions) : 0.0,
        "ns");
  // The peak of a process that sets up once and runs one typical job. The
  // first set-up's own peak is taken before any job or repeated set-up has
  // left freed memory behind in the engine workers' malloc arenas, which
  // malloc_trim does not return.
  m.set("peak_rss_mb", std::max(setup_rss_mb, median(rss_mb)), "MB");
  return outcome;
}

RunOutcome traced_run(Workload& workload, const Options& options,
                      const RunContext& ctx) {
  RunOutcome outcome;
  Tracer tracer;
  workload.setup(true);

  // Untraced and traced jobs alternate over one window, so the tracing
  // overhead is measured under the same conditions. Both run on the traced
  // set-up, so the overhead leaves out the engine's 50 ms snapshots.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  const auto start = Clock::now();
  while (traced_s.size() < 2 || seconds_since(start) < options.seconds) {
    const JobResult plain = workload.job(nullptr);
    outcome.add(plain);
    plain_s.push_back(plain.wall_s);
    const JobResult traced = workload.job(&tracer);
    outcome.add(traced);
    traced_s.push_back(traced.wall_s);
  }
  outcome.failures = workload.check();

  Metrics& m = outcome.metrics;
  m.set("trace.overhead_fraction", median(traced_s) / median(plain_s) - 1.0,
        "ratio");
  workload.layer_metrics(m);

  // Layers this workload does not call: kProbeJobs traced smoke-scale jobs
  // of each workload that does.
  RunContext probe_ctx = ctx;
  probe_ctx.scale = Scale::kSmoke;
  probe_ctx.corrupt_reference = false;
  for (const char* name :
       {"stream_binary", "usecase_replay", "paper_dataset"}) {
    if (options.workload == name) continue;
    SpanScope span(&tracer, std::string("probe.") + name);
    const std::unique_ptr<Workload> probe = make_workload(name, probe_ctx);
    probe->setup(true);
    for (std::size_t i = 0; i < kProbeJobs; ++i) {
      outcome.add(probe->job(&tracer));
    }
    probe->layer_metrics(m);
    for (const std::string& failure : probe->check()) {
      outcome.failures.push_back(std::string(name) + " probe: " + failure);
    }
  }
  run_layer_probes(probe_ctx, tracer, m);

  const std::string spans_dir = options.out_dir + "/spans";
  std::filesystem::create_directories(spans_dir);
  const std::string spans_path = spans_dir + "/" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl";
  tracer.write(spans_path);
  std::cerr << "[perfbench] " << tracer.spans().size() << " spans written to "
            << spans_path << "\n";
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mtd_perfbench: " << e.what() << "\n"
              << "usage: mtd_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scale full|smoke] "
                 "[--out-dir DIR] [--corrupt-reference]\n";
    return 2;
  }

  try {
    const WorkDir work_dir(options.out_dir);
    RunContext ctx;
    ctx.seed = options.seed;
    ctx.scale = options.scale;
    ctx.work_dir = work_dir.path();
    ctx.corrupt_reference = options.corrupt_reference;
    const std::unique_ptr<Workload> workload =
        make_workload(options.workload, ctx);

    const RunOutcome outcome = options.trace
                                   ? traced_run(*workload, options, ctx)
                                   : untraced_run(*workload, options);
    // A check that fails on every job reports once.
    const std::set<std::string> failures(outcome.failures.begin(),
                                         outcome.failures.end());
    for (const std::string& failure : failures) {
      std::cerr << "[perfbench] CHECK FAILED: " << failure << "\n";
    }
    const bool correct = outcome.failures.empty();
    JsonObject result;
    result.emplace("correct", correct);
    result.emplace("attempted", static_cast<double>(outcome.attempted));
    result.emplace("failed", static_cast<double>(outcome.failed));
    result.emplace("metrics", outcome.metrics.to_json());
    std::cout << Json(std::move(result)).dump() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mtd_perfbench: " << options.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
}
