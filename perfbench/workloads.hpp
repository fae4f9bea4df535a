// The four workloads of the repository benchmark (README.md). Each is a
// closed batch job generated in-process from the run's seed and repeated
// for the measured window; each checks its own outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace mtd::perfbench {

/// kFull is what the benchmark measures; kSmoke shrinks every input so all
/// four workloads run in seconds (the smoke test, and the probes that fill
/// in layers a traced workload does not call).
enum class Scale : std::uint8_t { kFull, kSmoke };

struct RunContext {
  std::uint64_t seed = 20231024;
  Scale scale = Scale::kFull;
  /// Private scratch directory of this process (stores are written here).
  std::string work_dir;
  /// Flip one bit of one sampled-cell reference digest before comparing
  /// (the smoke test's negative case).
  bool corrupt_reference = false;
};

/// Outcome of one job.
struct JobResult {
  double wall_s = 0.0;           ///< the measured part of the job
  std::uint64_t sessions = 0;    ///< sessions in the result
  std::uint64_t attempted = 0;   ///< operations attempted
  std::uint64_t failed = 0;      ///< operations that failed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input of the job from the seed, replacing any earlier
  /// set-up. Timed as setup_s on untraced runs; `traced` also prepares the
  /// statistics traced jobs record (the engine's 50 ms snapshots).
  virtual void setup(bool traced) = 0;
  /// Runs the job once. `tracer` is null on untraced runs; traced jobs also
  /// record the layer statistics layer_metrics() reports.
  [[nodiscard]] virtual JobResult job(Tracer* tracer) = 0;
  /// Checks the outputs of every job run so far; one message per failure.
  [[nodiscard]] virtual std::vector<std::string> check() = 0;
  /// The per-layer metrics the traced jobs measured (set_if_absent).
  virtual void layer_metrics(Metrics& out) const = 0;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const RunContext& ctx);

/// Layer probes run by every traced run: the generation kernels, the engine
/// scaling baseline, the two event encoders and the store write path, each
/// on small inputs drawn from the run's seed.
void run_layer_probes(const RunContext& ctx, Tracer& tracer, Metrics& out);

}  // namespace mtd::perfbench
