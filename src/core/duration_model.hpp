// Power-law modeling of duration-volume pairs (Sec. 5.3).
//
// For each service the mean volume of sessions with duration d follows
//   v_s(d) = alpha_s * d^{beta_s},
// fitted with Levenberg-Marquardt. beta > 1 (super-linear) characterizes
// streaming services whose mean throughput grows with session length;
// beta < 1 sub-linear interactive services.
#pragma once

#include "common/histogram.hpp"
#include "math/levenberg_marquardt.hpp"

namespace mtd {

/// The fitted duration model of one service.
class DurationModel {
 public:
  DurationModel() = default;
  DurationModel(double alpha, double beta, double r_squared = 0.0)
      : fit_{alpha, beta, r_squared, true} {}

  /// Fits the power law to a duration-volume curve. Curve coordinates are
  /// log10 seconds; bin weights (session counts) weight the regression.
  static DurationModel fit(const BinnedMeanCurve& curve);

  [[nodiscard]] double alpha() const noexcept { return fit_.alpha; }
  [[nodiscard]] double beta() const noexcept { return fit_.beta; }
  [[nodiscard]] double r_squared() const noexcept { return fit_.r_squared; }

  /// Mean volume (MB) of a session lasting `duration_s` seconds.
  [[nodiscard]] double volume(double duration_s) const {
    return fit_(duration_s);
  }
  /// Inverse map: the duration (seconds) whose mean volume is `volume_mb`.
  [[nodiscard]] double duration(double volume_mb) const {
    return fit_.inverse(volume_mb);
  }
  /// Mean throughput (Mbit/s) of a session lasting `duration_s` seconds.
  [[nodiscard]] double throughput_mbps(double duration_s) const {
    return 8.0 * volume(duration_s) / duration_s;
  }

  [[nodiscard]] bool is_super_linear() const noexcept {
    return fit_.beta > 1.0;
  }

 private:
  PowerLawFit fit_{};
};

}  // namespace mtd
