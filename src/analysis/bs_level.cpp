#include "analysis/bs_level.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/time_utils.hpp"

namespace mtd {

double BsLevelSeries::total_mb() const noexcept {
  double total = 0.0;
  for (double v : volume_mb) total += v;
  return total;
}

double BsLevelSeries::peak_mb() const noexcept {
  double peak = 0.0;
  for (double v : volume_mb) peak = std::max(peak, v);
  return peak;
}

double BsLevelSeries::day_night_ratio() const noexcept {
  if (volume_mb.size() < kMinutesPerDay) return 0.0;
  double day = 0.0, night = 0.0;
  for (std::size_t m = 10 * 60; m < 22 * 60; ++m) day += volume_mb[m];
  for (std::size_t m = 0; m < 6 * 60; ++m) night += volume_mb[m];
  day /= (12.0 * 60.0);
  night /= (6.0 * 60.0);
  return night > 0.0 ? day / night : std::numeric_limits<double>::infinity();
}

double BsLevelSeries::window_fraction(std::size_t from_hour,
                                      std::size_t to_hour) const {
  require(from_hour < to_hour && to_hour <= 24,
          "window_fraction: bad hour window");
  const double total = total_mb();
  if (total <= 0.0) return 0.0;
  double window = 0.0;
  for (std::size_t m = from_hour * 60; m < to_hour * 60; ++m) {
    window += volume_mb[m];
  }
  return window / total;
}

namespace {

/// Spreads one session's volume uniformly over its lifetime, starting at
/// `minute_of_day`; minutes past midnight wrap back into the daily profile.
void spread_session(BsLevelSeries& series, std::size_t minute_of_day,
                    double duration_s, double volume_mb) {
  const double rate_per_min =
      volume_mb / std::max(duration_s / 60.0, 1.0 / 60.0);
  double remaining = duration_s / 60.0;  // minutes
  std::size_t minute = minute_of_day;
  while (remaining > 0.0) {
    const double here = std::min(remaining, 1.0);
    series.volume_mb[minute % kMinutesPerDay] += rate_per_min * here;
    remaining -= here;
    ++minute;
  }
}

}  // namespace

BsLevelSeries aggregate_bs_series(const BsTrafficGenerator& generator,
                                  std::size_t days, Rng& rng) {
  require(days >= 1, "aggregate_bs_series: need at least one day");
  BsLevelSeries series;
  series.volume_mb.assign(kMinutesPerDay, 0.0);

  for (std::size_t day = 0; day < days; ++day) {
    generator.generate_day(rng, [&series](const GeneratedSession& s) {
      spread_session(series, s.minute_of_day, s.duration_s, s.volume_mb);
    });
  }
  for (double& v : series.volume_mb) v /= static_cast<double>(days);
  return series;
}

BsLevelSeries bs_series_from_source(SessionSource& source, std::uint32_t bs,
                                    std::size_t days) {
  require(days >= 1, "bs_series_from_source: need at least one day");
  BsLevelSeries series;
  series.volume_mb.assign(kMinutesPerDay, 0.0);

  SourceQuery query;
  query.bs = bs;
  query.day_hi = static_cast<std::uint16_t>(days - 1);
  query.kinds = EventKindMask{}.set(EventKind::kSession);
  (void)source.scan(query, [&series](const StreamEvent& event) {
    const Session& s = std::get<SessionEvent>(event.payload).session;
    spread_session(series, s.minute_of_day, s.duration_s, s.volume_mb);
  });
  for (double& v : series.volume_mb) v /= static_cast<double>(days);
  return series;
}

double circadian_agreement(const BsLevelSeries& series) {
  require(series.volume_mb.size() >= kMinutesPerDay,
          "circadian_agreement: need a full day");
  // Compare normalized profiles (hourly smoothing removes session noise).
  std::vector<double> demand(24, 0.0), activity(24, 0.0);
  for (std::size_t h = 0; h < 24; ++h) {
    for (std::size_t m = 0; m < 60; ++m) {
      demand[h] += series.volume_mb[h * 60 + m];
      activity[h] += circadian_activity(h * 60 + m);
    }
  }
  const double demand_total = mean(demand);
  const double activity_total = mean(activity);
  require(demand_total > 0.0, "circadian_agreement: empty series");
  std::vector<double> fit(24);
  for (std::size_t h = 0; h < 24; ++h) {
    demand[h] /= demand_total;
    fit[h] = activity[h] / activity_total;
  }
  return r_squared(demand, fit);
}

}  // namespace mtd
