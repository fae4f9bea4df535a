#include "analysis/bs_level.hpp"

#include <algorithm>
#include <cmath>
#include <string>

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
/// `minute_of_day`; minutes past midnight wrap back into the daily profile,
/// so every whole day of the lifetime adds the same amount to each minute.
/// Throws InvalidArgument naming the session's day and minute unless the
/// duration is finite and positive.
void spread_session(BsLevelSeries& series, std::size_t day,
                    std::size_t minute_of_day, double duration_s,
                    double volume_mb) {
  if (!(std::isfinite(duration_s) && duration_s > 0.0)) {
    throw InvalidArgument("BS-level series: session at day " +
                          std::to_string(day) + ", minute " +
                          std::to_string(minute_of_day) + " has duration " +
                          std::to_string(duration_s) +
                          " s; need a finite, positive duration");
  }
  const double rate_per_min =
      volume_mb / std::max(duration_s / 60.0, 1.0 / 60.0);
  const auto day_minutes = static_cast<double>(kMinutesPerDay);
  // fmod is exact, so a lifetime under a day walks every minute of it and
  // a longer one walks at most one day past its whole days.
  double remaining = std::fmod(duration_s / 60.0, day_minutes);  // minutes
  const double whole_days = (duration_s / 60.0 - remaining) / day_minutes;
  if (whole_days > 0.0) {
    for (double& v : series.volume_mb) v += rate_per_min * whole_days;
  }
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
    generator.generate_day(rng, [&series, day](const GeneratedSession& s) {
      spread_session(series, day, s.minute_of_day, s.duration_s, s.volume_mb);
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
  try {
    (void)source.scan(query, [&series](const StreamEvent& event) {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      spread_session(series, s.day, s.minute_of_day, s.duration_s,
                     s.volume_mb);
    });
  } catch (const InvalidArgument& e) {
    throw InvalidArgument("bs_series_from_source: BS " + std::to_string(bs) +
                          ": " + e.what());
  }
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
