#include "dataset/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/parallel.hpp"
#include "common/time_utils.hpp"

namespace mtd {

Axis volume_axis() { return Axis(-4.0, 4.0, 160); }
Axis duration_axis() { return Axis(0.0, 4.2, 84); }

const char* to_string(Slice s) noexcept {
  switch (s) {
    case Slice::kTotal: return "total";
    case Slice::kWorkday: return "workday";
    case Slice::kWeekend: return "weekend";
    case Slice::kUrban: return "urban";
    case Slice::kSemiUrban: return "semi-urban";
    case Slice::kRural: return "rural";
    case Slice::kCity0: return "city-0";
    case Slice::kCity1: return "city-1";
    case Slice::kCity2: return "city-2";
    case Slice::kCity3: return "city-3";
    case Slice::kCity4: return "city-4";
    case Slice::k4G: return "4G";
    case Slice::k5G: return "5G";
  }
  return "?";
}

namespace {

const Axis kVolumeAxis = volume_axis();
const Axis kDurationAxis = duration_axis();
const std::size_t kVolumeBins = kVolumeAxis.bins();

/// Arrival-count axis for a decile: wide enough for the busiest minute.
Axis arrival_axis_for(double decile_rate) {
  const double hi = std::max(10.0, decile_rate * 2.5);
  return Axis(0.0, hi, 200);
}

/// Calls fn(slice) for every slice a (BS, day) cell belongs to: the
/// total, its day type, region and RAT, and its city if it has one.
template <typename Fn>
void for_each_slice(const BaseStation& bs, std::size_t day, Fn&& fn) {
  fn(Slice::kTotal);
  fn(day_type(day) == DayType::kWorkday ? Slice::kWorkday : Slice::kWeekend);
  switch (bs.region) {
    case Region::kUrban: fn(Slice::kUrban); break;
    case Region::kSemiUrban: fn(Slice::kSemiUrban); break;
    case Region::kRural: fn(Slice::kRural); break;
  }
  fn(bs.rat == Rat::k4G ? Slice::k4G : Slice::k5G);
  if (bs.city != BaseStation::kNoCity) {
    fn(static_cast<Slice>(static_cast<std::size_t>(Slice::kCity0) + bs.city));
  }
}

/// Adds integer bin counts to the bins of a PDF.
void add_counts(BinnedPdf& pdf, std::span<const std::uint32_t> counts) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    pdf[i] += static_cast<double>(counts[i]);
  }
}

}  // namespace

MeasurementDataset::MeasurementDataset(const Network& network,
                                       std::size_t num_days)
    : network_(&network), num_days_(num_days) {
  const auto& catalog = service_catalog();
  services_.reserve(catalog.size());
  for (const auto& p : catalog) services_.push_back(&p);

  slice_stats_.resize(catalog.size());
  decile_stats_.reserve(kNumDeciles);
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    decile_stats_.emplace_back(arrival_axis_for(network.decile_peak_rate(d)));
  }
  session_share_stats_.resize(catalog.size());
  traffic_share_stats_.resize(catalog.size());
}

void MeasurementDataset::CellPartial::on_minute(const BaseStation& /*bs*/,
                                                std::size_t /*day*/,
                                                std::size_t minute_of_day,
                                                std::uint32_t count) {
  (ArrivalProcess::is_day_phase(minute_of_day) ? day_counts : night_counts)
      .push_back(count);
}

void MeasurementDataset::CellPartial::on_session(const Session& session) {
  Service& service = services[session.service];
  if (service.sessions++ == 0) {
    service.dv_curve.emplace(kDurationAxis);
    service.bins.assign(kVolumeBins, 0);
  }
  service.volume_mb += session.volume_mb;
  service.dv_curve->add(std::log10(session.duration_s), session.volume_mb);
  ++service.bins[kVolumeAxis.index_clamped(std::log10(session.volume_mb))];
}

void MeasurementDataset::on_minute(const BaseStation& bs, std::size_t day,
                                   std::size_t minute_of_day,
                                   std::uint32_t count) {
  cell(bs.id, day).on_minute(bs, day, minute_of_day, count);
}

void MeasurementDataset::on_session(const Session& session) {
  cell(session.bs, session.day).on_session(session);
}

MeasurementDataset::CellPartial& MeasurementDataset::cell(std::uint32_t bs,
                                                          std::size_t day) {
  if (current_ && current_->bs == bs && current_->day == day) {
    return *current_;
  }
  const auto key = [](std::uint32_t b, std::size_t d) {
    return "(bs " + std::to_string(b) + ", day " + std::to_string(d) + ")";
  };
  require(day < num_days_, "MeasurementDataset: cell " + key(bs, day) +
                               " is past the dataset's " +
                               std::to_string(num_days_) + " days");
  if (current_) {
    require(bs > current_->bs || (bs == current_->bs && day > current_->day),
            "MeasurementDataset: cell " + key(bs, day) + " arrived after " +
                key(current_->bs, current_->day) +
                "; cells must arrive in (BS, day) order");
    fold(*current_);
  }
  return current_.emplace(bs, static_cast<std::uint16_t>(day),
                          services_.size());
}

void MeasurementDataset::fold(const CellPartial& cell) {
  const BaseStation& bs = (*network_)[cell.bs];

  // The arrival PDFs take integer weights; the Welford moments replay each
  // phase's counts in minute order.
  DecileArrivalStats& arrivals = decile_stats_[bs.decile];
  for (std::uint32_t c : cell.day_counts) {
    const auto x = static_cast<double>(c);
    arrivals.count_pdf.add(x);
    arrivals.day_pdf.add(x);
    arrivals.day_stats.add(x);
  }
  for (std::uint32_t c : cell.night_counts) {
    const auto x = static_cast<double>(c);
    arrivals.count_pdf.add(x);
    arrivals.night_stats.add(x);
  }

  std::uint64_t cell_total = 0;
  double cell_volume = 0.0;
  for (const CellPartial::Service& service : cell.services) {
    cell_total += service.sessions;
    cell_volume += service.volume_mb;
  }
  if (cell_total == 0) return;
  total_sessions_ += cell_total;
  total_volume_ += cell_volume;

  for (std::size_t s = 0; s < services_.size(); ++s) {
    const CellPartial::Service& service = cell.services[s];
    session_share_stats_[s].add(static_cast<double>(service.sessions) /
                                static_cast<double>(cell_total));
    if (cell_volume > 0.0) {
      traffic_share_stats_[s].add(service.volume_mb / cell_volume);
    }
    if (service.sessions == 0) continue;
    for_each_slice(bs, cell.day, [&](Slice sl) {
      ServiceSliceStats& stats = slice_stats_[s][static_cast<std::size_t>(sl)];
      stats.sessions += service.sessions;
      stats.volume_mb += service.volume_mb;
      add_counts(stats.volume_pdf, service.bins);
      stats.dv_curve.accumulate(*service.dv_curve, 1.0);
    });
  }
}

void MeasurementDataset::finalize() {
  if (!current_) return;
  fold(*current_);
  current_.reset();
}

const ServiceSliceStats& MeasurementDataset::slice(std::size_t service,
                                                   Slice s) const {
  require(service < slice_stats_.size(), "slice: bad service index");
  return slice_stats_[service][static_cast<std::size_t>(s)];
}

const DecileArrivalStats& MeasurementDataset::decile_arrivals(
    std::uint8_t decile) const {
  require(decile < decile_stats_.size(), "decile_arrivals: bad decile");
  return decile_stats_[decile];
}

std::vector<double> MeasurementDataset::session_shares() const {
  std::vector<double> out(services_.size(), 0.0);
  if (total_sessions_ == 0) return out;
  for (std::size_t s = 0; s < services_.size(); ++s) {
    out[s] = static_cast<double>(
                 slice_stats_[s][static_cast<std::size_t>(Slice::kTotal)]
                     .sessions) /
             static_cast<double>(total_sessions_);
  }
  return out;
}

std::vector<double> MeasurementDataset::traffic_shares() const {
  std::vector<double> out(services_.size(), 0.0);
  if (total_volume_ <= 0.0) return out;
  for (std::size_t s = 0; s < services_.size(); ++s) {
    out[s] =
        slice_stats_[s][static_cast<std::size_t>(Slice::kTotal)].volume_mb /
        total_volume_;
  }
  return out;
}

std::vector<double> MeasurementDataset::session_share_cv() const {
  std::vector<double> out(services_.size(), 0.0);
  for (std::size_t s = 0; s < services_.size(); ++s) {
    out[s] = session_share_stats_[s].cv();
  }
  return out;
}

std::vector<double> MeasurementDataset::traffic_share_cv() const {
  std::vector<double> out(services_.size(), 0.0);
  for (std::size_t s = 0; s < services_.size(); ++s) {
    out[s] = traffic_share_stats_[s].cv();
  }
  return out;
}

MeasurementDataset collect_dataset(const Network& network,
                                   const TraceConfig& trace_config) {
  using CellPartial = MeasurementDataset::CellPartial;
  MeasurementDataset dataset(network, trace_config.num_days);
  const TraceGenerator generator(network, trace_config);
  const std::vector<BaseStation>& stations = network.base_stations();

  // Cell i is (BS i / num_days, day i % num_days), so cell order is (BS, day)
  // order. A finished cell parks behind the frontier; whichever thread finds
  // the next cell to fold parked takes the folding role and folds parked
  // cells in order until it reaches one still running, while the others go
  // back to generating.
  const std::size_t num_days = trace_config.num_days;
  struct Frontier {
    Mutex guard;
    std::map<std::size_t, CellPartial> parked MTD_GUARDED_BY(guard);
    std::size_t next MTD_GUARDED_BY(guard) = 0;
    bool folding MTD_GUARDED_BY(guard) = false;
  } frontier;

  parallel_for(stations.size() * num_days, [&](std::size_t i) {
    const BaseStation& bs = stations[i / num_days];
    const std::size_t day = i % num_days;
    CellPartial cell(bs.id, static_cast<std::uint16_t>(day),
                     dataset.num_services());
    generator.run_bs_day(bs, day, cell);
    {
      MutexLock lock(frontier.guard);
      frontier.parked.emplace(i, std::move(cell));
      if (frontier.folding) return;
      frontier.folding = true;
    }
    for (;;) {
      std::map<std::size_t, CellPartial>::node_type next;
      {
        MutexLock lock(frontier.guard);
        // Every parked cell is at or past the frontier.
        if (frontier.parked.empty() ||
            frontier.parked.begin()->first != frontier.next) {
          frontier.folding = false;
          return;
        }
        next = frontier.parked.extract(frontier.parked.begin());
        ++frontier.next;
      }
      dataset.fold(next.mapped());
    }
  });
  return dataset;
}

}  // namespace mtd
