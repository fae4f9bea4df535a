#include "dataset/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
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

/// Arrival-count axis for a decile: wide enough for the busiest minute.
Axis arrival_axis_for(double decile_rate) {
  const double hi = std::max(10.0, decile_rate * 2.5);
  return Axis(0.0, hi, 200);
}

}  // namespace

MeasurementDataset::MeasurementDataset(const Network& network,
                                       std::size_t num_days,
                                       MeasurementConfig config)
    : network_(&network), num_days_(num_days), config_(config) {
  const auto& catalog = service_catalog();
  services_.reserve(catalog.size());
  for (const auto& p : catalog) services_.push_back(&p);

  slice_stats_.resize(catalog.size());
  duration_pdfs_.assign(catalog.size(), BinnedPdf(duration_axis()));
  decile_stats_.reserve(kNumDeciles);
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    decile_stats_.emplace_back(arrival_axis_for(network.decile_peak_rate(d)));
  }
  session_share_stats_.resize(catalog.size());
  traffic_share_stats_.resize(catalog.size());
}

std::array<Slice, 4> MeasurementDataset::slices_of(const BaseStation& bs,
                                                   std::size_t day) const {
  const Slice day_slice = day_type(day) == DayType::kWorkday
                              ? Slice::kWorkday
                              : Slice::kWeekend;
  Slice region_slice = Slice::kUrban;
  switch (bs.region) {
    case Region::kUrban: region_slice = Slice::kUrban; break;
    case Region::kSemiUrban: region_slice = Slice::kSemiUrban; break;
    case Region::kRural: region_slice = Slice::kRural; break;
  }
  const Slice rat_slice = bs.rat == Rat::k4G ? Slice::k4G : Slice::k5G;
  return {Slice::kTotal, day_slice, region_slice, rat_slice};
}

void MeasurementDataset::on_minute(const BaseStation& bs, std::size_t day,
                                   std::size_t minute_of_day,
                                   std::uint32_t count) {
  // PDF bins take integer weights, so they are exact under any event order;
  // the Welford moment accumulators are not, so the counts are buffered per
  // cell and replayed in canonical order by finalize().
  DecileArrivalStats& stats = decile_stats_[bs.decile];
  const double x = static_cast<double>(count);
  stats.count_pdf.add(x);
  PendingCell& pending = pending_cell(bs.id, day);
  if (ArrivalProcess::is_day_phase(minute_of_day)) {
    stats.day_pdf.add(x);
    pending.day_counts.push_back(count);
  } else {
    stats.night_pdf.add(x);
    pending.night_counts.push_back(count);
  }
}

void MeasurementDataset::on_session(const Session& session) {
  const BaseStation& bs = (*network_)[session.bs];
  const double log_volume = std::log10(session.volume_mb);
  const double log_duration = std::log10(session.duration_s);

  // Session counts and integer-weighted PDF bins are exact under any event
  // order and accumulate directly; volume sums and duration-volume curves
  // are buffered per cell and folded deterministically by finalize().
  auto& per_service = slice_stats_[session.service];
  for (Slice s : slices_of(bs, session.day)) {
    ServiceSliceStats& stats = per_service[static_cast<std::size_t>(s)];
    stats.volume_pdf.add(log_volume);
    ++stats.sessions;
  }
  if (bs.city != BaseStation::kNoCity) {
    const auto city_slice = static_cast<std::size_t>(Slice::kCity0) + bs.city;
    ServiceSliceStats& stats = per_service[city_slice];
    stats.volume_pdf.add(log_volume);
    ++stats.sessions;
  }

  duration_pdfs_[session.service].add(log_duration);

  PendingCell& pending = pending_cell(session.bs, session.day);
  ++pending.sessions[session.service];
  pending.volume_mb[session.service] += session.volume_mb;
  auto& dv = pending.dv_curves[session.service];
  if (!dv) dv.emplace(duration_axis());
  dv->add(log_duration, session.volume_mb);
  ++total_sessions_;

  if (config_.store_per_cell) {
    const CellKey key{session.service, session.bs, session.day};
    CellStats& cell = cells_[key];
    ++cell.sessions;
    cell.volume_mb += session.volume_mb;
    cell.volume_pdf.add(log_volume);
    cell.dv_curve.add(log_duration, session.volume_mb);
  }
}

MeasurementDataset::PendingCell& MeasurementDataset::pending_cell(
    std::uint32_t bs, std::size_t day) {
  const CellId id{bs, static_cast<std::uint16_t>(day)};
  if (cached_cell_ != nullptr && *cached_cell_id_ == id) return *cached_cell_;
  PendingCell& cell = pending_[id];
  if (cell.sessions.empty()) {
    cell.sessions.assign(services_.size(), 0);
    cell.volume_mb.assign(services_.size(), 0.0);
    cell.dv_curves.resize(services_.size());
  }
  cached_cell_id_ = id;
  cached_cell_ = &cell;
  return cell;
}

void MeasurementDataset::finalize() {
  // std::map iterates cells in (bs, day) order — the order the serial batch
  // path visits them — so every floating-point fold below sees the same
  // additions in the same sequence no matter how the input events were
  // interleaved across cells.
  for (const auto& [id, cell] : pending_) {
    const BaseStation& bs = (*network_)[id.first];
    const std::size_t day = id.second;

    // Replay the buffered per-minute arrival counts into the Welford
    // accumulators; each phase's counts are in minute order, matching the
    // push sequence of block-ordered serial generation.
    DecileArrivalStats& arrivals = decile_stats_[bs.decile];
    for (std::uint32_t c : cell.day_counts) {
      arrivals.day_stats.add(static_cast<double>(c));
    }
    for (std::uint32_t c : cell.night_counts) {
      arrivals.night_stats.add(static_cast<double>(c));
    }

    std::uint64_t cell_total = 0;
    double cell_volume = 0.0;
    for (std::size_t s = 0; s < services_.size(); ++s) {
      cell_total += cell.sessions[s];
      cell_volume += cell.volume_mb[s];
    }
    if (cell_total == 0) continue;
    total_volume_ += cell_volume;

    const auto slices = slices_of(bs, day);
    const std::size_t city_slice =
        bs.city != BaseStation::kNoCity
            ? static_cast<std::size_t>(Slice::kCity0) + bs.city
            : kNumSlices;
    for (std::size_t s = 0; s < services_.size(); ++s) {
      session_share_stats_[s].add(static_cast<double>(cell.sessions[s]) /
                                  static_cast<double>(cell_total));
      if (cell_volume > 0.0) {
        traffic_share_stats_[s].add(cell.volume_mb[s] / cell_volume);
      }
      if (cell.sessions[s] == 0) continue;
      for (Slice sl : slices) {
        ServiceSliceStats& stats = slice_stats_[s][static_cast<std::size_t>(sl)];
        stats.volume_mb += cell.volume_mb[s];
        if (cell.dv_curves[s]) stats.dv_curve.accumulate(*cell.dv_curves[s], 1.0);
      }
      if (city_slice < kNumSlices) {
        ServiceSliceStats& stats = slice_stats_[s][city_slice];
        stats.volume_mb += cell.volume_mb[s];
        if (cell.dv_curves[s]) stats.dv_curve.accumulate(*cell.dv_curves[s], 1.0);
      }
    }
  }
  pending_.clear();
  cached_cell_id_.reset();
  cached_cell_ = nullptr;
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

const BinnedPdf& MeasurementDataset::duration_pdf(std::size_t service) const {
  require(service < duration_pdfs_.size(), "duration_pdf: bad service index");
  return duration_pdfs_[service];
}

const std::map<CellKey, CellStats>& MeasurementDataset::cells() const {
  require(config_.store_per_cell,
          "cells: per-cell store disabled in this dataset");
  return cells_;
}

BinnedPdf MeasurementDataset::average_pdf(std::uint16_t service,
                                          std::span<const CellKey> keys) const {
  require(config_.store_per_cell, "average_pdf: per-cell store disabled");
  BinnedPdf out(volume_axis());
  double total_weight = 0.0;
  for (const CellKey& key : keys) {
    require(key.service == service, "average_pdf: key of another service");
    const auto it = cells_.find(key);
    if (it == cells_.end() || it->second.sessions == 0) continue;
    const auto weight = static_cast<double>(it->second.sessions);
    // F_s^{c,t} enters Eq. (2) normalized, weighted by w_s^{c,t}.
    BinnedPdf pdf = it->second.volume_pdf;
    pdf.normalize();
    out.accumulate(pdf, weight);
    total_weight += weight;
  }
  require(total_weight > 0.0, "average_pdf: no sessions in selection");
  out.normalize();
  return out;
}

BinnedMeanCurve MeasurementDataset::average_curve(
    std::uint16_t service, std::span<const CellKey> keys) const {
  require(config_.store_per_cell, "average_curve: per-cell store disabled");
  BinnedMeanCurve out(duration_axis());
  for (const CellKey& key : keys) {
    require(key.service == service, "average_curve: key of another service");
    const auto it = cells_.find(key);
    if (it == cells_.end()) continue;
    out.accumulate(it->second.dv_curve, 1.0);
  }
  return out;
}

std::vector<CellKey> MeasurementDataset::cell_keys(
    std::uint16_t service) const {
  require(config_.store_per_cell, "cell_keys: per-cell store disabled");
  std::vector<CellKey> out;
  for (const auto& [key, stats] : cells_) {
    if (key.service == service) out.push_back(key);
  }
  return out;
}

MeasurementDataset collect_dataset(const Network& network,
                                   const TraceConfig& trace_config,
                                   MeasurementConfig measurement_config) {
  MeasurementDataset dataset(network, trace_config.num_days,
                             measurement_config);
  const TraceGenerator generator(network, trace_config);
  generator.run(dataset);
  dataset.finalize();
  return dataset;
}

}  // namespace mtd
