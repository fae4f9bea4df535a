// Session-trace serialization: CSV export and ingestion.
//
// The library's analyses run on any TraceSink-fed dataset, not only the
// built-in synthetic substrate. This module writes session traces to a
// simple CSV schema and streams them back, so externally collected
// session-level data (or traces produced by other tools) can be run through
// the same aggregation, characterization and fitting pipeline.
//
// Schema (header required):
//   bs,service,day,minute_of_day,volume_mb,duration_s
// `service` is the catalogue name (quoted if it contains commas).
#pragma once

#include <string>

#include "common/buffered_file.hpp"
#include "dataset/generator.hpp"
#include "dataset/measurement.hpp"

namespace mtd {

/// Writes sessions to CSV as they arrive; per-minute counts are not part
/// of the schema and are ignored.
class SessionCsvWriter final : public TraceSink {
 public:
  /// Opens `path` for writing and emits the header.
  explicit SessionCsvWriter(const std::string& path);

  void on_minute(const BaseStation&, std::size_t, std::size_t,
                 std::uint32_t) override {}
  void on_session(const Session& session) override;

  /// Flushes and closes the file (also done by the destructor). Throws
  /// Error when any buffered write failed (full disk, revoked path, I/O
  /// error) — a silently truncated trace must not pass for a complete one.
  /// The destructor cannot throw; it reports the failure to stderr instead,
  /// so call close() explicitly wherever the trace matters.
  void close() { file_.close(); }

  /// True once any write on the underlying stream has failed.
  [[nodiscard]] bool write_failed() const noexcept { return file_.failed(); }

  [[nodiscard]] std::uint64_t sessions_written() const noexcept {
    return file_.records();
  }

 private:
  BufferedFileWriter file_;
};

/// Streams a session CSV into a TraceSink. Per-minute arrival counts are
/// reconstructed from the session rows (every (BS, day, minute) triple with
/// at least one session gets its count; silent minutes are emitted as zero
/// for the covered (BS, day) pairs so arrival statistics stay meaningful).
///
/// The rows may come in any order: the whole file is read into memory,
/// grouped by (BS, day), and delivered cell by cell in ascending (BS, day)
/// order, each cell's sessions sorted by minute with rows of one minute in
/// file order. That costs memory proportional to the file, but it is what
/// accepts the engine's CSVs (SessionCsvEventSink), which are minute-major
/// across BSs, and it delivers the order MeasurementDataset requires.
///
/// `network` supplies the BS metadata (decile, region, city, RAT); rows
/// whose BS id is outside the network, and volumes or durations that are
/// not finite and positive, are rejected with ParseError naming the line.
/// Returns the number of sessions replayed.
std::uint64_t replay_csv_trace(const std::string& path,
                               const Network& network, TraceSink& sink);

}  // namespace mtd
