// Composable sink layer of the typed event data plane.
//
// EventSink is the single consumer-facing interface of the streaming
// engine: one on_event per StreamEvent, on one thread, in ring order. The
// concrete sinks here cover the egress formats (CSV via the existing
// SessionCsvWriter for bit-identical session replay, ndjson for line-based
// tooling, the length-prefixed binary format that a future socket egress
// reuses) and the combinators that compose them: FanOutSink duplicates a
// stream across branches under a SinkErrorPolicy, FilterSink narrows a
// stream to selected event kinds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffered_file.hpp"
#include "dataset/generator.hpp"
#include "dataset/network.hpp"
#include "dataset/trace_io.hpp"
#include "events/stream_event.hpp"

namespace mtd {

/// What the consumer does when a sink callback throws.
enum class SinkErrorPolicy : std::uint8_t {
  kFailFast, ///< abort the run and rethrow (the historical behavior)
  kDegrade,  ///< count the failed delivery and keep streaming
};

[[nodiscard]] const char* to_string(SinkErrorPolicy p) noexcept;

/// Receives a typed event stream. All callbacks arrive on one thread.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const StreamEvent& event) = 0;
  /// Flushes and releases resources. A sink whose buffered output may have
  /// failed must throw here rather than pass a truncated stream as
  /// complete. Default: no-op.
  virtual void close() {}
};

/// The one bridge from the typed stream to the TraceSink interface
/// (MeasurementDataset, SessionCsvWriter): minute events become on_minute,
/// session events on_session, segment and packet events are ignored
/// (TraceSink predates them). `network` supplies the BaseStation metadata
/// on_minute requires. A MeasurementDataset takes whole (BS, day) cells in
/// order, so the engine's stream reaches one through a SessionSource.
class TraceSinkAdapter final : public EventSink {
 public:
  TraceSinkAdapter(const Network& network, TraceSink& sink)
      : network_(&network), sink_(&sink) {}

  void on_event(const StreamEvent& event) override;

 private:
  const Network* network_;
  TraceSink* sink_;
};

/// Writes session events to the CSV schema of SessionCsvWriter
/// (bit-identical to the pre-refactor session replay path), through a
/// TraceSinkAdapter over the writer. Minute, segment and packet events are
/// accepted and skipped, so the sink can sit directly on a full multi-kind
/// stream. close() surfaces buffered write failures exactly as
/// SessionCsvWriter::close does.
class SessionCsvEventSink final : public EventSink {
 public:
  SessionCsvEventSink(const Network& network, const std::string& path);

  void on_event(const StreamEvent& event) override { adapter_.on_event(event); }
  void close() override { writer_.close(); }

  [[nodiscard]] SessionCsvWriter& writer() noexcept { return writer_; }

 private:
  SessionCsvWriter writer_;
  TraceSinkAdapter adapter_;
};

/// Writes every event as one JSON object per line (ndjson). Schema per
/// line: {"kind","bs","day","minute","seq",...kind fields...}; see
/// DESIGN.md sec. 10. close() surfaces buffered write failures.
class NdjsonEventWriter final : public EventSink {
 public:
  explicit NdjsonEventWriter(const std::string& path);

  void on_event(const StreamEvent& event) override;
  void close() override { file_.close(); }

  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return file_.records();
  }

 private:
  BufferedFileWriter file_;
};

/// Length-prefixed binary event log — the on-disk form of the wire format a
/// future socket egress will reuse. Layout (all integers little-endian,
/// doubles as little-endian IEEE-754 bit patterns): an 8-byte magic
/// "MTDEVT1\n", then per event a u32 payload length followed by the
/// payload: u8 kind, key (u32 bs, u16 day, u16 minute, u64 seq), then the
/// kind-specific fields in declaration order (see DESIGN.md sec. 10).
/// Readers skip unknown kinds by their length prefix. close() surfaces
/// buffered write failures.
class BinaryEventWriter final : public EventSink {
 public:
  static constexpr char kMagic[8] = {'M', 'T', 'D', 'E', 'V', 'T', '1', '\n'};

  explicit BinaryEventWriter(const std::string& path);

  void on_event(const StreamEvent& event) override;
  void close() override { file_.close(); }

  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return file_.records();
  }

 private:
  BufferedFileWriter file_;
};

/// Incremental reader over a BinaryEventWriter file: one record per next()
/// call, pulled through a fixed-size refill buffer, so arbitrarily large
/// logs stream without ever materializing the file (or an event vector) in
/// memory. Throws ParseError (naming the path and byte offset) on a bad
/// magic, a truncated record, or a payload shorter than its kind requires;
/// unknown kinds are skipped via their length prefix. A cut exactly on a
/// record boundary reads as a valid shorter log.
class BinaryEventReader {
 public:
  explicit BinaryEventReader(const std::string& path);
  ~BinaryEventReader();

  BinaryEventReader(const BinaryEventReader&) = delete;
  BinaryEventReader& operator=(const BinaryEventReader&) = delete;

  /// Parses the next known-kind event into `out`. Returns false at a clean
  /// end of file.
  [[nodiscard]] bool next(StreamEvent& out);

  /// Known-kind events returned by next() so far.
  [[nodiscard]] std::uint64_t events_delivered() const noexcept {
    return delivered_;
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t delivered_ = 0;
};

/// Streams a BinaryEventWriter file back into a sink — a thin loop over
/// BinaryEventReader, with its error contract. Returns the number of
/// events delivered.
std::uint64_t read_binary_events(const std::string& path, EventSink& sink);

/// Duplicates a stream across branches (non-owning). Under kFailFast the
/// first branch exception aborts the fan-out delivery and propagates —
/// engine accounting then counts the event exactly once. Under kDegrade a
/// throwing branch is counted (per branch) and the remaining branches
/// still receive the event: one failing branch degrades itself, never the
/// whole fan-out. close() always closes every branch and rethrows the
/// first failure afterwards — a close error means lost data regardless of
/// policy.
class FanOutSink final : public EventSink {
 public:
  FanOutSink(std::vector<EventSink*> branches, SinkErrorPolicy policy);

  void on_event(const StreamEvent& event) override;
  void close() override;

  [[nodiscard]] std::size_t num_branches() const noexcept {
    return branches_.size();
  }
  /// Failed deliveries of branch `i` under kDegrade.
  [[nodiscard]] std::uint64_t branch_errors(std::size_t i) const {
    return errors_.at(i);
  }
  /// Message of the most recent failure of branch `i` ("" if none).
  [[nodiscard]] const std::string& branch_last_error(std::size_t i) const {
    return last_errors_.at(i);
  }

 private:
  std::vector<EventSink*> branches_;
  SinkErrorPolicy policy_;
  std::vector<std::uint64_t> errors_;
  std::vector<std::string> last_errors_;
};

/// Forwards only the selected event kinds to the inner sink (non-owning;
/// close() is forwarded).
class FilterSink final : public EventSink {
 public:
  FilterSink(EventSink& inner, EventKindMask kinds)
      : inner_(&inner), kinds_(kinds) {}

  void on_event(const StreamEvent& event) override {
    if (kinds_.contains(event.kind())) inner_->on_event(event);
  }
  void close() override { inner_->close(); }

 private:
  EventSink* inner_;
  EventKindMask kinds_;
};

}  // namespace mtd
