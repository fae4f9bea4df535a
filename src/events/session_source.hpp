// Streaming SessionSource: the single consumer-facing cursor over a trace
// (DESIGN.md section 15).
//
// Use cases and analysis used to require a fully materialized
// MeasurementDataset, capping runs at what fits in RAM. SessionSource
// abstracts where the events live: scan() streams every matching event in
// canonical (bs, day, minute, seq) order, exactly once, to a callback. The
// query carries the predicates an implementation may push down below the
// decode: MemorySessionSource filters an in-memory vector;
// StoreSessionSource (src/store/store_session_source.hpp) pushes the BS and
// day-range predicates into TraceStore::scan where fence pruning skips
// cold pages entirely. Because both implementations deliver the same
// events in the same order, any deterministic consumer computes
// bit-identical results from either — the property the parity goldens in
// tests/test_session_source.cpp assert.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dataset/measurement.hpp"
#include "events/event_sink.hpp"
#include "events/stream_event.hpp"

namespace mtd {

/// Predicates of one SessionSource::scan pass. Matching events are those
/// with `bs` (when set), day in [day_lo, day_hi] and a kind in `kinds`.
struct SourceQuery {
  std::optional<std::uint32_t> bs;  ///< restrict to one base station
  std::uint16_t day_lo = 0;
  std::uint16_t day_hi = 0xffff;
  EventKindMask kinds = EventKindMask::all();

  [[nodiscard]] bool matches(const StreamEvent& event) const noexcept {
    if (bs.has_value() && event.key.bs != *bs) return false;
    if (event.key.day < day_lo || event.key.day > day_hi) return false;
    return kinds.contains(event.kind());
  }
};

/// Single-pass ordered cursor over a trace. Implementations deliver every
/// matching event exactly once, in canonical (bs, day, minute, seq) order;
/// how much of the query they evaluate below the decode (predicate
/// push-down) is theirs to choose, the delivered stream is identical.
///
/// A source need not be safe to share between threads. A use case may call
/// scan() from a thread other than its caller (run_slicing_from_source
/// scans from a job of its calibration fork), but never concurrently: its
/// scans run one after another on one thread, ordered against the caller's
/// own accesses by that thread's start and join.
class SessionSource {
 public:
  virtual ~SessionSource() = default;

  /// Streams every event matching `query` to `fn`, in key order. Returns
  /// the number of events delivered.
  virtual std::uint64_t scan(
      const SourceQuery& query,
      const std::function<void(const StreamEvent&)>& fn) = 0;
};

/// SessionSource over an in-memory event vector (sorted on construction,
/// stable so equal keys keep arrival order — the writer's convention). The
/// memory half of every store-vs-memory parity golden.
class MemorySessionSource final : public SessionSource {
 public:
  explicit MemorySessionSource(std::vector<StreamEvent> events);

  std::uint64_t scan(const SourceQuery& query,
                     const std::function<void(const StreamEvent&)>& fn)
      override;

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// EventSink that collects a stream into the vector a MemorySessionSource
  /// is built from (e.g. an engine run with an in-memory tap).
  class Collector final : public EventSink {
   public:
    void on_event(const StreamEvent& event) override {
      events_.push_back(event);
    }
    [[nodiscard]] std::vector<StreamEvent> take() && {
      return std::move(events_);
    }

   private:
    std::vector<StreamEvent> events_;
  };

 private:
  std::vector<StreamEvent> events_;
};

/// Deterministic start second in [0, 60) of an event within its minute,
/// derived from the ordering key alone (splitmix64 finalizer). Store-backed
/// consumers need sub-minute placement that the key does not carry; hashing
/// the key gives every consumer the same placement regardless of which
/// SessionSource implementation delivered the event.
[[nodiscard]] double event_start_second(const EventKey& key) noexcept;

/// Aggregates the minute and session events of `source` (days
/// [0, num_days)) into a finalized MeasurementDataset — the bridge from any
/// SessionSource to every dataset-shaped consumer (invariance, model
/// fitting). One pass, holding one (BS, day) cell; kinds pushed down.
[[nodiscard]] MeasurementDataset dataset_from_source(SessionSource& source,
                                                     const Network& network,
                                                     std::size_t num_days);

}  // namespace mtd
