// Minute-keyed exactly-once commit buffer for EventSink pipelines.
//
// The streaming engine delivers events ahead of its checkpoints: by the
// time a checkpoint for clock minute M is recorded, fast workers may
// already have pushed events past M through the consumer. A durable sink
// (the trace store writer) that persists everything it has seen would
// therefore hold events the checkpoint does not cover — and a crash +
// resume from that checkpoint would regenerate and re-deliver them.
// MinuteCommitBuffer closes that hole: it holds events grouped by absolute
// simulated minute and forwards them downstream only when commit_through()
// is called with a checkpoint's clock_minute, so the downstream sink's
// state never runs ahead of the checkpoint that describes it. On a failed
// attempt, discard() drops the uncommitted tail; the resume regenerates it
// bit-identically from the checkpoint.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "events/event_sink.hpp"

namespace mtd {

/// Buffers a typed event stream per absolute simulated minute and releases
/// whole minutes downstream in minute order on commit_through(). Within a
/// minute, arrival order is preserved, so each BS's subsequence reaches
/// the downstream sink exactly in generation order.
class MinuteCommitBuffer final : public EventSink {
 public:
  /// `downstream` must outlive the buffer. close() flushes every buffered
  /// event but does NOT close the downstream sink — the pipeline owner
  /// decides when the terminal sink closes.
  explicit MinuteCommitBuffer(EventSink& downstream)
      : downstream_(&downstream) {}

  /// O(1): the minute's slot sits at its offset from the first buffered
  /// minute (slots for skipped minutes stay empty).
  void on_event(const StreamEvent& event) override {
    const std::uint64_t minute = event.key.clock_minute();
    if (minutes_.empty()) {
      first_minute_ = minute;
    } else if (minute < first_minute_) {
      minutes_.insert(minutes_.begin(), first_minute_ - minute, {});
      first_minute_ = minute;
    }
    const std::uint64_t slot = minute - first_minute_;
    if (slot >= minutes_.size()) minutes_.resize(slot + 1);
    minutes_[slot].push_back(event);
    ++buffered_;
  }

  /// Flushes every buffered minute strictly below `clock_minute` (a
  /// checkpoint cursor: the first minute NOT covered) downstream.
  void commit_through(std::uint64_t clock_minute) {
    while (!minutes_.empty() && first_minute_ < clock_minute) {
      std::vector<StreamEvent>& events = minutes_.front();
      for (const StreamEvent& event : events) downstream_->on_event(event);
      buffered_ -= events.size();
      minutes_.pop_front();
      ++first_minute_;
    }
  }

  /// Drops the uncommitted tail (failed attempt; the resume regenerates
  /// it). Never throws.
  void discard() noexcept {
    minutes_.clear();
    buffered_ = 0;
  }

  /// Events currently held back.
  [[nodiscard]] std::uint64_t events_buffered() const noexcept {
    return buffered_;
  }

  /// Flushes everything (end of a successful run where the caller wants
  /// the full stream). Deliberately does not close the downstream sink.
  void close() override {
    commit_through(~std::uint64_t{0});
  }

 private:
  EventSink* downstream_;
  /// minutes_[i] holds minute first_minute_ + i, in arrival order.
  std::deque<std::vector<StreamEvent>> minutes_;
  std::uint64_t first_minute_ = 0;
  std::uint64_t buffered_ = 0;
};

}  // namespace mtd
