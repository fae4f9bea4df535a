// Typed event data plane: the tagged events that flow through the engine
// rings and into composable sinks (src/events/event_sink.hpp).
//
// The paper's session model is the root of a hierarchy: full sessions
// decompose into per-BS handover segments (Sec. 4 mobility extension) and
// into packet-level schedules suitable for ns-3-style consumers (Sec. 1
// positions the session models as complementary to packet-level modeling).
// StreamEvent carries any level of that hierarchy through one pipeline: an
// (BS, day, minute, seq) ordering key plus a variant payload whose index is
// the event kind. Events of one (BS, day) are totally ordered by `seq`
// across kinds — a consumer can reconstruct the exact generation order per
// BS no matter how shards interleave across BSs or how transfers are
// batched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/time_utils.hpp"
#include "dataset/generator.hpp"
#include "mobility/handover.hpp"
#include "packet/packet_schedule.hpp"

namespace mtd {

/// Discriminator of a StreamEvent payload. Values equal the variant index
/// and double as indices into per-kind counter arrays.
enum class EventKind : std::uint8_t {
  kMinute = 0,   ///< per-(BS, day, minute) arrival count
  kSession = 1,  ///< one full per-BS session record
  kSegment = 2,  ///< one handover-chain segment of a session
  kPacket = 3,   ///< one scheduled packet of a session
};

inline constexpr std::size_t kNumEventKinds = 4;

[[nodiscard]] constexpr const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kMinute: return "minute";
    case EventKind::kSession: return "session";
    case EventKind::kSegment: return "segment";
    case EventKind::kPacket: return "packet";
  }
  return "?";
}

/// Parses a kind name ("minute", "session", "segment", "packet"). Throws
/// ParseError on anything else.
[[nodiscard]] inline EventKind event_kind_from_name(std::string_view name) {
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == to_string(kind)) return kind;
  }
  throw ParseError("EventKind: unknown event kind '" + std::string(name) +
                   "'");
}

/// Which event kinds a pipeline produces or accepts.
struct EventKindMask {
  std::uint8_t bits = 0;

  [[nodiscard]] constexpr bool contains(EventKind kind) const noexcept {
    return (bits & (1u << static_cast<unsigned>(kind))) != 0;
  }
  constexpr EventKindMask& set(EventKind kind) noexcept {
    bits = static_cast<std::uint8_t>(bits |
                                     (1u << static_cast<unsigned>(kind)));
    return *this;
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return bits == 0; }

  /// The pre-refactor data plane: minute counts and session records.
  [[nodiscard]] static constexpr EventKindMask session_replay() noexcept {
    return EventKindMask{}.set(EventKind::kMinute).set(EventKind::kSession);
  }
  [[nodiscard]] static constexpr EventKindMask all() noexcept {
    return EventKindMask{(1u << kNumEventKinds) - 1};
  }

  friend constexpr bool operator==(EventKindMask,
                                   EventKindMask) noexcept = default;
};

/// Ordering key of every event: where it belongs in the trace and its
/// position in the (BS, day) generation stream, counted across all kinds.
/// The comparison order (bs, day, minute, seq) is the canonical trace
/// order: within one (BS, day) it is exactly generation order, which is
/// what replay-sensitive consumers (aggregation, the trace store) sort by.
struct EventKey {
  std::uint32_t bs = 0;
  std::uint16_t day = 0;
  std::uint16_t minute_of_day = 0;
  std::uint64_t seq = 0;

  /// Absolute simulated minute of the event — the granularity engine
  /// checkpoints cut the stream at.
  [[nodiscard]] constexpr std::uint64_t clock_minute() const noexcept {
    return static_cast<std::uint64_t>(day) * kMinutesPerDay + minute_of_day;
  }

  friend constexpr auto operator<=>(const EventKey&,
                                    const EventKey&) noexcept = default;
};

/// Arrival count of one (BS, day, minute), including zero.
struct MinuteEvent {
  std::uint32_t arrivals = 0;
};

/// One full per-BS session (the pre-refactor unit of streaming).
struct SessionEvent {
  Session session;
};

/// One per-BS segment of a session's handover chain. `session_seq` is the
/// key.seq of the SessionEvent the segment expands (valid whether or not
/// session events are enabled: the sequence number is always consumed).
struct SegmentEvent {
  SessionSegment segment;
  std::uint16_t service = 0;
  MobilityState state = MobilityState::kStationary;
  std::uint64_t session_seq = 0;
};

/// One scheduled packet of a session; `session_seq` as in SegmentEvent.
struct PacketEvent {
  Packet packet;
  std::uint16_t service = 0;
  std::uint64_t session_seq = 0;
};

/// A tagged event. The variant order must match EventKind: kind() is the
/// variant index.
struct StreamEvent {
  EventKey key;
  std::variant<MinuteEvent, SessionEvent, SegmentEvent, PacketEvent> payload;

  [[nodiscard]] EventKind kind() const noexcept {
    return static_cast<EventKind>(payload.index());
  }
};

/// Unit of ring transfer: up to EngineConfig::batch_size events, in
/// generation order. Batching amortizes the atomic head/tail traffic of the
/// SPSC rings over many events.
using EventBatch = std::vector<StreamEvent>;

}  // namespace mtd
