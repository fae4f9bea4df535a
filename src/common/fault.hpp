// Deterministic failure injection (lives in common/ so layers below the
// engine — the trace store's commit path — can compile in points too).
//
// A FaultInjector is a registry of named failure points compiled into the
// system's hot paths (worker day loop, consumer drain loop, the sink
// adapter call sites, the trace-store commit and compaction).
// Production runs pass no injector and every point is a branch on a null
// pointer; tests arm individual points to throw a foreign exception, raise
// a typed retryable error, stall for a fixed time, or fail
// probabilistically from a seeded RNG — so every failure path in
// engine/store/supervisor code is exercised deterministically, without
// mocks or real faulty hardware.
//
// Compiled-in points:
//   worker.day            fired by each shard worker at every day start
//   worker.session        fired before each generated session is staged
//   sink.minute           fired before each minute-event sink delivery
//   sink.session          fired before each session-event sink delivery
//   sink.segment          fired before each segment-event sink delivery
//   sink.packet           fired before each packet-event sink delivery
//   consumer.loop         fired once per consumer sweep (stall target)
//   store.commit.pages    fired by TraceStoreWriter::commit before the
//                         segment pages are appended
//   store.commit.sync     fired after the append, before the page fdatasync
//   store.commit.manifest fired before the manifest record is appended
//   store.compact.pages   fired by TraceStoreWriter::compact before the
//                         merged segment's pages are appended
//   store.compact.sync    fired after the append, before the page fdatasync
//   store.compact.manifest fired before the manifest record that swaps the
//                         merged segment in is appended
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"

namespace mtd {

/// What an armed failure point does when it fires.
enum class FaultAction : std::uint8_t {
  kError,  ///< throw InjectedFault (an mtd EngineError, retryable)
  kThrow,  ///< throw std::runtime_error — a foreign, non-retryable exception
  kStall,  ///< sleep for stall_ms, then return normally
};

/// The exception raised by FaultAction::kError. Retryable, so supervised
/// runs recover from it; tests catch it to distinguish injected failures
/// from organic ones.
class InjectedFault : public EngineError {
 public:
  explicit InjectedFault(const std::string& what) : EngineError(what, true) {}
};

/// How one failure point misbehaves once armed.
struct FaultSpec {
  FaultAction action = FaultAction::kError;
  /// Chance that an eligible hit fires, drawn from the injector's seeded
  /// RNG; 1.0 fires on every eligible hit.
  double probability = 1.0;
  /// Number of initial hits that pass through unharmed before the point
  /// becomes eligible (e.g. "fail on the third store commit").
  std::uint64_t after = 0;
  /// Maximum number of times the point fires; kUnlimited never disarms.
  std::uint64_t times = 1;
  /// kStall only: how long the firing thread sleeps.
  double stall_ms = 0.0;

  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};
};

/// Thread-safe registry of armed failure points. Fire sites may be hit from
/// any engine thread; arming/disarming normally happens before run().
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : rng_(seed) {}

  /// Arms (or re-arms, resetting counters) the named point.
  void arm(const std::string& point, FaultSpec spec) MTD_EXCLUDES(mutex_);

  /// Disarms the point; unknown names are a no-op.
  void disarm(const std::string& point) MTD_EXCLUDES(mutex_);

  /// Called by the compiled-in sites. Unarmed points only pay the map
  /// lookup; armed points count the hit and apply their FaultSpec, which
  /// may throw or stall. Never throws for unarmed points.
  void fire(const char* point) MTD_EXCLUDES(mutex_);

  /// Total times the point was reached (armed hits only).
  [[nodiscard]] std::uint64_t hits(const std::string& point) const
      MTD_EXCLUDES(mutex_);
  /// Times the point actually fired its action.
  [[nodiscard]] std::uint64_t fired(const std::string& point) const
      MTD_EXCLUDES(mutex_);

  /// Every failure point compiled into the tree, sorted — the registry the
  /// chaos soak arms exhaustively (`mtd_chaos --faults all`). The list must
  /// name every fault_fire call site; a grep-style test
  /// (FaultPoints.RegistryCoversEveryFireSite) fails the build tree when a
  /// new point is added without registering it here.
  [[nodiscard]] static const std::vector<std::string>& known_points();

 private:
  struct Armed {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  mutable Mutex mutex_;
  std::map<std::string, Armed, std::less<>> points_ MTD_GUARDED_BY(mutex_);
  /// Probability draws happen under the lock: concurrent fire() calls on
  /// armed points must consume the seeded stream in a serialized order.
  Rng rng_ MTD_GUARDED_BY(mutex_);
};

/// Null-safe fire helper used at every compiled-in site.
inline void fault_fire(FaultInjector* injector, const char* point) {
  if (injector != nullptr) injector->fire(point);
}

}  // namespace mtd
