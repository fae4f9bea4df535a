#include "common/fault.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace mtd {

void FaultInjector::arm(const std::string& point, FaultSpec spec) {
  MutexLock lock(mutex_);
  points_[point] = Armed{spec, 0, 0};
}

void FaultInjector::disarm(const std::string& point) {
  MutexLock lock(mutex_);
  points_.erase(point);
}

void FaultInjector::fire(const char* point) {
  FaultAction action;
  double stall_ms;
  {
    MutexLock lock(mutex_);
    const auto it = points_.find(point);
    if (it == points_.end()) return;
    Armed& armed = it->second;
    const std::uint64_t hit = armed.hits++;
    if (hit < armed.spec.after) return;
    if (armed.spec.times != FaultSpec::kUnlimited &&
        armed.fired >= armed.spec.times) {
      return;
    }
    if (armed.spec.probability < 1.0 &&
        !rng_.bernoulli(armed.spec.probability)) {
      return;
    }
    ++armed.fired;
    action = armed.spec.action;
    stall_ms = armed.spec.stall_ms;
  }
  // Act outside the lock: a stalled point must not serialize other threads'
  // (unarmed) fire calls, and throwing with a held lock is just rude.
  switch (action) {
    case FaultAction::kError:
      throw InjectedFault(std::string("injected fault at ") + point);
    case FaultAction::kThrow:
      throw std::runtime_error(std::string("injected exception at ") + point);
    case FaultAction::kStall:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          stall_ms));
      break;
  }
}

std::uint64_t FaultInjector::hits(const std::string& point) const {
  MutexLock lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultInjector::fired(const std::string& point) const {
  MutexLock lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fired;
}

const std::vector<std::string>& FaultInjector::known_points() {
  // Sorted; keep in sync with the compiled-in sites listed in the header
  // (tests grep the tree for fault_fire call sites and compare).
  static const std::vector<std::string> points = {
      "consumer.loop",
      "sink.minute",
      "sink.packet",
      "sink.segment",
      "sink.session",
      "store.commit.manifest",
      "store.commit.pages",
      "store.commit.sync",
      "store.compact.manifest",
      "store.compact.pages",
      "store.compact.sync",
      "worker.day",
      "worker.session",
  };
  return points;
}

}  // namespace mtd
