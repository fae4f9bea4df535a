// Bounded lock-free single-producer / single-consumer ring buffer.
//
// The streaming replay engine runs one producer (shard worker) and one
// consumer (sink thread) per ring, which is exactly the SPSC setting: a
// Lamport queue with C++11 atomics needs no locks and no CAS. Head and tail
// live on separate cache lines, and each side keeps a cached copy of the
// opposite index so the fast path touches only its own line (the classic
// "cached index" optimization; coherence traffic only on apparent
// full/empty).
//
// Push and pop exchange with the slot instead of move-assigning into it, so
// a value type that owns a buffer (the engine's event batches) circulates:
// the consumer leaves its spent buffer in the slot it pops, and the producer
// gets that buffer back from the slot it next pushes into. Once every slot
// has been used, no buffer is allocated or freed, and the ring retains at
// most capacity + 2 buffers (the slots, the producer's, the consumer's).
//
// A producer that finds the ring full can park (wait_for_space) on a
// per-ring flag instead of spinning; the consumer wakes it once a pop has
// drained the ring to half full. The flag and both indices are accessed
// seq_cst at the park/wake points, so a wakeup cannot be lost: either the
// parked producer's re-check sees the consumer's pop, or the consumer's pop
// sees the producer's flag.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mtd {

/// Rounds up to the next power of two (minimum 2).
[[nodiscard]] constexpr std::size_t ceil_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two. Indices are monotonically
  /// increasing 64-bit counters (masked on access), so every slot is usable
  /// and full (tail - head == capacity) is unambiguous from empty.
  explicit SpscRing(std::size_t capacity)
      : mask_(ceil_pow2(capacity) - 1), slots_(mask_ + 1) {
    require(capacity >= 2, "SpscRing: capacity must be at least 2");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Swaps `value` into the next slot, so on success `value`
  /// holds what the slot held before (a default T until the ring wraps,
  /// then what the consumer left there). Returns false, leaving `value`
  /// untouched, when the ring is full.
  bool try_push(T& value) noexcept {
    using std::swap;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    swap(slots_[tail & mask_], value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Swaps the oldest slot into `out`, leaving the previous
  /// content of `out` in the slot for the producer to reuse. Wakes a parked
  /// producer once the ring is at most half full. Returns false when the
  /// ring is empty.
  bool try_pop(T& out) noexcept {
    using std::swap;
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    swap(slots_[head & mask_], out);
    head_.store(head + 1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) {
      // Waking at half full lets the producer refill one half while the
      // consumer drains the other.
      const std::uint64_t left =
          tail_.load(std::memory_order_acquire) - (head + 1);
      if (left <= capacity() / 2 &&
          parked_.exchange(0, std::memory_order_seq_cst) != 0) {
        parked_.notify_one();
      }
    }
    return true;
  }

  /// Producer side: sleeps until a pop drains the ring to half full.
  /// Returns at once when a slot has freed since the failed try_push. May
  /// return spuriously; callers retry try_push. The consumer's pops are the
  /// only wake-up, so a producer parks only while something will drain it.
  void wait_for_space() noexcept {
    parked_.store(1, std::memory_order_seq_cst);
    if (tail_.load(std::memory_order_relaxed) -
            head_.load(std::memory_order_seq_cst) <=
        mask_) {
      parked_.store(0, std::memory_order_relaxed);
      return;
    }
    parked_.wait(1, std::memory_order_seq_cst);
  }

  /// Approximate occupancy; exact only when both sides are quiescent.
  /// Callable from any thread (telemetry).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  static constexpr std::size_t kCacheLine = 64;

  std::size_t mask_;
  std::vector<T> slots_;

  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // next pop
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // next push
  // 1 while the producer is (about to be) parked in wait_for_space.
  alignas(kCacheLine) std::atomic<std::uint32_t> parked_{0};
  // Producer-local cache of head_ / consumer-local cache of tail_.
  alignas(kCacheLine) std::uint64_t cached_head_{0};
  alignas(kCacheLine) std::uint64_t cached_tail_{0};
};

}  // namespace mtd
