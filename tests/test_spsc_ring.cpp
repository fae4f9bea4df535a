#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/spsc_ring.hpp"

namespace mtd {
namespace {

TEST(SpscRing, PushPopRoundTrip) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    int value = i;
    EXPECT_TRUE(ring.try_push(value));
  }
  int extra = 99;
  EXPECT_FALSE(ring.try_push(extra));  // full: all capacity slots usable
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
  EXPECT_THROW(SpscRing<int>(1), InvalidArgument);
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    std::uint64_t value = i;
    ASSERT_TRUE(ring.try_push(value));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  // Interleaved partial fills across the wrap point.
  std::uint64_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 5; ++k) {
      std::uint64_t value = next_push++;
      ASSERT_TRUE(ring.try_push(value));
    }
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, next_pop++);
    }
  }
}

TEST(SpscRing, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<std::string>> ring(2);
  auto value = std::make_unique<std::string>("hello");
  ASSERT_TRUE(ring.try_push(value));
  EXPECT_FALSE(value);  // the fresh slot's empty pointer
  std::unique_ptr<std::string> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, "hello");
}

TEST(SpscRing, TwoThreadStressPreservesOrder) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> ring(64);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      std::uint64_t value = i;
      while (!ring.try_push(value)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (expected < kCount) {
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(out));
}

// Push and pop exchange with the slot: a push hands back what the slot
// held, which after a pop is the consumer's previous value.
TEST(SpscRing, PushReturnsTheSlotsPreviousValue) {
  SpscRing<int> ring(2);
  int a = 1;
  int b = 2;
  ASSERT_TRUE(ring.try_push(a));
  ASSERT_TRUE(ring.try_push(b));
  EXPECT_EQ(a, 0);  // fresh slots hold a default value
  EXPECT_EQ(b, 0);
  int full = 3;
  EXPECT_FALSE(ring.try_push(full));
  EXPECT_EQ(full, 3);  // a failed push leaves the value alone

  int out = 7;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(ring.try_push(full));
  EXPECT_EQ(full, 7);  // the consumer's previous value, left in the slot
}

// Buffers circulate: once the ring has wrapped, every buffer the producer
// gets back keeps its capacity, and no new buffer is ever allocated.
TEST(SpscRing, PoppedBufferComesBackWithItsCapacity) {
  constexpr std::size_t kBatch = 64;
  SpscRing<std::vector<int>> ring(4);
  std::vector<int> pending;
  pending.reserve(kBatch);
  std::vector<int> consumed;
  consumed.reserve(kBatch);
  std::set<const int*> buffers;
  int next = 0;
  int expected = 0;
  for (int round = 0; round < 100; ++round) {
    // Fill the ring, then drain it, so every slot is exchanged each round.
    for (std::size_t k = 0; k < ring.capacity(); ++k) {
      for (std::size_t i = 0; i < kBatch; ++i) pending.push_back(next++);
      buffers.insert(pending.data());
      ASSERT_TRUE(ring.try_push(pending));
      if (round > 0) {  // a slot holds a default value until it wraps
        EXPECT_GE(pending.capacity(), kBatch);
        EXPECT_TRUE(pending.empty());  // the consumer cleared it
      }
      pending.clear();
      pending.reserve(kBatch);
    }
    while (ring.try_pop(consumed)) {
      ASSERT_EQ(consumed.size(), kBatch);
      for (const int v : consumed) ASSERT_EQ(v, expected++);
      consumed.clear();
    }
  }
  // The slots, the producer's and the consumer's buffer.
  EXPECT_LE(buffers.size(), ring.capacity() + 2);
}

// A producer that parks on a full 2-slot ring is always woken: 200k items
// arrive in order while the consumer pauses at random.
TEST(SpscRing, ParkedProducerStressPreservesOrder) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> ring(2);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      std::uint64_t value = i;
      while (!ring.try_push(value)) ring.wait_for_space();
    }
  });
  std::mt19937_64 rng(29);
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (expected < kCount) {
    if (rng() % 512 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(rng() % 200));
    }
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(out));
}

}  // namespace
}  // namespace mtd
