// Fork-join over independent, index-addressed jobs.
//
// parallel_for(n, fn) runs fn(0) ... fn(n-1), each exactly once, on up to
// the host's hardware threads, the calling thread included. A job that
// writes only its own pre-sized output slot and draws from a stream fixed
// by its index gives the same result at any thread count (DESIGN.md
// section 17).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace mtd {

/// Runs fn(i) for every i < n on min(n, threads) threads, the caller being
/// one of them; n <= 1 or threads <= 1 (also a host reporting 0 hardware
/// threads) run inline and start no thread. Jobs are claimed in index
/// order from one atomic counter, so fn must be safe to call concurrently
/// for distinct indices. Threads are spawned per call and joined before it
/// returns.
///
/// Errors behave as in the serial loop: when jobs throw, the exception of
/// the lowest failing index is rethrown once every thread has joined, and
/// no job is started after the first failure. Every index below a failing
/// one was claimed before it, so which exception surfaces does not depend
/// on scheduling.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn,
                  std::size_t threads = std::thread::hardware_concurrency()) {
  const std::size_t workers = std::min(n, threads);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  // The lowest failing index and its exception, so the bookkeeping does not
  // grow with n.
  Mutex error_guard;
  std::size_t failed = n;
  std::exception_ptr error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_guard);
        if (i < failed) {
          failed = i;
          error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(drain);
    drain();
  }  // joins the pool
  if (error) std::rethrow_exception(error);
}

}  // namespace mtd
