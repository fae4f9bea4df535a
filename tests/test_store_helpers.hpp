// Shared fixture for tests that supervise a run into a trace store and read
// it back: Supervisor::run_into_store needs an existing store, and the
// store is the only place a supervised run commits to.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "events/event_sink.hpp"
#include "store/trace_store.hpp"

namespace mtd::test {

/// A fresh, empty trace store in the test temp directory, named after the
/// running test (ctest runs every test as its own process, in parallel)
/// and `tag`. Leftover files are removed before the store is created, and
/// both files again on destruction.
class ScratchStore {
 public:
  explicit ScratchStore(const std::string& tag = "") {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/mtd_" + info->test_suite_name() + "_" +
            info->name() + tag + ".store";
    remove_files();
    store::TraceStoreWriter::create(path_).close();
  }
  ~ScratchStore() { remove_files(); }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Events the store has committed, as its manifest records them.
  [[nodiscard]] std::uint64_t committed_events() const {
    return store::TraceStore(path_).manifest().events;
  }

  /// Replays every committed event into `sink` in key order, (BS, day,
  /// minute, seq) — each BS's events in generation order. Returns the
  /// number replayed.
  std::uint64_t replay(EventSink& sink) const {
    return store::TraceStore(path_).replay(sink);
  }

 private:
  void remove_files() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".pages").c_str());
  }

  std::string path_;
};

}  // namespace mtd::test
