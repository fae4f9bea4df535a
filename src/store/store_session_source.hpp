// SessionSource over a TraceStore: the store-backed half of the streaming
// re-platform (DESIGN.md section 15).
//
// Push-down semantics: a query with `bs` set becomes one
// TraceStore::scan(bs, day_lo, day_hi) — keys lead with the BS, so the
// fences prune every leaf outside the (bs, day-range) key range and the
// pass touches a fraction of the pages (the read telemetry proves it). A
// query without `bs` has no index to narrow by (keys order by BS
// first), so it replays the full store and filters day and kind above the
// decode. Kind filtering is always evaluated client-side: kinds are not
// part of the key.
#pragma once

#include "events/session_source.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

class StoreSessionSource final : public SessionSource {
 public:
  /// Wraps an open store (non-owning). The source reads the committed
  /// snapshot the TraceStore was opened on.
  explicit StoreSessionSource(TraceStore& store) : store_(&store) {}

  std::uint64_t scan(const SourceQuery& query,
                     const std::function<void(const StreamEvent&)>& fn)
      override;

  [[nodiscard]] TraceStore& store() noexcept { return *store_; }

 private:
  TraceStore* store_;
};

}  // namespace mtd::store
