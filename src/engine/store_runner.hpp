// Engine → trace store wiring: stream a replay into a TraceStoreWriter
// with store commits aligned to the engine's checkpoints (day-boundary
// and, when checkpoint_interval_minutes is set, mid-day minute marks).
//
// The engine's on_checkpoint callback, its one commit hook, fires on the
// consumer thread at an exact cut: the writer has received every event
// below the checkpoint's minute and none past it. The writer is therefore
// the engine's sink directly — its pending events are exactly what the
// checkpoint covers — and each hook commits them together with the full
// checkpoint JSON in one manifest record. The hook only seals that commit
// (builds its page image; the pending buffers take the next interval at
// once); one commit thread, living for the whole call
// (TraceStoreWriter::BackgroundCommits), appends and fdatasyncs the pages
// and the record while the consumer ingests the next interval. At most one
// commit is in flight: the next hook, a compaction, the final publish and
// every exit path wait for it first, so checkpoint k is durable once hook
// k+1 or the call returns, and no commit is in flight once the call
// returns or throws. A failed background commit surfaces from the call
// with the exception a synchronous commit would raise; when the engine
// failed too, the non-retryable of the two wins (graver_error).
//
// That embedded checkpoint is the store's one resume point:
// run_engine_into_store starts at day 0 on a store that has none and
// otherwise resumes from it, so data and resume point can never drift
// apart — they publish together or not at all, and no caller supplies a
// point of its own. Recovering from a crash
// is reopening the store and calling run_engine_into_store again. When a
// run fails, the writer still holds the uncommitted tail past the last
// checkpoint: drop the writer (or reopen the store) rather than close()
// it, or that tail would be committed under the old checkpoint and
// ingested twice by the resume.
//
// Memory: the writer buffers every event of the interval a checkpoint
// closes, about 118 B of RAM per event, until that checkpoint seals it,
// plus the page image of the commit in flight (about 40 B per event).
// At the default checkpoint_interval_minutes = 0 the checkpoints are day
// boundaries, so the writer holds a whole simulated day — about 4.8 GB at
// 2,000 BSs (40M events); an hourly interval cut the same run to about
// 0.4 GB. This is the memory bound of every supervised run
// (Supervisor::run_into_store), the only supervised path.
#pragma once

#include <optional>

#include "engine/engine.hpp"
#include "store/trace_store.hpp"

namespace mtd {

/// Background maintenance policy of run_engine_into_store.
struct StoreRunPolicy {
  /// Compact the store after every N newly committed days (0 = never).
  /// Long runs commit one segment per checkpoint; periodic compaction
  /// folds them into one so scans descend a single fence tree instead of
  /// merging dozens. Compaction runs between checkpoints on the committed
  /// snapshot — a crash mid-compact costs nothing (the previous manifest
  /// stays live) and resume semantics are unchanged.
  std::size_t compact_every_days = 0;
};

/// Streams `engine` into `writer`, committing one store segment per
/// checkpoint (plus a final commit). Starts at day 0 when the store's
/// manifest carries no engine checkpoint and resumes from that checkpoint
/// otherwise (a no-op on a complete store). Throws InvalidArgument when
/// the stored checkpoint does not match the engine's seed, horizon, rate
/// scaling or network (see StreamEngine::resume). The writer is left open;
/// the caller closes it. Returns the engine result as StreamEngine::run
/// does.
[[nodiscard]] EngineResult run_engine_into_store(
    StreamEngine& engine, store::TraceStoreWriter& writer,
    const StoreRunPolicy& policy = {});

/// Extracts the engine checkpoint a store-runner commit embedded in the
/// manifest (std::nullopt when the store has never been committed through
/// run_engine_into_store). This is the only checkpoint decoder: a blob
/// that is present but corrupt or not a checkpoint raises ParseError
/// naming the blob, its length and — for malformed JSON — the parser's
/// byte offset.
[[nodiscard]] std::optional<EngineCheckpoint> load_store_checkpoint(
    const store::StoreManifest& manifest);

}  // namespace mtd
