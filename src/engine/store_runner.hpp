// Engine → trace store wiring: stream a replay into a TraceStoreWriter
// with store commits aligned to the engine's checkpoints (day-boundary
// and, when checkpoint_interval_minutes is set, mid-day minute marks).
//
// The engine's on_checkpoint callback, its one commit hook, fires on the
// consumer thread at an exact cut: the writer has received every event
// below the checkpoint's minute and none past it. The writer is therefore
// the engine's sink directly — its pending events are exactly what the
// checkpoint covers — and each hook commits them, the day cursor AND the
// full checkpoint JSON into the manifest in one atomic manifest replace.
// After a crash the store alone carries everything a resume needs — data,
// cursor and checkpoint can never drift apart, because they publish
// together or not at all. When a run fails, the writer still holds the
// uncommitted tail past the last checkpoint: drop the writer (or reopen
// the store) rather than close() it, or that tail would be committed
// under the old cursor and ingested twice by the resume.
#pragma once

#include <optional>

#include "engine/engine.hpp"
#include "store/trace_store.hpp"

namespace mtd {

/// Background maintenance policy of the store runners.
struct StoreRunPolicy {
  /// Compact the store after every N newly committed days (0 = never).
  /// Long runs commit one segment per checkpoint; periodic compaction
  /// folds them into one so scans descend a single fence tree instead of
  /// merging dozens. Compaction runs between checkpoints on the committed
  /// snapshot — a crash mid-compact costs nothing (the previous manifest
  /// stays live) and resume semantics are unchanged.
  std::size_t compact_every_days = 0;
};

/// Runs `engine` from day 0 into `writer`, committing one store segment
/// per checkpoint (plus a final commit). The writer is left open; the
/// caller closes it. Returns the engine result as StreamEngine::run does.
[[nodiscard]] EngineResult run_engine_into_store(
    StreamEngine& engine, store::TraceStoreWriter& writer,
    const StoreRunPolicy& policy = {});

/// Resumes `engine` from `from` into `writer`, with the same per-
/// checkpoint commit wiring. Throws InvalidArgument when the store's
/// recorded engine cursor (day, and minute when the manifest carries a
/// checkpoint) does not match `from` — a mismatched pair would duplicate
/// or skip events in the store.
[[nodiscard]] EngineResult resume_engine_into_store(
    StreamEngine& engine, const EngineCheckpoint& from,
    store::TraceStoreWriter& writer, const StoreRunPolicy& policy = {});

/// Extracts the engine checkpoint a store-runner commit embedded in the
/// manifest (std::nullopt when the store has never been committed through
/// these runners). ParseError when the blob is present but corrupt.
[[nodiscard]] std::optional<EngineCheckpoint> load_store_checkpoint(
    const store::StoreManifest& manifest);

}  // namespace mtd
