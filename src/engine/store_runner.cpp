#include "engine/store_runner.hpp"

#include <exception>
#include <string>

#include "common/error.hpp"

namespace mtd {

EngineResult run_engine_into_store(StreamEngine& engine,
                                   store::TraceStoreWriter& writer,
                                   const StoreRunPolicy& policy) {
  // The store's own checkpoint is the one resume point: a store the runner
  // never committed starts at day 0, any other resumes exactly where its
  // last commit stopped (and StreamEngine::resume rejects one written
  // under another seed, horizon or network).
  const std::optional<EngineCheckpoint> stored =
      load_store_checkpoint(writer.manifest());
  // Day the last compaction pass covered: compaction triggers once
  // compact_every_days NEW days landed since (resumes start counting from
  // the store's checkpoint, not from zero).
  std::size_t compacted_through = stored ? stored->next_day() : 0;
  // Every checkpoint is an exact cut at the sink, so the writer's pending
  // events are exactly the interval the checkpoint closes: data and
  // checkpoint publish in one commit. The hook only seals it; the commit
  // thread syncs it while the consumer ingests the next interval.
  store::TraceStoreWriter::BackgroundCommits commits(writer);
  const auto publish = [&](const EngineCheckpoint& checkpoint) {
    writer.set_engine_checkpoint(checkpoint.to_json().dump(2));
    commits.commit();
    if (policy.compact_every_days == 0 ||
        checkpoint.next_day() <
            compacted_through + policy.compact_every_days) {
      return;
    }
    commits.wait();
    if (writer.manifest().segments.size() > 1) (void)writer.compact();
    compacted_through = checkpoint.next_day();
  };
  engine.on_checkpoint(publish);
  EngineResult result;
  try {
    result = stored ? engine.resume(*stored, writer) : engine.run(writer);
  } catch (...) {
    // The commit in flight lands or fails before the error leaves, and
    // its own failure outranks a retryable engine error.
    std::exception_ptr error = std::current_exception();
    try {
      commits.wait();
    } catch (...) {
      error = graver_error(error, std::current_exception());
    }
    std::rethrow_exception(error);
  }
  // A zero-day run fires no checkpoint callback; publish the final
  // checkpoint either way (a no-op commit when the last checkpoint already
  // did).
  publish(result.checkpoint);
  commits.wait();
  return result;
}

std::optional<EngineCheckpoint> load_store_checkpoint(
    const store::StoreManifest& manifest) {
  const std::string& blob = manifest.engine_checkpoint;
  if (blob.empty()) return std::nullopt;
  try {
    return EngineCheckpoint::from_json(Json::parse(blob));
  } catch (const ParseError& e) {
    // A torn or foreign blob must name its provenance: the raw parser
    // error has the byte offset but not what was being parsed.
    throw ParseError(
        "load_store_checkpoint: invalid engine_checkpoint blob (" +
        std::to_string(blob.size()) + " bytes) in the store manifest: " +
        e.what());
  }
}

}  // namespace mtd
