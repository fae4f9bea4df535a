#include "engine/store_runner.hpp"

#include <string>

#include "common/error.hpp"

namespace mtd {

namespace {

EngineResult run_into_store(StreamEngine& engine,
                            store::TraceStoreWriter& writer,
                            const EngineCheckpoint* from,
                            const StoreRunPolicy& policy) {
  // Day the last compaction pass covered: compaction triggers once
  // compact_every_days NEW days landed since (resumes start counting from
  // the store's cursor, not from zero).
  std::int64_t compacted_through =
      std::max<std::int64_t>(writer.manifest().engine_next_day, 0);
  // Every checkpoint is an exact cut at the sink, so the writer's pending
  // events are exactly the interval the checkpoint closes: data, cursor
  // and checkpoint publish in one commit.
  const auto publish = [&](const EngineCheckpoint& checkpoint) {
    writer.set_engine_cursor(checkpoint.next_day);
    writer.set_engine_checkpoint(checkpoint.to_json().dump(2));
    writer.commit();
    if (policy.compact_every_days == 0 ||
        static_cast<std::int64_t>(checkpoint.next_day) - compacted_through <
            static_cast<std::int64_t>(policy.compact_every_days)) {
      return;
    }
    if (writer.manifest().segments.size() > 1) (void)writer.compact();
    compacted_through = static_cast<std::int64_t>(checkpoint.next_day);
  };
  engine.on_checkpoint(publish);
  EngineResult result =
      from != nullptr ? engine.resume(*from, writer) : engine.run(writer);
  // A zero-day run fires no checkpoint callback; publish the final cursor
  // and checkpoint either way (a no-op commit when the last checkpoint
  // already did).
  publish(result.checkpoint);
  return result;
}

}  // namespace

EngineResult run_engine_into_store(StreamEngine& engine,
                                   store::TraceStoreWriter& writer,
                                   const StoreRunPolicy& policy) {
  const std::int64_t cursor = writer.manifest().engine_next_day;
  if (cursor > 0 || !writer.manifest().engine_checkpoint.empty()) {
    throw InvalidArgument(
        "run_engine_into_store: store already holds days up to " +
        std::to_string(cursor) + "; use resume_engine_into_store");
  }
  return run_into_store(engine, writer, nullptr, policy);
}

EngineResult resume_engine_into_store(StreamEngine& engine,
                                      const EngineCheckpoint& from,
                                      store::TraceStoreWriter& writer,
                                      const StoreRunPolicy& policy) {
  const std::int64_t cursor = writer.manifest().engine_next_day;
  if (cursor < 0 ||
      static_cast<std::size_t>(cursor) != from.next_day) {
    throw InvalidArgument(
        "resume_engine_into_store: store cursor is at day " +
        std::to_string(cursor) + " but the checkpoint resumes from day " +
        std::to_string(from.next_day) +
        " — the store would duplicate or skip days");
  }
  if (const std::optional<EngineCheckpoint> stored =
          load_store_checkpoint(writer.manifest());
      stored && stored->clock_minute != from.clock_minute) {
    throw InvalidArgument(
        "resume_engine_into_store: store committed through minute " +
        std::to_string(stored->clock_minute) +
        " but the checkpoint resumes from minute " +
        std::to_string(from.clock_minute) +
        " — the store would duplicate or skip events");
  }
  return run_into_store(engine, writer, &from, policy);
}

std::optional<EngineCheckpoint> load_store_checkpoint(
    const store::StoreManifest& manifest) {
  if (manifest.engine_checkpoint.empty()) return std::nullopt;
  return EngineCheckpoint::from_json(Json::parse(manifest.engine_checkpoint));
}

}  // namespace mtd
