#include <fstream>

#include "common/error.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

namespace {

Json key_to_json(const EventKey& key) {
  JsonObject obj;
  obj.emplace("bs", static_cast<std::size_t>(key.bs));
  obj.emplace("day", static_cast<std::size_t>(key.day));
  obj.emplace("minute", static_cast<std::size_t>(key.minute_of_day));
  obj.emplace("seq", to_hex(key.seq));
  return Json(std::move(obj));
}

EventKey key_from_json(const Json& json, const std::string& what) {
  EventKey key;
  key.bs = json_uint<std::uint32_t>(json.at("bs"), what + ".bs");
  key.day = json_uint<std::uint16_t>(json.at("day"), what + ".day");
  key.minute_of_day =
      json_uint<std::uint16_t>(json.at("minute"), what + ".minute");
  key.seq = from_hex(json.at("seq").as_string(), what);
  return key;
}

Json segment_to_json(const SegmentInfo& seg) {
  JsonObject obj;
  obj.emplace("first_page", to_hex(seg.first_page));
  obj.emplace("num_pages", to_hex(seg.num_pages));
  obj.emplace("first_leaf", to_hex(seg.first_leaf));
  obj.emplace("num_leaves", to_hex(seg.num_leaves));
  obj.emplace("root", to_hex(seg.root));
  obj.emplace("depth", static_cast<std::size_t>(seg.depth));
  obj.emplace("events", to_hex(seg.events));
  obj.emplace("min_key", key_to_json(seg.min_key));
  obj.emplace("max_key", key_to_json(seg.max_key));
  return Json(std::move(obj));
}

SegmentInfo segment_from_json(const Json& json) {
  SegmentInfo seg;
  seg.first_page = from_hex(json.at("first_page").as_string(),
                            "StoreManifest.segment.first_page");
  seg.num_pages = from_hex(json.at("num_pages").as_string(),
                           "StoreManifest.segment.num_pages");
  seg.first_leaf = from_hex(json.at("first_leaf").as_string(),
                            "StoreManifest.segment.first_leaf");
  seg.num_leaves = from_hex(json.at("num_leaves").as_string(),
                            "StoreManifest.segment.num_leaves");
  seg.root = from_hex(json.at("root").as_string(),
                      "StoreManifest.segment.root");
  seg.depth = json_uint<std::uint32_t>(json.at("depth"),
                                      "StoreManifest.segment.depth");
  seg.events = from_hex(json.at("events").as_string(),
                        "StoreManifest.segment.events");
  seg.min_key =
      key_from_json(json.at("min_key"), "StoreManifest.segment.min_key");
  seg.max_key =
      key_from_json(json.at("max_key"), "StoreManifest.segment.max_key");
  return seg;
}

}  // namespace

std::string StoreManifest::to_text() const {
  JsonObject obj;
  obj.emplace("format", kManifestFormat);
  obj.emplace("page_size", options.page_size);
  obj.emplace("committed_pages", to_hex(committed_pages));
  // Written only once a compaction retired pages — pre-compaction
  // manifests carry no dead field and read back as dead_pages == 0.
  if (dead_pages != 0) obj.emplace("dead_pages", to_hex(dead_pages));
  obj.emplace("events", to_hex(events));
  JsonObject by_kind;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    by_kind.emplace(to_string(static_cast<EventKind>(k)),
                    to_hex(events_by_kind[k]));
  }
  obj.emplace("events_by_kind", Json(std::move(by_kind)));
  // Opaque blob, written only when set — older manifests stay readable and
  // stores never touched by the engine runner carry no dead field.
  if (!engine_checkpoint.empty()) {
    obj.emplace("engine_checkpoint", engine_checkpoint);
  }
  JsonArray seg_arr;
  seg_arr.reserve(segments.size());
  for (const SegmentInfo& seg : segments) seg_arr.push_back(segment_to_json(seg));
  obj.emplace("segments", Json(std::move(seg_arr)));
  return Json(std::move(obj)).dump(2);
}

StoreManifest StoreManifest::from_text(std::string_view text) {
  const Json json = Json::parse(text);
  if (!json.contains("format")) {
    throw ParseError("StoreManifest: not a " + std::string(kManifestFormat) +
                     " manifest (no format tag)");
  }
  // Only the current format is read: an older store (such as an
  // mtd-trace-store-v1 one, with its bloom pages) is rebuilt, not migrated.
  const std::string& format = json.at("format").as_string();
  if (format != kManifestFormat) {
    throw ParseError("StoreManifest: a '" + format + "' manifest, but only " +
                     std::string(kManifestFormat) + " is supported");
  }
  StoreManifest manifest;
  manifest.options.page_size =
      json_uint<std::size_t>(json.at("page_size"), "StoreManifest.page_size");
  if (manifest.options.page_size < kMinPageSize) {
    throw ParseError("StoreManifest: page_size " +
                     std::to_string(manifest.options.page_size) +
                     " is below the minimum of " +
                     std::to_string(kMinPageSize));
  }
  manifest.committed_pages = from_hex(json.at("committed_pages").as_string(),
                                      "StoreManifest.committed_pages");
  if (manifest.committed_pages == 0) {
    throw ParseError("StoreManifest: committed_pages must cover the "
                     "superblock (page 0)");
  }
  if (json.contains("dead_pages")) {
    manifest.dead_pages = from_hex(json.at("dead_pages").as_string(),
                                   "StoreManifest.dead_pages");
    if (manifest.dead_pages >= manifest.committed_pages) {
      throw ParseError("StoreManifest: dead_pages " +
                       std::to_string(manifest.dead_pages) +
                       " must stay below the " +
                       std::to_string(manifest.committed_pages) +
                       " committed pages");
    }
  }
  manifest.events =
      from_hex(json.at("events").as_string(), "StoreManifest.events");
  const Json& by_kind = json.at("events_by_kind");
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const char* name = to_string(static_cast<EventKind>(k));
    manifest.events_by_kind[k] =
        from_hex(by_kind.at(name).as_string(), name);
  }
  // Older manifests also carry a day cursor next to the checkpoint; the
  // checkpoint's clock_minute is the one resume point, so it is ignored.
  if (json.contains("engine_checkpoint")) {
    manifest.engine_checkpoint = json.at("engine_checkpoint").as_string();
  }
  for (const Json& seg : json.at("segments").as_array()) {
    manifest.segments.push_back(segment_from_json(seg));
  }
  return manifest;
}

StoreManifest StoreManifest::load(const std::string& path,
                                  std::uint64_t* log_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("StoreManifest: cannot open " + path);
  const ManifestLogTail tail = read_manifest_log(in, path);
  if (log_bytes != nullptr) *log_bytes = tail.valid_bytes;
  try {
    return from_text(tail.last);
  } catch (const ParseError& e) {
    // The raw parser error has the offset inside the record but not the
    // path or where the record starts.
    throw ParseError("StoreManifest: corrupt store manifest '" + path +
                     "' (record at byte " +
                     std::to_string(tail.valid_bytes - tail.last.size() -
                                    kManifestRecordHeaderBytes) +
                     "): " + e.what());
  }
}

}  // namespace mtd::store
