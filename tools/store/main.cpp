// mtd_store CLI: inspect and query an on-disk trace store (DESIGN.md
// section 12).
//
// Usage:
//   mtd_store stats   <store>
//   mtd_store get     <store> <bs> <day> <minute> <seq>
//   mtd_store scan    <store> <bs> <day_lo> <day_hi>
//   mtd_store verify  <store>
//   mtd_store compact <store>
//
// Exit codes: 0 success, 1 not found / verification failure, 2 usage or
// I/O error. Unknown subcommands and wrong arities diagnose themselves on
// stderr before the usage text.
#include <charconv>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "engine/store_runner.hpp"
#include "store/trace_store.hpp"

namespace {

using mtd::EventKind;
using mtd::StreamEvent;

void print_usage() {
  std::fputs(
      "usage: mtd_store stats   <store>\n"
      "       mtd_store get     <store> <bs> <day> <minute> <seq>\n"
      "       mtd_store scan    <store> <bs> <day_lo> <day_hi>\n"
      "       mtd_store verify  <store>\n"
      "       mtd_store compact <store>\n"
      "\n"
      "Query and maintenance tool for mtd trace stores (<store> is the\n"
      "manifest path; the page file sits next to it as <store>.pages).\n",
      stderr);
}

std::uint64_t parse_u64(std::string_view arg, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), v);
  if (ec != std::errc{} || ptr != arg.data() + arg.size()) {
    throw mtd::InvalidArgument("mtd_store: bad " + std::string(what) + " '" +
                               std::string(arg) + "'");
  }
  return v;
}

void print_event(const StreamEvent& event) {
  std::printf("%s bs=%u day=%u minute=%u seq=%llu",
              to_string(event.kind()), event.key.bs, event.key.day,
              event.key.minute_of_day,
              static_cast<unsigned long long>(event.key.seq));
  switch (event.kind()) {
    case EventKind::kMinute:
      std::printf(" arrivals=%u",
                  std::get<mtd::MinuteEvent>(event.payload).arrivals);
      break;
    case EventKind::kSession: {
      const mtd::Session& s =
          std::get<mtd::SessionEvent>(event.payload).session;
      std::printf(" service=%u transient=%d volume_mb=%.9g duration_s=%.9g",
                  s.service, s.transient ? 1 : 0, s.volume_mb, s.duration_s);
      break;
    }
    case EventKind::kSegment: {
      const mtd::SegmentEvent& e = std::get<mtd::SegmentEvent>(event.payload);
      std::printf(" service=%u session_seq=%llu hop=%u volume_mb=%.9g"
                  " duration_s=%.9g",
                  e.service, static_cast<unsigned long long>(e.session_seq),
                  e.segment.hop, e.segment.volume_mb, e.segment.duration_s);
      break;
    }
    case EventKind::kPacket: {
      const mtd::PacketEvent& e = std::get<mtd::PacketEvent>(event.payload);
      std::printf(" service=%u session_seq=%llu time_s=%.9g size_bytes=%u",
                  e.service, static_cast<unsigned long long>(e.session_seq),
                  e.packet.time_s, e.packet.size_bytes);
      break;
    }
  }
  std::printf("\n");
}

int cmd_stats(const std::string& path) {
  mtd::store::TraceStore reader(path);
  const mtd::store::StoreManifest& m = reader.manifest();
  std::printf("store:           %s\n", path.c_str());
  std::printf("page size:       %zu bytes\n", m.options.page_size);
  std::printf("committed pages: %llu (%llu bytes)\n",
              static_cast<unsigned long long>(m.committed_pages),
              static_cast<unsigned long long>(m.committed_bytes()));
  std::printf("dead pages:      %llu\n",
              static_cast<unsigned long long>(m.dead_pages));
  std::printf("segments:        %zu\n", m.segments.size());
  std::printf("events:          %llu\n",
              static_cast<unsigned long long>(m.events));
  for (std::size_t k = 0; k < mtd::kNumEventKinds; ++k) {
    std::printf("  %-9s      %llu\n", to_string(static_cast<EventKind>(k)),
                static_cast<unsigned long long>(m.events_by_kind[k]));
  }
  if (const std::optional<mtd::EngineCheckpoint> cp =
          mtd::load_store_checkpoint(m)) {
    std::printf("engine cursor:   clock minute %llu, day %zu, %s\n",
                static_cast<unsigned long long>(cp->clock_minute),
                cp->next_day(), cp->complete() ? "complete" : "incomplete");
  } else {
    std::printf("engine cursor:   (not set)\n");
  }
  for (const mtd::store::SegmentInfo& seg : m.segments) {
    const std::uint64_t fence_pages =
        seg.num_pages - seg.num_leaves - seg.num_bloom_pages;
    std::printf(
        "segment @%llu: %llu events, %llu pages (%llu leaves, %llu fence, "
        "%llu bloom), blooms %u B x %u hashes, depth %u, bs %u..%u, "
        "days %u..%u\n",
        static_cast<unsigned long long>(seg.first_page),
        static_cast<unsigned long long>(seg.events),
        static_cast<unsigned long long>(seg.num_pages),
        static_cast<unsigned long long>(seg.num_leaves),
        static_cast<unsigned long long>(fence_pages),
        static_cast<unsigned long long>(seg.num_bloom_pages), seg.bloom_bytes,
        seg.bloom_hashes, seg.depth, seg.min_key.bs, seg.max_key.bs,
        seg.min_key.day, seg.max_key.day);
  }
  return 0;
}

int cmd_compact(const std::string& path) {
  mtd::store::TraceStoreWriter writer =
      mtd::store::TraceStoreWriter::append(path);
  const mtd::store::CompactionReport report = writer.compact();
  writer.close();
  if (report.segments_before < 2) {
    std::printf("mtd_store: nothing to compact (%llu segment(s))\n",
                static_cast<unsigned long long>(report.segments_before));
    return 0;
  }
  std::printf(
      "mtd_store: compacted %llu segment(s) into %llu — %llu events, "
      "%llu pages written, %llu pages retired\n",
      static_cast<unsigned long long>(report.segments_before),
      static_cast<unsigned long long>(report.segments_after),
      static_cast<unsigned long long>(report.events),
      static_cast<unsigned long long>(report.pages_written),
      static_cast<unsigned long long>(report.pages_retired));
  return 0;
}

int cmd_get(const std::string& path, const mtd::EventKey& key) {
  mtd::store::TraceStore reader(path);
  const auto event = reader.get(key);
  if (!event.has_value()) {
    std::fprintf(stderr, "mtd_store: no event with that key\n");
    return 1;
  }
  print_event(*event);
  return 0;
}

int cmd_scan(const std::string& path, std::uint32_t bs, std::uint16_t day_lo,
             std::uint16_t day_hi) {
  mtd::store::TraceStore reader(path);
  const std::uint64_t count = reader.scan(
      bs, day_lo, day_hi, [](const StreamEvent& event) { print_event(event); });
  const mtd::store::StoreReadTelemetry& t = reader.telemetry();
  std::fprintf(stderr,
               "mtd_store: %llu event(s); %llu pages read, %llu leaves "
               "skipped by fences, %llu by blooms\n",
               static_cast<unsigned long long>(count),
               static_cast<unsigned long long>(t.pages_read),
               static_cast<unsigned long long>(t.leaves_skipped_fence),
               static_cast<unsigned long long>(t.leaves_skipped_bloom));
  return 0;
}

int cmd_verify(const std::string& path) {
  mtd::store::TraceStore reader(path);
  const mtd::store::StoreVerifyReport report = reader.verify();
  std::printf(
      "mtd_store: OK — %llu pages (%llu leaves) across %llu segment(s), "
      "%llu events\n",
      static_cast<unsigned long long>(report.pages),
      static_cast<unsigned long long>(report.leaf_pages),
      static_cast<unsigned long long>(report.segments),
      static_cast<unsigned long long>(report.events));
  return 0;
}

/// Arguments each subcommand takes after the subcommand word itself
/// (<store> included). Unknown names return SIZE_MAX.
std::size_t expected_args(std::string_view command) {
  if (command == "stats" || command == "verify" || command == "compact") {
    return 1;
  }
  if (command == "get") return 5;
  if (command == "scan") return 4;
  return static_cast<std::size_t>(-1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string_view command = argv[1];
  // No subcommand takes flags: any dash-prefixed argument (including a
  // dash-prefixed "subcommand" such as --help) is diagnosed by name rather
  // than silently falling through to the usage text.
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "mtd_store: unknown flag '%s'\n", argv[i]);
      print_usage();
      return 2;
    }
  }
  const std::size_t expected = expected_args(command);
  if (expected == static_cast<std::size_t>(-1)) {
    std::fprintf(stderr, "mtd_store: unknown subcommand '%s'\n",
                 std::string(command).c_str());
    print_usage();
    return 2;
  }
  if (static_cast<std::size_t>(argc) != expected + 2) {
    std::fprintf(stderr,
                 "mtd_store: '%s' takes %zu argument(s), got %d\n",
                 std::string(command).c_str(), expected, argc - 2);
    print_usage();
    return 2;
  }
  const std::string path = argv[2];
  try {
    if (command == "stats") return cmd_stats(path);
    if (command == "get") {
      mtd::EventKey key;
      key.bs = static_cast<std::uint32_t>(parse_u64(argv[3], "bs"));
      key.day = static_cast<std::uint16_t>(parse_u64(argv[4], "day"));
      key.minute_of_day =
          static_cast<std::uint16_t>(parse_u64(argv[5], "minute"));
      key.seq = parse_u64(argv[6], "seq");
      return cmd_get(path, key);
    }
    if (command == "scan") {
      return cmd_scan(path,
                      static_cast<std::uint32_t>(parse_u64(argv[3], "bs")),
                      static_cast<std::uint16_t>(parse_u64(argv[4], "day_lo")),
                      static_cast<std::uint16_t>(parse_u64(argv[5], "day_hi")));
    }
    if (command == "verify") return cmd_verify(path);
    if (command == "compact") return cmd_compact(path);
  } catch (const mtd::ParseError& e) {
    // Corruption diagnostics (path + byte offset) are the verify outcome.
    std::fprintf(stderr, "mtd_store: %s\n", e.what());
    return 1;
  } catch (const mtd::Error& e) {
    std::fprintf(stderr, "mtd_store: %s\n", e.what());
    return 2;
  }
  print_usage();
  return 2;
}
