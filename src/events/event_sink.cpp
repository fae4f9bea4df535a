#include "events/event_sink.hpp"

#include <algorithm>
#include <fstream>
#include <string_view>

#include "common/error.hpp"
#include "common/fmt.hpp"
#include "events/event_codec.hpp"
#include "io/json.hpp"

namespace mtd {

const char* to_string(SinkErrorPolicy p) noexcept {
  switch (p) {
    case SinkErrorPolicy::kFailFast: return "fail_fast";
    case SinkErrorPolicy::kDegrade: return "degrade";
  }
  return "?";
}

namespace {

[[noreturn]] void reject_event(const EventKey& key, const std::string& why) {
  throw InvalidArgument("TraceSinkAdapter: event (bs " +
                        std::to_string(key.bs) + ", day " +
                        std::to_string(key.day) + ", minute " +
                        std::to_string(key.minute_of_day) + ", seq " +
                        std::to_string(key.seq) + "): " + why);
}

}  // namespace

void TraceSinkAdapter::on_event(const StreamEvent& event) {
  const EventKind kind = event.kind();
  // TraceSink predates the segment and packet kinds.
  if (kind != EventKind::kMinute && kind != EventKind::kSession) return;
  // The TraceSinks index the network by BS and the catalogue by service
  // unchecked, and a decoded stream may come from another network or a
  // corrupt record, so both are checked here, where stream input enters.
  const auto check_bs = [&](std::uint32_t bs) {
    if (bs >= network_->size()) {
      reject_event(event.key, "BS " + std::to_string(bs) + " outside the " +
                                  std::to_string(network_->size()) +
                                  "-BS network");
    }
  };
  if (kind == EventKind::kMinute) {
    check_bs(event.key.bs);
    sink_->on_minute((*network_)[event.key.bs], event.key.day,
                     event.key.minute_of_day,
                     std::get<MinuteEvent>(event.payload).arrivals);
    return;
  }
  const Session& session = std::get<SessionEvent>(event.payload).session;
  check_bs(session.bs);
  if (session.service >= service_catalog().size()) {
    reject_event(event.key, "service " + std::to_string(session.service) +
                                " outside the catalogue");
  }
  sink_->on_session(session);
}

SessionCsvEventSink::SessionCsvEventSink(const Network& network,
                                         const std::string& path)
    : writer_(path), adapter_(network, writer_) {}

// ---------------------------------------------------------------------------
// ndjson

NdjsonEventWriter::NdjsonEventWriter(const std::string& path)
    : file_("NdjsonEventWriter", path, "events") {}

void NdjsonEventWriter::on_event(const StreamEvent& event) {
  // Serialized by hand into the reusable buffer: no JsonObject (a std::map
  // allocating one node per field) and no dump string per event. Keys are
  // emitted in the alphabetical order the map-based serializer produced,
  // and every numeric field goes through the same double cast and
  // Json-number encoding, so the output is byte-identical to the old path.
  std::string& buf = file_.buf();
  const auto num = [&buf](const char* key, double v) {
    buf += ",\"";
    buf += key;
    buf += "\":";
    append_json_number(buf, v);
  };
  const auto text = [&buf](const char* key, const char* v) {
    buf += ",\"";
    buf += key;
    buf += "\":\"";
    buf += v;  // fixed enum tokens: nothing to escape
    buf += '"';
  };
  const auto flag = [&buf](const char* key, bool v) {
    buf += ",\"";
    buf += key;
    buf += "\":";
    buf += v ? "true" : "false";
  };
  const EventKey& k = event.key;
  switch (event.kind()) {
    case EventKind::kMinute: {
      buf += "{\"arrivals\":";
      append_json_number(
          buf,
          static_cast<double>(std::get<MinuteEvent>(event.payload).arrivals));
      num("bs", static_cast<double>(k.bs));
      num("day", static_cast<double>(k.day));
      text("kind", "minute");
      num("minute", static_cast<double>(k.minute_of_day));
      num("seq", static_cast<double>(k.seq));
      break;
    }
    case EventKind::kSession: {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      buf += "{\"bs\":";
      append_json_number(buf, static_cast<double>(k.bs));
      num("day", static_cast<double>(k.day));
      num("duration_s", s.duration_s);
      text("kind", "session");
      num("minute", static_cast<double>(k.minute_of_day));
      num("seq", static_cast<double>(k.seq));
      num("service", static_cast<double>(s.service));
      flag("transient", s.transient);
      num("volume_mb", s.volume_mb);
      break;
    }
    case EventKind::kSegment: {
      const SegmentEvent& e = std::get<SegmentEvent>(event.payload);
      buf += "{\"bs\":";
      append_json_number(buf, static_cast<double>(k.bs));
      num("day", static_cast<double>(k.day));
      num("duration_s", e.segment.duration_s);
      flag("first", e.segment.first);
      num("hop", static_cast<double>(e.segment.hop));
      text("kind", "segment");
      flag("last", e.segment.last);
      num("minute", static_cast<double>(k.minute_of_day));
      num("seq", static_cast<double>(k.seq));
      num("service", static_cast<double>(e.service));
      num("session_seq", static_cast<double>(e.session_seq));
      text("state", to_string(e.state));
      num("volume_mb", e.segment.volume_mb);
      break;
    }
    case EventKind::kPacket: {
      const PacketEvent& e = std::get<PacketEvent>(event.payload);
      buf += "{\"bs\":";
      append_json_number(buf, static_cast<double>(k.bs));
      num("day", static_cast<double>(k.day));
      text("kind", "packet");
      num("minute", static_cast<double>(k.minute_of_day));
      num("seq", static_cast<double>(k.seq));
      num("service", static_cast<double>(e.service));
      num("session_seq", static_cast<double>(e.session_seq));
      num("size_bytes", static_cast<double>(e.packet.size_bytes));
      num("time_s", e.packet.time_s);
      break;
    }
  }
  buf += "}\n";
  file_.end_record();
}

// ---------------------------------------------------------------------------
// length-prefixed binary

BinaryEventWriter::BinaryEventWriter(const std::string& path)
    : file_("BinaryEventWriter", path, "events") {
  file_.buf().append(kMagic, sizeof(kMagic));
}

void BinaryEventWriter::on_event(const StreamEvent& event) {
  // Frame = u32 payload length + payload, serialized into a stack scratch
  // with bulk little-endian stores, then appended to the pending buffer in
  // one copy — no per-event frame string and no per-event stream writes.
  char scratch[4 + kMaxEventPayloadBytes];
  const std::size_t len = encode_event_payload(event, scratch + 4);
  (void)store_le(scratch, static_cast<std::uint32_t>(len));
  file_.buf().append(scratch, 4 + len);
  file_.end_record();
}

std::uint64_t read_binary_events(const std::string& path, EventSink& sink) {
  // Bytes pulled from the file per refill (at least).
  constexpr std::size_t kRefillBytes = 1 << 16;
  const std::string context = "binary event log '" + path + "'";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("read_binary_events: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  std::string buf;          // refill window
  std::uint64_t base = 0;   // file offset of buf[0]
  std::size_t pos = 0;      // next unconsumed byte within buf
  const auto remaining = [&] { return file_size - base - pos; };
  // Buffers the next `n` bytes, which the caller has checked the file holds.
  const auto ensure = [&](std::size_t n) {
    if (buf.size() - pos >= n) return;
    buf.erase(0, pos);
    base += pos;
    pos = 0;
    const std::size_t old = buf.size();
    buf.resize(old + std::max(kRefillBytes, n - old));
    in.read(buf.data() + old, static_cast<std::streamsize>(buf.size() - old));
    buf.resize(old + static_cast<std::size_t>(in.gcount()));
    if (buf.size() < n) {  // the file shrank under us
      throw ParseError(context + ": truncated at byte " +
                       std::to_string(base + buf.size()));
    }
  };

  constexpr std::size_t kMagicLen = sizeof(BinaryEventWriter::kMagic);
  if (file_size >= kMagicLen) ensure(kMagicLen);
  if (file_size < kMagicLen ||
      buf.compare(0, kMagicLen, BinaryEventWriter::kMagic, kMagicLen) != 0) {
    throw ParseError(context + ": missing or bad magic header");
  }
  pos = kMagicLen;
  std::uint64_t delivered = 0;
  while (remaining() > 0) {
    const std::uint64_t frame_start = base + pos;
    if (remaining() < 4) {
      throw ParseError(context + ": truncated record length at byte " +
                       std::to_string(frame_start));
    }
    ensure(4);
    const std::uint32_t len =
        ByteCursor(std::string_view(buf).substr(pos, 4), frame_start, context)
            .u32("record length");
    pos += 4;
    if (remaining() < len) {
      throw ParseError(context + ": record at byte " +
                       std::to_string(frame_start) + " claims " +
                       std::to_string(len) + " bytes but only " +
                       std::to_string(remaining()) + " remain");
    }
    ensure(len);
    sink.on_event(decode_event_payload(
        ByteCursor(std::string_view(buf).substr(pos, len), base + pos,
                   context)));
    pos += len;
    ++delivered;
  }
  return delivered;
}

// ---------------------------------------------------------------------------
// combinators

FanOutSink::FanOutSink(std::vector<EventSink*> branches,
                       SinkErrorPolicy policy)
    : branches_(std::move(branches)),
      policy_(policy),
      errors_(branches_.size(), 0),
      last_errors_(branches_.size()) {}

void FanOutSink::on_event(const StreamEvent& event) {
  for (std::size_t i = 0; i < branches_.size(); ++i) {
    if (policy_ == SinkErrorPolicy::kFailFast) {
      branches_[i]->on_event(event);
      continue;
    }
    try {
      branches_[i]->on_event(event);
    } catch (const std::exception& e) {
      ++errors_[i];
      last_errors_[i] = e.what();
    } catch (...) {
      ++errors_[i];
      last_errors_[i] = "unknown exception";
    }
  }
}

void FanOutSink::close() {
  std::exception_ptr first;
  for (EventSink* branch : branches_) {
    try {
      branch->close();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace mtd
