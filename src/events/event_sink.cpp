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

struct BinaryEventReader::Impl {
  /// Bytes pulled from the file per refill (at least).
  static constexpr std::size_t kRefillBytes = 1 << 16;

  std::ifstream in;
  std::string context;       // "binary event log '<path>'" error prefix
  std::uint64_t file_size = 0;
  std::uint64_t file_pos = 0;  // absolute offset of buf[0]
  std::string buf;             // refill window
  std::size_t buf_pos = 0;     // next unconsumed byte within buf

  /// Bytes of the file not yet consumed (buffered or still on disk).
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return file_size - file_pos - buf_pos;
  }

  /// Ensures at least `n` unconsumed bytes are buffered. Returns false
  /// (rather than throwing) when the file ends first, leaving whatever is
  /// available buffered; callers turn a short tail into their own error.
  [[nodiscard]] bool ensure(std::size_t n) {
    if (buf.size() - buf_pos >= n) return true;
    if (remaining() < n) n = static_cast<std::size_t>(remaining());
    buf.erase(0, buf_pos);
    file_pos += buf_pos;
    buf_pos = 0;
    while (buf.size() < n) {
      const std::size_t want =
          std::max<std::size_t>(kRefillBytes, n - buf.size());
      const std::size_t old = buf.size();
      buf.resize(old + want);
      in.read(buf.data() + old, static_cast<std::streamsize>(want));
      const auto got = static_cast<std::size_t>(in.gcount());
      buf.resize(old + got);
      if (got == 0) break;  // EOF (or error) — remaining() said otherwise
    }
    return buf.size() >= n;
  }
};

BinaryEventReader::BinaryEventReader(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->context = "binary event log '" + path + "'";
  impl_->in.open(path, std::ios::binary);
  if (!impl_->in) throw IoError("BinaryEventReader: cannot open " + path);
  impl_->in.seekg(0, std::ios::end);
  impl_->file_size = static_cast<std::uint64_t>(impl_->in.tellg());
  impl_->in.seekg(0, std::ios::beg);

  constexpr std::size_t kMagicLen = sizeof(BinaryEventWriter::kMagic);
  if (!impl_->ensure(kMagicLen) ||
      impl_->buf.compare(0, kMagicLen, BinaryEventWriter::kMagic,
                         kMagicLen) != 0) {
    throw ParseError(impl_->context + ": missing or bad magic header");
  }
  impl_->buf_pos += kMagicLen;
}

BinaryEventReader::~BinaryEventReader() = default;

bool BinaryEventReader::next(StreamEvent& out) {
  Impl& im = *impl_;
  for (;;) {
    if (im.remaining() == 0) return false;
    const std::uint64_t frame_start = im.file_pos + im.buf_pos;
    if (!im.ensure(4)) {
      throw ParseError(im.context + ": truncated record length at byte " +
                       std::to_string(frame_start));
    }
    ByteCursor framing(
        std::string_view(im.buf).substr(im.buf_pos, 4), frame_start,
        im.context);
    const std::uint32_t len = framing.u32("record length");
    im.buf_pos += 4;
    if (im.remaining() < len) {
      throw ParseError(im.context + ": record at byte " +
                       std::to_string(frame_start) + " claims " +
                       std::to_string(len) + " bytes but only " +
                       std::to_string(im.remaining()) + " remain");
    }
    if (!im.ensure(len)) {  // remaining() lied: the file shrank under us
      throw ParseError(im.context + ": truncated record at byte " +
                       std::to_string(frame_start));
    }
    ByteCursor rec(std::string_view(im.buf).substr(im.buf_pos, len),
                   im.file_pos + im.buf_pos, im.context);
    const bool known = decode_event_payload(rec, out);
    // Advance by the declared length, not by what we parsed: records may
    // grow trailing fields in future versions; unknown kinds are skipped
    // whole.
    im.buf_pos += len;
    if (known) {
      ++delivered_;
      return true;
    }
  }
}

std::uint64_t read_binary_events(const std::string& path, EventSink& sink) {
  BinaryEventReader reader(path);
  StreamEvent event;
  while (reader.next(event)) sink.on_event(event);
  return reader.events_delivered();
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
