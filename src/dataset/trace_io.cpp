#include "dataset/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/fmt.hpp"
#include "common/time_utils.hpp"

namespace mtd {

SessionCsvWriter::SessionCsvWriter(const std::string& path)
    : file_("SessionCsvWriter", path, "sessions") {
  file_.buf() += "bs,service,day,minute_of_day,volume_mb,duration_s\n";
}

void SessionCsvWriter::on_session(const Session& session) {
  const std::string& name = service_catalog()[session.service].name;
  const bool quote = name.find(',') != std::string::npos;
  // Rows are formatted with std::to_chars into the reusable buffer; the
  // doubles use %g/precision-6 semantics, byte-identical to the ostream
  // formatting this path used before.
  std::string& buf = file_.buf();
  append_uint(buf, session.bs);
  buf += ',';
  if (quote) {
    buf += '"';
    buf += name;
    buf += '"';
  } else {
    buf += name;
  }
  buf += ',';
  append_uint(buf, session.day);
  buf += ',';
  append_uint(buf, session.minute_of_day);
  buf += ',';
  append_double_g6(buf, session.volume_mb);
  buf += ',';
  append_double_g6(buf, session.duration_s);
  buf += '\n';
  file_.end_record();
}

namespace {

/// Splits one CSV line into at most 6 fields; supports quoted fields.
std::vector<std::string> split_csv_line(const std::string& line,
                                        std::size_t line_no) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  if (in_quotes) {
    throw ParseError("trace csv line " + std::to_string(line_no) +
                     ": unterminated quote");
  }
  fields.push_back(std::move(current));
  return fields;
}

double parse_double(const std::string& s, std::size_t line_no) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("trace csv line " + std::to_string(line_no) +
                     ": bad number '" + s + "'");
  }
  return value;
}

std::uint64_t parse_uint(const std::string& s, std::size_t line_no) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("trace csv line " + std::to_string(line_no) +
                     ": bad integer '" + s + "'");
  }
  return value;
}

}  // namespace

std::uint64_t replay_csv_trace(const std::string& path,
                               const Network& network, TraceSink& sink) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("replay_csv_trace: cannot open " + path);

  std::string line;
  if (!std::getline(in, line)) {
    throw ParseError("replay_csv_trace: empty file");
  }
  if (line.find("bs,service,day") != 0) {
    throw ParseError("replay_csv_trace: unexpected header '" + line + "'");
  }

  // Group sessions per (bs, day) so arrival counts can be reconstructed.
  std::map<std::pair<std::uint32_t, std::uint16_t>, std::vector<Session>>
      cells;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line, line_no);
    if (fields.size() != 6) {
      throw ParseError("trace csv line " + std::to_string(line_no) +
                       ": expected 6 fields, got " +
                       std::to_string(fields.size()));
    }
    Session session;
    const std::uint64_t bs = parse_uint(fields[0], line_no);
    if (bs >= network.size()) {
      throw ParseError("trace csv line " + std::to_string(line_no) +
                       ": BS id " + fields[0] + " outside the network");
    }
    session.bs = static_cast<std::uint32_t>(bs);
    session.service =
        static_cast<std::uint16_t>(service_index(fields[1]));
    const std::uint64_t day = parse_uint(fields[2], line_no);
    if (day > std::numeric_limits<std::uint16_t>::max()) {
      throw ParseError("trace csv line " + std::to_string(line_no) +
                       ": day " + fields[2] + " out of range");
    }
    session.day = static_cast<std::uint16_t>(day);
    const std::uint64_t minute = parse_uint(fields[3], line_no);
    if (minute >= kMinutesPerDay) {
      throw ParseError("trace csv line " + std::to_string(line_no) +
                       ": minute " + fields[3] + " out of range");
    }
    session.minute_of_day = static_cast<std::uint16_t>(minute);
    session.volume_mb = parse_double(fields[4], line_no);
    session.duration_s = parse_double(fields[5], line_no);
    if (!(std::isfinite(session.volume_mb) && session.volume_mb > 0.0 &&
          std::isfinite(session.duration_s) && session.duration_s > 0.0)) {
      throw ParseError("trace csv line " + std::to_string(line_no) +
                       ": volume and duration must be finite and positive");
    }
    cells[{session.bs, session.day}].push_back(session);
  }

  std::uint64_t replayed = 0;
  for (auto& [key, sessions] : cells) {
    const BaseStation& bs = network[key.first];
    std::array<std::uint32_t, kMinutesPerDay> counts{};
    for (const Session& s : sessions) ++counts[s.minute_of_day];
    // Stable, so rows of one minute keep their file order.
    std::stable_sort(sessions.begin(), sessions.end(),
                     [](const Session& a, const Session& b) {
                       return a.minute_of_day < b.minute_of_day;
                     });
    for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
      sink.on_minute(bs, key.second, m, counts[m]);
    }
    for (const Session& s : sessions) {
      sink.on_session(s);
      ++replayed;
    }
  }
  return replayed;
}

}  // namespace mtd
