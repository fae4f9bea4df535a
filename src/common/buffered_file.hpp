// Block-buffered output file: the one write path of the session CSV, NDJSON
// and binary event writers. Records are appended to a pending buffer that
// is handed to the stream in 64 KiB blocks instead of once per record, and
// close() throws when any of those writes failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

namespace mtd {

class BufferedFileWriter {
 public:
  /// Pending bytes are handed to the stream once the buffer holds this many.
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

  /// Opens `path` for writing, truncating it. `owner` names the writer in
  /// every error message and `unit` its records ("sessions", "events");
  /// both are string literals, kept by pointer. Throws Error when the file
  /// cannot be opened.
  BufferedFileWriter(const char* owner, std::string path, const char* unit);
  /// Runs close(). A destructor must not throw, so a failure is reported on
  /// stderr instead; call close() explicitly wherever the output matters.
  ~BufferedFileWriter();

  BufferedFileWriter(const BufferedFileWriter&) = delete;
  BufferedFileWriter& operator=(const BufferedFileWriter&) = delete;

  /// The pending buffer: append one record's bytes, then end_record().
  /// Bytes appended without end_record() (a file header) count as no
  /// record.
  [[nodiscard]] std::string& buf() noexcept { return buf_; }
  /// Counts the record just appended; hands a full buffer to the stream.
  void end_record() {
    ++records_;
    if (buf_.size() >= kFlushBytes) flush_buf();
  }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  /// True once any write on the stream has failed.
  [[nodiscard]] bool failed() const noexcept;

  /// Flushes and closes the file; a second call is a no-op. Throws Error
  /// naming the path and the record count when any buffered write failed
  /// (full disk, revoked path, I/O error): truncated output must not pass
  /// for complete.
  void close();

 private:
  void flush_buf();

  const char* owner_;
  std::string path_;
  const char* unit_;
  std::unique_ptr<std::ofstream> out_;
  std::string buf_;
  std::uint64_t records_ = 0;
};

}  // namespace mtd
