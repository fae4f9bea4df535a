// Append-only file on a raw descriptor, made durable by fdatasync: the one
// write path of the trace store's page file and manifest log, and of
// write_file_atomic. It remembers how many bytes the last sync covered, so
// a caller (or a test modelling a power cut) knows exactly which prefix of
// the file is on stable storage.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mtd {

class DurableFile {
 public:
  enum class Mode {
    kCreate,  ///< create the file, or empty an existing one
    kOpen,    ///< open an existing file; throws IoError when missing
  };

  DurableFile() = default;
  /// Opens `path` for appending. What the file holds when opened counts as
  /// synced: it is the state a previous writer left behind.
  DurableFile(std::string path, Mode mode);
  ~DurableFile();
  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Writes `bytes` at the end of the file. On failure the file is cut
  /// back to its previous length (best effort) and IoError is thrown, so a
  /// retry never appends behind a torn fragment.
  void append(std::string_view bytes);
  /// fdatasync: every byte appended so far is durable once this returns.
  /// Throws IoError on failure.
  void sync();
  /// Cuts the file to `length` bytes (a no-op when it is no longer).
  void truncate(std::uint64_t length);
  /// Closes the descriptor; a second call is a no-op.
  void close() noexcept;

  /// Bytes in the file.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// Bytes the last sync() (or the open) made durable; never above size().
  [[nodiscard]] std::uint64_t synced() const noexcept { return synced_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::uint64_t synced_ = 0;
};

/// fsyncs the directory holding `path`, making a create or rename of
/// `path` durable. Throws IoError on failure.
void sync_parent_directory(const std::string& path);

}  // namespace mtd
