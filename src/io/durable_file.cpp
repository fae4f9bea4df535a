#include "io/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.hpp"

namespace mtd {

namespace {

std::string errno_text() { return std::strerror(errno); }

}  // namespace

DurableFile::DurableFile(std::string path, Mode mode) : path_(std::move(path)) {
  const int flags =
      mode == Mode::kCreate ? O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC
                            : O_RDWR | O_CLOEXEC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw IoError("DurableFile: cannot open '" + path_ + "': " + errno_text());
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const std::string reason = errno_text();
    close();
    throw IoError("DurableFile: cannot stat '" + path_ + "': " + reason);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  synced_ = size_;
}

DurableFile::~DurableFile() { close(); }

DurableFile::DurableFile(DurableFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      synced_(other.synced_) {}

DurableFile& DurableFile::operator=(DurableFile&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    size_ = other.size_;
    synced_ = other.synced_;
  }
  return *this;
}

void DurableFile::append(std::string_view bytes) {
  std::uint64_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                 static_cast<off_t>(size_ + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string reason = n < 0 ? errno_text() : "no progress";
      (void)::ftruncate(fd_, static_cast<off_t>(size_));
      throw IoError("DurableFile: short write to '" + path_ + "' at byte " +
                    std::to_string(size_ + done) + ": " + reason);
    }
    done += static_cast<std::uint64_t>(n);
  }
  size_ += done;
}

void DurableFile::sync() {
  if (::fdatasync(fd_) != 0) {
    throw IoError("DurableFile: fdatasync of '" + path_ + "' failed: " +
                  errno_text());
  }
  synced_ = size_;
}

void DurableFile::truncate(std::uint64_t length) {
  if (length >= size_) return;
  if (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
    throw IoError("DurableFile: cannot truncate '" + path_ + "' to " +
                  std::to_string(length) + " bytes: " + errno_text());
  }
  size_ = length;
  if (synced_ > size_) synced_ = size_;
}

void DurableFile::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void sync_parent_directory(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError("sync_parent_directory: cannot open '" + dir.string() +
                  "': " + errno_text());
  }
  const int rc = ::fsync(fd);
  const std::string reason = rc != 0 ? errno_text() : std::string();
  ::close(fd);
  if (rc != 0) {
    throw IoError("sync_parent_directory: fsync of '" + dir.string() +
                  "' failed: " + reason);
  }
}

}  // namespace mtd
