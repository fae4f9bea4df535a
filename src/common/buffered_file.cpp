#include "common/buffered_file.hpp"

#include <fstream>
#include <iostream>
#include <utility>

#include "common/error.hpp"

namespace mtd {

BufferedFileWriter::BufferedFileWriter(const char* owner, std::string path,
                                       const char* unit)
    : owner_(owner),
      path_(std::move(path)),
      unit_(unit),
      out_(std::make_unique<std::ofstream>(
          path_, std::ios::binary | std::ios::trunc)) {
  if (!*out_) throw Error(std::string(owner_) + ": cannot open " + path_);
  // Slack for the record that crosses the flush threshold.
  buf_.reserve(kFlushBytes + 1024);
}

BufferedFileWriter::~BufferedFileWriter() {
  try {
    close();
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
  }
}

bool BufferedFileWriter::failed() const noexcept { return out_->fail(); }

void BufferedFileWriter::flush_buf() {
  if (buf_.empty()) return;
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void BufferedFileWriter::close() {
  if (!out_->is_open()) return;
  flush_buf();
  out_->flush();
  bool failed = out_->fail();
  out_->close();
  failed = failed || out_->fail();
  if (failed) {
    throw Error(std::string(owner_) + ": write failure on " + path_ +
                " after " + std::to_string(records_) + " " + unit_ +
                " (disk full or I/O error); output is incomplete");
  }
}

}  // namespace mtd
