// Fixture mini-tree (project_ok): commit paths following the protocol —
// writes, then flush, then atomic manifest replace; or page append, then
// page sync, then manifest-log append — with every fault_fire immediately
// adjacent to the I/O it guards. Never compiled.
#include "common/base.hpp"

namespace fx {

void Writer::commit() {
  fault_fire(fault_, "store.commit.pages");
  file_.write(buf_.data(), buf_.size());
  fault_fire(fault_, "store.commit.sync");
  file_.flush();
  fault_fire(fault_, "store.commit.manifest");
  write_file_atomic(manifest_path_, manifest_text_);
}

void Writer::compact() {
  fault_fire(fault_, "store.compact.pages");
  file_.write(merged_.data(), merged_.size());
  fault_fire(fault_, "store.compact.sync");
  file_.flush();
  fault_fire(fault_, "store.compact.manifest");
  write_file_atomic(manifest_path_, next_manifest_text_);
}

void Writer::commit_appended() {
  fault_fire(fault_, "store.commit.pages");
  pages_.append(buf_);
  fault_fire(fault_, "store.commit.sync");
  pages_.sync();
  fault_fire(fault_, "store.commit.manifest");
  append_manifest(next_manifest_);
}

void Writer::append_manifest(const Manifest& next) {
  log_.append(encode_manifest_record(next.text()));
  log_.sync();
}

}  // namespace fx
