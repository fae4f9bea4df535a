// Fixture mini-tree (project_bad): broken commit paths. commit() mutates
// state between a fault_fire and the write it guards; publish() replaces
// the manifest before flushing; the manifest-log paths below it publish
// before syncing their pages. Never compiled.
#include "common/util.hpp"

namespace fx {

void Writer::commit() {
  fault_fire(fault_, "store.commit.pages");
  committed_pages_ += 1;  // line 11: mutation between fire and the write
  file_.write(buf_.data(), buf_.size());
  file_.flush();
  write_file_atomic(manifest_path_, manifest_text_);
}

void Writer::publish() {
  file_.write(buf_.data(), buf_.size());
  write_file_atomic(manifest_path_, manifest_text_);
  file_.flush();  // line 20: durability barrier after the replace
}

// Appends the manifest record before syncing the pages it vouches for.
void Writer::commit_appended() {  // line 24
  fault_fire(fault_, "store.commit.pages");
  pages_.append(buf_);
  append_manifest(next_manifest_);
  fault_fire(fault_, "store.commit.sync");
  pages_.sync();
}

// Never syncs its pages, and mutates state between a fault_fire and the
// manifest append it guards.
void Writer::commit_unsynced() {  // line 34
  pages_.append(buf_);
  fault_fire(fault_, "store.commit.manifest");
  ++commits_;  // line 37: mutation between fire and the append
  append_manifest(next_manifest_);
}

}  // namespace fx
