#include "fsim/jsim.hpp"

#include <stdexcept>

namespace backlog::fsim {

JournalingFileSystem::JournalingFileSystem(storage::Env& env, JsimOptions options,
                                           core::BacklogOptions backlog_options)
    : env_(env), options_(options), backlog_options_(backlog_options) {
  db_ = std::make_unique<core::BacklogDb>(env_, backlog_options_);
}

core::BackrefKey JournalingFileSystem::make_key(core::BlockNo b, InodeNo inode,
                                                std::uint64_t offset) const {
  core::BackrefKey key;
  key.block = b;
  key.inode = inode;
  key.offset = offset;
  key.length = 1;
  key.line = 0;  // update-in-place: a single, always-live line
  return key;
}

void JournalingFileSystem::add_ref(core::BlockNo b, InodeNo inode,
                                   std::uint64_t offset) {
  const core::BackrefKey key = make_key(b, inode, offset);
  db_->add_reference(key);
  journal_.push_back({true, key});
  ++backref_ops_;
}

void JournalingFileSystem::remove_ref(core::BlockNo b, InodeNo inode,
                                      std::uint64_t offset) {
  const core::BackrefKey key = make_key(b, inode, offset);
  db_->remove_reference(key);
  journal_.push_back({false, key});
  ++backref_ops_;
}

InodeNo JournalingFileSystem::create_file(std::uint64_t num_blocks) {
  const InodeNo inode = next_inode_++;
  std::vector<core::BlockNo>& blocks = files_[inode];
  blocks.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    core::BlockNo b;
    if (!free_list_.empty()) {
      b = free_list_.back();
      free_list_.pop_back();
    } else {
      b = next_block_++;
    }
    blocks.push_back(b);
    add_ref(b, inode, i);
    ++block_writes_;
  }
  return inode;
}

void JournalingFileSystem::write_file(InodeNo inode, std::uint64_t offset,
                                      std::uint64_t count) {
  auto it = files_.find(inode);
  if (it == files_.end()) throw std::invalid_argument("jsim: no such file");
  std::vector<core::BlockNo>& blocks = it->second;
  for (std::uint64_t i = offset; i < offset + count; ++i) {
    if (i < blocks.size()) {
      // In-place overwrite: the block stays where it is. No journal entry,
      // no back-reference change — the defining difference from
      // write-anywhere semantics.
      ++block_writes_;
      continue;
    }
    core::BlockNo b;
    if (!free_list_.empty()) {
      b = free_list_.back();
      free_list_.pop_back();
    } else {
      b = next_block_++;
    }
    blocks.push_back(b);
    add_ref(b, inode, i);
    ++block_writes_;
  }
}

void JournalingFileSystem::truncate_file(InodeNo inode, std::uint64_t new_blocks) {
  auto it = files_.find(inode);
  if (it == files_.end()) throw std::invalid_argument("jsim: no such file");
  std::vector<core::BlockNo>& blocks = it->second;
  while (blocks.size() > new_blocks) {
    const core::BlockNo b = blocks.back();
    remove_ref(b, inode, blocks.size() - 1);
    free_list_.push_back(b);
    blocks.pop_back();
  }
}

void JournalingFileSystem::delete_file(InodeNo inode) {
  truncate_file(inode, 0);
  files_.erase(inode);
}

SinkCpStats JournalingFileSystem::checkpoint() {
  const core::CpFlushStats s = db_->consistency_point();
  journal_.clear();
  return {s.cp, s.block_ops, s.pages_written, s.wall_micros};
}

void JournalingFileSystem::recover_after_crash() {
  // The in-memory write store dies with the crash; the on-disk state is the
  // last checkpoint. Re-open and redo the journal (§5.4) — through the
  // batched update path: the journal is validated history, so replaying it
  // as one apply_many call appends it to the write store's log in one go
  // instead of paying the per-op callback overhead entry by entry.
  db_.reset();
  db_ = std::make_unique<core::BacklogDb>(env_, backlog_options_);
  std::vector<core::Update> redo;
  redo.reserve(journal_.size());
  for (const JournalOp& op : journal_) {
    redo.push_back({op.add ? core::Update::Kind::kAdd
                           : core::Update::Kind::kRemove,
                    op.key});
  }
  db_->apply_many(redo);
}

std::map<core::BlockNo, std::pair<InodeNo, std::uint64_t>>
JournalingFileSystem::live_pointers() const {
  std::map<core::BlockNo, std::pair<InodeNo, std::uint64_t>> out;
  for (const auto& [inode, blocks] : files_) {
    for (std::uint64_t off = 0; off < blocks.size(); ++off) {
      out[blocks[off]] = {inode, off};
    }
  }
  return out;
}

}  // namespace backlog::fsim
