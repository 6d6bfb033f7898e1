// jsim — an update-in-place journaling file system over Backlog (§8).
//
// The paper closes with: "we are currently experimenting with using Backlog
// in an update-in-place journaling file system." This module demonstrates
// that portability claim. The semantics differ from fsim in exactly the way
// that matters for back references:
//
//   * overwrites happen **in place**: the physical block does not move, so
//     no back-reference operations are generated at all — only allocations
//     (create/extend) and deallocations (truncate/delete) touch the
//     database. Overwrite-heavy workloads therefore generate far fewer
//     back-reference ops than on a write-anywhere system;
//   * there are no snapshots or clones (a single line, 0, always live);
//   * durability comes from a redo journal: operations since the last
//     checkpoint are logged, and recovery replays them to rebuild the
//     Backlog write store (§5.4's journal-replay path, exercised for real).
//
// Backlog needs no changes to support this — the point of the exercise.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/backlog_db.hpp"
#include "fsim/backref_sink.hpp"
#include "fsim/fsim.hpp"
#include "storage/env.hpp"

namespace backlog::fsim {

struct JsimOptions {
  std::uint64_t ops_per_cp = 4096;  ///< checkpoint cadence in journal entries
};

class JournalingFileSystem {
 public:
  JournalingFileSystem(storage::Env& env, JsimOptions options = {},
                       core::BacklogOptions backlog_options = {});

  JournalingFileSystem(const JournalingFileSystem&) = delete;
  JournalingFileSystem& operator=(const JournalingFileSystem&) = delete;

  // --- namespace ops ---------------------------------------------------------

  InodeNo create_file(std::uint64_t num_blocks);

  /// In-place (re)write: blocks inside the file do NOT move and generate no
  /// back-reference traffic; blocks past EOF are allocated.
  void write_file(InodeNo inode, std::uint64_t offset, std::uint64_t count);

  void truncate_file(InodeNo inode, std::uint64_t new_blocks);
  void delete_file(InodeNo inode);

  [[nodiscard]] bool file_exists(InodeNo inode) const {
    return files_.contains(inode);
  }
  [[nodiscard]] std::uint64_t file_size_blocks(InodeNo inode) const {
    return files_.at(inode).size();
  }

  // --- checkpoints & recovery --------------------------------------------------

  /// Commit: flush the Backlog write store and truncate the journal.
  SinkCpStats checkpoint();

  /// Crash simulation: discard the in-memory Backlog state (the WS vanished
  /// with the crash) and replay the journal into a freshly opened database,
  /// as a real journaling file system would at mount time.
  void recover_after_crash();

  [[nodiscard]] core::BacklogDb& db() { return *db_; }
  [[nodiscard]] std::uint64_t backref_ops() const { return backref_ops_; }
  [[nodiscard]] std::uint64_t block_writes() const { return block_writes_; }
  [[nodiscard]] std::uint64_t max_block() const { return next_block_; }

  /// Ground truth for verification: every (block -> inode, offset) pointer.
  [[nodiscard]] std::map<core::BlockNo, std::pair<InodeNo, std::uint64_t>>
  live_pointers() const;

 private:
  core::BackrefKey make_key(core::BlockNo b, InodeNo inode,
                            std::uint64_t offset) const;
  void add_ref(core::BlockNo b, InodeNo inode, std::uint64_t offset);
  void remove_ref(core::BlockNo b, InodeNo inode, std::uint64_t offset);

  storage::Env& env_;
  JsimOptions options_;
  core::BacklogOptions backlog_options_;
  std::unique_ptr<core::BacklogDb> db_;

  std::map<InodeNo, std::vector<core::BlockNo>> files_;
  std::vector<core::BlockNo> free_list_;
  core::BlockNo next_block_ = 1;
  InodeNo next_inode_ = 2;
  std::deque<JournalOp> journal_;
  std::uint64_t backref_ops_ = 0;  ///< ops that reached the database
  std::uint64_t block_writes_ = 0; ///< all data-block writes incl. in-place
};

}  // namespace backlog::fsim
