// fsim — the write-anywhere file-system simulator (§5, §6.1).
//
// Mirrors the paper's evaluation vehicle: a simulated WAFL-style file system
// with writable snapshots, clones and deduplication. All file-system
// meta-data lives in main memory; *only the back-reference meta-data* is
// stored on disk (through the attached BackrefSink). Data blocks are never
// materialized — what matters for the experiments is the stream of
// block-reference operations and the consistency-point cadence.
//
// Write-anywhere semantics: every logical overwrite allocates a new physical
// block (or, with probability dedup_fraction, points at an existing block —
// dedup emulation per §6.1), the old block's reference is removed, and the
// old block is freed once no retained image references it.
//
// Consistency points: taken after ops_per_cp block writes or cp_interval
// simulated seconds, whichever comes first (the paper's 32,000-write / 10 s
// WAFL configuration).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/backlog_db.hpp"
#include "core/snapshot_registry.hpp"
#include "fsim/backref_sink.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"

namespace backlog::fsim {

using core::BackrefKey;
using core::BlockNo;
using core::Epoch;
using core::InodeNo;
using core::LineId;

struct FsimOptions {
  /// CP trigger: block writes per consistency point (WAFL: 32,000).
  std::uint64_t ops_per_cp = 32000;
  /// CP trigger: simulated seconds between CPs (WAFL: 10 s).
  double cp_interval_seconds = 10.0;

  /// Deduplication emulation (§6.1): fraction of newly written blocks that
  /// duplicate an existing block, and the skew of which blocks get shared.
  /// alpha ~1.15 with a 10% dup rate yields the paper's observed refcount
  /// distribution (~75-78% of blocks with refcount 1, ~18% with 2, ...).
  double dedup_fraction = 0.10;
  double dedup_zipf_alpha = 1.15;
  std::size_t dedup_pool_size = 4096;

  std::uint64_t rng_seed = 42;
};

/// One file: an array of physical block pointers (index = logical offset in
/// blocks). Immutable once shared with a snapshot image (copy-on-write).
struct FileNode {
  std::vector<BlockNo> blocks;
};

/// A point-in-time file-system tree of one line: inode -> file.
using Image = std::map<InodeNo, std::shared_ptr<const FileNode>>;

/// One logged block-pointer operation (the journal, §5.4): everything since
/// the last CP, used by the crash-recovery path to rebuild the write store.
struct JournalOp {
  bool add = false;
  BackrefKey key;
};

struct FsStats {
  std::uint64_t allocated_blocks = 0;  ///< physical blocks currently in use
  std::uint64_t block_writes = 0;      ///< lifetime pointer-adds
  std::uint64_t block_frees = 0;       ///< lifetime pointer-removes
  std::uint64_t dedup_hits = 0;        ///< writes satisfied by sharing
  std::uint64_t files_live = 0;
  std::uint64_t cps_taken = 0;

  /// Physical data size in bytes (4 KB per allocated block) — denominator
  /// of the paper's space-overhead percentage (Fig. 6/8).
  [[nodiscard]] std::uint64_t data_bytes() const {
    return allocated_blocks * 4096;
  }
};

class FileSystem {
 public:
  /// Backlog-backed file system: owns a BacklogDb rooted at `env`.
  FileSystem(storage::Env& env, FsimOptions options,
             core::BacklogOptions backlog_options = {});

  /// Baseline-backed file system: `sink` provides the back references and
  /// the FileSystem owns its snapshot registry. `sink` must outlive this.
  FileSystem(FsimOptions options, BackrefSink& sink);

  ~FileSystem();
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // --- namespace operations (on the live head of a line) --------------------

  /// Create a file of `num_blocks` blocks; returns its inode number.
  InodeNo create_file(LineId line, std::uint64_t num_blocks);

  /// Copy-on-write (re)write of `count` logical blocks starting at `offset`;
  /// extends the file if the range reaches past EOF.
  void write_file(LineId line, InodeNo inode, std::uint64_t offset,
                  std::uint64_t count);

  /// Shrink (or no-op-grow) the file to `new_blocks` blocks.
  void truncate_file(LineId line, InodeNo inode, std::uint64_t new_blocks);

  void delete_file(LineId line, InodeNo inode);

  [[nodiscard]] bool file_exists(LineId line, InodeNo inode) const;
  [[nodiscard]] std::uint64_t file_size_blocks(LineId line, InodeNo inode) const;
  [[nodiscard]] std::vector<InodeNo> list_files(LineId line) const;

  // --- snapshots and clones (§2) ---------------------------------------------

  /// Preserve the current state of `line` as snapshot version current_cp().
  Epoch take_snapshot(LineId line);

  void delete_snapshot(LineId line, Epoch version);

  /// Writable clone of snapshot (line, version): starts a new line.
  LineId create_clone(LineId line, Epoch version);

  /// Destroy the live head of a (cloned) line; snapshots of it remain.
  void delete_clone_head(LineId line);

  // --- time and consistency points -------------------------------------------

  void advance_time(double seconds);

  /// Take a CP if either trigger (op count / simulated time) fired.
  std::optional<SinkCpStats> maybe_consistency_point();

  /// Unconditionally take a consistency point.
  SinkCpStats consistency_point();

  [[nodiscard]] Epoch current_cp() const { return registry().current_cp(); }

  // --- accessors --------------------------------------------------------------

  [[nodiscard]] core::SnapshotRegistry& registry();
  [[nodiscard]] const core::SnapshotRegistry& registry() const;

  /// The Backlog database (throws std::logic_error in baseline-sink mode).
  [[nodiscard]] core::BacklogDb& db();
  [[nodiscard]] bool has_db() const noexcept { return db_ != nullptr; }

  [[nodiscard]] const FsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] FsimOptions& options() noexcept { return options_; }

  // --- ground truth for the verifier and relocation ---------------------------

  [[nodiscard]] const Image& live_image(LineId line) const;
  [[nodiscard]] std::vector<LineId> live_lines() const;
  /// Retained snapshot images of a line: version -> image.
  [[nodiscard]] const std::map<Epoch, Image>& snapshot_images(LineId line) const;
  [[nodiscard]] std::uint64_t max_block() const noexcept { return next_block_; }
  [[nodiscard]] bool block_allocated(BlockNo b) const {
    return block_refs_.contains(b);
  }

  /// Journal of block-pointer ops since the last CP (crash recovery tests).
  [[nodiscard]] const std::deque<JournalOp>& journal() const noexcept {
    return journal_;
  }

  // --- relocation support (the use cases of §3) --------------------------------

  /// Move physical extent [old_block, old_block+length) to new_block: updates
  /// every pointer in every live and snapshot image, fixes refcounts and the
  /// allocator, and rewrites the back references (db().relocate in Backlog
  /// mode). The destination must be unallocated. Returns pointers updated.
  std::uint64_t relocate_extent(BlockNo old_block, std::uint64_t length,
                                BlockNo new_block);

 private:
  // Mutable-file access with copy-on-write against shared snapshot images.
  FileNode& mutable_file(LineId line, InodeNo inode);

  BlockNo allocate_or_dedup(bool* was_dedup);
  void ref_block(BlockNo b);
  void unref_block(BlockNo b);
  void add_pointer(LineId line, InodeNo inode, std::uint64_t offset, BlockNo b);
  void remove_pointer(LineId line, InodeNo inode, std::uint64_t offset,
                      BlockNo b);
  void ref_image(const Image& img);
  void unref_image(const Image& img);

  FsimOptions options_;
  std::unique_ptr<core::BacklogDb> db_;        // Backlog mode
  std::unique_ptr<BacklogSink> own_sink_;      // Backlog mode
  std::unique_ptr<core::SnapshotRegistry> own_registry_;  // sink mode
  BackrefSink* sink_ = nullptr;                // always valid

  util::Rng rng_;
  std::unique_ptr<util::ZipfSampler> zipf_;

  std::map<LineId, Image> live_;
  std::map<LineId, std::map<Epoch, Image>> snapshots_;
  std::unordered_map<BlockNo, std::uint32_t> block_refs_;
  std::vector<BlockNo> free_list_;
  std::vector<BlockNo> dedup_pool_;  // ring buffer of recently written blocks
  std::size_t dedup_pool_pos_ = 0;

  BlockNo next_block_ = 1;  // block 0 reserved
  InodeNo next_inode_ = 2;  // inodes 0/1 reserved (root/meta convention)
  std::uint64_t writes_since_cp_ = 0;
  double seconds_since_cp_ = 0.0;
  std::deque<JournalOp> journal_;
  FsStats stats_;
};

}  // namespace backlog::fsim
