// BacklogDb — the paper's primary contribution, assembled.
//
// Log-Structured Back References (§4–5): a write-optimized back-reference
// database for write-anywhere file systems. The file system drives it with
// three callbacks (§5): add_reference / remove_reference on block-pointer
// changes, and consistency_point() at every CP. Updates never read disk;
// they buffer in the write store and are flushed en masse as immutable
// Level-0 run files per consistency point (Stepped-Merge, §5.1). Periodic
// maintenance (§5.2) merges runs, joins From ⋈ To into the Combined table
// and purges records of deleted snapshots. Queries (§4.2) serve "which
// objects reference these physical blocks?" with structural-inheritance
// expansion for writable clones and masking against retained versions.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/backref_record.hpp"
#include "core/record_log.hpp"
#include "core/result_cache.hpp"
#include "core/snapshot_registry.hpp"
#include "core/write_store.hpp"
#include "lsm/deletion_vector.hpp"
#include "lsm/merge.hpp"
#include "lsm/run_file.hpp"
#include "storage/block_cache.hpp"
#include "storage/env.hpp"

namespace backlog::core {

struct BacklogOptions {
  /// Horizontal partitioning granularity (§5.3): run files cover disjoint
  /// fixed ranges of `partition_blocks` physical blocks each.
  std::uint64_t partition_blocks = 1ull << 20;

  /// Expected block operations per CP; sizes the per-run Bloom filters
  /// (paper: 32 KB of filter for the WAFL setting of 32,000 ops, §5.1).
  std::size_t expected_ops_per_cp = 32000;
  std::size_t bloom_max_bytes = 32 * 1024;
  /// The Combined RS may grow its filter up to 1 MB (§5.1).
  std::size_t combined_bloom_max_bytes = 1024 * 1024;

  /// Page budget of the private cache a standalone db builds, in 4 KB
  /// pages (paper: 32 MB, §6.1). Only consulted when `shared_cache` is
  /// null; hosted volumes read through the VolumeManager's one service-wide
  /// cache, sized by service::CacheOptions, and ignore it.
  std::size_t cache_pages = 8192;

  /// Service-wide block cache (borrowed; must outlive the db). When set,
  /// this db reads run pages through it — keyed by file identity
  /// (dev, ino), so CoW-cloned volumes sharing hard-linked runs share the
  /// cached pages too — and `cache_pages` is ignored. Null (the standalone
  /// default) makes the db construct a private cache of `cache_pages`.
  storage::BlockCache* shared_cache = nullptr;

  /// Capacity (entries) of the per-volume query result cache; 0 (the
  /// default) disables it. Results are tagged with the volume's mutation
  /// epoch + registry version and die by tag comparison — see
  /// core/result_cache.hpp.
  std::size_t result_cache_entries = 0;

  /// How many run files may be held open simultaneously.
  std::size_t max_open_runs = 256;

  /// Upper bound on extent length (§6.1's btrfs length field). Records sort
  /// by *starting* block, so a query for block b must begin scanning at
  /// b - max_extent_blocks + 1 to catch extents covering b; bounding the
  /// length keeps that overscan constant. add_reference enforces it.
  std::uint64_t max_extent_blocks = 128;

  // Ablation toggles (bench/ablation_design_choices).
  bool use_bloom = true;
  bool pruning = true;

  /// Uniquifies run-file names across every volume of a service: with a
  /// tag, runs are named `<table>_<tag>_<partition>_<id>.run`. Two db
  /// instances with distinct tags can never mint the same name, so a run
  /// hard-linked into another volume's directory (copy-on-write clone) is
  /// never rewritten in place by that volume's own flushes — RunWriter
  /// truncates on create, which would corrupt every sharer. The service
  /// layer assigns a fresh tag per opened volume instance; empty (the
  /// standalone default) keeps the legacy `<table>_<partition>_<id>.run`
  /// names. Characters are restricted to [A-Za-z0-9._-].
  std::string file_tag;
};

/// One masked query result: a Combined record plus the retained snapshot /
/// CP versions (within [from, to)) in which the reference is visible.
struct BackrefEntry {
  CombinedRecord rec;
  std::vector<Epoch> versions;

  friend bool operator==(const BackrefEntry&, const BackrefEntry&) = default;
};

struct QueryOptions {
  bool expand = true;  ///< structural-inheritance expansion (§4.2.2)
  bool mask = true;    ///< drop records invisible in every retained version
};

/// Returned by consistency_point(): the paper's per-CP overhead metrics.
struct CpFlushStats {
  Epoch cp = 0;                    ///< the CP that was just committed
  std::uint64_t block_ops = 0;     ///< add/remove calls during this CP
  std::uint64_t records_flushed = 0;
  std::uint64_t pages_written = 0; ///< 4 KB page writes charged to the flush
  std::uint64_t wall_micros = 0;
};

struct MaintenanceStats {
  std::uint64_t input_records = 0;
  std::uint64_t output_complete = 0;    ///< records in the new Combined RS
  std::uint64_t output_incomplete = 0;  ///< records in the new From RS
  std::uint64_t purged = 0;             ///< dead records dropped (§5.2)
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pages_written = 0;
  std::uint64_t wall_micros = 0;
};

/// Shared-vs-owned byte split of the volume's durable files, read from the
/// file system's link counts. `shared_bytes` counts run files with two or
/// more hard links, i.e. linked into at least one other volume directory
/// (copy-on-write clones); the manifest is always owned — it is copied,
/// never linked, because it mutates in place.
struct FileOwnershipStats {
  std::uint64_t owned_bytes = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t shared_files = 0;
  std::uint64_t total_files = 0;
};

struct DbStats {
  std::uint64_t from_runs = 0;
  std::uint64_t to_runs = 0;
  std::uint64_t combined_runs = 0;
  std::uint64_t db_bytes = 0;      ///< total size of all run files
  std::uint64_t run_records = 0;   ///< records across all runs
  std::size_t ws_from = 0;
  std::size_t ws_to = 0;
  std::uint64_t dv_entries = 0;
  std::uint64_t partitions = 0;
};

/// Cheap stats snapshot. Unlike stats(), which walks every partition and run,
/// the run counters are maintained incrementally as runs are installed and
/// retired — cheap enough for a scheduler to poll across hundreds of hosted
/// volumes between every task. `ws_entries` folds the write store's log
/// first, a sort of the updates made since the last read.
struct QuickStats {
  std::uint64_t from_runs = 0;
  std::uint64_t to_runs = 0;
  std::uint64_t combined_runs = 0;
  std::uint64_t db_bytes = 0;
  std::uint64_t run_records = 0;
  std::uint64_t ws_entries = 0;     ///< buffered From + To write-store entries
  std::uint64_t ops_since_cp = 0;

  /// Level-0 pressure signal: the run count that maintenance collapses.
  [[nodiscard]] std::uint64_t l0_runs() const noexcept {
    return from_runs + to_runs;
  }
};

/// A BacklogDb is confined to one thread at a time, const members included:
/// every read first folds the write store's log. The service calls each
/// volume's db only on the volume's shard thread; the TSan suites check it.
class BacklogDb {
 public:
  /// Opens (or creates) the database rooted at `env`. If a manifest exists,
  /// the previous state — run files, snapshot registry, deletion vectors —
  /// is recovered from it (§5.4); the write store starts empty and the file
  /// system replays its journal through add/remove_reference. Throws if the
  /// manifest's first record is corrupt or of another format version.
  explicit BacklogDb(storage::Env& env, BacklogOptions options = {});
  ~BacklogDb();

  BacklogDb(const BacklogDb&) = delete;
  BacklogDb& operator=(const BacklogDb&) = delete;

  // --- update path (§5): no disk I/O, ever ---------------------------------

  /// Block-reference-added callback: `key` became live at the current CP.
  void add_reference(const BackrefKey& key);

  /// Block-reference-removed callback: `key` died at the current CP.
  void remove_reference(const BackrefKey& key);

  /// Batched update path: validate, stamp and buffer a whole batch of
  /// add/remove callbacks in one call, amortizing the per-record epoch
  /// lookup, extent bookkeeping and op accounting. Semantically equal to
  /// issuing the calls in order, with one contract difference: the batch is
  /// validated *up front*, so an invalid op (zero-length / oversized
  /// extent) throws std::invalid_argument before anything is applied —
  /// the sequential calls would apply the prefix. Used by the service's
  /// apply_batch() verb, its WAL replay on reopen, and jsim's journal
  /// replay.
  void apply_many(std::span<const Update> ops);

  // --- consistency points ----------------------------------------------------

  /// Flush the write store as new Level-0 runs (one per touched partition
  /// and table), persist the manifest, and advance the global CP number.
  /// A CP whose manifest write fails keeps its number, since the write may
  /// be on disk anyway; a retry commits that same number. Through the Env's
  /// fault registry (Env::set_faults) it fires "cp.flushed" once its run
  /// files are on disk (registry not yet advanced) and
  /// "cp.registry_persisted" once the manifest edit commits it; crash tests
  /// _exit there to freeze the on-disk state between the two.
  CpFlushStats consistency_point();

  [[nodiscard]] Epoch current_cp() const noexcept { return registry_.current_cp(); }

  /// The snapshot registry: the file system takes snapshots, creates clones
  /// and deletes snapshots through this. State persists with the manifest.
  [[nodiscard]] SnapshotRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const SnapshotRegistry& registry() const noexcept {
    return registry_;
  }

  /// Commit the current registry state, and any runs and deletion-vector
  /// entries added since the last manifest write, as one manifest edit
  /// *without* advancing the CP. Lets registry mutations made between
  /// consistency points — clone creation, snapshot deletion — survive a
  /// crash instead of waiting for the next CP's edit. If the append or
  /// sync fails, the pending runs and entries stay pending and the next
  /// manifest write is a full base, which also discards any torn bytes.
  void append_manifest_edit();

  /// Names of every file that makes up the database's durable state: the
  /// manifest and all registered run files. With an empty write store,
  /// copying exactly these files yields a byte-complete clone of the volume
  /// (the service layer's cross-volume clone). Orphan files from uncommitted
  /// CPs and maintenance passes are excluded by construction.
  [[nodiscard]] std::vector<std::string> live_files() const;

  // --- queries (§4.2, §6.4) -------------------------------------------------

  /// All owners of physical blocks [first, first+count): "tell me all the
  /// objects containing this block". Sorted by record order.
  [[nodiscard]] std::vector<BackrefEntry> query(BlockNo first,
                                                std::uint64_t count = 1,
                                                const QueryOptions& opts = {});

  /// Raw joined records (no expansion, no masking) — verifier/test hook.
  [[nodiscard]] std::vector<CombinedRecord> query_raw(BlockNo first,
                                                      std::uint64_t count = 1);

  /// Every joined record in the database (unmasked, unexpanded).
  [[nodiscard]] std::vector<CombinedRecord> scan_all();

  /// Drop cached pages *and* cached query results (cold-cache query
  /// experiments, §6.4). Note: with an injected shared_cache this clears
  /// the whole service-wide block cache — the fleet-wide cold-cache knob is
  /// the service layer's clear_caches(), which clears the block cache once.
  void clear_cache();

  /// Drop only this volume's cached query results (the service layer's
  /// per-volume share of clear_caches()).
  void clear_result_cache() { result_cache_.clear(); }

  /// Counters of this volume's query result cache.
  [[nodiscard]] ResultCacheStats result_cache_stats() const {
    return result_cache_.stats();
  }

  // --- maintenance (§5.2) -----------------------------------------------------

  /// Compact every partition: merge runs, precompute Combined, purge dead
  /// records, apply + consume the deletion vectors. One full manifest write
  /// commits the pass; the replaced runs are unlinked only after it, so a
  /// failure or crash at any point leaves the volume as it was before the
  /// pass or as it is after it. Requires an empty write store (call right
  /// after consistency_point()).
  MaintenanceStats maintain();

  /// Selective compaction (§5.3): compact only the partition that covers
  /// `block`. Lets hot block ranges be maintained without paying for the
  /// whole volume. Same empty-write-store requirement as maintain().
  MaintenanceStats maintain_partition(BlockNo block);

  // --- relocation (§3, §5.1 deletion vector) ---------------------------------

  /// Rewrite all back references of extent [old_block, old_block+length) to
  /// point at new_block: RS copies are suppressed through the deletion
  /// vectors and re-emitted (re-keyed) as fresh Level-0 runs; WS entries are
  /// re-keyed in place. Returns the number of rewritten records. The caller
  /// (file system) is responsible for updating its own block pointers.
  /// Durable at the next consistency point: the CP's manifest edit commits
  /// the deletion-vector entries and the re-keyed runs together, and a crash
  /// before it leaves the records at their old blocks. A failed run write
  /// throws with the db unchanged, so the call can be retried.
  std::uint64_t relocate(BlockNo old_block, std::uint64_t length,
                         BlockNo new_block);

  [[nodiscard]] DbStats stats() const;
  [[nodiscard]] FileOwnershipStats file_ownership() const;
  [[nodiscard]] QuickStats quick_stats() const;
  [[nodiscard]] const BacklogOptions& options() const noexcept { return options_; }

 private:
  enum class Table : std::uint8_t { kFrom = 0, kTo = 1, kCombined = 2 };

  struct RunMeta {
    std::string name;
    Table table;
    std::uint64_t partition = 0;
    std::uint64_t record_count = 0;
    std::uint64_t size_bytes = 0;
    util::BloomFilter bloom;  // always resident (§5.1)
    std::vector<std::uint8_t> min_rec, max_rec;
  };

  using RunList = std::vector<std::shared_ptr<RunMeta>>;

  struct Partition {
    std::array<RunList, 3> runs;  // indexed by Table
    RunList& of(Table t) { return runs[static_cast<std::size_t>(t)]; }
    const RunList& of(Table t) const { return runs[static_cast<std::size_t>(t)]; }
  };

  [[nodiscard]] std::uint64_t partition_of(BlockNo block) const {
    return block / options_.partition_blocks;
  }

  void detach_private_cache() noexcept;

  // Run-file lifecycle.
  std::shared_ptr<RunMeta> load_run_meta(const std::string& name, Table table,
                                         std::uint64_t partition);
  static std::shared_ptr<RunMeta> written_run(const std::string& name,
                                              Table table,
                                              std::uint64_t partition,
                                              const lsm::RunWriter& writer);
  std::shared_ptr<lsm::RunFile> open_run(const RunMeta& meta);
  // Unlinks every run the committed manifest no longer names (maintenance
  // inputs); called only once the full manifest write has synced.
  void retire_runs();
  std::string new_run_name(Table table, std::uint64_t partition);

  // QuickStats bookkeeping: every install/retire of a registered run passes
  // through these (orphan files deleted during recovery never registered).
  void track_run_added(const RunMeta& meta) noexcept;
  void track_run_removed(const RunMeta& meta) noexcept;

  // Writes `sorted` as one run per touched partition and appends their
  // metas to `staged`; installs nothing.
  void flush_table(const std::vector<std::uint8_t>& sorted,
                   std::size_t record_size, Table table, RunList& staged);
  // Deletes the files of runs staged by a write that then failed (best
  // effort: a file left behind is an orphan, which the next open removes).
  void discard_runs(const RunList& staged) noexcept;
  // Registers written runs with the partitions and the next manifest edit.
  void install_runs(RunList& staged);

  // Stepped-Merge intermediate levels (§5.1): when a partition holds more
  // runs than can be merged in one pass (bounded by open-file capacity),
  // batches of the oldest runs are pre-merged into single larger runs.
  void merge_run_batches(RunList& runs, Table table, std::uint64_t partition);

  // The body of maintain() and maintain_partition(): compacts the partition
  // `only` (every partition if empty), then commits with one manifest write.
  MaintenanceStats maintain_pass(std::optional<std::uint64_t> only);
  // Compaction of a single partition; accumulates into `s`.
  void maintain_one(std::uint64_t pid, Partition& part, MaintenanceStats& s);

  // Query plumbing. Returns a sorted stream of records in
  // [block_lo, block_hi) for the given table within one partition, merged
  // across runs (+ WS for From/To) and filtered through the deletion vector.
  std::unique_ptr<lsm::RecordStream> table_stream(const Partition& part,
                                                  Table table, BlockNo block_lo,
                                                  BlockNo block_hi,
                                                  bool include_ws);
  [[nodiscard]] bool run_may_intersect(const RunMeta& meta, BlockNo block_lo,
                                       BlockNo block_hi) const;
  std::vector<CombinedRecord> collect_raw(BlockNo block_lo, BlockNo block_hi);
  void expand_inheritance(std::vector<CombinedRecord>& records) const;

  // Manifest: the volume's only commit record. It is a RecordLog whose
  // records share one payload format. The first (the base) holds the full
  // state; every CP appends an edit holding the new registry state and the
  // runs and deletion-vector entries added since the last write. Edits only
  // ever add — only maintenance erases deletion-vector entries or retires
  // runs, and it rewrites the base. This keeps the per-CP manifest cost O(1)
  // even with thousands of accumulated Level-0 runs.
  void save_manifest();  // full rewrite (open/maintain), then retire_runs()
  // Appends the payload of the base (`full`) or of an edit to `out`.
  void manifest_record(bool full, std::vector<std::uint8_t>& out) const;
  void apply_manifest_record(std::span<const std::uint8_t> payload);
  void load_manifest();
  void remove_orphan_runs();

  lsm::DeletionVector& dv(Table t) { return dvs_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] const lsm::DeletionVector& dv(Table t) const {
    return dvs_[static_cast<std::size_t>(t)];
  }

  storage::Env& env_;
  BacklogOptions options_;
  SnapshotRegistry registry_;
  WriteStore ws_;
  // A standalone db owns a private cache; cache_ is it or the shared one.
  std::unique_ptr<storage::BlockCache> private_cache_;
  storage::BlockCache& cache_;
  ResultCache<std::vector<BackrefEntry>> result_cache_;
  /// Bumped by every operation that can change a query answer outside the
  /// registry: updates, CP flushes, maintenance, relocation. Together with
  /// registry_.version() it forms the result cache's tag.
  std::uint64_t mutations_ = 0;
  std::map<std::uint64_t, Partition> partitions_;
  std::uint64_t next_run_id_ = 1;
  std::uint64_t ops_since_cp_ = 0;
  QuickStats quick_{};  // incrementally maintained run counters
  // Largest extent length ever referenced: queries for block b must begin
  // scanning at b - (max_extent_seen_ - 1) to catch covering extents.
  // 1 for block-granularity workloads, so the overscan is usually zero.
  std::uint64_t max_extent_seen_ = 1;

  // Runs and deletion-vector entries added since the last manifest write
  // (base or edit): the next edit's payload.
  RunList pending_manifest_runs_;
  std::vector<std::pair<Table, std::vector<std::uint8_t>>> pending_dv_;
  // Runs that in-memory state no longer names but the committed manifest
  // may; save_manifest() unlinks them once the new base has committed.
  RunList retired_runs_;
  // The open manifest, for edits. Null after a failed manifest write: the
  // file may end in a torn edit, so the next write is a full base.
  std::unique_ptr<RecordLog> manifest_log_;
  bool cp_unconfirmed_ = false;  // current_cp()'s manifest write failed

  std::array<lsm::DeletionVector, 3> dvs_{  // indexed by Table
      lsm::DeletionVector{kFromRecordSize}, lsm::DeletionVector{kToRecordSize},
      lsm::DeletionVector{kCombinedRecordSize}};

  // Open-file LRU over run files (bounded fd usage with many L0 runs).
  std::unordered_map<std::string, std::shared_ptr<lsm::RunFile>> open_runs_;
  std::list<std::string> open_lru_;
};

}  // namespace backlog::core
