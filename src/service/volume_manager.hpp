// VolumeManager — the multi-tenant volume service ("backlogd" core).
//
// Hosts N independent Backlog volumes, one directory per tenant under a
// common root, and routes every tenant onto one shard of a fixed worker
// pool (shard-per-thread). All access to a volume's Env and BacklogDb
// happens on its shard's thread, serialized through the shard's task queue,
// so the paper's single-threaded update path is preserved unchanged —
// scaling comes from sharding tenants, not from locking the hot path. The
// API is asynchronous: update batches, consistency points, queries,
// snapshot lifecycle verbs, relocation and maintenance all return futures.
//
// Placement is *dynamic*: a tenant initially lands on the shard its name
// hashes to, but migrate_volume() can move a live volume to any other shard
// without stopping its traffic (see the migration protocol below), and
// clone_volume() materializes a writable clone of one tenant's snapshot as
// a brand-new, independently addressable tenant.
//
// Ordering guarantee: foreground operations for one tenant execute in
// submission order — per-flow FIFO while the tenant is settled (each volume
// is its own weighted-fair flow in its shard's queue), and the park/replay
// handoff of a migration preserves that order end to end. Per-tenant QoS
// (set_qos) inserts a token-bucket gate *before* the queue: throttled ops
// wait in a bounded per-volume FIFO drained by a pacer thread, and every
// later op of that tenant — metered or not — queues behind them, so the
// ordering guarantee survives throttling. Background maintenance runs at
// lower priority and only between foreground tasks (see shard_queue.hpp),
// and it skips the volume whenever the write store is non-empty —
// maintenance never interposes inside a tenant's CP window.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/backlog_db.hpp"
#include "core/result_cache.hpp"
#include "core/wal.hpp"
#include "service/metrics.hpp"
#include "service/qos.hpp"
#include "service/service_stats.hpp"
#include "service/trace.hpp"
#include "service/worker_pool.hpp"
#include "storage/block_cache.hpp"
#include "storage/env.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"

namespace backlog::service {

/// Service-wide cache configuration. This replaces per-volume
/// BacklogOptions::cache_pages for hosted volumes: one block cache, sized
/// once, serves every tenant — CoW-cloned volumes share cached pages of
/// their hard-linked runs by construction (the cache keys on file identity,
/// not on the owning volume).
struct CacheOptions {
  /// Total byte budget of the shared block cache, across all tenants
  /// (paper: 32 MB, §6.1). 0 disables page caching entirely (cold-cache
  /// experiments): every read goes to storage.
  std::uint64_t capacity_bytes = 32ull << 20;

  /// Mutex stripes of the block cache (clamped to >= 1). More stripes =
  /// less lock contention across shard threads; each stripe LRUs its own
  /// slice of the budget.
  std::size_t block_cache_shards = 16;

  /// Per-volume query result cache capacity, in entries (0 disables).
  /// Entries are invalidated by mutation-epoch tag comparison — see
  /// core/result_cache.hpp.
  std::size_t result_cache_entries = 256;
};

struct ServiceOptions {
  /// Worker shards; each hosts a disjoint subset of the volumes.
  std::size_t shards = 4;

  /// Volumes live at root/<tenant>.
  std::filesystem::path root;

  /// Options applied to every hosted BacklogDb. Caching fields are
  /// overridden by `cache` below: hosted volumes read through the shared
  /// service cache, so db_options.cache_pages is ignored.
  core::BacklogOptions db_options{};

  /// The service-wide cache configuration (block cache + per-volume result
  /// caches). See CacheOptions.
  CacheOptions cache{};

  /// Env fsync behaviour for hosted volumes (benches disable it).
  bool sync_writes = false;

  /// Anti-starvation ratio of the per-shard queues: one background task may
  /// run after this many consecutive foreground tasks.
  std::size_t bg_starvation_limit = 8;

  /// Pin each shard's worker thread to CPU (shard mod hardware cores) via
  /// pthread_setaffinity_np, keeping a shard's working set on one core's
  /// caches. Linux-only; silently unpinned elsewhere (see shards_pinned()).
  bool pin_shards = false;

  /// How often the QoS pacer re-checks throttled volumes' wait queues. The
  /// pacer thread only exists once some volume has a QoS configured.
  std::chrono::milliseconds qos_pacer_interval{1};

  /// Fault-injection registry (borrowed; must outlive the manager). Every
  /// hosted volume's Env, BacklogDb, WAL pipeline and clone commit fire
  /// their points through it (util/fault_points.hpp), targeted by tenant
  /// name. Null (the default) disables injection.
  util::FaultPoints* faults = nullptr;

  // --- durability (group-commit WAL; see README "Durability") --------------

  /// Write-ahead logging for the update verb: every applied batch is
  /// appended to the volume's WAL (core/wal.hpp) and the returned future
  /// resolves only after the record is covered by an fsync, so a resolved
  /// apply_batch survives a crash — recovery replays the WAL tail through
  /// apply_many. Off by default: without it the service keeps the paper's
  /// CP-only durability (buffered updates lost on crash, the file system's
  /// journal replay covers them). Enabling it forces real fsyncs on every
  /// hosted Env regardless of `sync_writes`.
  bool wal_enabled = false;

  /// Group-commit window, in microseconds: the longest a parked ack waits
  /// for company. 0 = per-op fsync: every update batch syncs its own WAL
  /// record before its future resolves (the durable-but-slow baseline
  /// bench/durability measures against). N > 0: the first WAL append on a
  /// shard schedules one flush sweep, which runs as soon as the shard has
  /// nothing else queued, or N µs after that append if the shard stays
  /// busy. Every batch appended to ANY volume on that shard meanwhile rides
  /// the same single fsync sweep, so under load durable-ops/s scales with
  /// batching rather than with fsync count, while a lone batch on an idle
  /// shard is acked after its own fsync without waiting out the window.
  std::uint32_t wal_commit_window_micros = 0;

  // --- observability (see trace.hpp / metrics.hpp) -------------------------
  // Both knobs are also adjustable at runtime via set_tracing(). While
  // either is non-zero every foreground op is stage-stamped (one extra
  // clock read per op); with both zero the trace machinery costs one
  // relaxed atomic load per op and allocates nothing.

  /// Record every Nth foreground op of a volume into its shard's trace
  /// ring (0 = sampling off).
  std::uint32_t trace_sample_every = 0;
  /// Ops whose end-to-end latency reaches this land in the slow-op log with
  /// their full stage breakdown (0 = off). Exact, not sampled.
  std::uint64_t slow_op_micros = 0;
  /// Capacity of each shard's sampled-span ring / slow-op log (oldest
  /// evicted, pushes never block the shard thread).
  std::size_t trace_ring_size = 1024;
  std::size_t slow_op_ring_size = 256;
};

/// Thresholds steering background maintenance (see MaintenanceScheduler).
struct MaintenancePolicy {
  /// Schedule maintenance once a volume holds at least this many Level-0
  /// (From + To) runs.
  std::uint64_t l0_run_threshold = 48;
  /// Max background jobs enqueued per scheduler sweep, handed out
  /// round-robin over tenants — the tenant-fair budget that keeps compaction
  /// from monopolizing shards.
  std::size_t budget_per_sweep = 1;
  std::chrono::milliseconds poll_interval{20};
};

/// One batched update-path operation (§5 callbacks, service form). The
/// value type now lives in core (core::Update) so BacklogDb::apply_many can
/// take the service's batches without a copy; the alias keeps every
/// existing spelling (`service::UpdateOp::Kind::kAdd`) working.
using UpdateOp = core::Update;

/// One owner-query range of a query_batch() call.
struct QueryRange {
  core::BlockNo first = 0;
  std::uint64_t count = 1;
  core::QueryOptions opts{};
};

/// Outcome of migrate_volume().
struct MigrationStats {
  std::size_t source_shard = 0;
  std::size_t target_shard = 0;
  /// False when the volume already lived on the target shard (no-op) or a
  /// require_clean move found buffered updates (aborted_dirty).
  bool moved = false;
  /// True when require_clean aborted the handoff because the write store
  /// was non-empty at the drain barrier; the volume stayed on its shard and
  /// no consistency point was forced.
  bool aborted_dirty = false;
  /// True when the drain flushed buffered updates as a consistency point.
  bool forced_cp = false;
  /// Operations that raced the move: parked during the handoff and replayed
  /// on the target shard in their original submission order.
  std::size_t replayed_tasks = 0;
};

/// The rule every hosted volume name obeys (it names a directory under the
/// root): [A-Za-z0-9._-], at most 255 bytes, not a dot directory, not
/// ending in the clone-staging suffix `.cloning`.
/// Throws std::invalid_argument naming the violated part.
void validate_tenant_name(const std::string& tenant);

class VolumeManager {
 public:
  explicit VolumeManager(ServiceOptions options);
  /// Joins the worker pool (pending tasks drain first) and closes every
  /// still-open volume. Buffered write-store entries that were never
  /// committed by a consistency point are discarded, exactly as on process
  /// exit — the file system's journal replay covers them.
  ~VolumeManager();

  VolumeManager(const VolumeManager&) = delete;
  VolumeManager& operator=(const VolumeManager&) = delete;

  // --- routing ---------------------------------------------------------------

  [[nodiscard]] std::size_t shard_count() const noexcept { return pool_.size(); }

  /// Whether ServiceOptions::pin_shards was requested *and* applied to
  /// every worker thread (false on platforms without thread affinity).
  [[nodiscard]] bool shards_pinned() const noexcept { return pool_.pinned(); }

  // --- fault injection (fleet_sim chaos mode, tests) -------------------------

  /// Kill shard `shard`'s worker thread (deterministically: the call joins
  /// it). The shard's queue stays open, so every verb keeps accepting work
  /// for tenants routed there — tasks simply wait, and the accumulated
  /// delay lands in the queue-wait histograms when restart_shard() brings
  /// the worker back. No operation is ever dropped. Returns false if the
  /// shard is already dead. Throws std::out_of_range on a bad index. Must
  /// not be called from a task body.
  bool kill_shard(std::size_t shard);

  /// Revive a killed shard; its backlog drains immediately. Returns false
  /// if the shard is alive. Throws std::out_of_range on a bad index.
  bool restart_shard(std::size_t shard);

  /// True while `shard` has a live worker. Throws std::out_of_range.
  [[nodiscard]] bool shard_alive(std::size_t shard) const;

  /// Deterministic tenant -> *initial* shard route: a platform-stable hash
  /// of the tenant name, so the same tenant lands on the same shard across
  /// restarts and across processes (given the same shard count). A volume
  /// moved by migrate_volume() keeps its new shard until closed; reopening
  /// returns it to the hash route.
  [[nodiscard]] std::size_t shard_of(std::string_view tenant) const noexcept {
    return util::hash_bytes(tenant.data(), tenant.size(), /*seed=*/0x7e9a97) %
           pool_.size();
  }

  /// The shard currently hosting `tenant` (racy by nature: a concurrent
  /// migration can change it immediately after the read).
  [[nodiscard]] std::size_t current_shard(const std::string& tenant) const;

  // --- volume lifecycle ------------------------------------------------------

  /// Open (or create) the volume for `tenant`; blocks until recovery is
  /// complete. Throws std::invalid_argument for bad names or duplicates.
  void open_volume(const std::string& tenant);

  /// Flush (consistency point, if anything is buffered) and close. Blocks.
  void close_volume(const std::string& tenant);

  /// Close `tenant` without flushing and permanently delete its directory.
  /// Removing a run's link here removes only this volume's reference: files
  /// shared with cloned volumes survive under the sharers' links, sole-owned
  /// files are physically removed. Blocks.
  void destroy_volume(const std::string& tenant);

  [[nodiscard]] bool has_volume(const std::string& tenant) const;
  [[nodiscard]] std::vector<std::string> tenants() const;

  // --- update path -----------------------------------------------------------

  /// The update verb, the service form of the paper's add/remove callbacks:
  /// the whole batch crosses the routing/QoS/queue boundary once — one gate
  /// charge with the batch's total cost, one task, one promise — and is
  /// applied in order via BacklogDb::apply_many. Ordering: the batch
  /// occupies a single slot in the tenant's FIFO, atomically ordered against
  /// interleaved apply_batch()/query() calls and preserved across live
  /// migrations (a batch is parked/replayed as one unit, never split).
  /// Validation is up front: an invalid op fails the whole batch with
  /// std::invalid_argument and nothing is applied or logged. A batch
  /// rejected by QoS carries ServiceError(kThrottled) once, covering every
  /// constituent op; nothing is partially admitted. With the WAL enabled the
  /// future resolves once the batch's record is covered by an fsync (see
  /// ServiceOptions::wal_commit_window_micros); without it, when the batch
  /// has been applied.
  std::future<void> apply_batch(const std::string& tenant,
                                std::vector<UpdateOp> batch);

  std::future<core::CpFlushStats> consistency_point(const std::string& tenant);

  /// Relocate an extent's back references (BacklogDb::relocate) and commit
  /// them with a consistency point: durable when acked. The WAL logs block
  /// ops only, so the CP is what lets ops acked after this one replay onto
  /// the relocated state after a crash.
  std::future<std::uint64_t> relocate(const std::string& tenant,
                                      core::BlockNo old_block,
                                      std::uint64_t length,
                                      core::BlockNo new_block);

  // --- snapshot lifecycle (§2, §4.2.2 — service form) ------------------------

  /// Retain the state of `line` as of the current CP as a snapshot and
  /// commit it: the verb takes a consistency point, so every update applied
  /// before the call is included in the returned version and every update
  /// applied after it is excluded. Returns the snapshot's version.
  std::future<core::Epoch> take_snapshot(const std::string& tenant,
                                         core::LineId line = 0);

  /// Create a writable clone of snapshot (parent_line, version) *inside*
  /// the tenant's volume; returns the new line id. The registry change is
  /// persisted immediately (manifest edit); no CP is taken.
  std::future<core::LineId> create_clone(const std::string& tenant,
                                         core::LineId parent_line,
                                         core::Epoch version);

  /// Delete snapshot (line, version). Zombie semantics apply: a cloned
  /// snapshot's back references survive until its descendants are gone.
  std::future<void> delete_snapshot(const std::string& tenant,
                                    core::LineId line, core::Epoch version);

  /// Retained snapshot versions of `line`, ascending.
  std::future<std::vector<core::Epoch>> list_versions(const std::string& tenant,
                                                      core::LineId line = 0);

  /// Clone-as-new-tenant: materialize a writable clone of src's snapshot
  /// (parent_line, version) as the independently addressable volume
  /// `dst_tenant`. The source is quiesced on its shard just long enough to
  /// flush buffered updates (if any) and *share* its durable files:
  /// immutable run files are hard-linked into a staging directory — no data
  /// copy; the file system's link count records the sharing — and only the
  /// small mutable manifest is byte-copied, so clone cost is O(metadata). A run the file system cannot link (EXDEV, EPERM,
  /// EMLINK, ENOTSUP) is byte-copied instead and not counted as shared. The
  /// staging directory commits by an atomic rename; a crash before the
  /// rename leaves a `<dst>.cloning` directory that the next VolumeManager
  /// construction removes (dropping its links). The new volume
  /// recovers from the committed directory, shares the full
  /// structural-inheritance history through its (copied) SnapshotRegistry,
  /// and gets a fresh writable line — whose id this call returns — cloned
  /// from the snapshot. The destination routes by hash like any newly
  /// opened volume. Blocks.
  core::LineId clone_volume(const std::string& src_tenant,
                            const std::string& dst_tenant,
                            core::LineId parent_line, core::Epoch version);

  /// Live migration: move `tenant` to `target_shard` without stopping its
  /// traffic. Protocol: (1) an exclusive routing-table write marks the
  /// volume as in-handoff, so operations that race the move are parked
  /// instead of enqueued; (2) a drain barrier runs on the source shard
  /// behind every previously queued op and forces a consistency point if
  /// updates are buffered; (3) ownership flips and the parked operations
  /// are replayed onto the target shard in their original order, ahead of
  /// anything submitted later. Per-tenant FIFO ordering is preserved end to
  /// end; other tenants never block. Blocks the caller (not the service).
  /// Throws std::logic_error if a migration of this volume is in flight.
  ///
  /// `require_clean`: abort instead of forcing a consistency point when the
  /// drain finds buffered updates (MigrationStats::aborted_dirty; the
  /// volume stays put, racers replay on the source in order). The Balancer
  /// moves volumes this way — rebalancing must never impose a durability
  /// point on a tenant mid-CP-window.
  MigrationStats migrate_volume(const std::string& tenant,
                                std::size_t target_shard,
                                bool require_clean = false);

  // --- per-tenant QoS --------------------------------------------------------

  /// Install (or replace) the tenant's QoS: token-bucket admission for
  /// apply_batch()/query() plus the weighted-fair share of its shard.
  /// Applies to ops submitted after the call. Throws std::invalid_argument
  /// on nonsensical settings.
  void set_qos(const std::string& tenant, const TenantQos& qos);

  /// Remove the tenant's QoS; ops already waiting are released immediately
  /// (in order) and the weight returns to 1.
  void clear_qos(const std::string& tenant);

  /// Admission counters + configuration of the tenant's gate.
  [[nodiscard]] QosSnapshot qos(const std::string& tenant) const;

  // --- load signals (Balancer) -----------------------------------------------

  /// One shard's instantaneous load signals.
  struct ShardLoad {
    std::size_t shard = 0;
    std::size_t queue_depth = 0;           ///< pending tasks (fg + bg)
    std::uint64_t latency_ewma_micros = 0; ///< EWMA of task execution time
    std::uint64_t busy_micros = 0;         ///< cumulative task-execution time
  };
  [[nodiscard]] std::vector<ShardLoad> shard_loads() const;

  /// Where every volume currently lives plus its cumulative dispatched
  /// foreground-op count (monotonic; the Balancer differences successive
  /// readings into a rate). One locked pass, no shard round-trips.
  struct VolumePlacement {
    std::string tenant;
    std::size_t shard = 0;
    std::uint64_t dispatched_ops = 0;
  };
  [[nodiscard]] std::vector<VolumePlacement> placements() const;

  // --- queries ---------------------------------------------------------------

  std::future<std::vector<core::BackrefEntry>> query(
      const std::string& tenant, core::BlockNo first, std::uint64_t count = 1,
      core::QueryOptions opts = {});

  /// Batched owner queries: all of `ranges` execute in one task on the
  /// tenant's shard (one QoS charge of ranges.size() ops, one promise);
  /// result i answers ranges[i]. Like any foreground task the batch sits in
  /// the tenant's FIFO, so it observes every update applied before it was
  /// submitted — the batch counterpart of query().
  std::future<std::vector<std::vector<core::BackrefEntry>>> query_batch(
      const std::string& tenant, std::vector<QueryRange> ranges);

  std::future<std::vector<core::CombinedRecord>> scan_all(
      const std::string& tenant);

  // --- maintenance -----------------------------------------------------------

  /// Explicit foreground maintenance (e.g. backlogctl): runs at normal
  /// priority, fails if the write store is non-empty (core contract).
  std::future<core::MaintenanceStats> maintain(const std::string& tenant);

  /// Background maintenance probe (MaintenanceScheduler entry point): at
  /// most one in flight per volume; the probe re-checks the threshold on
  /// the shard against a QuickStats snapshot and silently skips when the
  /// volume is below it or mid-CP-window. Returns false if the tenant is
  /// unknown or a probe is already pending.
  bool schedule_maintenance(const std::string& tenant,
                            const MaintenancePolicy& policy);

  // --- stats -----------------------------------------------------------------

  std::future<core::DbStats> db_stats(const std::string& tenant);
  std::future<core::QuickStats> quick_stats(const std::string& tenant);
  /// The tenant's private Env counters — volumes never share an Env, so
  /// these isolate one tenant's I/O from every other's.
  std::future<storage::IoStats> io_stats(const std::string& tenant);

  /// Snapshot of the service: one row per hosted tenant, read from the
  /// volume's registry children, and `total`, the service lifetime total
  /// (ServiceStats). Only the shard-private IoStats and file ownership are
  /// gathered on the shards, *sequentially* — shard k's tasks are submitted
  /// only after shard k-1's completed — so at most one shard is ever
  /// servicing stats at a time: a slow shard delays only the snapshot, never
  /// the other shards.
  ServiceStats stats();

  // --- caches ----------------------------------------------------------------

  /// Fleet-wide cache snapshot: the shared block cache's counters plus each
  /// hosted volume's result-cache counters.
  struct CacheReport {
    storage::BlockCacheStats block;
    struct VolumeRow {
      std::string tenant;
      core::ResultCacheStats result;
    };
    std::vector<VolumeRow> tenants;  ///< sorted by tenant name
  };

  /// Snapshot of all cache counters. Per-volume rows are gathered like
  /// stats(): sequentially, one bypass-gate task per shard, so a throttled
  /// tenant can still be inspected and at most one shard services the
  /// report at a time.
  [[nodiscard]] CacheReport cache_stats();

  /// Drop every cached page and cached query result service-wide (the
  /// paper's cold-cache lever, §6.4, lifted to the fleet). Volumes' result
  /// caches are cleared on their own shards; in-flight queries simply
  /// repopulate afterwards.
  void clear_caches();

  /// The service-wide block cache.
  [[nodiscard]] storage::BlockCache& block_cache() noexcept {
    return block_cache_;
  }

  // --- observability -----------------------------------------------------

  /// The service's metric registry (always on: every verb bumps its
  /// counters with one uncontended relaxed store). Scrape with
  /// to_prometheus()/to_json(); windowed rates come from MetricsPoller.
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Adjust tracing at runtime (overrides the ServiceOptions seeds, applies
  /// to ops submitted after the call). sample_every=0 disables sampling,
  /// slow_op_micros=0 disables the slow-op log; with both zero foreground
  /// ops are not stage-stamped at all.
  void set_tracing(std::uint32_t sample_every,
                   std::uint64_t slow_op_micros) noexcept {
    trace_.sample_every.store(sample_every, std::memory_order_relaxed);
    trace_.slow_op_micros.store(slow_op_micros, std::memory_order_relaxed);
  }

  /// Sampled spans / slow-op log entries across all shards, oldest first.
  /// Gathered like stats(): a task per shard reads that shard's rings on
  /// its own thread, so the rings themselves need no synchronization.
  [[nodiscard]] std::vector<TraceSpan> trace_spans();
  [[nodiscard]] std::vector<TraceSpan> slow_ops();

  /// Test/tooling hook: run `fn` with exclusive access to the tenant's db on
  /// its shard.
  std::future<void> with_db(const std::string& tenant,
                            std::function<void(core::BacklogDb&)> fn);

  /// Like with_db but also exposes the volume's private Env — for tooling
  /// that inspects the durable files themselves (run listing, run dumping)
  /// while the volume stays hosted. Same shard-exclusive execution.
  std::future<void> with_env(
      const std::string& tenant,
      std::function<void(storage::Env&, core::BacklogDb&)> fn);

  /// Run files shared across volume directories by copy-on-write clones:
  /// one scan of the committed volume directories that counts each inode
  /// once by its link count. Costs a stat() per run file of the service, so
  /// it serves clone replies and reports, not the op path.
  [[nodiscard]] SharedFileStats shared_file_stats() const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

 private:
  struct ParkedTask {
    Task task;
    bool background = false;
  };

  /// A volume's per-op series. Each is a child of the registry family of
  /// the same name (see link_series), so it is recorded exactly once. The
  /// counters below kOwnCounters live in Volume::counters; the two throttle
  /// series are the volume's QoS gate's own counters.
  enum Counted : std::size_t {
    kUpdates, kBatches, kCps, kQueries, kSnapshots, kClones, kSnapshotDeletes,
    kMigrations, kMaintenanceRuns, kMaintenanceSkipped, kOwnCounters,
    kThrottleQueued = kOwnCounters, kThrottleRejected, kCountedSeries
  };
  enum Timed : std::size_t {
    kUpdateBatchMicros, kCpMicros, kQueryMicros, kMaintenanceMicros,
    kQueueWaitMicros, kGateWaitMicros, kCommitWaitMicros, kTimedSeries
  };

  struct Volume {
    std::string tenant;
    // Routing state, guarded by routing_mu_: `shard` is where tasks enqueue,
    // `parked` is set for the duration of a migration handoff. The parked
    // deque has its own tiny mutex because parkers only hold routing_mu_
    // shared. `shard` is atomic only so the submit path can take one
    // *relaxed* peek outside the lock (the queue-depth heuristic in
    // run_on); every routing decision still reads it under routing_mu_,
    // which carries the ordering.
    std::atomic<std::size_t> shard{0};
    bool parked = false;
    std::mutex park_mu;
    std::deque<ParkedTask> parked_tasks;
    // Weighted-fair scheduling identity: one flow per volume, assigned at
    // registration and stable across migrations. The weight mirrors the
    // volume's TenantQos (1 when unconfigured).
    std::uint64_t flow_id = 0;
    std::atomic<std::uint32_t> qos_weight{1};
    // Token-bucket admission gate (API-thread side; see qos.hpp).
    QosGate gate;
    // Foreground tasks handed to the pool for this volume (monotonic,
    // incremented at dispatch) — the Balancer's per-volume rate signal.
    std::atomic<std::uint64_t> dispatched_ops{0};
    // Created, used and destroyed only on the owning shard's thread.
    std::unique_ptr<storage::Env> env;
    std::unique_ptr<core::BacklogDb> db;
    // Per-volume write-ahead log (null unless ServiceOptions::wal_enabled);
    // appended on the shard thread, group-synced by the shard's flush task.
    std::unique_ptr<core::Wal> wal;
    // Graceful degradation: set once a WAL append/sync hits a persistent
    // write error. A wounded volume keeps answering reads, but every
    // mutating verb fails fast with ServiceError(kWounded) instead of
    // aborting the shard thread. Atomic so the API-side gauge can read it
    // without visiting the shard; never cleared while hosted (close and
    // reopen — after fixing the disk — heals it).
    std::atomic<bool> wounded{false};
    // The volume's registry children: written only on the owning shard's
    // thread, read relaxed by stats() and scrapes.
    std::array<std::atomic<std::uint64_t>, kOwnCounters> counters{};
    std::array<HistogramCell, kTimedSeries> latencies{};
    std::atomic<bool> maintenance_pending{false};
    // Trace sampling cursor: every Nth foreground op of this volume is
    // recorded (relaxed fetch_add on the submit path, only while tracing).
    std::atomic<std::uint64_t> trace_seq{0};

    void count(Counted c, std::uint64_t n = 1) noexcept {
      bump(counters[c], n);
    }
    [[nodiscard]] const std::atomic<std::uint64_t>& counter(Counted c) const {
      if (c < kOwnCounters) return counters[c];
      return c == kThrottleQueued ? gate.queued_counter()
                                  : gate.rejected_counter();
    }
    void time(Timed t, std::uint64_t micros) noexcept {
      latencies[t].record(micros);
    }

    // Shard-thread teardown: the WAL before the Env it writes through.
    void close_handles() {
      wal.reset();
      db.reset();
      env.reset();
    }
  };

  [[nodiscard]] std::shared_ptr<Volume> find(const std::string& tenant) const;

  /// Shard-thread helper: commit a consistency point with stats accounting
  /// and truncate the volume's WAL behind it. Fails fast with kWounded
  /// instead of attempting a CP on a wounded volume.
  core::CpFlushStats commit_cp(Volume& v);

  /// commit_cp() only if updates are buffered; returns whether a CP was
  /// taken. Used by clone_volume's quiesce and migrate_volume's drain.
  bool flush_buffered_cp(Volume& v);

  /// Add `tenant` to the volume table at its hash shard (throws
  /// std::invalid_argument if invalid or already open) / run
  /// recover_volume_on_shard for it on that shard, attach its series and
  /// wait / remove it from the table and release its QoS gate's waiting ops
  /// ahead of a teardown.
  std::shared_ptr<Volume> register_volume(const std::string& tenant);
  void recover_volume(const std::shared_ptr<Volume>& vol);
  std::shared_ptr<Volume> unregister_volume(const std::string& tenant);

  /// Shard-thread end of an open volume's life: fold the Env's final
  /// IoStats into retired_io_, close the handles and detach the volume's
  /// series, whose values fold into their families' retired parts.
  void retire(Volume& v);

  /// Attach (or detach) v's series — its counters, latencies and QoS gate
  /// counters — as children of their registry families.
  void link_series(Volume& v, bool attach);

  /// Shard-thread body of the volume open/recovery sequence, shared by
  /// open_volume() and clone_volume()'s destination open: construct the Env
  /// (real fsyncs forced on when the WAL is enabled) with the fault registry,
  /// recover the BacklogDb, replay the WAL tail through apply_many
  /// (committed immediately as a CP), and start a fresh log.
  void recover_volume_on_shard(Volume& v, const std::filesystem::path& dir,
                               const core::BacklogOptions& db_opts);

  /// Route one task to wherever the volume currently lives: its shard's
  /// queue, or the volume's parked deque while a migration handoff is in
  /// flight (replayed on the target in order). Readers share routing_mu_;
  /// only migrate_volume() ever takes it exclusively — the hot path pays
  /// one uncontended shared lock, the dbs themselves stay lock-free.
  void dispatch(const std::shared_ptr<Volume>& vol, Task task,
                bool background);

  /// Wrap `body` in a staleness check and route it to the volume. A
  /// foreground task always runs on the owning shard (the migration drain
  /// queues behind it), but a *background* task can linger in the
  /// low-priority queue past the drain barrier and be popped by the old
  /// owner after the volume moved — touching the volume there would race
  /// the new owner. The wrapper detects that (current_shard() no longer
  /// matches the routing table) and re-dispatches itself to chase the
  /// volume to its new home instead of running.
  ///
  /// Templated on the body so the whole wrapper is one concrete lambda
  /// stored directly in an InlineTask — the enqueue path never builds a
  /// std::function and never allocates for the common verb shapes
  /// (task.hpp has the sizing).
  template <typename Body>
  void submit_chasing(std::shared_ptr<Volume> vol, Body body,
                      bool background) {
    Task task = [this, vol, body = std::move(body), background]() mutable {
      bool stale = false;
      {
        std::shared_lock rl(routing_mu_);
        // A migration's drain barrier only covers the foreground queue, so
        // a *background* task can be popped by the old owner after the
        // volume moved (shard mismatch) — or, worse, in the drain-to-flip
        // window, where the shard field still points here but the target
        // may take over the moment the drain's promise lands (parked
        // flag). Either way the task must not touch the volume here.
        // Foreground tasks can never be stale: FIFO puts them ahead of the
        // drain, and they must run in place — re-parking them would
        // reorder against operations parked at dispatch.
        stale = vol->shard.load(std::memory_order_relaxed) !=
                    WorkerPool::current_shard() ||
                (background && vol->parked);
      }
      if (stale) {
        // Chase the volume to its current home (or into the parked deque,
        // which replays on the new owner). The routing-lock read above
        // also carries the happens-before edge from the previous handoff.
        submit_chasing(std::move(vol), std::move(body), background);
        return;
      }
      body(*vol);
    };
    dispatch(vol, std::move(task), background);
  }

  /// Run `fn(Volume&)` on the volume's shard; the future carries the result
  /// or the exception. Tasks capture the Volume by shared_ptr, so a volume
  /// outlives any task still referencing it even after close_volume().
  ///
  /// Foreground tasks pass through the volume's QoS gate: `ops_cost` /
  /// `bytes_cost` are charged against the tenant's token buckets (0 for
  /// control verbs, which still queue behind throttled ops to preserve
  /// order). A rejected op's future carries ServiceError(kThrottled).
  /// `bypass_gate` is for purely observational verbs (stats snapshots):
  /// they carry no ordering promise, and waiting behind a fully throttled
  /// tenant's queue would let one tenant stall fleet monitoring.
  ///
  /// `verb`/`op_count` label the op for tracing (see trace.hpp): while
  /// tracing is enabled a TraceCtx rides by value inside the task body,
  /// survives a migration park/replay with it, and is finished into the
  /// executing shard's trace ring / slow-op log by finish_trace() when `fn`
  /// returns.
  template <typename Fn>
  auto run_on(std::shared_ptr<Volume> vol, Fn fn, bool background = false,
              double ops_cost = 0, double bytes_cost = 0,
              bool bypass_gate = false, TraceVerb verb = TraceVerb::kControl,
              std::uint32_t op_count = 1)
      -> std::future<std::invoke_result_t<Fn&, Volume&>> {
    using R = std::invoke_result_t<Fn&, Volume&>;
    auto prom = std::make_shared<std::promise<R>>();
    std::future<R> fut = prom->get_future();
    const TraceCtx ctx = begin_op(*vol, verb, op_count, background);
    auto make_body = [this, prom, fn = std::move(fn)](TraceCtx ctx) mutable {
      return [this, fn = std::move(fn), prom, ctx](Volume& v) mutable {
        try {
          const std::uint64_t t_exec = start_body(v, ctx);
          const std::uint64_t io_before =
              ctx.active ? v.env->stats().io_micros : 0;
          if constexpr (std::is_void_v<R>) {
            fn(v);
            if (ctx.active)
              finish_trace(ctx, end_execute(v, ctx, t_exec, io_before));
            prom->set_value();
          } else {
            R result = fn(v);
            if (ctx.active)
              finish_trace(ctx, end_execute(v, ctx, t_exec, io_before));
            prom->set_value(std::move(result));
          }
        } catch (...) {
          prom->set_exception(std::current_exception());
        }
      };
    };
    submit_op(std::move(vol), std::move(make_body), ctx, *prom,
              background || bypass_gate, ops_cost, bytes_cost, background);
    return fut;
  }

  /// Completion callback of a deferred update op: exactly one call, with
  /// null on success or the exception the future should carry.
  using DoneFn = std::function<void(std::exception_ptr)>;

  /// Deferred-completion sibling of run_on for the update verb: same
  /// routing, QoS gating and queue-wait accounting, but the future resolves
  /// when `fn`'s DoneFn is invoked — inside fn without a WAL, or by the
  /// shard's group-commit flush after the WAL sync covering the op — instead
  /// of when fn returns.
  /// `fn(v, done)` must either throw (the future then carries that
  /// exception) or arrange exactly one `done` call, and must not throw
  /// after arranging it. A traced span's execute stage ends when fn returns
  /// (apply + any WAL append); the span finishes when `done` fires, and the
  /// time in between is its commit_wait stage — 0 when `done` fired inside
  /// fn (no WAL, window 0, or an error).
  template <typename Fn>
  std::future<void> run_on_deferred(std::shared_ptr<Volume> vol, Fn fn,
                                    double ops_cost, double bytes_cost,
                                    TraceVerb verb, std::uint32_t op_count) {
    auto prom = std::make_shared<std::promise<void>>();
    std::future<void> fut = prom->get_future();
    const TraceCtx ctx = begin_op(*vol, verb, op_count, /*background=*/false);
    auto make_body = [this, prom, fn = std::move(fn)](TraceCtx ctx) mutable {
      return [this, fn = std::move(fn), prom, ctx](Volume& v) mutable {
        const auto resolve = [prom](std::exception_ptr ep) {
          if (ep)
            prom->set_exception(std::move(ep));
          else
            prom->set_value();
        };
        try {
          const std::uint64_t t_exec = start_body(v, ctx);
          if (!ctx.active) {
            fn(v, resolve);
            return;
          }
          // Both halves run on this shard: the sweep that fires a parked
          // `done` runs where the append did (migration settles the window
          // before ownership moves), so the state needs no lock.
          struct Deferred {
            TraceSpan span;
            bool executed = false;
            bool acked = false;
          };
          const std::uint64_t io_before = v.env->stats().io_micros;
          auto st = std::make_shared<Deferred>();
          fn(v, [this, resolve, ctx, st, vp = &v](std::exception_ptr ep) {
            if (st->executed)
              finish_deferred_trace(*vp, ctx, st->span, util::now_micros());
            else
              st->acked = true;
            resolve(std::move(ep));
          });
          st->span = end_execute(v, ctx, t_exec, io_before);
          st->executed = true;
          if (st->acked) finish_deferred_trace(v, ctx, st->span, 0);
        } catch (...) {
          prom->set_exception(std::current_exception());
        }
      };
    };
    submit_op(std::move(vol), std::move(make_body), ctx, *prom,
              /*ungated=*/false, ops_cost, bytes_cost, /*background=*/false);
    return fut;
  }

  /// Submit-side trace context of a new op on `vol`. Queue-wait accounting
  /// without double timestamping: a foreground op stamps its submission
  /// time only when it can actually wait — a QoS gate is armed or the
  /// target shard's queue is non-empty (one relaxed peek; racy, but this is
  /// a stats heuristic). The execute side then reuses the worker loop's
  /// task-boundary timestamp instead of reading the clock again, so the
  /// common uncontended op pays for *zero* extra clock reads. Background
  /// probes idle by design; their wait would only pollute the histogram.
  /// While tracing is enabled every foreground op is stamped instead — a
  /// full span needs its submit time unconditionally, and the slow-op check
  /// must be exact, not sampled.
  TraceCtx begin_op(Volume& vol, TraceVerb verb, std::uint32_t op_count,
                    bool background) {
    TraceCtx ctx;
    ctx.verb = verb;
    ctx.ops = op_count;
    if (background) return ctx;
    if (trace_.enabled()) {
      ctx.active = true;
      ctx.id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
      ctx.t_submit = util::now_micros();
      ctx.submit_shard = static_cast<std::uint16_t>(
          vol.shard.load(std::memory_order_relaxed));
      const std::uint32_t every =
          trace_.sample_every.load(std::memory_order_relaxed);
      ctx.sampled =
          every != 0 &&
          vol.trace_seq.fetch_add(1, std::memory_order_relaxed) % every == 0;
    } else if (vol.gate.gated() ||
               pool_.queue_depth_approx(
                   vol.shard.load(std::memory_order_relaxed)) > 0) {
      ctx.t_submit = util::now_micros();
    }
    return ctx;
  }

  /// Shard-side start of an op body: throws if the volume closed while the
  /// op was queued, else records a stamped op's queue wait (queue time plus
  /// any gate wait; the span splits the two, the histogram keeps the total)
  /// and returns its execute time, 0 when unstamped.
  std::uint64_t start_body(Volume& v, const TraceCtx& ctx) {
    if (v.db == nullptr)
      throw std::logic_error("volume is closed: " + v.tenant);
    if (ctx.t_submit == 0) return 0;
    const std::uint64_t t_exec =
        std::max(WorkerPool::dispatch_time_micros(), ctx.t_submit);
    v.time(kQueueWaitMicros, t_exec - ctx.t_submit);
    return t_exec;
  }

  /// Route the body `make_body(ctx)` builds to the volume: straight to its
  /// shard when `ungated` or no QoS gate is armed, otherwise through the
  /// gate, which runs the release thunk inline (admitted), keeps it for the
  /// pacer (queued) or drops it (rejected — `prom` then carries the
  /// backpressure signal). The thunk builds the body itself so a traced
  /// op's gate wait ends exactly at release.
  template <typename MakeBody, typename Promise>
  void submit_op(std::shared_ptr<Volume> vol, MakeBody make_body, TraceCtx ctx,
                 Promise& prom, bool ungated, double ops_cost,
                 double bytes_cost, bool background) {
    if (ungated || !vol->gate.gated()) {
      submit_chasing(std::move(vol), make_body(ctx), background);
      return;
    }
    Volume* gate_vol = vol.get();
    std::function<void()> release = [this, make_body = std::move(make_body),
                                     vol = std::move(vol), ctx]() mutable {
      if (ctx.active) ctx.t_admit = util::now_micros();
      submit_chasing(std::move(vol), make_body(ctx), /*background=*/false);
    };
    // The gate counts the decision itself (the tenant's throttle series).
    if (gate_vol->gate.admit(ops_cost, bytes_cost, util::now_micros(),
                             std::move(release)) == Admission::kRejected) {
      prom.set_exception(std::make_exception_ptr(ServiceError(
          ErrorCode::kThrottled,
          "throttled: QoS wait queue full for " + gate_vol->tenant)));
    }
  }

  /// Run `fn(Volume&)` on every open volume as a bypass-gate task and hand
  /// each result to `sink(Volume&, result)` on the calling thread. Volumes
  /// are grouped by current shard and gathered one shard at a time — the
  /// next shard's tasks are submitted only once the previous shard's
  /// finished — so a slow shard delays only the gathering, never the other
  /// shards. Tasks route through run_on, so a volume that migrates
  /// mid-gather is still visited exactly once; one closed while its task
  /// was queued is skipped.
  template <typename Fn, typename Sink>
  void gather_by_shard(Fn fn, Sink sink) {
    std::vector<std::vector<std::shared_ptr<Volume>>> by_shard(pool_.size());
    {
      std::lock_guard lock(mu_);
      std::shared_lock rlock(routing_mu_);
      for (const auto& [name, vol] : volumes_)
        by_shard[vol->shard.load(std::memory_order_relaxed)].push_back(vol);
    }
    for (const auto& group : by_shard) {
      std::vector<std::future<std::invoke_result_t<Fn&, Volume&>>> futs;
      futs.reserve(group.size());
      for (const auto& vol : group) {
        futs.push_back(run_on(vol, fn, /*background=*/false, 0, 0,
                              /*bypass_gate=*/true));
      }
      for (std::size_t i = 0; i < group.size(); ++i) {
        try {
          sink(*group[i], futs[i].get());
        } catch (const std::logic_error&) {
          // Closed while the task was queued — skip it.
        }
      }
    }
  }

  // --- group-commit WAL pipeline (shard-thread state) ----------------------

  /// One shard's pending durability window. Touched only on that shard's
  /// worker thread (the flush task runs there too), so no locking.
  struct ShardCommit {
    bool flush_scheduled = false;
    std::uint64_t window_deadline_micros = 0;
    struct PendingAck {
      std::shared_ptr<Volume> vol;
      DoneFn done;
    };
    std::vector<PendingAck> pending;
  };

  /// Shard-thread query / maintenance pass with its stats accounting.
  std::vector<core::BackrefEntry> timed_query(Volume& v, const QueryRange& r);
  core::MaintenanceStats timed_maintain(Volume& v);

  /// Shard-thread bookkeeping of one update batch of `ops` ops that
  /// started executing at `t0`.
  void record_update_batch(Volume& v, std::size_t ops, std::uint64_t t0);

  /// Shard-thread body of apply_batch(), one for both durability modes:
  /// fail fast if wounded, apply the batch through apply_many, record it,
  /// then ack at once (no WAL, or an empty batch) or append it to the
  /// volume's WAL and either sync inline (window 0) or park `done` in the
  /// shard's group-commit window.
  void apply_on_shard(const std::shared_ptr<Volume>& vol,
                      std::span<const UpdateOp> batch, DoneFn done);

  /// Group-commit flush task of `shard`: runs wal_commit_now as soon as the
  /// shard has nothing else queued, or at the window deadline, whichever
  /// comes first; until then it resubmits itself so queued appends run
  /// ahead of the sweep and ride it.
  void wal_flush_shard(std::size_t shard);

  /// The sweep itself, shard-thread-only and idempotent: fsyncs every
  /// distinct dirty volume's WAL once and delivers the pending acks (a
  /// volume whose sync failed is wounded and its acks carry kWounded).
  /// Also called directly by migrate_volume's drain barrier, so no ack can
  /// still reference a volume after its ownership moves to another shard.
  void wal_commit_now(std::size_t shard);

  /// fsync `v`'s WAL and count it; false if the sync (or the fault point
  /// after it) threw.
  bool sync_wal(Volume& v);

  /// Flip `v` read-only after its WAL `what` failed (idempotent: the first
  /// cause is reported and counted once), then fail `done` with kWounded.
  void wound(Volume& v, const char* what, const DoneFn& done);

  void throw_if_wounded(const Volume& v) const {
    if (v.wounded.load(std::memory_order_relaxed))
      throw ServiceError(ErrorCode::kWounded,
                         "volume is wounded (read-only after write errors): " +
                             v.tenant);
  }

  /// Fire injection point `point` (a util::fault_point index) for `v`;
  /// one pointer test when no registry is attached.
  void inject(std::size_t point, const Volume& v) const {
    if (options_.faults != nullptr) options_.faults->check(point, v.tenant);
  }

  /// Slot of the calling thread in the metrics registry: its shard index on
  /// a worker thread, the extra trailing slot for API/control threads.
  [[nodiscard]] std::size_t metric_slot() const noexcept {
    const std::size_t s = WorkerPool::current_shard();
    return s == WorkerPool::kNoShard ? pool_.size() : s;
  }

  /// Shard-thread end of a traced op's execute stage (see run_on): stamps
  /// the end and returns the span's gate, queue and execute stages, with io
  /// the Env syscall time since `io_before_micros`, clamped to execute.
  TraceSpan end_execute(Volume& v, const TraceCtx& ctx, std::uint64_t t_exec,
                        std::uint64_t io_before_micros) noexcept;

  /// Shard-thread tail of a traced op: pushes the span into this shard's
  /// trace ring (if sampled) and into the slow-op log (if over threshold),
  /// and bumps the trace counters. Never allocates, never blocks.
  void finish_trace(const TraceCtx& ctx, TraceSpan s) noexcept;

  /// finish_trace for a deferred (update) op acked at `t_ack`: its commit
  /// wait runs from the end of execute to the ack (0 when `t_ack` is 0,
  /// the ack fired inside execute) and is recorded in the volume's
  /// commit-wait histogram.
  void finish_deferred_trace(Volume& v, const TraceCtx& ctx, TraceSpan s,
                             std::uint64_t t_ack) noexcept;

  /// Lazily start / stop the QoS pacer thread (drains throttled volumes'
  /// wait queues as tokens refill).
  void ensure_pacer();
  void stop_pacer();
  void pacer_loop();

  /// Per-hosted-volume BacklogOptions: the shared defaults plus a fresh
  /// file_tag (globally unique run names) and the shared block cache.
  [[nodiscard]] core::BacklogOptions volume_db_options();

  /// Constructor helper: remove `*.cloning` staging directories left by a
  /// clone that crashed before its commit rename. Their runs are hard links,
  /// so removing them only drops the staging directory's references.
  void recover_clone_staging();

  /// Delete a closed volume's directory, file by file: a run's last link
  /// takes its cached pages with it, a run still linked elsewhere keeps
  /// them. Used by destroy_volume and by clone_volume's committed-directory
  /// cleanup.
  void release_directory(const std::filesystem::path& dir);

  /// All trace/slow-op spans of one shard, owned (written and read) only on
  /// that shard's thread — scrapes run as tasks on the shard.
  struct ShardTelemetry {
    TraceRing ring;
    TraceRing slow;
    ShardTelemetry(std::size_t ring_cap, std::size_t slow_cap)
        : ring(ring_cap), slow(slow_cap) {}
  };

  /// trace_spans()/slow_ops() implementation: per-shard ring snapshots,
  /// merged and sorted by submit time.
  [[nodiscard]] std::vector<TraceSpan> gather_spans(bool slow);

  /// Pre-resolved handles of the service-wide families (wired once in the
  /// constructor; see the metric catalog in README "Observability"). The
  /// per-tenant series live on each Volume instead.
  struct HotMetrics {
    MetricsRegistry::Counter* trace_spans = nullptr;
    MetricsRegistry::Counter* trace_evictions = nullptr;
    MetricsRegistry::Counter* slow_ops = nullptr;
    MetricsRegistry::Counter* shard_kills = nullptr;
    MetricsRegistry::Counter* shard_restarts = nullptr;
    MetricsRegistry::Counter* wal_records = nullptr;
    MetricsRegistry::Counter* wal_syncs = nullptr;
    MetricsRegistry::Counter* wal_replayed_ops = nullptr;
    MetricsRegistry::Counter* wal_dropped_bytes = nullptr;
    MetricsRegistry::Counter* volumes_wounded = nullptr;
  };

  ServiceOptions options_;
  // The shared block cache. Declared before volumes_/pool_ so it outlives
  // every hosted Env/BacklogDb that reads through it (members destroy in
  // reverse order; the pool joins first, then volumes_, then this).
  storage::BlockCache block_cache_;
  mutable std::mutex mu_;  // guards volumes_ (name -> volume membership)
  std::map<std::string, std::shared_ptr<Volume>> volumes_;
  // The routing table lock: shared for every task submission, exclusive
  // only for the two brief writes of a migration handoff.
  mutable std::shared_mutex routing_mu_;
  std::atomic<std::uint64_t> next_flow_id_{1};  // 0 = the shared default flow
  std::mutex pacer_mu_;
  std::condition_variable pacer_cv_;
  bool pacer_stop_ = false;
  std::thread pacer_;
  // Observability state. The registry has one slot per shard plus one for
  // API/control threads; telemetry_ is indexed by shard and only touched on
  // that shard's thread.
  MetricsRegistry metrics_;
  TraceControl trace_;
  std::vector<std::unique_ptr<ShardTelemetry>> telemetry_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  HotMetrics hot_;
  // IoStats of every volume already retired (see retire()), so the
  // service total's IoStats never goes down.
  std::mutex retired_mu_;
  storage::IoStats retired_io_;
  // Group-commit windows, one per shard, each touched only on its shard's
  // thread (sized in the constructor, never resized after).
  std::vector<std::unique_ptr<ShardCommit>> commit_;
  // Declared last: ~WorkerPool drains and joins before volumes_ goes away.
  WorkerPool pool_;
};

}  // namespace backlog::service
