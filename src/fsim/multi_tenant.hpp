// Multi-volume workload driver for the service layer (the service-side
// counterpart of fsim): synthesizes per-tenant block-operation traces and
// replays them *concurrently* against a VolumeManager, one feeder thread per
// tenant, with batched updates, the paper's CP cadence, and optional
// interleaved owner queries.
//
// Traces are deterministic (seeded) and carry their own ground truth: the
// set of references still live when the trace ends, which the service tests
// verify against scan_all() after concurrent replay + background
// maintenance. Write-anywhere discipline is preserved per tenant — block
// numbers are allocated monotonically, a remove always targets a previously
// added extent, and a key is never re-added while live.
//
// Traces can additionally carry snapshot-lifecycle and placement events:
// take a snapshot of the writable line, branch a writable clone off the
// latest snapshot (subsequent adds then target the new line), or live-
// migrate the volume to another shard mid-trace. Events ride at fixed op
// positions so replays are reproducible, and the ground truth stays exact:
// live_keys records each add under the line it targeted, and the final line
// and snapshot counts are precomputed for verification.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backref_record.hpp"
#include "service/volume_manager.hpp"

namespace backlog::fsim {

struct TenantTraceOptions {
  std::uint64_t block_ops = 20000;       ///< add + remove ops in the trace
  double remove_fraction = 0.45;         ///< probability an op removes a live ref
  std::uint64_t max_extent_blocks = 4;   ///< extent lengths drawn from [1, this]
  std::uint64_t inodes = 512;            ///< synthetic inode population
  std::uint64_t seed = 1;

  /// Snapshot the writable line every N ops (0 = never).
  std::uint64_t snapshot_every_ops = 0;
  /// Branch a writable clone off the latest snapshot every N ops and switch
  /// subsequent adds to the new line (0 = never). Clone events are skipped
  /// until the writable line has at least one snapshot, so enabling clones
  /// without snapshots yields none.
  std::uint64_t clone_every_ops = 0;
  /// Live-migrate the volume to the next shard (round-robin) every N ops
  /// (0 = never).
  std::uint64_t migrate_every_ops = 0;
};

/// A snapshot-lifecycle or placement event at a fixed position in the trace.
struct TraceEvent {
  enum class Kind : std::uint8_t { kSnapshot, kClone, kMigrate };
  Kind kind = Kind::kSnapshot;
  std::uint64_t at_op = 0;   ///< fires before trace.ops[at_op] is applied
  core::LineId line = 0;     ///< snapshot target / clone parent line
};

/// One tenant's trace plus its ground truth.
struct TenantTrace {
  std::vector<service::UpdateOp> ops;
  /// References added and never removed: exactly the records that must be
  /// live (to == infinity) after the full trace has been replayed, across
  /// all lines the trace wrote to.
  std::vector<core::BackrefKey> live_keys;
  /// Events in at_op order (empty unless the options enable them).
  std::vector<TraceEvent> events;
  /// Lines the volume ends with (1 + clones taken); clone events create
  /// lines 1, 2, ... in order, which replay asserts against the service.
  std::uint64_t lines = 1;
  std::uint64_t snapshots = 0;  ///< snapshot events in the trace
};

TenantTrace synthesize_tenant_trace(const TenantTraceOptions& options);

struct ReplayOptions {
  std::size_t batch_ops = 256;      ///< ops per apply_batch() call
  std::uint64_t ops_per_cp = 2000;  ///< consistency point every N ops
  /// Issue one owner query per N ops against a recently touched block
  /// (0 = no queries). Queries are verified to return at least one entry.
  std::uint64_t query_every_ops = 0;
  /// Take a final consistency point when the trace is exhausted.
  bool final_cp = true;
};

struct TenantReplayResult {
  std::string tenant;
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t cps = 0;
  std::uint64_t queries = 0;
  std::uint64_t empty_query_results = 0;  ///< queries on a live block with no hit
  std::uint64_t snapshots = 0;            ///< take_snapshot verbs issued
  std::uint64_t clones = 0;               ///< lines branched
  std::uint64_t migrations = 0;           ///< completed live migrations
  std::uint64_t migrations_skipped = 0;   ///< trace migrations lost to races
  double wall_seconds = 0;
};

struct TenantWorkload {
  std::string tenant;
  TenantTrace trace;
  /// Burst pacing: after every `pause_every_ops` trace ops the feeder
  /// sleeps for `pause` (0 = feed as fast as the service admits). Pacing
  /// shapes arrival times only; the trace and its ground truth are
  /// unchanged.
  std::uint64_t pause_every_ops = 0;
  std::chrono::microseconds pause{0};
};

/// Fleet shapes for multi-tenant scenarios. Every tenant's trace still
/// carries its own exact ground truth (live_keys), whatever the shape.
enum class FleetShape : std::uint8_t {
  kUniform,    ///< every tenant gets total_ops / tenants
  kHotTenant,  ///< tenant 0 gets hot_share of the budget (noisy neighbor)
  kBursty,     ///< uniform budget, but feeders emit bursts separated by idle
};

struct FleetOptions {
  std::size_t tenants = 8;
  std::uint64_t total_ops = 80000;
  FleetShape shape = FleetShape::kUniform;
  /// kHotTenant: tenant 0's share of total_ops, in (0, 1).
  double hot_share = 0.5;
  /// kBursty: ops per burst and the idle gap between bursts.
  std::uint64_t burst_ops = 512;
  std::chrono::microseconds burst_pause{2000};
  std::uint64_t seed = 1;
  /// Trace knobs shared by every tenant (block_ops/seed are overridden).
  TenantTraceOptions base{};
  std::string name_prefix = "tenant-";
};

/// Synthesize one workload per tenant under the given shape; volume names
/// are `<prefix>000`, `<prefix>001`, …
std::vector<TenantWorkload> synthesize_fleet(const FleetOptions& options);

/// Replays every workload concurrently (one feeder thread per tenant).
/// Volumes must already be open. Backpressure: each feeder waits for its
/// tenant's consistency-point future before starting the next CP window, so
/// at most one CP window of work per tenant is in flight. Snapshot/clone/
/// migrate events execute inline on the feeder; a trace migration that
/// loses a race with another placement actor (e.g. a running Balancer has
/// the volume's handoff in flight) is skipped and counted in
/// migrations_skipped rather than failing the replay. Exceptions raised by
/// any service future propagate out of this call.
std::vector<TenantReplayResult> replay_concurrently(
    service::VolumeManager& vm, const std::vector<TenantWorkload>& workloads,
    const ReplayOptions& options = {});

}  // namespace backlog::fsim
