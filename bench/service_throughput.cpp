// Multi-tenant service throughput: aggregate update ops/s and p99 query
// latency as a function of shard count and tenant count.
//
// Two sweeps on the same synthetic, skewed workload (tenant i receives a
// 1/sqrt(i+1) share of the op budget, so early tenants are several times
// louder than the tail — the many-tenants-skewed-load scenario):
//
//   (a) shards in {1, 2, 4, 8} at 16 tenants — shard scaling; the service
//       target is >= 2x aggregate throughput from 1 -> 4 shards on a
//       multi-core host (thread-per-shard cannot scale on a single core);
//   (b) tenants in {1, 4, 16, 64} at 4 shards — tenant-density scaling;
//   (c) migration churn at 4 shards / 16 tenants — a churn thread keeps
//       live-migrating every volume around the shard ring while the
//       workload runs, measuring what placement changes cost the p99 query
//       latency (churn period 0 = the no-migration baseline);
//   (d) noisy neighbor at 1 shard — one hot tenant co-located with small
//       victims, with and without a TenantQos on the hog: victim p99 query
//       latency is the isolation metric;
//   (e) balancer A/B at 4 shards — every volume forced onto shard 0, then
//       the same workload with the Balancer off vs on: aggregate ops/s,
//       p99, moves made and the final imbalance metric;
//   (f) clone cost — copy-on-write clone_volume vs the byte-copy fallback
//       (EXDEV armed on env.link, as on a file system that cannot link)
//       across a >= 16x spread of volume sizes: CoW clone latency must
//       be O(metadata), i.e. essentially flat in volume size, while the
//       copy path grows linearly (the speedup column is the headline).
//
// Queries run interleaved with updates (1 per 64 ops) and background
// maintenance is active throughout, so p99 query latency reflects
// query-while-maintenance interference, not an idle system.
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fsim/multi_tenant.hpp"
#include "service/service.hpp"
#include "util/fault_points.hpp"

using namespace backlog;

namespace {

struct ConfigResult {
  std::size_t shards = 0;
  std::size_t tenants = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t queries = 0;
  std::uint64_t maintenance_runs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t churn_period_ms = 0;
  bool pinned = false;
  double wall_seconds = 0;
  double ops_per_second = 0;
  std::uint64_t p99_query_micros = 0;
  std::uint64_t p50_query_micros = 0;
  std::string query_latency_buckets;  ///< "le:count,..." from to_buckets()
};

/// Compact "le:count,le:count,..." encoding of the recorded distribution —
/// the same buckets the Prometheus exporter emits, so offline analysis of a
/// bench capture can recompute any quantile instead of trusting p50/p99.
std::string bucket_string(const service::LatencyHistogram& h) {
  std::string out;
  for (const service::HistogramBucket& b : h.to_buckets()) {
    if (!out.empty()) out += ",";
    out += b.le_micros == UINT64_MAX ? "inf" : std::to_string(b.le_micros);
    out += ':';
    out += std::to_string(b.count);
  }
  return out;
}

ConfigResult run_config(std::size_t shards, std::size_t tenants,
                        std::uint64_t total_ops_budget,
                        std::uint64_t churn_period_ms = 0) {
  storage::TempDir dir("backlog_svc");
  service::ServiceOptions so;
  so.shards = shards;
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = 2000;
  so.sync_writes = false;
  so.pin_shards = true;  // first-come NUMA/core placement; state is reported
  service::VolumeManager vm(so);

  service::MaintenancePolicy policy;
  policy.l0_run_threshold = 24;
  policy.budget_per_sweep = std::max<std::size_t>(1, shards / 2);
  policy.poll_interval = std::chrono::milliseconds(10);
  service::MaintenanceScheduler scheduler(vm, policy);

  // Skewed op budget: share(i) ~ 1/sqrt(i+1).
  std::vector<double> share(tenants);
  double share_sum = 0;
  for (std::size_t i = 0; i < tenants; ++i) {
    share[i] = 1.0 / std::sqrt(static_cast<double>(i + 1));
    share_sum += share[i];
  }

  std::vector<fsim::TenantWorkload> workloads;
  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < tenants; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "tenant-%03zu", i);
    vm.open_volume(name);
    fsim::TenantTraceOptions to;
    to.block_ops = std::max<std::uint64_t>(
        500, static_cast<std::uint64_t>(
                 static_cast<double>(total_ops_budget) * share[i] / share_sum));
    to.remove_fraction = 0.4;
    to.seed = 7000 + i;
    workloads.push_back({name, fsim::synthesize_tenant_trace(to)});
    total_ops += workloads.back().trace.ops.size();
  }

  fsim::ReplayOptions ro;
  ro.batch_ops = 256;
  ro.ops_per_cp = 2000;
  ro.query_every_ops = 64;

  // Migration churn: one placement thread rotates every volume to the next
  // shard each period. Sequential per sweep, so per-volume migrations never
  // overlap; everything else (updates, queries, maintenance) keeps running.
  std::atomic<bool> stop_churn{false};
  std::atomic<std::uint64_t> migrations{0};
  std::thread churn;
  if (churn_period_ms > 0) {
    churn = std::thread([&] {
      while (!stop_churn.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(churn_period_ms));
        for (const auto& wl : workloads) {
          if (stop_churn.load(std::memory_order_acquire)) break;
          try {
            const std::size_t target =
                (vm.current_shard(wl.tenant) + 1) % vm.shard_count();
            if (vm.migrate_volume(wl.tenant, target).moved) {
              migrations.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::exception&) {
            // A volume can be mid-close at shutdown; churn is best-effort.
          }
        }
      }
    });
  }

  // Stop the churn even if the replay throws: a joinable thread at unwind
  // would std::terminate and mask the real failure (and the churn thread
  // must not outlive vm).
  struct ChurnGuard {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~ChurnGuard() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } churn_guard{stop_churn, churn};

  const double t0 = bench::now_seconds();
  const auto results = fsim::replay_concurrently(vm, workloads, ro);
  const double wall = bench::now_seconds() - t0;
  stop_churn.store(true, std::memory_order_release);
  if (churn.joinable()) churn.join();
  scheduler.stop();

  ConfigResult r;
  r.shards = shards;
  r.tenants = tenants;
  r.pinned = vm.shards_pinned();
  r.migrations = migrations.load();
  r.churn_period_ms = churn_period_ms;
  r.total_ops = total_ops;
  r.wall_seconds = wall;
  r.ops_per_second = wall > 0 ? static_cast<double>(total_ops) / wall : 0;
  for (const auto& tr : results) r.queries += tr.queries;
  const service::ServiceStats stats = vm.stats();
  r.maintenance_runs = stats.total.maintenance_runs;
  r.p99_query_micros = stats.total.query_micros.p99();
  r.p50_query_micros = stats.total.query_micros.p50();
  r.query_latency_buckets = bucket_string(stats.total.query_micros);
  return r;
}

void report(const ConfigResult& r) {
  std::printf("%7zu %8zu %10llu %8.2f %12.0f %10llu %10llu %8llu %8llu\n",
              r.shards, r.tenants, static_cast<unsigned long long>(r.total_ops),
              r.wall_seconds, r.ops_per_second,
              static_cast<unsigned long long>(r.p50_query_micros),
              static_cast<unsigned long long>(r.p99_query_micros),
              static_cast<unsigned long long>(r.maintenance_runs),
              static_cast<unsigned long long>(r.migrations));
  bench::JsonRow()
      .str("bench", "service_throughput")
      .num("shards", static_cast<std::uint64_t>(r.shards))
      .num("tenants", static_cast<std::uint64_t>(r.tenants))
      .num("total_ops", r.total_ops)
      .num("wall_seconds", r.wall_seconds)
      .num("ops_per_second", r.ops_per_second)
      .num("p50_query_micros", r.p50_query_micros)
      .num("p99_query_micros", r.p99_query_micros)
      .num("maintenance_runs", r.maintenance_runs)
      .num("queries", r.queries)
      .num("migrations", r.migrations)
      .num("churn_period_ms", r.churn_period_ms)
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .num("pinned", r.pinned ? 1 : 0)
      .str("query_latency_buckets", r.query_latency_buckets)
      .print();
}

void header_row() {
  std::printf("%7s %8s %10s %8s %12s %10s %10s %8s %8s\n", "shards", "tenants",
              "ops", "wall_s", "ops/s", "p50_q_us", "p99_q_us", "maint",
              "migr");
}

// --- sweep (d): noisy neighbor ------------------------------------------------

/// One hot tenant and `victims` small tenants on a single shard; when
/// `qos_on`, the hog is rate-limited (generous wait queue: backpressure
/// without rejections, so the replay completes). Returns via printf/JSONROW.
void run_noisy_neighbor(std::uint64_t budget, bool qos_on) {
  storage::TempDir dir("backlog_nn");
  service::ServiceOptions so;
  so.shards = 1;  // forced co-location: isolation must come from QoS alone
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = 2000;
  service::VolumeManager vm(so);

  fsim::FleetOptions fo;
  fo.tenants = 4;
  fo.total_ops = budget;
  fo.shape = fsim::FleetShape::kHotTenant;
  fo.hot_share = 0.7;
  fo.seed = 11;
  fo.base.remove_fraction = 0.4;
  auto workloads = fsim::synthesize_fleet(fo);
  for (const auto& wl : workloads) vm.open_volume(wl.tenant);
  const std::string hog = workloads[0].tenant;

  if (qos_on) {
    service::TenantQos qos;
    qos.ops_per_sec = static_cast<double>(budget) / 4;  // ~halve the hog
    qos.burst_ops = 2048;
    qos.max_wait_queue = 1 << 20;
    vm.set_qos(hog, qos);
  }

  fsim::ReplayOptions ro;
  ro.batch_ops = 256;
  ro.ops_per_cp = 2000;
  ro.query_every_ops = 32;

  const double t0 = bench::now_seconds();
  const auto results = fsim::replay_concurrently(vm, workloads, ro);
  const double wall = bench::now_seconds() - t0;

  std::uint64_t total_ops = 0;
  for (const auto& r : results) total_ops += r.ops;
  const service::ServiceStats stats = vm.stats();
  // Victim view: merge every tenant but the hog. Queue wait is the
  // isolation metric — execution time is flat either way.
  service::LatencyHistogram victim_q;
  for (const auto& [name, ts] : stats.tenants) {
    if (name != hog) victim_q.merge(ts.queue_wait_micros);
  }
  const std::uint64_t victim_p99 = victim_q.p99();
  const std::uint64_t hog_p99 = stats.tenants.at(hog).queue_wait_micros.p99();
  std::printf("  qos=%d  ops/s %9.0f  victim p99 wait %6llu us  hog p99 wait "
              "%6llu us  throttled %llu\n",
              qos_on ? 1 : 0, wall > 0 ? total_ops / wall : 0,
              static_cast<unsigned long long>(victim_p99),
              static_cast<unsigned long long>(hog_p99),
              static_cast<unsigned long long>(stats.total.throttle_queued));
  bench::JsonRow()
      .str("bench", "service_noisy_neighbor")
      .num("qos", qos_on ? 1 : 0)
      .num("total_ops", total_ops)
      .num("wall_seconds", wall)
      .num("ops_per_second", wall > 0 ? total_ops / wall : 0)
      .num("victim_p99_wait_micros", victim_p99)
      .num("hog_p99_wait_micros", hog_p99)
      .num("throttle_queued", stats.total.throttle_queued)
      .num("throttle_rejected", stats.total.throttle_rejected)
      .print();
}

// --- sweep (e): balancer A/B --------------------------------------------------

void run_balancer_ab(std::uint64_t budget, bool balancer_on) {
  storage::TempDir dir("backlog_bal");
  service::ServiceOptions so;
  so.shards = 4;
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = 2000;
  service::VolumeManager vm(so);

  fsim::FleetOptions fo;
  fo.tenants = 12;
  fo.total_ops = budget;
  fo.seed = 23;
  fo.base.remove_fraction = 0.4;
  auto workloads = fsim::synthesize_fleet(fo);
  for (const auto& wl : workloads) {
    vm.open_volume(wl.tenant);
    // Worst-case initial placement: everything on shard 0.
    vm.migrate_volume(wl.tenant, 0);
  }

  service::BalancerPolicy bp;
  bp.poll_interval = std::chrono::milliseconds(20);
  bp.cooldown = std::chrono::milliseconds(200);
  bp.max_moves_per_cycle = 2;
  service::Balancer balancer(vm, bp);
  if (balancer_on) balancer.start();

  fsim::ReplayOptions ro;
  ro.batch_ops = 256;
  ro.ops_per_cp = 2000;
  ro.query_every_ops = 64;

  const double t0 = bench::now_seconds();
  const auto results = fsim::replay_concurrently(vm, workloads, ro);
  const double wall = bench::now_seconds() - t0;
  balancer.stop();

  std::uint64_t total_ops = 0;
  for (const auto& r : results) total_ops += r.ops;
  const service::ServiceStats stats = vm.stats();
  const std::uint64_t p99 = stats.total.query_micros.p99();
  std::printf("  balancer=%d  ops/s %9.0f  p99 %6llu us  moves %llu"
              "  imbalance %.3f\n",
              balancer_on ? 1 : 0, wall > 0 ? total_ops / wall : 0,
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(balancer.moves()),
              balancer.last_imbalance());
  bench::JsonRow()
      .str("bench", "service_balancer_ab")
      .num("balancer", balancer_on ? 1 : 0)
      .num("total_ops", total_ops)
      .num("wall_seconds", wall)
      .num("ops_per_second", wall > 0 ? total_ops / wall : 0)
      .num("p99_query_micros", p99)
      .num("balancer_moves", balancer.moves())
      .num("final_imbalance", balancer.last_imbalance())
      .print();
}

// --- sweep (g): pure-dispatch (no-op) microbench ------------------------------

/// Isolates the queue-boundary overhead the batching work attacks: `total`
/// no-op "ops" are pushed through a 1-shard WorkerPool either as one task
/// per op (every op crosses the queue alone) or as one task per `batch` ops
/// (the apply_batch shape: the crossing is amortized). The op body is a
/// relaxed counter increment, so the measured per-op nanos are almost
/// purely enqueue + dequeue + type-erasure cost — no BacklogDb work. The
/// regression gate holds the single/batched ratio (>= 3x), which is
/// machine-independent.
void run_dispatch_overhead(std::uint64_t total, std::size_t batch) {
  const std::size_t per_task = batch == 0 ? 1 : batch;
  const std::uint64_t tasks = total / per_task;
  std::atomic<std::uint64_t> done{0};

  const double t0 = bench::now_seconds();
  double wall = 0;
  {
    service::WorkerPool pool(1, /*bg_starvation_limit=*/8);
    // Windowed backpressure: fence every 4096 tasks so the queue depth
    // stays bounded — an unbounded producer would balloon the ring to the
    // full op count and the measurement would charge ring growth (and at
    // paper scale, hundreds of MB) to "dispatch overhead".
    constexpr std::uint64_t kWindow = 4096;
    for (std::uint64_t submitted = 0; submitted < tasks;) {
      const std::uint64_t window = std::min(kWindow, tasks - submitted);
      for (std::uint64_t i = 0; i < window; ++i) {
        pool.submit(0, [&done, per_task] {
          for (std::size_t j = 0; j < per_task; ++j)
            done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      submitted += window;
      // Sentinel after the flow-0 FIFO: its future resolving means every
      // prior task of the window ran.
      std::promise<void> fence;
      std::future<void> fenced = fence.get_future();
      pool.submit(0, [&fence] { fence.set_value(); });
      fenced.get();
    }
    wall = bench::now_seconds() - t0;
  }

  const std::uint64_t ops = tasks * per_task;
  const double nanos_per_op =
      ops > 0 ? wall * 1e9 / static_cast<double>(ops) : 0;
  std::printf("  mode=%-7s ops %10llu  tasks %10llu  wall %6.3f s  "
              "%8.1f ns/op\n",
              per_task == 1 ? "single" : "batched",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(tasks), wall, nanos_per_op);
  bench::JsonRow()
      .str("bench", "service_dispatch")
      .str("mode", per_task == 1 ? "single" : "batched")
      .num("ops", ops)
      .num("batch", static_cast<std::uint64_t>(per_task))
      .num("wall_seconds", wall)
      .num("nanos_per_op", nanos_per_op)
      .print();
}

// --- sweep (f): clone cost — CoW vs full copy ---------------------------------

/// Builds one `src` volume of ~`ops` block operations (committed and
/// compacted, so the durable state is settled), then measures clone_volume;
/// `cow` false arms EXDEV on env.link, so every run takes the byte-copy
/// fallback. CoW clones are timed as the min of three clone+destroy rounds
/// (the operation is sub-millisecond; min-of-3 shields the flatness signal
/// from scheduler noise); the full copy is timed once.
double measure_clone_micros(std::uint64_t ops, bool cow,
                            std::uint64_t* db_bytes_out,
                            std::uint64_t* shared_bytes_out) {
  storage::TempDir dir("backlog_clone");
  service::ServiceOptions so;
  so.shards = 2;
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = 2000;
  so.sync_writes = false;
  util::FaultPoints faults;
  if (!cow) faults.arm("env.link", util::FaultAction::fail(EXDEV));
  so.faults = cow ? nullptr : &faults;
  service::VolumeManager vm(so);
  vm.open_volume("src");

  std::uint64_t next_block = 1;
  while (next_block <= ops) {
    std::vector<service::UpdateOp> batch;
    for (int i = 0; i < 2000 && next_block <= ops; ++i) {
      service::UpdateOp op;
      op.kind = service::UpdateOp::Kind::kAdd;
      op.key.block = next_block++;
      op.key.inode = 2;
      op.key.length = 1;
      batch.push_back(op);
    }
    vm.apply_batch("src", std::move(batch)).get();
    vm.consistency_point("src").get();
  }
  vm.maintain("src").get();
  const core::Epoch snap = vm.take_snapshot("src").get();
  if (db_bytes_out != nullptr)
    *db_bytes_out = vm.quick_stats("src").get().db_bytes;

  double best = 0;
  const int rounds = cow ? 3 : 1;
  for (int r = 0; r < rounds; ++r) {
    const std::string dst = "dst" + std::to_string(r);
    const double t0 = bench::now_seconds();
    vm.clone_volume("src", dst, 0, snap);
    const double micros = (bench::now_seconds() - t0) * 1e6;
    if (r == 0 || micros < best) best = micros;
    if (shared_bytes_out != nullptr && r == 0) {
      *shared_bytes_out = vm.shared_file_stats().shared_bytes;
    }
    vm.destroy_volume(dst);
  }
  return best;
}

void run_clone_cost(const std::vector<std::uint64_t>& sizes) {
  std::printf("%10s %12s %14s %14s %9s %8s\n", "ops", "db_bytes",
              "cow_us", "copy_us", "speedup", "shared%");
  double cow_min = 0, cow_max = 0, largest_speedup = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint64_t ops = sizes[i];
    std::uint64_t db_bytes = 0, shared_bytes = 0;
    const double cow_us = measure_clone_micros(ops, /*cow=*/true, &db_bytes,
                                               &shared_bytes);
    const double copy_us =
        measure_clone_micros(ops, /*cow=*/false, nullptr, nullptr);
    const double speedup = cow_us > 0 ? copy_us / cow_us : 0;
    const double shared_ratio =
        db_bytes > 0 ? static_cast<double>(shared_bytes) /
                           static_cast<double>(db_bytes)
                     : 0;
    std::printf("%10llu %12llu %14.0f %14.0f %8.1fx %7.0f%%\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(db_bytes), cow_us, copy_us,
                speedup, shared_ratio * 100);
    bench::JsonRow()
        .str("bench", "service_clone_cost")
        .num("ops", ops)
        .num("db_bytes", db_bytes)
        .num("clone_micros_cow", cow_us)
        .num("clone_micros_copy", copy_us)
        .num("speedup", speedup)
        .num("shared_bytes", shared_bytes)
        .num("shared_ratio", shared_ratio)
        .print();
    if (i == 0) cow_min = cow_max = cow_us;
    cow_min = std::min(cow_min, cow_us);
    cow_max = std::max(cow_max, cow_us);
    if (i + 1 == sizes.size()) largest_speedup = speedup;
  }
  std::printf(
      "\nCoW clone flatness across %.0fx size spread: %.2fx (target <= 2x); "
      "speedup at largest size: %.1fx (target >= 10x)\n",
      static_cast<double>(sizes.back()) / static_cast<double>(sizes.front()),
      cow_min > 0 ? cow_max / cow_min : 0, largest_speedup);
}

}  // namespace

int main() {
  const bench::Scale scale = bench::Scale::from_env();
  bench::print_header(
      "service_throughput — multi-tenant volume service scaling",
      "new scenario axis (no paper counterpart): shard + tenant scaling",
      scale);
  {
    // One throwaway pool answers "did pinning take?" for the header line
    // (run_config reports the same state per row).
    service::WorkerPool probe(1, 8, /*pin_threads=*/true);
    std::printf("host hardware concurrency: %u, shard pinning: %s\n\n",
                std::thread::hardware_concurrency(),
                probe.pinned() ? "on" : "off (unsupported platform)");
  }

  // Per-sweep op budget; BACKLOG_BENCH_SCALE=1 restores the full size.
  const std::uint64_t budget = 4096000 / scale.divisor;

  std::printf("sweep (a): shards at 16 tenants, %llu total ops\n",
              static_cast<unsigned long long>(budget));
  header_row();
  double ops_1_shard = 0, ops_4_shards = 0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const ConfigResult r = run_config(shards, 16, budget);
    report(r);
    if (shards == 1) ops_1_shard = r.ops_per_second;
    if (shards == 4) ops_4_shards = r.ops_per_second;
  }
  if (ops_1_shard > 0) {
    std::printf("\n1 -> 4 shard speedup: %.2fx (gated >= 2x on >= 4 cores)\n",
                ops_4_shards / ops_1_shard);
  }

  std::printf("\nsweep (b): tenants at 4 shards\n");
  header_row();
  for (const std::size_t tenants : {1u, 4u, 16u, 64u}) {
    report(run_config(4, tenants, budget));
  }

  std::printf(
      "\nsweep (c): migration churn at 4 shards / 16 tenants "
      "(period 0 = no churn baseline)\n");
  header_row();
  std::uint64_t p99_baseline = 0, p99_churn = 0;
  for (const std::uint64_t period_ms : {0ull, 50ull, 10ull}) {
    const ConfigResult r = run_config(4, 16, budget, period_ms);
    report(r);
    if (period_ms == 0) p99_baseline = r.p99_query_micros;
    if (period_ms == 10) p99_churn = r.p99_query_micros;
  }
  if (p99_baseline > 0) {
    std::printf("\np99 query latency under 10 ms churn: %llu us vs %llu us "
                "baseline (%.2fx)\n",
                static_cast<unsigned long long>(p99_churn),
                static_cast<unsigned long long>(p99_baseline),
                static_cast<double>(p99_churn) /
                    static_cast<double>(p99_baseline));
  }

  std::printf(
      "\nsweep (d): noisy neighbor at 1 shard, hot tenant with/without QoS\n");
  run_noisy_neighbor(budget / 4, /*qos_on=*/false);
  run_noisy_neighbor(budget / 4, /*qos_on=*/true);

  std::printf(
      "\nsweep (e): balancer A/B at 4 shards, all volumes starting on shard "
      "0\n");
  run_balancer_ab(budget / 2, /*balancer_on=*/false);
  run_balancer_ab(budget / 2, /*balancer_on=*/true);

  std::printf(
      "\nsweep (f): clone cost — copy-on-write vs full copy over a 16x "
      "volume-size spread\n");
  run_clone_cost({budget / 16, budget / 4, budget});

  std::printf(
      "\nsweep (g): pure-dispatch microbench — queue overhead per op, one "
      "task per op vs one task per 256 ops\n");
  run_dispatch_overhead(budget, /*batch=*/1);
  run_dispatch_overhead(budget, /*batch=*/256);
  return 0;
}
