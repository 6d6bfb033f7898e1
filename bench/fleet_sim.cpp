// fleet_sim — the fleet-scale scenario harness: open-loop load, per-tenant
// SLO gates, and chaos-under-verification.
//
// Open loop: the arrival schedule (Poisson gaps, Zipf tenant selection; see
// src/fsim/fleet_sim.hpp) is fixed up front and the dispatcher submits each
// batch at its scheduled instant without waiting for earlier work, so under
// overload the backlog grows inside the service, where the queue-wait
// histograms measure it — instead of silently slowing the driver down
// (coordinated omission).
//
// Calibration: "quiet" and "overload" are defined relative to the machine,
// not in absolute ops/s. A short closed-loop burst measures the service's
// capacity C, then the scenario offers `util * C` ops/s (quiet: util 0.25;
// overload: util 2.5 — 10x quiet, and >1 by a wide margin, so the queue
// grows for the whole scenario and p99 queue-wait approaches the scenario
// duration on any host). Pass --rate to skip calibration.
//
// Chaos mode (--chaos / --scenario chaos) runs, underneath the open-loop
// traffic: a ground-truth verifier fleet (synthesize_fleet +
// replay_concurrently, exact live_keys checked at the end), repeated shard
// worker kill/restart, forced explicit migrations, an aggressive Balancer,
// and snapshot/clone/destroy churn on dedicated volumes. Chaos also runs
// the full durability pipeline (group-commit WAL on every volume) and adds
// two rounds on top of the random kills, both through the fault registry
// (util/fault_points.hpp): shard kills landed exactly when a shard passes
// an armed wal.* or cp.* point (the points the crash matrix forks at), and
// a wounded-volume round that arms a sticky EIO append failure on one
// dedicated volume, checks the degradation is graceful (writes fail with
// typed kWounded, reads keep serving), then heals it by disarming and
// reopening. The binary exits non-zero if the verifier diverges,
// any operation is dropped, or a wounded-volume check fails.
//
// Output: one JSONROW per QoS class (`row":"slo"`) plus config/fleet/chaos
// rows; tools/check_slo.py turns them into the CI gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fsim/fleet_sim.hpp"
#include "fsim/multi_tenant.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/clock.hpp"
#include "util/fault_points.hpp"
#include "util/random.hpp"

namespace {

namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bfs = backlog::fsim;
namespace bench = backlog::bench;
namespace util = backlog::util;

struct Config {
  std::string scenario = "quiet";  // quiet | overload | chaos
  std::size_t tenants = 96;
  std::size_t shards = 4;
  double duration_s = 2.0;
  double util = 0.0;        // 0 = scenario default
  double rate = 0.0;        // arrivals/s; 0 = calibrate
  std::size_t batch = 128;  // update ops per arrival
  double zipf_alpha = 1.1;
  std::uint64_t seed = 1;
  bool chaos = false;
  bool selftest_json = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario quiet|overload|chaos] [--chaos]\n"
      "          [--tenants N] [--shards N] [--duration-s X] [--util X]\n"
      "          [--rate ARRIVALS_PER_S] [--batch N] [--zipf-alpha X]\n"
      "          [--seed N] [--selftest-json]\n",
      argv0);
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config c;
  auto need = [&](int i) {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--scenario") == 0) {
      c.scenario = need(i++);
    } else if (std::strcmp(a, "--chaos") == 0) {
      c.scenario = "chaos";
    } else if (std::strcmp(a, "--tenants") == 0) {
      c.tenants = static_cast<std::size_t>(std::atoll(need(i++)));
    } else if (std::strcmp(a, "--shards") == 0) {
      c.shards = static_cast<std::size_t>(std::atoll(need(i++)));
    } else if (std::strcmp(a, "--duration-s") == 0) {
      c.duration_s = std::atof(need(i++));
    } else if (std::strcmp(a, "--util") == 0) {
      c.util = std::atof(need(i++));
    } else if (std::strcmp(a, "--rate") == 0) {
      c.rate = std::atof(need(i++));
    } else if (std::strcmp(a, "--batch") == 0) {
      c.batch = static_cast<std::size_t>(std::atoll(need(i++)));
    } else if (std::strcmp(a, "--zipf-alpha") == 0) {
      c.zipf_alpha = std::atof(need(i++));
    } else if (std::strcmp(a, "--seed") == 0) {
      c.seed = static_cast<std::uint64_t>(std::atoll(need(i++)));
    } else if (std::strcmp(a, "--selftest-json") == 0) {
      c.selftest_json = true;
    } else {
      usage(argv[0]);
    }
  }
  if (c.scenario != "quiet" && c.scenario != "overload" &&
      c.scenario != "chaos") {
    usage(argv[0]);
  }
  c.chaos = c.scenario == "chaos";
  if (c.util <= 0.0) {
    c.util = c.scenario == "overload" ? 2.5 : c.scenario == "chaos" ? 0.4
                                                                    : 0.25;
  }
  if (c.tenants == 0 || c.shards == 0 || c.batch == 0 || c.duration_s <= 0) {
    usage(argv[0]);
  }
  return c;
}

std::string tenant_name(std::size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "t%05zu", i);
  return buf;
}

/// Parse the index back out of an open-loop tenant name ("t00042"), for
/// classifying stats() rows; nullopt for verifier/churn volumes.
std::optional<std::size_t> tenant_index(const std::string& name) {
  if (name.size() < 2 || name[0] != 't') return std::nullopt;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
  }
  return static_cast<std::size_t>(std::atoll(name.c_str() + 1));
}

/// Per-tenant open-loop op source: monotonically increasing block numbers
/// (write-anywhere discipline), adds only — the verifier fleet covers
/// remove/snapshot semantics; this stream exists to apply load.
struct TenantState {
  std::uint64_t next_block = 0;
  std::uint64_t arrivals = 0;
};

std::vector<bsvc::UpdateOp> make_batch(TenantState& st, std::size_t ops) {
  std::vector<bsvc::UpdateOp> batch;
  batch.reserve(ops);
  for (std::size_t k = 0; k < ops; ++k) {
    bsvc::UpdateOp op;
    op.kind = bsvc::UpdateOp::Kind::kAdd;
    op.key.block = st.next_block++;
    op.key.inode = 1 + (op.key.block % 97);
    op.key.offset = op.key.block;
    op.key.length = 1;
    batch.push_back(op);
  }
  return batch;
}

/// Unbounded future sinks drained by reaper threads, so the dispatcher
/// never blocks on completion (that would close the loop). Every future is
/// eventually .get(): an exception anywhere counts as a dropped op.
class Reaper {
 public:
  void put(std::future<void> f) {
    std::lock_guard<std::mutex> lk(mu_);
    q_.push_back(std::move(f));
    cv_.notify_one();
  }

  void run() {
    for (;;) {
      std::future<void> f;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return !q_.empty() || done_; });
        if (q_.empty()) return;
        f = std::move(q_.front());
        q_.pop_front();
      }
      try {
        f.get();
        completed_.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        const auto n = dropped_.fetch_add(1, std::memory_order_relaxed);
        if (n < 5) std::fprintf(stderr, "dropped op: %s\n", e.what());
      }
    }
  }

  void finish() {
    std::lock_guard<std::mutex> lk(mu_);
    done_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::future<void>> q_;
  bool done_ = false;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Wrap any future type into future<void> for the reaper (the result values
/// themselves are not interesting to the load generator).
template <typename T>
std::future<void> discard_value(std::future<T> f) {
  return std::async(std::launch::deferred,
                    [f = std::move(f)]() mutable { f.get(); });
}

/// Closed-loop capacity probe: feed `batch`-sized apply_batch rounds across
/// every tenant with a bounded in-flight window for ~250 ms and report the
/// sustained update ops/s. The same op generator as the open-loop phase, so
/// the capacity estimate matches the offered workload's shape.
double calibrate_capacity(bsvc::VolumeManager& vm,
                          std::vector<TenantState>& states,
                          const Config& cfg) {
  constexpr std::size_t kWindow = 32;
  const double t0 = bench::now_seconds();
  std::deque<std::future<void>> inflight;
  std::uint64_t ops = 0;
  std::size_t t = 0;
  while (bench::now_seconds() - t0 < 0.25) {
    while (inflight.size() >= kWindow) {
      inflight.front().get();
      inflight.pop_front();
    }
    inflight.push_back(
        vm.apply_batch(tenant_name(t), make_batch(states[t], cfg.batch)));
    ops += cfg.batch;
    t = (t + 1) % cfg.tenants;
  }
  while (!inflight.empty()) {
    inflight.front().get();
    inflight.pop_front();
  }
  const double secs = bench::now_seconds() - t0;
  return static_cast<double>(ops) / secs;
}

struct ChaosCounters {
  std::atomic<std::uint64_t> kills{0};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> forced_migrations{0};
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> clones{0};
  std::atomic<std::uint64_t> destroys{0};
  std::atomic<std::uint64_t> wal_point_kills{0};
  std::atomic<std::uint64_t> wounds{0};
  std::atomic<std::uint64_t> heals{0};
  /// Graceful-degradation invariant violations observed live: a wounded
  /// volume whose write did NOT fail kWounded, whose read failed, or whose
  /// reopen did not heal it. Any nonzero fails the run.
  std::atomic<std::uint64_t> wound_failures{0};
};

/// The chaos actor's fault registry, and the shard its one-shot kill-switch
/// action last fired on (the action runs on the shard thread, so
/// WorkerPool::current_shard() names it). Outlives the VolumeManager.
struct ChaosFaults {
  util::FaultPoints points;
  std::atomic<std::size_t> hit_shard{bsvc::WorkerPool::kNoShard};
};

/// The chaos actor: kill/restart a shard (randomly timed and again at an
/// armed WAL injection point), force an explicit migration, churn a
/// snapshot+clone+destroy cycle, and wound/heal a dedicated volume —
/// repeatedly, until told to stop. Runs on its own thread; every action is
/// synchronous here (the *service* must stay asynchronous under it, not the
/// actor).
void chaos_loop(bsvc::VolumeManager& vm, const Config& cfg,
                std::atomic<bool>& stop, ChaosCounters& counters,
                ChaosFaults& faults) {
  util::Rng rng(cfg.seed ^ 0xc4a05u);
  // The durability pipeline's points, as the crash matrix forks on them.
  std::vector<std::string_view> kill_points;
  for (const std::string_view p : util::kFaultPoints) {
    if (p.starts_with("wal.") || p.starts_with("cp.")) kill_points.push_back(p);
  }
  std::deque<std::string> churn_clones;
  std::uint64_t churn_seq = 0;
  // Monotonic across rounds: blocks consumed by a refused (wounded) batch
  // are never reused, so reopen-recovered state never sees a duplicate add.
  TenantState wound_st;
  while (!stop.load(std::memory_order_acquire)) {
    // 1. Kill a shard, leave it dead briefly, bring it back. Tasks routed
    // there accumulate in the open queue and drain on restart.
    const auto victim = static_cast<std::size_t>(rng.below(cfg.shards));
    if (vm.kill_shard(victim)) {
      counters.kills.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      vm.restart_shard(victim);
      counters.restarts.fetch_add(1, std::memory_order_relaxed);
    }
    if (stop.load(std::memory_order_acquire)) break;
    // 1b. Kill at a durability point: arm one of the pipeline's ordering
    // points and kill whichever shard trips it — the worker dies at its next
    // chunk boundary with open group-commit windows / a mid-flight CP, and
    // restart must still deliver every parked ack (the reaper counts any
    // loss as a dropped op).
    {
      const std::string_view point =
          kill_points[rng.below(kill_points.size())];
      faults.hit_shard.store(bsvc::WorkerPool::kNoShard,
                             std::memory_order_release);
      const util::FaultPoints::Id kill = faults.points.arm(
          point, util::FaultAction::call([&faults] {
                   faults.hit_shard.store(bsvc::WorkerPool::current_shard(),
                                          std::memory_order_release);
                 }).once());
      std::size_t shard = bsvc::WorkerPool::kNoShard;
      for (int spins = 0;
           spins < 150 && !stop.load(std::memory_order_acquire); ++spins) {
        shard = faults.hit_shard.load(std::memory_order_acquire);
        if (shard != bsvc::WorkerPool::kNoShard) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      faults.points.disarm(kill);
      if (shard < cfg.shards && vm.kill_shard(shard)) {
        counters.kills.fetch_add(1, std::memory_order_relaxed);
        counters.wal_point_kills.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        vm.restart_shard(shard);
        counters.restarts.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (stop.load(std::memory_order_acquire)) break;
    // 2. Forced explicit migration of a random open-loop tenant (not
    // require_clean: mid-window volumes get a forced consistency point,
    // exactly the disruptive case).
    const auto mover = static_cast<std::size_t>(rng.below(cfg.tenants));
    const auto target = static_cast<std::size_t>(rng.below(cfg.shards));
    try {
      const bsvc::MigrationStats ms =
          vm.migrate_volume(tenant_name(mover), target);
      if (ms.moved) {
        counters.forced_migrations.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::logic_error&) {
      // Lost the race with the balancer's in-flight handoff; fine.
    }
    if (stop.load(std::memory_order_acquire)) break;
    // 3. Snapshot/clone/destroy churn, on volumes that receive no open-loop
    // traffic (so a destroy never races a scheduled arrival).
    try {
      const std::string src = churn_seq % 2 == 0 ? "churn-a" : "churn-b";
      const bc::Epoch version = vm.take_snapshot(src).get();
      counters.snapshots.fetch_add(1, std::memory_order_relaxed);
      char name[32];
      std::snprintf(name, sizeof name, "churn-c%llu",
                    static_cast<unsigned long long>(churn_seq++));
      vm.clone_volume(src, name, 0, version);
      counters.clones.fetch_add(1, std::memory_order_relaxed);
      churn_clones.emplace_back(name);
      if (churn_clones.size() > 3) {
        vm.destroy_volume(churn_clones.front());
        counters.destroys.fetch_add(1, std::memory_order_relaxed);
        churn_clones.pop_front();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos churn error: %s\n", e.what());
    }
    if (stop.load(std::memory_order_acquire)) break;
    // 4. Wound/heal the dedicated wound volume (no open-loop or verifier
    // traffic touches it): arm a sticky EIO append failure aimed at it
    // alone, then check the degradation contract live — the next write
    // fails with typed kWounded, reads keep serving, and disarming plus a
    // reopen (close + open with a fresh Env) heals it. Every violated check
    // counts a wound_failure, which fails the run.
    util::FaultPoints::Id wound = 0;
    try {
      vm.apply_batch("wound-a", make_batch(wound_st, 16))
          .get();  // a healed volume accepts writes
      wound = faults.points.arm("env.append",
                                util::FaultAction::fail().on("wound-a"));
      bool wounded_as_expected = false;
      try {
        vm.apply_batch("wound-a", make_batch(wound_st, 16)).get();
      } catch (const bsvc::ServiceError& e) {
        wounded_as_expected = e.code() == bsvc::ErrorCode::kWounded;
      }
      counters.wounds.fetch_add(1, std::memory_order_relaxed);
      if (!wounded_as_expected) {
        counters.wound_failures.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "wound check failed: write did not fail kWounded\n");
      }
      vm.query_batch("wound-a", {{0}}).get();  // reads survive the wound
      try {
        vm.close_volume("wound-a");
      } catch (const std::exception&) {
        // The close's final flush goes through the still-faulted Env and
        // may fail; the volume closes regardless (teardown is uncondi-
        // tional) and the reopen below recovers the last acked state.
      }
      faults.points.disarm(wound);
      vm.open_volume("wound-a");
      vm.apply_batch("wound-a", make_batch(wound_st, 16))
          .get();  // the reopen healed it
      counters.heals.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      faults.points.disarm(wound);
      counters.wound_failures.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "wound round failed: %s\n", e.what());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int run(const Config& cfg) {
  bs::TempDir dir("backlog_fleet_sim");
  // Declared before the VolumeManager, which borrows its registry.
  ChaosFaults faults;
  bsvc::ServiceOptions opts;
  opts.shards = cfg.shards;
  opts.root = dir.path();
  opts.sync_writes = false;
  opts.db_options.expected_ops_per_cp = 4096;
  if (cfg.chaos) {
    // Chaos runs the full durability pipeline underneath the fleet: every
    // ack is fsync-covered via the group-commit window, and the fault
    // registry lets the actor land shard kills at exact pipeline points
    // and wound one volume. quiet/overload keep the CP-only seed config
    // (their SLO baselines predate the WAL) and no registry.
    opts.wal_enabled = true;
    opts.wal_commit_window_micros = 2000;
    opts.faults = &faults.points;
  }
  bsvc::VolumeManager vm(opts);

  std::printf("fleet_sim: scenario=%s tenants=%zu shards=%zu util=%.2f\n",
              cfg.scenario.c_str(), cfg.tenants, cfg.shards, cfg.util);

  // Open the open-loop fleet and give every tenant its class weight (rates
  // stay unlimited: overload must show up as honest queueing delay, not as
  // token-bucket throttling).
  std::vector<TenantState> states(cfg.tenants);
  for (std::size_t i = 0; i < cfg.tenants; ++i) {
    vm.open_volume(tenant_name(i));
    bsvc::TenantQos qos;
    qos.weight = bfs::weight_of(bfs::class_of_tenant(i));
    qos.max_wait_queue = 1 << 20;
    vm.set_qos(tenant_name(i), qos);
  }

  // Capacity calibration (before the verifier fleet spins up). The offered
  // rate is `util * capacity` ops/s; if that needs more than ~8k arrivals/s
  // the batch grows instead, so a single dispatcher thread always submits
  // on schedule (a lagging *driver* must never soften the offered load).
  double capacity = cfg.rate > 0 ? 0.0 : calibrate_capacity(vm, states, cfg);
  std::size_t batch = cfg.batch;
  double arrivals_per_sec = cfg.rate;
  if (cfg.rate <= 0) {
    constexpr double kMaxArrivalsPerSec = 8000.0;
    const double offered = cfg.util * capacity;
    arrivals_per_sec =
        std::max(1.0, offered / static_cast<double>(batch));
    if (arrivals_per_sec > kMaxArrivalsPerSec) {
      batch = static_cast<std::size_t>(offered / kMaxArrivalsPerSec) + 1;
      arrivals_per_sec = offered / static_cast<double>(batch);
    }
  }
  std::printf("fleet_sim: capacity=%.0f ops/s offered=%.0f ops/s batch=%zu\n",
              capacity, arrivals_per_sec * static_cast<double>(batch), batch);

  bfs::OpenLoopOptions olo;
  olo.tenants = cfg.tenants;
  olo.zipf_alpha = cfg.zipf_alpha;
  olo.arrivals_per_sec = arrivals_per_sec;
  olo.duration_micros =
      static_cast<std::uint64_t>(cfg.duration_s * 1e6);
  olo.seed = cfg.seed;
  const std::vector<bfs::ArrivalEvent> schedule =
      bfs::build_arrival_schedule(olo);

  // The observability substrate is the SLO source: MetricsPoller for the
  // run's update rate, the registry queue-wait histogram for the fleet row,
  // per-tenant ServiceStats histograms for the per-class verdicts.
  bsvc::MetricsPoller poller(vm);

  // Chaos substrate: ground-truth verifier fleet + churn volumes +
  // aggressive balancer + the chaos actor itself.
  std::vector<backlog::fsim::TenantWorkload> verifier_fleet;
  std::thread verifier_thread;
  std::vector<backlog::fsim::TenantReplayResult> verifier_results;
  std::atomic<bool> verifier_failed{false};
  std::string verifier_error;
  std::unique_ptr<bsvc::Balancer> balancer;
  std::atomic<bool> chaos_stop{false};
  ChaosCounters chaos_counters;
  std::thread chaos_thread;
  if (cfg.chaos) {
    backlog::fsim::FleetOptions fo;
    fo.tenants = 6;
    fo.total_ops = 48000;
    fo.shape = backlog::fsim::FleetShape::kUniform;
    fo.seed = cfg.seed ^ 0x5eedu;
    fo.name_prefix = "verify-";
    fo.base.snapshot_every_ops = 1500;
    fo.base.clone_every_ops = 2500;
    fo.base.migrate_every_ops = 3000;
    verifier_fleet = backlog::fsim::synthesize_fleet(fo);
    for (const auto& w : verifier_fleet) vm.open_volume(w.tenant);
    for (const char* churn : {"churn-a", "churn-b"}) {
      vm.open_volume(churn);
      TenantState st;
      vm.apply_batch(churn, make_batch(st, 512)).get();
      vm.consistency_point(churn).get();
    }
    vm.open_volume("wound-a");  // the wound/heal round's dedicated volume
    bsvc::BalancerPolicy bp;
    bp.poll_interval = std::chrono::milliseconds(100);
    bp.cooldown = std::chrono::milliseconds(300);
    bp.hysteresis = 1.1;
    bp.min_load_to_act = 16;
    balancer = std::make_unique<bsvc::Balancer>(vm, bp);
    balancer->start();
    verifier_thread = std::thread([&] {
      try {
        backlog::fsim::ReplayOptions ro;
        ro.batch_ops = 128;
        ro.ops_per_cp = 2000;
        ro.query_every_ops = 64;
        verifier_results = backlog::fsim::replay_concurrently(
            vm, verifier_fleet, ro);
      } catch (const std::exception& e) {
        verifier_failed.store(true);
        verifier_error = e.what();
      }
    });
    chaos_thread = std::thread(
        [&] { chaos_loop(vm, cfg, chaos_stop, chaos_counters, faults); });
  }

  // --- the open-loop dispatcher ---------------------------------------------
  // Prime the poller after calibration and chaos setup: its one window then
  // covers dispatch, drain and the verifier epilogue, so every offered
  // update op is inside it.
  poller.poll_once();
  Reaper reaper;
  std::thread reaper_threads[2];
  for (auto& rt : reaper_threads) rt = std::thread([&] { reaper.run(); });

  constexpr std::uint64_t kCpEveryArrivals = 8;
  constexpr std::uint64_t kQueryEveryArrivals = 4;
  std::uint64_t offered_ops = 0;
  std::uint64_t max_lag_micros = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const bfs::ArrivalEvent& ev : schedule) {
    const auto due = start + std::chrono::microseconds(ev.at_micros);
    auto now = std::chrono::steady_clock::now();
    if (due > now) {
      std::this_thread::sleep_until(due);
    } else {
      // The dispatcher itself fell behind schedule (distinct from service
      // queueing!). Track it so a saturated *driver* can't masquerade as a
      // healthy service.
      const auto lag = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now - due)
              .count());
      max_lag_micros = std::max(max_lag_micros, lag);
    }
    const std::string name = tenant_name(ev.tenant);
    TenantState& st = states[ev.tenant];
    reaper.put(vm.apply_batch(name, make_batch(st, batch)));
    offered_ops += batch;
    ++st.arrivals;
    if (st.arrivals % kCpEveryArrivals == 0) {
      reaper.put(discard_value(vm.consistency_point(name)));
    }
    if (st.arrivals % kQueryEveryArrivals == 0 && st.next_block > 0) {
      reaper.put(discard_value(vm.query_batch(name, {{st.next_block - 1}})));
    }
  }
  const double dispatch_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Tear down chaos before draining: every shard must be alive for the
  // backlog (and the verifier) to finish.
  if (cfg.chaos) {
    chaos_stop.store(true, std::memory_order_release);
    chaos_thread.join();
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      if (!vm.shard_alive(s)) vm.restart_shard(s);
    }
  }

  // Drain: all submitted futures complete (the open loop closes only after
  // the offered window has fully elapsed, so queue growth during the window
  // is already in the histograms).
  reaper.finish();
  for (auto& rt : reaper_threads) rt.join();
  const double total_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Verifier epilogue: replay must complete and every tenant's live set
  // must match its trace's ground truth exactly.
  std::uint64_t divergence = 0;
  if (cfg.chaos) {
    verifier_thread.join();
    balancer->stop();
    if (verifier_failed.load()) {
      std::fprintf(stderr, "verifier replay failed: %s\n",
                   verifier_error.c_str());
      divergence = verifier_fleet.size();
    } else {
      for (std::size_t i = 0; i < verifier_fleet.size(); ++i) {
        const auto& w = verifier_fleet[i];
        if (verifier_results[i].ops != w.trace.ops.size()) {
          ++divergence;
          continue;
        }
        std::set<bc::BackrefKey> expect(w.trace.live_keys.begin(),
                                        w.trace.live_keys.end());
        std::set<bc::BackrefKey> got;
        for (const auto& rec : vm.scan_all(w.tenant).get()) {
          if (rec.to == bc::kInfinity) got.insert(rec.key);
        }
        if (got != expect) {
          ++divergence;
          std::fprintf(stderr, "verifier divergence: %s live=%zu expect=%zu\n",
                       w.tenant.c_str(), got.size(), expect.size());
        }
      }
    }
  }

  const bsvc::RateSample rates = poller.poll_once();
  bsvc::ServiceStats stats = vm.stats();

  const unsigned cores = std::thread::hardware_concurrency();
  bench::JsonRow config_row;
  config_row.str("bench", "fleet_sim")
      .str("row", "config")
      .str("scenario", cfg.scenario)
      .num("tenants", cfg.tenants)
      .num("shards", cfg.shards)
      .num("batch", batch)
      .num("seed", cfg.seed)
      .num("duration_s", cfg.duration_s)
      .num("util", cfg.util)
      .num("capacity_ops_per_second", capacity)
      .num("arrivals_per_second", arrivals_per_sec)
      .num("hardware_concurrency", cores)
      .num("pinned", vm.shards_pinned() ? 1 : 0);
  config_row.print();

  // Per-class SLO verdicts off the per-tenant queue-wait histograms.
  const std::vector<bfs::SloVerdict> verdicts = bfs::evaluate_fleet_slo(
      stats,
      [](const std::string& name) -> std::optional<bfs::QosClass> {
        const auto idx = tenant_index(name);
        if (!idx) return std::nullopt;
        return bfs::class_of_tenant(*idx);
      },
      bfs::default_slo_table());
  bool all_pass = true;
  for (const bfs::SloVerdict& v : verdicts) {
    all_pass = all_pass && v.pass;
    std::printf("slo[%s]: p99_wait=%lluus target=%lluus samples=%llu %s\n",
                bfs::to_string(v.cls),
                static_cast<unsigned long long>(v.p99_micros),
                static_cast<unsigned long long>(v.target_micros),
                static_cast<unsigned long long>(v.samples),
                v.pass ? "PASS" : "BREACH");
    bench::JsonRow row;
    row.str("bench", "fleet_sim")
        .str("row", "slo")
        .str("scenario", cfg.scenario)
        .str("class", bfs::to_string(v.cls))
        .num("samples", v.samples)
        .num("p99_queue_wait_us", v.p99_micros)
        .num("target_us", v.target_micros)
        .num("pass", v.pass ? 1 : 0)
        .num("hardware_concurrency", cores);
    row.print();
  }

  // Fleet row: offered vs achieved, plus the registry-level (fleet-wide)
  // queue-wait histogram — the same handle the Prometheus export scrapes.
  const bsvc::LatencyHistogram fleet_wait =
      vm.metrics()
          .histogram("backlog_queue_wait_micros",
                     "Submit-to-execute delay (queue plus gate wait) of "
                     "waiting ops")
          .merged();
  bench::JsonRow fleet_row;
  fleet_row.str("bench", "fleet_sim")
      .str("row", "fleet")
      .str("scenario", cfg.scenario)
      .num("offered_ops", offered_ops)
      .num("completed_futures", reaper.completed())
      .num("dropped_ops", reaper.dropped())
      .num("offered_ops_per_second",
           dispatch_secs > 0 ? static_cast<double>(offered_ops) / dispatch_secs
                             : 0.0)
      .num("drain_seconds", total_secs - dispatch_secs)
      .num("max_dispatch_lag_us", max_lag_micros)
      .num("fleet_p99_queue_wait_us", fleet_wait.p99())
      .num("fleet_max_queue_wait_us", fleet_wait.max_micros())
      .num("poller_update_ops_per_sec", rates.update_ops_per_sec)
      .num("poller_window_s", rates.window_seconds)
      .num("hardware_concurrency", cores);
  fleet_row.print();

  if (cfg.chaos) {
    bench::JsonRow chaos_row;
    chaos_row.str("bench", "fleet_sim")
        .str("row", "chaos")
        .str("scenario", cfg.scenario)
        .num("shard_kills", chaos_counters.kills.load())
        .num("shard_restarts", chaos_counters.restarts.load())
        .num("wal_point_kills", chaos_counters.wal_point_kills.load())
        .num("forced_migrations", chaos_counters.forced_migrations.load())
        .num("snapshots", chaos_counters.snapshots.load())
        .num("clones", chaos_counters.clones.load())
        .num("destroys", chaos_counters.destroys.load())
        .num("wounds", chaos_counters.wounds.load())
        .num("heals", chaos_counters.heals.load())
        .num("wound_failures", chaos_counters.wound_failures.load())
        .num("verifier_tenants", verifier_fleet.size())
        .num("verifier_divergence", divergence)
        .num("dropped_ops", reaper.dropped())
        .num("hardware_concurrency", cores);
    chaos_row.print();
    std::printf(
        "chaos: kills=%llu (at-wal-point=%llu) migrations=%llu clones=%llu "
        "wounds=%llu heals=%llu wound_failures=%llu divergence=%llu "
        "dropped=%llu\n",
        static_cast<unsigned long long>(chaos_counters.kills.load()),
        static_cast<unsigned long long>(chaos_counters.wal_point_kills.load()),
        static_cast<unsigned long long>(
            chaos_counters.forced_migrations.load()),
        static_cast<unsigned long long>(chaos_counters.clones.load()),
        static_cast<unsigned long long>(chaos_counters.wounds.load()),
        static_cast<unsigned long long>(chaos_counters.heals.load()),
        static_cast<unsigned long long>(
            chaos_counters.wound_failures.load()),
        static_cast<unsigned long long>(divergence),
        static_cast<unsigned long long>(reaper.dropped()));
    if (divergence != 0 || reaper.dropped() != 0 ||
        chaos_counters.wound_failures.load() != 0) {
      return 1;
    }
  }
  std::printf("fleet_sim: %s (%s)\n", all_pass ? "all SLOs met" : "SLO breach",
              cfg.scenario.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  if (cfg.selftest_json) {
    // Hostile-name round trip for the CI `python -m json.tool` check: the
    // JSONROW must stay valid JSON with quotes, backslashes and control
    // characters in the value.
    bench::JsonRow row;
    row.str("bench", "fleet_sim")
        .str("row", "selftest")
        .str("scenario", "he said \"quiet\\loud\"\tand\nleft\x01")
        .num("pass", 1);
    row.print();
    return 0;
  }
  return run(cfg);
}
