// Balancer policy tests: deterministic convergence from a fully skewed
// placement (imbalance metric strictly decreases, hysteresis stops the
// churn, per-volume cooldown is honoured), clean-only migration semantics,
// and a concurrent stress run (TSan'd in CI) where the balancer rebalances
// a live fleet while the multi-tenant replay verifies data integrity
// against per-trace ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fsim/multi_tenant.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;

namespace {

bsvc::ServiceOptions service_options(const bs::TempDir& dir,
                                     std::size_t shards) {
  bsvc::ServiceOptions o;
  o.shards = shards;
  o.root = dir.path();
  o.db_options.expected_ops_per_cp = 2000;
  o.sync_writes = false;
  return o;
}

bc::BackrefKey key(bc::BlockNo b) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = 2;
  k.length = 1;
  return k;
}

bsvc::UpdateOp add(bc::BlockNo b) {
  return {bsvc::UpdateOp::Kind::kAdd, key(b)};
}

using KeyTuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t>;
KeyTuple tup(const bc::BackrefKey& k) {
  return {k.block, k.inode, k.offset, k.length, k.line};
}

}  // namespace

TEST(Balancer, CleanOnlyMigrationAbortsOnBufferedUpdates) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");
  const std::size_t home = vm.current_shard("alice");
  const std::size_t away = 1 - home;

  // Buffered updates: a clean-only move must refuse without forcing a CP.
  vm.apply_batch("alice", {add(1), add(2)}).get();
  const bsvc::MigrationStats aborted =
      vm.migrate_volume("alice", away, /*require_clean=*/true);
  EXPECT_FALSE(aborted.moved);
  EXPECT_TRUE(aborted.aborted_dirty);
  EXPECT_EQ(vm.current_shard("alice"), home);
  EXPECT_EQ(vm.quick_stats("alice").get().ws_entries, 2u);  // still buffered
  EXPECT_EQ(vm.stats().tenants.at("alice").migrations, 0u);

  // After a CP the same move goes through, and never forces a flush.
  vm.consistency_point("alice").get();
  const bsvc::MigrationStats moved =
      vm.migrate_volume("alice", away, /*require_clean=*/true);
  EXPECT_TRUE(moved.moved);
  EXPECT_FALSE(moved.forced_cp);
  EXPECT_FALSE(moved.aborted_dirty);
  EXPECT_EQ(vm.current_shard("alice"), away);
  EXPECT_EQ(vm.query("alice", 1).get().size(), 1u);
}

namespace {

/// Drives `ops_per_tenant` foreground ops into every volume and waits for
/// them — between balancer cycles this produces identical per-volume rates,
/// making the convergence below fully deterministic.
void pulse(bsvc::VolumeManager& vm, const std::vector<std::string>& tenants,
           int ops_per_tenant, bc::BlockNo& next_block) {
  std::vector<std::future<void>> futs;
  for (const auto& t : tenants) {
    for (int i = 0; i < ops_per_tenant; ++i)
      futs.push_back(vm.apply_batch(t, {add(next_block++)}));
  }
  for (auto& f : futs) f.get();
  for (const auto& t : tenants) vm.consistency_point(t).get();
}

}  // namespace

TEST(Balancer, ConvergesFromFullySkewedPlacement) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kTenants = 8;
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, kShards));

  std::vector<std::string> tenants;
  for (std::size_t i = 0; i < kTenants; ++i) {
    const std::string name = "vol-" + std::to_string(i);
    vm.open_volume(name);
    vm.migrate_volume(name, 0);  // worst case: everything on shard 0
    tenants.push_back(name);
  }

  bsvc::BalancerPolicy bp;
  bp.latency_weighted = false;  // pure op-count loads: deterministic
  bp.cooldown = std::chrono::seconds(10);
  bp.hysteresis = 1.5;
  bp.max_moves_per_cycle = 1;
  bp.min_load_to_act = 1;
  bsvc::Balancer balancer(vm, bp);

  // Fake clock: every cycle is one cooldown apart, so the cooldown never
  // suppresses a move here (it gets its own test below).
  std::uint64_t now = 1;
  const std::uint64_t cooldown_micros = 10'000'000;

  bc::BlockNo next_block = 1;
  pulse(vm, tenants, 10, next_block);  // prime the rate counters
  balancer.run_once(now);              // first sighting: counters, no meaning

  std::vector<double> imbalances;
  for (int cycle = 0; cycle < 2 * static_cast<int>(kTenants); ++cycle) {
    now += cooldown_micros + 1;
    pulse(vm, tenants, 10, next_block);
    const auto moves = balancer.run_once(now);
    if (moves.empty()) break;
    for (const auto& m : moves) {
      // Every accepted move strictly improves the metric.
      EXPECT_LT(m.imbalance_after, m.imbalance_before) << m.tenant;
      imbalances.push_back(m.imbalance_after);
    }
  }

  // Starting metric is 1.0 (everything on one shard); the trail must be
  // strictly decreasing and end balanced: 8 equal tenants over 4 shards
  // converge to 2+2+2+2 => imbalance 0.
  ASSERT_GE(imbalances.size(), 4u);
  double prev = 1.0;
  for (const double im : imbalances) {
    EXPECT_LT(im, prev);
    prev = im;
  }
  EXPECT_LT(imbalances.back(), 0.1);
  EXPECT_DOUBLE_EQ(balancer.last_imbalance(), imbalances.back());

  // Balanced fleet: the hysteresis band holds, nothing moves any more.
  now += cooldown_micros + 1;
  pulse(vm, tenants, 10, next_block);
  EXPECT_TRUE(balancer.run_once(now).empty());

  // Placement is actually spread: every shard hosts exactly 2 volumes.
  std::map<std::size_t, int> per_shard;
  for (const auto& p : vm.placements()) ++per_shard[p.shard];
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(per_shard[s], 2) << "shard " << s;
  }

  // No volume ever moved more than once per cooldown window.
  std::map<std::string, std::uint64_t> last_move;
  for (const auto& m : balancer.history()) {
    const auto it = last_move.find(m.tenant);
    if (it != last_move.end()) {
      EXPECT_GE(m.at_micros - it->second, cooldown_micros) << m.tenant;
    }
    last_move[m.tenant] = m.at_micros;
  }
}

TEST(Balancer, CooldownAllowsAtMostOneMovePerWindow) {
  // The clock barely advances, so the whole test sits inside one cooldown
  // window: no volume may move twice, however many cycles run. Then the
  // window expires and an ex-mover may move again.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kTenants = 8;
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, kShards));

  std::vector<std::string> tenants;
  for (std::size_t i = 0; i < kTenants; ++i) {
    const std::string name = "vol-" + std::to_string(i);
    vm.open_volume(name);
    vm.migrate_volume(name, 0);
    tenants.push_back(name);
  }

  bsvc::BalancerPolicy bp;
  bp.latency_weighted = false;
  bp.cooldown = std::chrono::hours(1);
  bp.hysteresis = 1.5;
  bp.max_moves_per_cycle = 1;
  bp.min_load_to_act = 1;
  bsvc::Balancer balancer(vm, bp);

  bc::BlockNo next_block = 1;
  std::uint64_t now = 1;
  for (int cycle = 0; cycle < 20; ++cycle) {
    pulse(vm, tenants, 10, next_block);
    balancer.run_once(++now);  // clock frozen inside the window
  }

  // Convergence needed ~6 moves; crucially every mover is distinct.
  std::set<std::string> movers;
  for (const auto& m : balancer.history()) {
    EXPECT_TRUE(movers.insert(m.tenant).second)
        << m.tenant << " moved twice inside one cooldown window";
  }
  EXPECT_GE(movers.size(), 4u);

  // Skew the load onto one non-origin shard: its volumes (all ex-movers)
  // are the only candidates. Inside the window the cooldown pins them …
  const std::size_t loaded_shard = balancer.history().front().to_shard;
  std::vector<std::string> on_loaded;
  for (const auto& p : vm.placements()) {
    if (p.shard == loaded_shard) on_loaded.push_back(p.tenant);
  }
  ASSERT_FALSE(on_loaded.empty());
  pulse(vm, on_loaded, 40, next_block);
  EXPECT_TRUE(balancer.run_once(++now).empty());

  // … and once it expires, the same skew moves one of them.
  pulse(vm, on_loaded, 40, next_block);
  const auto later = balancer.run_once(now + 2ull * 3600 * 1'000'000);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_TRUE(movers.contains(later[0].tenant));
  EXPECT_EQ(later[0].from_shard, loaded_shard);
}

TEST(Balancer, StressRebalancesALiveFleetWithoutDataLoss) {
  // TSan target: the balancer thread races feeders, maintenance and stats
  // while every volume starts on shard 0. Afterwards the fleet must be
  // spread out and every volume's live set must match its ground truth.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kTenants = 8;
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, kShards));

  bsvc::MaintenancePolicy mp;
  mp.l0_run_threshold = 8;
  mp.budget_per_sweep = 2;
  mp.poll_interval = std::chrono::milliseconds(5);
  bsvc::MaintenanceScheduler scheduler(vm, mp);

  bf::FleetOptions fo;
  fo.tenants = kTenants;
  fo.total_ops = 60000;
  fo.shape = bf::FleetShape::kHotTenant;  // skewed load on top of skewed placement
  fo.hot_share = 0.4;
  fo.seed = 99;
  fo.base.remove_fraction = 0.4;
  const auto workloads = bf::synthesize_fleet(fo);
  for (const auto& wl : workloads) {
    vm.open_volume(wl.tenant);
    vm.migrate_volume(wl.tenant, 0);
  }

  bsvc::BalancerPolicy bp;
  bp.poll_interval = std::chrono::milliseconds(5);
  bp.cooldown = std::chrono::milliseconds(50);
  bp.max_moves_per_cycle = 2;
  bp.min_load_to_act = 16;
  bsvc::Balancer balancer(vm, bp);
  balancer.start();

  bf::ReplayOptions ro;
  ro.batch_ops = 128;
  ro.ops_per_cp = 500;
  ro.query_every_ops = 100;
  const auto results = bf::replay_concurrently(vm, workloads, ro);
  balancer.stop();
  scheduler.stop();

  ASSERT_EQ(results.size(), kTenants);
  for (const auto& r : results) {
    EXPECT_EQ(r.empty_query_results, 0u) << r.tenant;
  }
  EXPECT_GT(balancer.cycles(), 0u);
  // All 8 volumes began on shard 0; a live balancer must have spread them.
  EXPECT_GE(balancer.moves(), 1u);
  std::set<std::size_t> used;
  for (const auto& p : vm.placements()) used.insert(p.shard);
  EXPECT_GT(used.size(), 1u);

  // Ground truth survived the rebalancing.
  for (const auto& wl : workloads) {
    std::set<KeyTuple> expect;
    for (const auto& k : wl.trace.live_keys) expect.insert(tup(k));
    std::set<KeyTuple> got;
    vm.with_db(wl.tenant,
               [&](bc::BacklogDb& db) {
                 for (const auto& rec : db.scan_all()) {
                   if (rec.to == bc::kInfinity) got.insert(tup(rec.key));
                 }
               })
        .get();
    EXPECT_EQ(got, expect) << wl.tenant;
  }

  // Every move respected the cooldown.
  std::map<std::string, std::uint64_t> last_move;
  for (const auto& m : balancer.history()) {
    const auto it = last_move.find(m.tenant);
    if (it != last_move.end()) {
      EXPECT_GE(m.at_micros - it->second, 50'000u) << m.tenant;
    }
    last_move[m.tenant] = m.at_micros;
  }
}
