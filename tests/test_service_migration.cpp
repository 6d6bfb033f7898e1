// Live tenant migration: protocol unit tests plus concurrent stress (run
// under ThreadSanitizer in CI).
//
// The protocol promises: (a) a query against a migrated volume returns
// results identical to before the move; (b) updates are neither lost nor
// duplicated no matter how they race the drain/park/replay handoff — checked
// here with per-volume op checksums against trace ground truth; (c) other
// tenants never block on a migration; (d) per-tenant FIFO order survives the
// handoff (queries racing 20+ migrations always observe their preceding
// writes); (e) a maintenance probe, an ordinary task of its volume's flow,
// only ever runs on the shard that owns the volume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fsim/multi_tenant.hpp"
#include "query_one.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/fault_points.hpp"
#include "util/hash.hpp"

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bu = backlog::util;
using backlog::testing::query_one;

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

bc::BackrefKey key(bc::BlockNo b, bc::InodeNo ino = 2) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = ino;
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

/// Order-independent checksum of a key set: XOR of per-key hashes. Equal
/// checksums + equal cardinality make lost/duplicated updates visible.
std::uint64_t key_checksum(const bc::BackrefKey& k) {
  std::uint8_t buf[bc::kKeySize];
  bc::encode_key(k, buf);
  return backlog::util::hash_bytes(buf, sizeof buf, /*seed=*/0x6d69);
}

std::vector<bc::BackrefEntry> query_now(bsvc::VolumeManager& vm,
                                        const std::string& tenant,
                                        bc::BlockNo b) {
  return query_one(vm, tenant, b).get();
}

}  // namespace

TEST(ServiceMigration, MigratedVolumeReturnsIdenticalResults) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 3));
  vm.open_volume("alice");

  std::vector<bsvc::UpdateOp> batch;
  for (bc::BlockNo b = 1; b <= 64; ++b) batch.push_back(add(b));
  vm.apply_batch("alice", std::move(batch)).get();
  // A retained snapshot plus later churn makes the version masks nontrivial.
  const bc::Epoch snap = vm.take_snapshot("alice").get();
  vm.apply_batch("alice", {{bsvc::UpdateOp::Kind::kRemove, key(10)}, add(100)})
      .get();
  vm.consistency_point("alice").get();

  std::vector<std::vector<bc::BackrefEntry>> before;
  for (const bc::BlockNo b : {1ull, 10ull, 64ull, 100ull}) {
    before.push_back(query_now(vm, "alice", b));
  }

  const std::size_t source = vm.current_shard("alice");
  const std::size_t target = (source + 1) % vm.shard_count();
  const bsvc::MigrationStats ms = vm.migrate_volume("alice", target);
  EXPECT_TRUE(ms.moved);
  EXPECT_EQ(ms.source_shard, source);
  EXPECT_EQ(ms.target_shard, target);
  EXPECT_FALSE(ms.forced_cp);  // everything was committed before the move
  EXPECT_EQ(vm.current_shard("alice"), target);

  std::size_t i = 0;
  for (const bc::BlockNo b : {1ull, 10ull, 64ull, 100ull}) {
    EXPECT_EQ(query_now(vm, "alice", b), before[i++]) << "block " << b;
  }
  // The deleted-at-snapshot reference is still visible at the snapshot.
  const auto at10 = query_now(vm, "alice", 10);
  ASSERT_EQ(at10.size(), 1u);
  EXPECT_EQ(at10[0].versions, std::vector<bc::Epoch>{snap});

  // Round-trip home: still identical.
  EXPECT_TRUE(vm.migrate_volume("alice", source).moved);
  i = 0;
  for (const bc::BlockNo b : {1ull, 10ull, 64ull, 100ull}) {
    EXPECT_EQ(query_now(vm, "alice", b), before[i++]) << "block " << b;
  }
  EXPECT_EQ(vm.stats().tenants.at("alice").migrations, 2u);
}

TEST(ServiceMigration, DrainForcesConsistencyPointForBufferedUpdates) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");
  vm.apply_batch("alice", {add(1), add(2), add(3)}).get();  // buffered, no CP

  const std::size_t target = (vm.current_shard("alice") + 1) % 2;
  const bsvc::MigrationStats ms = vm.migrate_volume("alice", target);
  EXPECT_TRUE(ms.moved);
  EXPECT_TRUE(ms.forced_cp);
  EXPECT_EQ(vm.quick_stats("alice").get().ws_entries, 0u);
  for (const bc::BlockNo b : {1ull, 2ull, 3ull}) {
    EXPECT_EQ(query_now(vm, "alice", b).size(), 1u);
  }
}

TEST(ServiceMigration, Validation) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");
  EXPECT_THROW(vm.migrate_volume("nobody", 1), std::invalid_argument);
  EXPECT_THROW(vm.migrate_volume("alice", 2), std::invalid_argument);
  const bsvc::MigrationStats noop =
      vm.migrate_volume("alice", vm.current_shard("alice"));
  EXPECT_FALSE(noop.moved);
  EXPECT_EQ(vm.stats().tenants.at("alice").migrations, 0u);
}

TEST(ServiceMigration, QueriesRaceMigrationsAndAlwaysSeePriorWrites) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 3));
  vm.open_volume("alice");
  vm.open_volume("bob");  // an innocent bystander that must never stall
  vm.apply_batch("alice", {add(7), add(8)}).get();
  vm.consistency_point("alice").get();
  vm.apply_batch("bob", {add(7)}).get();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> alice_queries{0}, bob_ops{0};
  std::vector<std::thread> hammers;
  for (int i = 0; i < 2; ++i) {
    hammers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_EQ(query_one(vm, "alice", 7).get().size(), 1u);
        ASSERT_EQ(query_one(vm, "alice", 8).get().size(), 1u);
        alice_queries.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  hammers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_EQ(query_one(vm, "bob", 7).get().size(), 1u);
      bob_ops.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // 24 migrations around the ring while the hammers run; interleave updates
  // so drains alternate between forced-CP and empty-WS handoffs, then a
  // query for the *just-applied* block proves FIFO survived the handoff.
  bc::BlockNo next = 1000;
  std::uint64_t replayed = 0;
  for (int round = 0; round < 24; ++round) {
    const bc::BlockNo fresh = next++;
    vm.apply_batch("alice", {add(fresh)}).get();
    const std::size_t target = (vm.current_shard("alice") + 1) % 3;
    const bsvc::MigrationStats ms = vm.migrate_volume("alice", target);
    EXPECT_TRUE(ms.moved);
    replayed += ms.replayed_tasks;
    EXPECT_EQ(query_one(vm, "alice", fresh).get().size(), 1u)
        << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : hammers) t.join();

  EXPECT_GT(alice_queries.load(), 0u);
  EXPECT_GT(bob_ops.load(), 0u);
  const auto stats = vm.stats();
  EXPECT_EQ(stats.tenants.at("alice").migrations, 24u);
  EXPECT_EQ(stats.tenants.at("bob").migrations, 0u);
  // With two hammer threads racing 24 handoffs, some operations should have
  // taken the park/replay path (not a hard guarantee, hence no assert).
  if (replayed == 0) {
    GTEST_LOG_(INFO) << "no task was parked this run (timing-dependent)";
  }
}

TEST(ServiceMigration, ApplyBatchesSpanMigrationsAtomicallyAndInOrder) {
  // A batch is one task, so the park/replay handoff moves it as one unit:
  // it can never be split across shards, half-applied, or reordered
  // against the single ops around it. 24 rounds interleave
  // single-op applies, 16-op batches and a batched query with a live
  // migration racing them; after each round the *batch's* keys and the
  // singles' keys must all be visible (FIFO across the handoff), and the
  // final ground truth must match exactly — cardinality and checksum.
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 3));
  vm.open_volume("alice");
  vm.open_volume("bob");  // bystander that must never stall
  vm.apply_batch("bob", {add(7)}).get();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bob_ops{0};
  std::thread bystander([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_EQ(query_one(vm, "bob", 7).get().size(), 1u);
      bob_ops.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr std::size_t kBatch = 16;
  std::uint64_t expect_checksum = 0;
  std::uint64_t expect_count = 0;
  bc::BlockNo next = 1000;
  for (int round = 0; round < 24; ++round) {
    const bc::BlockNo single_blk = next++;
    vm.apply_batch("alice", {add(single_blk)}).get();

    std::vector<bsvc::UpdateOp> batch;
    const bc::BlockNo batch_base = next;
    for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(add(next++));
    // Fire the batch and immediately race the handoff (don't wait for the
    // apply first — parking the batch is the point).
    auto applied = vm.apply_batch("alice", std::move(batch));
    const std::size_t target = (vm.current_shard("alice") + 1) % 3;
    const bsvc::MigrationStats ms = vm.migrate_volume("alice", target);
    EXPECT_TRUE(ms.moved);
    ASSERT_NO_THROW(applied.get());

    // FIFO survived: a batched query submitted after the move sees the
    // single and every batch op on the new shard.
    std::vector<bsvc::QueryRange> ranges;
    ranges.push_back({single_blk, 1, {}});
    for (std::size_t i = 0; i < kBatch; ++i)
      ranges.push_back({batch_base + i, 1, {}});
    const auto results = vm.query_batch("alice", std::move(ranges)).get();
    ASSERT_EQ(results.size(), kBatch + 1);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].size(), 1u) << "round " << round << " range " << i;
    }

    expect_checksum ^= key_checksum(key(single_blk));
    for (std::size_t i = 0; i < kBatch; ++i)
      expect_checksum ^= key_checksum(key(batch_base + i));
    expect_count += kBatch + 1;
  }
  stop.store(true, std::memory_order_release);
  bystander.join();
  EXPECT_GT(bob_ops.load(), 0u);

  // No lost or duplicated op across all 24 handoffs.
  std::uint64_t got_checksum = 0, got_count = 0;
  vm.with_db("alice",
             [&](bc::BacklogDb& db) {
               for (const auto& rec : db.scan_all()) {
                 if (rec.to != bc::kInfinity) continue;
                 ++got_count;
                 got_checksum ^= key_checksum(rec.key);
               }
             })
      .get();
  EXPECT_EQ(got_count, expect_count);
  EXPECT_EQ(got_checksum, expect_checksum);
  EXPECT_EQ(vm.stats().tenants.at("alice").migrations, 24u);
}

TEST(ServiceMigration, ConcurrentStressNoLostOrDuplicatedUpdates) {
  // Feeders replay per-tenant traces with snapshot, clone and migration
  // events embedded, background maintenance sweeps throughout, and every
  // volume keeps moving between shards. Afterwards each volume's live
  // records must equal the trace ground truth exactly — cardinality and
  // order-independent checksum — so a lost batch, a double replay or a
  // misrouted op cannot hide.
  constexpr std::size_t kTenants = 6;
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 3));

  bsvc::MaintenancePolicy policy;
  policy.l0_run_threshold = 8;
  policy.budget_per_sweep = 2;
  policy.poll_interval = std::chrono::milliseconds(5);
  bsvc::MaintenanceScheduler scheduler(vm, policy);

  std::vector<bf::TenantWorkload> workloads;
  for (std::size_t i = 0; i < kTenants; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    vm.open_volume(name);
    bf::TenantTraceOptions to;
    to.block_ops = 3000 + 400 * i;
    to.remove_fraction = 0.4;
    to.seed = 5000 + i;
    to.snapshot_every_ops = 700;
    to.clone_every_ops = 1500;
    to.migrate_every_ops = 450 + 50 * i;  // desynchronized churn
    workloads.push_back({name, bf::synthesize_tenant_trace(to)});
  }

  bf::ReplayOptions ro;
  ro.batch_ops = 128;
  ro.ops_per_cp = 500;
  ro.query_every_ops = 90;
  const auto results = bf::replay_concurrently(vm, workloads, ro);
  scheduler.stop();

  ASSERT_EQ(results.size(), kTenants);
  std::uint64_t total_migrations = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(results[i].ops, workloads[i].trace.ops.size());
    EXPECT_EQ(results[i].snapshots, workloads[i].trace.snapshots);
    EXPECT_EQ(results[i].clones, workloads[i].trace.lines - 1);
    EXPECT_GT(results[i].migrations, 0u) << results[i].tenant;
    EXPECT_EQ(results[i].empty_query_results, 0u) << results[i].tenant;
    total_migrations += results[i].migrations;
  }

  for (const auto& wl : workloads) {
    std::set<KeyTuple> expect;
    std::uint64_t expect_checksum = 0;
    for (const auto& k : wl.trace.live_keys) {
      expect.insert(tup(k));
      expect_checksum ^= key_checksum(k);
    }
    std::set<KeyTuple> got;
    std::uint64_t got_checksum = 0;
    vm.with_db(wl.tenant,
               [&](bc::BacklogDb& db) {
                 for (const auto& rec : db.scan_all()) {
                   if (rec.to != bc::kInfinity) continue;
                   got.insert(tup(rec.key));
                   got_checksum ^= key_checksum(rec.key);
                 }
               })
        .get();
    EXPECT_EQ(got.size(), expect.size()) << wl.tenant;
    EXPECT_EQ(got_checksum, expect_checksum) << wl.tenant;
    EXPECT_EQ(got, expect) << wl.tenant;
  }

  const auto stats = vm.stats();
  std::uint64_t updates = 0;
  for (const auto& [name, ts] : stats.tenants) updates += ts.updates;
  EXPECT_EQ(updates, stats.total.updates);
  EXPECT_EQ(stats.total.migrations, total_migrations);
  EXPECT_GT(stats.total.snapshots, 0u);
  EXPECT_GT(stats.total.clones, 0u);
}

TEST(ServiceMigration, MaintenanceProbesRunOnlyOnTheOwningShard) {
  // A probe queued for a volume must never touch it on a shard that no
  // longer owns it: not when it was queued ahead of a handoff's park, not
  // when it parked with the handoff, and not while the volume ping-pongs
  // between shards. Every pass creates run files, so an env.create callback
  // compares the hitting shard with the routing table. The write store
  // stays empty, so no drain forces a CP and every hit is a maintenance
  // pass.
  bs::TempDir dir;
  bu::FaultPoints faults;
  bsvc::ServiceOptions o = service_options(dir, 3);
  o.faults = &faults;
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");
  bc::BlockNo next = 1;
  for (int cp = 0; cp < 4; ++cp) {
    std::vector<bsvc::UpdateOp> batch;
    for (int i = 0; i < 50; ++i) batch.push_back(add(next++));
    vm.apply_batch("alice", std::move(batch)).get();
    vm.consistency_point("alice").get();
  }

  std::atomic<std::uint64_t> creates{0}, misplaced{0};
  faults.arm("env.create", bu::FaultAction::call([&] {
                             creates.fetch_add(1);
                             if (bsvc::WorkerPool::current_shard() !=
                                 vm.current_shard("alice"))
                               misplaced.fetch_add(1);
                           }).on("alice"));
  bsvc::MaintenancePolicy policy;
  policy.l0_run_threshold = 0;  // every probe runs a pass
  const auto runs = [&] {
    return vm.stats().tenants.at("alice").maintenance_runs;
  };
  const auto wait_for_runs = [&](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (runs() < n && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(runs(), n);
  };

  // A with_db blocker holds the source shard while the probe is queued
  // ahead of the park (it runs there before the drain barrier) or behind
  // it (it parks and replays on the target).
  std::uint64_t probes = 0;
  for (int round = 0; round < 6; ++round) {
    const bool probe_first = round % 2 == 0;
    const std::size_t src = vm.current_shard("alice");
    const std::size_t dst = (src + 1) % vm.shard_count();
    std::promise<void> started, release;
    std::shared_future<void> released = release.get_future().share();
    auto blocker = vm.with_db("alice", [&started, released](bc::BacklogDb&) {
      started.set_value();
      released.wait();
    });
    started.get_future().wait();
    if (probe_first) {
      ASSERT_TRUE(vm.schedule_maintenance("alice", policy));
    }
    auto moved = std::async(std::launch::async,
                            [&] { return vm.migrate_volume("alice", dst); });
    // The drain barrier reaches the held queue only once the volume is
    // parked.
    while (vm.shard_loads()[src].queue_depth < (probe_first ? 2u : 1u))
      std::this_thread::yield();
    if (!probe_first) {
      ASSERT_TRUE(vm.schedule_maintenance("alice", policy));
    }
    release.set_value();
    blocker.get();
    const bsvc::MigrationStats ms = moved.get();
    EXPECT_TRUE(ms.moved);
    EXPECT_FALSE(ms.forced_cp);
    if (!probe_first) {
      EXPECT_EQ(ms.replayed_tasks, 1u);
    }
    wait_for_runs(++probes);
  }

  // Ping-pong: one thread keeps moving the volume while this one keeps
  // scheduling probes.
  std::atomic<bool> done{false};
  std::thread migrator([&] {
    for (int i = 0; i < 40; ++i) {
      const std::size_t to = (vm.current_shard("alice") + 1) % vm.shard_count();
      EXPECT_FALSE(vm.migrate_volume("alice", to).forced_cp);
    }
    done.store(true);
  });
  while (!done.load()) {
    if (vm.schedule_maintenance("alice", policy)) ++probes;
    std::this_thread::yield();
  }
  migrator.join();
  wait_for_runs(probes);

  EXPECT_GT(creates.load(), 0u);
  EXPECT_EQ(misplaced.load(), 0u) << "of " << creates.load() << " creates";
  EXPECT_GT(runs(), 0u);
  EXPECT_EQ(vm.quick_stats("alice").get().ws_entries, 0u);
  std::size_t live = 0;
  vm.with_db("alice",
             [&](bc::BacklogDb& db) {
               for (const auto& rec : db.scan_all())
                 if (rec.to == bc::kInfinity) ++live;
             })
      .get();
  EXPECT_EQ(live, 200u);
}
