// Tests of the fleet-scale scenario machinery (src/fsim/fleet_sim.hpp) and
// the shard fault-injection hooks behind it:
//   * fixed-seed determinism of the Zipf tenant sampler and the Poisson
//     arrival schedule (exact event sequence, cross-construction);
//   * SLO accounting: synthetic histograms in, expected p99-vs-class
//     verdicts out, including the per-class merge over ServiceStats;
//   * JSON string escaping used by the bench JSONROW emitter;
//   * WorkerPool / VolumeManager kill-restart semantics (tasks queued on a
//     dead shard wait, never drop — including through pool teardown);
//   * a chaos smoke: kill/restart shards repeatedly under the multi-tenant
//     ground-truth verifier, zero dropped ops and exact live sets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fsim/fleet_sim.hpp"
#include "fsim/multi_tenant.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace util = backlog::util;

namespace {

// --- open-loop schedule -------------------------------------------------------

TEST(FleetSim, ArrivalScheduleIsDeterministic) {
  bf::OpenLoopOptions o;
  o.tenants = 20000;  // fleet-scale tenant count costs nothing here
  o.zipf_alpha = 1.1;
  o.arrivals_per_sec = 5000;
  o.duration_micros = 500'000;
  o.seed = 42;
  const std::vector<bf::ArrivalEvent> a = bf::build_arrival_schedule(o);
  const std::vector<bf::ArrivalEvent> b = bf::build_arrival_schedule(o);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // bit-identical event sequence, same construction twice

  o.seed = 43;
  const std::vector<bf::ArrivalEvent> c = bf::build_arrival_schedule(o);
  EXPECT_NE(a, c);
}

TEST(FleetSim, ArrivalScheduleShape) {
  bf::OpenLoopOptions o;
  o.tenants = 1000;
  o.zipf_alpha = 1.2;
  o.arrivals_per_sec = 4000;
  o.duration_micros = 1'000'000;
  o.seed = 7;
  const std::vector<bf::ArrivalEvent> events = bf::build_arrival_schedule(o);
  // Poisson(4000/s) over 1 s: ~4000 events; 5 sigma is ~316.
  EXPECT_GT(events.size(), 3600u);
  EXPECT_LT(events.size(), 4400u);
  std::uint64_t prev = 0;
  std::vector<std::uint64_t> per_tenant(o.tenants, 0);
  for (const bf::ArrivalEvent& ev : events) {
    EXPECT_GE(ev.at_micros, prev);  // schedule is time-ordered
    EXPECT_LT(ev.at_micros, o.duration_micros);
    ASSERT_LT(ev.tenant, o.tenants);
    prev = ev.at_micros;
    ++per_tenant[ev.tenant];
  }
  // Zipf skew: rank 1 strictly dominates the tail.
  EXPECT_GT(per_tenant[0], per_tenant[o.tenants - 1]);
  EXPECT_GT(per_tenant[0], events.size() / 100);
}

TEST(FleetSim, ZipfSamplerIsDeterministic) {
  const util::ZipfSampler zipf(5000, 1.1);
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = zipf.sample(rng_a);
    ASSERT_EQ(a, zipf.sample(rng_b));
    ASSERT_GE(a, 1u);
    ASSERT_LE(a, 5000u);
  }
}

TEST(FleetSim, EmptyScheduleEdgeCases) {
  bf::OpenLoopOptions o;
  o.tenants = 0;
  EXPECT_TRUE(bf::build_arrival_schedule(o).empty());
  o.tenants = 10;
  o.arrivals_per_sec = 0;
  EXPECT_TRUE(bf::build_arrival_schedule(o).empty());
  o.arrivals_per_sec = 100;
  o.duration_micros = 0;
  EXPECT_TRUE(bf::build_arrival_schedule(o).empty());
}

// --- QoS classes and SLO verdicts --------------------------------------------

TEST(FleetSim, ClassOfTenantMix) {
  // 1/8 gold, 3/8 silver, 1/2 bronze, deterministic by index.
  std::size_t gold = 0, silver = 0, bronze = 0;
  for (std::size_t i = 0; i < 8000; ++i) {
    switch (bf::class_of_tenant(i)) {
      case bf::QosClass::kGold: ++gold; break;
      case bf::QosClass::kSilver: ++silver; break;
      case bf::QosClass::kBronze: ++bronze; break;
    }
  }
  EXPECT_EQ(gold, 1000u);
  EXPECT_EQ(silver, 3000u);
  EXPECT_EQ(bronze, 4000u);
  EXPECT_EQ(bf::class_of_tenant(0), bf::QosClass::kGold);
  EXPECT_EQ(bf::class_of_tenant(1), bf::QosClass::kSilver);
  EXPECT_EQ(bf::class_of_tenant(7), bf::QosClass::kBronze);
  EXPECT_GT(bf::weight_of(bf::QosClass::kGold),
            bf::weight_of(bf::QosClass::kSilver));
  EXPECT_GT(bf::weight_of(bf::QosClass::kSilver),
            bf::weight_of(bf::QosClass::kBronze));
}

TEST(FleetSim, SloVerdictAgainstSyntheticHistograms) {
  // 100 waits of 1 ms: every sample lands in the (512, 1024] bucket with
  // max = 1000, so the interpolated p99 is 512 + 0.99 * (1000 - 512) = 995.
  bsvc::LatencyHistogram fast;
  for (int i = 0; i < 100; ++i) fast.record(1000);
  const bf::SloVerdict ok = bf::evaluate_slo(
      bf::QosClass::kGold, fast, bf::default_slo(bf::QosClass::kGold));
  EXPECT_EQ(ok.p99_micros, 995u);
  EXPECT_EQ(ok.samples, 100u);
  EXPECT_TRUE(ok.pass);

  // The same distribution shifted to 1 s blows through every class target.
  bsvc::LatencyHistogram slow;
  for (int i = 0; i < 100; ++i) slow.record(1'000'000);
  for (std::size_t c = 0; c < bf::kQosClasses; ++c) {
    const auto cls = static_cast<bf::QosClass>(c);
    const bf::SloVerdict v = bf::evaluate_slo(cls, slow, bf::default_slo(cls));
    EXPECT_FALSE(v.pass) << bf::to_string(cls);
    EXPECT_GT(v.p99_micros, v.target_micros);
  }

  // No samples -> vacuous pass (a class with no traffic breaches nothing).
  const bf::SloVerdict empty = bf::evaluate_slo(
      bf::QosClass::kBronze, bsvc::LatencyHistogram{},
      bf::default_slo(bf::QosClass::kBronze));
  EXPECT_TRUE(empty.pass);
  EXPECT_EQ(empty.samples, 0u);
}

TEST(FleetSim, FleetSloMergesPerClass) {
  bsvc::ServiceStats stats;
  // Two gold tenants, fast; one bronze tenant, catastrophically slow; one
  // unclassified volume that must be excluded from every class.
  for (const char* name : {"t00000", "t00008"}) {
    bsvc::TenantStats ts;
    for (int i = 0; i < 50; ++i) ts.queue_wait_micros.record(200);
    stats.tenants[name] = ts;
  }
  {
    bsvc::TenantStats ts;
    for (int i = 0; i < 50; ++i) ts.queue_wait_micros.record(2'000'000);
    stats.tenants["t00004"] = ts;  // index 4 -> bronze
  }
  {
    bsvc::TenantStats ts;
    for (int i = 0; i < 50; ++i) ts.queue_wait_micros.record(30'000'000);
    stats.tenants["verify-000"] = ts;  // no class: ignored
  }
  const auto verdicts = bf::evaluate_fleet_slo(
      stats,
      [](const std::string& name) -> std::optional<bf::QosClass> {
        if (name == "t00000" || name == "t00008") return bf::QosClass::kGold;
        if (name == "t00004") return bf::QosClass::kBronze;
        return std::nullopt;
      },
      bf::default_slo_table());
  ASSERT_EQ(verdicts.size(), bf::kQosClasses);
  EXPECT_EQ(verdicts[0].cls, bf::QosClass::kGold);
  EXPECT_EQ(verdicts[0].samples, 100u);  // both gold tenants merged
  EXPECT_TRUE(verdicts[0].pass);
  EXPECT_EQ(verdicts[1].samples, 0u);  // silver: no traffic, vacuous pass
  EXPECT_TRUE(verdicts[1].pass);
  EXPECT_EQ(verdicts[2].samples, 50u);
  EXPECT_FALSE(verdicts[2].pass);  // 2 s waits breach bronze's 400 ms
  // The 30 s unclassified histogram polluted nobody's verdict.
  EXPECT_LT(verdicts[0].p99_micros, 1000u);
}

// --- JSON escaping ------------------------------------------------------------

TEST(FleetSim, JsonEscapeHostileStrings) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("he said \"hi\""), "he said \\\"hi\\\"");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(util::json_escape("nl\nhere"), "nl\\nhere");
  // Spliced literal: "\x01b" would otherwise parse as the single byte 0x1b.
  EXPECT_EQ(util::json_escape(std::string("nul\x01" "byte")), "nul\\u0001byte");
  EXPECT_EQ(util::json_escape("unicode µ stays"), "unicode µ stays");
}

// --- shard kill/restart -------------------------------------------------------

TEST(FleetSim, KilledShardQueuesWorkAndRestartDrainsIt) {
  bsvc::WorkerPool pool(2, 8);
  ASSERT_TRUE(pool.shard_alive(0));
  ASSERT_TRUE(pool.kill_shard(0));
  EXPECT_FALSE(pool.shard_alive(0));
  EXPECT_FALSE(pool.kill_shard(0));  // already dead

  // Work submitted against the dead shard parks in its (open) queue.
  std::atomic<int> ran{0};
  std::promise<void> done;
  for (int i = 0; i < 10; ++i) {
    pool.submit(0, bsvc::Task([&] { ran.fetch_add(1); }));
  }
  pool.submit(0, bsvc::Task([&] { done.set_value(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_GE(pool.queue_depth(0), 10u);

  // The live shard is unaffected.
  std::promise<void> other;
  pool.submit(1, bsvc::Task([&] { other.set_value(); }));
  other.get_future().get();

  ASSERT_TRUE(pool.restart_shard(0));
  EXPECT_FALSE(pool.restart_shard(0));  // already alive
  done.get_future().get();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_TRUE(pool.shard_alive(0));
}

TEST(FleetSim, PoolTeardownWithDeadShardDropsNothing) {
  std::atomic<int> ran{0};
  {
    bsvc::WorkerPool pool(1, 8);
    ASSERT_TRUE(pool.kill_shard(0));
    for (int i = 0; i < 25; ++i) {
      pool.submit(0, bsvc::Task([&] { ran.fetch_add(1); }));
    }
    // Destructor must restart the dead shard and drain the queue.
  }
  EXPECT_EQ(ran.load(), 25);
}

TEST(FleetSim, VolumeManagerKillHooksValidate) {
  bs::TempDir dir("backlog_fleet_hooks");
  bsvc::ServiceOptions o;
  o.shards = 2;
  o.root = dir.path();
  bsvc::VolumeManager vm(o);
  EXPECT_THROW(vm.kill_shard(2), std::out_of_range);
  EXPECT_THROW(vm.restart_shard(9), std::out_of_range);
  EXPECT_THROW((void)vm.shard_alive(5), std::out_of_range);
  EXPECT_TRUE(vm.shard_alive(0));
  EXPECT_TRUE(vm.kill_shard(0));
  EXPECT_FALSE(vm.kill_shard(0));
  EXPECT_TRUE(vm.restart_shard(0));
  EXPECT_FALSE(vm.restart_shard(0));
  // Verbs still work end to end after a kill/restart cycle.
  vm.open_volume("a");
  std::vector<bsvc::UpdateOp> ops(1);
  ops[0].kind = bsvc::UpdateOp::Kind::kAdd;
  ops[0].key.block = 1;
  ops[0].key.inode = 2;
  ops[0].key.length = 1;
  vm.apply_batch("a", std::move(ops)).get();
  EXPECT_EQ(vm.query("a", 1).get().size(), 1u);
}

// The chaos smoke: the multi-tenant ground-truth verifier replays
// concurrently while shards are killed and restarted around it. Zero
// dropped ops (every feeder completes its full trace) and exact live sets.
TEST(FleetSim, ChaosSmokeKillRestartUnderVerifier) {
  bs::TempDir dir("backlog_fleet_chaos");
  bsvc::ServiceOptions o;
  o.shards = 2;
  o.root = dir.path();
  o.db_options.expected_ops_per_cp = 1000;
  bsvc::VolumeManager vm(o);

  bf::FleetOptions fo;
  fo.tenants = 3;
  fo.total_ops = 9000;
  fo.seed = 11;
  fo.base.snapshot_every_ops = 900;
  fo.base.clone_every_ops = 1500;
  const std::vector<bf::TenantWorkload> fleet = bf::synthesize_fleet(fo);
  for (const auto& w : fleet) vm.open_volume(w.tenant);

  std::vector<bf::TenantReplayResult> results;
  std::thread replayer([&] {
    bf::ReplayOptions ro;
    ro.batch_ops = 64;
    ro.ops_per_cp = 600;
    ro.query_every_ops = 128;
    results = bf::replay_concurrently(vm, fleet, ro);
  });

  // Chaos: alternate killing each shard while the replay runs.
  for (int round = 0; round < 6; ++round) {
    const std::size_t victim = static_cast<std::size_t>(round) % o.shards;
    if (vm.kill_shard(victim)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      vm.restart_shard(victim);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  replayer.join();

  ASSERT_EQ(results.size(), fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    // Zero dropped ops: the feeder pushed the entire trace through.
    EXPECT_EQ(results[i].ops, fleet[i].trace.ops.size()) << fleet[i].tenant;
    EXPECT_EQ(results[i].empty_query_results, 0u) << fleet[i].tenant;
    std::set<bc::BackrefKey> expect(fleet[i].trace.live_keys.begin(),
                                    fleet[i].trace.live_keys.end());
    std::set<bc::BackrefKey> got;
    for (const auto& rec : vm.scan_all(fleet[i].tenant).get()) {
      if (rec.to == bc::kInfinity) got.insert(rec.key);
    }
    EXPECT_EQ(got, expect) << fleet[i].tenant;
  }
  // The kill/restart counters made it into the metrics registry.
  const std::string prom = vm.metrics().to_prometheus();
  EXPECT_NE(prom.find("backlog_shard_kills_total"), std::string::npos);
}

}  // namespace
