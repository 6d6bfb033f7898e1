// The fault-injection registry: declaration, arming rules, action semantics
// (after / once / sticky / volume targeting), the Env write faults, and one
// service scenario that must reach every declared point.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "query_one.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/fault_points.hpp"

namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bu = backlog::util;
using backlog::testing::query_one;

namespace {

static_assert(bu::fault_point("env.create") == 0);
static_assert(bu::kFaultPoints[bu::fault_point("clone.committed")] ==
              "clone.committed");

/// Appends `n` bytes through a fresh file of `env`; returns whether the
/// append threw.
bool append_throws(bs::Env& env, const std::string& name, std::size_t n) {
  auto f = env.create_file(name);
  const std::vector<std::uint8_t> data(n, 0xab);
  try {
    f->append(data);
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), EIO);
    return true;
  }
  return false;
}

}  // namespace

TEST(FaultPoints, ArmingAnUndeclaredNameThrows) {
  bu::FaultPoints faults;
  EXPECT_THROW(faults.arm("env.unlink", bu::FaultAction::fail()),
               std::invalid_argument);
  EXPECT_THROW(faults.arm("registry_persisted", bu::FaultAction::fail()),
               std::invalid_argument);
  EXPECT_THROW(faults.arm("", bu::FaultAction::fail()), std::invalid_argument);
  // Malformed actions are refused too.
  EXPECT_THROW(faults.arm("env.sync", bu::FaultAction::call(nullptr)),
               std::invalid_argument);
  EXPECT_THROW(faults.arm("env.sync", bu::FaultAction::fail(0)),
               std::invalid_argument);
  for (const std::string_view name : bu::kFaultPoints) {
    EXPECT_NO_THROW(faults.arm(name, bu::FaultAction::fail())) << name;
  }
}

TEST(FaultPoints, AfterOnceAndVolumeTargeting) {
  bu::FaultPoints faults;
  int fired = 0;
  faults.arm("wal.synced", bu::FaultAction::call([&fired] { ++fired; })
                              .skip(2)
                              .once()
                              .on("a"));
  const std::size_t point = bu::fault_point("wal.synced");
  for (int i = 0; i < 5; ++i) (void)faults.hit(point, "b");  // other volume
  EXPECT_EQ(fired, 0);
  (void)faults.hit(point, "a");
  (void)faults.hit(point, "a");
  EXPECT_EQ(fired, 0);  // two hits pass untouched
  (void)faults.hit(point, "a");
  EXPECT_EQ(fired, 1);
  (void)faults.hit(point, "a");
  EXPECT_EQ(fired, 1);  // one-shot: disarmed after firing

  // Sticky (the default) keeps firing until disarmed.
  const bu::FaultPoints::Id id =
      faults.arm("wal.synced", bu::FaultAction::call([&fired] { ++fired; }));
  (void)faults.hit(point, "b");
  (void)faults.hit(point, "a");
  EXPECT_EQ(fired, 3);
  faults.disarm(id);
  (void)faults.hit(point, "a");
  EXPECT_EQ(fired, 3);
}

TEST(FaultPoints, CheckThrowsTheArmedErrno) {
  bu::FaultPoints faults;
  faults.arm("clone.files_staged", bu::FaultAction::fail(ENOSPC).once());
  const std::size_t point = bu::fault_point("clone.files_staged");
  try {
    faults.check(point, "vol");
    FAIL() << "expected an injected failure";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code(), std::errc::no_space_on_device);
  }
  EXPECT_NO_THROW(faults.check(point, "vol"));  // fired once, disarmed
}

TEST(FaultPoints, EnvWriteFaultsLandTheirPartialBytes) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bu::FaultPoints faults;
  env.set_faults(&faults, "v");

  // EIO: nothing lands.
  faults.arm("env.append", bu::FaultAction::fail().once());
  EXPECT_TRUE(append_throws(env, "eio", 1000));
  EXPECT_EQ(env.file_size("eio"), 0u);

  // Short write: half the data lands, then EIO.
  faults.arm("env.append",
             bu::FaultAction::fail(EIO, bu::FaultAction::Kind::kShortWrite)
                 .once());
  EXPECT_TRUE(append_throws(env, "short", 1000));
  EXPECT_EQ(env.file_size("short"), 500u);

  // Torn page: half of one 4 KB page lands, then EIO.
  faults.arm("env.append",
             bu::FaultAction::fail(EIO, bu::FaultAction::Kind::kTornPage)
                 .once());
  EXPECT_TRUE(append_throws(env, "torn", 3 * bs::kPageSize));
  EXPECT_EQ(env.file_size("torn"), bs::kPageSize / 2);

  // One-shot faults healed: appends succeed again.
  EXPECT_FALSE(append_throws(env, "healed", 1000));
  EXPECT_EQ(env.file_size("healed"), 1000u);
}

TEST(FaultPoints, StickyTearLatchesToPlainFailureAfterNWrites) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bu::FaultPoints faults;
  env.set_faults(&faults, "v");
  const bu::FaultPoints::Id tear = faults.arm(
      "env.append",
      bu::FaultAction::fail(EIO, bu::FaultAction::Kind::kShortWrite).skip(1));
  EXPECT_FALSE(append_throws(env, "a", 100));  // the one write let through
  EXPECT_TRUE(append_throws(env, "b", 100));
  EXPECT_EQ(env.file_size("b"), 50u);  // torn once ...
  EXPECT_TRUE(append_throws(env, "c", 100));
  EXPECT_EQ(env.file_size("c"), 0u);  // ... then a persistent plain EIO
  // Another volume's Env is unaffected by an action aimed at "v" only.
  faults.disarm(tear);
  faults.arm("env.append", bu::FaultAction::fail().on("v"));
  bs::Env other(dir.path() / "other");
  other.set_faults(&faults, "w");
  EXPECT_FALSE(append_throws(other, "d", 100));
  EXPECT_TRUE(append_throws(env, "e", 100));
}

TEST(FaultPoints, ArmingRacesHitsFromOtherThreads) {
  bu::FaultPoints faults;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sticky_fired{0}, once_fired{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 3; ++t) {
    hitters.emplace_back([&faults, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)faults.hit(bu::fault_point("env.append"), "v");
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    faults.disarm(faults.arm("env.append", bu::FaultAction::call([&] {
                                             sticky_fired.fetch_add(1);
                                           })));
  }
  faults.arm("env.append",
             bu::FaultAction::call([&] { once_fired.fetch_add(1); }).once());
  while (once_fired.load() == 0) std::this_thread::yield();
  stop.store(true);
  for (auto& t : hitters) t.join();
  EXPECT_EQ(once_fired.load(), 1u);  // three racing hitters, one firing
}

TEST(FaultPoints, OneCloneWalCpScenarioHitsEveryDeclaredPoint) {
  bs::TempDir dir;
  bu::FaultPoints faults;
  std::array<std::atomic<std::uint64_t>, bu::kFaultPoints.size()> hits{};
  for (std::size_t i = 0; i < bu::kFaultPoints.size(); ++i) {
    faults.arm(bu::kFaultPoints[i],
               bu::FaultAction::call([&hits, i] { hits[i].fetch_add(1); }));
  }
  bsvc::ServiceOptions so;
  so.shards = 1;
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = 512;
  so.wal_enabled = true;
  so.faults = &faults;
  {
    bsvc::VolumeManager vm(so);
    vm.open_volume("alpha");
    std::vector<bsvc::UpdateOp> batch;
    for (bc::BlockNo b = 1; b <= 64; ++b) {
      bc::BackrefKey k;
      k.block = b;
      k.inode = 2;
      k.length = 1;
      batch.push_back({bsvc::UpdateOp::Kind::kAdd, k});
    }
    vm.apply_batch("alpha", batch).get();
    vm.consistency_point("alpha").get();
    const bc::Epoch snap = vm.take_snapshot("alpha").get();
    vm.clone_volume("alpha", "beta", 0, snap);
    EXPECT_FALSE(query_one(vm, "beta", 10).get().empty());
    vm.maintain("alpha").get();  // retires the replaced runs: env.delete
  }
  for (std::size_t i = 0; i < bu::kFaultPoints.size(); ++i) {
    EXPECT_GE(hits[i].load(), 1u) << "never hit: " << bu::kFaultPoints[i];
  }
}
