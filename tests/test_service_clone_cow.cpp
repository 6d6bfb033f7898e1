// Copy-on-write clone_volume: sharing, refcount GC, crash and fault
// injection, and a TSan'd stress suite.
//
// The invariants under test, after *any* interleaving of clone / delete /
// destroy / compaction — including a process kill at every clone.* point
// the fault registry declares (around the FILEREFS refcount persist and the
// staging->dst commit rename), a FILEREFS left stale behind committed
// directories, and injected link/copy failures mid-clone:
//
//   * no leaks: every file on disk belongs to some volume's live manifest
//     (per volume: on-disk set == BacklogDb::live_files), and no `.cloning`
//     staging directory survives recovery;
//   * no dangles: every volume (source, clone, clone-of-clone) still serves
//     its full record state after any sharer compacts, deletes or dies;
//   * exact refcounts: the shared FileManifest equals a naive recount of
//     run-file names across the volume directories.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "core/file_manifest.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/fault_points.hpp"
#include "util/hash.hpp"

namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bu = backlog::util;
namespace fs = std::filesystem;

#if defined(__SANITIZE_THREAD__)
#define BACKLOG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BACKLOG_TSAN 1
#endif
#endif

namespace {

bsvc::ServiceOptions service_options(const fs::path& root,
                                     std::size_t shards = 2) {
  bsvc::ServiceOptions o;
  o.shards = shards;
  o.root = root;
  o.db_options.expected_ops_per_cp = 512;
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

bsvc::UpdateOp add(bc::BlockNo b) { return {bsvc::UpdateOp::Kind::kAdd, key(b)}; }
bsvc::UpdateOp rm(bc::BlockNo b) {
  return {bsvc::UpdateOp::Kind::kRemove, key(b)};
}

/// Seeds `tenant` with blocks [first, first+count) over several consistency
/// points, so the volume holds multiple run files worth sharing.
void seed_volume(bsvc::VolumeManager& vm, const std::string& tenant,
                 bc::BlockNo first, std::uint64_t count, int cps = 4) {
  const std::uint64_t per_cp = count / cps;
  bc::BlockNo b = first;
  for (int i = 0; i < cps; ++i) {
    std::vector<bsvc::UpdateOp> batch;
    const std::uint64_t n = (i == cps - 1) ? (first + count - b) : per_cp;
    for (std::uint64_t j = 0; j < n; ++j) batch.push_back(add(b++));
    vm.apply(tenant, std::move(batch)).get();
    vm.consistency_point(tenant).get();
  }
}

using KeyTuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t>;
KeyTuple tup(const bc::BackrefKey& k) {
  return {k.block, k.inode, k.offset, k.length, k.line};
}

std::uint64_t key_checksum(const bc::BackrefKey& k) {
  std::uint8_t buf[bc::kKeySize];
  bc::encode_key(k, buf);
  return backlog::util::hash_bytes(buf, sizeof buf, /*seed=*/0x6d69);
}

/// Joined record state of a volume, for whole-volume equality checks.
std::set<std::string> scan_strings(bsvc::VolumeManager& vm,
                                   const std::string& tenant) {
  std::set<std::string> out;
  vm.with_db(tenant,
             [&](bc::BacklogDb& db) {
               for (const auto& r : db.scan_all()) out.insert(bc::to_string(r));
             })
      .get();
  return out;
}

/// The leak/dangle/refcount invariant sweep. For every open tenant, the
/// live-manifest set and the directory listing are captured inside one
/// shard task (nothing of that volume's can interleave); the shared
/// FileManifest must then equal a naive recount of run names across the
/// directories.
void expect_cow_invariants(bsvc::VolumeManager& vm, const fs::path& root,
                           const std::vector<std::string>& tenants) {
  std::map<std::string, std::uint32_t> holders;
  for (const std::string& t : tenants) {
    std::set<std::string> live, on_disk;
    const fs::path dir = root / t;
    vm.with_db(t,
               [&](bc::BacklogDb& db) {
                 for (const auto& f : db.live_files()) live.insert(f);
                 for (const auto& de : fs::directory_iterator(dir)) {
                   if (de.is_regular_file())
                     on_disk.insert(de.path().filename().string());
                 }
               })
        .get();
    EXPECT_EQ(on_disk, live) << "leaked or missing files in " << t;
    for (const auto& f : live) {
      if (f.ends_with(".run")) ++holders[f];
    }
  }
  std::map<std::string, std::uint32_t> want;
  for (const auto& [name, n] : holders) {
    if (n >= 2) want.emplace(name, n);
  }
  std::map<std::string, std::uint32_t> got;
  for (const auto& [name, e] : vm.shared_files().snapshot()) {
    got.emplace(name, e.refcount);
  }
  EXPECT_EQ(got, want) << "FILEREFS disagrees with the naive recount";

  // No stray directories either: the root holds exactly the open volumes
  // (and never a `.cloning` staging leftover).
  std::set<std::string> dirs, expect_dirs(tenants.begin(), tenants.end());
  for (const auto& de : fs::directory_iterator(root)) {
    if (de.is_directory()) dirs.insert(de.path().filename().string());
  }
  EXPECT_EQ(dirs, expect_dirs);
}

}  // namespace

TEST(ServiceCloneCow, CloneSharesRunFilesWithoutCopyingData) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir.path()));
  vm.open_volume("alpha");
  seed_volume(vm, "alpha", 1, 256);
  const bc::Epoch snap = vm.take_snapshot("alpha").get();

  const auto before = scan_strings(vm, "alpha");
  const bc::LineId line = vm.clone_volume("alpha", "beta", 0, snap);
  EXPECT_GT(line, 0u);

  // The clone's record state is byte-identical (it *is* the same files).
  EXPECT_EQ(scan_strings(vm, "beta"), before);

  // Run files are hard links, not copies: two directory entries, one inode.
  const auto refs = vm.shared_files().snapshot();
  ASSERT_FALSE(refs.empty());
  for (const auto& [name, e] : refs) {
    EXPECT_EQ(e.refcount, 2u) << name;
    EXPECT_EQ(fs::hard_link_count(dir.path() / "beta" / name), 2u) << name;
    EXPECT_TRUE(fs::exists(dir.path() / "alpha" / name)) << name;
  }

  // Ownership gauges: both sides report the linked bytes as shared.
  const bsvc::ServiceStats stats = vm.stats();
  EXPECT_GT(stats.tenants.at("alpha").shared_bytes, 0u);
  EXPECT_EQ(stats.tenants.at("alpha").shared_bytes,
            stats.tenants.at("beta").shared_bytes);
  EXPECT_GT(stats.tenants.at("beta").owned_bytes, 0u);  // its copied manifest

  // Writes diverge: the clone's new runs are its own, the source never
  // sees them.
  vm.apply("beta", {add(10000)}).get();
  vm.consistency_point("beta").get();
  EXPECT_FALSE(vm.query("beta", 10000).get().empty());
  EXPECT_TRUE(vm.query("alpha", 10000).get().empty());
  EXPECT_EQ(scan_strings(vm, "alpha"), before);

  expect_cow_invariants(vm, dir.path(), {"alpha", "beta"});
}

TEST(ServiceCloneCow, CloneChainsShareTransitivelyAndCompactionUnshares) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir.path()));
  vm.open_volume("alpha");
  seed_volume(vm, "alpha", 1, 192);
  const bc::Epoch snap = vm.take_snapshot("alpha").get();

  // Depth-3 chain, every clone taken *from the previous clone* (its copied
  // registry retains (0, snap), so the same snapshot anchors every hop).
  const std::vector<std::string> chain = {"alpha", "b1", "b2", "b3"};
  for (std::size_t i = 1; i < chain.size(); ++i) {
    vm.clone_volume(chain[i - 1], chain[i], 0, snap);
  }
  // Every original run is now held by all four directories.
  const auto refs = vm.shared_files().snapshot();
  ASSERT_FALSE(refs.empty());
  bool saw_four = false;
  for (const auto& [name, e] : refs) saw_four |= e.refcount == 4;
  EXPECT_TRUE(saw_four);
  expect_cow_invariants(vm, dir.path(), chain);

  // Compaction un-shares: each maintain() rewrites that volume's runs into
  // fresh (tagged, sole-owned) files and releases its links. No sharer may
  // dangle at any point.
  const auto want = scan_strings(vm, "alpha");
  for (const std::string& t : chain) {
    vm.maintain(t).get();
    for (const std::string& u : chain) {
      EXPECT_EQ(scan_strings(vm, u), want) << u << " after maintaining " << t;
    }
  }
  // All four rewrote their files: nothing is shared any more, and the
  // refcount table says so.
  EXPECT_TRUE(vm.shared_files().snapshot().empty());
  expect_cow_invariants(vm, dir.path(), chain);
}

TEST(ServiceCloneCow, DestroyReleasesOnlyItsOwnReferences) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir.path()));
  vm.open_volume("alpha");
  seed_volume(vm, "alpha", 1, 128);
  const bc::Epoch snap = vm.take_snapshot("alpha").get();
  vm.clone_volume("alpha", "beta", 0, snap);
  vm.clone_volume("alpha", "gamma", 0, snap);

  const auto want = scan_strings(vm, "alpha");
  for (const auto& [name, e] : vm.shared_files().snapshot()) {
    EXPECT_EQ(e.refcount, 3u) << name;
  }

  // Destroying the *source* must not touch the clones: they hold links.
  vm.destroy_volume("alpha");
  EXPECT_FALSE(fs::exists(dir.path() / "alpha"));
  EXPECT_EQ(scan_strings(vm, "beta"), want);
  EXPECT_EQ(scan_strings(vm, "gamma"), want);
  for (const auto& [name, e] : vm.shared_files().snapshot()) {
    EXPECT_EQ(e.refcount, 2u) << name;
  }
  expect_cow_invariants(vm, dir.path(), {"beta", "gamma"});

  vm.destroy_volume("beta");
  EXPECT_EQ(scan_strings(vm, "gamma"), want);
  EXPECT_TRUE(vm.shared_files().snapshot().empty());  // gamma sole-owns
  expect_cow_invariants(vm, dir.path(), {"gamma"});

  vm.destroy_volume("gamma");
  expect_cow_invariants(vm, dir.path(), {});
}

TEST(ServiceCloneCow, UnlinkableRunsFallBackToByteCopyAndShareNothing) {
  // A file system that cannot hard-link (EXDEV across devices) still
  // clones: every run is byte-copied and none is counted as shared.
  bs::TempDir dir;
  bu::FaultPoints faults;
  faults.arm("env.link", bu::FaultAction::fail(EXDEV));
  bsvc::ServiceOptions so = service_options(dir.path());
  so.faults = &faults;
  bsvc::VolumeManager vm(so);
  vm.open_volume("alpha");
  seed_volume(vm, "alpha", 1, 128);
  const bc::Epoch snap = vm.take_snapshot("alpha").get();
  const auto want = scan_strings(vm, "alpha");
  vm.clone_volume("alpha", "beta", 0, snap);
  EXPECT_EQ(scan_strings(vm, "beta"), want);
  EXPECT_TRUE(vm.shared_files().snapshot().empty());
  std::size_t runs = 0;
  for (const auto& de : fs::directory_iterator(dir.path() / "beta")) {
    EXPECT_EQ(fs::hard_link_count(de.path()), 1u) << de.path();
    runs += de.path().extension() == ".run";
  }
  EXPECT_GT(runs, 0u);
  // A service restart recounts FILEREFS from the directories; the copies
  // duplicate run *names* across two dirs, but rebuild() verifies sharing
  // by inode identity and must not invent refcounts for them.
  {
    bsvc::VolumeManager reopened(service_options(dir.path()));
    EXPECT_TRUE(reopened.shared_files().snapshot().empty());
  }
  // No refcount recount here: a byte copy duplicates *names* without
  // sharing, so only the per-volume leak check applies.
  for (const char* t : {"alpha", "beta"}) {
    std::set<std::string> live, on_disk;
    const fs::path vdir = dir.path() / t;
    vm.with_db(t,
               [&](bc::BacklogDb& db) {
                 for (const auto& f : db.live_files()) live.insert(f);
                 for (const auto& de : fs::directory_iterator(vdir)) {
                   if (de.is_regular_file())
                     on_disk.insert(de.path().filename().string());
                 }
               })
        .get();
    EXPECT_EQ(on_disk, live) << t;
  }
}

TEST(ServiceCloneCow, FaultInjectedLinkFailureReleasesAndRecovers) {
  bs::TempDir dir;
  bu::FaultPoints faults;
  bsvc::ServiceOptions so = service_options(dir.path());
  so.faults = &faults;
  bsvc::VolumeManager vm(so);
  vm.open_volume("alpha");
  seed_volume(vm, "alpha", 1, 192);
  const bc::Epoch snap = vm.take_snapshot("alpha").get();
  const auto want = scan_strings(vm, "alpha");

  // Fail the third link with EIO (not a can't-link errno, so no fallback):
  // some references were already taken and must be stepped back with the
  // staged links.
  faults.arm("env.link", bu::FaultAction::fail(EIO).skip(2).once());
  EXPECT_THROW(vm.clone_volume("alpha", "beta", 0, snap), std::system_error);
  EXPECT_FALSE(fs::exists(dir.path() / "beta"));
  EXPECT_FALSE(fs::exists(dir.path() / "beta.cloning"));
  EXPECT_TRUE(vm.shared_files().snapshot().empty());
  EXPECT_FALSE(vm.has_volume("beta"));
  expect_cow_invariants(vm, dir.path(), {"alpha"});

  // Fail the metadata copy (the manifest copies before any run links).
  faults.arm("env.copy", bu::FaultAction::fail(EIO).once());
  EXPECT_THROW(vm.clone_volume("alpha", "beta", 0, snap), std::system_error);
  EXPECT_FALSE(fs::exists(dir.path() / "beta.cloning"));
  EXPECT_TRUE(vm.shared_files().snapshot().empty());
  expect_cow_invariants(vm, dir.path(), {"alpha"});

  // Both one-shot faults fired and disarmed: the same clone succeeds.
  vm.clone_volume("alpha", "beta", 0, snap);
  EXPECT_EQ(scan_strings(vm, "beta"), want);
  expect_cow_invariants(vm, dir.path(), {"alpha", "beta"});
}

TEST(ServiceCloneCow, StaleFileRefsBehindCommittedClonesRecountedOnStart) {
  // FILEREFS is a cache of the directories, never the truth: a service
  // that starts over a table older than its committed clones — a state
  // only a crash or a rolled-back table can leave, since every writer
  // (backlogctl included) runs inside the service — must recount it from
  // the directories.
  bs::TempDir dir;
  const fs::path refs = dir.path() / "FILEREFS";
  bc::Epoch snap = 0;
  std::set<std::string> want;
  {
    bsvc::VolumeManager vm(service_options(dir.path()));
    vm.open_volume("alpha");
    seed_volume(vm, "alpha", 1, 192);
    snap = vm.take_snapshot("alpha").get();
    want = scan_strings(vm, "alpha");
  }
  // A fresh root has no table yet; restoring that state means removing it.
  const bool had_refs = fs::exists(refs);
  const fs::path pre_clone = dir.path() / "FILEREFS.pre-clone";
  if (had_refs) fs::copy_file(refs, pre_clone);
  {
    bsvc::VolumeManager vm(service_options(dir.path()));
    vm.open_volume("alpha");
    vm.clone_volume("alpha", "beta", 0, snap);
    ASSERT_FALSE(vm.shared_files().snapshot().empty());
  }
  if (had_refs) {
    fs::rename(pre_clone, refs);
  } else {
    fs::remove(refs);
  }
  EXPECT_TRUE(bc::FileManifest(dir.path()).snapshot().empty())
      << "the restored table should know nothing of the clone";

  bsvc::VolumeManager vm(service_options(dir.path()));
  vm.open_volume("alpha");
  vm.open_volume("beta");
  EXPECT_FALSE(vm.shared_files().snapshot().empty());
  EXPECT_EQ(scan_strings(vm, "beta"), want);
  expect_cow_invariants(vm, dir.path(), {"alpha", "beta"});
  const auto persisted = bc::FileManifest(dir.path()).snapshot();
  const auto live = vm.shared_files().snapshot();
  ASSERT_EQ(persisted.size(), live.size()) << "the recount was not persisted";
  for (const auto& [name, e] : live) {
    ASSERT_TRUE(persisted.contains(name)) << name;
    EXPECT_EQ(persisted.at(name).refcount, e.refcount) << name;
  }
}

// --- crash injection ---------------------------------------------------------

namespace {

/// One row per clone commit point: whether the clone directory has
/// committed (renamed into place) when the process dies there.
struct CloneCrashRow {
  std::string_view point;
  bool committed;
};

constexpr CloneCrashRow kCloneCrashRows[] = {
    {"clone.files_staged", false},
    {"clone.refs_persisted", false},
    {"clone.committed", true},
};

/// Kills a clone at `row.point` by _exit()ing a forked child mid-commit,
/// then verifies recovery: the staging directory is gone, refcounts match
/// the naive recount, no file is leaked or dangling, and a retry of the
/// same clone succeeds.
void run_crash_case(const CloneCrashRow& row) {
  SCOPED_TRACE("crash at " + std::string(row.point));
  bs::TempDir dir;
  bc::Epoch snap = 0;
  std::set<std::string> want_alpha;
  {
    bsvc::VolumeManager vm(service_options(dir.path()));
    vm.open_volume("alpha");
    seed_volume(vm, "alpha", 1, 192);
    snap = vm.take_snapshot("alpha").get();
    want_alpha = scan_strings(vm, "alpha");
  }  // joined: the process is single-threaded again, safe to fork

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: rebuild the service with an action that kills the process at
    // the chosen point. _exit skips destructors — exactly a crash, minus
    // the kernel's page cache (which a same-host restart shares anyway).
    bu::FaultPoints faults;
    faults.arm(row.point, bu::FaultAction::call([] { ::_exit(0); }));
    bsvc::ServiceOptions so = service_options(dir.path());
    so.faults = &faults;
    try {
      bsvc::VolumeManager vm(so);
      vm.open_volume("alpha");
      vm.clone_volume("alpha", "beta", 0, snap);
    } catch (...) {
      ::_exit(18);
    }
    ::_exit(17);  // the point never fired — test bug
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child did not die at the point";

  // What the crash must have left behind, before recovery runs.
  const bool committed = row.committed;
  EXPECT_EQ(fs::exists(dir.path() / "beta"), committed);
  EXPECT_NE(fs::exists(dir.path() / "beta.cloning"), committed);
  if (row.point == "clone.refs_persisted") {
    // The refcount table was persisted ahead of the directory commit.
    EXPECT_GT(fs::file_size(dir.path() / "FILEREFS"), 0u);
  }

  // Recovery: constructing the service removes staging leftovers and
  // recounts the refcount table from the committed directories.
  bsvc::VolumeManager vm(service_options(dir.path()));
  EXPECT_FALSE(fs::exists(dir.path() / "beta.cloning"));
  vm.open_volume("alpha");
  std::vector<std::string> tenants = {"alpha"};
  if (committed) {
    // The clone committed: it recovers as a complete volume with the full
    // shared record state (only the extra writable line, which is created
    // and persisted after the commit, may be missing).
    vm.open_volume("beta");
    tenants.push_back("beta");
    EXPECT_EQ(scan_strings(vm, "beta"), want_alpha);
  }
  EXPECT_EQ(scan_strings(vm, "alpha"), want_alpha);
  expect_cow_invariants(vm, dir.path(), tenants);

  // The same clone (fresh name) succeeds after recovery.
  vm.clone_volume("alpha", "gamma", 0, snap);
  tenants.push_back("gamma");
  EXPECT_EQ(scan_strings(vm, "gamma"), want_alpha);
  expect_cow_invariants(vm, dir.path(), tenants);
}

}  // namespace

TEST(ServiceCloneCowCrash, TableCoversEveryDeclaredClonePoint) {
  for (const std::string_view name : bu::kFaultPoints) {
    if (!name.starts_with("clone.")) continue;
    const bool covered = std::any_of(
        std::begin(kCloneCrashRows), std::end(kCloneCrashRows),
        [name](const CloneCrashRow& r) { return r.point == name; });
    EXPECT_TRUE(covered) << "no crash case for declared point " << name;
  }
  for (const CloneCrashRow& r : kCloneCrashRows) {
    EXPECT_TRUE(r.point.starts_with("clone.") &&
                std::find(bu::kFaultPoints.begin(), bu::kFaultPoints.end(),
                          r.point) != bu::kFaultPoints.end())
        << "crash row names no declared clone point: " << r.point;
  }
}

TEST(ServiceCloneCowCrash, KillAtEveryClonePointRecovers) {
#ifdef BACKLOG_TSAN
  GTEST_SKIP() << "fork-based crash injection is not run under TSan";
#else
  for (const CloneCrashRow& row : kCloneCrashRows) {
    run_crash_case(row);
    if (HasFatalFailure()) return;
  }
#endif
}

// --- TSan stress -------------------------------------------------------------

TEST(ServiceCloneCowStress, ClonesRaceWritesCompactionDeletesAndMigration) {
  constexpr int kClones = 10;
  constexpr bc::BlockNo kSeeded = 96;
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir.path(), 3));
  bsvc::MaintenancePolicy mp;
  mp.l0_run_threshold = 4;
  mp.budget_per_sweep = 2;
  mp.poll_interval = std::chrono::milliseconds(2);
  bsvc::MaintenanceScheduler scheduler(vm, mp);

  vm.open_volume("src");
  seed_volume(vm, "src", 1, kSeeded);
  const bc::Epoch snap = vm.take_snapshot("src").get();

  // The autonomous balancer runs underneath everything: its clean-only
  // migrations race the clones exactly as in production.
  bsvc::BalancerPolicy bp;
  bp.poll_interval = std::chrono::milliseconds(2);
  bp.cooldown = std::chrono::milliseconds(10);
  bp.min_load_to_act = 2;
  bp.max_moves_per_cycle = 2;
  bsvc::Balancer balancer(vm, bp);
  balancer.start();

  std::atomic<bool> stop{false};

  // Writer: the only thread mutating src's records, so its bookkeeping is
  // the exact expected live set (per-volume op checksum at the end).
  std::set<KeyTuple> live;
  std::uint64_t live_checksum = 0;
  for (bc::BlockNo b = 1; b <= kSeeded; ++b) {
    live.insert(tup(key(b)));
    live_checksum ^= key_checksum(key(b));
  }
  std::thread writer([&] {
    bc::BlockNo next = 100000;
    std::vector<bc::BlockNo> removable;
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const bc::BlockNo fresh = next++;
      vm.apply("src", {add(fresh)}).get();
      live.insert(tup(key(fresh)));
      live_checksum ^= key_checksum(key(fresh));
      removable.push_back(fresh);
      if (n % 3 == 2 && removable.size() > 4) {
        const bc::BlockNo victim = removable.front();
        removable.erase(removable.begin());
        vm.apply("src", {rm(victim)}).get();
        live.erase(tup(key(victim)));
        live_checksum ^= key_checksum(key(victim));
      }
      if (++n % 40 == 0) vm.consistency_point("src").get();
    }
  });

  // Snapshot churn: retained versions come and go under the clones' feet
  // (never touching the anchor snapshot the clones branch from).
  std::thread snapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      try {
        const bc::Epoch v = vm.take_snapshot("src").get();
        vm.delete_snapshot("src", 0, v).get();
      } catch (const std::exception&) {
        // Racing a migration handoff — retry next round.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Balancer-style migration churn on the shared source volume.
  std::thread migrator([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      try {
        vm.migrate_volume("src", ++i % 3);
      } catch (const std::logic_error&) {
        // Handoff already in flight.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Main thread: a clone-of-clone chain racing all of the above; every
  // other clone is destroyed immediately (release + GC under fire).
  std::string prev = "src";
  for (int i = 0; i < kClones; ++i) {
    const std::string name = "c" + std::to_string(i);
    vm.clone_volume(prev, name, 0, snap);
    // The anchor snapshot's content must be visible in every clone.
    for (const bc::BlockNo b : {bc::BlockNo{1}, kSeeded / 2, kSeeded}) {
      ASSERT_FALSE(vm.query(name, b).get().empty())
          << name << " lost block " << b;
    }
    if (i % 2 == 1) {
      vm.destroy_volume(name);
    } else {
      prev = name;
    }
  }

  stop.store(true, std::memory_order_release);
  writer.join();
  snapper.join();
  migrator.join();
  balancer.stop();
  scheduler.stop();

  // Quiesce: flush and fully compact every surviving volume so the final
  // sweep races nothing (a queued background probe re-checks thresholds and
  // skips a just-maintained volume).
  std::vector<std::string> tenants = vm.tenants();
  std::sort(tenants.begin(), tenants.end());
  for (const std::string& t : tenants) {
    vm.consistency_point(t).get();
    vm.maintain(t).get();
  }

  // src's live records equal the writer's bookkeeping exactly.
  std::set<KeyTuple> got;
  std::uint64_t got_checksum = 0;
  vm.with_db("src",
             [&](bc::BacklogDb& db) {
               for (const auto& rec : db.scan_all()) {
                 if (rec.to != bc::kInfinity) continue;
                 got.insert(tup(rec.key));
                 got_checksum ^= key_checksum(rec.key);
               }
             })
      .get();
  EXPECT_EQ(got.size(), live.size());
  EXPECT_EQ(got_checksum, live_checksum);
  EXPECT_EQ(got, live);

  // And the global CoW invariants hold: no leaks, no dangles, exact refs.
  expect_cow_invariants(vm, dir.path(), tenants);
}
