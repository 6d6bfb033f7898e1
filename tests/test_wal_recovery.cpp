// The WAL durability pipeline under fire.
//
// Five suites:
//
//   * WalReplay — the log's untrusted-input decoder, driven directly: a
//     torn tail truncated at *every* byte offset and a bit flip at every
//     byte must clean-reject (never throw), applying exactly the intact
//     record prefix; CRC-valid records carrying ops the db would refuse
//     (kind out of range, zero/over-cap extents) are rejected the same way.
//   * ManifestReplay — the same cuts and flips over a MANIFEST, which
//     shares the WAL's record log: damage in the base fails the open, any
//     other damage reopens to the last intact edit with no orphan runs.
//   * WalCrashMatrix — fork/_exit crash injection at every commit-pipeline
//     ordering point the fault registry declares (the wal.* and cp.* names
//     in util/fault_points.hpp), each at two adjacent firings; a coverage
//     test fails when a declared point has no row in the table.
//     _exit skips destructors but keeps the kernel page cache, so the
//     recovered state is *deterministic*: every batch whose injection point
//     fired is present — via WAL replay before the registry commits, via
//     run files after — and recovery must agree exactly with an in-test
//     model, with the on-disk file set, and with a NaiveBackrefs replay of
//     the same op sequence (zero masked-query divergence).
//   * WalGroupCommit — the commit window amortizes fsyncs across batches
//     and volumes of a busy shard, while a lone batch on an idle shard is
//     acked without waiting the window out; window 0 degenerates to per-op
//     fsync; acked writes survive a reopen with no consistency point in
//     between.
//   * WoundedVolume — persistent write errors (env.append / env.sync
//     failures armed on one volume) flip it read-only: every mutating verb
//     returns typed ErrorCode::kWounded (in-process and over the wire),
//     reads keep working, the gauge reports it, and a torn-page fault's
//     half-written record is clean-rejected on the next open.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "baseline/naive_backrefs.hpp"
#include "core/backlog_db.hpp"
#include "core/wal.hpp"
#include "net/client.hpp"
#include "net/handlers.hpp"
#include "query_one.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/fault_points.hpp"

namespace bb = backlog::baseline;
namespace bc = backlog::core;
namespace bn = backlog::net;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bu = backlog::util;
namespace fs = std::filesystem;
using backlog::testing::query_one;

#if defined(__SANITIZE_THREAD__)
#define BACKLOG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BACKLOG_TSAN 1
#endif
#endif

namespace {

bsvc::ServiceOptions wal_options(const fs::path& root,
                                 std::uint32_t window_micros = 0) {
  bsvc::ServiceOptions o;
  o.shards = 1;
  o.root = root;
  o.db_options.expected_ops_per_cp = 512;
  o.sync_writes = false;  // wal_enabled re-enables real fsyncs on the Env
  o.wal_enabled = true;
  o.wal_commit_window_micros = window_micros;
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

using KeyTuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t>;
KeyTuple tup(const bc::BackrefKey& k) {
  return {k.block, k.inode, k.offset, k.length, k.line};
}

// Every block the tests touch lives below this, so one masked query over
// [0, kUniverse) is the volume's whole live set.
constexpr std::uint64_t kUniverse = 512;

std::set<KeyTuple> live_keys(bsvc::VolumeManager& vm, const std::string& t) {
  std::set<KeyTuple> out;
  for (const auto& e : query_one(vm, t, 0, kUniverse).get()) {
    if (e.rec.to == bc::kInfinity) out.insert(tup(e.rec.key));
  }
  return out;
}

/// On-disk == manifest: every regular file in the volume directory except
/// the WAL itself (never part of the manifest) is referenced by live_files,
/// and nothing referenced is missing — no leaked orphan runs after recovery.
void expect_disk_matches_manifest(bsvc::VolumeManager& vm, const fs::path& root,
                                  const std::string& tenant) {
  std::set<std::string> live, on_disk;
  vm.with_db(tenant,
             [&](bc::BacklogDb& db) {
               for (const auto& f : db.live_files()) live.insert(f);
               for (const auto& de : fs::directory_iterator(root / tenant)) {
                 if (de.is_regular_file())
                   on_disk.insert(de.path().filename().string());
               }
             })
      .get();
  on_disk.erase(bc::Wal::kDefaultName);
  EXPECT_EQ(on_disk, live) << "leaked or missing files in " << tenant;
}

/// Replays `ops` through the naive conceptual table and returns its live
/// key set — the reference a recovered volume must not diverge from.
std::set<KeyTuple> naive_live_keys(const std::vector<bsvc::UpdateOp>& ops) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bb::NaiveBackrefs naive(env);
  for (const bsvc::UpdateOp& op : ops) {
    if (op.kind == bsvc::UpdateOp::Kind::kAdd) {
      naive.add_reference(op.key);
    } else {
      naive.remove_reference(op.key);
    }
  }
  naive.on_consistency_point();
  std::set<KeyTuple> out;
  for (const auto& r : naive.query(0, kUniverse)) {
    if (r.to == bc::kInfinity) out.insert(tup(r.key));
  }
  return out;
}

void apply_to_model(std::set<KeyTuple>& model,
                    const std::vector<bsvc::UpdateOp>& batch) {
  for (const bsvc::UpdateOp& op : batch) {
    if (op.kind == bsvc::UpdateOp::Kind::kAdd) {
      model.insert(tup(op.key));
    } else {
      model.erase(tup(op.key));
    }
  }
}

bsvc::ErrorCode code_of(std::future<void>& f) {
  try {
    f.get();
  } catch (const bsvc::ServiceError& e) {
    return e.code();
  } catch (...) {
    ADD_FAILURE() << "expected ServiceError";
  }
  return bsvc::ErrorCode::kOk;
}

// --- record-log replay: the untrusted decoder --------------------------------

std::vector<char> read_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& file, const std::vector<char>& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<bsvc::UpdateOp> record_ops(bc::BlockNo first, std::uint64_t n) {
  std::vector<bsvc::UpdateOp> ops;
  for (std::uint64_t i = 0; i < n; ++i) ops.push_back(add(first + i));
  return ops;
}

/// Writes `records` (epoch, ops) pairs through the real append path and
/// returns the resulting file bytes.
std::vector<char> build_log(const fs::path& dir,
                            const std::vector<std::vector<bsvc::UpdateOp>>& recs) {
  {
    bs::Env env(dir);
    bc::Wal wal(env);
    bc::Epoch epoch = 1;
    for (const auto& r : recs) wal.append(epoch++, r);
    wal.sync();
  }
  return read_bytes(dir / bc::Wal::kDefaultName);
}

void write_log(const fs::path& dir, const std::vector<char>& bytes) {
  write_bytes(dir / bc::Wal::kDefaultName, bytes);
}

bc::WalReplayStats replay_count(const fs::path& dir, std::uint64_t* ops_seen,
                                bc::WalReplayOptions opts = {}) {
  bs::Env env(dir);
  std::uint64_t n = 0;
  const bc::WalReplayStats st = bc::Wal::replay(
      env, bc::Wal::kDefaultName, opts,
      [&n](bc::Epoch, std::span<const bc::Update> ops) { n += ops.size(); });
  if (ops_seen != nullptr) *ops_seen = n;
  return st;
}

TEST(WalReplay, MissingAndEmptyLogsReplayNothing) {
  bs::TempDir dir;
  std::uint64_t n = 0;
  bc::WalReplayStats st = replay_count(dir.path(), &n);
  EXPECT_EQ(st.frames_scanned, 0u);
  EXPECT_EQ(st.bytes_rejected, 0u);
  EXPECT_EQ(n, 0u);

  build_log(dir.path(), {});  // creates the file, appends nothing
  st = replay_count(dir.path(), &n);
  EXPECT_EQ(st.frames_scanned, 0u);
  EXPECT_EQ(st.bytes_rejected, 0u);
}

TEST(WalReplay, RoundTripAppliesEveryRecordInOrder) {
  bs::TempDir dir;
  build_log(dir.path(),
            {record_ops(10, 3), record_ops(20, 5), record_ops(30, 2)});
  bs::Env env(dir.path());
  std::vector<std::uint64_t> blocks;
  std::vector<bc::Epoch> epochs;
  const bc::WalReplayStats st = bc::Wal::replay(
      env, bc::Wal::kDefaultName, {},
      [&](bc::Epoch e, std::span<const bc::Update> ops) {
        epochs.push_back(e);
        for (const auto& op : ops) blocks.push_back(op.key.block);
      });
  EXPECT_EQ(st.frames_scanned, 3u);
  EXPECT_EQ(st.ops_applied, 10u);
  EXPECT_EQ(st.bytes_rejected, 0u);
  EXPECT_EQ(epochs, (std::vector<bc::Epoch>{1, 2, 3}));
  EXPECT_EQ(blocks, (std::vector<std::uint64_t>{10, 11, 12, 20, 21, 22, 23,
                                                24, 30, 31}));
}

TEST(WalReplay, RecordsBelowMinEpochAreSkippedNotApplied) {
  bs::TempDir dir;
  build_log(dir.path(),
            {record_ops(10, 4), record_ops(20, 4), record_ops(30, 4)});
  std::uint64_t n = 0;
  bc::WalReplayOptions opts;
  opts.min_epoch = 2;  // record 1 (epoch 1) is already durable in runs
  const bc::WalReplayStats st = replay_count(dir.path(), &n, opts);
  EXPECT_EQ(st.frames_scanned, 3u);
  EXPECT_EQ(st.ops_skipped, 4u);
  EXPECT_EQ(st.ops_applied, 8u);
  EXPECT_EQ(n, 8u);
}

/// A record log to damage: its intact bytes, the offset at which each
/// record ends, and a check of a damaged copy given the number of whole
/// records before the damage and the bytes from there to EOF, which must be
/// rejected.
struct LogUnderTest {
  std::vector<char> good;
  std::vector<std::size_t> ends;
  std::function<void(const std::vector<char>& bytes, std::size_t intact,
                     std::size_t rejected)>
      check;
};

/// The whole records within the first `n` bytes: their count and end.
std::pair<std::size_t, std::size_t> intact_prefix(const LogUnderTest& log,
                                                  std::size_t n) {
  std::size_t k = 0, end = 0;
  while (k < log.ends.size() && log.ends[k] <= n) end = log.ends[k++];
  return {k, end};
}

void truncate_at_every_byte(const LogUnderTest& log) {
  ASSERT_FALSE(log.ends.empty());
  ASSERT_EQ(log.ends.back(), log.good.size());
  for (std::size_t cut = 0; cut <= log.good.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    // The longest whole-record prefix within the cut survives; the rest is
    // rejected as a torn tail.
    const auto [intact, boundary] = intact_prefix(log, cut);
    log.check({log.good.begin(), log.good.begin() + cut}, intact,
              cut - boundary);
  }
}

void flip_every_byte(const LogUnderTest& log) {
  ASSERT_FALSE(log.ends.empty());
  ASSERT_EQ(log.ends.back(), log.good.size());
  for (std::size_t i = 0; i < log.good.size(); ++i) {
    SCOPED_TRACE("flip at " + std::to_string(i));
    auto bad = log.good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    // Records strictly before the flipped one survive; the flip's record
    // and everything after it are rejected (a flipped magic is foreign, a
    // flipped length overruns the file or misplaces the CRC, and the CRC
    // covers every payload byte).
    const auto [intact, boundary] = intact_prefix(log, i);
    log.check(bad, intact, log.good.size() - boundary);
  }
}

/// Three WAL records of 3, 1 and 5 ops; each check replays the damaged log.
LogUnderTest wal_under_test(const fs::path& dir) {
  const std::vector<std::uint64_t> per_record = {3, 1, 5};
  LogUnderTest log;
  log.good = build_log(dir, {record_ops(10, 3), record_ops(20, 1),
                             record_ops(30, 5)});
  std::vector<std::uint64_t> ops_before = {0};
  std::size_t off = 0;
  for (const std::uint64_t n : per_record) {
    off += bc::RecordLog::kFrameOverhead + bc::Wal::kPayloadHeaderSize +
           n * bc::Wal::kOpSize;
    log.ends.push_back(off);
    ops_before.push_back(ops_before.back() + n);
  }
  log.check = [dir, ops_before](const std::vector<char>& bytes,
                                std::size_t intact, std::size_t rejected) {
    write_log(dir, bytes);
    std::uint64_t n = 0;
    bc::WalReplayStats st;
    ASSERT_NO_THROW(st = replay_count(dir, &n));
    EXPECT_EQ(n, ops_before[intact]);
    EXPECT_EQ(st.frames_scanned, intact);
    EXPECT_EQ(st.bytes_rejected, rejected);
  };
  return log;
}

/// What a reopened db shows: every raw record, the CP and the snapshots.
using DbState =
    std::tuple<std::vector<bc::CombinedRecord>, bc::Epoch, std::vector<bc::Epoch>>;
DbState db_state(bc::BacklogDb& db) {
  return {db.query_raw(0, kUniverse), db.current_cp(),
          db.registry().snapshots(0)};
}

/// A MANIFEST with a base and three edits: one with runs, one with a
/// snapshot, one with a relocation's runs and deletion-vector entries. Each
/// check reopens a copy of `dir` whose MANIFEST holds the damaged bytes:
/// damage inside the base fails the open, any other damage reopens to the
/// state after the last intact edit and leaves no orphan run on disk.
LogUnderTest manifest_under_test(const fs::path& dir) {
  LogUnderTest log;
  std::vector<DbState> states;
  {
    bs::Env env(dir);
    {
      bc::BacklogDb db(env);
      for (std::uint64_t b = 0; b < 40; ++b) db.add_reference(key(b));
      db.consistency_point();
    }
    bc::BacklogDb db(env);  // the reopen writes a base naming those runs
    const auto record_end = [&] {
      log.ends.push_back(env.file_size("MANIFEST"));
      states.push_back(db_state(db));
    };
    record_end();
    for (std::uint64_t b = 40; b < 60; ++b) db.add_reference(key(b));
    for (std::uint64_t b = 0; b < 10; ++b) db.remove_reference(key(b));
    db.consistency_point();
    record_end();
    db.registry().take_snapshot(0);
    db.consistency_point();
    record_end();
    db.relocate(20, 10, 400);
    db.consistency_point();
    record_end();
  }
  log.good = read_bytes(dir / "MANIFEST");
  log.check = [dir, states](const std::vector<char>& bytes, std::size_t intact,
                            std::size_t) {
    bs::TempDir copy;
    for (const auto& de : fs::directory_iterator(dir)) {
      if (de.path().filename() != "MANIFEST")
        fs::create_hard_link(de.path(), copy.path() / de.path().filename());
    }
    write_bytes(copy.path() / "MANIFEST", bytes);
    bs::Env env(copy.path());
    env.set_sync(false);
    if (intact == 0) {
      EXPECT_THROW({ bc::BacklogDb db(env); }, std::runtime_error);
      return;
    }
    std::unique_ptr<bc::BacklogDb> db;
    ASSERT_NO_THROW(db = std::make_unique<bc::BacklogDb>(env));
    EXPECT_TRUE(db_state(*db) == states[intact - 1]);
    std::set<std::string> live, on_disk;
    for (const std::string& f : db->live_files()) live.insert(f);
    for (const auto& de : fs::directory_iterator(copy.path()))
      on_disk.insert(de.path().filename().string());
    EXPECT_EQ(on_disk, live) << "orphan or missing files";
  };
  return log;
}

TEST(WalReplay, TruncationAtEveryByteCleanRejectsTheTail) {
  bs::TempDir dir;
  truncate_at_every_byte(wal_under_test(dir.path()));
}

TEST(WalReplay, BitFlipAtEveryByteCleanRejectsFromTheFlippedRecord) {
  bs::TempDir dir;
  flip_every_byte(wal_under_test(dir.path()));
}

TEST(ManifestReplay, TruncationAtEveryByteReopensTheLastIntactEdit) {
  bs::TempDir dir;
  truncate_at_every_byte(manifest_under_test(dir.path()));
}

TEST(ManifestReplay, BitFlipAtEveryByteReopensTheLastIntactEdit) {
  bs::TempDir dir;
  flip_every_byte(manifest_under_test(dir.path()));
}

TEST(ManifestReplay, BatchLoggedAfterAFailedCpSurvivesACrashBeforeTheRetry) {
  // A CP's manifest edit fails: a failed sync leaves the whole edit in the
  // file, a short write tears it. A batch acked after the failure is logged
  // at current_cp(); a crash before any retry must replay it, whichever CP
  // the reopen finds.
  for (const bool tear : {false, true}) {
    SCOPED_TRACE(tear ? "torn edit" : "failed sync");
    bs::TempDir dir;
    {
      bu::FaultPoints faults;
      bs::Env env(dir.path());
      env.set_faults(&faults, "v");
      bc::BacklogDb db(env);
      bc::Wal wal(env);
      const auto log_batch = [&](bc::BlockNo first) {
        const std::vector<bsvc::UpdateOp> ops = record_ops(first, 100);
        db.apply_many(ops);
        wal.append(db.current_cp(), ops);
        wal.sync();
      };
      log_batch(0);
      // The runs are written when "cp.flushed" fires; the next append and
      // sync are the manifest edit's.
      const auto fail_the_edit = [&faults, tear] {
        if (tear)
          faults.arm("env.append",
                     bu::FaultAction::fail(EIO, bu::FaultAction::Kind::kShortWrite)
                         .once());
        else
          faults.arm("env.sync", bu::FaultAction::fail(EIO).once());
      };
      faults.arm("cp.flushed", bu::FaultAction::call(fail_the_edit).once());
      EXPECT_THROW(db.consistency_point(), std::system_error);
      log_batch(100);
    }  // dropped without a retry, as in a crash
    bs::Env env(dir.path());
    bc::BacklogDb db(env);
    EXPECT_EQ(db.current_cp(), tear ? 1u : 2u);
    bc::WalReplayOptions ropts;
    ropts.min_epoch = db.current_cp();
    bc::Wal::replay(env, bc::Wal::kDefaultName, ropts,
                    [&db](bc::Epoch, std::span<const bc::Update> ops) {
                      db.apply_many(ops);
                    });
    EXPECT_EQ(db.query_raw(0, kUniverse).size(), 200u);
  }
}

TEST(WalReplay, CrcValidRecordWithImpossibleOpsIsRejectedNotApplied) {
  // The append path can be coaxed into logging ops the db would refuse —
  // replay must treat them as corruption, not input.
  {
    bs::TempDir dir;
    bs::Env env(dir.path());
    bc::Wal wal(env);
    bc::BackrefKey zero_len = key(10);
    zero_len.length = 0;
    const std::vector<bsvc::UpdateOp> ops = {
        {bsvc::UpdateOp::Kind::kAdd, zero_len}};
    wal.append(1, ops);
    wal.sync();
    std::uint64_t n = 0;
    const bc::WalReplayStats st = replay_count(dir.path(), &n);
    EXPECT_EQ(n, 0u);
    EXPECT_GT(st.bytes_rejected, 0u);
  }
  {
    bs::TempDir dir;
    bs::Env env(dir.path());
    bc::Wal wal(env);
    bc::BackrefKey huge = key(10);
    huge.length = 1 << 20;
    const std::vector<bsvc::UpdateOp> ops = {
        {bsvc::UpdateOp::Kind::kAdd, huge}};
    wal.append(1, ops);
    wal.sync();
    std::uint64_t n = 0;
    bc::WalReplayOptions opts;
    opts.max_extent_blocks = 128;
    const bc::WalReplayStats st = replay_count(dir.path(), &n, opts);
    EXPECT_EQ(n, 0u);
    EXPECT_GT(st.bytes_rejected, 0u);
  }
}

// --- crash matrix ------------------------------------------------------------

/// The child's workload after the parent seeded and committed batch A:
/// apply B1, apply B2, CP, apply B3, CP. Injection points fire in a fixed
/// order, so each (point, ordinal) pins an exact prefix of batches whose
/// point fired before the kill — and _exit keeps the page cache, so exactly
/// that prefix must recover.
std::vector<std::vector<bsvc::UpdateOp>> crash_batches() {
  std::vector<bsvc::UpdateOp> b1, b2, b3;
  for (std::uint64_t i = 0; i < 16; ++i) b1.push_back(add(100 + i));
  for (std::uint64_t i = 0; i < 16; ++i) b2.push_back(add(200 + i));
  for (std::uint64_t i = 0; i < 4; ++i) b2.push_back(rm(104 + i));
  for (std::uint64_t i = 0; i < 16; ++i) b3.push_back(add(300 + i));
  return {b1, b2, b3};
}

/// Kills a forked child at the `ordinal`-th firing of `point`, then verifies
/// the recovered volume holds exactly the first `expect_batches` batches on
/// top of the seed — against an in-test model, the on-disk file set, and a
/// NaiveBackrefs replay of the same ops.
void run_wal_crash_case(std::string_view point, int ordinal,
                        int expect_batches) {
  SCOPED_TRACE(std::string("crash at ") + std::string(point) + " firing #" +
               std::to_string(ordinal));
  bs::TempDir dir;
  const auto batches = crash_batches();
  std::vector<bsvc::UpdateOp> seed;
  for (std::uint64_t b = 1; b <= 48; ++b) seed.push_back(add(b));

  {
    bsvc::VolumeManager vm(wal_options(dir.path()));
    vm.open_volume("alpha");
    vm.apply_batch("alpha", seed).get();
    vm.consistency_point("alpha").get();
  }  // joined: single-threaded again, safe to fork

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    bsvc::ServiceOptions so = wal_options(dir.path());
    bu::FaultPoints faults;
    faults.arm(point, bu::FaultAction::call([] { ::_exit(0); })
                          .skip(static_cast<std::uint64_t>(ordinal - 1)));
    so.faults = &faults;
    try {
      bsvc::VolumeManager vm(so);
      vm.open_volume("alpha");
      vm.apply_batch("alpha", batches[0]).get();
      vm.apply_batch("alpha", batches[1]).get();
      vm.consistency_point("alpha").get();
      vm.apply_batch("alpha", batches[2]).get();
      vm.consistency_point("alpha").get();
    } catch (...) {
      ::_exit(18);
    }
    ::_exit(17);  // the injection point never fired — test bug
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child did not die at the point";

  std::set<KeyTuple> model;
  std::vector<bsvc::UpdateOp> replayed_ops = seed;
  apply_to_model(model, seed);
  for (int i = 0; i < expect_batches; ++i) {
    apply_to_model(model, batches[i]);
    replayed_ops.insert(replayed_ops.end(), batches[i].begin(),
                        batches[i].end());
  }

  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("alpha");
  EXPECT_EQ(live_keys(vm, "alpha"), model) << "recovered state != model";
  EXPECT_EQ(live_keys(vm, "alpha"), naive_live_keys(replayed_ops))
      << "masked-query divergence vs NaiveBackrefs";
  expect_disk_matches_manifest(vm, dir.path(), "alpha");

  // The recovered volume is fully serviceable: a fresh committed write
  // round-trips.
  vm.apply_batch("alpha", {add(450)}).get();
  vm.consistency_point("alpha").get();
  EXPECT_FALSE(query_one(vm, "alpha", 450).get().empty());
}

/// One row per durability point of the commit pipeline: the batches that
/// must recover after a kill at the point's first and second firing. The
/// kill points and what each proves:
///   wal.appended  the record is in the log (page cache) but unsynced and
///                 unacked; an un-fsynced write survives process death
///   wal.synced    the acked case: the fsync completed, a hard promise
///   cp.flushed    runs are on disk but the registry is not: they recover as
///                 orphans and are removed, the untruncated WAL re-supplies
///                 every op
///   cp.registry_persisted
///                 the CP committed: WAL records now sit below the recovered
///                 epoch and must be skipped, never applied twice
///   wal.truncated the log is empty behind the committed CP
struct WalCrashRow {
  std::string_view point;
  int batches_at_first;
  int batches_at_second;
};

constexpr WalCrashRow kWalCrashRows[] = {
    {"wal.appended", 1, 2},          {"wal.synced", 1, 2},
    {"cp.flushed", 2, 3},            {"cp.registry_persisted", 2, 3},
    {"wal.truncated", 2, 3},
};

bool is_pipeline_point(std::string_view name) {
  return name.starts_with("wal.") || name.starts_with("cp.");
}

}  // namespace

TEST(WalCrashMatrix, TableCoversEveryDeclaredPipelinePoint) {
  for (const std::string_view name : bu::kFaultPoints) {
    if (!is_pipeline_point(name)) continue;
    const bool covered =
        std::any_of(std::begin(kWalCrashRows), std::end(kWalCrashRows),
                    [name](const WalCrashRow& r) { return r.point == name; });
    EXPECT_TRUE(covered) << "no crash case for declared point " << name;
  }
  for (const WalCrashRow& r : kWalCrashRows) {
    EXPECT_TRUE(is_pipeline_point(r.point) &&
                std::find(bu::kFaultPoints.begin(), bu::kFaultPoints.end(),
                          r.point) != bu::kFaultPoints.end())
        << "crash row names no declared pipeline point: " << r.point;
  }
}

#ifndef BACKLOG_TSAN
class WalCrashAtPoint : public ::testing::TestWithParam<WalCrashRow> {};

TEST_P(WalCrashAtPoint, RecoversExactlyTheBatchesWhosePointFired) {
  const WalCrashRow& row = GetParam();
  run_wal_crash_case(row.point, 1, row.batches_at_first);
  if (HasFatalFailure()) return;
  run_wal_crash_case(row.point, 2, row.batches_at_second);
}

INSTANTIATE_TEST_SUITE_P(
    WalCrashMatrix, WalCrashAtPoint, ::testing::ValuesIn(kWalCrashRows),
    [](const ::testing::TestParamInfo<WalCrashRow>& info) {
      std::string name(info.param.point);
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });
#endif  // BACKLOG_TSAN

// --- group commit ------------------------------------------------------------

TEST(WalGroupCommit, WindowZeroIsPerOpFsync) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(wal_options(dir.path(), 0));
  vm.open_volume("a");
  for (std::uint64_t i = 0; i < 8; ++i)
    vm.apply_batch("a", {add(10 + i)}).get();
  EXPECT_EQ(vm.metrics().counter("backlog_wal_records_total", "").total(), 8u);
  EXPECT_EQ(vm.metrics().counter("backlog_wal_syncs_total", "").total(), 8u);
}

TEST(WalGroupCommit, WindowAmortizesFsyncsAcrossBatchesAndVolumes) {
  bs::TempDir dir;
  bu::FaultPoints faults;
  bsvc::ServiceOptions so = wal_options(dir.path(), /*window_micros=*/20000);
  so.faults = &faults;
  bsvc::VolumeManager vm(so);
  vm.open_volume("a");
  vm.open_volume("b");
  // Hold the shard inside the first append until every apply is queued, so
  // the sweep finds a busy shard and the window, not submission timing,
  // decides what rides it.
  std::promise<void> all_queued;
  const std::shared_future<void> queued = all_queued.get_future().share();
  faults.arm("wal.appended",
             bu::FaultAction::call([queued] { queued.wait(); }).once());
  std::vector<std::future<void>> acks;
  for (std::uint64_t i = 0; i < 16; ++i) {
    acks.push_back(vm.apply_batch("a", {add(100 + i)}));
    acks.push_back(vm.apply_batch("b", {add(200 + i)}));
  }
  all_queued.set_value();
  for (auto& f : acks) EXPECT_NO_THROW(f.get());
  const std::uint64_t records =
      vm.metrics().counter("backlog_wal_records_total", "").total();
  const std::uint64_t syncs =
      vm.metrics().counter("backlog_wal_syncs_total", "").total();
  EXPECT_EQ(records, 32u);
  EXPECT_GE(syncs, 2u);  // at least one sweep, both volumes dirty in it
  EXPECT_LE(syncs, 4u) << "group commit did not amortize fsyncs";
  EXPECT_EQ(live_keys(vm, "a").size(), 16u);
  EXPECT_EQ(live_keys(vm, "b").size(), 16u);
}

TEST(WalGroupCommit, IdleShardAcksWithoutWaitingOutTheWindow) {
  bs::TempDir dir;
  constexpr std::uint32_t kWindowMicros = 500'000;
  bsvc::VolumeManager vm(wal_options(dir.path(), kWindowMicros));
  vm.open_volume("a");
  const auto start = std::chrono::steady_clock::now();
  vm.apply_batch("a", {add(10)}).get();
  const auto waited = std::chrono::steady_clock::now() - start;
  // The window bounds how long an ack may wait for company; with nothing
  // else queued the sweep commits at once.
  EXPECT_LT(waited, std::chrono::microseconds(kWindowMicros / 2));
  EXPECT_EQ(vm.metrics().counter("backlog_wal_syncs_total", "").total(), 1u);
}

TEST(WalGroupCommit, AckedWritesSurviveReopenWithoutAnyConsistencyPoint) {
  bs::TempDir dir;
  std::set<KeyTuple> model;
  {
    bsvc::VolumeManager vm(wal_options(dir.path(), /*window_micros=*/2000));
    vm.open_volume("a");
    std::vector<std::future<void>> acks;
    std::vector<bsvc::UpdateOp> all;
    for (std::uint64_t i = 0; i < 10; ++i) {
      acks.push_back(vm.apply_batch("a", {add(50 + i)}));
      all.push_back(add(50 + i));
    }
    for (auto& f : acks) f.get();
    apply_to_model(model, all);
  }  // torn down with a dirty write store and no CP — like a clean kill
  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("a");
  EXPECT_EQ(live_keys(vm, "a"), model);
  EXPECT_GE(vm.metrics().counter("backlog_wal_replayed_ops_total", "").total(),
            10u);
}

TEST(WalGroupCommit, OpsAckedAfterARelocateReplayOntoTheRelocatedState) {
  // The WAL logs block ops at the blocks the caller names, so an op acked
  // after a relocate names the new block. The relocate itself is not
  // logged: unless it is committed before it is acked, replay applies the
  // later ops to the un-relocated state.
  bs::TempDir dir;
  {
    bsvc::VolumeManager vm(wal_options(dir.path()));
    vm.open_volume("a");
    vm.apply_batch("a", {add(10), add(11)}).get();
    vm.consistency_point("a").get();  // 10 and 11 live in runs
    vm.apply_batch("a", {add(12)}).get();   // 12 lives in the write store
    EXPECT_EQ(vm.relocate("a", 10, 3, 300).get(), 3u);
    vm.apply_batch("a", {rm(301)}).get();
  }  // torn down with the remove only in the WAL — like a clean kill
  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("a");
  EXPECT_EQ(live_keys(vm, "a"),
            naive_live_keys({add(300), add(301), add(302), rm(301)}));
  expect_disk_matches_manifest(vm, dir.path(), "a");
}

TEST(WalGroupCommit, ConsistencyPointTruncatesTheLog) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("a");
  const auto wal_size = [&] {
    std::uint64_t size = 0;
    vm.with_env("a", [&size](bs::Env& env, bc::BacklogDb&) {
        size = env.file_size(bc::Wal::kDefaultName);
      }).get();
    return size;
  };
  vm.apply_batch("a", {add(10), add(11)}).get();
  EXPECT_GT(wal_size(), 0u);
  vm.consistency_point("a").get();
  EXPECT_EQ(wal_size(), 0u) << "CP did not truncate the WAL";
  vm.apply_batch("a", {add(12)}).get();
  EXPECT_GT(wal_size(), 0u);
}

TEST(WalGroupCommit, CleanCloseCommitsACountedCpAndEmptiesTheLog) {
  bs::TempDir dir;
  const fs::path wal = dir.path() / "a" / bc::Wal::kDefaultName;
  std::set<KeyTuple> model;
  apply_to_model(model, {add(10), add(11)});
  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("a");
  vm.apply_batch("a", {add(10), add(11)}).get();
  ASSERT_GT(fs::file_size(wal), 0u);
  vm.close_volume("a");
  // The close CP is the volume's commit: everything logged below it goes.
  EXPECT_EQ(fs::file_size(wal), 0u) << "clean close left the WAL behind";
  EXPECT_EQ(vm.stats().total.cps, 1u) << "the close CP was not counted";
  EXPECT_EQ(vm.stats().total.cp_micros.count(), 1u);
  vm.open_volume("a");
  EXPECT_EQ(live_keys(vm, "a"), model);
  EXPECT_EQ(vm.metrics().counter("backlog_wal_replayed_ops_total", "").total(),
            0u);
}

// --- wounded volumes ---------------------------------------------------------

TEST(WoundedVolume, CloseDropsTheBatchRefusedWithKWounded) {
  // The refused batch was applied in memory before its log write failed.
  // The close must not commit it: only acked batches may become durable.
  bs::TempDir dir;
  std::set<KeyTuple> acked;
  apply_to_model(acked, {add(10)});
  bu::FaultPoints faults;
  bsvc::ServiceOptions so = wal_options(dir.path());
  so.faults = &faults;
  bsvc::VolumeManager vm(so);
  vm.open_volume("w");
  vm.apply_batch("w", {add(10)}).get();  // acked, logged, not committed
  faults.arm("env.append", bu::FaultAction::fail().on("w").once());
  auto refused = vm.apply_batch("w", {add(20)});
  EXPECT_EQ(code_of(refused), bsvc::ErrorCode::kWounded);
  try {
    vm.close_volume("w");
    ADD_FAILURE() << "closing a wounded volume with buffered ops succeeded";
  } catch (const bsvc::ServiceError& e) {
    EXPECT_EQ(e.code(), bsvc::ErrorCode::kWounded);
  }
  EXPECT_FALSE(vm.has_volume("w"));  // closed all the same
  vm.open_volume("w");  // the acked batch replays from the WAL
  EXPECT_EQ(live_keys(vm, "w"), acked);
}

TEST(WoundedVolume, PersistentWriteErrorFlipsReadOnlyWithTypedErrors) {
  bs::TempDir dir;
  std::set<KeyTuple> committed;
  apply_to_model(committed, {add(10), add(11)});
  {
    bu::FaultPoints faults;
    bsvc::ServiceOptions so = wal_options(dir.path());
    so.faults = &faults;
    bsvc::VolumeManager vm(so);
    vm.open_volume("w");
    vm.apply_batch("w", {add(10), add(11)}).get();
    vm.consistency_point("w").get();

    faults.arm("env.append", bu::FaultAction::fail().on("w"));

    auto f = vm.apply_batch("w", {add(20)});
    EXPECT_EQ(code_of(f), bsvc::ErrorCode::kWounded);

    // Reads keep working on the wounded volume. The refused batch was
    // applied in memory before the log write failed (the apply-before-log
    // ordering), so it is *visible* here — but it was never acked, and the
    // reopen below proves it is not durable.
    EXPECT_FALSE(query_one(vm, "w", 10).get().empty());
    std::set<KeyTuple> ghost = committed;
    apply_to_model(ghost, {add(20)});
    EXPECT_EQ(live_keys(vm, "w"), ghost);

    // Every mutating verb fast-fails with the typed code.
    auto f2 = vm.apply_batch("w", {add(21)});
    EXPECT_EQ(code_of(f2), bsvc::ErrorCode::kWounded);
    EXPECT_THROW(
        {
          try {
            vm.consistency_point("w").get();
          } catch (const bsvc::ServiceError& e) {
            EXPECT_EQ(e.code(), bsvc::ErrorCode::kWounded);
            throw;
          }
        },
        bsvc::ServiceError);
    EXPECT_THROW(vm.take_snapshot("w").get(), bsvc::ServiceError);
    EXPECT_THROW(vm.maintain("w").get(), bsvc::ServiceError);

    // Degradation is visible to monitoring.
    EXPECT_EQ(vm.metrics().counter("backlog_volumes_wounded_total", "").total(),
              1u);
    EXPECT_EQ(vm.metrics().gauge("backlog_wounded_volumes", "").value(), 1.0);
  }
  // Un-acked writes died with the process; the committed state recovers and
  // the wound does not outlive the bad Env.
  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("w");
  EXPECT_EQ(live_keys(vm, "w"), committed);
  vm.apply_batch("w", {add(30)}).get();
  EXPECT_EQ(vm.metrics().gauge("backlog_wounded_volumes", "").value(), 0.0);
}

TEST(WoundedVolume, SyncFailureUnderGroupCommitWoundsOnlyThatVolume) {
  bs::TempDir dir;
  bu::FaultPoints faults;
  bsvc::ServiceOptions so = wal_options(dir.path(), /*window_micros=*/5000);
  so.faults = &faults;
  bsvc::VolumeManager vm(so);
  vm.open_volume("sick");
  vm.open_volume("healthy");

  // The next append lands, then the window's fsync fails — the persistent
  // error wounds the volume and its pending ack carries the typed code.
  faults.arm("env.sync", bu::FaultAction::fail().on("sick"));

  auto sick = vm.apply_batch("sick", {add(10)});
  auto ok = vm.apply_batch("healthy", {add(20)});
  EXPECT_EQ(code_of(sick), bsvc::ErrorCode::kWounded);
  EXPECT_NO_THROW(ok.get());  // the neighbour's ack is not wounded

  EXPECT_EQ(live_keys(vm, "healthy").size(), 1u);
  auto again = vm.apply_batch("sick", {add(11)});
  EXPECT_EQ(code_of(again), bsvc::ErrorCode::kWounded);
  EXPECT_EQ(vm.metrics().gauge("backlog_wounded_volumes", "").value(), 1.0);
}

TEST(WoundedVolume, TornPageFaultRecoversCleanlyToLastAckedState) {
  bs::TempDir dir;
  std::set<KeyTuple> committed;
  std::uint64_t torn = 0;
  {
    bu::FaultPoints faults;
    bsvc::ServiceOptions so = wal_options(dir.path());
    so.faults = &faults;
    bsvc::VolumeManager vm(so);
    vm.open_volume("w");
    std::vector<bsvc::UpdateOp> seed;
    for (std::uint64_t b = 1; b <= 8; ++b) seed.push_back(add(b));
    vm.apply_batch("w", seed).get();
    vm.consistency_point("w").get();
    apply_to_model(committed, seed);

    // A torn page: half the record lands in the WAL, then EIO. The write
    // was never acked, the volume is wounded, and the half-record is
    // exactly the torn tail replay must clean-reject on the next open.
    faults.arm("env.append",
               bu::FaultAction::fail(EIO, bu::FaultAction::Kind::kTornPage)
                   .on("w"));
    auto f = vm.apply_batch("w", record_ops(100, 200));  // big enough to tear
    EXPECT_EQ(code_of(f), bsvc::ErrorCode::kWounded);
    vm.with_env("w", [&torn](bs::Env& env, bc::BacklogDb&) {
        torn = env.file_size(bc::Wal::kDefaultName);
      }).get();
    EXPECT_GT(torn, 0u);  // a partial record really is on disk
  }
  bsvc::VolumeManager vm(wal_options(dir.path()));
  vm.open_volume("w");  // replay clean-rejects the torn tail — no throw
  EXPECT_EQ(vm.metrics().counter("backlog_wal_dropped_bytes_total", "").total(),
            torn);
  EXPECT_EQ(live_keys(vm, "w"), committed);
  expect_disk_matches_manifest(vm, dir.path(), "w");
  // Healed on reopen: the wound does not persist across recovery.
  vm.apply_batch("w", {add(400)}).get();
  vm.consistency_point("w").get();
  EXPECT_FALSE(query_one(vm, "w", 400).get().empty());
}

TEST(WoundedVolume, TypedErrorSurfacesOverTheWire) {
  bs::TempDir dir;
  bu::FaultPoints faults;
  bsvc::ServiceOptions so = wal_options(dir.path());
  so.faults = &faults;
  bsvc::VolumeManager vm(so);
  bn::ServiceEndpoint endpoint(vm);
  bn::ServerOptions opts;
  opts.port = 0;
  opts.io_threads = 2;
  endpoint.start(opts);

  bn::Client c;
  c.connect("127.0.0.1", endpoint.port());
  c.open_volume("w");
  c.apply_batch("w", {add(10)});
  c.consistency_point("w");

  faults.arm("env.append", bu::FaultAction::fail().on("w"));

  try {
    c.apply_batch("w", {add(20)});
    FAIL() << "expected kWounded over the wire";
  } catch (const bsvc::ServiceError& e) {
    EXPECT_EQ(e.code(), bsvc::ErrorCode::kWounded);
  }
  // The connection survives and reads still answer.
  bsvc::QueryRange r;
  r.first = 10;
  r.count = 1;
  const auto hits = c.query_batch("w", {r});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_FALSE(hits[0].empty());
  c.ping();
  endpoint.stop();
}
