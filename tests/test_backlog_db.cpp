// End-to-end tests of BacklogDb: the update path, consistency points,
// queries with inheritance and masking, maintenance, recovery, relocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/backlog_db.hpp"
#include "core/record_log.hpp"
#include "lsm/run_file.hpp"
#include "storage/env.hpp"
#include "util/fault_points.hpp"
#include "util/serde.hpp"

namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bu = backlog::util;

namespace {

bc::BackrefKey key(bc::BlockNo b, bc::InodeNo ino = 2, std::uint64_t off = 0,
                   bc::LineId line = 0) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = ino;
  k.offset = off;
  k.length = 1;
  k.line = line;
  return k;
}

std::vector<bc::CombinedRecord> recs(const std::vector<bc::BackrefEntry>& es) {
  std::vector<bc::CombinedRecord> out;
  for (const auto& e : es) out.push_back(e.rec);
  return out;
}

std::vector<std::uint8_t> read_file(bs::Env& env, const std::string& name) {
  auto file = env.open_file(name);
  std::vector<std::uint8_t> buf(file->size());
  file->read(0, buf);
  return buf;
}

/// The record magic of the manifest format this build writes.
std::uint64_t manifest_magic(bs::Env& env) {
  return bu::get_u64(read_file(env, "MANIFEST").data());
}

}  // namespace

TEST(BacklogDb, LiveReferenceVisibleBeforeAndAfterFlush) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(100));
  // Visible straight from the write store.
  auto r = db.query(100);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rec.key.block, 100u);
  EXPECT_EQ(r[0].rec.to, bc::kInfinity);
  EXPECT_EQ(r[0].versions, std::vector<bc::Epoch>{1});  // live at cp 1

  db.consistency_point();
  r = db.query(100);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rec.from, 1u);
  EXPECT_EQ(r[0].versions, std::vector<bc::Epoch>{2});  // live view moved on
}

TEST(BacklogDb, UpdatePathNeverReads) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  // Build several CPs of history first so there is on-disk state to tempt a
  // read-modify-write implementation.
  for (int cp = 0; cp < 5; ++cp) {
    for (std::uint64_t b = 0; b < 500; ++b) db.add_reference(key(b * 10 + cp));
    db.consistency_point();
  }
  const auto before = env.stats();
  for (std::uint64_t b = 0; b < 500; ++b) {
    db.add_reference(key(b * 10 + 7));
    db.remove_reference(key(b * 10));  // deallocation of old references
  }
  db.consistency_point();
  const auto delta = env.stats() - before;
  EXPECT_EQ(delta.page_reads, 0u) << "update path must be read-free (§4)";
  EXPECT_GT(delta.page_writes, 0u);
}

TEST(BacklogDb, DeallocationCompletesRecord) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.registry().take_snapshot(0);  // v=1 keeps the record alive for masking
  db.add_reference(key(7));
  db.consistency_point();  // cp 1 -> 2
  db.registry().take_snapshot(0);  // v=2
  db.consistency_point();  // cp 2 -> 3
  db.remove_reference(key(7));
  db.consistency_point();  // cp 3 -> 4

  const auto raw = db.query_raw(7);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].from, 1u);
  EXPECT_EQ(raw[0].to, 3u);
  // Masked query: visible at snapshots 1 and 2 but not live.
  const auto masked = db.query(7);
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(masked[0].versions, (std::vector<bc::Epoch>{1, 2}));
}

TEST(BacklogDb, MaskingDropsFullyDeadRecords) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(7));
  db.consistency_point();
  db.remove_reference(key(7));
  db.consistency_point();
  // No snapshot retained the interval [1,2): masked query is empty, raw not.
  EXPECT_TRUE(db.query(7).empty());
  EXPECT_EQ(db.query_raw(7).size(), 1u);
}

TEST(BacklogDb, SameCpChurnLeavesNoTrace) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(5));
  db.remove_reference(key(5));
  const auto s = db.consistency_point();
  EXPECT_EQ(s.records_flushed, 0u);
  EXPECT_TRUE(db.query_raw(5).empty());
}

TEST(BacklogDb, ReallocWithinCpMergesIntervals) {
  // Paper §5.1: alive [3,4), reallocated in CP 4 -> one record [3, inf).
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(5));
  db.consistency_point();  // from=1 on disk, now cp=2
  db.remove_reference(key(5));
  db.add_reference(key(5));  // same CP: prune the To
  db.consistency_point();
  const auto raw = db.query_raw(5);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].from, 1u);
  EXPECT_EQ(raw[0].to, bc::kInfinity);
}

TEST(BacklogDb, RangeQuerySpansBlocks) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  for (std::uint64_t b = 0; b < 100; ++b) db.add_reference(key(1000 + b, b + 2));
  db.consistency_point();
  const auto r = db.query(1000, 100);
  EXPECT_EQ(r.size(), 100u);
  const auto mid = db.query(1040, 10);
  EXPECT_EQ(mid.size(), 10u);
  EXPECT_EQ(mid.front().rec.key.block, 1040u);
}

TEST(BacklogDb, MultipleOwnersOfSharedBlock) {
  // Deduplication: many inodes pointing at one physical block (§4.2).
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  for (bc::InodeNo ino = 2; ino < 12; ++ino) db.add_reference(key(42, ino, ino));
  db.consistency_point();
  const auto r = db.query(42);
  EXPECT_EQ(r.size(), 10u);
}

TEST(BacklogDb, PersistsAcrossReopen) {
  bs::TempDir dir;
  {
    bs::Env env(dir.path());
    bc::BacklogDb db(env);
    db.registry().take_snapshot(0);
    db.add_reference(key(1));
    db.add_reference(key(2));
    db.consistency_point();
  }
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  EXPECT_EQ(db.current_cp(), 2u);
  EXPECT_EQ(db.query_raw(1).size(), 1u);
  EXPECT_EQ(db.query_raw(2).size(), 1u);
  EXPECT_EQ(db.registry().snapshots(0), std::vector<bc::Epoch>{1});
}

TEST(BacklogDb, CrashLosesOnlyUnflushedWrites) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bc::BacklogDb db(env);
    db.add_reference(key(1));
    db.consistency_point();
    db.add_reference(key(2));  // never flushed — "crash" before CP
  }
  bc::BacklogDb db(env);
  EXPECT_EQ(db.query_raw(1).size(), 1u);
  EXPECT_TRUE(db.query_raw(2).empty());
  // Journal replay (the file system's job) re-issues the lost op.
  db.add_reference(key(2));
  db.consistency_point();
  EXPECT_EQ(db.query_raw(2).size(), 1u);
}

TEST(BacklogDb, MaintenancePreservesQueryResults) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  // Several CPs of mixed adds/removes with snapshots retaining history.
  for (int cp = 0; cp < 10; ++cp) {
    for (std::uint64_t b = 0; b < 200; ++b) {
      const std::uint64_t blk = (cp * 37 + b * 11) % 1000;
      if ((cp + b) % 3 == 0 && !db.query_raw(blk).empty()) {
        // skip: keep the op mix simple and deterministic
      }
      db.add_reference(key(blk, 2 + b % 5, b));
      if (b % 4 == 0) db.remove_reference(key(blk, 2 + b % 5, b));
    }
    if (cp % 3 == 0) db.registry().take_snapshot(0);
    db.consistency_point();
  }
  const auto before = db.scan_all();
  ASSERT_FALSE(before.empty());
  const auto stats = db.maintain();
  const auto after = db.scan_all();

  // Purged records must be exactly those invisible everywhere; the rest of
  // the view is unchanged. Compare the *protected* subset.
  std::vector<bc::CombinedRecord> before_protected;
  for (const auto& r : before) {
    if (db.registry().interval_protected(r.key.line, r.from, r.to))
      before_protected.push_back(r);
  }
  EXPECT_EQ(after, before_protected);
  EXPECT_GT(stats.output_complete + stats.output_incomplete, 0u);
  // Runs collapsed to at most one Combined + one From per partition.
  const auto ds = db.stats();
  EXPECT_LE(ds.from_runs, ds.partitions);
  EXPECT_LE(ds.combined_runs, ds.partitions);
  EXPECT_EQ(ds.to_runs, 0u);
}

TEST(BacklogDb, MaintenanceRequiresEmptyWriteStore) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(1));
  EXPECT_THROW(db.maintain(), std::logic_error);
}

TEST(BacklogDb, MaintenancePurgesDeadHistory) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(1));
  db.consistency_point();
  db.remove_reference(key(1));  // dead: no snapshot spans [1,2)
  db.add_reference(key(2));     // stays live
  db.consistency_point();
  const auto stats = db.maintain();
  EXPECT_EQ(stats.purged, 1u);
  EXPECT_TRUE(db.query_raw(1).empty());
  EXPECT_EQ(db.query_raw(2).size(), 1u);
  EXPECT_LT(stats.bytes_after, stats.bytes_before);
}

TEST(BacklogDb, CloneInheritanceBasics) {
  // The paper's §4.2.2 scenario: block 103 owned by (inode 5, off 2) in line
  // 0 since CP 30; line 1 clones it, then CoW-replaces it with 107 at CP 43.
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  auto& reg = db.registry();
  db.add_reference(key(103, 5, 2, 0));
  const bc::Epoch snap = reg.take_snapshot(0);
  db.consistency_point();

  const bc::LineId clone = reg.create_clone(0, snap);
  // Clone creation writes nothing.
  {
    const auto s = db.consistency_point();
    EXPECT_EQ(s.records_flushed, 0u);
  }
  // Inherited reference is visible in the clone via expansion.
  {
    const auto r = db.query(103);
    std::vector<bc::LineId> lines;
    for (const auto& e : r) lines.push_back(e.rec.key.line);
    EXPECT_NE(std::find(lines.begin(), lines.end(), clone), lines.end())
        << "clone must inherit the reference";
    EXPECT_NE(std::find(lines.begin(), lines.end(), 0u), lines.end());
  }

  // CoW in the clone: remove 103, add 107.
  db.remove_reference(key(103, 5, 2, clone));
  db.add_reference(key(107, 5, 2, clone));
  const bc::Epoch cow_cp = db.current_cp();
  db.consistency_point();

  // The override terminates inheritance: 103 is no longer owned by the clone
  // in its live view, but 107 is.
  {
    const auto r = db.query(103);
    for (const auto& e : r) {
      if (e.rec.key.line == clone) {
        // Only visible in clone versions before the CoW — none retained.
        ADD_FAILURE() << "override should mask the clone's inherited ref: "
                      << bc::to_string(e.rec);
      }
    }
    const auto r107 = db.query(107);
    ASSERT_EQ(r107.size(), 1u);
    EXPECT_EQ(r107[0].rec.key.line, clone);
    EXPECT_EQ(r107[0].rec.from, cow_cp);
  }
  // Raw view shows the override record the way the paper lays it out.
  {
    const auto raw = db.query_raw(103);
    bool found_override = false;
    for (const auto& r : raw) {
      if (r.key.line == clone && r.is_override() && r.to == cow_cp)
        found_override = true;
    }
    EXPECT_TRUE(found_override);
  }
}

TEST(BacklogDb, CloneOfCloneInheritsTransitively) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  auto& reg = db.registry();
  db.add_reference(key(50, 9, 0, 0));
  const bc::Epoch s0 = reg.take_snapshot(0);
  db.consistency_point();
  const bc::LineId l1 = reg.create_clone(0, s0);
  const bc::Epoch s1 = reg.take_snapshot(l1);
  db.consistency_point();
  const bc::LineId l2 = reg.create_clone(l1, s1);
  db.consistency_point();

  const auto r = db.query(50);
  std::vector<bc::LineId> lines;
  for (const auto& e : r) lines.push_back(e.rec.key.line);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<bc::LineId>{0, l1, l2}));
}

TEST(BacklogDb, InheritanceRequiresBranchInsideInterval) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  auto& reg = db.registry();
  const bc::Epoch snap = reg.take_snapshot(0);  // snapshot BEFORE the block
  db.consistency_point();
  db.add_reference(key(200, 3, 0, 0));  // from = 2 > snap = 1
  db.consistency_point();
  const bc::LineId clone = reg.create_clone(0, snap);
  const auto r = db.query(200);
  for (const auto& e : r) {
    EXPECT_NE(e.rec.key.line, clone)
        << "block allocated after the branch point must not be inherited";
  }
}

TEST(BacklogDb, ZombieKeepsCloneAncestryQueryable) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  auto& reg = db.registry();
  db.add_reference(key(70, 4, 1, 0));
  const bc::Epoch snap = reg.take_snapshot(0);
  db.consistency_point();
  const bc::LineId clone = reg.create_clone(0, snap);
  db.consistency_point();
  // Delete the cloned snapshot (zombie) and even kill line 0's history of
  // the block in the live view.
  reg.delete_snapshot(0, snap);
  db.remove_reference(key(70, 4, 1, 0));
  db.consistency_point();
  db.maintain();  // must NOT purge the zombie-protected record
  const auto r = db.query(70);
  bool clone_sees_it = false;
  for (const auto& e : r) {
    if (e.rec.key.line == clone) clone_sees_it = true;
  }
  EXPECT_TRUE(clone_sees_it) << "zombie ancestry must keep inheritance alive";
}

TEST(BacklogDb, RelocateRewritesAllTables) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  auto& reg = db.registry();
  // History: complete record (via snapshot), incomplete record, WS entry.
  db.add_reference(key(300, 2, 0));
  db.add_reference(key(301, 3, 1));
  reg.take_snapshot(0);
  db.consistency_point();
  db.remove_reference(key(301, 3, 1));
  db.consistency_point();
  db.maintain();  // produce Combined + From RS
  db.add_reference(key(302, 4, 2));  // WS-resident

  const std::uint64_t moved = db.relocate(300, 3, 900);
  EXPECT_GE(moved, 3u);
  EXPECT_TRUE(db.query_raw(300, 3).empty());
  const auto r = db.query_raw(900, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].key.block, 900u);
  EXPECT_EQ(r[0].key.inode, 2u);
  EXPECT_EQ(r[1].key.block, 901u);
  EXPECT_EQ(r[1].to, 2u);  // completed interval preserved
  EXPECT_EQ(r[2].key.block, 902u);
  db.consistency_point();
  // The manifest is the only commit record: no deletion-vector side files.
  for (const std::string& name : env.list_files())
    EXPECT_TRUE(name == "MANIFEST" || name.ends_with(".run")) << name;
  // Maintenance consumes the deletion vector.
  db.maintain();
  EXPECT_EQ(db.stats().dv_entries, 0u);
  EXPECT_EQ(db.query_raw(900, 3).size(), 3u);
}

TEST(BacklogDb, RelocationSurvivesReopen) {
  bs::TempDir dir;
  {
    bs::Env env(dir.path());
    bc::BacklogDb db(env);
    db.add_reference(key(10));
    db.consistency_point();
    db.relocate(10, 1, 500);
    db.consistency_point();  // one manifest edit commits the entries + runs
  }
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  EXPECT_TRUE(db.query_raw(10).empty());
  EXPECT_EQ(db.query_raw(500).size(), 1u);
}

TEST(BacklogDb, PartitioningSplitsRunsByBlockRange) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions opts;
  opts.partition_blocks = 100;
  bc::BacklogDb db(env, opts);
  for (std::uint64_t b = 0; b < 1000; b += 50) db.add_reference(key(b));
  db.consistency_point();
  const auto s = db.stats();
  EXPECT_EQ(s.partitions, 10u);
  EXPECT_EQ(s.from_runs, 10u);
  // Queries spanning partition boundaries see everything.
  EXPECT_EQ(db.query(0, 1000).size(), 20u);
  EXPECT_EQ(db.query(90, 20).size(), 1u);  // only block 100 in [90,110)
}

TEST(BacklogDb, BloomAblationGivesIdenticalResults) {
  bs::TempDir dirA, dirB;
  bs::Env envA(dirA.path()), envB(dirB.path());
  bc::BacklogOptions withBloom, noBloom;
  noBloom.use_bloom = false;
  bc::BacklogDb a(envA, withBloom), b(envB, noBloom);
  for (int cp = 0; cp < 5; ++cp) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      a.add_reference(key(i * 31 % 512, 2, i));
      b.add_reference(key(i * 31 % 512, 2, i));
    }
    a.registry().take_snapshot(0);
    b.registry().take_snapshot(0);
    a.consistency_point();
    b.consistency_point();
  }
  for (std::uint64_t blk = 0; blk < 512; blk += 17) {
    EXPECT_EQ(recs(a.query(blk, 16)), recs(b.query(blk, 16)));
  }
}

TEST(BacklogDb, BloomFiltersReduceReadsOnAbsentBlocks) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions opts;
  opts.cache_pages = 0;  // no cache: every page access counts
  bc::BacklogDb db(env, opts);
  for (int cp = 0; cp < 20; ++cp) {
    for (std::uint64_t i = 0; i < 50; ++i)
      db.add_reference(key(cp * 1000 + i, 2, i));
    db.consistency_point();
  }
  // Query a block that exists in no run: bloom filters answer negatively
  // without touching the runs.
  const auto before = env.stats();
  EXPECT_TRUE(db.query(999999).empty());
  const auto delta = env.stats() - before;
  EXPECT_EQ(delta.page_reads, 0u);
}

TEST(BacklogDb, QueryOptionsExposeRawViews) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  auto& reg = db.registry();
  db.add_reference(key(1, 2, 0, 0));
  const bc::Epoch snap = reg.take_snapshot(0);
  db.consistency_point();
  reg.create_clone(0, snap);
  db.consistency_point();
  bc::QueryOptions no_expand;
  no_expand.expand = false;
  EXPECT_EQ(db.query(1, 1, no_expand).size(), 1u);  // no inherited record
  EXPECT_EQ(db.query(1, 1).size(), 2u);             // expanded
}

TEST(BacklogDb, StatsTrackRunsAndWs) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  db.add_reference(key(1));
  db.remove_reference(key(2, 3));
  auto s = db.stats();
  EXPECT_EQ(s.ws_from, 1u);
  EXPECT_EQ(s.ws_to, 1u);
  EXPECT_EQ(s.from_runs, 0u);
  db.consistency_point();
  s = db.stats();
  EXPECT_EQ(s.ws_from, 0u);
  EXPECT_EQ(s.from_runs, 1u);
  EXPECT_EQ(s.to_runs, 1u);
  EXPECT_GT(s.db_bytes, 0u);
}

TEST(BacklogDb, ZeroLengthExtentRejected) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  bc::BackrefKey k = key(1);
  k.length = 0;
  EXPECT_THROW(db.add_reference(k), std::invalid_argument);
  EXPECT_THROW(db.remove_reference(k), std::invalid_argument);
}

TEST(BacklogDb, ExtentRecordsCoverMultipleBlocks) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  bc::BackrefKey k = key(400, 6, 0);
  k.length = 8;  // extent of 8 blocks (the btrfs port's length field, §6.1)
  db.add_reference(k);
  db.consistency_point();
  // Query on the extent's first block finds it.
  EXPECT_EQ(db.query(400).size(), 1u);
  EXPECT_EQ(db.query(400)[0].rec.key.length, 8u);
}

TEST(BacklogDb, ManifestEditLogSurvivesManyCps) {
  // The per-CP manifest write is an O(1) append (edit log), not a full
  // rewrite; recovery replays base + edits.
  bs::TempDir dir;
  {
    bs::Env env(dir.path());
    bc::BacklogDb db(env);
    for (int cp = 0; cp < 50; ++cp) {
      db.add_reference(key(100 + cp));
      db.registry().take_snapshot(0);
      db.consistency_point();
    }
    // Manifest cost per CP must not grow with accumulated run count: the
    // file is base + 50 small edits, far below one page per run.
    EXPECT_LT(env.file_size("MANIFEST"), 50u * 4096u);
  }
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  EXPECT_EQ(db.current_cp(), 51u);
  EXPECT_EQ(db.registry().snapshots(0).size(), 50u);
  for (int cp = 0; cp < 50; ++cp) {
    EXPECT_EQ(db.query_raw(100 + cp).size(), 1u) << "cp " << cp;
  }
}

TEST(BacklogDb, TornManifestEditIsDiscarded) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bc::BacklogDb db(env);
    db.add_reference(key(1));
    db.add_reference(key(10));
    db.add_reference(key(20));
    db.consistency_point();
    db.relocate(10, 1, 510);  // committed by the next edit
    db.consistency_point();
    db.add_reference(key(2));
    db.relocate(20, 1, 520);  // its entries ride in the edit torn below
    db.consistency_point();
  }
  // Corrupt the tail: chop a few bytes off the last edit record.
  {
    const auto size = env.file_size("MANIFEST");
    auto file = env.open_file("MANIFEST");
    std::vector<std::uint8_t> buf(size - 5);
    file->read(0, buf);
    auto out = env.create_file("MANIFEST");
    out->append(buf);
  }
  bc::BacklogDb db(env);
  // The torn CP (which flushed block 2) rolls back; block 1 survives.
  EXPECT_EQ(db.query_raw(1).size(), 1u);
  EXPECT_TRUE(db.query_raw(2).empty());
  EXPECT_EQ(db.current_cp(), 3u);
  // The earlier edit's deletion-vector entry survives; the torn edit's
  // entry vanishes with the runs it would have committed.
  EXPECT_EQ(db.stats().dv_entries, 1u);
  EXPECT_TRUE(db.query_raw(10).empty());
  EXPECT_EQ(db.query_raw(510).size(), 1u);
  EXPECT_EQ(db.query_raw(20).size(), 1u);
  EXPECT_TRUE(db.query_raw(520).empty());
}

TEST(BacklogDb, FailedManifestEditLeavesTheDbRetryable) {
  // A short write tears the CP's manifest edit. The retried CP and the next
  // one must not land behind the torn bytes, where no replay reaches them.
  bs::TempDir dir;
  {
    bu::FaultPoints faults;
    bs::Env env(dir.path());
    env.set_faults(&faults, "v");
    bc::BacklogOptions opts;
    opts.faults = &faults;
    bc::BacklogDb db(env, opts);
    for (std::uint64_t b = 0; b < 100; ++b) db.add_reference(key(b));
    // The runs are written when "cp.flushed" fires; the next append is the
    // manifest edit's.
    const auto tear_next_append = [&faults] {
      faults.arm("env.append",
                 bu::FaultAction::fail(EIO, bu::FaultAction::Kind::kShortWrite)
                     .once());
    };
    faults.arm("cp.flushed", bu::FaultAction::call(tear_next_append).once());
    EXPECT_THROW(db.consistency_point(), std::system_error);
    // The failed CP keeps its number, and the retry commits that number.
    EXPECT_EQ(db.current_cp(), 2u);
    db.consistency_point();
    EXPECT_EQ(db.current_cp(), 2u);
    db.consistency_point();
    EXPECT_EQ(db.query_raw(0, 1000).size(), 100u);
  }
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  EXPECT_EQ(db.query_raw(0, 1000).size(), 100u);
  EXPECT_EQ(db.current_cp(), 3u);
}

namespace {

/// A MANIFEST written by a build from before the WAL and the MANIFEST
/// shared one record log: an empty db, one snapshot, one CP, no runs (a base
/// and one edit).
constexpr std::uint8_t kEarlierManifest[] = {
    0x4d, 0x41, 0x4e, 0x46, 0x47, 0x4f, 0x4c, 0x32, 0x70, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x2b, 0x7e, 0xa2, 0x0f, 0x4d, 0x41, 0x4e, 0x46,
    0x47, 0x4f, 0x4c, 0x32, 0x78, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x47, 0x0f, 0x40, 0xff};

}  // namespace

TEST(BacklogDb, ManifestOfAnEarlierBuildOpensAndIsWrittenIdentically) {
  const std::vector<std::uint8_t> fixture(std::begin(kEarlierManifest),
                                          std::end(kEarlierManifest));
  {
    bs::TempDir dir;
    bs::Env env(dir.path());
    env.create_file("MANIFEST")->append(fixture);
    bc::BacklogDb db(env);
    EXPECT_EQ(db.current_cp(), 2u);
    EXPECT_EQ(db.registry().snapshots(0), std::vector<bc::Epoch>{1});
  }
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bc::BacklogDb db(env);
    db.registry().take_snapshot(0);
    db.consistency_point();
  }
  EXPECT_EQ(read_file(env, "MANIFEST"), fixture);
}

namespace {

/// Appends one record with `payload` to the manifest, as an edit.
void append_manifest_record(bs::Env& env, const std::vector<std::uint8_t>& payload) {
  bc::RecordLog(env, "MANIFEST", manifest_magic(env))
      .append([&](std::vector<std::uint8_t>& out) {
        out.insert(out.end(), payload.begin(), payload.end());
      });
}

}  // namespace

TEST(BacklogDb, CrcValidEditThatOverstatesItsPayloadFailsToOpen) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  { bc::BacklogDb db(env); }
  // The fresh base holds no runs and no entries. Copy its payload and
  // tamper with the run list; the CRC is recomputed, so only the decoder's
  // bounds and range checks stand between it and an out-of-bounds read.
  const std::vector<std::uint8_t> base = read_file(env, "MANIFEST");
  const std::uint32_t len = bu::get_u32(base.data() + 8);
  const std::vector<std::uint8_t> payload(base.begin() + 12,
                                          base.begin() + 12 + len);
  ASSERT_GE(payload.size(), 8u);
  const std::size_t runs_at = payload.size() - 8;  // run count, entry count
  ASSERT_EQ(bu::get_u64(payload.data() + runs_at), 0u);

  std::vector<std::uint8_t> overstated = payload;
  bu::put_u32(overstated.data() + runs_at, 1000);
  std::vector<std::uint8_t> bad_table(payload.begin(),
                                      payload.begin() + runs_at);
  bu::append_u32(bad_table, 1);
  bad_table.push_back(7);  // tables are 0 (From), 1 (To) and 2 (Combined)
  bu::append_u64(bad_table, 0);
  bu::append_string(bad_table, "f_000000_00000001.run");
  bu::append_u32(bad_table, 0);

  for (const auto& edit : {overstated, bad_table}) {
    bs::TempDir copy;
    bs::Env cenv(copy.path());
    cenv.create_file("MANIFEST")->append(base);
    append_manifest_record(cenv, edit);
    EXPECT_THROW({ bc::BacklogDb db(cenv); }, std::runtime_error);
  }
}

TEST(BacklogDb, CorruptOrForeignBaseRecordFailsToOpen) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bc::BacklogDb db(env);
    db.add_reference(key(1));
    db.consistency_point();
    db.maintain();  // the base now names the run
  }
  std::vector<std::uint8_t> bytes = read_file(env, "MANIFEST");
  bytes[20] ^= 0x01;  // inside the base payload: the CRC no longer matches
  env.create_file("MANIFEST")->append(bytes);
  try {
    bc::BacklogDb db(env);
    ADD_FAILURE() << "opened over a corrupt base record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt base"), std::string::npos)
        << e.what();
  }
  // A manifest of the older, unframed layout is rejected by its magic.
  std::vector<std::uint8_t> old;
  bu::append_u64(old, 0x424b4c4f474d4651ULL);
  bu::append_u64(old, 1);
  env.create_file("MANIFEST")->append(old);
  try {
    bc::BacklogDb db(env);
    ADD_FAILURE() << "opened a manifest of another format version";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format version"), std::string::npos)
        << e.what();
  }
}

TEST(BacklogDb, OrphanRunsRemovedOnRecovery) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bc::BacklogDb db(env);
    db.add_reference(key(1));
    db.consistency_point();
  }
  // Simulate a crash mid-flush: a run file exists with no manifest entry.
  {
    backlog::lsm::RunWriter w(env, "f_000000_99999999.run", bc::kFromRecordSize,
                              16);
    std::uint8_t buf[bc::kFromRecordSize];
    bc::encode_from({key(77), 9}, buf);
    w.add({buf, bc::kFromRecordSize}, 77);
    w.finish();
  }
  bc::BacklogDb db(env);
  EXPECT_FALSE(env.file_exists("f_000000_99999999.run"));
  EXPECT_TRUE(db.query_raw(77).empty());
  EXPECT_EQ(db.query_raw(1).size(), 1u);
}

TEST(BacklogDb, MaintenanceMergesInBoundedBatches) {
  // With max_open_runs tiny, a large Level-0 backlog must still compact
  // correctly via intermediate Stepped-Merge levels.
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions opts;
  opts.max_open_runs = 4;  // force several merge levels for 40 runs
  bc::BacklogDb db(env, opts);
  for (int cp = 0; cp < 40; ++cp) {
    db.add_reference(key(1000 + cp, 2, cp));
    if (cp % 2 == 0) db.remove_reference(key(1000 + cp - 2, 2, cp - 2));
    db.registry().take_snapshot(0);
    db.consistency_point();
  }
  const auto before = db.scan_all();
  db.maintain();
  const auto after = db.scan_all();
  EXPECT_EQ(after, before);  // all intervals protected by per-CP snapshots
  const auto s = db.stats();
  EXPECT_LE(s.from_runs + s.to_runs + s.combined_runs, 2u);
}

TEST(BacklogDb, SelectivePartitionMaintenance) {
  // §5.3: partitioning lets the compactor work on one partition at a time.
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions opts;
  opts.partition_blocks = 100;
  bc::BacklogDb db(env, opts);
  for (int cp = 0; cp < 6; ++cp) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      db.add_reference(key(b * 10 + cp, 2, b));        // partition 0
      db.add_reference(key(500 + b * 10 + cp, 3, b));  // partition 5
    }
    db.registry().take_snapshot(0);
    db.consistency_point();
  }
  const auto before = db.scan_all();
  const auto s0 = db.stats();
  ASSERT_EQ(s0.partitions, 2u);
  EXPECT_EQ(s0.from_runs, 12u);

  // Compact only the hot partition (covering block 42 -> partition 0).
  const auto m = db.maintain_partition(42);
  EXPECT_GT(m.output_complete + m.output_incomplete, 0u);
  const auto s1 = db.stats();
  // Partition 0 collapsed to <= 2 runs; partition 5's 12 runs untouched.
  EXPECT_LE(s1.from_runs + s1.combined_runs, 2u + 6u);
  EXPECT_EQ(s1.to_runs, 0u + 0u);  // partition 0 had all the To runs? no:
  // partition 5 never saw removals, so it has no To runs to keep.
  EXPECT_EQ(db.scan_all(), before);  // results unchanged either way

  // Now the other one.
  db.maintain_partition(500);
  const auto s2 = db.stats();
  EXPECT_LE(s2.from_runs, 2u);
  EXPECT_LE(s2.combined_runs, 2u);
  EXPECT_EQ(db.scan_all(), before);
}

TEST(BacklogDb, CoveringExtentFoundByMidBlockQuery) {
  // Extent records sort by starting block; a query for a block in the
  // *middle* of an extent must still find it (btrfs-style extents, §6.1).
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  bc::BackrefKey k = key(1000, 6, 0);
  k.length = 16;  // covers blocks [1000, 1016)
  db.add_reference(k);
  db.consistency_point();
  for (bc::BlockNo b : {1000ull, 1007ull, 1015ull}) {
    const auto r = db.query(b);
    ASSERT_EQ(r.size(), 1u) << "block " << b;
    EXPECT_EQ(r[0].rec.key.block, 1000u);
    EXPECT_EQ(r[0].rec.key.length, 16u);
  }
  EXPECT_TRUE(db.query(1016).empty());  // one past the end
  EXPECT_TRUE(db.query(999).empty());   // one before the start
}

TEST(BacklogDb, CoveringExtentAcrossPartitionBoundary) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions opts;
  opts.partition_blocks = 100;
  bc::BacklogDb db(env, opts);
  bc::BackrefKey k = key(95, 3, 0);
  k.length = 10;  // blocks [95, 105): starts in partition 0, spills into 1
  db.add_reference(k);
  db.consistency_point();
  // A query inside partition 1 must reach back into partition 0's runs.
  const auto r = db.query(102);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rec.key.block, 95u);
}

TEST(BacklogDb, ExtentLifecycleWithDeallocation) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  bc::BackrefKey k = key(500, 4, 0);
  k.length = 8;
  db.add_reference(k);
  db.registry().take_snapshot(0);
  db.consistency_point();
  db.remove_reference(k);  // whole-extent removal, as the btrfs port does
  db.consistency_point();
  const auto r = db.query(503);  // mid-extent
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rec.to, 2u);
  EXPECT_EQ(r[0].versions, std::vector<bc::Epoch>{1});
}

TEST(BacklogDb, MaxExtentSurvivesReopenAndMaintenance) {
  bs::TempDir dir;
  {
    bs::Env env(dir.path());
    bc::BacklogDb db(env);
    bc::BackrefKey k = key(100, 2, 0);
    k.length = 32;
    db.add_reference(k);
    db.consistency_point();
  }
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  // After reopen, mid-extent queries must still work (max_extent_seen_
  // recovered from the manifest).
  EXPECT_EQ(db.query(120).size(), 1u);
  db.maintain();
  EXPECT_EQ(db.query(120).size(), 1u);
}

TEST(BacklogDb, OversizedExtentRejected) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogOptions opts;
  opts.max_extent_blocks = 8;
  bc::BacklogDb db(env, opts);
  bc::BackrefKey k = key(1);
  k.length = 9;
  EXPECT_THROW(db.add_reference(k), std::invalid_argument);
  EXPECT_THROW(db.remove_reference(k), std::invalid_argument);
}

TEST(BacklogDb, ExtentRelocationMovesWholeExtent) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bc::BacklogDb db(env);
  bc::BackrefKey k = key(200, 5, 0);
  k.length = 4;
  db.add_reference(k);
  db.consistency_point();
  db.relocate(200, 4, 900);
  EXPECT_TRUE(db.query(202).empty());
  const auto r = db.query(902);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rec.key.block, 900u);
  EXPECT_EQ(r[0].rec.key.length, 4u);
}

// --- env.* fault sweep --------------------------------------------------------
// Each scenario runs once with counting callbacks on every env.* point to
// learn how often the operation hits each one. Then, for every (point, hit)
// pair, the scenario is rebuilt and that hit fails with EIO. The operation
// must throw, and a reopen over a fresh Env must succeed and show exactly
// the state before the operation or the state after it — never a mix, and
// never a lost volume. A scenario that sets `retry` also retries the
// operation on the same open db after every hit: a failed operation must
// leave the db retryable, so the retry must reach exactly the state after,
// CP number included, live and on reopen.

namespace {

constexpr std::array<std::string_view, 7> kEnvPoints = {
    "env.create", "env.link",   "env.copy",  "env.append",
    "env.sync",   "env.rename", "env.delete"};

struct SweepScenario {
  bc::BacklogOptions opts;
  std::uint64_t blocks = 0;  // every record lives below this block
  std::function<void(bc::BacklogDb&)> setup;  // runs with no fault armed
  std::function<void(bc::BacklogDb&)> op;     // the operation under test
  bool retry = false;
  std::vector<std::string_view> must_hit;  // env.* points op must reach
};

/// What the sweep compares: every raw record and the CP number.
using SweepState = std::pair<std::vector<bc::CombinedRecord>, bc::Epoch>;

SweepState state_of(const SweepScenario& sc, bc::BacklogDb& db) {
  return {db.query_raw(0, sc.blocks), db.current_cp()};
}

SweepState reopened_state(const SweepScenario& sc,
                          const std::filesystem::path& dir) {
  bs::Env env(dir);
  bc::BacklogDb db(env, sc.opts);
  return state_of(sc, db);
}

/// Builds the scenario in `dir`; with `arm` set, arms it around the
/// operation and runs the operation. Returns whether the operation threw;
/// if it did, `on_throw` then runs on the same open db.
bool run_scenario(const SweepScenario& sc, const std::filesystem::path& dir,
                  const std::function<void(bu::FaultPoints&)>& arm,
                  const std::function<void(bc::BacklogDb&)>& on_throw = {}) {
  bu::FaultPoints faults;
  bs::Env env(dir);
  env.set_sync(false);  // the points still fire; reopen reads the page cache
  env.set_faults(&faults, "sweep");
  bc::BacklogOptions opts = sc.opts;
  opts.faults = &faults;  // the cp.* landmarks
  bc::BacklogDb db(env, opts);
  sc.setup(db);
  if (!arm) return false;
  arm(faults);
  try {
    sc.op(db);
  } catch (const std::system_error&) {
    if (on_throw) on_throw(db);
    return true;
  }
  return false;
}

void sweep(const SweepScenario& sc) {
  bs::TempDir before_dir, after_dir;
  run_scenario(sc, before_dir.path(), nullptr);
  const auto before = reopened_state(sc, before_dir.path());
  std::array<std::uint64_t, kEnvPoints.size()> hits{};
  ASSERT_FALSE(run_scenario(sc, after_dir.path(), [&](bu::FaultPoints& f) {
    for (std::size_t i = 0; i < kEnvPoints.size(); ++i)
      f.arm(kEnvPoints[i], bu::FaultAction::call([&hits, i] { ++hits[i]; }));
  }));
  const auto after = reopened_state(sc, after_dir.path());
  ASSERT_TRUE(before.first != after.first)
      << "the operation must change the records";
  for (const std::string_view p : sc.must_hit) {
    const auto i = static_cast<std::size_t>(
        std::find(kEnvPoints.begin(), kEnvPoints.end(), p) - kEnvPoints.begin());
    ASSERT_LT(i, kEnvPoints.size()) << p;
    EXPECT_GT(hits[i], 0u) << "the operation never reached " << p;
  }

  std::uint64_t swept = 0, retried = 0;
  for (std::size_t i = 0; i < kEnvPoints.size(); ++i) {
    for (std::uint64_t hit = 0; hit < hits[i]; ++hit, ++swept) {
      SCOPED_TRACE(std::string(kEnvPoints[i]) + " hit " + std::to_string(hit));
      const auto retry_op = [&](bc::BacklogDb& db) {
        sc.op(db);  // the one-shot fault has fired; nothing is armed
        const SweepState got = state_of(sc, db);
        EXPECT_TRUE(got.first == after.first)
            << "the retried operation did not reach the state after";
        EXPECT_EQ(got.second, after.second) << "the retry committed another CP";
        ++retried;
      };
      bs::TempDir dir;
      EXPECT_TRUE(run_scenario(
          sc, dir.path(),
          [&](bu::FaultPoints& f) {
            f.arm(kEnvPoints[i], bu::FaultAction::fail(EIO).skip(hit).once());
          },
          sc.retry ? std::function<void(bc::BacklogDb&)>(retry_op) : nullptr))
          << "the injected failure did not fail the operation";
      try {
        const auto got = reopened_state(sc, dir.path());
        EXPECT_TRUE(got == after || (!sc.retry && got == before))
            << "reopened with " << got.first.size() << " records at CP "
            << got.second << "; before had " << before.first.size()
            << " at CP " << before.second << ", after " << after.first.size()
            << " at CP " << after.second;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "reopen failed: " << e.what();
      }
    }
  }
  EXPECT_GT(swept, 0u);
  if (sc.retry) {
    EXPECT_EQ(retried, swept);
  }
}

/// The MaintenancePreservesQueryResults history (one partition, ten CPs, a
/// snapshot every third CP), except that each CP removes a quarter of the
/// previous CP's references: the intervals no snapshot retains are dead, so
/// maintenance changes the raw view.
void churn_history(bc::BacklogDb& db) {
  const auto ref = [](std::uint64_t cp, std::uint64_t b) {
    return key((cp * 37 + b * 11) % 1000, 2 + b % 5, b);
  };
  for (std::uint64_t cp = 0; cp < 10; ++cp) {
    for (std::uint64_t b = 0; b < 200; ++b) {
      db.add_reference(ref(cp, b));
      if (cp > 0 && b % 4 == 0) db.remove_reference(ref(cp - 1, b));
    }
    if (cp % 3 == 0) db.registry().take_snapshot(0);
    db.consistency_point();
  }
}

/// Four CPs over 100 blocks, each retained by a snapshot.
void snapshot_history(bc::BacklogDb& db) {
  for (std::uint64_t cp = 0; cp < 4; ++cp) {
    for (std::uint64_t b = 0; b < 100; ++b) db.add_reference(key(b, 2 + cp, cp));
    db.registry().take_snapshot(0);
    db.consistency_point();
  }
}

}  // namespace

TEST(FaultSweep, ConsistencyPoint) {
  SweepScenario sc;
  sc.blocks = 1000;
  sc.setup = [](bc::BacklogDb& db) {
    snapshot_history(db);
    for (std::uint64_t b = 0; b < 50; ++b) db.remove_reference(key(b, 2, 0));
    for (std::uint64_t b = 200; b < 250; ++b) db.add_reference(key(b));
  };
  sc.op = [](bc::BacklogDb& db) { db.consistency_point(); };
  sc.retry = true;
  sweep(sc);
}

TEST(FaultSweep, Maintain) {
  SweepScenario sc;
  sc.blocks = 1000;
  sc.setup = churn_history;
  sc.op = [](bc::BacklogDb& db) { db.maintain(); };
  // The new base commits by a rename; the replaced runs go after it.
  sc.must_hit = {"env.rename", "env.delete"};
  sweep(sc);
}

TEST(FaultSweep, FailedRetirementUnlinkLeavesNoStaleRunCount) {
  // maintain() unlinks the runs it replaced only after its new base has
  // committed. A failed unlink leaves an orphan file, which the next open
  // removes, and must not leave quick_stats() counting a retired run.
  bs::TempDir dir;
  bu::FaultPoints faults;
  bs::Env env(dir.path());
  env.set_sync(false);
  env.set_faults(&faults, "sweep");
  bc::BacklogDb db(env);
  churn_history(db);
  faults.arm("env.delete", bu::FaultAction::fail(EIO).once());
  EXPECT_THROW(db.maintain(), std::system_error);
  const bc::DbStats s = db.stats();
  const bc::QuickStats q = db.quick_stats();
  EXPECT_EQ(q.from_runs, s.from_runs);
  EXPECT_EQ(q.to_runs, s.to_runs);
  EXPECT_EQ(q.combined_runs, s.combined_runs);
}

TEST(FaultSweep, MaintainPartition) {
  SweepScenario sc;
  sc.opts.partition_blocks = 100;
  sc.blocks = 1000;
  sc.setup = [](bc::BacklogDb& db) {
    churn_history(db);
    // Deletion-vector entries in partitions 0 and 5: the pass consumes
    // partition 0's and its new base must carry partition 5's.
    db.relocate(10, 20, 700);
    db.relocate(510, 20, 800);
    db.consistency_point();
  };
  sc.op = [](bc::BacklogDb& db) { db.maintain_partition(42); };
  sc.must_hit = {"env.rename", "env.delete"};
  sweep(sc);
}

TEST(FaultSweep, RelocateThenConsistencyPoint) {
  SweepScenario sc;
  sc.blocks = 6000;
  sc.setup = snapshot_history;
  sc.op = [](bc::BacklogDb& db) {
    db.relocate(10, 20, 5000);
    db.consistency_point();
  };
  sweep(sc);
}
