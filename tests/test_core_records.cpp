// Record encoding, snapshot registry, write-store pruning, and the outer
// join — the §4 building blocks of Backlog.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "core/backref_record.hpp"
#include "core/join.hpp"
#include "core/snapshot_registry.hpp"
#include "core/write_store.hpp"
#include "util/random.hpp"

namespace bc = backlog::core;
namespace bu = backlog::util;

namespace {
bc::BackrefKey key(bc::BlockNo b, bc::InodeNo ino = 2, std::uint64_t off = 0,
                   bc::LineId line = 0, std::uint64_t len = 1) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = ino;
  k.offset = off;
  k.length = len;
  k.line = line;
  return k;
}
}  // namespace

TEST(Records, EncodeDecodeRoundTrip) {
  const bc::FromRecord f{key(100, 2, 7, 3, 4), 42};
  std::uint8_t buf[bc::kFromRecordSize];
  bc::encode_from(f, buf);
  EXPECT_EQ(bc::decode_from(buf), f);

  const bc::ToRecord t{key(5), 9};
  std::uint8_t tbuf[bc::kToRecordSize];
  bc::encode_to(t, tbuf);
  EXPECT_EQ(bc::decode_to(tbuf), t);

  const bc::CombinedRecord c{key(77, 1, 2, 0, 8), 3, bc::kInfinity};
  std::uint8_t cbuf[bc::kCombinedRecordSize];
  bc::encode_combined(c, cbuf);
  EXPECT_EQ(bc::decode_combined(cbuf), c);
}

TEST(Records, MemcmpOrderEqualsTupleOrder) {
  bu::Rng rng(99);
  auto random_rec = [&]() {
    bc::CombinedRecord r;
    r.key.block = rng.below(1000);
    r.key.inode = rng.below(100);
    r.key.offset = rng.below(50);
    r.key.length = 1 + rng.below(4);
    r.key.line = rng.below(5);
    r.from = rng.below(100);
    r.to = rng.chance(0.2) ? bc::kInfinity : rng.below(200);
    return r;
  };
  for (int i = 0; i < 2000; ++i) {
    const bc::CombinedRecord a = random_rec(), b = random_rec();
    std::uint8_t ea[bc::kCombinedRecordSize], eb[bc::kCombinedRecordSize];
    bc::encode_combined(a, ea);
    bc::encode_combined(b, eb);
    const int c = std::memcmp(ea, eb, bc::kCombinedRecordSize);
    EXPECT_EQ(a < b, c < 0);
    EXPECT_EQ(a == b, c == 0);
  }
}

TEST(Records, ToStringIsHumanReadable) {
  const bc::CombinedRecord c{key(100, 2, 0, 0), 4, bc::kInfinity};
  const std::string s = bc::to_string(c);
  EXPECT_NE(s.find("block=100"), std::string::npos);
  EXPECT_NE(s.find("inf"), std::string::npos);
}

// --- SnapshotRegistry -----------------------------------------------------

TEST(Registry, FreshStateHasLiveRootLine) {
  bc::SnapshotRegistry reg;
  EXPECT_TRUE(reg.line_exists(0));
  EXPECT_TRUE(reg.line_live(0));
  EXPECT_EQ(reg.current_cp(), 1u);
  EXPECT_EQ(reg.lines(), std::vector<bc::LineId>{0});
}

TEST(Registry, SnapshotsAndValidVersions) {
  bc::SnapshotRegistry reg;
  reg.advance_cp();  // cp=2
  reg.advance_cp();  // cp=3
  EXPECT_EQ(reg.take_snapshot(0), 3u);
  reg.advance_cp();  // cp=4
  reg.advance_cp();  // cp=5
  EXPECT_EQ(reg.take_snapshot(0), 5u);
  reg.advance_cp();  // cp=6

  // A record alive over [2, inf) is visible at snapshots 3, 5 and live 6.
  EXPECT_EQ(reg.valid_versions_in(0, 2, bc::kInfinity),
            (std::vector<bc::Epoch>{3, 5, 6}));
  // A record alive over [2, 5) sees only snapshot 3.
  EXPECT_EQ(reg.valid_versions_in(0, 2, 5), (std::vector<bc::Epoch>{3}));
  // Deleting snapshot 3 removes it from visibility.
  reg.delete_snapshot(0, 3);
  EXPECT_TRUE(reg.valid_versions_in(0, 2, 5).empty());
}

TEST(Registry, LiveHeadCountsOnce) {
  bc::SnapshotRegistry reg;
  reg.take_snapshot(0);  // snapshot at cp 1 == current
  const auto v = reg.valid_versions_in(0, 0, bc::kInfinity);
  EXPECT_EQ(v, std::vector<bc::Epoch>{1});  // not duplicated
}

TEST(Registry, CloneLifecycleAndZombies) {
  bc::SnapshotRegistry reg;
  reg.advance_cp();                       // cp=2
  const bc::Epoch snap = reg.take_snapshot(0);  // v=2
  reg.advance_cp();                       // cp=3
  const bc::LineId clone = reg.create_clone(0, snap);
  EXPECT_TRUE(reg.line_live(clone));
  ASSERT_EQ(reg.clones_of(0).size(), 1u);
  EXPECT_EQ(reg.clones_of(0)[0].child, clone);
  EXPECT_EQ(reg.clones_of(0)[0].branch_version, snap);

  // Deleting the cloned snapshot makes it a zombie, not gone (§4.2.2).
  reg.delete_snapshot(0, snap);
  EXPECT_EQ(reg.zombie_count(), 1u);
  // The zombie still protects intervals containing it.
  EXPECT_TRUE(reg.interval_protected(0, 1, 3));
  // But it is not a *valid* (queryable) version.
  EXPECT_TRUE(reg.valid_versions_in(0, 2, 3).empty());

  // Zombie survives collection while the clone lives...
  EXPECT_EQ(reg.collect_zombies(), 0u);
  // ...and is dropped once the clone line is fully dead.
  reg.kill_line(clone);
  EXPECT_EQ(reg.collect_zombies(), 1u);
  EXPECT_EQ(reg.zombie_count(), 0u);
  EXPECT_FALSE(reg.line_exists(clone));
}

TEST(Registry, RecursiveClonesKeepAncestryAlive) {
  bc::SnapshotRegistry reg;
  reg.advance_cp();
  const bc::Epoch s0 = reg.take_snapshot(0);
  const bc::LineId l1 = reg.create_clone(0, s0);
  reg.advance_cp();
  const bc::Epoch s1 = reg.take_snapshot(l1);
  const bc::LineId l2 = reg.create_clone(l1, s1);

  // Kill the middle line's head and delete its snapshot: it must survive as
  // a zombie holder because l2 still descends from it.
  reg.delete_snapshot(l1, s1);
  reg.kill_line(l1);
  reg.collect_zombies();
  EXPECT_TRUE(reg.line_exists(l1));
  EXPECT_TRUE(reg.interval_protected(l1, s1, s1 + 1));

  // Once the grandchild dies too, the whole chain collapses.
  reg.kill_line(l2);
  reg.collect_zombies();
  EXPECT_FALSE(reg.line_exists(l2));
  EXPECT_FALSE(reg.line_exists(l1));
}

TEST(Registry, IntervalProtectedByLiveHeadAndBranchPoints) {
  bc::SnapshotRegistry reg;
  reg.advance_cp();  // cp=2
  // Live head protects intervals containing the current CP.
  EXPECT_TRUE(reg.interval_protected(0, 1, bc::kInfinity));
  EXPECT_FALSE(reg.interval_protected(0, 1, 2));  // [1,2) excludes cp 2
  reg.take_snapshot(0);                           // v=2
  EXPECT_TRUE(reg.interval_protected(0, 1, 3));
  // Unknown lines protect nothing.
  EXPECT_FALSE(reg.interval_protected(77, 0, bc::kInfinity));
}

TEST(Registry, CloneOfUnretainedVersionThrows) {
  bc::SnapshotRegistry reg;
  EXPECT_THROW(reg.create_clone(0, 1), std::invalid_argument);
  EXPECT_THROW(reg.delete_snapshot(0, 1), std::invalid_argument);
  EXPECT_THROW(reg.take_snapshot(5), std::invalid_argument);
}

TEST(Registry, SerializeRoundTrip) {
  bc::SnapshotRegistry reg;
  reg.advance_cp();
  const bc::Epoch s = reg.take_snapshot(0);
  const bc::LineId c1 = reg.create_clone(0, s);
  reg.advance_cp();
  reg.take_snapshot(c1);
  reg.delete_snapshot(0, s);  // zombie
  std::vector<std::uint8_t> blob;
  reg.serialize(blob);
  std::size_t consumed = 0;
  bc::SnapshotRegistry reg2 = bc::SnapshotRegistry::deserialize(blob, &consumed);
  EXPECT_EQ(consumed, blob.size());
  EXPECT_EQ(reg2.current_cp(), reg.current_cp());
  EXPECT_EQ(reg2.lines(), reg.lines());
  EXPECT_EQ(reg2.zombie_count(), 1u);
  EXPECT_EQ(reg2.clones_of(0).size(), 1u);
  EXPECT_EQ(reg2.snapshots(c1), reg.snapshots(c1));
}

// --- WriteStore pruning (§5.1) ----------------------------------------------

TEST(WriteStore, AddThenRemoveSameCpAnnihilates) {
  bc::WriteStore ws;
  ws.add_reference(key(1), 5);
  EXPECT_FALSE(ws.empty());
  EXPECT_EQ(ws.from_size(), 1u);
  ws.remove_reference(key(1), 5);
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.from_size(), 0u);
  EXPECT_EQ(ws.to_size(), 0u);
}

TEST(WriteStore, RemoveThenAddSameCpMerges) {
  // The paper's example: reference alive since CP 3, removed and re-added
  // within CP 4 -> the buffered To is erased and the lifetime continues.
  bc::WriteStore ws;
  ws.remove_reference(key(1), 4);
  EXPECT_FALSE(ws.empty());
  EXPECT_EQ(ws.to_size(), 1u);
  ws.add_reference(key(1), 4);
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.from_size(), 0u);
  EXPECT_EQ(ws.to_size(), 0u);
}

TEST(WriteStore, PruningDisabledKeepsBothSides) {
  bc::WriteStore ws(/*pruning=*/false);
  ws.add_reference(key(1), 5);
  ws.remove_reference(key(1), 5);
  EXPECT_EQ(ws.from_size(), 1u);
  EXPECT_EQ(ws.to_size(), 1u);
}

TEST(WriteStore, DifferentKeysDoNotPrune) {
  bc::WriteStore ws;
  ws.add_reference(key(1, 2, 0), 5);
  ws.remove_reference(key(1, 2, 1), 5);  // different offset
  EXPECT_EQ(ws.from_size(), 1u);
  EXPECT_EQ(ws.to_size(), 1u);
}

TEST(WriteStore, EncodedBuffersAreSorted) {
  bc::WriteStore ws;
  ws.add_reference(key(30), 1);
  ws.add_reference(key(10), 1);
  ws.add_reference(key(20), 1);
  const auto buf = ws.encode_from_sorted();
  ASSERT_EQ(buf.size(), 3 * bc::kFromRecordSize);
  EXPECT_EQ(bc::decode_from(buf.data()).key.block, 10u);
  EXPECT_EQ(bc::decode_from(buf.data() + bc::kFromRecordSize).key.block, 20u);
  EXPECT_EQ(bc::decode_from(buf.data() + 2 * bc::kFromRecordSize).key.block, 30u);
}

TEST(WriteStore, RangeEncodingSelectsBlocks) {
  bc::WriteStore ws;
  for (std::uint64_t b : {5, 10, 15, 20}) ws.add_reference(key(b), 1);
  const auto buf = ws.encode_from_range(10, 20);
  ASSERT_EQ(buf.size(), 2 * bc::kFromRecordSize);
  EXPECT_EQ(bc::decode_from(buf.data()).key.block, 10u);
}

TEST(WriteStore, RekeyBlockRange) {
  bc::WriteStore ws;
  ws.add_reference(key(10), 1);
  ws.add_reference(key(11), 1);
  ws.remove_reference(key(12), 1);
  EXPECT_EQ(ws.rekey_block_range(10, 12, 100), 2u);
  const auto buf = ws.encode_from_range(100, 102);
  EXPECT_EQ(buf.size(), 2 * bc::kFromRecordSize);
  // The To entry at block 12 was outside the range and stays put.
  EXPECT_EQ(ws.encode_to_range(12, 13).size(), bc::kToRecordSize);
}

// The fold against a reference model: a map from (key, epoch) to the two
// sides, updated by the per-op pruning rules as each update arrives. Random
// updates over 32 keys (so pruning fires often) are interleaved with reads
// that fold mid-CP, with re-keys, with epoch changes and with clears; every
// read must equal the model.
namespace {

struct WsModel {
  struct Sides {
    bool from = false;
    bool to = false;
  };
  bool pruning;
  std::map<std::pair<bc::BackrefKey, bc::Epoch>, Sides> m;

  void apply(bool add, const bc::BackrefKey& k, bc::Epoch cp) {
    Sides& s = m[{k, cp}];
    if (add) {
      if (pruning && s.to) s.to = false; else s.from = true;
    } else {
      if (pruning && s.from) s.from = false; else s.to = true;
    }
  }

  std::size_t rekey(bc::BlockNo lo, bc::BlockNo hi, bc::BlockNo new_lo) {
    std::vector<std::pair<std::pair<bc::BackrefKey, bc::Epoch>, Sides>> hits;
    for (auto it = m.begin(); it != m.end();) {
      if (it->first.first.block >= lo && it->first.first.block < hi) {
        hits.push_back(*it);
        it = m.erase(it);
      } else {
        ++it;
      }
    }
    std::size_t moved = 0;
    for (auto [k, s] : hits) {
      moved += (s.from ? 1 : 0) + (s.to ? 1 : 0);
      k.first.block = k.first.block - lo + new_lo;
      Sides& dst = m[k];
      dst.from = dst.from || s.from;
      dst.to = dst.to || s.to;
    }
    return moved;
  }

  std::vector<bc::FromRecord> froms() const {
    std::vector<bc::FromRecord> out;
    for (const auto& [k, s] : m)
      if (s.from) out.push_back({k.first, k.second});
    return out;
  }
  std::vector<bc::ToRecord> tos() const {
    std::vector<bc::ToRecord> out;
    for (const auto& [k, s] : m)
      if (s.to) out.push_back({k.first, k.second});
    return out;
  }
};

template <class Rec, class Encode>
std::vector<std::uint8_t> encoded_range(const std::vector<Rec>& recs,
                                        bc::BlockNo lo, bc::BlockNo hi,
                                        Encode encode) {
  std::vector<std::uint8_t> out;
  for (const Rec& r : recs) {
    if (r.key.block < lo || r.key.block >= hi) continue;
    out.resize(out.size() + bc::kFromRecordSize);
    encode(r, out.data() + out.size() - bc::kFromRecordSize);
  }
  return out;
}

void check_against_model(const bc::WriteStore& ws, const WsModel& model,
                         bu::Rng& rng) {
  const auto froms = model.froms();
  const auto tos = model.tos();
  switch (rng.below(3)) {
    case 0:
      ASSERT_EQ(ws.from_size(), froms.size());
      ASSERT_EQ(ws.to_size(), tos.size());
      ASSERT_EQ(ws.empty(), froms.empty() && tos.empty());
      break;
    case 1: {
      const bc::BlockNo lo = rng.below(12);
      const bc::BlockNo hi = lo + rng.below(6);
      ASSERT_EQ(ws.encode_from_range(lo, hi),
                encoded_range(froms, lo, hi, bc::encode_from));
      ASSERT_EQ(ws.encode_to_range(lo, hi),
                encoded_range(tos, lo, hi, bc::encode_to));
      break;
    }
    default:
      ASSERT_EQ(ws.from_entries(), froms);
      ASSERT_EQ(ws.to_entries(), tos);
      break;
  }
}

void run_fold_model(bool pruning, std::uint64_t seed) {
  SCOPED_TRACE("pruning " + std::to_string(pruning) + " seed " +
               std::to_string(seed));
  bu::Rng rng(seed);
  bc::WriteStore ws(pruning);
  WsModel model{pruning, {}};
  bc::Epoch cp = 1;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 70) {
      // A batch of 1-8 updates over 8 blocks x 2 inodes x 2 offsets.
      std::vector<bc::Update> ops(1 + rng.below(8));
      for (bc::Update& op : ops) {
        op.kind = rng.chance(0.5) ? bc::Update::Kind::kAdd
                                  : bc::Update::Kind::kRemove;
        op.key = key(rng.below(8), 2 + rng.below(2), rng.below(2));
        model.apply(op.kind == bc::Update::Kind::kAdd, op.key, cp);
      }
      if (ops.size() == 1 && rng.chance(0.5)) {
        if (ops[0].kind == bc::Update::Kind::kAdd)
          ws.add_reference(ops[0].key, cp);
        else
          ws.remove_reference(ops[0].key, cp);
      } else {
        ws.apply_many(ops, cp);
      }
    } else if (roll < 88) {
      check_against_model(ws, model, rng);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 95) {
      const bc::BlockNo lo = rng.below(8);
      const bc::BlockNo hi = lo + 1 + rng.below(3);
      const bc::BlockNo new_lo = rng.below(10);
      ASSERT_EQ(ws.rekey_block_range(lo, hi, new_lo), model.rekey(lo, hi, new_lo));
    } else if (roll < 98) {
      ++cp;  // an update at a new epoch folds the log first
    } else {
      // A consistency point: the CP reads the sorted tables, then clears.
      ASSERT_EQ(ws.encode_from_sorted(),
                encoded_range(model.froms(), 0, ~0ull, bc::encode_from));
      ASSERT_EQ(ws.encode_to_sorted(),
                encoded_range(model.tos(), 0, ~0ull, bc::encode_to));
      ws.clear();
      model.m.clear();
      ++cp;
    }
  }
  ASSERT_EQ(ws.from_entries(), model.froms());
  ASSERT_EQ(ws.to_entries(), model.tos());
}

}  // namespace

TEST(WriteStore, FoldMatchesPerOpModelWithPruning) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_fold_model(true, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(WriteStore, FoldMatchesPerOpModelWithoutPruning) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_fold_model(false, seed);
    if (HasFatalFailure()) return;
  }
}

// --- join_group (§4.2.1) -------------------------------------------------------

TEST(Join, SimplePairing) {
  const auto out = bc::join_group(key(100), {4}, {7});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, 4u);
  EXPECT_EQ(out[0].to, 7u);
}

TEST(Join, IncompleteRecordJoinsInfinity) {
  const auto out = bc::join_group(key(100), {4}, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, bc::kInfinity);
}

TEST(Join, UnmatchedToBecomesOverride) {
  // §4.2.2: a To with no From joins the implicit from = 0.
  const auto out = bc::join_group(key(100), {}, {43});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, 0u);
  EXPECT_EQ(out[0].to, 43u);
  EXPECT_TRUE(out[0].is_override());
}

TEST(Join, PaperSection421Example) {
  // Block 103: inode 4 alive [10,12) and [16,20), inode 5 alive [30,inf).
  // Within one inode-4 group: froms {10,16}, tos {12,20}.
  const auto out4 = bc::join_group(key(103, 4, 0, 0), {10, 16}, {12, 20});
  ASSERT_EQ(out4.size(), 2u);
  EXPECT_EQ(out4[0], (bc::CombinedRecord{key(103, 4, 0, 0), 10, 12}));
  EXPECT_EQ(out4[1], (bc::CombinedRecord{key(103, 4, 0, 0), 16, 20}));
  const auto out5 = bc::join_group(key(103, 5, 2, 0), {30}, {});
  ASSERT_EQ(out5.size(), 1u);
  EXPECT_EQ(out5[0], (bc::CombinedRecord{key(103, 5, 2, 0), 30, bc::kInfinity}));
}

TEST(Join, EqualEpochsAnnihilate) {
  // from == to records can only arise with pruning disabled; the join must
  // drop them rather than fabricate an override + live pair.
  const auto out = bc::join_group(key(1), {5}, {5});
  EXPECT_TRUE(out.empty());
  // ...even interleaved with real intervals.
  const auto out2 = bc::join_group(key(1), {3, 5}, {5, 5});
  // from=3 pairs with to=5; from=5 annihilates with the second to=5.
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0], (bc::CombinedRecord{key(1), 3, 5}));
}

TEST(Join, ManyIntervalsPairInOrder) {
  const auto out = bc::join_group(key(9), {1, 10, 20, 30}, {5, 15, 25});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], (bc::CombinedRecord{key(9), 1, 5}));
  EXPECT_EQ(out[1], (bc::CombinedRecord{key(9), 10, 15}));
  EXPECT_EQ(out[2], (bc::CombinedRecord{key(9), 20, 25}));
  EXPECT_EQ(out[3], (bc::CombinedRecord{key(9), 30, bc::kInfinity}));
}

TEST(Join, OverridePlusLaterReallocation) {
  // Clone overrides an inherited block at 43, then the same block is
  // reallocated to the same owner at 50: (0,43) and (50,inf).
  const auto out = bc::join_group(key(107, 5, 2, 1), {50}, {43});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (bc::CombinedRecord{key(107, 5, 2, 1), 0, 43}));
  EXPECT_EQ(out[1], (bc::CombinedRecord{key(107, 5, 2, 1), 50, bc::kInfinity}));
}

TEST(Join, OuterJoinStreamGroupsAcrossKeys) {
  // Build encoded From/To streams spanning three key groups.
  std::vector<std::uint8_t> from_buf, to_buf;
  auto push_from = [&](const bc::FromRecord& r) {
    from_buf.resize(from_buf.size() + bc::kFromRecordSize);
    bc::encode_from(r, from_buf.data() + from_buf.size() - bc::kFromRecordSize);
  };
  auto push_to = [&](const bc::ToRecord& r) {
    to_buf.resize(to_buf.size() + bc::kToRecordSize);
    bc::encode_to(r, to_buf.data() + to_buf.size() - bc::kToRecordSize);
  };
  push_from({key(1), 2});             // incomplete
  push_from({key(2), 3});             // pairs with to=6
  push_to({key(2), 6});
  push_to({key(3), 9});               // override

  bc::OuterJoinStream join(
      std::make_unique<backlog::lsm::VectorStream>(from_buf, bc::kFromRecordSize),
      std::make_unique<backlog::lsm::VectorStream>(to_buf, bc::kToRecordSize));
  std::vector<bc::CombinedRecord> out;
  while (join.valid()) {
    out.push_back(bc::decode_combined(join.record().data()));
    join.next();
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (bc::CombinedRecord{key(1), 2, bc::kInfinity}));
  EXPECT_EQ(out[1], (bc::CombinedRecord{key(2), 3, 6}));
  EXPECT_EQ(out[2], (bc::CombinedRecord{key(3), 0, 9}));
}

TEST(Join, OuterJoinStreamHandlesNullSides) {
  std::vector<std::uint8_t> from_buf(bc::kFromRecordSize);
  bc::encode_from({key(7), 1}, from_buf.data());
  bc::OuterJoinStream join(
      std::make_unique<backlog::lsm::VectorStream>(from_buf, bc::kFromRecordSize),
      nullptr);
  ASSERT_TRUE(join.valid());
  EXPECT_EQ(bc::decode_combined(join.record().data()).to, bc::kInfinity);
  join.next();
  EXPECT_FALSE(join.valid());

  bc::OuterJoinStream empty(nullptr, nullptr);
  EXPECT_FALSE(empty.valid());
}
