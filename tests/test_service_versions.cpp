// Randomized model checker for the service's snapshot/clone/migrate verbs
// (the service-level sibling of test_join_property's brute-force cross-check).
//
// Per seed, a single-threaded driver interleaves update batches, consistency
// points, snapshots, intra-volume clones, snapshot deletions, cross-volume
// clones (clone-as-new-tenant), live migrations, and maintenance across >= 8
// volumes on a 3-shard VolumeManager — and cross-checks every masked owner
// query against an independent model built on baseline::NaiveBackrefs (§4.1):
//
//   * raw record ground truth comes from the naive conceptual table, driven
//     in CP lockstep with the service volume (every verb that advances the
//     service CP advances the naive table's CP, including the conditional
//     flush inside clone_volume/migrate_volume);
//   * structural-inheritance expansion and version masking (§4.2.2) are
//     recomputed from scratch against the harness's own registry model;
//   * cross-volume clones replay the source's op log into a fresh naive
//     table, exactly mirroring the file-level copy the service performs.
//
// Maintenance may purge records at any point; masked query results are
// invariant under purging (that is the purge rule's correctness criterion),
// so the cross-check holds regardless of when compaction runs.
//
// A Balancer runs underneath the whole checker: autonomous clean-only
// migrations may relocate any volume at any moment. They must be completely
// invisible to the model — they never force a consistency point (so the CP
// lockstep holds) and never perturb a masked query. The driver's own
// migrate actions can now lose a race with the balancer's handoffs; they
// skip (and so does the balancer when it loses), which is the production
// contract between two placement actors.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/naive_backrefs.hpp"
#include "cow_invariants.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"

namespace bb = backlog::baseline;
namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bu = backlog::util;

namespace {

constexpr std::size_t kShards = 3;
constexpr std::size_t kRootVolumes = 8;
constexpr std::size_t kMaxVolumes = 14;
constexpr int kActionsPerSeed = 260;

/// One replayable naive-table op (the clone path rebuilds a tenant's naive
/// table by replaying its log, mirroring the service's file-level copy).
struct NaiveOp {
  enum class Kind : std::uint8_t { kAdd, kRemove, kCp };
  Kind kind = Kind::kCp;
  bc::BackrefKey key;
};

/// Registry model: just enough state to recompute expansion and masking.
struct ModelLine {
  std::set<bc::Epoch> snapshots;                       // retained versions
  std::vector<std::pair<bc::LineId, bc::Epoch>> children;  // (child, branch_v)
  std::optional<bc::LineId> parent;
};

/// The harness's independent model of one hosted volume.
struct Model {
  std::unique_ptr<bs::Env> env;
  std::unique_ptr<bb::NaiveBackrefs> naive;
  std::vector<NaiveOp> oplog;
  std::map<bc::LineId, ModelLine> lines;
  bc::LineId next_line = 1;
  // Write-store emptiness mirror: entries that would flush at the next CP.
  std::uint64_t pending_from = 0;
  std::uint64_t pending_to = 0;
  std::set<bc::BackrefKey> window_adds;     // added since the last CP
  std::set<bc::BackrefKey> struct_removed;  // inherited refs already dropped
  std::map<bc::LineId, std::vector<bc::BackrefKey>> live;  // explicit live refs
  bc::BlockNo next_block = 1;

  [[nodiscard]] bool ws_nonempty() const {
    return pending_from + pending_to > 0;
  }
};

bb::NaiveOptions naive_options() {
  bb::NaiveOptions o;
  o.structural_removes = true;
  return o;
}

std::unique_ptr<Model> fresh_model(const bs::TempDir& dir,
                                   const std::string& name) {
  auto m = std::make_unique<Model>();
  m->env = std::make_unique<bs::Env>(dir.path() / "model" / name);
  m->naive = std::make_unique<bb::NaiveBackrefs>(*m->env, naive_options());
  m->lines.emplace(0, ModelLine{});
  return m;
}

void model_apply(Model& m, const bsvc::UpdateOp& op, bool structural) {
  m.oplog.push_back({op.kind == bsvc::UpdateOp::Kind::kAdd
                         ? NaiveOp::Kind::kAdd
                         : NaiveOp::Kind::kRemove,
                     op.key});
  if (op.kind == bsvc::UpdateOp::Kind::kAdd) {
    m.naive->add_reference(op.key);
    ++m.pending_from;
    m.window_adds.insert(op.key);
  } else {
    m.naive->remove_reference(op.key);
    if (!structural && m.window_adds.erase(op.key) > 0) {
      --m.pending_from;  // add+remove in one window annihilates in the WS
    } else {
      ++m.pending_to;
    }
  }
}

void model_cp(Model& m) {
  m.oplog.push_back({NaiveOp::Kind::kCp, {}});
  m.naive->on_consistency_point();
  m.pending_from = m.pending_to = 0;
  m.window_adds.clear();
}

/// Deep copy of `src` for a clone-as-new-tenant: replays the op log into a
/// fresh naive table (the model's rendering of the service's file copy) and
/// branches `new_line` off (parent_line, version).
std::unique_ptr<Model> clone_model(const bs::TempDir& dir,
                                   const std::string& name, const Model& src,
                                   bc::LineId parent_line, bc::Epoch version,
                                   bc::LineId new_line) {
  auto m = std::make_unique<Model>();
  m->env = std::make_unique<bs::Env>(dir.path() / "model" / name);
  m->naive = std::make_unique<bb::NaiveBackrefs>(*m->env, naive_options());
  for (const NaiveOp& op : src.oplog) {
    switch (op.kind) {
      case NaiveOp::Kind::kAdd: m->naive->add_reference(op.key); break;
      case NaiveOp::Kind::kRemove: m->naive->remove_reference(op.key); break;
      case NaiveOp::Kind::kCp: m->naive->on_consistency_point(); break;
    }
  }
  m->oplog = src.oplog;
  m->lines = src.lines;
  m->next_line = new_line + 1;
  m->lines[parent_line].children.emplace_back(new_line, version);
  ModelLine nl;
  nl.parent = parent_line;
  m->lines.emplace(new_line, nl);
  m->struct_removed = src.struct_removed;
  m->live = src.live;
  m->next_block = src.next_block;
  return m;
}

/// Mirror of SnapshotRegistry::valid_versions_in for the harness model:
/// retained snapshots in [from, to) plus the live head (every harness line
/// stays live) reported as the current CP.
std::vector<bc::Epoch> model_versions(const Model& m, bc::LineId line,
                                      bc::Epoch from, bc::Epoch to) {
  const auto it = m.lines.find(line);
  if (it == m.lines.end()) return {};
  std::vector<bc::Epoch> out;
  for (auto s = it->second.snapshots.lower_bound(from);
       s != it->second.snapshots.end() && *s < to; ++s) {
    out.push_back(*s);
  }
  const bc::Epoch cp = m.naive->current_cp();
  if (from <= cp && cp < to && (out.empty() || out.back() != cp)) {
    out.push_back(cp);
  }
  return out;
}

using ExpectedEntry = std::pair<bc::CombinedRecord, std::vector<bc::Epoch>>;

/// Brute-force recomputation of a masked owner query from the naive table
/// and the registry model: collect raw records, expand structural
/// inheritance (from == 0 records override), mask against valid versions.
std::set<ExpectedEntry> expected_query(Model& m, bc::BlockNo block) {
  std::vector<bc::CombinedRecord> raw;
  for (const bc::CombinedRecord& r : m.naive->query(block, 1)) {
    if (r.from != r.to) raw.push_back(r);  // from == to never materializes
  }
  std::set<bc::BackrefKey> overrides;
  std::set<bc::CombinedRecord> seen(raw.begin(), raw.end());
  for (const bc::CombinedRecord& r : raw) {
    if (r.is_override()) overrides.insert(r.key);
  }
  std::deque<bc::CombinedRecord> work(raw.begin(), raw.end());
  while (!work.empty()) {
    const bc::CombinedRecord r = work.front();
    work.pop_front();
    const auto it = m.lines.find(r.key.line);
    if (it == m.lines.end()) continue;
    for (const auto& [child, branch_v] : it->second.children) {
      if (!(r.from <= branch_v && branch_v < r.to)) continue;
      bc::BackrefKey key2 = r.key;
      key2.line = child;
      if (overrides.contains(key2)) continue;
      const bc::CombinedRecord synth{key2, 0, bc::kInfinity};
      if (seen.insert(synth).second) {
        overrides.insert(key2);
        work.push_back(synth);
      }
    }
  }
  std::set<ExpectedEntry> out;
  for (const bc::CombinedRecord& r : seen) {
    std::vector<bc::Epoch> versions = model_versions(m, r.key.line, r.from, r.to);
    if (versions.empty()) continue;
    out.emplace(r, std::move(versions));
  }
  return out;
}

std::set<ExpectedEntry> service_query(bsvc::VolumeManager& vm,
                                      const std::string& tenant,
                                      bc::BlockNo block) {
  std::set<ExpectedEntry> out;
  for (const bc::BackrefEntry& e : vm.query(tenant, block).get()) {
    out.emplace(e.rec, e.versions);
  }
  return out;
}

std::string dump_entries(const std::set<ExpectedEntry>& entries) {
  std::string out;
  for (const auto& [rec, versions] : entries) {
    out += "  ";
    out += bc::to_string(rec);
    out += " versions:";
    for (const bc::Epoch v : versions) {
      out += ' ';
      out += std::to_string(v);
    }
    out += '\n';
  }
  return out.empty() ? "  (empty)\n" : out;
}

class ServiceVersions : public ::testing::TestWithParam<std::uint64_t> {};

}  // namespace

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceVersions,
                         ::testing::Range<std::uint64_t>(0, 16));

TEST_P(ServiceVersions, RandomizedVerbsMatchNaiveModel) {
  bu::Rng rng(GetParam() * 60013 + 17);
  bs::TempDir dir;

  bsvc::ServiceOptions so;
  so.shards = kShards;
  so.root = dir.path() / "service";
  so.db_options.expected_ops_per_cp = 512;
  so.sync_writes = false;
  // Adversarial cache config: a 4-page shared block cache (across 2 stripes)
  // keeps every volume's reads in constant eviction, and 2-entry result
  // caches churn through epoch-tag invalidation on every snapshot/clone/
  // migrate/maintenance verb — any stale page or stale result the caches
  // ever serve shows up as a model divergence below.
  so.cache.capacity_bytes = 4 * bs::kPageSize;
  so.cache.block_cache_shards = 2;
  so.cache.result_cache_entries = 2;
  bsvc::VolumeManager vm(so);

  // The autonomous rebalancer races every verb below. Clean-only moves
  // (its only mode) keep the naive model's CP lockstep intact.
  bsvc::BalancerPolicy bp;
  bp.poll_interval = std::chrono::milliseconds(2);
  bp.cooldown = std::chrono::milliseconds(20);
  bp.max_moves_per_cycle = 2;
  bp.min_load_to_act = 4;
  bsvc::Balancer balancer(vm, bp);
  balancer.start();

  std::vector<std::string> tenants;
  std::map<std::string, std::unique_ptr<Model>> models;
  for (std::size_t i = 0; i < kRootVolumes; ++i) {
    const std::string name = "vol-" + std::to_string(i);
    vm.open_volume(name);
    models.emplace(name, fresh_model(dir, name));
    tenants.push_back(name);
  }
  std::size_t clone_serial = 0;

  // Expected service-verb tallies, cross-checked against ServiceStats at
  // the end.
  std::uint64_t want_snapshots = 0, want_clones = 0, want_deletes = 0,
                want_migrations = 0;

  auto pick_line = [&](Model& m) {
    auto it = m.lines.begin();
    std::advance(it, rng.below(m.lines.size()));
    return it->first;
  };
  // A random (line, version) among retained snapshots, if any.
  auto pick_snapshot =
      [&](Model& m) -> std::optional<std::pair<bc::LineId, bc::Epoch>> {
    std::vector<std::pair<bc::LineId, bc::Epoch>> all;
    for (const auto& [line, li] : m.lines) {
      for (const bc::Epoch v : li.snapshots) all.emplace_back(line, v);
    }
    if (all.empty()) return std::nullopt;
    return all[rng.below(all.size())];
  };

  auto check_block = [&](const std::string& t, bc::BlockNo b) {
    Model& m = *models.at(t);
    const auto want = expected_query(m, b);
    const auto got = service_query(vm, t, b);
    ASSERT_EQ(got, want) << "seed " << GetParam() << " tenant " << t
                         << " block " << b << "\nexpected:\n"
                         << dump_entries(want) << "got:\n"
                         << dump_entries(got);
  };

  for (int action = 0; action < kActionsPerSeed; ++action) {
    const std::string t = tenants[rng.below(tenants.size())];
    Model& m = *models.at(t);
    const std::uint64_t roll = rng.below(100);

    if (roll < 40) {
      // Update batch: adds on random lines, explicit removes, and the
      // occasional structural remove of an inherited reference.
      std::vector<bsvc::UpdateOp> batch;
      std::vector<bool> structural;
      const std::size_t n = 1 + rng.below(8);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t op_roll = rng.below(100);
        if (op_roll < 30) {
          // Explicit remove of a random live reference.
          std::vector<bc::LineId> lines_with_live;
          for (auto& [line, refs] : m.live) {
            if (!refs.empty()) lines_with_live.push_back(line);
          }
          if (!lines_with_live.empty()) {
            auto& refs = m.live[lines_with_live[rng.below(lines_with_live.size())]];
            const std::size_t idx = rng.below(refs.size());
            batch.push_back({bsvc::UpdateOp::Kind::kRemove, refs[idx]});
            structural.push_back(false);
            refs[idx] = refs.back();
            refs.pop_back();
            continue;
          }
        } else if (op_roll < 42) {
          // Structural remove: drop a reference this line only inherits.
          const bc::LineId line = pick_line(m);
          const auto pit = m.lines.at(line).parent;
          if (pit.has_value()) {
            // Candidate: a live explicit ref somewhere up the parent chain.
            std::vector<bc::BackrefKey> candidates;
            for (std::optional<bc::LineId> a = pit; a.has_value();
                 a = m.lines.at(*a).parent) {
              const auto lit = m.live.find(*a);
              if (lit == m.live.end()) continue;
              candidates.insert(candidates.end(), lit->second.begin(),
                                lit->second.end());
            }
            if (!candidates.empty()) {
              bc::BackrefKey key2 = candidates[rng.below(candidates.size())];
              key2.line = line;
              const bc::CombinedRecord inherited{key2, 0, bc::kInfinity};
              // Only legal if the reference is actually visible on this
              // line right now (the expansion model is the oracle).
              if (!m.struct_removed.contains(key2) &&
                  expected_query(m, key2.block).contains(
                      {inherited, model_versions(m, line, 0, bc::kInfinity)})) {
                batch.push_back({bsvc::UpdateOp::Kind::kRemove, key2});
                structural.push_back(true);
                m.struct_removed.insert(key2);
                continue;
              }
            }
          }
        }
        // Default: add a fresh reference on a random line.
        bsvc::UpdateOp op;
        op.kind = bsvc::UpdateOp::Kind::kAdd;
        op.key.block = m.next_block++;
        op.key.inode = 2 + rng.below(6);
        op.key.offset = rng.below(4);
        op.key.length = 1;
        op.key.line = pick_line(m);
        m.live[op.key.line].push_back(op.key);
        batch.push_back(op);
        structural.push_back(false);
      }
      // Randomly coalesce the update window into the batched verb: both
      // paths must be indistinguishable to the model (apply_batch applies
      // via BacklogDb::apply_many — same pruning, same FIFO slot).
      if (rng.below(2) == 0) {
        vm.apply_batch(t, batch).get();
      } else {
        vm.apply_batch(t, batch).get();
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        model_apply(m, batch[i], structural[i]);
      }
    } else if (roll < 50) {
      vm.consistency_point(t).get();
      model_cp(m);
    } else if (roll < 58) {
      const bc::LineId line = pick_line(m);
      const bc::Epoch want_version = m.naive->current_cp();
      const bc::Epoch got_version = vm.take_snapshot(t, line).get();
      ASSERT_EQ(got_version, want_version)
          << "seed " << GetParam() << ": CP lockstep lost on " << t;
      m.lines.at(line).snapshots.insert(got_version);
      model_cp(m);
      ++want_snapshots;
    } else if (roll < 64) {
      if (const auto snap = pick_snapshot(m)) {
        const bc::LineId got = vm.create_clone(t, snap->first, snap->second).get();
        ASSERT_EQ(got, m.next_line) << "seed " << GetParam();
        m.lines.at(snap->first).children.emplace_back(got, snap->second);
        ModelLine nl;
        nl.parent = snap->first;
        m.lines.emplace(got, nl);
        ++m.next_line;
        ++want_clones;
      }
    } else if (roll < 69) {
      if (const auto snap = pick_snapshot(m)) {
        vm.delete_snapshot(t, snap->first, snap->second).get();
        m.lines.at(snap->first).snapshots.erase(snap->second);
        ++want_deletes;
      }
    } else if (roll < 75) {
      // Live migration; the conditional drain CP is mirrored exactly. The
      // balancer may hold this volume's handoff right now — skip, exactly
      // as a production placement actor would.
      const bool had_pending = m.ws_nonempty();
      try {
        const auto ms = vm.migrate_volume(t, rng.below(kShards));
        ASSERT_EQ(ms.forced_cp, ms.moved && had_pending)
            << "seed " << GetParam();
        if (ms.forced_cp) model_cp(m);
        if (ms.moved) ++want_migrations;
      } catch (const std::logic_error&) {
        // Lost the race to the balancer's in-flight handoff.
      }
    } else if (roll < 79) {
      // Foreground maintenance: masked queries must be purge-invariant.
      vm.consistency_point(t).get();
      model_cp(m);
      vm.maintain(t).get();
    } else if (roll < 83 && tenants.size() < kMaxVolumes) {
      // Clone-as-new-tenant off a retained snapshot.
      if (const auto snap = pick_snapshot(m)) {
        const std::string dst = "clone-" + std::to_string(clone_serial++);
        const bool had_pending = m.ws_nonempty();
        const bc::LineId expect_line = m.next_line;
        const bc::LineId got =
            vm.clone_volume(t, dst, snap->first, snap->second);
        ASSERT_EQ(got, expect_line) << "seed " << GetParam();
        if (had_pending) model_cp(m);  // the service flushed src before copying
        models.emplace(dst, clone_model(dir, dst, m, snap->first, snap->second,
                                        got));
        tenants.push_back(dst);
        ++want_clones;  // the branch is accounted to the new volume
      }
    } else if (roll < 95) {
      // Masked owner query against the model (the core cross-check).
      const bc::BlockNo max_b = std::max<bc::BlockNo>(m.next_block, 2);
      check_block(t, 1 + rng.below(max_b));
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // Registry cross-check: retained versions of a random line.
      const bc::LineId line = pick_line(m);
      const auto got = vm.list_versions(t, line).get();
      const auto& want_set = m.lines.at(line).snapshots;
      ASSERT_EQ(got, std::vector<bc::Epoch>(want_set.begin(), want_set.end()))
          << "seed " << GetParam() << " tenant " << t << " line " << line;
    }
  }

  // Freeze placement (join the balancer) so the final accounting below is
  // stable; the moves it made stay counted in the per-tenant stats.
  balancer.stop();

  // Chaos round (the fleet_sim PR): between the randomized verb loop and
  // the lockstep sweeps below, kill each shard in turn, submit an update
  // batch for *every* volume while it is dead (futures held — a synchronous
  // .get() against a dead shard would wait forever), restart it, and only
  // then collect the futures: nothing may be dropped. Each round then
  // forces a migration of every volume (require_clean=false, so mid-window
  // volumes take a forced CP, mirrored into the model) and re-checks a
  // masked query per tenant against NaiveBackrefs.
  for (std::size_t victim = 0; victim < kShards; ++victim) {
    ASSERT_TRUE(vm.kill_shard(victim)) << "seed " << GetParam();
    ASSERT_FALSE(vm.shard_alive(victim));
    std::vector<std::pair<std::string, std::vector<bsvc::UpdateOp>>> sent;
    std::vector<std::future<void>> pending;
    for (const std::string& t : tenants) {
      Model& m = *models.at(t);
      std::vector<bsvc::UpdateOp> batch;
      for (int i = 0; i < 3; ++i) {
        bsvc::UpdateOp op;
        op.kind = bsvc::UpdateOp::Kind::kAdd;
        op.key.block = m.next_block++;
        op.key.inode = 2 + rng.below(6);
        op.key.offset = rng.below(4);
        op.key.length = 1;
        op.key.line = pick_line(m);
        m.live[op.key.line].push_back(op.key);
        batch.push_back(op);
      }
      pending.push_back(vm.apply_batch(t, batch));
      sent.emplace_back(t, std::move(batch));
    }
    ASSERT_TRUE(vm.restart_shard(victim)) << "seed " << GetParam();
    for (auto& f : pending) f.get();  // zero dropped ops across the kill
    for (auto& [t, batch] : sent) {
      Model& m = *models.at(t);
      for (const auto& op : batch) model_apply(m, op, /*structural=*/false);
    }
    for (const std::string& t : tenants) {
      Model& m = *models.at(t);
      const bool had_pending = m.ws_nonempty();
      const auto ms =
          vm.migrate_volume(t, (vm.current_shard(t) + 1) % kShards);
      ASSERT_EQ(ms.forced_cp, ms.moved && had_pending)
          << "seed " << GetParam() << " chaos round " << victim;
      if (ms.forced_cp) model_cp(m);
      if (ms.moved) ++want_migrations;
    }
    for (const std::string& t : tenants) {
      Model& m = *models.at(t);
      const bc::BlockNo max_b = std::max<bc::BlockNo>(m.next_block, 2);
      check_block(t, 1 + rng.below(max_b));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Clone-of-clone chain (depth >= 3) over the CoW file manifests: snapshot
  // and clone-as-new-tenant repeatedly, each hop sourcing from the previous
  // clone. The chained models stay in CP lockstep (take_snapshot commits a
  // CP; the clone itself flushes nothing afterwards), and the final sweep
  // below cross-checks every block of every chain volume like any other.
  {
    std::string cur = tenants[0];
    for (int depth = 0; depth < 3; ++depth) {
      Model& m = *models.at(cur);
      const bc::Epoch want_version = m.naive->current_cp();
      const bc::Epoch v = vm.take_snapshot(cur, 0).get();
      ASSERT_EQ(v, want_version) << "seed " << GetParam()
                                 << ": CP lockstep lost on chain hop " << depth;
      m.lines.at(0).snapshots.insert(v);
      model_cp(m);
      ++want_snapshots;
      const std::string dst = "chain-" + std::to_string(depth);
      const bc::LineId expect_line = m.next_line;
      const bc::LineId got = vm.clone_volume(cur, dst, 0, v);
      ASSERT_EQ(got, expect_line) << "seed " << GetParam();
      models.emplace(dst, clone_model(dir, dst, m, 0, v, got));
      tenants.push_back(dst);
      ++want_clones;
      cur = dst;
    }
  }

  // Final sweep: flush every volume and cross-check every block it ever
  // touched ("every query result", not a sample).
  ASSERT_GE(tenants.size(), kRootVolumes);
  for (const std::string& t : tenants) {
    Model& m = *models.at(t);
    vm.consistency_point(t).get();
    model_cp(m);
    for (bc::BlockNo b = 1; b < m.next_block; ++b) {
      check_block(t, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // CoW cross-check after any interleaving of clones, deletes, migrations
  // and compactions: per volume, the on-disk file set equals its live
  // Backlog manifest (no leaked or dangling files), every run's link count
  // equals the volume directories holding it, and stats() agrees.
  {
    SCOPED_TRACE("seed " + std::to_string(GetParam()));
    backlog::testing::expect_cow_invariants(vm, so.root, tenants);
    if (::testing::Test::HasFailure()) return;
  }

  // Verb accounting survived migrations and clones; shard handoffs are the
  // driver's plus exactly the balancer's.
  const bsvc::ServiceStats stats = vm.stats();
  EXPECT_EQ(stats.tenants.size(), tenants.size());
  EXPECT_EQ(stats.total.snapshots, want_snapshots);
  EXPECT_EQ(stats.total.clones, want_clones);
  EXPECT_EQ(stats.total.snapshot_deletes, want_deletes);
  EXPECT_EQ(stats.total.migrations, want_migrations + balancer.moves());
}
