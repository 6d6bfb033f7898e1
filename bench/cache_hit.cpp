// Cache-hit A/B: service-wide shared block cache vs the legacy per-volume
// caches at a *matched total byte budget*, on the workload the shared design
// targets — a clone-heavy fleet whose volumes hard-link the same physical
// run files.
//
// One base volume is filled and snapshotted, then cloned CoW N-1 times
// through the service; a round-robin query sweep then touches every volume.
// Under the service's shared cache a page read through any volume is a hit
// for all of them ((st_dev, st_ino) keying dedups the hard links by
// construction), so the working set is the *unique* physical pages. The
// per-volume arm reopens the same volume directories as bare BacklogDbs,
// each reading through its own cache of budget/N pages: a working set N
// times larger, which thrashes.
//
// The result cache is disabled in both modes so every query exercises the
// block layer under test. Emits one JSONROW per mode:
//
//   JSONROW {"bench":"cache_hit","mode":"shared|pervol","volumes":...,
//            "budget_bytes":...,"queries":...,"hits":...,"misses":...,
//            "hit_ratio":...,"query_p50_us":...,"query_p99_us":...}
//
// tools/check_bench_regression.py gates on these rows: shared hit_ratio
// must strictly beat pervol, and shared query p99 must stay within 1.2x.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/backlog_db.hpp"
#include "service/service.hpp"
#include "storage/block_cache.hpp"
#include "storage/env.hpp"

namespace {

namespace bc = backlog::core;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bench = backlog::bench;

constexpr std::size_t kVolumes = 8;          // base + 7 CoW clones
constexpr std::uint64_t kBudgetPages = 64;  // total fleet budget, both modes
constexpr std::uint64_t kBlocks = 400;       // base volume: kBlocks * kCps keys
constexpr int kCps = 4;
constexpr int kSweeps = 3;
constexpr bc::BlockNo kStride = 7;

struct ModeResult {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double hit_ratio = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
};

void fill_base(bsvc::VolumeManager& vm) {
  for (int cp = 0; cp < kCps; ++cp) {
    std::vector<bsvc::UpdateOp> batch;
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      bsvc::UpdateOp op;
      op.kind = bsvc::UpdateOp::Kind::kAdd;
      op.key.block = b * kCps + static_cast<std::uint64_t>(cp);
      op.key.inode = 2;
      op.key.length = 1;
      batch.push_back(op);
    }
    vm.apply_batch("vol0", std::move(batch)).get();
    vm.consistency_point("vol0").get();
  }
  vm.maintain("vol0").get();
}

/// Build the fleet through the service, run the sweeps, read the counters.
/// `shared` queries through the service and its one cache; otherwise the
/// volume directories are reopened as bare BacklogDbs, each reading through
/// a private cache that holds an equal slice of the same byte budget.
ModeResult run_mode(bool shared) {
  bs::TempDir dir("backlog_cache_hit");
  bsvc::ServiceOptions so;
  so.shards = 2;
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = kBlocks;
  so.sync_writes = false;
  so.cache.result_cache_entries = 0;  // isolate the block layer
  so.cache.capacity_bytes = kBudgetPages * bs::kPageSize;
  so.cache.block_cache_shards = 4;
  auto vm = std::make_unique<bsvc::VolumeManager>(so);

  vm->open_volume("vol0");
  fill_base(*vm);
  const bc::Epoch snap = vm->take_snapshot("vol0").get();
  for (std::size_t v = 1; v < kVolumes; ++v) {
    vm->clone_volume("vol0", "vol" + std::to_string(v), 0, snap);
  }

  // Per-volume mode queries the same directories as bare BacklogDbs.
  std::deque<bs::Env> envs;
  std::deque<bs::BlockCache> caches;
  std::deque<bc::BacklogDb> dbs;
  std::function<void(std::size_t, bc::BlockNo)> query =
      [&vm](std::size_t v, bc::BlockNo b) {
        (void)vm->query("vol" + std::to_string(v), b).get();
      };
  if (!shared) {
    vm.reset();
    for (std::size_t v = 0; v < kVolumes; ++v) {
      bs::Env& env = envs.emplace_back(so.root / ("vol" + std::to_string(v)));
      env.set_sync(false);
      bc::BacklogOptions o = so.db_options;
      o.shared_cache = &caches.emplace_back(
          kBudgetPages / kVolumes * bs::kPageSize, /*shards=*/1);
      o.result_cache_entries = 0;
      dbs.emplace_back(env, o);
    }
    query = [&dbs](std::size_t v, bc::BlockNo b) { (void)dbs[v].query(b); };
  }

  const std::uint64_t total_keys = kBlocks * kCps;
  ModeResult r;
  std::vector<std::uint64_t> lat_us;
  lat_us.reserve(kVolumes * (total_keys / kStride + 1));
  // Sweep 0 is the warm-up (its compulsory misses still count toward the
  // hit ratio — both modes pay the same set); the measured sweeps report
  // min-of-N percentiles, shielding the µs-scale tail from scheduler noise
  // the way the clone-cost bench does.
  for (int sweep = 0; sweep <= kSweeps; ++sweep) {
    lat_us.clear();
    for (bc::BlockNo b = 0; b < total_keys; b += kStride) {
      // Round-robin across volumes inside the sweep: the per-volume caches
      // see an interleaved stream (their worst case), the shared cache sees
      // the same physical page from eight doors (its best case).
      for (std::size_t v = 0; v < kVolumes; ++v) {
        const double t0 = bench::now_seconds();
        query(v, b);
        lat_us.push_back(
            static_cast<std::uint64_t>((bench::now_seconds() - t0) * 1e6));
      }
    }
    r.queries += lat_us.size();
    if (sweep == 0) continue;
    std::sort(lat_us.begin(), lat_us.end());
    const std::uint64_t p50 = lat_us[lat_us.size() / 2];
    const std::uint64_t p99 = lat_us[lat_us.size() * 99 / 100];
    if (sweep == 1 || p50 < r.p50_us) r.p50_us = p50;
    if (sweep == 1 || p99 < r.p99_us) r.p99_us = p99;
  }

  bs::BlockCacheStats block;
  if (shared) block = vm->cache_stats().block;
  for (const bs::BlockCache& cache : caches) {
    block.hits += cache.stats().hits;
    block.misses += cache.stats().misses;
  }
  r.hits = block.hits;
  r.misses = block.misses;
  r.hit_ratio = block.hit_ratio();
  return r;
}

void report(const char* mode, const ModeResult& r) {
  std::printf("  %-7s  queries %7llu  hits/misses %8llu/%7llu  ratio %.3f"
              "  p50 %4llu us  p99 %5llu us\n",
              mode, static_cast<unsigned long long>(r.queries),
              static_cast<unsigned long long>(r.hits),
              static_cast<unsigned long long>(r.misses), r.hit_ratio,
              static_cast<unsigned long long>(r.p50_us),
              static_cast<unsigned long long>(r.p99_us));
  bench::JsonRow()
      .str("bench", "cache_hit")
      .str("mode", mode)
      .num("volumes", static_cast<std::uint64_t>(kVolumes))
      .num("budget_bytes", kBudgetPages * bs::kPageSize)
      .num("queries", r.queries)
      .num("hits", r.hits)
      .num("misses", r.misses)
      .num("hit_ratio", r.hit_ratio)
      .num("query_p50_us", r.p50_us)
      .num("query_p99_us", r.p99_us)
      .print();
}

}  // namespace

int main() {
  const auto scale = bench::Scale::from_env();
  bench::print_header(
      "cache_hit: shared block cache vs per-volume caches, matched budget",
      "shared (dev,ino) keying dedups CoW clones; per-volume split thrashes",
      scale);
  std::printf("fleet: %zu volumes (1 base + %zu CoW clones), budget %llu KiB"
              " total, result cache off\n",
              kVolumes, kVolumes - 1,
              static_cast<unsigned long long>(kBudgetPages * bs::kPageSize /
                                              1024));

  const ModeResult shared = run_mode(/*shared=*/true);
  report("shared", shared);
  const ModeResult pervol = run_mode(/*shared=*/false);
  report("pervol", pervol);

  std::printf("\nshared vs per-volume: hit ratio %.3f vs %.3f, p99 %llu vs"
              " %llu us\n",
              shared.hit_ratio, pervol.hit_ratio,
              static_cast<unsigned long long>(shared.p99_us),
              static_cast<unsigned long long>(pervol.p99_us));
  return 0;
}
