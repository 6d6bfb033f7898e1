// google-benchmark microbenchmarks of the individual mechanisms: write-store
// updates (the paper's §6.2 finding is that >95% of Backlog's overhead is
// CPU time spent updating the WS), Bloom filter probes, run-file writes,
// join throughput, B+-tree updates, and end-to-end point queries.
#include <benchmark/benchmark.h>

#include "core/backlog_db.hpp"
#include "core/join.hpp"
#include "core/write_store.hpp"
#include "lsm/run_file.hpp"
#include "storage/btree.hpp"
#include "storage/env.hpp"
#include "util/bloom.hpp"
#include "util/random.hpp"
#include "util/serde.hpp"

using namespace backlog;

namespace {

core::BackrefKey make_key(std::uint64_t b, std::uint64_t ino = 2,
                          std::uint64_t off = 0) {
  core::BackrefKey k;
  k.block = b;
  k.inode = ino;
  k.offset = off;
  k.length = 1;
  k.line = 0;
  return k;
}

void BM_WriteStoreAdd(benchmark::State& state) {
  // Counts its own adds: a size query would fold the log on every iteration.
  core::WriteStore ws;
  std::uint64_t b = 0;
  for (auto _ : state) {
    ws.add_reference(make_key(b++), 1);
    if (b % 100000 == 0) {
      state.PauseTiming();
      ws.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteStoreAdd);

void BM_WriteStorePrunedChurn(benchmark::State& state) {
  // add+remove of the same key in one CP: the §5.1 annihilation fast path.
  // Every 1,000 pairs the store is read, as a CP would, so the time
  // includes the fold that does the pruning.
  core::WriteStore ws;
  std::uint64_t b = 0;
  for (auto _ : state) {
    ws.add_reference(make_key(b), 1);
    ws.remove_reference(make_key(b), 1);
    if (++b % 1000 == 0 && !ws.empty()) state.SkipWithError("leak");
  }
  if (!ws.empty()) state.SkipWithError("leak");
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_WriteStorePrunedChurn);

void BM_WriteStoreFoldCp(benchmark::State& state) {
  // One CP window as the flush sees it: 2,000 mixed updates in random block
  // order (a third of them removes, some of their keys added in the same
  // window), then the two sorted encodes the CP writes.
  util::Rng rng(7);
  std::vector<core::Update> ops(2000);
  for (core::Update& op : ops) {
    op.kind = rng.below(3) == 0 ? core::Update::Kind::kRemove
                                : core::Update::Kind::kAdd;
    op.key = make_key(rng.below(4000));
  }
  for (auto _ : state) {
    core::WriteStore ws;
    ws.apply_many(ops, 1);
    const auto from = ws.encode_from_sorted();
    const auto to = ws.encode_to_sorted();
    benchmark::DoNotOptimize(from.data());
    benchmark::DoNotOptimize(to.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops.size()));
}
BENCHMARK(BM_WriteStoreFoldCp);

void BM_BloomInsertProbe(benchmark::State& state) {
  util::BloomFilter f = util::BloomFilter::sized_for(32000);
  std::uint64_t k = 0;
  for (auto _ : state) {
    f.insert(k);
    benchmark::DoNotOptimize(f.may_contain(k ^ 1));
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsertProbe);

void BM_RunWriterThroughput(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  std::uint64_t file_no = 0;
  const std::size_t n = 50000;
  std::vector<std::uint8_t> rec(core::kFromRecordSize);
  for (auto _ : state) {
    lsm::RunWriter w(env, "bm_" + std::to_string(file_no++) + ".run",
                     core::kFromRecordSize, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      core::encode_from({make_key(i), 1}, rec.data());
      w.add(rec, i);
    }
    w.finish();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * core::kFromRecordSize);
}
BENCHMARK(BM_RunWriterThroughput)->Unit(benchmark::kMillisecond);

void BM_JoinGroup(benchmark::State& state) {
  const std::vector<core::Epoch> froms = {1, 10, 20, 30, 40};
  const std::vector<core::Epoch> tos = {5, 15, 25, 35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::join_group(make_key(9), froms, tos));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinGroup);

void BM_BTreePut(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  storage::BTree tree(env, "bm.btree", 8, 8, 4096);
  util::Rng rng(1);
  std::uint8_t kbuf[8], vbuf[8];
  for (auto _ : state) {
    util::put_be64(kbuf, rng.next());
    util::put_u64(vbuf, 1);
    tree.put({kbuf, 8}, {vbuf, 8});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePut);

void BM_BacklogUpdatePath(benchmark::State& state) {
  // The headline number: cost of one add_reference on the live system,
  // including its amortized share of CP flushes every 32000/16 ops.
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  core::BacklogDb db(env);
  std::uint64_t b = 0, since_cp = 0;
  for (auto _ : state) {
    db.add_reference(make_key(b % 100000, 2 + b % 7, b % 64));
    ++b;
    if (++since_cp == 2000) {
      db.consistency_point();
      since_cp = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BacklogUpdatePath)->MinTime(1.0);

void BM_BacklogPointQuery(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  core::BacklogDb db(env);
  for (int cp = 0; cp < 20; ++cp) {
    for (std::uint64_t i = 0; i < 2000; ++i)
      db.add_reference(make_key((cp * 2000 + i) % 20000, 2, i));
    db.consistency_point();
  }
  db.maintain();
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query(rng.below(20000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BacklogPointQuery);

void BM_BacklogRangeQuery(benchmark::State& state) {
  storage::TempDir dir;
  storage::Env env(dir.path());
  env.set_sync(false);  // measure the algorithm, not the host disk
  core::BacklogDb db(env);
  for (int cp = 0; cp < 20; ++cp) {
    for (std::uint64_t i = 0; i < 2000; ++i)
      db.add_reference(make_key((cp * 2000 + i) % 20000, 2, i));
    db.consistency_point();
  }
  db.maintain();
  const std::uint64_t run = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query(rng.below(20000 - run), run));
  }
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_BacklogRangeQuery)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
