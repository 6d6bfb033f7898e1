// The batched hot path (apply_batch / query_batch / apply_many) and its
// allocation story.
//
// The perf PR's claims are structural, so the tests pin structure, not
// nanoseconds: (a) InlineTask keeps the service's dispatch wrappers out of
// the allocator and RingDeque reuses its slots, verified with a counting
// global operator new — a warmed ShardQueue push/pop_many cycle performs
// *zero* heap allocations, and an apply_batch call allocates O(1) on the
// API thread regardless of batch size; (b) chunked dequeue (pop_many) is
// schedule-equivalent to repeated pop() — stride fairness and the
// background anti-starvation rule hold inside chunks; (c) the batch verbs
// keep per-tenant FIFO order against interleaved single queries, validate
// atomically with and without the WAL, and match the sequential
// add/remove callbacks' pruning semantics exactly;
// (d) ServiceOptions::pin_shards actually pins the worker threads.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/backlog_db.hpp"
#include "fsim/multi_tenant.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"

// --- counting allocator ------------------------------------------------------
// Per-thread allocation counter: lets a test measure the API thread's
// allocations while worker threads allocate freely (write-store nodes etc.)
// on their own counters. Covers every replaceable global form so sized and
// aligned deallocations stay matched.

namespace {
thread_local std::uint64_t g_thread_allocs = 0;

std::uint64_t thread_allocs() { return g_thread_allocs; }

void* counted_malloc(std::size_t n) {
  ++g_thread_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++g_thread_allocs;
  void* p = nullptr;
  const std::size_t align =
      std::max(sizeof(void*), static_cast<std::size_t>(al));
  if (posix_memalign(&p, align, n ? n : 1) != 0 || p == nullptr)
    throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;

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

bc::BackrefKey key(bc::BlockNo b) {
  bc::BackrefKey k;
  k.block = b;
  k.inode = 2;
  k.length = 1;
  return k;
}

bsvc::UpdateOp add(bc::BlockNo b) {
  return {bsvc::UpdateOp::Kind::kAdd, key(b)};
}
bsvc::UpdateOp remove(bc::BlockNo b) {
  return {bsvc::UpdateOp::Kind::kRemove, key(b)};
}

std::vector<bsvc::UpdateOp> batch_of(bc::BlockNo first, std::size_t n) {
  std::vector<bsvc::UpdateOp> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    batch.push_back(add(first + static_cast<bc::BlockNo>(i)));
  return batch;
}

}  // namespace

// --- InlineTask --------------------------------------------------------------

TEST(InlineTask, SmallCapturesStayInlineAndMove) {
  int x = 0;
  std::array<char, 96> pad{};  // the dispatch-wrapper ballpark
  const std::uint64_t before = thread_allocs();
  bsvc::Task t([&x, pad] { x += 1 + pad[0]; });
  EXPECT_EQ(thread_allocs() - before, 0u) << "small capture heap-allocated";
  ASSERT_TRUE(static_cast<bool>(t));
  EXPECT_FALSE(t.heap_allocated());
  t();
  EXPECT_EQ(x, 1);

  bsvc::Task moved = std::move(t);
  EXPECT_FALSE(static_cast<bool>(t));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(x, 2);

  moved = bsvc::Task{};  // move-assign empties and destroys
  EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(InlineTask, OversizedCapturesSpillToHeapAndDestroyOnce) {
  auto marker = std::make_shared<int>(7);
  std::array<char, 512> big{};
  int runs = 0;
  {
    bsvc::Task t([marker, big, &runs] {
      (void)big;
      ++runs;
    });
    EXPECT_TRUE(t.heap_allocated());
    EXPECT_EQ(marker.use_count(), 2);
    bsvc::Task moved = std::move(t);
    EXPECT_EQ(marker.use_count(), 2);  // the heap pointer moved, no copy
    moved();
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(marker.use_count(), 1);  // capture destroyed exactly once
}

// --- chunked dequeue ---------------------------------------------------------

TEST(ShardQueue, PopManyKeepsStrideFairnessAndBgAntiStarvation) {
  bsvc::ShardQueue q(/*bg_starvation_limit=*/4);
  std::vector<int> order;
  std::vector<int> seq1, seq2;
  for (int i = 0; i < 16; ++i) {
    q.push(
        [&order, &seq1, i] {
          order.push_back(1);
          seq1.push_back(i);
        },
        /*flow=*/1);
  }
  for (int i = 0; i < 16; ++i) {
    q.push(
        [&order, &seq2, i] {
          order.push_back(2);
          seq2.push_back(i);
        },
        /*flow=*/2);
  }
  for (int i = 0; i < 4; ++i) {
    q.push_background([&order] { order.push_back(0); });
  }
  q.close();

  std::vector<bsvc::Task> chunk;
  chunk.reserve(8);
  std::size_t chunks = 0, max_chunk = 0;
  for (;;) {
    chunk.clear();
    const std::size_t n = q.pop_many(chunk, 8);
    if (n == 0) break;
    ++chunks;
    max_chunk = std::max(max_chunk, n);
    for (bsvc::Task& t : chunk) t();
  }
  ASSERT_EQ(order.size(), 36u);
  EXPECT_EQ(max_chunk, 8u) << "dequeue never actually chunked";
  EXPECT_LE(chunks, 6u);

  // Stride fairness holds inside chunks: both flows appear early and often.
  EXPECT_GE(std::count(order.begin(), order.begin() + 8, 1), 3);
  EXPECT_GE(std::count(order.begin(), order.begin() + 8, 2), 3);
  // Per-flow FIFO survived the chunking.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(seq1[i], i);
    EXPECT_EQ(seq2[i], i);
  }
  // The 1-in-4 anti-starvation rule fired *inside* a chunk: the first
  // background task ran after exactly 4 foreground tasks, and all
  // background work finished before the foreground backlog drained.
  const auto first_bg = std::find(order.begin(), order.end(), 0);
  ASSERT_NE(first_bg, order.end());
  EXPECT_EQ(first_bg - order.begin(), 4);
  const auto last_bg =
      std::find(order.rbegin(), order.rend(), 0).base() - order.begin();
  EXPECT_LT(last_bg, 32);
}

TEST(ShardQueue, SteadyStatePushPopManyIsAllocationFree) {
  bsvc::ShardQueue q;
  std::vector<bsvc::Task> chunk;
  chunk.reserve(8);
  std::uint64_t ran = 0;
  // Task shaped like the hot path's wrapper: comfortably inside the SBO
  // budget, far outside std::function's 16 bytes.
  std::array<std::uint64_t, 8> payload{};
  const auto cycle = [&] {
    for (int i = 0; i < 8; ++i) {
      q.push([&ran, payload] { ran += 1 + payload[0]; }, /*flow=*/1);
    }
    chunk.clear();
    // No gtest assertion inside the measured window — the final `ran`
    // count proves every task was popped and executed.
    (void)q.pop_many(chunk, 8);
    for (bsvc::Task& t : chunk) t();
  };
  for (int warm = 0; warm < 32; ++warm) cycle();  // grow rings + flow node

  const std::uint64_t before = thread_allocs();
  for (int i = 0; i < 256; ++i) cycle();
  EXPECT_EQ(thread_allocs() - before, 0u)
      << "steady-state enqueue/dequeue touched the allocator";
  EXPECT_EQ(ran, (32u + 256u) * 8u);
}

// --- batch verbs: semantics --------------------------------------------------

TEST(ServiceBatch, BatchAndSingleOpsInterleaveInFifoOrder) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");

  vm.apply_batch("alice", {add(1)}).get();
  auto b1 = vm.apply_batch("alice", {add(2), add(3)});
  auto q1 = vm.query("alice", 2);  // submitted after b1: must see it (FIFO)
  auto b2 = vm.apply_batch("alice", {remove(1), add(4)});
  auto q2 = vm.query_batch("alice", {{1, 1, {}}, {2, 1, {}}, {4, 1, {}}});

  b1.get();
  b2.get();
  EXPECT_EQ(q1.get().size(), 1u);
  const auto results = q2.get();
  ASSERT_EQ(results.size(), 3u);
  // remove(1) happened in the same CP window as add(1)? No — add(1) was in
  // an earlier apply, same window (no CP yet), so the WS annihilates it.
  EXPECT_TRUE(results[0].empty());
  EXPECT_EQ(results[1].size(), 1u);
  EXPECT_EQ(results[2].size(), 1u);

  // query_batch answers match the single-query verb exactly.
  EXPECT_EQ(results[1], vm.query("alice", 2).get());
  EXPECT_EQ(results[2], vm.query("alice", 4).get());

  // Degenerate batches are legal no-ops.
  EXPECT_NO_THROW(vm.apply_batch("alice", {}).get());
  EXPECT_TRUE(vm.query_batch("alice", {}).get().empty());
}

TEST(ServiceBatch, ApplyBatchValidatesAtomicallyInEveryDurabilityMode) {
  struct Mode {
    const char* name;
    bool wal;
    std::uint32_t window_micros;
  };
  for (const Mode& m : {Mode{"no WAL", false, 0}, Mode{"WAL window 0", true, 0},
                        Mode{"WAL window 2000us", true, 2000}}) {
    SCOPED_TRACE(m.name);
    bs::TempDir dir;
    bsvc::ServiceOptions o = service_options(dir, 1);
    o.wal_enabled = m.wal;
    o.wal_commit_window_micros = m.window_micros;
    bsvc::VolumeManager vm(o);
    vm.open_volume("alice");
    const auto wal_records = [&vm] {
      return vm.metrics().counter("backlog_wal_records_total", "").total();
    };

    bsvc::UpdateOp bad = add(2);
    bad.key.length = 0;

    // Validation is up front: nothing lands and nothing is logged.
    const std::uint64_t records_before = wal_records();
    auto fut = vm.apply_batch("alice", {add(1), bad, add(3)});
    EXPECT_THROW(fut.get(), std::invalid_argument);
    EXPECT_EQ(vm.quick_stats("alice").get().ws_entries, 0u);
    EXPECT_EQ(wal_records(), records_before);

    // The volume is not harmed: a valid batch after it acks and lands.
    EXPECT_NO_THROW(vm.apply_batch("alice", {add(1), add(3)}).get());
    EXPECT_EQ(vm.quick_stats("alice").get().ws_entries, 2u);
    EXPECT_EQ(wal_records(), records_before + (m.wal ? 1u : 0u));
  }
}

TEST(ServiceBatch, ApplyManyMatchesSequentialPruningSemantics) {
  bs::TempDir dir;
  // Same op sequence through both paths; write stores must agree on every
  // pruning rule (annihilate, merge) and the post-CP state must be equal.
  const std::vector<bc::Update> ops = {
      add(10), add(11), remove(10),  // add+remove in one CP: annihilates
      remove(12), add(12),           // remove+re-add: To erased, no From
      add(13), add(14), remove(14),
  };

  bs::Env env_a(dir.path() / "a"), env_b(dir.path() / "b");
  bc::BacklogDb db_a(env_a), db_b(env_b);
  db_a.apply_many(ops);
  for (const bc::Update& op : ops) {
    if (op.kind == bc::Update::Kind::kAdd) {
      db_b.add_reference(op.key);
    } else {
      db_b.remove_reference(op.key);
    }
  }
  EXPECT_EQ(db_a.quick_stats().ws_entries, db_b.quick_stats().ws_entries);
  db_a.consistency_point();
  db_b.consistency_point();
  EXPECT_EQ(db_a.scan_all(), db_b.scan_all());

  // And the empty batch is a no-op.
  db_a.apply_many({});
  EXPECT_EQ(db_a.quick_stats().ws_entries, 0u);
}

// --- batch verbs: allocation shape -------------------------------------------

TEST(ServiceBatch, ApplyBatchEnqueueAllocationsAreConstantInBatchSize) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 1));
  const std::string tenant = "alice";
  vm.open_volume(tenant);

  // Warm the path: ring growth, flow registration, promise machinery.
  for (int i = 0; i < 8; ++i) {
    vm.apply_batch(tenant, batch_of(100000 + i * 10, 4)).get();
  }

  // Measure only the API thread's enqueue: the batch is built outside the
  // window and moved in; the worker's own allocations (write-store nodes)
  // land on its thread's counter, not ours.
  const auto measure = [&](bc::BlockNo base, std::size_t nops) {
    auto batch = batch_of(base, nops);
    const std::uint64_t before = thread_allocs();
    auto fut = vm.apply_batch(tenant, std::move(batch));
    const std::uint64_t after = thread_allocs();
    fut.get();
    return after - before;
  };

  const std::uint64_t small = measure(200000, 16);
  const std::uint64_t big = measure(300000, 4096);
  EXPECT_LE(small, 8u) << "per-batch enqueue cost grew beyond the promise";
  EXPECT_LE(big, small + 2)
      << "enqueue allocations scale with batch size (SBO task too small or "
         "an op-proportional copy crept in)";
}

// --- shard pinning -----------------------------------------------------------

TEST(ServiceBatch, PinShardsAppliesThreadAffinity) {
#if defined(__linux__)
  bs::TempDir dir;
  bsvc::ServiceOptions so = service_options(dir, 2);
  so.pin_shards = true;
  bsvc::VolumeManager vm(so);
  EXPECT_TRUE(vm.shards_pinned());

  vm.open_volume("alice");
  int cpus_in_mask = -1;
  vm.with_db("alice",
             [&](bc::BacklogDb&) {
               cpu_set_t set;
               CPU_ZERO(&set);
               if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) ==
                   0) {
                 cpus_in_mask = CPU_COUNT(&set);
               }
             })
      .get();
  EXPECT_EQ(cpus_in_mask, 1) << "worker thread not pinned to a single CPU";

  // The pinned pool still serves real traffic end to end.
  vm.apply_batch("alice", batch_of(1, 64)).get();
  vm.consistency_point("alice").get();
  EXPECT_EQ(vm.query("alice", 1).get().size(), 1u);
#else
  GTEST_SKIP() << "thread affinity is Linux-only";
#endif
}
