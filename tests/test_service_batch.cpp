// The batched hot path (apply_batch / query_batch / apply_many) and its
// allocation story.
//
// The perf PR's claims are structural, so the tests pin structure, not
// nanoseconds: (a) InlineTask keeps the service's dispatch wrappers out of
// the allocator and RingDeque reuses its slots, verified with a counting
// global operator new — a warmed ShardQueue push/pop_many cycle performs
// *zero* heap allocations, and an apply_batch call allocates O(1) on the
// API thread regardless of batch size; (b) chunked dequeue (pop_many) is
// schedule-equivalent to repeated pop() — stride fairness and per-flow
// FIFO hold inside chunks; (c) the batch verbs
// keep per-tenant FIFO order against interleaved single queries, validate
// atomically with and without the WAL, and match the sequential
// add/remove callbacks' pruning semantics exactly;
// (d) ServiceOptions::pin_shards actually pins the worker threads.
// The Ticker, the service's one periodic thread, is tested here beside the
// other service primitives: fixed-delay timing and cancel's waits.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/backlog_db.hpp"
#include "fsim/multi_tenant.hpp"
#include "query_one.hpp"
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
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, they allocate from a heap that free() must not see,
// which an ASan build reports as an alloc-dealloc mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
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
using backlog::testing::query_one;

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

TEST(ShardQueue, PopManyKeepsStrideFairnessAndFlowFifo) {
  bsvc::ShardQueue q;
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
  ASSERT_EQ(order.size(), 32u);
  EXPECT_EQ(max_chunk, 8u) << "dequeue never actually chunked";
  EXPECT_EQ(chunks, 4u);

  // Stride fairness holds inside chunks: both flows appear early and often.
  EXPECT_GE(std::count(order.begin(), order.begin() + 8, 1), 3);
  EXPECT_GE(std::count(order.begin(), order.begin() + 8, 2), 3);
  // Per-flow FIFO survived the chunking.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(seq1[i], i);
    EXPECT_EQ(seq2[i], i);
  }
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

// --- Ticker ------------------------------------------------------------------

TEST(Ticker, OverrunningCallbackWaitsOnePeriodAfterItReturns) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kPeriod = std::chrono::milliseconds(10);
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> runs;
  const auto count = [&] {
    const std::lock_guard lock(mu);
    return runs.size();
  };
  bsvc::Ticker ticker;
  ticker.every(kPeriod, [&] {
    const Clock::time_point begin = Clock::now();
    std::this_thread::sleep_for(3 * kPeriod);
    const std::lock_guard lock(mu);
    runs.emplace_back(begin, Clock::now());
  });
  while (count() < 3) std::this_thread::sleep_for(kPeriod);
  ticker.stop();
  // Fixed delay, not fixed rate: a run three periods long is not followed
  // at once by the run it overran.
  for (std::size_t i = 1; i < runs.size(); ++i)
    EXPECT_GE(runs[i].first - runs[i - 1].second, kPeriod) << "run " << i;
}

TEST(Ticker, CancelWaitsForTheRunningCallbackWhichNeverRunsAgain) {
  std::atomic<int> started{0}, finished{0};
  bsvc::Ticker ticker;
  const bsvc::Ticker::Id id = ticker.every(std::chrono::milliseconds(1), [&] {
    started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.fetch_add(1);
  });
  while (started.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ticker.cancel(id);
  EXPECT_EQ(finished.load(), started.load());  // the run in flight ended
  const int runs = started.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(started.load(), runs);
}

TEST(Ticker, CancelDoesNotWaitForAnotherBlockedCallback) {
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> blocked{false};
  std::atomic<int> a_runs{0};
  bsvc::Ticker ticker;
  const bsvc::Ticker::Id a =
      ticker.every(std::chrono::milliseconds(1), [&] { a_runs.fetch_add(1); });
  ticker.every(std::chrono::milliseconds(1), [&] {
    blocked.store(true);
    released.wait();
  });
  while (!blocked.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::future<void> cancelled =
      std::async(std::launch::async, [&] { ticker.cancel(a); });
  EXPECT_EQ(cancelled.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const int runs = a_runs.load();
  release.set_value();
  cancelled.get();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(a_runs.load(), runs);
}

TEST(Ticker, EarlierRegistrationWakesALongWait) {
  std::atomic<int> runs{0};
  bsvc::Ticker ticker;
  ticker.every(std::chrono::hours(1), [] {});
  // The thread now sleeps until the hour is up; the new entry (which also
  // regrows the entry vector under that wait) must wake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ticker.every(std::chrono::milliseconds(1), [&] { runs.fetch_add(1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runs.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(runs.load(), 0);
}

TEST(Ticker, ThrowingCallbackStaysRegistered) {
  std::atomic<int> runs{0};
  bsvc::Ticker ticker;
  ticker.every(std::chrono::milliseconds(1), [&] {
    if (runs.fetch_add(1) == 0) throw std::runtime_error("first run fails");
  });
  while (runs.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(Ticker, NonPositivePeriodThrows) {
  bsvc::Ticker ticker;
  EXPECT_THROW(ticker.every(std::chrono::milliseconds(0), [] {}),
               std::invalid_argument);
  EXPECT_THROW(ticker.every(std::chrono::milliseconds(-1), [] {}),
               std::invalid_argument);
}

// --- batch verbs: semantics --------------------------------------------------

TEST(ServiceBatch, BatchAndSingleOpsInterleaveInFifoOrder) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");

  vm.apply_batch("alice", {add(1)}).get();
  auto b1 = vm.apply_batch("alice", {add(2), add(3)});
  // Submitted after b1: must see it (FIFO).
  auto q1 = query_one(vm, "alice", 2);
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
  EXPECT_EQ(results[1], query_one(vm, "alice", 2).get());
  EXPECT_EQ(results[2], query_one(vm, "alice", 4).get());

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
  EXPECT_EQ(query_one(vm, "alice", 1).get().size(), 1u);
#else
  GTEST_SKIP() << "thread affinity is Linux-only";
#endif
}
