// The observability layer: MetricsRegistry / MetricsPoller, per-op tracing
// (TraceRing, slow-op log) and their wiring through the service.
//
// The layer's claims are forensic, so the tests pin the invariants a
// debugging session relies on: (a) a span's stages telescope exactly —
// gate + queue + execute + commit_wait == end-to-end, io <= execute —
// including for an op that crossed a live migration park/replay, and a
// delay injected at the WAL fsync lands in commit_wait under group commit;
// (b) the slow-op log is exact (every over-threshold op, not a sample) and
// captures an injected Env delay; (c) trace rings overwrite oldest and never block or allocate
// on the shard thread; (d) stats().total is the registry's family totals,
// which never go down when a volume closes, and the shared API slot loses
// no concurrent increment; (e) enabling tracing adds zero API-thread
// allocations to the hot path (counting global operator new, same idiom as
// test_service_batch); (f) scraping every export surface races apply/query
// load and migration churn without a data race (the TSan CI job runs this
// binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "query_one.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"
#include "util/clock.hpp"
#include "util/fault_points.hpp"

// --- counting allocator ------------------------------------------------------
// Per-thread allocation counter (worker threads allocate freely on their own
// counters; tests only meter the API thread).

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
namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace butil = backlog::util;
using backlog::testing::query_one;

namespace {

/// "t<i>", built by append: GCC 12 misreports `"t" + std::to_string(i)`
/// under -Wrestrict when it inlines the concatenation.
std::string tenant_name(int i) {
  std::string name = "t";
  name += std::to_string(i);
  return name;
}

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

std::vector<bsvc::UpdateOp> batch_of(bc::BlockNo first, std::size_t n) {
  std::vector<bsvc::UpdateOp> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) batch.push_back(add(first + i));
  return batch;
}

/// Spans of one verb, in scrape (submit-time) order.
std::vector<bsvc::TraceSpan> spans_of(const std::vector<bsvc::TraceSpan>& all,
                                      bsvc::TraceVerb verb) {
  std::vector<bsvc::TraceSpan> out;
  for (const auto& s : all) {
    if (s.verb == verb) out.push_back(s);
  }
  return out;
}

/// The four stages telescope exactly to the end-to-end latency, and the
/// Env time stays inside execute.
void expect_telescopes(const bsvc::TraceSpan& s) {
  EXPECT_EQ(s.gate_wait_micros + s.queue_wait_micros + s.execute_micros +
                s.commit_wait_micros,
            s.end_to_end_micros());
  EXPECT_LE(s.io_micros, s.execute_micros);
}

// --- building blocks ---------------------------------------------------------

TEST(Observability, IoStatsAccumulateIsFieldComplete) {
  bs::IoStats a;
  a.page_reads = 1;
  a.page_writes = 2;
  a.bytes_read = 3;
  a.bytes_written = 4;
  a.files_created = 5;
  a.files_deleted = 6;
  a.fsyncs = 7;
  a.fsync_micros = 8;
  a.io_micros = 9;

  bs::IoStats sum;
  sum += a;
  sum += a;
  EXPECT_EQ(sum.page_reads, 2u);
  EXPECT_EQ(sum.page_writes, 4u);
  EXPECT_EQ(sum.bytes_read, 6u);
  EXPECT_EQ(sum.bytes_written, 8u);
  EXPECT_EQ(sum.files_created, 10u);
  EXPECT_EQ(sum.files_deleted, 12u);
  EXPECT_EQ(sum.fsyncs, 14u);
  EXPECT_EQ(sum.fsync_micros, 16u);
  EXPECT_EQ(sum.io_micros, 18u);

  // += and - are inverses, field by field.
  const bs::IoStats back = sum - a;
  EXPECT_EQ(back.page_reads, a.page_reads);
  EXPECT_EQ(back.fsyncs, a.fsyncs);
  EXPECT_EQ(back.fsync_micros, a.fsync_micros);
  EXPECT_EQ(back.io_micros, a.io_micros);
}

TEST(Observability, LatencyHistogramPercentilesAndBuckets) {
  bsvc::LatencyHistogram h;
  for (std::uint64_t v : {1, 1, 2, 3, 5, 9, 100, 1000}) h.record(v);

  // The convenience accessors are exactly the canonical quantiles.
  EXPECT_EQ(h.p50(), h.quantile_micros(0.50));
  EXPECT_EQ(h.p95(), h.quantile_micros(0.95));
  EXPECT_EQ(h.p99(), h.quantile_micros(0.99));
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());

  // to_buckets: non-cumulative counts, ascending bounds, summing to count.
  const auto buckets = h.to_buckets();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t total = 0, prev_le = 0;
  for (const auto& b : buckets) {
    EXPECT_GT(b.le_micros, prev_le);
    prev_le = b.le_micros;
    total += b.count;
  }
  EXPECT_EQ(total, h.count());

  // ingest_bucket round-trips what bucket_of produced: an ingested copy
  // reports identical percentiles and buckets.
  bsvc::LatencyHistogram copy;
  for (const auto& b : buckets) {
    std::size_t idx = 0;
    while (bsvc::LatencyHistogram::bucket_upper_micros(idx) < b.le_micros)
      ++idx;
    copy.ingest_bucket(idx, b.count);
  }
  copy.ingest_sum_max(h.sum_micros(), h.max_micros());
  EXPECT_EQ(copy.count(), h.count());
  EXPECT_EQ(copy.p99(), h.p99());
  EXPECT_EQ(copy.max_micros(), h.max_micros());
}

TEST(Observability, LatencyHistogramQuantilesInterpolateWithinBucket) {
  // 100 observations of 1000 µs all land in the (512, 1024] bucket with
  // max = 1000. The interpolated quantiles walk from the bucket's lower
  // bound toward the max-clamped upper bound by rank: the former
  // upper-bound readout reported 1000 for every quantile (and would report
  // 1024 without the max clamp) — an over-report of up to 2× per bucket.
  bsvc::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  EXPECT_EQ(h.quantile_micros(0.01), 517u);  // 512 + 0.01 * 488
  EXPECT_EQ(h.p50(), 756u);                  // 512 + 0.50 * 488
  EXPECT_EQ(h.p95(), 976u);                  // 512 + 0.95 * 488
  EXPECT_EQ(h.p99(), 995u);                  // 512 + 0.99 * 488
  EXPECT_EQ(h.quantile_micros(1.0), 1000u);  // the true maximum, not 1024

  // Multi-bucket: ranks resolve to the right bucket before interpolating.
  // 90 samples at 10 µs ((8,16] bucket) + 10 at 1000 µs: p50 sits in the
  // small bucket, p99 in the big one.
  bsvc::LatencyHistogram mix;
  for (int i = 0; i < 90; ++i) mix.record(10);
  for (int i = 0; i < 10; ++i) mix.record(1000);
  EXPECT_EQ(mix.p50(), 12u);   // 8 + (50/90) * 8 ~= 12.4
  EXPECT_EQ(mix.p99(), 951u);  // 512 + (9/10) * (1000 - 512) ~= 951.2

  // The ingest (scrape) round trip preserves the interpolated readout
  // exactly: identical bucket counts + sum/max give identical quantiles.
  bsvc::LatencyHistogram copy;
  for (const auto& b : mix.to_buckets()) {
    copy.ingest_bucket(bsvc::LatencyHistogram::bucket_of(b.le_micros),
                       b.count);
  }
  copy.ingest_sum_max(mix.sum_micros(), mix.max_micros());
  EXPECT_EQ(copy.p50(), mix.p50());
  EXPECT_EQ(copy.p95(), mix.p95());
  EXPECT_EQ(copy.p99(), mix.p99());

  // A single sample interpolates to itself (hi clamps to max, lo <= max).
  bsvc::LatencyHistogram one;
  one.record(700);
  EXPECT_EQ(one.p50(), one.max_micros());
  EXPECT_EQ(one.p99(), 700u);
}

TEST(Observability, TraceRingOverflowEvictsOldest) {
  bsvc::TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    bsvc::TraceSpan s;
    s.id = id;
    s.t_submit = id;
    // push reports eviction exactly once the ring is full.
    EXPECT_EQ(ring.push(s), id > 4);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.evicted(), 6u);

  // The survivors are the newest four, oldest first.
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].id, 7 + i);
}

TEST(Observability, TraceSpanTenantTruncationAndFormat) {
  bsvc::TraceSpan s;
  s.id = 42;
  s.verb = bsvc::TraceVerb::kQueryBatch;
  s.set_tenant(std::string(100, 'x'));  // longer than the inline array
  EXPECT_EQ(std::string(s.tenant), std::string(sizeof(s.tenant) - 1, 'x'));

  s.gate_wait_micros = 10;
  s.queue_wait_micros = 20;
  s.execute_micros = 30;
  s.io_micros = 12;
  s.commit_wait_micros = 40;
  s.slow = true;
  s.migrated = true;
  const std::string line = bsvc::format_span(s);
  EXPECT_NE(line.find("slow-op"), std::string::npos);
  EXPECT_NE(line.find("verb=query_batch"), std::string::npos);
  EXPECT_NE(line.find("migrated"), std::string::npos);
  EXPECT_NE(line.find("gate=10us"), std::string::npos);
  EXPECT_NE(line.find("core=18us"), std::string::npos);    // 30 - 12
  EXPECT_NE(line.find("commit=40us"), std::string::npos);
  EXPECT_NE(line.find("e2e=100us"), std::string::npos);    // 10 + 20 + 30 + 40
}

TEST(Observability, MetricsRegistrySlotsAndIdempotentRegistration) {
  bsvc::MetricsRegistry reg(3);
  auto& c = reg.counter("backlog_test_total", "test counter");
  EXPECT_EQ(&c, &reg.counter("backlog_test_total", "ignored"));
  c.add(0, 5);
  c.add(1, 7);
  c.add(2);
  EXPECT_EQ(c.total(), 13u);

  auto& g = reg.gauge("backlog_test_gauge", "test gauge");
  auto& g_labeled =
      reg.gauge("backlog_test_gauge", "test gauge", "shard=\"1\"");
  EXPECT_NE(&g, &g_labeled);  // distinct series within one family
  g.set(0.5);
  g_labeled.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);

  auto& h = reg.histogram("backlog_test_micros", "test histogram");
  h.record(0, 3);
  h.record(1, 300);
  h.record(2, 300000);
  const bsvc::LatencyHistogram merged = h.merged();
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.sum_micros(), 300303u);
  EXPECT_EQ(merged.max_micros(), 300000u);
}

TEST(Observability, PrometheusExpositionIsWellFormed) {
  bsvc::MetricsRegistry reg(2);
  reg.counter("backlog_ops_total", "ops").add(0, 9);
  reg.gauge("backlog_busy", "busy", "shard=\"0\"").set(0.25);
  auto& h = reg.histogram("backlog_lat_micros", "latency");
  h.record(0, 1);
  h.record(0, 5);
  h.record(1, 1000);

  const std::string out = reg.to_prometheus();
  EXPECT_NE(out.find("# HELP backlog_ops_total ops\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE backlog_ops_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("backlog_ops_total 9\n"), std::string::npos);
  EXPECT_NE(out.find("backlog_busy{shard=\"0\"} 0.25\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE backlog_lat_micros histogram\n"),
            std::string::npos);
  // Histogram invariants a scraper relies on: cumulative buckets, +Inf
  // bucket present and equal to _count.
  EXPECT_NE(out.find("backlog_lat_micros_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("backlog_lat_micros_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("backlog_lat_micros_sum 1006\n"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"backlog_ops_total\":9"), std::string::npos);
  EXPECT_NE(json.find("\"backlog_lat_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

TEST(Observability, MetricsRegistryApiSlotIsExactUnderContention) {
  // The trailing API slot is written by every non-shard thread (chaos
  // kill/restart, the balancer and maintenance scheduler threads): its
  // increments must not be lost the way a load+store pair loses them under
  // contention.
  bsvc::MetricsRegistry reg(3);
  auto& c = reg.counter("backlog_test_total", "test counter");
  auto& h = reg.histogram("backlog_test_micros", "test histogram");
  constexpr int kThreads = 8;
  constexpr int kAdds = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAdds; ++i) {
        c.add(reg.slots() - 1);
        if (i % 100 == 0) h.record(reg.slots() - 1, 10 * t + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), std::uint64_t{kThreads} * kAdds);
  const bsvc::LatencyHistogram m = h.merged();
  EXPECT_EQ(m.count(), std::uint64_t{kThreads} * (kAdds / 100));
  EXPECT_EQ(m.max_micros(), 10u * (kThreads - 1) + 1);
}

TEST(Observability, RegistryChildrenFoldIntoRetiredPart) {
  bsvc::MetricsRegistry reg(2);
  auto& c = reg.counter("backlog_test_total", "test counter");
  auto& h = reg.histogram("backlog_test_micros", "test histogram");
  std::atomic<std::uint64_t> alice{0};
  bsvc::HistogramCell alice_lat;
  c.attach("alice", alice);
  h.attach("alice", alice_lat);
  c.add(0, 2);
  bsvc::bump(alice, 5);
  alice_lat.record(40);
  EXPECT_EQ(c.total(), 7u);
  EXPECT_EQ(h.merged().count(), 1u);

  // Detaching keeps the child's value in the total; later writes to the
  // detached cell no longer count, and a second detach is a no-op.
  c.detach(alice);
  h.detach(alice_lat);
  bsvc::bump(alice, 100);
  c.detach(alice);
  EXPECT_EQ(c.total(), 7u);
  const bsvc::LatencyHistogram m = h.merged();
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.max_micros(), 40u);
  EXPECT_NE(reg.to_prometheus().find("backlog_test_total 7\n"),
            std::string::npos);
}

// --- service wiring ----------------------------------------------------------

TEST(Observability, VerbCountersMatchServiceStats) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 2);
  o.sync_writes = true;  // so the CP issues real fsyncs
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");
  vm.open_volume("bob");
  vm.set_tracing(/*sample_every=*/0, /*slow_op_micros=*/1'000'000);

  vm.apply_batch("alice", batch_of(100, 8)).get();
  vm.apply_batch("bob", batch_of(200, 16)).get();
  query_one(vm, "alice", 100).get();
  query_one(vm, "bob", 200).get();
  vm.consistency_point("alice").get();
  vm.maintain("alice").get();
  const bc::Epoch v = vm.take_snapshot("bob").get();
  vm.create_clone("bob", 0, v).get();
  vm.clone_volume("bob", "carol", 0, v);
  vm.apply_batch("carol", batch_of(300, 4)).get();
  query_one(vm, "carol", 300).get();
  vm.migrate_volume("alice", 1 - vm.current_shard("alice"));

  // 1 op/s, burst 1, wait queue 1: admitted, queued, rejected. Clearing
  // the QoS releases the queued op; tracing stamps the gate wait of both
  // released ops.
  bsvc::TenantQos qos;
  qos.ops_per_sec = 1;
  qos.burst_ops = 1;
  qos.max_wait_queue = 1;
  vm.set_qos("alice", qos);
  auto admitted = vm.apply_batch("alice", {add(1)});
  auto queued = vm.apply_batch("alice", {add(2)});
  auto rejected = vm.apply_batch("alice", {add(3)});
  vm.clear_qos("alice");
  admitted.get();
  queued.get();
  EXPECT_THROW(rejected.get(), bsvc::ServiceError);

  // Volumes leave: their series stay in the lifetime totals.
  vm.close_volume("bob");
  vm.destroy_volume("carol");
  query_one(vm, "alice", 100).get();

  const bsvc::ServiceStats stats = vm.stats();
  bsvc::MetricsRegistry& reg = vm.metrics();
  const auto counter = [&](const char* name) {
    return reg.counter(name, "").total();
  };
  const auto count = [&](const char* name) {
    return reg.histogram(name, "").merged().count();
  };
  const bsvc::TenantStats& t = stats.total;
  EXPECT_EQ(counter("backlog_updates_total"), t.updates);
  EXPECT_EQ(counter("backlog_update_batches_total"), t.batches);
  EXPECT_EQ(counter("backlog_cps_total"), t.cps);
  EXPECT_EQ(counter("backlog_queries_total"), t.queries);
  EXPECT_EQ(counter("backlog_snapshots_total"), t.snapshots);
  EXPECT_EQ(counter("backlog_clones_total"), t.clones);
  EXPECT_EQ(counter("backlog_snapshot_deletes_total"), t.snapshot_deletes);
  EXPECT_EQ(counter("backlog_migrations_total"), t.migrations);
  EXPECT_EQ(counter("backlog_maintenance_runs_total"), t.maintenance_runs);
  EXPECT_EQ(counter("backlog_maintenance_skipped_total"),
            t.maintenance_skipped);
  EXPECT_EQ(counter("backlog_throttle_queued_total"), t.throttle_queued);
  EXPECT_EQ(counter("backlog_throttle_rejected_total"), t.throttle_rejected);
  EXPECT_EQ(count("backlog_update_batch_micros"),
            t.update_batch_micros.count());
  EXPECT_EQ(count("backlog_cp_micros"), t.cp_micros.count());
  EXPECT_EQ(count("backlog_query_micros"), t.query_micros.count());
  EXPECT_EQ(count("backlog_maintenance_micros"), t.maintenance_micros.count());
  EXPECT_EQ(count("backlog_queue_wait_micros"), t.queue_wait_micros.count());
  EXPECT_EQ(count("backlog_gate_wait_micros"), t.gate_wait_micros.count());
  EXPECT_EQ(count("backlog_commit_wait_micros"),
            t.commit_wait_micros.count());

  // The expected lifetime values, closed and destroyed volumes included.
  EXPECT_EQ(t.updates, 8u + 16u + 4u + 2u);
  EXPECT_EQ(t.batches, 5u);
  EXPECT_EQ(t.update_batch_micros.count(), 5u);
  EXPECT_EQ(t.queries, 4u);
  EXPECT_EQ(t.snapshots, 1u);
  EXPECT_EQ(t.clones, 2u);  // create_clone on bob + clone_volume's line
  EXPECT_EQ(t.migrations, 1u);
  EXPECT_EQ(t.maintenance_runs, 1u);
  EXPECT_EQ(t.maintenance_micros.count(), 1u);
  EXPECT_EQ(t.throttle_queued, 1u);
  EXPECT_EQ(t.throttle_rejected, 1u);
  EXPECT_EQ(t.gate_wait_micros.count(), 2u);  // every op the gate released
  EXPECT_GE(t.cps, 2u);  // alice's CP + bob's snapshot CP
  // Only alice is hosted: her row is below the lifetime total.
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants.at("alice").updates, 8u + 2u);
  EXPECT_EQ(stats.tenants.at("alice").shard, vm.current_shard("alice"));

  // The new Env counters flowed through IoStats::operator+= into the total:
  // a sync CP fsyncs at least once, and syscall wall time was accumulated.
  EXPECT_GE(t.io.fsyncs, 1u);
  EXPECT_GE(t.io.io_micros, t.io.fsync_micros);
  EXPECT_GE(t.io.fsyncs, stats.tenants.at("alice").io.fsyncs);
}

TEST(Observability, MetricsPollerComputesWindowedRates) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");
  bsvc::MetricsPoller poller(vm);

  const std::uint64_t t0 = butil::now_micros();
  const bsvc::RateSample primed = poller.poll_once(t0);
  EXPECT_EQ(primed.update_ops_per_sec, 0.0);  // first poll primes the window
  // The priming sample says so: its zeros mean "no previous poll", not
  // "idle", and consumers (metrics --watch) label it instead of printing it.
  EXPECT_FALSE(primed.primed);

  for (int i = 0; i < 10; ++i)
    vm.apply_batch("alice", batch_of(i * 100, 50)).get();
  query_one(vm, "alice", 0).get();

  // Deterministic window: exactly one second after the prime.
  const bsvc::RateSample s = poller.poll_once(t0 + 1'000'000);
  EXPECT_TRUE(s.primed);  // a real window: differences are meaningful now
  EXPECT_DOUBLE_EQ(s.window_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.update_ops_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(s.queries_per_sec, 1.0);
  ASSERT_EQ(s.shard_busy_fraction.size(), 2u);
  for (const double b : s.shard_busy_fraction) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
  EXPECT_EQ(poller.last().at_micros, t0 + 1'000'000);

  // The rates were mirrored into registry gauges.
  EXPECT_DOUBLE_EQ(
      vm.metrics().gauge("backlog_update_ops_per_sec", "").value(), 500.0);
}

TEST(Observability, MetricsPollerRatesSurviveVolumeClose) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 2));
  vm.open_volume("alice");
  vm.open_volume("bob");
  vm.apply_batch("alice", batch_of(0, 50)).get();
  vm.consistency_point("alice").get();
  vm.clear_caches();
  query_one(vm, "alice", 0).get();  // a cache miss: alice read pages too
  vm.apply_batch("alice", batch_of(1000, 50)).get();
  bsvc::MetricsPoller poller(vm);

  const std::uint64_t t0 = butil::now_micros();
  poller.poll_once(t0);
  const bsvc::ServiceStats before = vm.stats();
  ASSERT_GT(before.total.io.bytes_read, 0u);
  ASSERT_GT(before.total.io.bytes_written, 0u);

  vm.close_volume("alice");  // its close CP writes the second 50 ops
  const bsvc::RateSample s = poller.poll_once(t0 + 1'000'000);
  ASSERT_TRUE(s.primed);
  for (const double rate : {s.update_ops_per_sec, s.io_read_bytes_per_sec,
                            s.io_write_bytes_per_sec}) {
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GE(rate, 0.0);
  }
  EXPECT_EQ(s.update_ops_per_sec, 0.0);
  EXPECT_GT(s.io_write_bytes_per_sec, 0.0);  // the close CP, not a wrap

  // The lifetime total keeps the closed volume.
  const bsvc::ServiceStats after = vm.stats();
  EXPECT_EQ(after.total.updates, 100u);
  EXPECT_GE(after.total.io.bytes_written, before.total.io.bytes_written);
  EXPECT_GE(after.total.io.bytes_read, before.total.io.bytes_read);
  EXPECT_EQ(after.tenants.count("alice"), 0u);
}

TEST(Observability, SampledSpansTelescopeExactly) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 2);
  o.trace_sample_every = 1;  // record every foreground op
  o.wal_enabled = true;      // the updates' spans close at the durable ack
  o.wal_commit_window_micros = 2000;
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");

  const std::uint64_t t_apply = butil::now_micros();
  vm.apply_batch("alice", batch_of(0, 4)).get();
  const std::uint64_t apply_wall = butil::now_micros() - t_apply;
  vm.apply_batch("alice", batch_of(100, 8)).get();
  query_one(vm, "alice", 0).get();
  vm.query_batch("alice", {{0, 1, {}}, {100, 1, {}}}).get();
  vm.consistency_point("alice").get();

  const auto spans = vm.trace_spans();
  ASSERT_GE(spans.size(), 5u);
  for (const auto& s : spans) {
    expect_telescopes(s);
    if (s.verb != bsvc::TraceVerb::kApplyBatch) {
      EXPECT_EQ(s.commit_wait_micros, 0u);  // acked at execute end
    }
    EXPECT_EQ(std::string(s.tenant), "alice");
    EXPECT_FALSE(s.migrated);
    EXPECT_GT(s.id, 0u);
  }
  // Both updates are spans of the one update verb, in submit order. The
  // first one's span runs to its ack, which the caller sees afterwards.
  const auto updates = spans_of(spans, bsvc::TraceVerb::kApplyBatch);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_LE(updates[0].end_to_end_micros(), apply_wall);
  EXPECT_EQ(updates[0].ops, 4u);
  EXPECT_EQ(updates[1].ops, 8u);
  const auto queries = spans_of(spans, bsvc::TraceVerb::kQueryBatch);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].ops, 1u);
  EXPECT_EQ(queries[1].ops, 2u);
  EXPECT_EQ(spans_of(spans, bsvc::TraceVerb::kCp).size(), 1u);
  EXPECT_EQ(vm.metrics().counter("backlog_trace_spans_total", "").total(),
            spans.size());
}

TEST(Observability, ServiceTraceRingOverflowKeepsNewest) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 1);
  o.trace_sample_every = 1;
  o.trace_ring_size = 8;
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");

  for (int i = 0; i < 100; ++i) vm.apply_batch("alice", {add(i)}).get();

  const auto spans = vm.trace_spans();
  ASSERT_EQ(spans.size(), 8u);  // capacity, not 100: oldest were evicted
  // Survivors are the newest spans, still ordered oldest -> newest.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
  }
  EXPECT_GE(vm.metrics().counter("backlog_trace_evictions_total", "").total(),
            92u - 8u);  // stats()-scrape control spans may evict a few more
}

TEST(Observability, SlowOpCapturesInjectedEnvDelay) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 1);
  o.sync_writes = true;
  o.slow_op_micros = 2000;  // 2 ms threshold, no sampling
  static constexpr std::uint64_t kDelayMicros = 5000;
  butil::FaultPoints faults;
  o.faults = &faults;
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");
  vm.apply_batch("alice", batch_of(0, 16)).get();
  EXPECT_TRUE(vm.slow_ops().empty());  // nothing slow yet

  // The CP creates run files; the armed action stretches each create by
  // 5 ms.
  const butil::FaultPoints::Id delay =
      faults.arm("env.create", butil::FaultAction::call([] {
                   std::this_thread::sleep_for(
                       std::chrono::microseconds(kDelayMicros));
                 }));
  const std::uint64_t t_before = butil::now_micros();
  vm.consistency_point("alice").get();
  const std::uint64_t wall = butil::now_micros() - t_before;
  faults.disarm(delay);

  const auto slow = spans_of(vm.slow_ops(), bsvc::TraceVerb::kCp);
  ASSERT_EQ(slow.size(), 1u);
  const bsvc::TraceSpan& s = slow[0];
  EXPECT_TRUE(s.slow);
  // All stages sum exactly to the recorded end-to-end latency (a far
  // stronger property than the acceptance criterion's 10% band) ...
  expect_telescopes(s);
  // ... and the span brackets reality: it contains the injected delay and
  // fits inside the caller-observed wall time.
  EXPECT_GE(s.execute_micros, kDelayMicros);
  EXPECT_LE(s.end_to_end_micros(), wall);
  // Within 10% of the caller-observed wall, modulo scheduler noise: `wall`
  // also contains the future-wakeup hop back to this thread, which on an
  // oversubscribed host (parallel ctest on few cores) can alone add
  // milliseconds the span legitimately does not cover.
  constexpr std::uint64_t kSchedSlackMicros = 20000;
  EXPECT_GE(10 * (s.end_to_end_micros() + kSchedSlackMicros), 9 * wall);
  // The sync CP did real IO under the span.
  EXPECT_GT(s.io_micros, 0u);
  EXPECT_EQ(vm.metrics().counter("backlog_slow_ops_total", "").total(), 1u);
}

TEST(Observability, CommitWaitStageCapturesInjectedSyncDelay) {
  static constexpr std::uint64_t kDelayMicros = 20000;
  // Window on: the apply is acked by the shard's group-commit sweep, so a
  // stalled WAL fsync shows as commit_wait, not execute. Window 0 syncs
  // inside execute, so the same stall is execute and nothing is parked.
  for (const std::uint32_t window : {2000u, 0u}) {
    SCOPED_TRACE(window);
    bs::TempDir dir;
    bsvc::ServiceOptions o = service_options(dir, 1);
    o.trace_sample_every = 1;
    o.wal_enabled = true;
    o.wal_commit_window_micros = window;
    butil::FaultPoints faults;
    o.faults = &faults;
    bsvc::VolumeManager vm(o);
    vm.open_volume("alice");
    faults.arm("wal.synced", butil::FaultAction::call([] {
                 std::this_thread::sleep_for(
                     std::chrono::microseconds(kDelayMicros));
               }));
    const std::uint64_t t_before = butil::now_micros();
    vm.apply_batch("alice", batch_of(0, 4)).get();
    const std::uint64_t wall = butil::now_micros() - t_before;

    const auto applies =
        spans_of(vm.trace_spans(), bsvc::TraceVerb::kApplyBatch);
    ASSERT_EQ(applies.size(), 1u);
    const bsvc::TraceSpan& s = applies[0];
    expect_telescopes(s);
    if (window != 0) {
      // A parked ack closes the span before the caller's future resolves.
      // (At window 0 the ack fires inside execute, which ends when the body
      // returns, a few microseconds after the caller may have woken.)
      EXPECT_LE(s.end_to_end_micros(), wall);
      EXPECT_GE(s.commit_wait_micros, kDelayMicros);
      EXPECT_LT(s.execute_micros, kDelayMicros);
    } else {
      EXPECT_EQ(s.commit_wait_micros, 0u);
      EXPECT_GE(s.execute_micros, kDelayMicros);
    }
    const bsvc::LatencyHistogram waits =
        vm.stats().tenants.at("alice").commit_wait_micros;
    ASSERT_EQ(waits.count(), 1u);
    EXPECT_EQ(waits.max_micros() >= kDelayMicros, window != 0);
  }
}

TEST(Observability, SlowOpSpansMigrationParkReplay) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 2);
  o.slow_op_micros = 1000;
  o.trace_sample_every = 1;
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");
  vm.apply_batch("alice", {add(1)}).get();
  const std::size_t source = vm.current_shard("alice");
  const std::size_t target = 1 - source;

  // Block the source shard so the migration drain queues behind the
  // blocker, keeping the park window open while we submit the traced op.
  std::atomic<bool> entered{false}, release{false};
  auto blocker = vm.with_db("alice", [&](bc::BacklogDb&) {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  bsvc::MigrationStats ms;
  std::thread migrator([&] { ms = vm.migrate_volume("alice", target); });
  // Phase 1 (park) needs only the routing lock; give it ample time, then
  // submit the op that must land in the parked deque.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto parked_op = vm.apply_batch("alice", {add(2)});
  // Hold the park open long enough that the op is unambiguously slow.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true, std::memory_order_release);
  blocker.get();
  migrator.join();
  ASSERT_NO_THROW(parked_op.get());
  EXPECT_TRUE(ms.moved);
  EXPECT_GE(ms.replayed_tasks, 1u);

  // The op's span survived the handoff: recorded on the target shard,
  // flagged migrated, park time showing up as queue wait, stages still
  // telescoping exactly.
  const auto applies = spans_of(vm.slow_ops(), bsvc::TraceVerb::kApplyBatch);
  ASSERT_FALSE(applies.empty());
  const bsvc::TraceSpan& s = applies.back();
  EXPECT_TRUE(s.migrated);
  EXPECT_EQ(s.submit_shard, source);
  EXPECT_EQ(s.exec_shard, target);
  EXPECT_GE(s.queue_wait_micros, 5000u);  // at least the held park window
  expect_telescopes(s);
  EXPECT_EQ(query_one(vm, "alice", 2).get().size(), 1u);
}

TEST(Observability, GateWaitStageSplitsFromQueueWait) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 1);
  o.trace_sample_every = 1;
  bsvc::VolumeManager vm(o);
  vm.open_volume("alice");

  // Tiny bucket: an apply issued right after the burst is spent must wait
  // at the gate for a refill. On an oversubscribed host this thread can be
  // descheduled past the refill between the two applies (token back, no
  // wait, no gated span), so use a wide 20 ms refill window and retry the
  // pair until a gated span shows up.
  bsvc::TenantQos qos;
  qos.ops_per_sec = 50;
  qos.burst_ops = 1;
  vm.set_qos("alice", qos);
  bool saw_gated = false;
  for (bc::BlockNo b = 1; b < 20 && !saw_gated; b += 2) {
    vm.apply_batch("alice", {add(b)}).get();      // spends the burst
    vm.apply_batch("alice", {add(b + 1)}).get();  // throttled: waits
    for (const auto& s :
         spans_of(vm.trace_spans(), bsvc::TraceVerb::kApplyBatch)) {
      expect_telescopes(s);
      if (s.gate_wait_micros > 0) saw_gated = true;
    }
  }
  EXPECT_TRUE(saw_gated);
  const bsvc::ServiceStats stats = vm.stats();
  EXPECT_GE(stats.tenants.at("alice").throttle_queued, 1u);
  EXPECT_GE(stats.total.gate_wait_micros.count(), 1u);
}

TEST(Observability, SetTracingTogglesAtRuntime) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 1));  // tracing off by default
  vm.open_volume("alice");

  vm.apply_batch("alice", {add(1)}).get();
  EXPECT_TRUE(vm.trace_spans().empty());

  vm.set_tracing(/*sample_every=*/1, /*slow_op_micros=*/0);
  vm.apply_batch("alice", {add(2)}).get();
  const std::size_t traced = vm.trace_spans().size();
  EXPECT_GE(traced, 1u);

  vm.set_tracing(0, 0);
  vm.apply_batch("alice", {add(3)}).get();
  // No new spans beyond what the enabled window recorded (the disabled
  // scrape itself is not traced).
  EXPECT_EQ(vm.trace_spans().size(), traced);
}

TEST(Observability, TracingAddsNoApiThreadAllocations) {
  bs::TempDir dir;
  bsvc::VolumeManager vm(service_options(dir, 1));
  vm.open_volume("alice");

  // One measured region per mode: N applies through the identical call
  // shape. The traced run may not allocate more than the untraced one —
  // the TraceCtx rides by value in the task's SBO storage and the rings
  // are preallocated.
  constexpr int kOps = 64;
  const auto measure = [&](bc::BlockNo base) {
    for (int i = 0; i < 8; ++i) vm.apply_batch("alice", {add(base + i)}).get();
    const std::uint64_t before = thread_allocs();
    for (int i = 8; i < 8 + kOps; ++i) {
      vm.apply_batch("alice", {add(base + i)}).get();
    }
    return thread_allocs() - before;
  };

  const std::uint64_t untraced = measure(1000);
  vm.set_tracing(/*sample_every=*/1, /*slow_op_micros=*/1);
  const std::uint64_t traced = measure(2000);
  EXPECT_LE(traced, untraced);
}

// --- scrape-while-hot stress (the TSan CI job runs this binary) --------------

TEST(Observability, ScrapeWhileHotStressIsRaceFree) {
  bs::TempDir dir;
  bsvc::ServiceOptions o = service_options(dir, 4);
  o.trace_sample_every = 4;
  o.slow_op_micros = 500;
  o.trace_ring_size = 64;
  o.wal_enabled = true;  // deferred spans finish in the commit sweep
  o.wal_commit_window_micros = 1000;
  bsvc::VolumeManager vm(o);
  constexpr int kTenants = 8;
  for (int i = 0; i < kTenants; ++i) {
    vm.open_volume(tenant_name(i));
  }
  bsvc::MetricsPoller poller(vm);

  std::atomic<bool> stop{false};
  // The poller has no thread of its own: sample every 5 ms from this one,
  // so its gauge writes race the scrapes below.
  std::thread polling([&] {
    while (!stop.load(std::memory_order_acquire)) {
      poller.poll_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::atomic<std::uint64_t> applied{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      bc::BlockNo next = 1'000'000ull * (w + 1);
      int tenant = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string name = tenant_name(tenant % kTenants);
        ++tenant;
        auto fut = vm.apply_batch(name, batch_of(next, 16));
        next += 16;
        ASSERT_NO_THROW(query_one(vm, name, next - 16).get());
        ASSERT_NO_THROW(fut.get());
        applied.fetch_add(16, std::memory_order_relaxed);
      }
    });
  }
  std::thread churn([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string name = tenant_name(round++ % kTenants);
      const std::size_t target =
          (vm.current_shard(name) + 1) % o.shards;
      ASSERT_NO_THROW(vm.migrate_volume(name, target));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // The scraper hammers every export surface while the fleet is hot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  std::uint64_t scrapes = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string prom = vm.metrics().to_prometheus();
    EXPECT_NE(prom.find("backlog_updates_total"), std::string::npos);
    const std::string json = vm.metrics().to_json();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    (void)vm.trace_spans();
    (void)vm.slow_ops();
    (void)vm.stats();
    ++scrapes;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  churn.join();
  polling.join();

  EXPECT_GT(scrapes, 0u);
  EXPECT_GT(applied.load(), 0u);
  // Scrape consistency after quiescence: the registry totals equal the
  // ServiceStats total read from them, and the tenant rows sum to it.
  const bsvc::ServiceStats stats = vm.stats();
  EXPECT_EQ(vm.metrics().counter("backlog_updates_total", "").total(),
            stats.total.updates);
  std::uint64_t row_updates = 0;
  for (const auto& [name, ts] : stats.tenants) row_updates += ts.updates;
  EXPECT_EQ(row_updates, stats.total.updates);
  for (const auto& s : vm.trace_spans()) expect_telescopes(s);
}

}  // namespace
