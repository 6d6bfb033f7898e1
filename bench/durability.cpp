// Durable-ops/s: per-batch fsync vs the group-commit WAL window.
//
// Every case hosts N volumes on ONE shard with the WAL enabled; an ack
// means the batch's WAL record is fsync-covered. The only variable is
// wal_commit_window_micros:
//
//   window 0   — the baseline: every batch fsyncs its own record inline on
//                the shard thread before its future resolves;
//   window > 0 — group commit: a flush sweep fsyncs each dirty volume once,
//                and every batch that landed before it rides it. The sweep
//                runs as soon as the shard has nothing else queued, or at
//                the window's end if the shard stays busy, so the window
//                bounds how long an ack waits for company.
//
// Two shapes of load:
//
//   open loop   — N volumes, one driver thread each, submit every batch and
//                 then wait for all acks. The shard stays busy, so the
//                 baseline pays (batches x fsync) while group commit pays
//                 (sweeps x dirty volumes): durable throughput scales with
//                 batching instead of with fsync count.
//   closed loop — one submitter, one volume, each batch awaited before the
//                 next. The shard is idle whenever a sweep is scheduled, so
//                 group commit must ack as fast as the baseline: a lone
//                 batch must not wait out the window.
//
// Emits one JSONROW per case:
//
//   JSONROW {"bench":"durability","window_us":...,"volumes":...,
//            "batch_ops":...,"batches":...,"durable_ops_per_second":...,
//            "wal_records":...,"wal_fsyncs":...,"fsync_micros_mean":...}
//   JSONROW {"bench":"durability","loop":"closed","window_us":...,
//            "volumes":1,"batch_ops":...,"batches":...,
//            "idle_ack_us_p50":...,"wal_records":...,"wal_fsyncs":...}
//
// tools/check_bench_regression.py gates on these rows. At the widest open
// loop fleet, group commit must amortize (records/fsync >= 3, machine-
// independent) and must beat the per-batch baseline >= 3x in durable-ops/s
// (self-skips where fsync is too cheap for amortization to be measurable,
// e.g. tmpfs). In the closed loop, the group-commit ack p50 may exceed the
// per-batch one by at most half the window.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"

namespace {

namespace bs = backlog::storage;
namespace bsvc = backlog::service;
namespace bench = backlog::bench;

constexpr std::uint64_t kBatchOps = 16;
constexpr std::uint64_t kBatchesPerVolume = 64;
constexpr std::uint32_t kWindowMicros = 2000;

struct CaseResult {
  double ops_per_second = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_fsyncs = 0;
  double fsync_micros_mean = 0;
};

std::string vol_name(std::size_t v) { return "vol" + std::to_string(v); }

bsvc::ServiceOptions service_options(const bs::TempDir& dir,
                                     std::uint32_t window_us) {
  bsvc::ServiceOptions so;
  so.shards = 1;  // one shard thread: the fsync serialization point
  so.root = dir.path();
  so.db_options.expected_ops_per_cp = kBatchesPerVolume * kBatchOps;
  so.wal_enabled = true;
  so.wal_commit_window_micros = window_us;
  return so;
}

std::vector<bsvc::UpdateOp> make_batch(std::uint64_t first_block) {
  std::vector<bsvc::UpdateOp> batch;
  batch.reserve(kBatchOps);
  for (std::uint64_t i = 0; i < kBatchOps; ++i) {
    bsvc::UpdateOp op;
    op.kind = bsvc::UpdateOp::Kind::kAdd;
    op.key.block = first_block + i;
    op.key.inode = 2;
    op.key.length = 1;
    batch.push_back(op);
  }
  return batch;
}

std::uint64_t wal_count(bsvc::VolumeManager& vm, const char* family) {
  return static_cast<std::uint64_t>(vm.metrics().counter(family, "").total());
}

/// Opens `volumes` volumes and lands one warm-up batch on each: WAL file
/// creation and first-touch costs land here, not in the measured window.
void open_warm(bsvc::VolumeManager& vm, std::size_t volumes) {
  for (std::size_t v = 0; v < volumes; ++v) vm.open_volume(vol_name(v));
  for (std::size_t v = 0; v < volumes; ++v) {
    vm.apply_batch(vol_name(v), make_batch(v << 32)).get();
  }
}

CaseResult run_case(std::size_t volumes, std::uint32_t window_us) {
  bs::TempDir dir("backlog_durability");
  bsvc::VolumeManager vm(service_options(dir, window_us));
  open_warm(vm, volumes);
  const std::uint64_t warm_records = wal_count(vm, "backlog_wal_records_total");
  const std::uint64_t warm_fsyncs = wal_count(vm, "backlog_wal_syncs_total");

  // Open loop, one driver thread per volume (a fleet's update stream comes
  // from many connections — a single submitter would cap how much a window
  // can accumulate): each thread submits its batches without waiting, then
  // drains its acks.
  const double t0 = bench::now_seconds();
  std::vector<std::thread> drivers;
  std::vector<double> submit_done(volumes, 0);
  drivers.reserve(volumes);
  for (std::size_t v = 0; v < volumes; ++v) {
    drivers.emplace_back([&, v] {
      std::vector<std::future<void>> acks;
      acks.reserve(kBatchesPerVolume);
      for (std::uint64_t r = 0; r < kBatchesPerVolume; ++r) {
        acks.push_back(vm.apply_batch(
            vol_name(v), make_batch((v << 32) | ((r + 1) * kBatchOps))));
      }
      submit_done[v] = bench::now_seconds() - t0;
      for (auto& f : acks) f.get();
    });
  }
  for (auto& t : drivers) t.join();
  const double elapsed = bench::now_seconds() - t0;
  double submit_max = 0;
  for (double s : submit_done) submit_max = std::max(submit_max, s);
  std::printf("    [submit phase: %.1f ms of %.1f ms total]\n",
              submit_max * 1e3, elapsed * 1e3);

  CaseResult res;
  res.ops_per_second =
      static_cast<double>(volumes * kBatchesPerVolume * kBatchOps) / elapsed;
  res.wal_records = wal_count(vm, "backlog_wal_records_total") - warm_records;
  res.wal_fsyncs = wal_count(vm, "backlog_wal_syncs_total") - warm_fsyncs;
  bs::IoStats io;
  for (std::size_t v = 0; v < volumes; ++v) {
    io += vm.io_stats(vol_name(v)).get();
  }
  if (io.fsyncs > 0) {
    res.fsync_micros_mean =
        static_cast<double>(io.fsync_micros) / static_cast<double>(io.fsyncs);
  }
  return res;
}

void report(std::size_t volumes, std::uint32_t window_us,
            const CaseResult& r) {
  std::printf("  volumes %2zu  window %5u us  %10.0f durable ops/s  "
              "records %5llu  fsyncs %5llu  (fsync mean %.0f us)\n",
              volumes, window_us, r.ops_per_second,
              static_cast<unsigned long long>(r.wal_records),
              static_cast<unsigned long long>(r.wal_fsyncs),
              r.fsync_micros_mean);
  bench::JsonRow()
      .str("bench", "durability")
      .num("window_us", window_us)
      .num("volumes", static_cast<std::uint64_t>(volumes))
      .num("batch_ops", kBatchOps)
      .num("batches", kBatchesPerVolume)
      .num("durable_ops_per_second", r.ops_per_second)
      .num("wal_records", r.wal_records)
      .num("wal_fsyncs", r.wal_fsyncs)
      .num("fsync_micros_mean", r.fsync_micros_mean)
      .print();
}

/// Closed loop on one volume: every batch is awaited before the next is
/// submitted, so each sweep finds the shard idle. Prints and emits the
/// median submit-to-ack latency.
void run_idle_case(std::uint32_t window_us) {
  bs::TempDir dir("backlog_durability");
  bsvc::VolumeManager vm(service_options(dir, window_us));
  open_warm(vm, 1);
  const std::uint64_t warm_records = wal_count(vm, "backlog_wal_records_total");
  const std::uint64_t warm_fsyncs = wal_count(vm, "backlog_wal_syncs_total");
  std::vector<double> ack_us;
  ack_us.reserve(kBatchesPerVolume);
  for (std::uint64_t r = 0; r < kBatchesPerVolume; ++r) {
    std::vector<bsvc::UpdateOp> batch = make_batch((r + 1) * kBatchOps);
    const double t0 = bench::now_seconds();
    vm.apply_batch(vol_name(0), std::move(batch)).get();
    ack_us.push_back((bench::now_seconds() - t0) * 1e6);
  }
  std::nth_element(ack_us.begin(), ack_us.begin() + ack_us.size() / 2,
                   ack_us.end());
  const double p50 = ack_us[ack_us.size() / 2];
  const std::uint64_t records =
      wal_count(vm, "backlog_wal_records_total") - warm_records;
  const std::uint64_t fsyncs =
      wal_count(vm, "backlog_wal_syncs_total") - warm_fsyncs;
  std::printf("  closed loop, 1 volume  window %5u us  ack p50 %8.0f us  "
              "records %5llu  fsyncs %5llu\n",
              window_us, p50, static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(fsyncs));
  bench::JsonRow()
      .str("bench", "durability")
      .str("loop", "closed")
      .num("window_us", window_us)
      .num("volumes", std::uint64_t{1})
      .num("batch_ops", kBatchOps)
      .num("batches", kBatchesPerVolume)
      .num("idle_ack_us_p50", p50)
      .num("wal_records", records)
      .num("wal_fsyncs", fsyncs)
      .print();
}

}  // namespace

int main() {
  const auto scale = backlog::bench::Scale::from_env();
  bench::print_header(
      "durability: per-batch fsync vs group-commit WAL window",
      "one fsync per dirty volume per sweep covers every parked batch",
      scale);
  std::printf("per volume: %llu batches x %llu ops, 1 shard, window %u us\n",
              static_cast<unsigned long long>(kBatchesPerVolume),
              static_cast<unsigned long long>(kBatchOps), kWindowMicros);

  double base8 = 0, group8 = 0;
  for (const std::size_t volumes : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const CaseResult perop = run_case(volumes, 0);
    report(volumes, 0, perop);
    const CaseResult group = run_case(volumes, kWindowMicros);
    report(volumes, kWindowMicros, group);
    if (volumes == 8) {
      base8 = perop.ops_per_second;
      group8 = group.ops_per_second;
    }
  }
  if (base8 > 0) {
    std::printf("\ngroup commit at 8 volumes: %.1fx the per-batch baseline "
                "(target >= 3x where fsync is real)\n",
                group8 / base8);
  }
  std::printf("\nclosed loop: %llu batches x %llu ops, each awaited before "
              "the next (target: group-commit ack p50 within half a window "
              "of per-batch)\n",
              static_cast<unsigned long long>(kBatchesPerVolume),
              static_cast<unsigned long long>(kBatchOps));
  run_idle_case(0);
  run_idle_case(kWindowMicros);
  return 0;
}
