#include "fsim/multi_tenant.hpp"

#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <stdexcept>
#include <thread>

#include "util/clock.hpp"
#include "util/random.hpp"

namespace backlog::fsim {

using util::now_seconds;

TenantTrace synthesize_tenant_trace(const TenantTraceOptions& options) {
  util::Rng rng(options.seed);
  TenantTrace trace;
  trace.ops.reserve(options.block_ops);

  // Live references, sampled uniformly for removal (swap-pop). Each entry
  // carries the line it was added under.
  std::vector<core::BackrefKey> live;
  core::BlockNo next_block = 1;  // block 0 reserved, as in fsim
  core::LineId writable_line = 0;
  std::uint64_t snapshots_on_line = 0;

  auto fires = [](std::uint64_t every, std::uint64_t i) {
    return every != 0 && i != 0 && i % every == 0;
  };

  for (std::uint64_t i = 0; i < options.block_ops; ++i) {
    if (fires(options.snapshot_every_ops, i)) {
      trace.events.push_back({TraceEvent::Kind::kSnapshot, i, writable_line});
      ++trace.snapshots;
      ++snapshots_on_line;
    }
    if (fires(options.clone_every_ops, i) && snapshots_on_line > 0) {
      // Branch off the latest snapshot of the current writable line; the
      // registry hands out line ids sequentially, so the clone becomes line
      // `trace.lines` — replay asserts that.
      trace.events.push_back({TraceEvent::Kind::kClone, i, writable_line});
      writable_line = trace.lines++;
      snapshots_on_line = 0;
    }
    if (fires(options.migrate_every_ops, i)) {
      trace.events.push_back({TraceEvent::Kind::kMigrate, i, 0});
    }

    const bool remove = !live.empty() && rng.chance(options.remove_fraction);
    service::UpdateOp op;
    if (remove) {
      const std::size_t idx = rng.below(live.size());
      op.kind = service::UpdateOp::Kind::kRemove;
      op.key = live[idx];
      live[idx] = live.back();
      live.pop_back();
    } else {
      op.kind = service::UpdateOp::Kind::kAdd;
      op.key.block = next_block;
      op.key.length = rng.between(1, options.max_extent_blocks);
      next_block += op.key.length;  // write-anywhere: always fresh blocks
      op.key.inode = 2 + rng.below(options.inodes);
      op.key.offset = rng.below(1u << 20);
      op.key.line = writable_line;
      live.push_back(op.key);
    }
    trace.ops.push_back(op);
  }
  trace.live_keys = std::move(live);
  return trace;
}

std::vector<TenantWorkload> synthesize_fleet(const FleetOptions& options) {
  if (options.tenants == 0)
    throw std::invalid_argument("synthesize_fleet: tenants must be > 0");
  if (options.shape == FleetShape::kHotTenant &&
      (options.hot_share <= 0 || options.hot_share >= 1)) {
    throw std::invalid_argument("synthesize_fleet: hot_share must be in (0,1)");
  }
  std::vector<TenantWorkload> out;
  out.reserve(options.tenants);
  for (std::size_t i = 0; i < options.tenants; ++i) {
    std::uint64_t ops = options.total_ops / options.tenants;
    if (options.shape == FleetShape::kHotTenant) {
      const double total = static_cast<double>(options.total_ops);
      ops = i == 0 ? static_cast<std::uint64_t>(total * options.hot_share)
                   : static_cast<std::uint64_t>(total *
                                                (1.0 - options.hot_share)) /
                         (options.tenants > 1 ? options.tenants - 1 : 1);
    }
    TenantTraceOptions to = options.base;
    to.block_ops = std::max<std::uint64_t>(1, ops);
    to.seed = options.seed * 1000003 + i;
    char suffix[24];
    std::snprintf(suffix, sizeof suffix, "%03zu", i);
    TenantWorkload wl;
    wl.tenant = options.name_prefix + suffix;
    wl.trace = synthesize_tenant_trace(to);
    if (options.shape == FleetShape::kBursty) {
      wl.pause_every_ops = options.burst_ops;
      wl.pause = options.burst_pause;
    }
    out.push_back(std::move(wl));
  }
  return out;
}

namespace {

TenantReplayResult replay_one(service::VolumeManager& vm,
                              const TenantWorkload& wl,
                              const ReplayOptions& options) {
  TenantReplayResult r;
  r.tenant = wl.tenant;
  const double t0 = now_seconds();

  std::vector<std::future<void>> applied;      // current CP window's batches
  std::deque<std::future<std::vector<std::vector<core::BackrefEntry>>>>
      queries;
  core::BlockNo last_added = 0;

  std::vector<service::UpdateOp> batch;
  batch.reserve(options.batch_ops);
  std::uint64_t ops_in_window = 0;

  auto flush_batch = [&] {
    if (batch.empty()) return;
    r.ops += batch.size();
    ++r.batches;
    applied.push_back(vm.apply_batch(wl.tenant, std::move(batch)));
    batch = {};
    batch.reserve(options.batch_ops);
  };

  auto drain_queries = [&](std::size_t keep) {
    while (queries.size() > keep) {
      if (queries.front().get().front().empty()) ++r.empty_query_results;
      queries.pop_front();
    }
  };

  auto take_cp = [&] {
    flush_batch();
    // The CP future completing implies every prior foreground task for this
    // tenant completed (per-shard FIFO) — natural per-tenant backpressure.
    vm.consistency_point(wl.tenant).get();
    ++r.cps;
    for (auto& f : applied) f.get();  // surface any batch exception
    applied.clear();
    ops_in_window = 0;
  };

  // Latest snapshot version per line, fed to clone events.
  std::map<core::LineId, core::Epoch> last_version;
  core::LineId next_clone_line = 1;
  std::size_t next_event = 0;
  std::size_t migrate_round = 0;

  auto run_events_at = [&](std::uint64_t op_index) {
    while (next_event < wl.trace.events.size() &&
           wl.trace.events[next_event].at_op == op_index) {
      const TraceEvent& ev = wl.trace.events[next_event++];
      flush_batch();  // events act on everything applied so far (FIFO)
      switch (ev.kind) {
        case TraceEvent::Kind::kSnapshot: {
          last_version[ev.line] = vm.take_snapshot(wl.tenant, ev.line).get();
          ++r.snapshots;
          break;
        }
        case TraceEvent::Kind::kClone: {
          const core::LineId id =
              vm.create_clone(wl.tenant, ev.line, last_version.at(ev.line)).get();
          if (id != next_clone_line) {
            throw std::logic_error("replay: clone line id mismatch for " +
                                   wl.tenant);
          }
          ++next_clone_line;
          ++r.clones;
          break;
        }
        case TraceEvent::Kind::kMigrate: {
          // Rotate deterministically through the shards. One feeder per
          // tenant, so *trace* migrations never overlap — but an external
          // placement actor (the Balancer) may have this volume's handoff
          // in flight; losing that race skips the event, it doesn't fail
          // the replay.
          const std::size_t target =
              (vm.current_shard(wl.tenant) + 1 + (migrate_round++ % 2)) %
              vm.shard_count();
          try {
            if (vm.migrate_volume(wl.tenant, target).moved) ++r.migrations;
          } catch (const std::logic_error&) {
            ++r.migrations_skipped;
          }
          break;
        }
      }
    }
  };

  for (std::uint64_t i = 0; i < wl.trace.ops.size(); ++i) {
    run_events_at(i);
    const service::UpdateOp& op = wl.trace.ops[i];
    if (op.kind == service::UpdateOp::Kind::kAdd) {
      last_added = op.key.block;
    } else if (op.key.block == last_added) {
      last_added = 0;  // keep queries aimed at a still-live reference
    }
    batch.push_back(op);
    if (batch.size() >= options.batch_ops) flush_batch();

    if (wl.pause_every_ops != 0 && (i + 1) % wl.pause_every_ops == 0 &&
        wl.pause.count() > 0) {
      flush_batch();  // the burst's tail reaches the service before the idle
      std::this_thread::sleep_for(wl.pause);
    }

    ++ops_in_window;
    if (options.query_every_ops != 0 && last_added != 0 &&
        ops_in_window % options.query_every_ops == 0) {
      flush_batch();  // the queried block must already be applied (FIFO)
      queries.push_back(vm.query_batch(wl.tenant, {{last_added}}));
      ++r.queries;
      drain_queries(32);
    }
    if (ops_in_window >= options.ops_per_cp) take_cp();
  }
  run_events_at(wl.trace.ops.size());
  if (options.final_cp || !batch.empty() || !applied.empty()) take_cp();
  drain_queries(0);

  r.wall_seconds = now_seconds() - t0;
  return r;
}

}  // namespace

std::vector<TenantReplayResult> replay_concurrently(
    service::VolumeManager& vm, const std::vector<TenantWorkload>& workloads,
    const ReplayOptions& options) {
  std::vector<TenantReplayResult> results(workloads.size());
  std::vector<std::exception_ptr> errors(workloads.size());
  std::vector<std::thread> feeders;
  feeders.reserve(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    feeders.emplace_back([&, i] {
      try {
        results[i] = replay_one(vm, workloads[i], options);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : feeders) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace backlog::fsim
