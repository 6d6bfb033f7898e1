#include "net/handlers.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <future>
#include <system_error>

#include "net/render.hpp"
#include "net/wire.hpp"
#include "service/service.hpp"

namespace backlog::net {

namespace {

using Response = Server::Response;

Response no_such_tenant(const std::string& tenant) {
  return Response::error(service::ErrorCode::kNoSuchTenant,
                         "no volume '" + tenant + "' hosted here");
}

Response text_ok(const std::string& text) {
  util::Writer w;
  w.string(text);
  return Response::ok(w.take());
}

service::ServiceOptions host_options(const std::filesystem::path& root,
                                     std::size_t shards,
                                     std::uint32_t commit_window_micros) {
  service::ServiceOptions so;
  so.shards = shards;
  so.root = root;
  // Every apply future resolves only once its WAL record is fsync-covered.
  // The window bounds how long an ack waits to share its fsync with the
  // shard's other batches (0 = one fsync per batch).
  so.wal_enabled = true;
  so.wal_commit_window_micros = commit_window_micros;
  return so;
}

}  // namespace

std::vector<service::UpdateOp> annihilating_pulse(core::BlockNo& next_block) {
  std::vector<service::UpdateOp> ops;
  ops.reserve(32);
  for (int i = 0; i < 16; ++i) {
    service::UpdateOp a;
    a.kind = service::UpdateOp::Kind::kAdd;
    a.key.block = next_block++;
    a.key.inode = 2;
    a.key.length = 1;
    service::UpdateOp r = a;
    r.kind = service::UpdateOp::Kind::kRemove;
    ops.push_back(a);
    ops.push_back(r);
  }
  return ops;
}

ServiceHost::ServiceHost(const std::filesystem::path& root, std::size_t shards,
                         std::uint32_t commit_window_micros,
                         const std::string& only)
    : vm_(host_options(root, shards, commit_window_micros)),
      scheduler_(vm_),
      endpoint_(vm_) {
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(root, ec)) {
    const std::string name = de.path().filename().string();
    if (!de.is_directory(ec) || (!only.empty() && name != only)) continue;
    try {
      service::validate_tenant_name(name);
    } catch (const std::invalid_argument&) {
      continue;  // not a volume directory this service could have made
    }
    vm_.open_volume(name);
  }
}

ServiceHost::~ServiceHost() {
  try {
    stop();
  } catch (const std::exception&) {
  }
}

void ServiceHost::listen(const ServerOptions& options) {
  const std::lock_guard<std::mutex> lock(mu_);
  endpoint_.start(options);
  serving_ = true;
}

Client ServiceHost::connect() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) throw std::logic_error("ServiceHost: connect after stop");
  if (!serving_) {
    endpoint_.start_io(ServerOptions{});
    serving_ = true;
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "socketpair");
  }
  Client c;
  c.adopt(fds[0]);
  endpoint_.adopt(fds[1]);
  return c;
}

void ServiceHost::stop() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  endpoint_.stop();
  scheduler_.stop();
  // Every volume closes even when one's flush fails (a wounded volume
  // refuses its close CP); the first error surfaces after the last close.
  std::exception_ptr first_error;
  for (const auto& t : vm_.tenants()) {
    try {
      vm_.close_volume(t);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ServiceEndpoint::ServiceEndpoint(service::VolumeManager& vm)
    : vm_(vm), poller_(vm) {
  register_handlers();
}

void ServiceEndpoint::start(ServerOptions options) {
  options.metrics = &vm_.metrics();
  server_.start(options);
}

void ServiceEndpoint::start_io(ServerOptions options) {
  options.metrics = &vm_.metrics();
  server_.start_io(options);
}

void ServiceEndpoint::stop() { server_.stop(); }

void ServiceEndpoint::register_handlers() {
  const auto ctl = kControlPayloadCap;
  const auto data = kDataPayloadCap;

  server_.register_handler(
      Verb::kPing, ctl,
      [](const FrameHeader&, util::Reader&) { return Response::ok(); });

  server_.register_handler(
      Verb::kOpenVolume, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        // Idempotent: remote CLIs open before every verb sequence, and a
        // volume that is already hosted is exactly the state they asked for.
        if (!vm_.has_volume(tenant)) vm_.open_volume(tenant);
        return Response::ok();
      });

  server_.register_handler(
      Verb::kCloseVolume, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        vm_.close_volume(tenant);
        return Response::ok();
      });

  server_.register_handler(
      Verb::kDestroyVolume, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        vm_.destroy_volume(tenant);
        return Response::ok();
      });

  server_.register_handler(
      Verb::kListTenants, ctl, [this](const FrameHeader&, util::Reader&) {
        const auto tenants = vm_.tenants();
        util::Writer w;
        w.u32(static_cast<std::uint32_t>(tenants.size()));
        for (const auto& t : tenants) w.string(t);
        return Response::ok(w.take());
      });

  // --- data plane ------------------------------------------------------------

  server_.register_handler(
      Verb::kApplyBatch, data, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        auto ops = wire::get_update_ops(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        vm_.apply_batch(tenant, std::move(ops)).get();
        return Response::ok();
      });

  server_.register_handler(
      Verb::kQueryBatch, data, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        auto ranges = wire::get_query_ranges(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        const auto results = vm_.query_batch(tenant, std::move(ranges)).get();
        util::Writer w;
        wire::put_query_results(w, results);
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kConsistencyPoint, ctl,
      [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        const auto stats = vm_.consistency_point(tenant).get();
        util::Writer w;
        wire::put_cp_stats(w, stats);
        return Response::ok(w.take());
      });

  // --- snapshot / placement control plane ------------------------------------

  server_.register_handler(
      Verb::kTakeSnapshot, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        const core::LineId line = r.u64();
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        const core::Epoch version = vm_.take_snapshot(tenant, line).get();
        util::Writer w;
        w.u64(version);
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kListVersions, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        const core::LineId line = r.u64();
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        const auto versions = vm_.list_versions(tenant, line).get();
        util::Writer w;
        w.u32(static_cast<std::uint32_t>(versions.size()));
        for (const core::Epoch v : versions) w.u64(v);
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kCloneVolume, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string src = wire::get_tenant(r);
        const std::string dst = wire::get_tenant(r);
        const core::LineId line = r.u64();
        const core::Epoch version = r.u64();
        if (!vm_.has_volume(src)) return no_such_tenant(src);
        const core::LineId new_line = vm_.clone_volume(src, dst, line, version);
        const service::SharedFileStats fs = vm_.shared_file_stats();
        util::Writer w;
        w.u64(new_line);
        w.u64(fs.shared_files);
        w.u64(fs.shared_bytes);
        w.u64(fs.saved_bytes);
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kMigrateVolume, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        const std::uint64_t target = r.u64();
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        if (target >= vm_.shard_count()) {
          return Response::error(
              service::ErrorCode::kBadRequest,
              "target shard " + std::to_string(target) + " out of range (" +
                  std::to_string(vm_.shard_count()) + " shards)");
        }
        const auto stats =
            vm_.migrate_volume(tenant, static_cast<std::size_t>(target));
        util::Writer w;
        wire::put_migration_stats(w, stats);
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kSetQos, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        const service::TenantQos qos = wire::get_qos(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        vm_.set_qos(tenant, qos);
        return Response::ok();
      });

  server_.register_handler(
      Verb::kQosSnapshot, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        util::Writer w;
        wire::put_qos_snapshot(w, vm_.qos(tenant));
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kQuickStats, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        util::Writer w;
        wire::put_quick_stats(w, vm_.quick_stats(tenant).get());
        return Response::ok(w.take());
      });

  // --- observability / inspection --------------------------------------------

  server_.register_handler(
      Verb::kStatsText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const bool json = r.u8() != 0;
        return text_ok(render_stats(vm_.stats(), json));
      });

  server_.register_handler(
      Verb::kMetricsText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const bool json = r.u8() != 0;
        std::string out =
            json ? vm_.metrics().to_json() : vm_.metrics().to_prometheus();
        if (json) out += "\n";
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kPollRates, ctl, [this](const FrameHeader&, util::Reader&) {
        util::Writer w;
        wire::put_rate_sample(w, poller_.poll_once());
        return Response::ok(w.take());
      });

  server_.register_handler(
      Verb::kSetTracing, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::uint32_t sample = r.u32();
        const std::uint64_t slow_us = r.u64();
        vm_.set_tracing(sample, slow_us);
        return Response::ok();
      });

  server_.register_handler(
      Verb::kTraceText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::uint64_t sample = r.u64();
        const std::uint64_t slow_us = r.u64();
        return text_ok(
            render_trace(vm_.trace_spans(), vm_.slow_ops(), sample, slow_us));
      });

  server_.register_handler(
      Verb::kInfoText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        std::string out;
        vm_.with_db(tenant, [&out, &tenant](core::BacklogDb& db) {
          out = render_info(db, tenant);
        }).get();
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kRunsText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        std::string out;
        vm_.with_env(tenant, [&out](storage::Env& env, core::BacklogDb&) {
          out = render_runs(env);
        }).get();
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kQueryText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        const core::BlockNo first = r.u64();
        const std::uint64_t count = r.u64();
        const bool raw = r.u8() != 0;
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        std::string out;
        vm_.with_db(tenant, [&out, first, count, raw](core::BacklogDb& db) {
          out = raw ? render_records(db.query_raw(first, count),
                                     /*indent=*/true)
                    : render_query(db.query(first, count));
        }).get();
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kScanText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        std::string out;
        vm_.with_db(tenant, [&out](core::BacklogDb& db) {
          out = render_records(db.scan_all(), /*indent=*/false);
        }).get();
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kMaintainText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        return text_ok(render_maintenance(vm_.maintain(tenant).get()));
      });

  server_.register_handler(
      Verb::kDumpRunText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::string tenant = wire::get_tenant(r);
        const std::string file = r.string(wire::kMaxFileName);
        if (!vm_.has_volume(tenant)) return no_such_tenant(tenant);
        std::string out;
        vm_.with_env(tenant, [&out, &file](storage::Env& env,
                                           core::BacklogDb&) {
          out = render_dump_run(env, file);
        }).get();
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kBalanceText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const std::uint64_t cycles = r.u64();
        if (cycles == 0 || cycles > (1u << 20)) {
          return Response::error(service::ErrorCode::kBadRequest,
                                 "cycles out of range");
        }
        // One balance run at a time: concurrent balancers would fight over
        // placements (and Balancer::run_once is built to be the only mover).
        const std::lock_guard<std::mutex> lock(balance_mu_);
        const auto tenants = vm_.tenants();
        if (tenants.empty()) {
          return Response::error(service::ErrorCode::kBadRequest,
                                 "no volumes hosted");
        }

        service::BalancerPolicy bp;
        bp.latency_weighted = false;
        bp.cooldown = std::chrono::milliseconds(0);
        bp.min_load_to_act = 1;
        bp.max_moves_per_cycle = 2;
        service::Balancer balancer(vm_, bp);

        std::string out;
        char line[192];
        std::snprintf(line, sizeof line,
                      "%zu volumes on %zu shards; %llu balancer cycles\n",
                      tenants.size(), vm_.shard_count(),
                      static_cast<unsigned long long>(cycles));
        out += line;
        core::BlockNo probe = 1ull << 40;
        for (std::uint64_t c = 0; c <= cycles; ++c) {
          std::vector<std::future<void>> futs;
          for (const auto& t : tenants) {
            futs.push_back(vm_.apply_batch(t, annihilating_pulse(probe)));
          }
          for (auto& f : futs) f.get();
          if (c == 0) {
            balancer.run_once();  // first sighting primes the rate counters
            continue;
          }
          const auto moves = balancer.run_once();
          for (const auto& m : moves) {
            std::snprintf(line, sizeof line,
                          "cycle %llu: moved %s shard %zu -> %zu "
                          "(imbalance %.3f -> %.3f)\n",
                          static_cast<unsigned long long>(c),
                          m.tenant.c_str(), m.from_shard, m.to_shard,
                          m.imbalance_before, m.imbalance_after);
            out += line;
          }
          if (moves.empty()) {
            std::snprintf(line, sizeof line,
                          "cycle %llu: balanced (imbalance %.3f)\n",
                          static_cast<unsigned long long>(c),
                          balancer.last_imbalance());
            out += line;
          }
        }
        std::snprintf(line, sizeof line, "%-20s %6s\n", "tenant", "shard");
        out += line;
        for (const auto& p : vm_.placements()) {
          std::snprintf(line, sizeof line, "%-20s %6zu\n", p.tenant.c_str(),
                        p.shard);
          out += line;
        }
        std::snprintf(line, sizeof line,
                      "moves: %llu, final imbalance %.3f\n",
                      static_cast<unsigned long long>(balancer.moves()),
                      balancer.last_imbalance());
        out += line;
        return text_ok(out);
      });

  server_.register_handler(
      Verb::kCacheText, ctl, [this](const FrameHeader&, util::Reader& r) {
        const bool json = r.u8() != 0;
        return text_ok(render_cache(vm_.cache_stats(), json));
      });

  server_.register_handler(
      Verb::kCacheClear, ctl, [this](const FrameHeader&, util::Reader&) {
        vm_.clear_caches();
        return Response::ok();
      });
}

}  // namespace backlog::net
