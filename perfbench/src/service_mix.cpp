// service_mix: the only workload that crosses net framing, the shard queues,
// WAL group-commit fsyncs and background maintenance. An in-process
// ServiceEndpoint, configured as backlogd runs (plus group commit and the
// maintenance scheduler), hosts a hot-tenant fleet; one generator process
// with at most four connections drives it open loop at a fixed offered rate
// and times every request from when it was due.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "fsim/multi_tenant.hpp"
#include "net/client.hpp"
#include "net/handlers.hpp"
#include "service/maintenance_scheduler.hpp"
#include "service/volume_manager.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bn = backlog::net;
namespace bsv = backlog::service;

// --- open loop ---------------------------------------------------------------

std::vector<DueTiming> run_open_loop(const std::vector<std::uint64_t>& due_ns,
                                     std::uint64_t start_ns,
                                     const std::function<void(std::size_t)>& send) {
  std::vector<DueTiming> out(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    const std::uint64_t due = start_ns + due_ns[i];
    std::uint64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = now_ns();
    }
    send(i);
    const std::uint64_t done = now_ns();
    out[i].late_ns = now > due ? now - due : 0;
    out[i].latency_ns = done - due;
  }
  return out;
}

// --- the plan ------------------------------------------------------------------

std::vector<std::uint8_t> MixPlan::serialize() const {
  std::vector<std::uint8_t> out;
  for (const auto& keys : live_keys) {
    put64(out, keys.size());
    for (const auto& k : keys) put_key(out, k);
  }
  for (const Request& r : requests) {
    put64(out, static_cast<std::uint64_t>(r.kind));
    put64(out, r.tenant);
    put64(out, r.due_ns);
    put64(out, r.line);
    for (const auto& op : r.ops) {
      put64(out, static_cast<std::uint64_t>(op.kind));
      put_key(out, op.key);
    }
    for (const auto& q : r.ranges) {
      put64(out, q.first);
      put64(out, q.count);
    }
  }
  return out;
}

MixPlan make_mix_plan(const MixOptions& o) {
  bf::FleetOptions fo;
  fo.tenants = o.tenants;
  fo.total_ops = static_cast<std::uint64_t>(o.offered_ops_per_s * o.seconds);
  fo.shape = bf::FleetShape::kHotTenant;
  fo.hot_share = o.hot_share;
  fo.seed = o.seed;
  fo.base.snapshot_every_ops = o.snapshot_every_ops;
  const std::vector<bf::TenantWorkload> fleet = bf::synthesize_fleet(fo);

  MixPlan plan;
  backlog::util::Rng rng(o.seed * 31 + 7);
  const backlog::util::ZipfSampler zipf(o.recent_window, o.query_zipf_alpha);
  const auto duration_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  for (std::uint32_t t = 0; t < fleet.size(); ++t) {
    const bf::TenantTrace& trace = fleet[t].trace;
    plan.tenant_names.push_back(fleet[t].tenant);
    plan.live_keys.push_back(trace.live_keys);
    plan.block_ops += trace.ops.size();

    // Batches of batch_ops, also cut where a snapshot event fires.
    std::vector<std::pair<std::size_t, std::size_t>> batches;
    std::size_t ev = 0;
    for (std::size_t i = 0; i < trace.ops.size();) {
      while (ev < trace.events.size() && trace.events[ev].at_op <= i) ++ev;
      std::size_t end = std::min(i + o.batch_ops, trace.ops.size());
      if (ev < trace.events.size()) end = std::min<std::size_t>(end, trace.events[ev].at_op);
      batches.emplace_back(i, end);
      i = end;
    }

    const std::uint64_t spacing = duration_ns / batches.size();
    const std::uint64_t phase = rng.below(std::max<std::uint64_t>(1, spacing));
    std::vector<bc::BackrefKey> added;
    std::size_t next_event = 0;
    std::uint64_t since_cp = 0;
    for (std::size_t k = 0; k < batches.size(); ++k) {
      const auto [begin, end] = batches[k];
      const std::uint64_t due = phase + k * spacing;
      for (; next_event < trace.events.size() && trace.events[next_event].at_op <= begin;
           ++next_event) {
        Request snap{Request::Kind::kSnapshot, t, due, {}, {}, trace.events[next_event].line};
        plan.requests.push_back(std::move(snap));
      }
      Request apply{Request::Kind::kApply, t, due, {}, {}, 0};
      apply.ops.assign(trace.ops.begin() + static_cast<std::ptrdiff_t>(begin),
                       trace.ops.begin() + static_cast<std::ptrdiff_t>(end));
      for (const auto& op : apply.ops) {
        if (op.kind == bsv::UpdateOp::Kind::kAdd) added.push_back(op.key);
      }
      plan.requests.push_back(std::move(apply));
      since_cp += end - begin;
      if (since_cp >= o.ops_per_cp) {
        plan.requests.push_back({Request::Kind::kCp, t, due, {}, {}, 0});
        since_cp = 0;
      }
      if ((k + 1) % o.applies_per_query == 0 && !added.empty()) {
        Request query{Request::Kind::kQuery, t, due + spacing / 2, {}, {}, 0};
        for (std::size_t j = 0; j < o.query_ranges; ++j) {
          std::uint64_t rank = zipf.sample(rng);  // 1 = the most recent add
          if (rank > added.size()) rank = 1 + rng.below(added.size());
          const bc::BackrefKey& key = added[added.size() - rank];
          query.ranges.push_back({key.block, key.length, {}});
        }
        plan.requests.push_back(std::move(query));
      }
    }
  }
  std::stable_sort(plan.requests.begin(), plan.requests.end(),
                   [](const Request& a, const Request& b) { return a.due_ns < b.due_ns; });
  return plan;
}

namespace {

/// The service as backlogd runs it, plus group commit and the maintenance
/// scheduler. Members are declared in start order and torn down in reverse.
struct Service {
  std::unique_ptr<bsv::VolumeManager> vm;
  std::unique_ptr<bsv::MaintenanceScheduler> scheduler;
  std::unique_ptr<bn::ServiceEndpoint> endpoint;
  std::vector<bn::Client> clients;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { stop(); }

  void stop() {
    for (bn::Client& c : clients) c.close();
    clients.clear();
    if (endpoint) endpoint->stop();
    endpoint.reset();
    if (scheduler) scheduler->stop();
    scheduler.reset();
    vm.reset();
  }
};

std::unique_ptr<Service> start_service(const RunArgs& args, const MixPlan& plan,
                                       const std::filesystem::path& root) {
  std::filesystem::remove_all(root);
  auto svc = std::make_unique<Service>();
  bsv::ServiceOptions so;
  so.shards = args.params.u64("shards");
  so.root = root;
  so.wal_enabled = true;
  so.wal_commit_window_micros = static_cast<std::uint32_t>(args.params.u64("commit_window_us"));
  so.trace_ring_size = 1 << 16;  // keep every sampled span of a run
  svc->vm = std::make_unique<bsv::VolumeManager>(so);
  for (const std::string& t : plan.tenant_names) svc->vm->open_volume(t);
  svc->scheduler = std::make_unique<bsv::MaintenanceScheduler>(*svc->vm);
  svc->endpoint = std::make_unique<bn::ServiceEndpoint>(*svc->vm);
  bn::ServerOptions opts;
  opts.port = 0;
  opts.io_threads = args.params.u64("io_threads");
  svc->endpoint->start(opts);
  svc->clients.resize(args.params.u64("connections"));
  for (bn::Client& c : svc->clients) c.connect("127.0.0.1", svc->endpoint->port());
  return svc;
}

/// A histogram quantile under the same 10-beyond rule as percentile(); a
/// tail the count cannot support falls back like supported_tail().
Quantile histogram_tail(const bsv::LatencyHistogram& h, double q) {
  Quantile out;
  out.samples = h.count();
  if (h.count() == 0) return out;
  out.q = quantile_supported(h.count(), q)    ? q
          : h.count() >= 20                   ? 1.0 - 10.0 / static_cast<double>(h.count())
                                              : 1.0;
  out.value = out.q >= 1.0 ? static_cast<double>(h.max_micros())
                           : static_cast<double>(h.quantile_micros(out.q));
  return out;
}

/// Per-tenant counters the ledger diffs across the timed phase.
struct Counters {
  backlog::storage::IoStats io{};
  bsv::VolumeManager::CacheReport cache;
  bn::ServerStats net{};
  std::uint64_t wal_records = 0, wal_syncs = 0, maintenance_runs = 0;
};

Counters read_counters(Service& svc, const MixPlan& plan) {
  Counters c;
  for (const std::string& t : plan.tenant_names) c.io += svc.vm->io_stats(t).get();
  c.cache = svc.vm->cache_stats();
  c.net = svc.endpoint->server().stats();
  bsv::MetricsRegistry& m = svc.vm->metrics();
  c.wal_records = m.counter("backlog_wal_records_total", "").total();
  c.wal_syncs = m.counter("backlog_wal_syncs_total", "").total();
  c.maintenance_runs = m.counter("backlog_maintenance_runs_total", "").total();
  return c;
}

/// What the generator measured for one request.
struct Sample {
  Request::Kind kind;
  bool traced;
  DueTiming timing;
  std::uint64_t send_ns;  ///< call span: send to reply
};

}  // namespace

Result run_service_mix(const RunArgs& args) {
  Result result;
  MixOptions mo;
  mo.seed = args.seed;
  mo.tenants = args.params.u64("tenants");
  mo.hot_share = args.params.f64("hot_share");
  mo.offered_ops_per_s = args.params.f64("offered_ops_per_s");
  mo.seconds = args.seconds;
  mo.batch_ops = args.params.u64("batch_ops");
  mo.applies_per_query = args.params.u64("applies_per_query");
  mo.query_ranges = args.params.u64("query_ranges");
  mo.ops_per_cp = args.params.u64("ops_per_cp");
  mo.snapshot_every_ops = args.params.u64("snapshot_every_ops");
  mo.recent_window = args.params.u64("recent_window");
  mo.query_zipf_alpha = args.params.f64("query_zipf_alpha");
  const auto sample_every = static_cast<std::uint32_t>(args.params.u64("trace_sample_every"));
  const std::uint64_t window_ns = args.params.u64("trace_window_ms") * 1'000'000;
  const std::filesystem::path root = args.workdir / "service_mix-volumes";

  MixPlan plan;
  std::unique_ptr<Service> svc;
  std::uint64_t fp0 = 0;
  const double setup_s = timed_setups(args.params.u64("setup_reps"), [&](std::uint64_t r) {
    svc.reset();
    plan = make_mix_plan(mo);
    const std::uint64_t fp = fingerprint(plan.serialize());
    if (r == 0) fp0 = fp;
    if (fp != fp0) result.fail(0, "service_mix: one seed generated two different inputs");
    svc = start_service(args, plan, root);
  });
  const std::size_t conns = svc->clients.size();

  (void)svc->clients[0].poll_rates();  // primes the busy-fraction window
  const Counters before = read_counters(*svc, plan);
  reset_peak_rss();

  // Connection c serves tenants t with t % conns == c, in due order, so each
  // tenant's requests stay ordered on one connection.
  std::vector<std::vector<std::size_t>> mine(conns);
  for (std::size_t i = 0; i < plan.requests.size(); ++i)
    mine[plan.requests[i].tenant % conns].push_back(i);
  const auto traced_at = [&](std::uint64_t due) {
    return args.trace && (due / window_ns) % 2 == 1;
  };

  std::vector<std::vector<Sample>> samples(conns);
  std::vector<Tracer> tracers(conns, Tracer(args.trace));
  std::mutex fail_mu;
  const std::uint64_t start_ns = now_ns() + 20'000'000;

  // In a traced run the service's 1-in-N stage sampling is on during odd
  // windows only, like the benchmark's own spans.
  std::mutex ctl_mu;
  std::condition_variable ctl_cv;
  bool gen_done = false;
  std::thread control;
  if (args.trace) {
    control = std::thread([&] {
      std::unique_lock lock(ctl_mu);
      for (std::uint64_t w = 0; !gen_done; ++w) {
        const std::uint64_t at = start_ns + w * window_ns;
        const std::uint64_t now = now_ns();
        if (at > now && ctl_cv.wait_for(lock, std::chrono::nanoseconds(at - now),
                                        [&] { return gen_done; })) {
          break;
        }
        svc->vm->set_tracing(w % 2 == 1 ? sample_every : 0, 0);
      }
      svc->vm->set_tracing(0, 0);
    });
  }

  std::vector<std::thread> gens;
  for (std::size_t c = 0; c < conns; ++c) {
    gens.emplace_back([&, c] {
      bn::Client& client = svc->clients[c];
      std::vector<std::uint64_t> due;
      for (const std::size_t i : mine[c]) due.push_back(plan.requests[i].due_ns);
      std::vector<std::uint64_t> send_ns(due.size());
      const std::vector<DueTiming> timing = run_open_loop(due, start_ns, [&](std::size_t j) {
        const Request& r = plan.requests[mine[c][j]];
        const std::string& tenant = plan.tenant_names[r.tenant];
        const std::uint64_t t0 = now_ns();
        try {
          switch (r.kind) {
            case Request::Kind::kApply:
              client.apply_batch(tenant, r.ops);
              break;
            case Request::Kind::kQuery:
              if (client.query_batch(tenant, r.ranges).size() != r.ranges.size())
                throw std::runtime_error("query_batch answered the wrong number of ranges");
              break;
            case Request::Kind::kCp:
              (void)client.consistency_point(tenant);
              break;
            case Request::Kind::kSnapshot:
              (void)client.take_snapshot(tenant, r.line);
              break;
          }
        } catch (const std::exception& e) {
          const std::lock_guard lock(fail_mu);
          result.fail(std::max<std::size_t>(1, r.ops.size() + r.ranges.size()),
                      std::string("service_mix: ") + tenant + ": " + e.what());
        }
        const std::uint64_t t1 = now_ns();
        send_ns[j] = t1 - t0;
        if (traced_at(r.due_ns)) {
          static constexpr const char* kNames[] = {
              "net.client.apply_batch", "net.client.query_batch",
              "net.client.consistency_point", "net.client.take_snapshot"};
          tracers[c].record(kNames[static_cast<int>(r.kind)], t0, t1, mine[c][j]);
        }
      });
      for (std::size_t j = 0; j < timing.size(); ++j) {
        const Request& r = plan.requests[mine[c][j]];
        samples[c].push_back({r.kind, traced_at(r.due_ns), timing[j], send_ns[j]});
      }
    });
  }
  for (std::thread& g : gens) g.join();
  const std::uint64_t end_ns = now_ns();
  if (control.joinable()) {
    {
      const std::lock_guard lock(ctl_mu);
      gen_done = true;
    }
    ctl_cv.notify_all();
    control.join();
  }
  const double rss_mb = peak_rss_mb();
  const bsv::RateSample rates = svc->clients[0].poll_rates();
  const Counters after = read_counters(*svc, plan);
  const std::vector<bsv::TraceSpan> service_spans =
      args.trace ? svc->vm->trace_spans() : std::vector<bsv::TraceSpan>{};

  // Correctness, off the clock: after a final CP every tenant's live keys
  // must come back from scan_all, and the server saw no undecodable frame.
  svc->scheduler->stop();
  std::uint64_t run_file_bytes = 0, live_bytes = 0;
  for (std::size_t t = 0; t < plan.tenant_names.size(); ++t) {
    const std::string& tenant = plan.tenant_names[t];
    svc->vm->consistency_point(tenant).get();
    std::set<bc::BackrefKey> want(plan.live_keys[t].begin(), plan.live_keys[t].end());
    std::set<bc::BackrefKey> got;
    for (const bc::CombinedRecord& rec : svc->vm->scan_all(tenant).get()) {
      if (rec.to == bc::kInfinity) got.insert(rec.key);
    }
    if (got != want) {
      result.fail(want.size(), "service_mix: " + tenant + " live keys differ after the run (" +
                                   std::to_string(got.size()) + " vs " +
                                   std::to_string(want.size()) + ")");
    }
    // Space is measured compacted, so it does not depend on where the
    // background scheduler happened to be when the run ended.
    (void)svc->vm->maintain(tenant).get();
    run_file_bytes += svc->vm->db_stats(tenant).get().db_bytes;
    for (const bc::BackrefKey& k : want) live_bytes += k.length * 4096;
  }
  const std::uint64_t decode_errors = after.net.decode_errors - before.net.decode_errors;
  if (decode_errors != 0) result.fail(decode_errors, "service_mix: server decode errors");

  // Split the generator's samples by request kind and traced window.
  std::vector<double> apply_us, apply_traced_us, query_us, query_call_traced_us, late_us;
  std::uint64_t attempted = 0;
  for (const auto& per_conn : samples) {
    for (const Sample& s : per_conn) {
      const double lat = static_cast<double>(s.timing.latency_ns) * 1e-3;
      late_us.push_back(static_cast<double>(s.timing.late_ns) * 1e-3);
      if (s.kind == Request::Kind::kApply) {
        (s.traced ? apply_traced_us : apply_us).push_back(lat);
      } else if (s.kind == Request::Kind::kQuery) {
        if (!s.traced) query_us.push_back(lat);
        if (s.traced) query_call_traced_us.push_back(static_cast<double>(s.send_ns) * 1e-3);
      }
    }
  }
  for (const Request& r : plan.requests) attempted += std::max<std::size_t>(1, r.ops.size() + r.ranges.size());
  result.attempted = attempted;

  const double ops = static_cast<double>(plan.block_ops);
  const double served = ops / (static_cast<double>(end_ns - start_ns) * 1e-9);
  const backlog::storage::IoStats io = after.io - before.io;
  const double apply_p50 = percentile(apply_us, 0.5);
  JsonObject counts;
  counts.num("apply_batches", static_cast<double>(apply_us.size()))
      .num("query_batches", static_cast<double>(query_us.size()))
      .num("requests", static_cast<double>(plan.requests.size()));
  result.detail.obj("samples", counts)
      .str("op", "one 64-op apply_batch RPC, from the time it was due to its durable ack")
      .num("offered_ops_per_s", mo.offered_ops_per_s)
      .num("block_ops", ops)
      .num("block_cache_bytes", static_cast<double>(after.cache.block.capacity_bytes))
      .num("run_file_bytes_compacted", static_cast<double>(run_file_bytes))
      .num("live_data_bytes", static_cast<double>(live_bytes))
      .str("flush_policy", "WAL on: every apply acked after its group-commit fsync; "
                           "a CP per tenant every ops_per_cp ops")
      .str("input_fingerprint", std::to_string(fp0));

  if (!args.trace) {
    const double apply_p99 = percentile(apply_us, 0.99);
    const double space_pct =
        100.0 * static_cast<double>(run_file_bytes) / static_cast<double>(live_bytes);
    result.metric("setup_s", setup_s, "s");
    result.metric("op_us_p50", apply_p50, "us");
    result.metric("ops_per_s", served, "1/s");
    result.metric("io_pages_per_op", static_cast<double>(io.page_reads + io.page_writes) / ops,
                  "pages/op");
    result.metric("space_overhead_pct", space_pct, "%");
    result.metric("peak_rss_mb", rss_mb, "MB");

    const Quantile query_p99 = supported_tail(query_us, 0.99);
    JsonObject paper;
    paper.num("apply_ack_us_p50", apply_p50)
        .num("apply_ack_us_p99", apply_p99)
        .num("op_us_p90", percentile(apply_us, 0.9))
        .num("op_us_p99", apply_p99)
        .num("rpc_query_us_p50", percentile(query_us, 0.5))
        .num("rpc_query_us_p99", query_p99.value)
        .num("rpc_query_us_p99_quantile", query_p99.q)
        .num("served_ops_per_s", served)
        .num("failed_op_fraction",
             static_cast<double>(result.failed) / static_cast<double>(result.attempted));
    result.detail.obj("paper_metrics", paper);
  }

  if (args.trace) {
    bsv::MetricsRegistry& m = svc->vm->metrics();
    const bsv::LatencyHistogram queue = m.histogram("backlog_queue_wait_micros", "").merged();
    const bsv::LatencyHistogram update = m.histogram("backlog_update_batch_micros", "").merged();
    const bsv::LatencyHistogram query = m.histogram("backlog_query_micros", "").merged();
    const bsv::LatencyHistogram cp = m.histogram("backlog_cp_micros", "").merged();
    const Quantile queue_p99 = histogram_tail(queue, 0.99);
    const Quantile cp_p99 = histogram_tail(cp, 0.99);
    const Quantile maint_p99 = histogram_tail(svc->vm->stats().total.maintenance_micros, 0.99);
    const Quantile late_p99 = supported_tail(late_us, 0.99);

    // net overhead: client query_batch span vs the service's own span of
    // the same verb. Queries are used because an apply's service span ends
    // before its group-commit wait, which would land in "net" otherwise.
    std::vector<double> service_query_us;
    for (const bsv::TraceSpan& s : service_spans) {
      if (s.verb == bsv::TraceVerb::kQueryBatch)
        service_query_us.push_back(static_cast<double>(s.end_to_end_micros()));
    }
    const double net_us = percentile(query_call_traced_us, 0.5) - percentile(service_query_us, 0.5);
    const double queue_us = static_cast<double>(queue.p50());
    const double exec_us = static_cast<double>(update.p50());
    // The ledger's whole is the apply p50 of the traced windows, the same
    // stretch of the run its parts were measured in.
    const double whole_us = percentile(apply_traced_us, 0.5);
    const double unattributed = whole_us - (net_us + queue_us + exec_us);

    const std::uint64_t rc_hits = [&] {
      std::uint64_t h = 0;
      for (const auto& row : after.cache.tenants) h += row.result.hits;
      for (const auto& row : before.cache.tenants) h -= row.result.hits;
      return h;
    }();
    std::uint64_t rc_misses = 0, rc_stale = 0;
    for (const auto& row : after.cache.tenants) {
      rc_misses += row.result.misses;
      rc_stale += row.result.stale_hits;
    }
    for (const auto& row : before.cache.tenants) {
      rc_misses -= row.result.misses;
      rc_stale -= row.result.stale_hits;
    }
    const std::uint64_t bc_hits = after.cache.block.hits - before.cache.block.hits;
    const std::uint64_t bc_lookups = bc_hits + after.cache.block.misses - before.cache.block.misses;
    double busy = 0;
    for (const double b : rates.shard_busy_fraction) busy += b;
    if (!rates.shard_busy_fraction.empty()) busy /= static_cast<double>(rates.shard_busy_fraction.size());
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    result.metric("core.result_cache.hit_ratio",
                  ratio(static_cast<double>(rc_hits), static_cast<double>(rc_hits + rc_misses)),
                  "fraction");
    result.metric("core.result_cache.stale_fraction",
                  ratio(static_cast<double>(rc_stale), static_cast<double>(rc_misses)), "fraction");
    result.metric("storage.block_cache.hit_ratio",
                  ratio(static_cast<double>(bc_hits), static_cast<double>(bc_lookups)), "fraction");
    result.metric("storage.fsync_us_mean",
                  ratio(static_cast<double>(io.fsync_micros), static_cast<double>(io.fsyncs)), "us");
    result.metric("storage.fsyncs_per_kop", 1000.0 * static_cast<double>(io.fsyncs) / ops, "count");
    result.metric("service.queue_wait_us_p50", queue_us, "us");
    result.metric("service.queue_wait_us_p99", queue_p99.value, "us");
    result.metric("service.update_exec_us_p50", exec_us, "us");
    result.metric("service.query_exec_us_p50", static_cast<double>(query.p50()), "us");
    result.metric("service.cp_us_p99", cp_p99.value, "us");
    result.metric("service.wal_records_per_sync",
                  ratio(static_cast<double>(after.wal_records - before.wal_records),
                        static_cast<double>(after.wal_syncs - before.wal_syncs)),
                  "count");
    result.metric("service.shard_busy_fraction", busy, "fraction");
    result.metric("service.maintenance_runs",
                  static_cast<double>(after.maintenance_runs - before.maintenance_runs), "count");
    result.metric("service.maintenance_ms_p99", maint_p99.value * 1e-3, "ms");
    result.metric("service.unattributed_us_p50", unattributed, "us");
    result.metric("net.rpc_overhead_us_p50", net_us, "us");
    result.metric("net.bytes_per_op",
                  static_cast<double>(after.net.bytes_in + after.net.bytes_out -
                                      before.net.bytes_in - before.net.bytes_out) / ops,
                  "B/op");
    result.metric("net.decode_errors", static_cast<double>(decode_errors), "count");
    result.metric("gen.late_us_p99", late_p99.value, "us");
    result.metric("trace.overhead_pct",
                  100.0 * (percentile(apply_traced_us, 0.5) - apply_p50) / apply_p50, "%");

    // Ledger: net + queue + execute must not exceed the apply p50; medians
    // do not add exactly, so 5% over still passes.
    const bool ok = net_us + queue_us + exec_us <= whole_us * 1.05;
    JsonObject ledger, tails;
    ledger.num("whole_apply_ack_us_p50", whole_us)
        .num("untraced_apply_ack_us_p50", apply_p50)
        .num("net_rpc_overhead_us_p50", net_us)
        .num("service_queue_wait_us_p50", queue_us)
        .num("service_update_exec_us_p50", exec_us)
        .num("unattributed_us_p50", unattributed)
        .boolean("pass", ok);
    const auto tail = [](const Quantile& q) {
      return JsonObject().num("q", q.q).num("samples", static_cast<double>(q.samples));
    };
    tails.obj("service.queue_wait_us_p99", tail(queue_p99))
        .obj("service.cp_us_p99", tail(cp_p99))
        .obj("service.maintenance_ms_p99", tail(maint_p99))
        .obj("gen.late_us_p99", tail(late_p99));
    result.detail.obj("ledger_apply", ledger)
        .obj("ledger_tails", tails)
        .num("service_spans", static_cast<double>(service_spans.size()));
    if (!ok) result.fail(0, "service_mix ledger: apply parts exceed the whole");

    Tracer all(true);
    for (const Tracer& t : tracers) all.absorb(t);
    result.detail.num("spans_kept", static_cast<double>(all.spans().size()))
        .num("spans_dropped", static_cast<double>(all.dropped()));
    all.write(args.workdir.parent_path() / "spans" /
              ("service_mix-" + std::to_string(args.seed) + ".tsv"));
  }
  svc.reset();
  return result;
}

}  // namespace perfbench
