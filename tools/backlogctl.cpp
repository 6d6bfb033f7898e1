// backlogctl — command-line client of the Backlog volume service.
//
//   backlogctl info <dir>                  volume summary (CP, lines, runs)
//   backlogctl runs <dir>                  list run files with metadata
//   backlogctl query <dir> <block> [n]     masked owner query (the paper's
//                                          "tell me all the objects...")
//   backlogctl raw <dir> <block> [n]       unmasked joined records
//   backlogctl scan <dir>                  dump every joined record
//   backlogctl maintain <dir>              run database maintenance (§5.2)
//   backlogctl dump-run <dir> <file>       decode one run file's records
//   backlogctl stress <dir> <tenants> <ops> [shards] [--batch N]
//                      replay a synthetic trace into <tenants> volumes, ~<ops>
//                      block ops in total, one connection per tenant, in
//                      apply_batch chunks of N ops (default 64); report
//                      throughput and the merged stats
//   backlogctl snap <root> <tenant> [line]
//                      take + commit a snapshot of the line (default 0)
//   backlogctl clone <root> <src> <dst> [line [version]]
//                      clone src's snapshot (default: the latest of line 0)
//                      as writable tenant <dst>; run files are hard-linked
//                      and refcounted, and the shared bytes are reported
//   backlogctl destroy <root> <tenant> [shards]
//                      delete the volume, releasing shared files through the
//                      refcount manifest (files a clone still holds survive)
//   backlogctl migrate <root> <tenant> <target-shard> [shards]
//                      live-migrate the tenant to another shard
//   backlogctl qos <root> <tenant> <ops-per-sec> <bytes-per-sec> [ops]
//                      drive [ops] single-op updates under that TenantQos
//                      (0 = unlimited); report admission counters
//   backlogctl balance <root> <shards> [cycles]
//                      pulse a synthetic load through every volume and run
//                      the balancer for [cycles] cycles; print the moves
//   backlogctl stats <root> [shards] [--json]
//                      the merged ServiceStats (table, or one JSON object)
//   backlogctl cache [clear] <root> [shards] [--json]
//                      the shared block cache's and each volume's result
//                      cache's counters; `clear` first drops every cached page
//                      and result (the paper's cold-cache lever; no --json)
//   backlogctl metrics <root> [shards] [--prom|--json] [--watch N]
//                      pulse a synthetic load and print the metrics registry
//                      (Prometheus by default); --watch N first prints one
//                      rate line per polled window
//   backlogctl trace <root> <tenants> <ops> [shards] [--sample N] [--slow-us N]
//                      stress-style run with per-op tracing (1-in-N sampling,
//                      default 1); dump the newest spans and the slow-op log
//   backlogctl --connect host:port [--wait-ms N] <cmd> [args]
//                      run the subcommand against a live backlogd instead
//
// Every verb is implemented once, as a client of the wire protocol
// (src/net/client.hpp). With --connect the client dials a backlogd;
// otherwise this process starts the same service itself — a
// net::ServiceHost, reached through an AF_UNIX socketpair, no port bound —
// so both modes run the production framing, handlers and renderers, and
// print the same bytes.
//
// Locally, service verbs host <root> with every committed volume under it,
// sized by [shards] (default 1; 4 for stress and migrate, 2 for trace).
// Volume verbs host <dir>'s parent as the service root and open only <dir>.
// A mutation is durable when the command returns: the host's WAL fsyncs every
// batch before acknowledging it.
//
// Remotely, volume verbs take the *tenant name* where the local form takes
// a directory; service verbs keep their <root> positional for symmetry but
// operate on the daemon's root, and [shards] is the daemon's. --wait-ms N
// retries refused connects for N ms, so a script can race the daemon's
// startup safely.
//
// Malformed invocations (wrong arity, non-numeric or out-of-range
// arguments) print usage and exit 2 before any disk or network access;
// runtime failures exit 1.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fsim/multi_tenant.hpp"
#include "net/client.hpp"
#include "net/handlers.hpp"

using namespace backlog;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: backlogctl <info|runs|query|raw|scan|maintain|dump-run|"
               "stress|snap|clone|destroy|migrate|qos|balance|stats|cache|"
               "metrics|trace> <dir> [args]\n"
               "       backlogctl query|raw <dir> <block> [count]\n"
               "       backlogctl dump-run <dir> <file>\n"
               "       backlogctl stress <dir> <tenants> <ops> [shards] [--batch N]\n"
               "       backlogctl snap <root> <tenant> [line]\n"
               "       backlogctl clone <root> <src> <dst> [line [version]]\n"
               "       backlogctl destroy <root> <tenant> [shards]\n"
               "       backlogctl migrate <root> <tenant> <target-shard> "
               "[shards]\n"
               "       backlogctl qos <root> <tenant> <ops-per-sec> "
               "<bytes-per-sec> [ops]\n"
               "       backlogctl balance <root> <shards> [cycles]\n"
               "       backlogctl stats <root> [shards] [--json]\n"
               "       backlogctl cache <root> [shards] [--json]\n"
               "       backlogctl cache clear <root> [shards]\n"
               "       backlogctl metrics <root> [shards] [--prom|--json] "
               "[--watch N]\n"
               "       backlogctl trace <root> <tenants> <ops> [shards] "
               "[--sample N] [--slow-us N]\n"
               "       backlogctl --connect host:port [--wait-ms N] <cmd> "
               "[args]\n"
               "                  (volume commands take the tenant name; "
               "--wait-ms retries\n"
               "                  refused connects for N ms — races daemon "
               "startup safely)\n");
  return 2;
}

/// Strict numeric parse: the whole argument must be a decimal/hex number in
/// [min, max]. Malformed arguments are a usage error, not silently 0 (which
/// strtoull alone would give for "abc").
bool parse_u64(const char* arg, std::uint64_t& out,
               std::uint64_t min_value = 0,
               std::uint64_t max_value = UINT64_MAX) {
  if (arg == nullptr || *arg == '\0' || *arg == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 0);
  if (errno != 0 || end == arg || *end != '\0') return false;
  if (v < min_value || v > max_value) return false;
  out = v;
  return true;
}

bool is_volume_verb(const std::string& cmd) {
  return cmd == "info" || cmd == "runs" || cmd == "scan" ||
         cmd == "maintain" || cmd == "query" || cmd == "raw" ||
         cmd == "dump-run";
}

/// One validated invocation. `where` is argv's first positional: <dir> or
/// <root> locally; remotely the tenant of a volume verb, else ignored.
struct Args {
  std::string cmd;
  std::string where;
  std::string tenant;  ///< snap/destroy/migrate/qos tenant, clone source
  std::string dst;     ///< clone destination
  std::string file;    ///< dump-run file
  std::uint64_t shards = 1, block = 0, count = 1, line = 0, version = 0,
                target = 0, ops_rate = 0, bytes_rate = 0, ops = 2000,
                tenants = 0, batch = 0, cycles = 3, watch = 0, sample = 1,
                slow_us = 1000;
  bool json = false;
  bool clear = false;
};

/// argv[1] is the verb. Checks arity and every argument's range; false is a
/// usage error. `remote` only relaxes migrate's target check: the daemon's
/// shard count rules there (an out-of-range target is its kBadRequest).
bool parse(int argc, char** argv, bool remote, Args& a) {
  if (argc < 3) return false;
  a.cmd = argv[1];
  a.where = argv[2];
  const std::string& cmd = a.cmd;
  if (cmd == "stress") {
    int end = argc;
    if (argc >= 7 && std::strcmp(argv[argc - 2], "--batch") == 0) {
      if (!parse_u64(argv[argc - 1], a.batch, 1, 1 << 20)) return false;
      end = argc - 2;
    }
    a.shards = 4;
    return end >= 5 && end <= 6 && parse_u64(argv[3], a.tenants, 1, 1 << 16) &&
           parse_u64(argv[4], a.ops, 1) &&
           (end == 5 || parse_u64(argv[5], a.shards, 1, 1024));
  }
  if (cmd == "snap") {
    if (argc < 4 || argc > 5) return false;
    a.tenant = argv[3];
    return argc == 4 || parse_u64(argv[4], a.line);
  }
  if (cmd == "clone") {
    if (argc < 5 || argc > 7) return false;
    a.tenant = argv[3];
    a.dst = argv[4];
    return (argc <= 5 || parse_u64(argv[5], a.line)) &&
           (argc <= 6 || parse_u64(argv[6], a.version));
  }
  if (cmd == "destroy") {
    if (argc < 4 || argc > 5) return false;
    a.tenant = argv[3];
    return argc == 4 || parse_u64(argv[4], a.shards, 1, 1024);
  }
  if (cmd == "migrate") {
    if (argc < 5 || argc > 6) return false;
    a.tenant = argv[3];
    a.shards = 4;
    if (!parse_u64(argv[4], a.target) ||
        (argc > 5 && !parse_u64(argv[5], a.shards, 1, 1024))) {
      return false;
    }
    return remote || a.target < a.shards;
  }
  if (cmd == "qos") {
    if (argc < 6 || argc > 7) return false;
    a.tenant = argv[3];
    return parse_u64(argv[4], a.ops_rate) && parse_u64(argv[5], a.bytes_rate) &&
           (argc == 6 || parse_u64(argv[6], a.ops, 1));
  }
  if (cmd == "balance") {
    return argc >= 4 && argc <= 5 && parse_u64(argv[3], a.shards, 1, 1024) &&
           (argc == 4 || parse_u64(argv[4], a.cycles, 1, 1 << 20));
  }
  if (cmd == "stats" || cmd == "cache" || cmd == "metrics") {
    // <root> [shards] plus this verb's flags, each at most once; `cache
    // clear` takes its <root> one slot later and no --json.
    a.clear = cmd == "cache" && std::strcmp(argv[2], "clear") == 0;
    const int root_at = a.clear ? 3 : 2;
    if (argc <= root_at) return false;
    a.where = argv[root_at];
    bool prom = false, have_shards = false;
    for (int i = root_at + 1; i < argc; ++i) {
      if (!a.clear && std::strcmp(argv[i], "--json") == 0 && !a.json &&
          !prom) {
        a.json = true;
      } else if (cmd == "metrics" && std::strcmp(argv[i], "--prom") == 0 &&
                 !a.json && !prom) {
        prom = true;  // the default exposition; the flag only excludes --json
      } else if (cmd == "metrics" && std::strcmp(argv[i], "--watch") == 0 &&
                 a.watch == 0 && i + 1 < argc) {
        if (!parse_u64(argv[++i], a.watch, 1, 1 << 20)) return false;
      } else if (!have_shards && parse_u64(argv[i], a.shards, 1, 1024)) {
        have_shards = true;
      } else {
        return false;
      }
    }
    return true;
  }
  if (cmd == "trace") {
    a.shards = 2;
    if (argc < 5 || !parse_u64(argv[3], a.tenants, 1, 1 << 16) ||
        !parse_u64(argv[4], a.ops, 1)) {
      return false;
    }
    bool have_shards = false;
    for (int i = 5; i < argc; ++i) {
      if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
        if (!parse_u64(argv[++i], a.sample, 1, 1u << 30)) return false;
      } else if (std::strcmp(argv[i], "--slow-us") == 0 && i + 1 < argc) {
        if (!parse_u64(argv[++i], a.slow_us, 1)) return false;
      } else if (!have_shards && parse_u64(argv[i], a.shards, 1, 1024)) {
        have_shards = true;
      } else {
        return false;
      }
    }
    return true;
  }
  if (cmd == "query" || cmd == "raw") {
    return argc >= 4 && argc <= 5 && parse_u64(argv[3], a.block) &&
           (argc == 4 || parse_u64(argv[4], a.count, 1));
  }
  if (cmd == "dump-run") {
    if (argc != 4) return false;
    a.file = argv[3];
    return true;
  }
  return is_volume_verb(cmd) && argc == 3;
}

/// Where a verb's connections go: a backlogd (--connect), or a ServiceHost
/// started in this process.
struct Target {
  std::string host;
  std::uint16_t port = 0;
  net::Client::ConnectOptions connect_opts;
  std::unique_ptr<net::ServiceHost> local;
  std::string name;  ///< names the service in reports and errors

  /// Thread-safe: stress opens one connection per tenant thread.
  net::Client connect() const {
    if (local) return local->connect();
    net::Client c;
    c.connect(host, port, connect_opts);
    return c;
  }
};

std::string stress_tenant_name(std::uint64_t i) {
  char name[32];
  std::snprintf(name, sizeof name, "tenant-%03llu",
                static_cast<unsigned long long>(i));
  return name;
}

/// Replays tenant i's synthetic trace through `c` in `chunk`-op batches,
/// with a small owner query after every 64 ops. Returns the ops applied.
std::uint64_t replay_tenant(net::Client& c, std::uint64_t i,
                            std::uint64_t ops, std::uint64_t chunk) {
  const std::string name = stress_tenant_name(i);
  c.open_volume(name);
  fsim::TenantTraceOptions to;
  to.block_ops = ops;
  to.seed = 42 + i;
  const fsim::TenantTrace trace = fsim::synthesize_tenant_trace(to);
  std::vector<service::UpdateOp> pending;
  pending.reserve(chunk);
  std::uint64_t done = 0, since_query = 0;
  for (const auto& op : trace.ops) {
    pending.push_back(op);
    if (pending.size() < chunk) continue;
    c.apply_batch(name, pending);
    done += pending.size();
    since_query += pending.size();
    pending.clear();
    if (since_query >= 64) {
      since_query = 0;
      service::QueryRange qr;
      qr.first = op.key.block;
      qr.count = 8;
      c.query_batch(name, {qr});
    }
  }
  if (!pending.empty()) {
    c.apply_batch(name, pending);
    done += pending.size();
  }
  return done;
}

int run_stress(const Target& t, const Args& a) {
  // The data plane speaks apply_batch; --batch sizes the chunks (a per-op
  // round trip would measure nothing but latency).
  const std::uint64_t chunk = std::min<std::uint64_t>(
      a.batch == 0 ? 64 : a.batch, net::wire::kMaxBatchOps);
  const std::uint64_t per_tenant =
      std::max<std::uint64_t>(1, a.ops / a.tenants);

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> ops_done(a.tenants, 0);
  std::vector<std::string> errors(a.tenants);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < a.tenants; ++i) {
    threads.emplace_back([&, i] {
      try {
        net::Client c = t.connect();  // Client is not thread-safe
        ops_done[i] = replay_tenant(c, i, per_tenant, chunk);
        c.consistency_point(stress_tenant_name(i));
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (std::uint64_t i = 0; i < a.tenants; ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "backlogctl: %s: %s\n",
                   stress_tenant_name(i).c_str(), errors[i].c_str());
      return 1;
    }
  }
  std::uint64_t ops = 0;
  for (const std::uint64_t n : ops_done) ops += n;
  std::printf("service:           %s\n", t.name.c_str());
  std::printf("tenants:           %llu (one connection each)\n",
              static_cast<unsigned long long>(a.tenants));
  std::printf("update verb:       apply_batch (%llu-op chunks)\n",
              static_cast<unsigned long long>(chunk));
  std::printf("block ops:         %" PRIu64 " in %.2f s (%.0f ops/s)\n", ops,
              wall, wall > 0 ? ops / wall : 0.0);
  std::fputs(t.connect().stats_text(false).c_str(), stdout);
  return 0;
}

int run_trace(net::Client& c, const Args& a) {
  c.set_tracing(static_cast<std::uint32_t>(a.sample), a.slow_us);
  const std::uint64_t per_tenant =
      std::max<std::uint64_t>(1, a.ops / a.tenants);
  for (std::uint64_t i = 0; i < a.tenants; ++i) {
    replay_tenant(c, i, per_tenant, 64);
  }
  std::fputs(c.trace_text(a.sample, a.slow_us).c_str(), stdout);
  return 0;
}

int run_snap(net::Client& c, const Args& a) {
  c.open_volume(a.tenant);
  const core::Epoch version = c.take_snapshot(a.tenant, a.line);
  std::printf("retained snapshot (line %" PRIu64 ", v%" PRIu64 ") of %s\n",
              a.line, version, a.tenant.c_str());
  return 0;
}

int run_clone(net::Client& c, const Args& a) {
  c.open_volume(a.tenant);
  core::Epoch version = a.version;
  if (version == 0) {  // default: the latest retained snapshot of the line
    const auto versions = c.list_versions(a.tenant, a.line);
    if (versions.empty()) {
      std::fprintf(stderr,
                   "backlogctl: %s line %" PRIu64
                   " has no retained snapshot (run `backlogctl snap` first)\n",
                   a.tenant.c_str(), a.line);
      return 1;
    }
    version = versions.back();
  }
  const auto res = c.clone_volume(a.tenant, a.dst, a.line, version);
  std::printf("cloned %s snapshot (line %" PRIu64 ", v%" PRIu64
              ") -> tenant %s, writable line %" PRIu64 "\n",
              a.tenant.c_str(), a.line, version, a.dst.c_str(), res.new_line);
  std::printf("copy-on-write: %" PRIu64 " shared files, %" PRIu64
              " shared bytes (%.2f MB stored once instead of per clone)\n",
              res.shared_files, res.shared_bytes,
              res.saved_bytes / (1024.0 * 1024.0));
  return 0;
}

int run_destroy(net::Client& c, const Target& t, const Args& a) {
  // Never open_volume first: that would create a typo'd tenant just to
  // report it destroyed.
  try {
    c.destroy_volume(a.tenant);
  } catch (const service::ServiceError& e) {
    if (e.code() != service::ErrorCode::kNoSuchTenant) throw;
    std::fprintf(stderr, "backlogctl: no volume '%s' hosted by %s\n",
                 a.tenant.c_str(), t.name.c_str());
    return 1;
  }
  std::printf("destroyed %s\n", a.tenant.c_str());
  return 0;
}

int run_migrate(net::Client& c, const Args& a) {
  c.open_volume(a.tenant);
  const core::QuickStats before = c.quick_stats(a.tenant);
  const service::MigrationStats ms = c.migrate_volume(a.tenant, a.target);
  if (!ms.moved) {
    std::printf("%s already lives on shard %zu — nothing to do\n",
                a.tenant.c_str(), ms.source_shard);
  } else {
    std::printf("migrated %s: shard %zu -> %zu (%s, %zu racing ops replayed)\n",
                a.tenant.c_str(), ms.source_shard, ms.target_shard,
                ms.forced_cp ? "flushed a consistency point"
                             : "write store empty",
                ms.replayed_tasks);
  }
  const core::QuickStats after = c.quick_stats(a.tenant);
  std::printf("write store: %" PRIu64 " -> %" PRIu64 " entries, run records: %"
              PRIu64 " -> %" PRIu64 "\n",
              before.ws_entries, after.ws_entries, before.run_records,
              after.run_records);
  return 0;
}

int run_qos(net::Client& c, const Args& a) {
  c.open_volume(a.tenant);
  service::TenantQos qos;
  qos.ops_per_sec = a.ops_rate == 0 ? service::kUnlimitedRate
                                    : static_cast<double>(a.ops_rate);
  qos.bytes_per_sec = a.bytes_rate == 0 ? service::kUnlimitedRate
                                        : static_cast<double>(a.bytes_rate);
  qos.burst_ops = 256;
  qos.burst_bytes = 1 << 20;
  qos.max_wait_queue = 1 << 16;
  c.set_qos(a.tenant, qos);
  std::printf("qos on %s: %s ops/s, %s bytes/s (burst %g ops / %g bytes)\n",
              a.tenant.c_str(),
              a.ops_rate == 0 ? "unlimited"
                              : std::to_string(a.ops_rate).c_str(),
              a.bytes_rate == 0 ? "unlimited"
                                : std::to_string(a.bytes_rate).c_str(),
              qos.burst_ops, qos.burst_bytes);

  // One op per request, synchronously: a throttled op comes back as a
  // kThrottled ServiceError.
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < a.ops; ++i) {
    service::UpdateOp op;
    op.kind = service::UpdateOp::Kind::kAdd;
    op.key.block = 1 + i;
    op.key.inode = 2;
    op.key.length = 1;
    try {
      c.apply_batch(a.tenant, {op});
    } catch (const service::ServiceError& e) {
      if (e.code() != service::ErrorCode::kThrottled) throw;
      ++rejected;
    }
  }
  c.consistency_point(a.tenant);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const service::QosSnapshot snap = c.qos_snapshot(a.tenant);
  std::printf("drove %" PRIu64 " ops in %.2f s (%.0f ops/s effective)\n",
              a.ops, wall,
              wall > 0 ? static_cast<double>(a.ops - rejected) / wall : 0);
  std::printf("admission: %" PRIu64 " direct, %" PRIu64 " waited, %" PRIu64
              " released, %" PRIu64 " rejected (kThrottled)\n",
              snap.admitted, snap.queued, snap.released, snap.rejected);
  return 0;
}

/// One `metrics --watch` rate line. A sample with primed=false has no
/// previous poll to difference against — its zeros are "unknown", not
/// "idle" — so it is labeled instead of printed as rates.
void print_rate_window(const service::RateSample& s) {
  if (!s.primed) {
    std::printf("window %.3fs: priming (no previous sample yet)\n",
                s.window_seconds);
    return;
  }
  double busy = 0;
  for (const double b : s.shard_busy_fraction) busy = std::max(busy, b);
  std::printf("window %.3fs: %.0f update ops/s, %.0f queries/s, "
              "%.0f throttles/s, max shard busy %.1f%%\n",
              s.window_seconds, s.update_ops_per_sec, s.queries_per_sec,
              s.throttles_per_sec, 100.0 * busy);
}

int run_metrics(net::Client& c, const Target& t, const Args& a) {
  const std::vector<std::string> tenants = c.list_tenants();
  if (tenants.empty()) {
    std::fprintf(stderr, "backlogctl: no volumes hosted by %s\n",
                 t.name.c_str());
    return 1;
  }
  core::BlockNo probe = 1ull << 40;
  const auto pulse = [&] {
    for (const auto& tenant : tenants) {
      c.apply_batch(tenant, net::annihilating_pulse(probe));
    }
  };
  pulse();
  // The service's poller may never have been polled: its priming sample is
  // labeled, not misread as an idle service.
  const service::RateSample first = c.poll_rates();
  if (a.watch > 0 && !first.primed) print_rate_window(first);
  for (std::uint64_t w = 0; w < std::max<std::uint64_t>(1, a.watch); ++w) {
    pulse();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const service::RateSample s = c.poll_rates();
    if (a.watch > 0) print_rate_window(s);
  }
  std::fputs(c.metrics_text(a.json).c_str(), stdout);
  return 0;
}

std::string volume_report(net::Client& c, const Args& a) {
  const std::string& tenant = a.where;
  if (a.cmd == "info") return c.info_text(tenant);
  if (a.cmd == "runs") return c.runs_text(tenant);
  if (a.cmd == "scan") return c.scan_text(tenant);
  if (a.cmd == "maintain") return c.maintain_text(tenant);
  if (a.cmd == "dump-run") return c.dump_run_text(tenant, a.file);
  return c.query_text(tenant, a.block, a.count, a.cmd == "raw");
}

int run(const Target& t, const Args& a) {
  if (a.cmd == "stress") return run_stress(t, a);
  net::Client c = t.connect();
  if (a.cmd == "trace") return run_trace(c, a);
  if (a.cmd == "snap") return run_snap(c, a);
  if (a.cmd == "clone") return run_clone(c, a);
  if (a.cmd == "destroy") return run_destroy(c, t, a);
  if (a.cmd == "migrate") return run_migrate(c, a);
  if (a.cmd == "qos") return run_qos(c, a);
  if (a.cmd == "metrics") return run_metrics(c, t, a);
  std::string out;
  if (a.cmd == "balance") {
    out = c.balance_text(a.cycles);
  } else if (a.cmd == "stats") {
    out = c.stats_text(a.json);
  } else if (a.cmd == "cache") {
    if (a.clear) {
      c.cache_clear();
      out = "caches cleared\n";
    }
    out += c.cache_text(a.json);
  } else {
    out = volume_report(c, a);
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Target target;
  const bool remote = argc >= 2 && std::strcmp(argv[1], "--connect") == 0;
  if (remote) {
    // --connect host:port [--wait-ms N] <cmd> [args] — shift past the flags
    // so the parser sees the same argv layout as the local form.
    if (argc < 4 ||
        !net::parse_host_port(argv[2], target.host, target.port)) {
      return usage();
    }
    int shift = 2;
    if (argc >= 5 && std::strcmp(argv[3], "--wait-ms") == 0) {
      std::uint64_t wait_ms = 0;
      if (argc < 6 || !parse_u64(argv[4], wait_ms, 0, 10 * 60 * 1000))
        return usage();
      target.connect_opts.retry_for_ms = static_cast<std::uint32_t>(wait_ms);
      shift = 4;
    }
    argc -= shift;
    argv += shift;
    target.name = target.host + ":" + std::to_string(target.port);
  }
  Args a;
  if (!parse(argc, argv, remote, a)) return usage();
  try {
    if (!remote) {
      std::filesystem::path root = a.where;
      std::string only;
      if (is_volume_verb(a.cmd)) {
        // <dir> names the volume; its parent is the service root.
        std::filesystem::path dir =
            std::filesystem::absolute(root).lexically_normal();
        if (!dir.has_filename()) dir = dir.parent_path();
        only = dir.filename().string();
        root = dir.parent_path();
        a.where = only;
      }
      target.name = root.string() + " (in process)";
      target.local = std::make_unique<net::ServiceHost>(
          root, static_cast<std::size_t>(a.shards), 0, only);
    }
    const int rc = run(target, a);
    if (target.local) target.local->stop();  // surface flush errors
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "backlogctl: %s\n", e.what());
    return 1;
  }
}
