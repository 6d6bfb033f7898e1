// backref_query: the query path (§4.2, Fig. 9). Set-up ages a volume with
// the fs_age generator under another seed, maintains it once and leaves a
// stack of Level-0 runs after that; the timed phase is a single-thread
// closed loop of masked, expanded BacklogDb::query calls through a block
// cache a quarter the size of the run files. No updates run, and queries
// almost never repeat, so the result cache is bypassed here.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "core/backlog_db.hpp"
#include "fsim/fsim.hpp"
#include "fsim/workload.hpp"
#include "service/volume_manager.hpp"
#include "storage/block_cache.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;

std::vector<QueryRun> make_query_runs(std::uint64_t seed, std::uint64_t queries,
                                      const std::vector<bc::BlockNo>& allocated,
                                      bc::BlockNo max_block) {
  if (allocated.empty()) throw std::invalid_argument("make_query_runs: no blocks");
  backlog::util::Rng rng(seed);
  std::vector<QueryRun> runs;
  std::uint64_t issued = 0;
  while (issued < queries) {
    // One round: each run length gets 256 queries.
    std::vector<std::uint32_t> lengths;
    for (const std::uint32_t len : {1u, 16u, 256u}) lengths.insert(lengths.end(), 256 / len, len);
    for (std::size_t i = lengths.size(); i > 1; --i)
      std::swap(lengths[i - 1], lengths[rng.below(i)]);
    for (const std::uint32_t len : lengths) {
      bc::BlockNo first = allocated[rng.below(allocated.size())];
      if (first + len > max_block) first = max_block > len ? max_block - len : 1;
      runs.push_back({first, len});
      issued += len;
    }
  }
  return runs;
}

namespace {

using Tuples = std::vector<bf::RefTuple>;

/// The aged volume, its query plan and the expected answers of the sample.
struct Volume {
  std::vector<bc::BlockNo> queries;  ///< flattened runs
  std::vector<Tuples> expected;      ///< answers of queries[k * sample_every]
  std::uint64_t data_bytes = 0;
  std::uint64_t run_file_bytes = 0;
  std::unique_ptr<bs::Env> env;
  std::unique_ptr<bs::BlockCache> cache;
  std::unique_ptr<bc::BacklogDb> db;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    std::vector<std::uint8_t> out;
    put64(out, data_bytes);
    put64(out, run_file_bytes);
    for (const bc::BlockNo b : queries) put64(out, b);
    for (const Tuples& t : expected) {
      put64(out, t.size());
      for (const auto& [block, inode, offset, line, version] : t) {
        put64(out, block);
        put64(out, inode);
        put64(out, offset);
        put64(out, line);
        put64(out, version);
      }
    }
    return out;
  }
};

Volume build_volume(const RunArgs& args, const std::filesystem::path& dir) {
  const std::uint64_t age_cps = args.params.u64("age_cps");
  const std::uint64_t maintain_at = args.params.u64("maintain_at_cp");
  const std::uint64_t ops_per_cp = args.params.u64("ops_per_cp");
  const std::uint64_t queries = args.params.u64("queries");
  const std::uint64_t sample_every = args.params.u64("sample_every");
  const std::uint64_t seed = args.seed * 2654435761u + 17;  // not fs_age's seed

  Volume vol;
  std::filesystem::remove_all(dir);
  {
    bs::Env env(dir);
    env.set_sync(false);
    bf::FileSystem fs(env, paper_fsim_options(seed, ops_per_cp), paper_db_options(ops_per_cp));
    bf::WorkloadOptions wl;
    wl.seed = seed * 7919 + 1;
    bf::WorkloadGenerator gen(fs, 0, wl);
    // Fig. 9's aging: the fs_age op mix and snapshot policy, no clone churn
    // (one clone head deletion can double a seed's run-file bytes). The
    // scheduler runs just before each CP, as in fs_age.
    bf::SnapshotScheduler snaps(fs, 0, bf::SnapshotPolicy{});
    for (std::uint64_t cp = 1; cp <= age_cps; ++cp) {
      gen.run_block_writes(ops_per_cp);
      snaps.on_cp(cp);
      fs.consistency_point();
      if (cp == maintain_at) fs.db().maintain();
    }

    std::vector<bc::BlockNo> allocated;
    for (bc::BlockNo b = 1; b < fs.max_block(); ++b) {
      if (fs.block_allocated(b)) allocated.push_back(b);
    }
    for (const QueryRun& r : make_query_runs(seed, queries, allocated, fs.max_block())) {
      for (std::uint32_t i = 0; i < r.length; ++i) vol.queries.push_back(r.first + i);
    }
    const std::set<bf::RefTuple> truth = bf::ground_truth_refs(fs);
    for (std::size_t k = 0; k < vol.queries.size(); k += sample_every) {
      const bc::BlockNo b = vol.queries[k];
      vol.expected.emplace_back(truth.lower_bound({b, 0, 0, 0, 0}),
                                truth.lower_bound({b + 1, 0, 0, 0, 0}));
    }
    vol.data_bytes = fs.stats().data_bytes();
    vol.run_file_bytes = fs.db().stats().db_bytes;
  }

  // Reopen the aged volume reading through a cache the benchmark owns,
  // sized to a quarter of the run files so the working set does not fit.
  vol.env = std::make_unique<bs::Env>(dir);
  vol.env->set_sync(false);
  vol.cache = std::make_unique<bs::BlockCache>(vol.run_file_bytes / 4);
  bc::BacklogOptions opts = paper_db_options(ops_per_cp);
  opts.shared_cache = vol.cache.get();
  opts.result_cache_entries = backlog::service::CacheOptions{}.result_cache_entries;
  vol.db = std::make_unique<bc::BacklogDb>(*vol.env, opts);
  return vol;
}

/// Counters and timings of one side (traced or untraced) of the loop.
struct Side {
  std::vector<double> latency_ns;
  std::vector<double> self_ns;
  std::uint64_t wall_ns = 0;
  bs::IoStats io{};
  std::uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
};

}  // namespace

Result run_backref_query(const RunArgs& args) {
  Result result;
  const std::uint64_t sample_every = args.params.u64("sample_every");
  const std::filesystem::path dir = args.workdir / "backref_query-volume";

  Volume vol;
  std::uint64_t fp0 = 0;
  const double setup_s = timed_setups(args.params.u64("setup_reps"), [&](std::uint64_t r) {
    vol.db.reset();  // close the previous repetition's volume, db first
    vol.cache.reset();
    vol.env.reset();
    vol = build_volume(args, dir);
    const std::uint64_t fp = fingerprint(vol.serialize());
    if (r == 0) fp0 = fp;
    if (fp != fp0) result.fail(0, "backref_query: one seed generated two different inputs");
  });

  bc::BacklogDb& db = *vol.db;
  bs::Env& env = *vol.env;
  const std::uint64_t l0_runs = db.quick_stats().l0_runs();
  const bc::QueryOptions qopts{.expand = true, .mask = true};

  // Alternate blocks of queries between untraced and (in a traced run)
  // traced; the sampled answers are kept and checked after the clock stops.
  constexpr std::size_t kBlock = 1024;
  Tracer spans(args.trace);
  Side untraced, traced;
  std::vector<std::pair<std::size_t, std::vector<bc::BackrefEntry>>> kept;
  const bc::ResultCacheStats rc0 = db.result_cache_stats();
  reset_peak_rss();
  const std::uint64_t t_start = now_ns();
  std::uint64_t issued = 0;
  for (std::uint64_t block = 0;; ++block) {
    const bool trace_this = args.trace && block % 2 == 1;
    Side& side = trace_this ? traced : untraced;
    const bs::IoStats io0 = env.stats();
    const bs::BlockCacheStats c0 = vol.cache->stats();
    const std::uint64_t b0 = now_ns();
    for (std::size_t i = 0; i < kBlock; ++i, ++issued) {
      const std::size_t k = issued % vol.queries.size();
      const std::uint64_t io_before = trace_this ? env.stats().io_micros : 0;
      const std::uint64_t t0 = now_ns();
      std::vector<bc::BackrefEntry> answer = db.query(vol.queries[k], 1, qopts);
      const std::uint64_t t1 = now_ns();
      side.latency_ns.push_back(static_cast<double>(t1 - t0));
      if (trace_this) {
        const std::uint64_t io_ns = (env.stats().io_micros - io_before) * 1000;
        side.self_ns.push_back(static_cast<double>(t1 - t0) - static_cast<double>(io_ns));
        const std::uint32_t id = spans.record("core.query", t0, t1, issued);
        spans.record("storage.io", t0, t0 + io_ns, issued, id);
      }
      if (issued == k && k % sample_every == 0) kept.emplace_back(k, std::move(answer));
    }
    side.wall_ns += now_ns() - b0;
    side.io += env.stats() - io0;
    const bs::BlockCacheStats c1 = vol.cache->stats();
    side.cache_hits += c1.hits - c0.hits;
    side.cache_misses += c1.misses - c0.misses;
    side.evictions += c1.evictions - c0.evictions;
    const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    if (elapsed >= args.seconds && (!args.trace || !traced.latency_ns.empty())) break;
  }
  const bc::ResultCacheStats rc1 = db.result_cache_stats();
  const double rss_mb = peak_rss_mb();

  result.attempted = issued;
  for (const auto& [k, answer] : kept) {
    if (answer_tuples(answer) != vol.expected[k / sample_every]) {
      result.fail(1, "backref_query: answer for block " + std::to_string(vol.queries[k]) +
                         " differs from ground truth");
    }
  }

  const double n = static_cast<double>(untraced.latency_ns.size());
  std::vector<double> us;
  for (const double ns : untraced.latency_ns) us.push_back(ns * 1e-3);
  const double qps = n / (static_cast<double>(untraced.wall_ns) * 1e-9);
  const double p99 = percentile(us, 0.99);
  const double space_pct =
      100.0 * static_cast<double>(vol.run_file_bytes) / static_cast<double>(vol.data_bytes);
  result.metric("setup_s", setup_s, "s");
  result.metric("op_us_p50", percentile(us, 0.5), "us");
  result.metric("ops_per_s", qps, "1/s");
  result.metric("io_pages_per_op",
                static_cast<double>(untraced.io.page_reads + untraced.io.page_writes) / n,
                "pages/op");
  result.metric("space_overhead_pct", space_pct, "%");
  result.metric("peak_rss_mb", rss_mb, "MB");

  JsonObject paper;
  paper.num("query_qps", qps)
      .num("query_us_p99", p99)
      .num("op_us_p90", percentile(us, 0.9))
      .num("op_us_p99", p99)
      .num("failed_op_fraction",
           static_cast<double>(result.failed) / static_cast<double>(result.attempted));
  JsonObject samples;
  samples.num("queries", n).num("checked_answers", static_cast<double>(kept.size()));
  result.detail.obj("paper_metrics", paper)
      .obj("samples", samples)
      .str("op", "one masked, expanded BacklogDb::query of one block")
      .num("run_file_bytes", static_cast<double>(vol.run_file_bytes))
      .num("block_cache_bytes", static_cast<double>(vol.cache->capacity_bytes()))
      .num("result_cache_entries",
           static_cast<double>(backlog::service::CacheOptions{}.result_cache_entries))
      .num("fsim_data_bytes", static_cast<double>(vol.data_bytes))
      .num("l0_runs", static_cast<double>(l0_runs))
      .num("distinct_queries", static_cast<double>(vol.queries.size()))
      .str("flush_policy", "Env fsync off; no updates during the query phase")
      .str("input_fingerprint", std::to_string(fp0));

  if (args.trace) {
    const double tn = static_cast<double>(traced.latency_ns.size());
    const double traced_qps = tn / (static_cast<double>(traced.wall_ns) * 1e-9);
    const std::uint64_t rc_hits = rc1.hits - rc0.hits;
    const std::uint64_t rc_lookups = rc_hits + (rc1.misses - rc0.misses);
    const std::uint64_t lookups = traced.cache_hits + traced.cache_misses;
    result.metric("core.query_self_us_p50", percentile(traced.self_ns, 0.5) * 1e-3, "us");
    result.metric("core.l0_runs_mean", static_cast<double>(l0_runs), "count");
    result.metric("core.result_cache.hit_ratio",
                  rc_lookups ? static_cast<double>(rc_hits) / static_cast<double>(rc_lookups) : 0,
                  "fraction");
    result.metric("storage.page_reads_per_query",
                  static_cast<double>(traced.io.page_reads) / tn, "pages");
    result.metric("storage.io_us_per_query", static_cast<double>(traced.io.io_micros) / tn,
                  "us");
    result.metric("storage.block_cache.hit_ratio",
                  lookups ? static_cast<double>(traced.cache_hits) / static_cast<double>(lookups) : 0,
                  "fraction");
    result.metric("storage.block_cache.evictions_per_query",
                  static_cast<double>(traced.evictions) / tn, "count");
    result.metric("trace.overhead_pct", 100.0 * (qps - traced_qps) / qps, "%");
    result.detail.num("spans_kept", static_cast<double>(spans.spans().size()))
        .num("spans_dropped", static_cast<double>(spans.dropped()));
    spans.write(args.workdir.parent_path() / "spans" /
                ("backref_query-" + std::to_string(args.seed) + ".tsv"));
  }
  return result;
}

}  // namespace perfbench
