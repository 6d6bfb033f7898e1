// fs_age: the paper's write path (§6.2.1, Fig. 5/6) with no fsim cost mixed
// in. Set-up ages an fsim file system with no database attached and records
// every CP window's add/remove stream plus the snapshot and clone calls;
// the timed phase replays that record into fresh BacklogDbs through
// apply_many, consistency_point, the registry and maintain(). No queries
// run while timing, so a query-path change must leave this workload flat.
#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "core/backlog_db.hpp"
#include "fsim/fsim.hpp"
#include "fsim/workload.hpp"
#include "service/volume_manager.hpp"
#include "storage/env.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bc = backlog::core;
namespace bf = backlog::fsim;
namespace bs = backlog::storage;

namespace {

class RecordingSink final : public bf::BackrefSink {
 public:
  explicit RecordingSink(std::vector<bc::Update>& ops) : ops_(ops) {}
  void add_reference(const bc::BackrefKey& key) override {
    ops_.push_back({bc::Update::Kind::kAdd, key});
  }
  void remove_reference(const bc::BackrefKey& key) override {
    ops_.push_back({bc::Update::Kind::kRemove, key});
  }
  bf::SinkCpStats on_consistency_point() override { return {}; }
  [[nodiscard]] bool advances_cp() const override { return false; }
  [[nodiscard]] std::uint64_t db_bytes() const override { return 0; }

 private:
  std::vector<bc::Update>& ops_;
};

}  // namespace

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_key(std::vector<std::uint8_t>& out, const bc::BackrefKey& k) {
  put64(out, k.block);
  put64(out, k.inode);
  put64(out, k.offset);
  put64(out, k.length);
  put64(out, k.line);
}

bf::FsimOptions paper_fsim_options(std::uint64_t seed, std::uint64_t ops_per_cp) {
  bf::FsimOptions fo;
  fo.ops_per_cp = ops_per_cp;
  fo.cp_interval_seconds = 10.0;
  fo.dedup_fraction = 0.10;
  fo.dedup_zipf_alpha = 1.15;
  fo.rng_seed = seed;
  return fo;
}

bc::BacklogOptions paper_db_options(std::uint64_t ops_per_cp) {
  bc::BacklogOptions o;
  o.expected_ops_per_cp = ops_per_cp;
  o.bloom_max_bytes = 32 * 1024;
  return o;
}

std::vector<bf::RefTuple> answer_tuples(const std::vector<bc::BackrefEntry>& entries) {
  std::set<bf::RefTuple> out;
  for (const bc::BackrefEntry& e : entries) {
    for (std::uint64_t i = 0; i < e.rec.key.length; ++i) {
      for (const bc::Epoch v : e.versions) {
        out.emplace(e.rec.key.block + i, e.rec.key.inode, e.rec.key.offset + i,
                    e.rec.key.line, v);
      }
    }
  }
  return {out.begin(), out.end()};
}

std::vector<std::uint8_t> AgeRecord::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(ops.size() * 41 + events.size() * 25 + truth.size() * 40 + 64);
  put64(out, cps);
  put64(out, data_bytes);
  put64(out, max_block);
  put64(out, ops.size());
  for (const bc::Update& u : ops) {
    out.push_back(static_cast<std::uint8_t>(u.kind));
    put_key(out, u.key);
  }
  put64(out, events.size());
  for (const AgeEvent& e : events) {
    out.push_back(static_cast<std::uint8_t>(e.kind));
    put64(out, e.a);
    put64(out, e.b);
    put64(out, e.c);
  }
  put64(out, truth.size());
  for (const auto& [block, inode, offset, line, version] : truth) {
    put64(out, block);
    put64(out, inode);
    put64(out, offset);
    put64(out, line);
    put64(out, version);
  }
  return out;
}

AgeRecord record_aging(std::uint64_t seed, std::uint64_t cps,
                       std::uint64_t ops_per_cp) {
  using Kind = AgeEvent::Kind;
  AgeRecord rec;
  rec.cps = cps;
  RecordingSink sink(rec.ops);

  // 4 hourly + 4 nightly snapshots; ~7 clones per 100 CPs.
  bf::FileSystem fs(paper_fsim_options(seed, ops_per_cp), sink);
  bf::WorkloadOptions wl;
  wl.seed = seed * 7919 + 1;
  bf::WorkloadGenerator gen(fs, 0, wl);
  bf::SnapshotScheduler snaps(fs, 0, bf::SnapshotPolicy{});
  bf::ClonePolicy clone_policy;
  clone_policy.clones_per_cp = 0.07;
  clone_policy.seed = seed * 104729 + 2;
  bf::CloneChurner clones(fs, 0, clone_policy, wl);

  std::size_t mark = 0;
  const auto flush_ops = [&](std::size_t end) {
    if (end > mark) rec.events.push_back({Kind::kOps, mark, end, 0});
    mark = end;
  };
  const auto missing = [](const auto& from, const auto& in) {
    std::vector<std::uint64_t> out;
    for (const auto x : from) {
      if (std::find(in.begin(), in.end(), x) == in.end()) out.push_back(x);
    }
    return out;
  };

  // The schedulers run at the end of each CP window, just before the CP:
  // a snapshot is the image a CP commits, which is what fsim's ground truth
  // models (the paper-figure benches call them after the CP instead).
  for (std::uint64_t cp = 1; cp <= cps; ++cp) {
    gen.run_block_writes(ops_per_cp);
    flush_ops(rec.ops.size());

    // The scheduler takes the new snapshot before retiring the oldest.
    const std::vector<bc::Epoch> snaps_before = fs.registry().snapshots(0);
    snaps.on_cp(cp);
    const std::vector<bc::Epoch> snaps_after = fs.registry().snapshots(0);
    for (const auto v : missing(snaps_after, snaps_before))
      rec.events.push_back({Kind::kSnapshot, 0, v, 0});
    for (const auto v : missing(snaps_before, snaps_after))
      rec.events.push_back({Kind::kDeleteSnapshot, 0, v, 0});

    // The churner first deletes the oldest clone's head (its files'
    // removals, then kill_line), then clones a snapshot and writes into it.
    const std::vector<bc::LineId> lines_before = fs.live_lines();
    const std::size_t ops_before = rec.ops.size();
    clones.on_cp(snaps.hourly());
    const std::vector<bc::LineId> lines_after = fs.live_lines();
    const auto killed = missing(lines_before, lines_after);
    const auto created = missing(lines_after, lines_before);
    if (killed.size() > 1 || created.size() > 1)
      throw std::logic_error("fs_age: more than one clone change in one CP");
    std::size_t split = ops_before;
    while (!killed.empty() && split < rec.ops.size() &&
           rec.ops[split].key.line == killed[0]) {
      ++split;
    }
    for (std::size_t i = split; i < rec.ops.size(); ++i) {
      if (created.empty() || rec.ops[i].key.line != created[0])
        throw std::logic_error("fs_age: clone-churn ops out of order");
    }
    if (!killed.empty()) {
      flush_ops(split);
      rec.events.push_back({Kind::kKillLine, killed[0], 0, 0});
    }
    if (!created.empty()) {
      const auto parent = fs.registry().parent_of(created[0]);
      rec.events.push_back(
          {Kind::kClone, parent->parent, parent->branch_version, created[0]});
      flush_ops(rec.ops.size());
    }

    fs.consistency_point();
    rec.events.push_back({Kind::kCp, 0, 0, 0});
  }
  rec.data_bytes = fs.stats().data_bytes();
  rec.max_block = fs.max_block();
  const std::set<bf::RefTuple> truth = bf::ground_truth_refs(fs);
  rec.truth.assign(truth.begin(), truth.end());
  return rec;
}

namespace {

double to_ms(double ns) { return ns * 1e-6; }

/// Everything one replay measured, per call where a distribution is needed.
struct Replay {
  std::uint64_t block_ops = 0;
  std::uint64_t apply_ns = 0;
  std::uint64_t records_flushed = 0;
  std::uint64_t cp_pages = 0;
  std::uint64_t runs_created = 0;
  std::vector<double> cp_ns, cp_io_ns, maint_ns, maint_io_ns;
  /// Per CP window: apply_many + consistency_point time per block op.
  std::vector<double> window_ns_per_op;
  bc::MaintenanceStats maint{};
  bs::IoStats io{};
  std::uint64_t db_bytes = 0;
  std::uint64_t run_records = 0;

  [[nodiscard]] double update_ns() const {
    double cp = 0;
    for (const double x : cp_ns) cp += x;
    return static_cast<double>(apply_ns) + cp;
  }
  [[nodiscard]] double maintain_ns() const {
    double m = 0;
    for (const double x : maint_ns) m += x;
    return m;
  }
};

/// Replays `rec` into `db`, timing every call; `tracer` gets one span per
/// call (request id = the CP window the call belongs to).
Replay replay(const AgeRecord& rec, bc::BacklogDb& db, bs::Env& env,
              Tracer& tracer, std::uint64_t l0_threshold) {
  using Kind = AgeEvent::Kind;
  Replay r;
  const bs::IoStats io_start = env.stats();
  std::uint64_t window = 1;
  std::uint64_t window_apply_ns = 0;
  for (const AgeEvent& e : rec.events) {
    switch (e.kind) {
      case Kind::kOps: {
        const std::span<const bc::Update> ops(rec.ops.data() + e.a, e.b - e.a);
        const std::uint64_t t0 = now_ns();
        db.apply_many(ops);
        const std::uint64_t t1 = now_ns();
        r.apply_ns += t1 - t0;
        window_apply_ns += t1 - t0;
        tracer.record("core.apply_many", t0, t1, window);
        break;
      }
      case Kind::kCp: {
        const std::uint64_t l0_before = db.quick_stats().l0_runs();
        const std::uint64_t io0 = env.stats().io_micros;
        const std::uint64_t t0 = now_ns();
        const bc::CpFlushStats s = db.consistency_point();
        const std::uint64_t t1 = now_ns();
        const std::uint64_t io_ns = (env.stats().io_micros - io0) * 1000;
        const std::uint32_t cp_span = tracer.record("core.consistency_point", t0, t1, window);
        tracer.record("storage.io", t0, t0 + io_ns, window, cp_span);
        r.cp_ns.push_back(static_cast<double>(t1 - t0));
        r.cp_io_ns.push_back(static_cast<double>(io_ns));
        r.block_ops += s.block_ops;
        if (s.block_ops > 0) {
          r.window_ns_per_op.push_back(static_cast<double>(window_apply_ns + (t1 - t0)) /
                                       static_cast<double>(s.block_ops));
        }
        window_apply_ns = 0;
        r.records_flushed += s.records_flushed;
        r.cp_pages += s.pages_written;
        const std::uint64_t l0_after = db.quick_stats().l0_runs();
        r.runs_created += l0_after - l0_before;
        if (l0_after >= l0_threshold) {
          const std::uint64_t mio0 = env.stats().io_micros;
          const std::uint64_t m0 = now_ns();
          const bc::MaintenanceStats m = db.maintain();
          const std::uint64_t m1 = now_ns();
          const std::uint64_t mio_ns = (env.stats().io_micros - mio0) * 1000;
          const std::uint32_t m_span = tracer.record("core.maintain", m0, m1, window);
          tracer.record("storage.io", m0, m0 + mio_ns, window, m_span);
          r.maint_ns.push_back(static_cast<double>(m1 - m0));
          r.maint_io_ns.push_back(static_cast<double>(mio_ns));
          r.maint.input_records += m.input_records;
          r.maint.purged += m.purged;
          r.maint.pages_read += m.pages_read;
          r.maint.pages_written += m.pages_written;
        }
        ++window;
        break;
      }
      case Kind::kSnapshot:
      case Kind::kDeleteSnapshot:
      case Kind::kClone:
      case Kind::kKillLine: {
        const std::uint64_t t0 = now_ns();
        bc::SnapshotRegistry& reg = db.registry();
        if (e.kind == Kind::kSnapshot) {
          if (reg.take_snapshot(e.a) != e.b)
            throw std::logic_error("fs_age replay: snapshot version diverged");
        } else if (e.kind == Kind::kDeleteSnapshot) {
          reg.delete_snapshot(e.a, e.b);
        } else if (e.kind == Kind::kClone) {
          if (reg.create_clone(e.a, e.b) != e.c)
            throw std::logic_error("fs_age replay: clone line diverged");
        } else {
          reg.kill_line(e.a);
        }
        tracer.record("core.registry", t0, now_ns(), window);
        break;
      }
    }
  }
  r.io = env.stats() - io_start;
  const bc::DbStats st = db.stats();
  r.db_bytes = st.db_bytes;
  r.run_records = st.run_records;
  return r;
}

/// Masked, expanded queries over [0, max_block) in 64-block chunks must
/// reproduce fsim's ground truth exactly; each mismatching chunk is a
/// failed op. Returns the number of chunk queries issued.
std::uint64_t verify(const AgeRecord& rec, bc::BacklogDb& db, Result& result) {
  constexpr std::uint64_t kChunk = 64;
  std::uint64_t queries = 0;
  for (bc::BlockNo b = 0; b < rec.max_block; b += kChunk) {
    const std::uint64_t count = std::min(kChunk, rec.max_block - b);
    const std::vector<bf::RefTuple> got = answer_tuples(db.query(b, count));
    ++queries;
    const auto lo = std::lower_bound(rec.truth.begin(), rec.truth.end(),
                                     bf::RefTuple{b, 0, 0, 0, 0});
    const auto hi = std::lower_bound(lo, rec.truth.end(),
                                     bf::RefTuple{b + count, 0, 0, 0, 0});
    if (!std::equal(got.begin(), got.end(), lo, hi)) {
      result.fail(1, "fs_age: answers for blocks [" + std::to_string(b) + ", " +
                         std::to_string(b + count) + ") differ from ground truth");
    }
  }
  return queries;
}

}  // namespace

Result run_fs_age(const RunArgs& args) {
  Result result;
  const std::uint64_t records = args.params.u64("records");
  const std::uint64_t cps = args.params.u64("cps");
  const std::uint64_t ops_per_cp = args.params.u64("ops_per_cp");
  const std::uint64_t min_cp_samples = args.params.u64("min_cp_samples");
  const std::uint64_t l0_threshold =
      backlog::service::MaintenancePolicy{}.l0_run_threshold;

  // Several independent agings, so a run averages over more clone-head
  // deletions (the rare, huge remove bursts) than one record holds. Each
  // recording is one set-up; setup_s is their median.
  std::vector<AgeRecord> recs(records);
  JsonObject fingerprints;
  const double setup_s = timed_setups(records, [&](std::uint64_t k) {
    recs[k] = record_aging(args.seed * 16 + k, cps, ops_per_cp);
    fingerprints.str(std::to_string(k), std::to_string(fingerprint(recs[k].serialize())));
  });

  const bc::BacklogOptions opts = paper_db_options(ops_per_cp);

  // What each record's first replay measured, plus its checks off the
  // clock: ground truth, then a final maintain() for the compacted size.
  struct PerRecord {
    bool measured = false;
    std::uint64_t block_ops = 0, io_pages = 0, pages_written = 0;
    std::uint64_t end_bytes = 0, compacted_bytes = 0;
  };
  std::vector<PerRecord> per(records);

  // Rounds of whole replays (every record once per round) until the time is
  // spent and the untraced CPs support a p99; a traced run alternates
  // untraced and traced rounds.
  Tracer spans(args.trace);
  std::vector<Replay> untraced, traced;
  reset_peak_rss();
  std::uint64_t verify_queries = 0;
  const std::uint64_t t_start = now_ns();
  for (std::uint64_t rep = 0;; ++rep) {
    const std::uint64_t k = rep % records;
    const bool trace_this = args.trace && (rep / records) % 2 == 1;
    const std::filesystem::path dir = args.workdir / ("fs_age-" + std::to_string(rep));
    std::filesystem::remove_all(dir);
    {
      bs::Env env(dir);
      env.set_sync(false);  // as in the paper benches: algorithm, not disk
      bc::BacklogDb db(env, opts);
      Tracer rep_spans(trace_this);
      Replay r = replay(recs[k], db, env, rep_spans, l0_threshold);
      spans.absorb(rep_spans);
      if (!per[k].measured) {
        PerRecord& m = per[k];
        m.measured = true;
        m.block_ops = r.block_ops;
        m.io_pages = r.io.page_reads + r.io.page_writes;
        m.pages_written = r.cp_pages + r.maint.pages_written;
        m.end_bytes = r.db_bytes;
        verify_queries += verify(recs[k], db, result);
        (void)db.maintain();
        m.compacted_bytes = db.stats().db_bytes;
        recs[k].truth = {};  // checked; free it
      }
      (trace_this ? traced : untraced).push_back(std::move(r));
    }
    std::filesystem::remove_all(dir);
    std::size_t cp_samples = 0;
    for (const Replay& u : untraced) cp_samples += u.cp_ns.size();
    const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    if ((rep + 1) % records == 0 && elapsed >= args.seconds &&
        cp_samples >= min_cp_samples && (!args.trace || !traced.empty())) {
      break;
    }
  }
  const double peak_mb = peak_rss_mb();
  for (const Replay& r : untraced) result.attempted += r.block_ops;
  for (const Replay& r : traced) result.attempted += r.block_ops;
  result.attempted += verify_queries;

  // End-to-end figures come from the untraced replays only.
  std::vector<double> cp_us, window_us, update_ns_per_op, maintain_us_per_op, ops_per_s;
  for (const Replay& r : untraced) {
    for (const double ns : r.cp_ns) cp_us.push_back(ns * 1e-3);
    for (const double ns : r.window_ns_per_op) window_us.push_back(ns * 1e-3);
    const double ops = static_cast<double>(r.block_ops);
    update_ns_per_op.push_back(r.update_ns() / ops);
    ops_per_s.push_back(ops / (r.update_ns() * 1e-9));
    maintain_us_per_op.push_back(r.maintain_ns() * 1e-3 / ops);
  }
  double ops = 0, io_pages = 0, pages_written = 0, compacted = 0, data = 0, end_bytes = 0;
  for (std::size_t k = 0; k < records; ++k) {
    ops += static_cast<double>(per[k].block_ops);
    io_pages += static_cast<double>(per[k].io_pages);
    pages_written += static_cast<double>(per[k].pages_written);
    compacted += static_cast<double>(per[k].compacted_bytes);
    end_bytes += static_cast<double>(per[k].end_bytes);
    data += static_cast<double>(recs[k].data_bytes);
  }
  const double space_pct = 100.0 * compacted / data;
  const double cp_p50_us = percentile(cp_us, 0.5);

  result.metric("setup_s", setup_s, "s");
  // One sample per replay: its apply_many + consistency_point time per block
  // op (Fig. 5's µs/op for one aged file system). The per-window p50 of the
  // same cost is in DETAIL but not gated: a typical window is small, so its
  // cost leans on the fixed per-CP file work and drifts with the host's file
  // system (README, "Reading the numbers").
  result.metric("op_us_p50", median(update_ns_per_op) * 1e-3, "us");
  result.metric("ops_per_s", median(ops_per_s), "1/s");
  result.metric("io_pages_per_op", io_pages / ops, "pages/op");
  result.metric("space_overhead_pct", space_pct, "%");
  result.metric("peak_rss_mb", peak_mb, "MB");

  JsonObject paper;
  paper.num("update_ns_per_op", median(update_ns_per_op))
      .num("page_writes_per_op", pages_written / ops)
      .num("cp_flush_ms_p50", cp_p50_us * 1e-3)
      .num("cp_flush_ms_p99", percentile(cp_us, 0.99) * 1e-3)
      .num("maintain_us_per_op", median(maintain_us_per_op))
      .num("window_us_p50", percentile(window_us, 0.5))
      .num("window_us_p90", percentile(window_us, 0.9))
      .num("window_us_p99", percentile(window_us, 0.99))
      .num("space_overhead_pct", space_pct)
      .num("failed_op_fraction", static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted));
  JsonObject samples;
  samples.num("replays", static_cast<double>(untraced.size()))
      .num("cp_flush", static_cast<double>(cp_us.size()))
      .num("cp_windows", static_cast<double>(window_us.size()));
  result.detail.obj("paper_metrics", paper)
      .obj("samples", samples)
      .str("op", "op_us_p50 = median over replays of apply_many + consistency_point "
                 "time per block op (Fig. 5); window_us_* = the same cost per CP "
                 "window; ops_per_s = block ops per second of that time")
      .num("records", static_cast<double>(records))
      .num("cps_per_record", static_cast<double>(cps))
      .num("block_ops_per_round", ops)
      .num("fsim_data_bytes", data)
      .num("run_file_bytes_end", end_bytes)
      .num("run_file_bytes_compacted", compacted)
      .num("maintain_l0_threshold", static_cast<double>(l0_threshold))
      .str("flush_policy", "Env fsync off; a CP every ops_per_cp block ops")
      .obj("input_fingerprints", fingerprints);

  if (args.trace) {
    double apply_ns = 0, flushed = 0, block_ops = 0, runs = 0, cps_n = 0;
    double m_read = 0, m_written = 0, m_in = 0, m_purged = 0, bytes_written = 0;
    std::vector<double> cp_whole, cp_self, cp_io, maint_self;
    for (const Replay& r : traced) {
      apply_ns += static_cast<double>(r.apply_ns);
      flushed += static_cast<double>(r.records_flushed);
      block_ops += static_cast<double>(r.block_ops);
      runs += static_cast<double>(r.runs_created);
      cps_n += static_cast<double>(r.cp_ns.size());
      m_read += static_cast<double>(r.maint.pages_read);
      m_written += static_cast<double>(r.maint.pages_written);
      m_in += static_cast<double>(r.maint.input_records);
      m_purged += static_cast<double>(r.maint.purged);
      bytes_written += static_cast<double>(r.io.bytes_written);
      for (std::size_t i = 0; i < r.cp_ns.size(); ++i) {
        cp_whole.push_back(r.cp_ns[i]);
        cp_self.push_back(r.cp_ns[i] - r.cp_io_ns[i]);
        cp_io.push_back(r.cp_io_ns[i]);
      }
      for (std::size_t i = 0; i < r.maint_ns.size(); ++i)
        maint_self.push_back(r.maint_ns[i] - r.maint_io_ns[i]);
    }
    const Replay& t = traced.back();
    const double self_ms = to_ms(percentile(cp_self, 0.5));
    const double io_ms = to_ms(percentile(cp_io, 0.5));
    // The ledger's whole is the CP p50 of the same traced calls, so machine
    // drift between the untraced and traced rounds cannot fail it.
    const double whole_ms = to_ms(percentile(cp_whole, 0.5));
    std::vector<double> traced_update;
    for (const Replay& r : traced)
      traced_update.push_back(r.update_ns() / static_cast<double>(r.block_ops));
    const double untraced_headline = median(update_ns_per_op);

    result.metric("core.apply_many_ns_per_op", apply_ns / block_ops, "ns");
    result.metric("core.ws_cancel_fraction", 1.0 - flushed / block_ops, "fraction");
    result.metric("core.cp_self_ms_p50", self_ms, "ms");
    result.metric("core.maintain_self_ms_p50",
                  maint_self.empty() ? 0 : to_ms(percentile(maint_self, 0.5)), "ms");
    result.metric("core.maintain_purged_fraction", m_in > 0 ? m_purged / m_in : 0,
                  "fraction");
    result.metric("lsm.runs_per_cp", runs / cps_n, "count");
    result.metric("lsm.bytes_per_record",
                  static_cast<double>(t.db_bytes) / static_cast<double>(t.run_records),
                  "B");
    result.metric("lsm.maintain_pages_read_per_op", m_read / block_ops, "pages/op");
    result.metric("lsm.maintain_pages_written_per_op", m_written / block_ops, "pages/op");
    result.metric("storage.cp_io_ms_p50", io_ms, "ms");
    result.metric("storage.bytes_written_per_op", bytes_written / block_ops, "B/op");
    result.metric("ledger.cp_unattributed_ms", whole_ms - (self_ms + io_ms), "ms");
    result.metric("trace.overhead_pct",
                  100.0 * (median(traced_update) - untraced_headline) / untraced_headline,
                  "%");

    // Ledger: the CP p50 must cover its parts. Medians do not add exactly,
    // so the parts may exceed the whole by 5% before the run fails.
    JsonObject ledger;
    const bool ok = self_ms + io_ms <= whole_ms * 1.05;
    ledger.num("whole_cp_flush_ms_p50", whole_ms)
        .num("untraced_cp_flush_ms_p50", cp_p50_us * 1e-3)
        .num("core_self_ms_p50", self_ms)
        .num("storage_io_ms_p50", io_ms)
        .num("unattributed_ms", whole_ms - (self_ms + io_ms))
        .boolean("pass", ok);
    result.detail.obj("ledger_cp", ledger);
    if (!ok) result.fail(0, "fs_age ledger: CP parts exceed the whole");
    result.detail.num("spans_kept", static_cast<double>(spans.spans().size()))
        .num("spans_dropped", static_cast<double>(spans.dropped()));
    spans.write(args.workdir.parent_path() / "spans" /
                ("fs_age-" + std::to_string(args.seed) + ".tsv"));
  }
  return result;
}

}  // namespace perfbench
