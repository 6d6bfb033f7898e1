// The generated inputs of each workload and the open-loop pacer, exposed so
// the benchmark's own tests can check them without running a workload.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/backlog_db.hpp"
#include "core/backref_record.hpp"
#include "fsim/fsim.hpp"
#include "fsim/verifier.hpp"
#include "service/volume_manager.hpp"

namespace perfbench {

// --- shared by the workloads -------------------------------------------------

/// §6.1 at the bench scale: a CP every ops_per_cp block writes or 10 s, 10%
/// dedup at Zipf 1.15.
backlog::fsim::FsimOptions paper_fsim_options(std::uint64_t seed,
                                              std::uint64_t ops_per_cp);

/// Bloom filters sized for ops_per_cp keys per run (the paper's 32 KB).
backlog::core::BacklogOptions paper_db_options(std::uint64_t ops_per_cp);

/// Every (block, inode, offset, line, version) a masked, expanded answer
/// makes visible, sorted: the form fsim's ground truth takes.
std::vector<backlog::fsim::RefTuple> answer_tuples(
    const std::vector<backlog::core::BackrefEntry>& entries);

/// Little-endian appenders for the byte images the fingerprints cover.
void put64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_key(std::vector<std::uint8_t>& out, const backlog::core::BackrefKey& k);

// --- fs_age ------------------------------------------------------------------

/// One step of a recorded aging run, replayed in order.
struct AgeEvent {
  enum class Kind : std::uint8_t {
    kOps,             ///< apply_many(ops[a, b))
    kCp,              ///< consistency_point()
    kSnapshot,        ///< registry().take_snapshot(line a) -> version b
    kDeleteSnapshot,  ///< registry().delete_snapshot(line a, version b)
    kClone,           ///< registry().create_clone(line a, version b) -> line c
    kKillLine,        ///< registry().kill_line(line a)
  };
  Kind kind = Kind::kOps;
  std::uint64_t a = 0, b = 0, c = 0;
};

/// The §6.2.1 aging workload as fsim issued it: every CP window's
/// add/remove stream and the snapshot scheduler's and clone churner's
/// registry calls, plus the ground truth of the final file system.
struct AgeRecord {
  std::vector<backlog::core::Update> ops;
  std::vector<AgeEvent> events;
  std::uint64_t cps = 0;
  std::uint64_t data_bytes = 0;   ///< fsim's allocated data at the end
  std::uint64_t max_block = 0;
  std::vector<backlog::fsim::RefTuple> truth;  ///< sorted

  /// Canonical bytes of everything the replay consumes (the truth included).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
};

/// Ages an fsim file system (no back-reference database attached) for `cps`
/// consistency points of `ops_per_cp` block writes and records the run.
AgeRecord record_aging(std::uint64_t seed, std::uint64_t cps,
                       std::uint64_t ops_per_cp);

// --- backref_query -----------------------------------------------------------

/// One run of consecutive single-block queries.
struct QueryRun {
  backlog::core::BlockNo first = 0;
  std::uint32_t length = 1;
};

/// Runs of length 1, 16 and 256 in equal query shares (each round holds
/// 256 runs of 1, 16 of 16 and 1 of 256, shuffled), starting at uniformly
/// chosen allocated blocks. `allocated` must be non-empty and sorted.
std::vector<QueryRun> make_query_runs(std::uint64_t seed, std::uint64_t queries,
                                      const std::vector<backlog::core::BlockNo>& allocated,
                                      backlog::core::BlockNo max_block);

// --- service_mix -------------------------------------------------------------

/// One request of a tenant's open-loop stream.
struct Request {
  enum class Kind : std::uint8_t { kApply, kQuery, kCp, kSnapshot };
  Kind kind = Kind::kApply;
  std::uint32_t tenant = 0;
  std::uint64_t due_ns = 0;  ///< offset from the start of the run
  std::vector<backlog::service::UpdateOp> ops;        ///< kApply
  std::vector<backlog::service::QueryRange> ranges;   ///< kQuery
  backlog::core::LineId line = 0;                     ///< kSnapshot
};

/// Defaults serve the tests; a run takes every field from workloads.json.
struct MixOptions {
  std::uint64_t seed = 1;
  std::size_t tenants = 8;
  double hot_share = 0.5;
  double offered_ops_per_s = 10000;
  double seconds = 10;
  std::size_t batch_ops = 64;
  std::size_t applies_per_query = 4;
  std::size_t query_ranges = 16;
  std::uint64_t ops_per_cp = 2000;
  std::uint64_t snapshot_every_ops = 4096;
  std::uint64_t recent_window = 4096;
  double query_zipf_alpha = 1.1;
};

struct MixPlan {
  std::vector<std::string> tenant_names;
  std::vector<std::vector<backlog::core::BackrefKey>> live_keys;  ///< per tenant
  std::vector<Request> requests;  ///< every tenant, in due order
  std::uint64_t block_ops = 0;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
};

/// The hot-tenant fleet from fsim::synthesize_fleet, cut into 64-op
/// apply_batch requests evenly spaced over the run (a seeded phase per
/// tenant), a query_batch after every `applies_per_query` applies with
/// ranges Zipf-skewed toward the tenant's most recent adds, a CP request
/// every `ops_per_cp` ops and the trace's snapshot events.
MixPlan make_mix_plan(const MixOptions& options);

// --- open loop ---------------------------------------------------------------

/// Per-request timing of an open-loop stream, both measured from the time
/// the request was due — never from when it was actually sent.
struct DueTiming {
  std::uint64_t late_ns = 0;     ///< send time - due time
  std::uint64_t latency_ns = 0;  ///< completion time - due time
};

/// Sends request i at start_ns + due_ns[i] (or at once, if the stream is
/// already behind), calling send(i) and blocking until it returns.
std::vector<DueTiming> run_open_loop(const std::vector<std::uint64_t>& due_ns,
                                     std::uint64_t start_ns,
                                     const std::function<void(std::size_t)>& send);

}  // namespace perfbench
