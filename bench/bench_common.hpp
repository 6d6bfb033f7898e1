// Shared plumbing for the reproduction benches: scaled paper configurations
// and consistent table printing. Every bench binary prints (a) the scale
// factors it uses relative to the paper, (b) the measured series/rows, and
// (c) the paper's target numbers next to ours where applicable. The gated
// benchmark and its per-layer ledger are described in perfbench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "core/backlog_db.hpp"
#include "fsim/fsim.hpp"
#include "fsim/workload.hpp"
#include "storage/env.hpp"
#include "util/json.hpp"

namespace backlog::bench {

/// The paper's WAFL configuration and the factor this repo scales it by so
/// that every bench finishes in seconds on a laptop. Overridable via the
/// BACKLOG_BENCH_SCALE environment variable (1 = paper scale where it makes
/// sense, 16 = default quick mode).
struct Scale {
  std::uint64_t paper_ops_per_cp = 32000;
  std::uint64_t divisor = 16;

  [[nodiscard]] std::uint64_t ops_per_cp() const {
    return paper_ops_per_cp / divisor;  // default: 2000
  }

  static Scale from_env() {
    Scale s;
    if (const char* e = std::getenv("BACKLOG_BENCH_SCALE")) {
      const long v = std::atol(e);
      if (v >= 1) s.divisor = static_cast<std::uint64_t>(v);
    }
    return s;
  }
};

/// fsim options matching §6.1 at the chosen scale: CP every ops_per_cp
/// writes or 10 s, 10% dedup with the measured sharing skew.
inline fsim::FsimOptions paper_fsim_options(const Scale& s,
                                            std::uint64_t seed = 42) {
  fsim::FsimOptions o;
  o.ops_per_cp = s.ops_per_cp();
  o.cp_interval_seconds = 10.0;
  o.dedup_fraction = 0.10;
  o.dedup_zipf_alpha = 1.15;
  o.rng_seed = seed;
  return o;
}

/// Backlog options matching §5.1/§6.1 at the chosen scale.
inline core::BacklogOptions paper_backlog_options(const Scale& s) {
  core::BacklogOptions o;
  o.expected_ops_per_cp = s.ops_per_cp();
  o.bloom_max_bytes = 32 * 1024 / s.divisor * 16;  // keep the paper's 8 b/key
  o.combined_bloom_max_bytes = 1024 * 1024;
  o.cache_pages = 8192;  // 32 MB (§6.1)
  return o;
}

/// The paper's snapshot policy (4 hourly + 4 nightly) expressed in CPs at
/// the chosen scale: one "hour" is hourly_every_cps consistency points.
inline fsim::SnapshotPolicy paper_snapshot_policy() {
  fsim::SnapshotPolicy p;
  p.hourly_every_cps = 6;
  p.keep_hourly = 4;
  p.nightly_every_cps = 48;
  p.keep_nightly = 4;
  return p;
}

/// One machine-readable result row. Benches print their human tables as
/// before and additionally emit one `JSONROW {...}` line per data point, so
/// downstream tooling can `grep ^JSONROW` and parse without knowing each
/// bench's table layout.
class JsonRow {
 public:
  JsonRow& str(const char* key, const std::string& value) {
    sep();
    body_ += '"';
    body_ += key;  // keys are compile-time literals: plain identifiers
    body_ += "\":\"";
    // Values reach here from user-controlled surfaces (tenant and scenario
    // names in fleet_sim rows), so they are escaped: a name with a quote or
    // backslash must still parse as JSON downstream.
    body_ += util::json_escape(value);
    body_ += '"';
    return *this;
  }

  JsonRow& num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return raw(key, buf);
  }

  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  JsonRow& num(const char* key, T value) {
    char buf[32];
    if constexpr (std::is_signed_v<T>) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(value));
    }
    return raw(key, buf);
  }

  void print() const { std::printf("JSONROW {%s}\n", body_.c_str()); }

 private:
  JsonRow& raw(const char* key, const char* value) {
    sep();
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  void sep() {
    if (!body_.empty()) body_ += ',';
  }

  std::string body_;
};

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void print_header(const char* experiment, const char* paper_claim,
                         const Scale& s) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("scale: %llu ops/CP (paper: %llu; divisor %llu)\n",
              static_cast<unsigned long long>(s.ops_per_cp()),
              static_cast<unsigned long long>(s.paper_ops_per_cp),
              static_cast<unsigned long long>(s.divisor));
  std::printf("================================================================\n");
}

}  // namespace backlog::bench
