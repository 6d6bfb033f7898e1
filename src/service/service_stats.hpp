// Service-level statistics snapshots for the multi-tenant volume manager.
//
// Every per-op statistic is recorded once, in the service's MetricsRegistry
// (metrics.hpp): each hosted volume owns one single-writer child per counter
// and histogram family, written only by its shard thread.
// VolumeManager::stats() reads those children into per-tenant TenantStats
// rows and the family totals into ServiceStats::total, adding the volumes'
// IoStats and file ownership, which stay shard-private and are gathered
// with a task per shard. LatencyHistogram is the log2 histogram both the
// registry and these snapshots use.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/env.hpp"

namespace backlog::service {

/// One exported histogram bucket: `count` observations at most `le_micros`
/// long (non-cumulative; the Prometheus encoder accumulates).
struct HistogramBucket {
  std::uint64_t le_micros = 0;
  std::uint64_t count = 0;
};

/// Log2-bucketed latency histogram (microseconds). record() is O(1); a
/// quantile is interpolated linearly inside the bucket that holds it (see
/// quantile_micros), so it can err by up to that bucket's width in either
/// direction, and never exceeds max_micros().
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t micros) noexcept {
    ++count_;
    sum_micros_ += micros;
    max_micros_ = std::max(max_micros_, micros);
    ++buckets_[bucket_of(micros)];
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum_micros() const noexcept { return sum_micros_; }
  [[nodiscard]] std::uint64_t max_micros() const noexcept { return max_micros_; }

  /// Quantile `q` in (0, 1], linearly interpolated within the winning
  /// bucket (histogram_quantile semantics): the bucket holding the q-th
  /// observation is found by cumulative count, then the estimate walks from
  /// the bucket's lower bound toward its upper bound by the observation's
  /// rank within the bucket. The upper bound is clamped to max_micros(), so
  /// the top bucket interpolates toward the recorded maximum rather than
  /// its power-of-two ceiling. (Earlier revisions returned the raw bucket
  /// upper bound, which over-reported p50/p95/p99 by up to 2× for coarse
  /// buckets.) 0 if empty.
  [[nodiscard]] std::uint64_t quantile_micros(double q) const noexcept {
    if (count_ == 0) return 0;
    const auto want = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(count_)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      cum += buckets_[i];
      if (cum < want) continue;
      // Bucket i holds [2^(i-1)+1 .. 2^i] (bucket 0: exactly 0..1 µs).
      const std::uint64_t lo = i == 0 ? 0 : bucket_upper_micros(i - 1);
      // max_micros_ lives in the highest non-empty bucket, so the clamp
      // only ever tightens that bucket; lower buckets keep their 2^i bound.
      std::uint64_t hi = std::min(bucket_upper_micros(i), max_micros_);
      if (hi < lo) hi = lo;
      const std::uint64_t rank_in_bucket = want - (cum - buckets_[i]);
      const double frac = static_cast<double>(rank_in_bucket) /
                          static_cast<double>(buckets_[i]);
      return lo + static_cast<std::uint64_t>(
                      frac * static_cast<double>(hi - lo) + 0.5);
    }
    return max_micros_;
  }

  /// Convenience percentile accessors (same interpolated semantics as
  /// quantile_micros) — the canonical spellings for bench rows, CLI tables
  /// and the metrics JSON export.
  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile_micros(0.50); }
  [[nodiscard]] std::uint64_t p95() const noexcept { return quantile_micros(0.95); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile_micros(0.99); }

  void merge(const LatencyHistogram& o) noexcept {
    count_ += o.count_;
    sum_micros_ += o.sum_micros_;
    max_micros_ = std::max(max_micros_, o.max_micros_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  }

  /// Non-empty buckets as (upper bound, count) pairs, ascending. Shared by
  /// the Prometheus histogram encoder and the bench JSONROW rows so both
  /// export the exact recorded distribution instead of recomputed quantiles.
  [[nodiscard]] std::vector<HistogramBucket> to_buckets() const {
    std::vector<HistogramBucket> out;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != 0) out.push_back({bucket_upper_micros(i), buckets_[i]});
    }
    return out;
  }

  /// Scrape-side ingestion for MetricsRegistry: fold a raw per-bucket count
  /// (indexes match bucket_of) and a slot's sum/max into this histogram.
  void ingest_bucket(std::size_t bucket, std::uint64_t n) noexcept {
    buckets_[std::min(bucket, buckets_.size() - 1)] += n;
    count_ += n;
  }
  void ingest_sum_max(std::uint64_t sum_micros, std::uint64_t max_micros) noexcept {
    sum_micros_ += sum_micros;
    max_micros_ = std::max(max_micros_, max_micros);
  }

  /// Index of the bucket an observation lands in (public: MetricsRegistry's
  /// per-slot histograms bucket with the same function so scrape-side
  /// ingest_bucket round-trips exactly).
  static std::size_t bucket_of(std::uint64_t micros) noexcept {
    if (micros <= 1) return 0;
    return std::min<std::size_t>(
        63, static_cast<std::size_t>(64 - std::countl_zero(micros - 1)));
  }

  /// Inclusive upper bound of bucket `i` in microseconds (bucket 0: 1 µs).
  static std::uint64_t bucket_upper_micros(std::size_t i) noexcept {
    return i >= 63 ? UINT64_MAX : (1ull << i);
  }

 private:
  std::array<std::uint64_t, 64> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_micros_ = 0;
  std::uint64_t max_micros_ = 0;
};

/// One tenant's (or the service total's) statistics at snapshot time: a
/// plain value filled by VolumeManager::stats().
struct TenantStats {
  std::size_t shard = 0;                 ///< hosting shard (rows only)
  std::uint64_t updates = 0;             ///< add/remove ops applied
  std::uint64_t batches = 0;             ///< apply_batch() calls executed
  std::uint64_t cps = 0;
  std::uint64_t queries = 0;
  std::uint64_t snapshots = 0;           ///< take_snapshot verbs committed
  std::uint64_t clones = 0;              ///< lines branched (intra + clone_volume)
  std::uint64_t snapshot_deletes = 0;
  std::uint64_t migrations = 0;          ///< completed shard handoffs
  std::uint64_t maintenance_runs = 0;
  std::uint64_t maintenance_skipped = 0; ///< bg probes below threshold / WS busy
  // QoS admission counters (the tenant's gate counts them on API threads).
  std::uint64_t throttle_queued = 0;     ///< ops that waited for tokens
  std::uint64_t throttle_rejected = 0;   ///< ops refused with kThrottled
  // Copy-on-write ownership gauges, read from the run files' link counts at
  // snapshot time: how many of the volume's durable bytes are hard-linked
  // into other volumes (clone sharing) vs owned alone.
  std::uint64_t owned_bytes = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t shared_files = 0;
  LatencyHistogram update_batch_micros;
  LatencyHistogram cp_micros;
  LatencyHistogram query_micros;
  LatencyHistogram maintenance_micros;
  /// Submission-to-execution delay of every op (maintenance probes
  /// excluded) — shard queue time plus any QoS gate wait. The verb
  /// histograms above measure on-shard execution only, so this is where a
  /// noisy neighbour (or a throttle) becomes visible to monitoring.
  LatencyHistogram queue_wait_micros;
  /// QoS-gate wait alone (pacer hold time of throttle-queued ops). Only
  /// populated while tracing is enabled — the span machinery stamps the
  /// admit time; with tracing off the gate wait stays folded into
  /// queue_wait_micros.
  LatencyHistogram gate_wait_micros;
  /// Every traced update's end of on-shard execution to its ack: the
  /// group-commit wait of WAL'd updates, 0 when acked at execute end (no
  /// WAL, window 0). Only populated while tracing is enabled, like
  /// gate_wait_micros.
  LatencyHistogram commit_wait_micros;
  storage::IoStats io;                   ///< volume Env counters at snapshot
};

/// Aggregated service snapshot: one row per hosted tenant plus the service
/// lifetime total. The total's counters and histograms are the registry's
/// family totals and its IoStats also count volumes that have since closed,
/// so it equals the sum of the rows until a volume leaves (closed, destroyed
/// or a failed open/clone) and never goes down; its ownership gauges sum the
/// hosted rows.
struct ServiceStats {
  std::map<std::string, TenantStats> tenants;
  TenantStats total;
};

/// Service-wide copy-on-write sharing, from one scan of the committed volume
/// directories: every run inode with two or more links counts once.
struct SharedFileStats {
  std::uint64_t shared_files = 0;  ///< run inodes linked into >= 2 places
  std::uint64_t shared_bytes = 0;  ///< their bytes, stored once
  std::uint64_t saved_bytes = 0;   ///< sum of (links - 1) * size
};

}  // namespace backlog::service
