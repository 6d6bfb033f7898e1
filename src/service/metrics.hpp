// MetricsRegistry: named counters / gauges / histograms with per-shard
// single-writer slots and per-tenant children, merged only at scrape time.
//
// The write side is built for the shard-per-thread service. Every counter
// and histogram family owns one cache-line-aligned slot per shard plus one
// trailing slot shared by API/control threads. A shard thread bumps its own
// slot with a relaxed load+store (no RMW, no contention, no allocation); the
// shared API slot takes a fetch_add, since any number of threads write it.
// A family may also hold *children*: cells owned elsewhere that count
// toward the family total while attached — one per hosted volume, written
// only by the volume's owning shard (its QoS gate's two counters take a
// fetch_add). detach() folds a child into the family's retired part, so a
// total never goes down when a tenant leaves. A scrape sums slots, children
// and the retired part with relaxed loads. Totals are therefore eventually
// consistent across writers — exactly the semantics a Prometheus scrape
// needs — while the hot path pays a single uncontended store.
//
// Export formats (one unlabelled series per family; children are summed,
// not exported):
//   to_prometheus()  text exposition (counters `_total`, histograms with
//                    cumulative `_bucket{le=...}` / `_sum` / `_count`)
//   to_json()        one JSON object mirroring the same data, used by
//                    `backlogctl metrics --json` and bench tooling
//
// MetricsPoller turns cumulative service totals (VolumeManager::stats(),
// whose counters are these family totals, plus the WorkerPool busy clock)
// into windowed rates: ops/s, queries/s, throttles/s, cache-free IO bytes/s
// (the Env only charges cache-miss reads, so read rates are cache-free by
// construction) and per-shard busy fraction. poll_once() takes an explicit
// timestamp so tests get deterministic windows.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "service/service_stats.hpp"

namespace backlog::service {

class VolumeManager;

/// Destructive-interference alignment for per-shard metric slots. A fixed 64
/// (every mainstream target's cache line) rather than std::hardware_
/// destructive_interference_size, whose value shifts with -mtune and makes
/// GCC warn on any header use.
inline constexpr std::size_t kMetricSlotAlign = 64;

/// Add `n` to a metric cell. A cell with one writing thread at a time takes
/// a relaxed load+store (no RMW); a `shared` cell takes a fetch_add.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n = 1,
                 bool shared = false) noexcept {
  if (shared) {
    cell.fetch_add(n, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
}

/// One writer's log2 histogram storage: a slot of a histogram family, or a
/// volume's child of one. Buckets index like LatencyHistogram::bucket_of;
/// the count is their sum.
struct HistogramCell {
  std::atomic<std::uint64_t> buckets[LatencyHistogram::kBuckets]{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};

  void record(std::uint64_t micros, bool shared = false) noexcept {
    bump(buckets[LatencyHistogram::bucket_of(micros)], 1, shared);
    bump(sum, micros, shared);
    // A new maximum is rare, so its RMW costs even a single writer nothing.
    std::uint64_t seen = max.load(std::memory_order_relaxed);
    while (micros > seen && !max.compare_exchange_weak(
                                seen, micros, std::memory_order_relaxed)) {
    }
  }
};

/// Scrape side: add one cell's contents to a family total.
inline void fold(const std::atomic<std::uint64_t>& cell,
                 std::uint64_t& out) noexcept {
  out += cell.load(std::memory_order_relaxed);
}
void fold(const HistogramCell& cell, LatencyHistogram& out) noexcept;

/// What counter and histogram families share: one cache-line-aligned slot
/// per writer, the attached children, and the retired part that detached
/// children fold into (see the file comment).
template <typename Cell, typename Total>
class MetricFamily {
 public:
  MetricFamily(std::string help, std::size_t slots)
      : slots_(slots), help_(std::move(help)) {}

  /// Count `cell` (owned and written by the caller) in the family total
  /// until detach(); the cell must outlive the attachment. `tenant` labels
  /// the child.
  void attach(const std::string& tenant, const Cell& cell) {
    const std::lock_guard<std::mutex> lock(mu_);
    children_.push_back({tenant, &cell});
  }

  /// Fold `cell` into the retired part and forget it; a no-op for a cell
  /// that is not attached.
  void detach(const Cell& cell) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(children_, [&](const Child& c) {
      if (c.cell != &cell) return false;
      fold(cell, retired_);
      return true;
    });
  }

  [[nodiscard]] const std::string& help() const noexcept { return help_; }

 protected:
  /// The family total: slots + attached children + retired part.
  [[nodiscard]] Total read() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Total out = retired_;
    for (const Slot& s : slots_) fold(s.cell, out);
    for (const Child& c : children_) fold(*c.cell, out);
    return out;
  }

  /// Each slot has one writer (its shard) except the trailing one, which
  /// every API/control thread shares.
  struct alignas(kMetricSlotAlign) Slot {
    Cell cell{};
  };
  std::vector<Slot> slots_;

 private:
  struct Child {
    std::string tenant;
    const Cell* cell;
  };
  std::string help_;
  mutable std::mutex mu_;  ///< guards children_ and retired_
  std::vector<Child> children_;
  Total retired_{};
};

class MetricsRegistry {
 public:
  /// `slots` = writer count: one per shard plus one for API/control threads
  /// (VolumeManager passes shards + 1).
  explicit MetricsRegistry(std::size_t slots);

  /// Monotonic counter family.
  class Counter : public MetricFamily<std::atomic<std::uint64_t>,
                                      std::uint64_t> {
   public:
    using MetricFamily::MetricFamily;
    void add(std::size_t slot, std::uint64_t n = 1) noexcept {
      bump(slots_[slot].cell, n, slot + 1 == slots_.size());
    }
    [[nodiscard]] std::uint64_t total() const { return read(); }
  };

  /// Point-in-time value, any thread may set it (last writer wins). An
  /// optional fixed label set ("shard=\"3\"") distinguishes series within
  /// one family.
  class Gauge {
   public:
    Gauge(std::string name, std::string help, std::string labels)
        : name_(std::move(name)), help_(std::move(help)),
          labels_(std::move(labels)) {}

    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const {
      return fn_ ? fn_() : value_.load(std::memory_order_relaxed);
    }

    /// Callback-backed mode: the gauge evaluates `fn` at scrape time
    /// instead of storing a value — used for counters that live elsewhere
    /// as relaxed atomics (the BlockCache's hit/miss/eviction counts). The
    /// callback must be thread-safe; it runs under the registry lock on
    /// whatever thread scrapes.
    void set_callback(std::function<double()> fn) { fn_ = std::move(fn); }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::string& help() const noexcept { return help_; }
    [[nodiscard]] const std::string& labels() const noexcept { return labels_; }

   private:
    std::string name_;
    std::string help_;
    std::string labels_;
    std::atomic<double> value_{0.0};
    std::function<double()> fn_;
  };

  /// Log2-bucketed latency histogram family; merged() folds it into a
  /// LatencyHistogram at scrape time.
  class Histogram : public MetricFamily<HistogramCell, LatencyHistogram> {
   public:
    using MetricFamily::MetricFamily;
    void record(std::size_t slot, std::uint64_t micros) noexcept {
      slots_[slot].cell.record(micros, slot + 1 == slots_.size());
    }
    [[nodiscard]] LatencyHistogram merged() const { return read(); }
  };

  /// Registration is idempotent (same name -> same object) and returns a
  /// handle that stays valid for the registry's lifetime, so components
  /// constructed repeatedly (Balancer, MaintenanceScheduler) can re-register
  /// freely and cache the pointer.
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help);

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }

  [[nodiscard]] std::string to_prometheus() const;
  [[nodiscard]] std::string to_json() const;

 private:
  std::size_t slots_;
  mutable std::mutex mu_;  ///< guards the maps, not the metric slots
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  // Gauges keyed by name + labels: one family (shared HELP/TYPE) may hold
  // several labeled series, e.g. backlog_shard_busy_fraction{shard="k"}.
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// One windowed-rate sample from MetricsPoller.
struct RateSample {
  /// False on the first (or otherwise unprimed) poll: there was no previous
  /// sample to diff against, so every rate below is a meaningless zero, not
  /// a measured zero. Consumers must skip or label unprimed samples —
  /// `backlogctl metrics --watch` tags the priming row instead of printing
  /// an all-zero rate line as if the service were idle.
  bool primed = false;
  std::uint64_t at_micros = 0;       ///< steady-clock stamp of this sample
  double window_seconds = 0;         ///< width of the window it covers
  double update_ops_per_sec = 0;     ///< add/remove ops applied
  double queries_per_sec = 0;
  double throttles_per_sec = 0;      ///< QoS queued + rejected
  double io_read_bytes_per_sec = 0;  ///< cache-miss reads only
  double io_write_bytes_per_sec = 0;
  std::vector<double> shard_busy_fraction;  ///< per shard, 0..1
};

/// Periodically (or on demand) diffs the service's lifetime totals
/// (VolumeManager::stats().total) and the WorkerPool busy clocks into rates
/// and mirrors them into registry gauges (backlog_update_ops_per_sec,
/// backlog_shard_busy_fraction{shard="k"}, ...). The first poll primes the
/// window and reports zero rates.
class MetricsPoller {
 public:
  /// Registers its gauges in vm.metrics(). Does not start a thread; call
  /// start() for background polling or poll_once() to drive it manually.
  MetricsPoller(VolumeManager& vm, std::chrono::milliseconds interval);
  ~MetricsPoller();

  MetricsPoller(const MetricsPoller&) = delete;
  MetricsPoller& operator=(const MetricsPoller&) = delete;

  void start();
  void stop();

  /// One deterministic sample: scrape cumulative stats, diff against the
  /// previous sample over (`now_micros` - prev stamp). Thread-safe.
  RateSample poll_once(std::uint64_t now_micros);
  /// Convenience wall-clock overload.
  RateSample poll_once();

  /// Most recent sample (zero-initialized before the second poll).
  [[nodiscard]] RateSample last() const;

 private:
  void loop();

  VolumeManager& vm_;
  std::chrono::milliseconds interval_;

  mutable std::mutex mu_;
  bool primed_ = false;
  std::uint64_t prev_at_ = 0;
  std::vector<std::uint64_t> prev_totals_;  ///< one per rate series
  std::vector<std::uint64_t> prev_busy_;
  RateSample last_{};

  std::vector<MetricsRegistry::Gauge*> g_rates_;  ///< one per rate series
  std::vector<MetricsRegistry::Gauge*> g_busy_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace backlog::service
