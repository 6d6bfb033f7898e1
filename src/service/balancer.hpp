// Balancer — autonomous load-balancing placement on top of migrate_volume.
//
// migrate_volume is the *mechanism* (live drain/park/replay migration); this
// is the *policy*: a cycle, run periodically on the service's ticker, that
//
//   1. polls the per-shard load signals (queue depth, task-latency EWMA —
//      see WorkerPool) and every volume's dispatched-op counter, differencing
//      the counters into per-volume rates since the previous cycle;
//   2. scores each shard: load = (rate + queue_depth), optionally weighted
//      by the shard's latency EWMA (BalancerPolicy::latency_weighted — the
//      default; tests disable it for a fully deterministic metric);
//   3. while the hottest shard exceeds the hysteresis band over the coolest,
//      picks the largest volume on the hot shard whose contribution fits in
//      half the gap (best-fit, so a move can never overshoot and ping-pong)
//      and live-migrates it to the cool shard.
//
// Guard rails, all tunable through BalancerPolicy:
//   * hysteresis — no action inside the band, so a balanced-but-noisy fleet
//     is left alone;
//   * per-volume cooldown — a volume that just moved is ineligible until the
//     window expires, bounding churn per tenant;
//   * migration budget — at most max_moves_per_cycle handoffs per cycle,
//     executed sequentially (the balancer never runs concurrent handoffs);
//   * clean-only moves — rebalancing uses migrate_volume(require_clean), so
//     it never forces a consistency point on a tenant mid-CP-window; a dirty
//     volume is skipped and reconsidered next cycle;
//   * min_load_to_act — an idle service is never shuffled.
//
// run_once() takes an explicit timestamp and returns the moves it made, so
// tests drive convergence deterministically; start() registers the same
// cycle on the service's ticker (see ticker.hpp: a blocked handoff delays
// the ticker's other callbacks).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/volume_manager.hpp"

namespace backlog::service {

struct BalancerPolicy {
  std::chrono::milliseconds poll_interval{200};
  /// A volume may move at most once per cooldown window.
  std::chrono::milliseconds cooldown{2000};
  /// Act only when hot > hysteresis * cool (and the gap fits a candidate).
  double hysteresis = 1.5;
  /// Migration budget: handoffs per cycle (always sequential).
  std::size_t max_moves_per_cycle = 1;
  /// Don't rebalance a fleet doing less than this much total work per
  /// cycle (load-metric units: ops observed + tasks queued).
  double min_load_to_act = 64;
  /// Weight shard loads by their task-latency EWMA (the queue-depth ×
  /// latency signal). Off = pure op-count loads, fully deterministic.
  bool latency_weighted = true;
};

/// One completed rebalancing move, with the metric before/after (recomputed
/// from the same cycle's snapshot) — the convergence trail tests assert on.
struct BalancerMove {
  std::string tenant;
  std::size_t from_shard = 0;
  std::size_t to_shard = 0;
  double imbalance_before = 0;
  double imbalance_after = 0;
  std::uint64_t at_micros = 0;
};

class Balancer {
 public:
  /// Does not start cycling; call start() or drive run_once() directly.
  /// `vm` must outlive this object.
  explicit Balancer(VolumeManager& vm, BalancerPolicy policy = {});
  ~Balancer();

  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  /// Run a cycle every poll_interval on vm.ticker() (idempotent).
  void start();
  /// Stop cycling (idempotent; also called by the destructor): a cycle in
  /// flight completes its handoffs first, and moves()/history() are stable
  /// once this returns. Call start/stop from one thread.
  void stop();

  /// One rebalancing cycle at `now_micros`; returns the moves made.
  /// Thread-safe against the periodic cycle (cycles serialize).
  std::vector<BalancerMove> run_once(std::uint64_t now_micros);
  std::vector<BalancerMove> run_once();  ///< … at the current wall clock

  /// Imbalance metric of the last cycle: (max - min) / total shard load,
  /// in [0, 1]; 0 until a cycle has run or when the fleet is idle.
  [[nodiscard]] double last_imbalance() const noexcept {
    return last_imbalance_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return cycles_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t moves() const noexcept {
    return moves_.load(std::memory_order_relaxed);
  }
  /// The most recent moves (bounded at kMaxHistory; copy).
  static constexpr std::size_t kMaxHistory = 4096;
  [[nodiscard]] std::vector<BalancerMove> history() const;

 private:
  VolumeManager& vm_;
  BalancerPolicy policy_;

  mutable std::mutex cycle_mu_;  // serializes run_once with the periodic cycle
  // Previous dispatched-op reading per tenant (cycle_mu_).
  std::map<std::string, std::uint64_t> prev_ops_;
  // Last completed move per tenant, for the cooldown (cycle_mu_).
  std::map<std::string, std::uint64_t> last_move_micros_;
  std::vector<BalancerMove> history_;  // cycle_mu_

  std::atomic<double> last_imbalance_{0};
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> moves_{0};

  // Registry mirrors of the accessors above, written from the balancer's
  // control slot (the single-writer API slot is fine: only this object's
  // serialized cycles touch these counters).
  std::size_t metric_slot_;
  MetricsRegistry::Counter* m_cycles_;
  MetricsRegistry::Counter* m_moves_;
  MetricsRegistry::Gauge* g_imbalance_;

  Ticker::Id tick_ = 0;  // the periodic cycle's registration; 0 when stopped
};

}  // namespace backlog::service
