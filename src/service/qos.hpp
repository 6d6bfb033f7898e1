// Per-tenant quality of service for the volume service.
//
// Two cooperating mechanisms, both configured through one TenantQos struct:
//
//  * admission control — a pair of token buckets (operations/s and bytes/s)
//    consulted at enqueue time, on the API thread, before a foreground task
//    reaches its shard. An op that doesn't fit waits in a bounded per-volume
//    FIFO; a dedicated pacer thread releases waiters as tokens refill. When
//    the wait queue is full the op is rejected immediately with
//    ErrorCode::kThrottled (surfaced through the returned future) — the
//    backpressure signal a client of the service is expected to handle.
//    Batched verbs (apply_batch / query_batch) are one admission unit:
//    the gate is consulted once with the batch's total cost, the batch
//    occupies one wait-queue slot, and a rejection fails the whole batch
//    with a single kThrottled — never a partial admit (oversized batches
//    ride the TokenBucket debt rule below, so a batch larger than the
//    burst cannot wedge the queue);
//  * weighted-fair dequeue — every volume is its own flow in its shard's
//    queue (see shard_queue.hpp), scheduled by stride over TenantQos::weight,
//    so even an *unthrottled* tenant cannot monopolize a shard with sheer
//    task count. A saturating tenant's backlog waits in its own flow while
//    its neighbours' tasks keep dequeuing at their fair share.
//
// Ordering: the gate preserves per-tenant submission order. Once any op of a
// tenant is waiting, every later foreground op of that tenant queues behind
// it (unmetered verbs ride through with zero cost), so the service's
// per-tenant FIFO guarantee survives throttling. Clearing the QoS (or
// closing the volume) releases the whole wait queue in order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace backlog::service {

/// Service-level error codes — also the wire protocol's status space: a
/// response frame carries exactly one of these, so remote clients see the
/// same backpressure signals (kThrottled in particular) as in-process
/// callers. Append only; the values are on the wire.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kThrottled = 1,     ///< QoS wait queue full — retry with backoff
  kBadRequest = 2,    ///< malformed or out-of-range request payload
  kNoSuchTenant = 3,  ///< the named volume is not hosted here
  kNoSuchVerb = 4,    ///< verb id not registered on this server
  kTooLarge = 5,      ///< payload length over the verb's cap
  kInternal = 6,      ///< handler threw an unexpected exception
  kWounded = 7,       ///< volume is read-only after persistent write errors
};

/// Stable wire-facing name of an error code ("ok", "throttled", ...).
const char* to_string(ErrorCode code) noexcept;

/// Exception carried by a future whose op the service refused; code() lets
/// callers branch without string matching.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Rate of a bucket that never throttles.
inline constexpr double kUnlimitedRate =
    std::numeric_limits<double>::infinity();

/// Per-tenant QoS configuration (VolumeManager::set_qos). Rates of
/// kUnlimitedRate disable that bucket; a rate of 0 admits at most the burst
/// and then throttles forever (the "fully throttled tenant").
struct TenantQos {
  double ops_per_sec = kUnlimitedRate;
  double bytes_per_sec = kUnlimitedRate;
  /// Bucket capacities: how much a tenant may spend at once after idling.
  double burst_ops = 64;
  double burst_bytes = 1 << 20;
  /// Weighted-fair share of the shard's dequeue (stride scheduling); a
  /// weight-2 tenant dequeues twice as often as a weight-1 neighbour when
  /// both have work queued.
  std::uint32_t weight = 1;
  /// Throttled ops waiting for tokens beyond this bound are rejected with
  /// ErrorCode::kThrottled instead of queued.
  std::size_t max_wait_queue = 256;
};

/// Classic token bucket with explicit time (micros) so tests drive it
/// deterministically. Oversized requests (cost > burst) are admitted on a
/// full bucket and paid off as debt, so a single large batch can't wedge the
/// head of a wait queue forever — unless the rate is 0, where nothing beyond
/// the initial burst is ever admitted.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst, std::uint64_t now_micros) {
    reset(rate_per_sec, burst, now_micros);
  }

  void reset(double rate_per_sec, double burst, std::uint64_t now_micros) {
    rate_ = rate_per_sec;
    burst_ = burst;
    tokens_ = burst;
    last_micros_ = now_micros;
  }

  [[nodiscard]] bool unlimited() const noexcept {
    return rate_ == kUnlimitedRate;
  }

  /// Refill to `now`, then consume `cost` if admissible.
  bool try_consume(double cost, std::uint64_t now_micros) {
    if (unlimited() || cost <= 0) return true;
    refill(now_micros);
    const bool oversized_ok = rate_ > 0 && cost > burst_ && tokens_ >= burst_;
    if (tokens_ >= cost || oversized_ok) {
      tokens_ -= cost;  // may go negative: debt repaid by future refills
      return true;
    }
    return false;
  }

  /// Micros until try_consume(cost) could succeed (0 = now; UINT64_MAX =
  /// never, i.e. a zero-rate bucket that can't cover the cost).
  [[nodiscard]] std::uint64_t micros_until(double cost,
                                           std::uint64_t now_micros) {
    if (unlimited() || cost <= 0) return 0;
    refill(now_micros);
    // Oversized costs wait for a *full* bucket (see try_consume) — and only
    // refills can fill one, so a zero-rate bucket never admits them.
    if (cost > burst_ && rate_ <= 0)
      return std::numeric_limits<std::uint64_t>::max();
    const double need = (cost > burst_ ? burst_ : cost) - tokens_;
    if (need <= 0) return 0;
    if (rate_ <= 0) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(need / rate_ * 1e6) + 1;
  }

  /// Return tokens to the bucket (capped at burst) — undoes a consume when
  /// a sibling bucket refused its half of the cost.
  void refund(double cost) noexcept {
    if (unlimited() || cost <= 0) return;
    tokens_ = std::min(burst_, tokens_ + cost);
  }

  [[nodiscard]] double tokens() const noexcept { return tokens_; }

 private:
  void refill(std::uint64_t now_micros) {
    if (now_micros <= last_micros_) return;
    const double dt = static_cast<double>(now_micros - last_micros_);
    last_micros_ = now_micros;
    if (rate_ <= 0) return;
    tokens_ = std::min(burst_, tokens_ + rate_ * dt / 1e6);
  }

  double rate_ = kUnlimitedRate;
  double burst_ = 0;
  double tokens_ = 0;
  std::uint64_t last_micros_ = 0;
};

/// Admission verdict for one foreground op.
enum class Admission : std::uint8_t {
  kAdmitted,  ///< dispatch now
  kQueued,    ///< the gate kept the release thunk; the pacer will dispatch it
  kRejected,  ///< wait queue full — fail the op with ErrorCode::kThrottled
};

/// Monitoring snapshot of one volume's gate.
struct QosSnapshot {
  bool enabled = false;
  TenantQos qos{};
  std::uint64_t admitted = 0;  ///< ops that passed the buckets directly
  std::uint64_t queued = 0;    ///< ops that waited for tokens
  std::uint64_t released = 0;  ///< queued ops since dispatched
  std::uint64_t rejected = 0;  ///< ops refused with kThrottled
  std::size_t wait_depth = 0;  ///< ops currently waiting
};

/// The per-volume QoS gate: buckets + bounded wait queue. Admission runs on
/// API threads; drain() runs on the service's pacer thread; close() runs on
/// the volume-lifecycle paths. All three serialize on one small mutex; the
/// no-QoS fast path is a single relaxed atomic load.
class QosGate {
 public:
  /// Install (or replace) the tenant's QoS. Buckets reset to the new burst;
  /// ops already waiting stay queued and drain under the new rates.
  void configure(const TenantQos& qos, std::uint64_t now_micros);

  /// Gate one op. kAdmitted: `release` (which enqueues the op on its
  /// shard) was invoked inline, under the gate mutex — admission and
  /// dispatch are atomic, so a queued neighbour can never be overtaken.
  /// kQueued: the gate kept the thunk for the pacer. kRejected: the thunk
  /// was dropped; fail the op with ErrorCode::kThrottled.
  Admission admit(double ops_cost, double bytes_cost, std::uint64_t now_micros,
                  std::function<void()>&& release);

  /// Dispatch every waiting op whose cost now fits, in FIFO order. Called
  /// periodically by the pacer.
  void drain(std::uint64_t now_micros);

  /// Disable QoS. `flush` dispatches the remaining waiters in order (the
  /// throttle→unthrottle transition and volume close/teardown both must not
  /// strand promises); the released ops do not consume tokens.
  void clear(bool flush = true);

  [[nodiscard]] QosSnapshot snapshot() const;

  /// True when admit() must be consulted (QoS enabled, or leftover waiters
  /// still draining). Relaxed: a racing configure() is visible to the next
  /// op, exactly like any op/configure race.
  [[nodiscard]] bool gated() const noexcept {
    return gated_.load(std::memory_order_acquire);
  }

  /// The ops-queued and ops-rejected counters (fetch_add on API threads):
  /// VolumeManager attaches them as the tenant's throttle series.
  [[nodiscard]] const std::atomic<std::uint64_t>& queued_counter()
      const noexcept {
    return queued_;
  }
  [[nodiscard]] const std::atomic<std::uint64_t>& rejected_counter()
      const noexcept {
    return rejected_;
  }

 private:
  struct Waiter {
    double ops_cost = 0;
    double bytes_cost = 0;
    std::function<void()> release;
  };

  void update_gated() {
    gated_.store(enabled_ || !waiters_.empty(), std::memory_order_release);
  }

  mutable std::mutex mu_;
  bool enabled_ = false;
  TenantQos qos_{};
  TokenBucket ops_bucket_;
  TokenBucket bytes_bucket_;
  std::deque<Waiter> waiters_;
  std::atomic<bool> gated_{false};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// Throws std::invalid_argument on nonsensical settings (negative or NaN
/// rates/bursts, zero weight, zero wait queue).
void validate_qos(const TenantQos& qos);

}  // namespace backlog::service
