// Per-shard task queue of the volume service's worker pool.
//
// Work is organized into *flows* (one flow per hosted volume) scheduled by
// weighted stride scheduling: each flow carries a virtual pass time advanced
// by 1/weight per dequeued task, and the dequeue always serves the
// backlogged flow with the smallest pass. Within a flow tasks are strictly
// FIFO — the service's per-tenant ordering guarantee, which covers every op
// of a volume, its maintenance probes included — while across flows a
// tenant with a thousand queued tasks shares the shard with a tenant that
// has one: the weighted-fair half of per-tenant QoS (see qos.hpp; the other
// half, token-bucket admission, runs before tasks ever reach this queue). A
// flow that drains is forgotten; when it reappears it joins at the current
// virtual time, so idling earns no credit and a returning flow can't starve
// the shard.
//
// Hot-path shape: tasks are InlineTask — no allocation on push for the
// service's dispatch wrappers — and the storage is RingDeque, which reuses
// its slots at steady state (see task.hpp). The consumer drains in
// *chunks*: pop_many() moves up to K runnable tasks out under one lock
// acquisition, selecting per task exactly as pop() would (stride fairness
// is applied inside the chunk, so chunking changes the locking, never the
// schedule), and the worker runs the chunk without re-locking. One mutex
// round-trip then costs 1/K of a task instead of a whole one.
//
// Producers are arbitrary API threads and the MaintenanceScheduler; the
// single consumer is the shard's worker thread (MPSC), which is what lets
// hosted BacklogDb instances stay lock-free. During a tenant migration,
// tasks that race the handoff are parked at the VolumeManager routing layer
// and replayed here in submission order — a queue never sees two shards'
// worth of one tenant's work interleaved.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "service/task.hpp"

namespace backlog::service {

using Task = InlineTask;

class ShardQueue {
 public:
  /// Enqueue a task on flow `flow` (0 = the shared default flow).
  /// `weight` is the flow's current fair-share weight; the latest push wins,
  /// so a QoS change applies from the next dequeue on.
  void push(Task t, std::uint64_t flow = 0, std::uint32_t weight = 1) {
    {
      std::lock_guard lock(mu_);
      Flow& f = flows_[flow];
      if (f.q.empty()) {
        // A (re)joining flow keeps its old finish tag if the shard's
        // virtual time hasn't caught up yet — a flow that just ran must
        // not leapfrog a backlogged neighbour by briefly going empty (the
        // sequential-caller ping-pong) — and otherwise starts at the
        // current virtual time: no credit for idling.
        f.pass = std::max(f.pass, virtual_time_);
      }
      f.weight = weight == 0 ? 1 : weight;
      f.q.push_back(std::move(t));
      ++size_;
      depth_.store(size_, std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Blocks until a task is available; returns an empty task only once the
  /// queue is closed *and* fully drained (pending tasks still run).
  Task pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || size_ > 0; });
    Task t = take_locked();
    depth_.store(size_, std::memory_order_relaxed);
    return t;
  }

  /// Chunked dequeue: blocks like pop(), then moves up to `max` runnable
  /// tasks into `out` under the one lock acquisition. Returns the number
  /// moved — 0 only once the queue is closed and drained. Task selection is
  /// per-task identical to repeated pop() calls.
  std::size_t pop_many(std::vector<Task>& out, std::size_t max) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || size_ > 0; });
    std::size_t n = 0;
    while (n < max) {
      Task t = take_locked();
      if (!t) break;
      out.push_back(std::move(t));
      ++n;
    }
    depth_.store(size_, std::memory_order_relaxed);
    return n;
  }

  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Pending tasks — the balancer's queue-depth load signal.
  [[nodiscard]] std::size_t depth() const {
    std::lock_guard lock(mu_);
    return size_;
  }

  /// Lock-free approximation of depth() (one relaxed load), for hot-path
  /// heuristics: the submit path reads it to decide whether a task will
  /// actually wait (and so whether the queue-wait stamp is worth taking).
  /// Racy by nature — a stats heuristic, never a scheduling input.
  [[nodiscard]] std::size_t depth_approx() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  struct Flow {
    RingDeque<Task> q;
    double pass = 0;
    std::uint32_t weight = 1;
  };

  /// One scheduling decision (caller holds mu_): the next task of the
  /// smallest-pass flow. Empty task = nothing runnable.
  Task take_locked() {
    if (size_ == 0) return {};
    // Serve the backlogged flow with the smallest pass; ties go to the
    // first flow in id order. Empty flows linger until virtual time
    // passes their finish tag (see push) and are purged here. Linear
    // scan: the map holds at most the volumes of one shard, typically a
    // handful.
    auto best = flows_.end();
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.q.empty()) {
        if (it->second.pass <= virtual_time_) {
          it = flows_.erase(it);
          continue;
        }
      } else if (best == flows_.end() ||
                 it->second.pass < best->second.pass) {
        best = it;
      }
      ++it;
    }
    Flow& f = best->second;
    virtual_time_ = std::max(virtual_time_, f.pass);
    f.pass += 1.0 / f.weight;
    --size_;
    return f.q.pop_front();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Flow> flows_;  // only flows with queued work
  std::size_t size_ = 0;
  std::atomic<std::size_t> depth_{0};  // size_ mirror for depth_approx()
  double virtual_time_ = 0;
  bool closed_ = false;
};

}  // namespace backlog::service
