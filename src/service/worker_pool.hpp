// Fixed worker pool: one thread per shard, each draining its own ShardQueue.
//
// Shard-per-thread (the ScyllaDB idiom): at any moment every hosted volume
// is owned by exactly one shard, all of its tasks execute on that shard's
// thread, and so the single-threaded BacklogDb needs no internal locking.
// The pool is sized once at service start; ownership of a volume can move
// between shards at runtime via VolumeManager::migrate_volume(), whose
// drain/replay handoff guarantees the old and new owner never touch the
// volume concurrently.
//
// Drain loop: the worker pops tasks in chunks of up to kDequeueChunk via
// ShardQueue::pop_many — one mutex/condvar round-trip per chunk instead of
// per task — and runs the chunk lock-free. The loop
// also owns the hot path's only clock reads: it timestamps once per task
// *boundary* (task i's end is task i+1's start), feeding both the per-shard
// execution-time EWMA and, through dispatch_time_micros(), the queue-wait
// histograms — the submit path no longer re-reads the clock at execution.
//
// With `pin_threads`, shard i is pinned via pthread_setaffinity_np to the
// i-th (mod count) CPU of the process's *allowed* set — enumerated from
// sched_getaffinity, so cpuset-restricted containers with non-contiguous
// masks pin correctly. A shard's working set (write stores, page cache
// shards, queue) then stays on one core's caches instead of bouncing
// wherever the scheduler wanders (first step of the ROADMAP's NUMA-aware
// placement; Linux-only, silently unpinned elsewhere).
//
// Each shard additionally maintains two cheap load signals for the
// Balancer: its queue depth (pending tasks) and an EWMA of task execution
// time, updated by the worker thread after every task (alpha = 1/8, relaxed
// atomics — the balancer only needs a trend, not a fence).
//
// Chaos hooks (the fleet_sim PR): kill_shard()/restart_shard() stop and
// re-spawn a single shard's worker thread while its queue stays open, so
// tasks submitted against a dead shard accumulate and execute — late — once
// the shard returns. That is exactly the failure mode an open-loop load
// generator needs to observe: a crashed worker shows up as queue-wait, not
// as lost operations. The destructor restarts any dead shard before closing
// queues, so a pool torn down mid-kill still drains every pending promise.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/shard_queue.hpp"

namespace backlog::service {

class WorkerPool {
 public:
  /// Most tasks a worker pops per queue lock acquisition.
  static constexpr std::size_t kDequeueChunk = 16;

  explicit WorkerPool(std::size_t shards, bool pin_threads = false);
  /// Closes every queue, drains pending tasks, joins the threads.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }

  /// True when thread pinning was requested and applied to every shard.
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }

  /// Sentinel returned by current_shard() off the pool's threads.
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  /// Shard index of the calling worker thread (kNoShard for API threads):
  /// the metrics slot a task writes, the group-commit window an append
  /// joins, and the shard a trace span reports as its executor.
  [[nodiscard]] static std::size_t current_shard() noexcept;

  /// Monotonic micros at which the currently executing task was handed to
  /// its task body (the worker's task-boundary timestamp). Only meaningful
  /// on a pool thread, from inside a task: bodies use it to compute queue
  /// wait without a second clock read. 0 off the pool's threads.
  [[nodiscard]] static std::uint64_t dispatch_time_micros() noexcept;

  /// `flow`/`weight`: the weighted-fair scheduling identity of the task
  /// (one flow per volume; see shard_queue.hpp).
  void submit(std::size_t shard, Task t, std::uint64_t flow = 0,
              std::uint32_t weight = 1) {
    shards_[shard]->queue.push(std::move(t), flow, weight);
  }

  // --- chaos hooks (fault injection) -----------------------------------------

  /// Stops shard `shard`'s worker thread at its next chunk boundary and
  /// joins it. The queue stays open: submissions keep enqueueing and no
  /// pending task is dropped — they simply wait until restart_shard().
  /// Returns false if the shard is already dead. Must not be called from a
  /// pool thread (it joins the worker).
  bool kill_shard(std::size_t shard);

  /// Spawns a fresh worker thread on a dead shard's surviving queue (and
  /// re-pins it when pinning is on). Everything queued while the shard was
  /// dead now executes, with the accumulated wait visible to the queue-wait
  /// histograms. Returns false if the shard is already alive.
  bool restart_shard(std::size_t shard);

  /// True while the shard has a live worker thread.
  [[nodiscard]] bool shard_alive(std::size_t shard) const noexcept {
    return shards_[shard]->alive.load(std::memory_order_acquire);
  }

  // --- load signals (Balancer) -----------------------------------------------

  [[nodiscard]] std::size_t queue_depth(std::size_t shard) const {
    return shards_[shard]->queue.depth();
  }

  /// Lock-free busyness approximation — the submit path's "will this task
  /// actually wait?" heuristic. Counts queued tasks (ShardQueue::
  /// depth_approx) plus the worker's popped-but-not-finished chunk
  /// remainder: a task submitted while a chunk (or one long task) executes
  /// waits behind it even though the queue itself reads empty.
  [[nodiscard]] std::size_t queue_depth_approx(std::size_t shard) const {
    const Shard& s = *shards_[shard];
    return s.queue.depth_approx() +
           s.inflight.load(std::memory_order_relaxed);
  }

  /// EWMA of this shard's task execution time in microseconds (0 until the
  /// shard has run its first task).
  [[nodiscard]] std::uint64_t latency_ewma_micros(std::size_t shard) const {
    return shards_[shard]->ewma_micros.load(std::memory_order_relaxed);
  }

  /// Cumulative micros this shard's thread has spent *executing tasks* (the
  /// busy half of its busy/idle clock; blocking pops are idle). Updated from
  /// the task-boundary timestamps the drain loop already reads, so the
  /// signal is free on the hot path. MetricsPoller differences successive
  /// readings against wall time into a busy fraction.
  [[nodiscard]] std::uint64_t busy_micros(std::size_t shard) const {
    return shards_[shard]->busy_micros.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    ShardQueue queue;
    std::atomic<std::uint64_t> ewma_micros{0};
    std::atomic<std::uint64_t> busy_micros{0};
    /// Tasks of the current chunk popped from the queue but not yet
    /// finished (set by the worker after pop_many, decremented per task).
    std::atomic<std::size_t> inflight{0};
    /// kill_shard() raises this; the drain loop checks it at chunk
    /// boundaries (before pop_many, so a stopping worker never strands a
    /// popped-but-unrun task).
    std::atomic<bool> stop{false};
    std::atomic<bool> alive{false};
    std::thread thread;
  };

  /// Spawns (or re-spawns) shard i's worker on its existing queue and
  /// applies pinning. Caller holds lifecycle_mu_; the shard must have no
  /// live thread.
  void start_worker(std::size_t i);

  std::vector<std::unique_ptr<Shard>> shards_;
  bool pin_requested_ = false;
  std::vector<int> pin_cpus_;  ///< allowed CPUs resolved at construction
  bool pinned_ = false;
  /// Serializes kill/restart/teardown; never taken on the hot path.
  mutable std::mutex lifecycle_mu_;
};

}  // namespace backlog::service
