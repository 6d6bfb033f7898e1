#include "service/worker_pool.hpp"

#include "util/clock.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace backlog::service {

namespace {
thread_local std::size_t tls_shard = WorkerPool::kNoShard;
thread_local std::uint64_t tls_dispatch_micros = 0;

#if defined(__linux__)
/// CPUs the process may actually run on, in id order. Containers and
/// cpuset cgroups hand out non-contiguous masks (e.g. {0, 2}), so pinning
/// must enumerate the allowed set rather than assume ids 0..n-1.
std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

bool pin_to_cpu(std::thread& t, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(t.native_handle(), sizeof set, &set) == 0;
}
#endif
}  // namespace

std::size_t WorkerPool::current_shard() noexcept { return tls_shard; }

std::uint64_t WorkerPool::dispatch_time_micros() noexcept {
  return tls_dispatch_micros;
}

void WorkerPool::start_worker(std::size_t i) {
  Shard* s = shards_[i].get();
  s->stop.store(false, std::memory_order_relaxed);
  // Tasks are exception-safe wrappers (they route failures into their
  // promise), so the drain loop itself never needs a try/catch.
  s->thread = std::thread([s, i] {
    tls_shard = i;
    std::vector<Task> tasks;
    tasks.reserve(kDequeueChunk);
    for (;;) {
      // Chunk-boundary stop check, *before* pop_many: a stopping worker
      // must never pop tasks it won't run (they'd be dropped with broken
      // promises). kill_shard() pushes a no-op after raising the flag, so
      // a worker blocked inside pop_many wakes, runs the chunk, and exits
      // here on the next iteration.
      if (s->stop.load(std::memory_order_acquire)) break;
      tasks.clear();
      const std::size_t n = s->queue.pop_many(tasks, kDequeueChunk);
      if (n == 0) break;  // closed + drained
      // The popped chunk no longer counts in the queue's depth, but a
      // submitter still waits behind it — keep it visible to the
      // queue_depth_approx busyness heuristic until each task finishes.
      s->inflight.store(n, std::memory_order_relaxed);
      // One clock read per task boundary: t_prev is both the start of the
      // next task (exported through dispatch_time_micros for queue-wait
      // accounting) and the end of the previous one (EWMA input). The
      // refresh after the blocking pop keeps idle wait out of the first
      // task's measurement.
      std::uint64_t t_prev = util::now_micros();
      for (Task& t : tasks) {
        tls_dispatch_micros = t_prev;
        t();
        t = Task{};  // release captures now, not at the next blocking pop
        s->inflight.fetch_sub(1, std::memory_order_relaxed);
        const std::uint64_t t_end = util::now_micros();
        const std::uint64_t d = t_end - t_prev;
        t_prev = t_end;
        const std::uint64_t old =
            s->ewma_micros.load(std::memory_order_relaxed);
        s->ewma_micros.store(old == 0 ? d : (7 * old + d) / 8,
                             std::memory_order_relaxed);
        // Busy clock: same `d`, plain relaxed load+store (single writer).
        s->busy_micros.store(
            s->busy_micros.load(std::memory_order_relaxed) + d,
            std::memory_order_relaxed);
      }
    }
  });
#if defined(__linux__)
  if (pin_requested_ && !pin_cpus_.empty()) {
    pinned_ = pin_to_cpu(s->thread, pin_cpus_[i % pin_cpus_.size()]) && pinned_;
  }
#endif
  s->alive.store(true, std::memory_order_release);
}

WorkerPool::WorkerPool(std::size_t shards, std::size_t bg_starvation_limit,
                       bool pin_threads) {
  pin_requested_ = pin_threads;
  if (pin_threads) {
#if defined(__linux__)
    pin_cpus_ = allowed_cpus();
    pinned_ = !pin_cpus_.empty();
#endif
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bg_starvation_limit));
  }
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  for (std::size_t i = 0; i < shards; ++i) start_worker(i);
}

bool WorkerPool::kill_shard(std::size_t shard) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  Shard& s = *shards_[shard];
  if (!s.alive.load(std::memory_order_relaxed)) return false;
  // Flag first, wake second: the no-op guarantees a worker blocked in
  // pop_many observes the flag promptly. If the no-op lands behind real
  // work it simply executes as a (harmless) task, possibly only after
  // restart.
  s.stop.store(true, std::memory_order_release);
  s.queue.push(Task([] {}));
  s.thread.join();
  s.alive.store(false, std::memory_order_release);
  return true;
}

bool WorkerPool::restart_shard(std::size_t shard) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  Shard& s = *shards_[shard];
  if (s.alive.load(std::memory_order_relaxed)) return false;
  start_worker(shard);
  return true;
}

WorkerPool::~WorkerPool() {
  {
    // A pool torn down while a shard is dead must still drain that shard's
    // queue (pending tasks hold promises): bring every worker back before
    // the close/join handshake.
    std::lock_guard<std::mutex> lk(lifecycle_mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i]->alive.load(std::memory_order_relaxed)) start_worker(i);
    }
  }
  for (auto& s : shards_) s->queue.close();
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

}  // namespace backlog::service
