// Per-op tracing: sampled, allocation-free span records for every service
// verb, answering "why was this op slow?" after the fact.
//
// Life of a span: run_on() stamps a TraceCtx at submit time (one clock read)
// and carries it by value inside the op's InlineTask body — no allocation,
// no pointer chasing. When the body runs on its shard the stage boundaries
// fall out of clocks that are already being read (the worker's dispatch
// stamp, the Env's io_micros counter), so a traced op adds exactly one extra
// clock read (the end stamp) over an untraced one. The finished TraceSpan is
// pushed into the executing shard's TraceRing — single-writer, overwrite-
// oldest, never blocking the shard thread — and, when its end-to-end latency
// meets ServiceOptions::slow_op_micros, into the shard's slow-op log as
// well. Because the ctx rides inside the task, a span survives a migration
// park/replay intact: the stage breakdown of an op that crossed a live
// handoff shows the park window as queue wait and flags `migrated`.
//
// Stages (all microseconds, summing exactly to end-to-end):
//   gate_wait    submit -> QoS gate admit (0 when the op was not throttled)
//   queue_wait   admit -> shard thread picks the task up (park time included)
//   execute      on-shard run of the verb, split into:
//     io           wall time inside Env read/write/fsync syscalls
//     core         execute - io: apply/query/CP CPU work
//   commit_wait  end of execute -> durable ack: a WAL'd update parked for
//                the shard's group-commit sweep (0 for every other op, and
//                for updates acked inside execute: no WAL, window 0 or an
//                error)
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace backlog::service {

/// Which service verb a span measured.
enum class TraceVerb : std::uint8_t {
  kApplyBatch,
  kQueryBatch,
  kCp,
  kSnapshot,
  kMaintenance,
  kControl,  ///< clone/destroy/scan and other control-plane verbs
};

[[nodiscard]] const char* to_string(TraceVerb v) noexcept;

/// Submit-side context carried by value inside the op's task body (~40
/// bytes). `active` ops are stage-stamped; of those, `sampled` ones land in
/// the trace ring while *every* active op is checked against the slow-op
/// threshold (forensics must not depend on sampling luck).
struct TraceCtx {
  std::uint64_t id = 0;        ///< service-unique span id
  std::uint64_t t_submit = 0;  ///< steady-clock µs at run_on entry
  std::uint64_t t_admit = 0;   ///< stamped by the QoS release thunk; 0 = ungated
  std::uint32_t ops = 1;       ///< batch size; 1 for a control verb
  std::uint16_t submit_shard = 0;
  TraceVerb verb = TraceVerb::kControl;
  bool active = false;
  bool sampled = false;
};

/// A finished per-op span. Fixed-size and self-contained (tenant name is a
/// truncated char array) so ring writes never allocate.
struct TraceSpan {
  std::uint64_t id = 0;
  std::uint64_t t_submit = 0;         ///< steady-clock µs (same epoch as util::now_micros)
  std::uint64_t gate_wait_micros = 0;
  std::uint64_t queue_wait_micros = 0;
  std::uint64_t execute_micros = 0;   ///< on-shard run, IO included
  std::uint64_t io_micros = 0;        ///< Env syscall time within execute
  std::uint64_t commit_wait_micros = 0;  ///< execute end -> group-commit ack
  std::uint32_t ops = 1;
  std::uint16_t submit_shard = 0;
  std::uint16_t exec_shard = 0;
  TraceVerb verb = TraceVerb::kControl;
  bool migrated = false;              ///< replayed on a different shard (park/replay)
  bool slow = false;                  ///< met the slow-op threshold
  char tenant[24] = {};               ///< truncated, always NUL-terminated

  [[nodiscard]] std::uint64_t end_to_end_micros() const noexcept {
    return gate_wait_micros + queue_wait_micros + execute_micros +
           commit_wait_micros;
  }
  [[nodiscard]] std::uint64_t core_micros() const noexcept {
    return execute_micros - io_micros;
  }

  void set_tenant(const std::string& name) noexcept;
};

/// One human-readable record per span — the slow-op log format (documented
/// in README "Observability"; ordinary sampled spans print "span" instead of
/// "slow-op"):
///   slow-op id=7 verb=query_batch tenant=t0 ops=1 shard=0->1 migrated
///     gate=0us queue=521us exec=130us (io=90us core=40us) commit=0us e2e=651us
[[nodiscard]] std::string format_span(const TraceSpan& s);

/// Fixed-capacity overwrite-oldest span ring. Written exclusively by the
/// owning shard's thread and read by tasks running *on* that thread
/// (VolumeManager::trace_spans() scrapes the same way stats() does), so no
/// synchronization exists and a push can never block the shard.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  /// Records `s`, overwriting the oldest span when full. Returns true when
  /// an unread span was evicted to make room.
  bool push(const TraceSpan& s) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept {
    return recorded_ > slots_.size() ? recorded_ - slots_.size() : 0;
  }

  /// Spans oldest -> newest.
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;

 private:
  std::vector<TraceSpan> slots_;
  std::size_t next_ = 0;       ///< insertion cursor
  std::uint64_t recorded_ = 0; ///< lifetime pushes
};

/// Runtime tracing knobs, readable from any thread (relaxed atomics; the
/// hot path does two loads when enabled, one when disabled). Seeded from
/// ServiceOptions and adjustable live via VolumeManager::set_tracing().
struct TraceControl {
  std::atomic<std::uint32_t> sample_every{0};   ///< 0 = sampling off
  std::atomic<std::uint64_t> slow_op_micros{0}; ///< 0 = slow-op log off

  /// True when any foreground op should be stage-stamped.
  [[nodiscard]] bool enabled() const noexcept {
    return sample_every.load(std::memory_order_relaxed) != 0 ||
           slow_op_micros.load(std::memory_order_relaxed) != 0;
  }
};

}  // namespace backlog::service
