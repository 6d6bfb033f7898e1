// The service hot path's task plumbing: a small-buffer-optimized task type
// and a reusable ring deque, shared by ShardQueue and WorkerPool.
//
// The original queue carried std::function<void()> per operation. That type
// erases through a 16-byte inline buffer, so every real task body — a verb
// lambda plus its promise and volume handle — heap-allocated at enqueue and
// freed at execute. InlineTask replaces it with a move-only callable whose
// inline buffer is sized for the service's op task (a verb body with its
// volume handle, promise and trace context; see VolumeManager::run_on), so
// the steady-state enqueue path performs no allocation at all; oversized
// callables (e.g. volume-open tasks capturing paths and options) fall back
// to the heap transparently. RingDeque replaces std::deque as the queue's
// storage: libstdc++'s deque allocates and frees a block every ~512 bytes
// of churn even at constant depth, while a ring reuses its slots forever
// and only reallocates when the peak depth grows.
//
// tests/test_service_batch.cpp pins both properties with a counting
// operator new: pushing and draining a warmed ShardQueue is allocation-free.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace backlog::service {

/// Move-only type-erased `void()` callable with a large inline buffer.
class InlineTask {
 public:
  /// Sized for the op task of the widest common verb body (an apply_batch
  /// body: vector + promise + trace context + service pointer + volume
  /// handle), with headroom so small verb additions don't silently fall
  /// off the fast path.
  static constexpr std::size_t kInlineBytes = 192;

  InlineTask() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineTask(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* p = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof p);
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineTask(InlineTask&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  InlineTask& operator=(InlineTask&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        ops_ = o.ops_;
        ops_->relocate(o.buf_, buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;

  ~InlineTask() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when the callable spilled to the heap (test/diagnostic hook: the
  /// hot path's wrappers must report false).
  [[nodiscard]] bool heap_allocated() const noexcept {
    return ops_ != nullptr && ops_->heap;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn>
  struct InlineModel {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
      static_cast<Fn*>(from)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
  };

  template <typename Fn>
  struct HeapModel {
    static Fn* get(void* p) noexcept {
      Fn* f;
      std::memcpy(&f, p, sizeof f);
      return f;
    }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* from, void* to) noexcept {
      std::memcpy(to, from, sizeof(Fn*));
    }
    static void destroy(void* p) noexcept { delete get(p); }
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{&InlineModel<Fn>::invoke,
                                  &InlineModel<Fn>::relocate,
                                  &InlineModel<Fn>::destroy, false};
  template <typename Fn>
  static constexpr Ops kHeapOps{&HeapModel<Fn>::invoke,
                                &HeapModel<Fn>::relocate,
                                &HeapModel<Fn>::destroy, true};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Power-of-two ring deque: push_back/pop_front with slot reuse. Capacity
/// only ever grows (to the peak depth), so a queue oscillating at constant
/// depth never touches the allocator — the property std::deque lacks.
/// Requires T to be default-constructible and to leave a moved-from value
/// empty/reusable (InlineTask does).
template <typename T>
class RingDeque {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push_back(T t) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(t);
    ++size_;
  }

  T pop_front() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace backlog::service
