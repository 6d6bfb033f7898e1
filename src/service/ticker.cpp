#include "service/ticker.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace backlog::service {

Ticker::~Ticker() { stop(); }

Ticker::Id Ticker::every(Clock::duration period, std::function<void()> fn) {
  if (period <= Clock::duration::zero())
    throw std::invalid_argument("Ticker::every: period must be positive");
  const std::lock_guard lock(mu_);
  const Id id = next_id_++;
  entries_.push_back({id, period, Clock::now() + period, std::move(fn)});
  if (!thread_.joinable() && !stopping_)
    thread_ = std::thread([this] { loop(); });
  cv_.notify_all();
  return id;
}

void Ticker::cancel(Id id) {
  std::unique_lock lock(mu_);
  std::erase_if(entries_, [id](const Entry& e) { return e.id == id; });
  cv_.wait(lock, [&] { return running_ != id; });
}

void Ticker::stop() {
  std::thread t;
  {
    const std::lock_guard lock(mu_);
    stopping_ = true;
    t = std::move(thread_);
  }
  cv_.notify_all();
  if (t.joinable()) t.join();
}

void Ticker::loop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    const auto next = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.due < b.due; });
    if (next == entries_.end()) {
      cv_.wait(lock);
      continue;
    }
    // A copy: every() may regrow entries_ while this waits.
    const Clock::time_point due = next->due;
    if (Clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    const Id id = next->id;
    std::function<void()> fn = std::move(next->fn);
    running_ = id;
    lock.unlock();
    try {
      fn();
    } catch (const std::exception& e) {
      // Reported, not fatal: the callback stays registered, and the
      // others keep running.
      std::fprintf(stderr, "backlog: ticker callback failed: %s\n", e.what());
    }
    lock.lock();
    running_.reset();
    // Fixed delay: due again one period after this run returned, unless it
    // was cancelled meanwhile.
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [id](const Entry& e) { return e.id == id; });
    if (it != entries_.end()) {
      it->fn = std::move(fn);
      it->due = Clock::now() + it->period;
    }
    cv_.notify_all();
  }
}

}  // namespace backlog::service
