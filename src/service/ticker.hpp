// Ticker — the one thread that runs the service's periodic loops.
//
// VolumeManager owns one. The QoS pacer, the MaintenanceScheduler sweep and
// the Balancer cycle are registrations on it rather than threads of their
// own, so all of the service's timing lives in one place.
//
// Callbacks run one at a time on the ticker's thread, with fixed-delay
// timing: a callback is next due one period after its previous run
// *returned*, so an overrunning callback never runs twice back to back. The
// earliest due time is found by scanning a small vector (the service makes
// at most three registrations), and the thread starts at the first
// registration, so a service with no periodic work starts no thread.
//
// Sharing one thread means one callback can delay the others. Only the
// Balancer's cycle can block: migrate_volume() waits for the source shard's
// drain barrier, which includes waiting for a killed shard to restart.
// While it does, the pacer and the maintenance sweep run late by that one
// handoff. No configuration in this repository runs a rate-limited tenant
// beside a running balancer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace backlog::service {

class Ticker {
 public:
  using Clock = std::chrono::steady_clock;
  /// Registration handle; never 0, so callers may use 0 for "none".
  using Id = std::uint64_t;

  Ticker() = default;
  ~Ticker();  ///< stop()

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Run `fn` every `period` (first run one period from now). An exception
  /// `fn` throws is printed to stderr and does not cancel it. Throws
  /// std::invalid_argument when `period` is not positive.
  Id every(Clock::duration period, std::function<void()> fn);

  /// Remove a registration (a no-op for an unknown id). If its callback is
  /// running, waits for it to return, and for no other callback; once this
  /// returns the callback never runs again. Not to be called from the
  /// callback it cancels, which would wait for itself.
  void cancel(Id id);

  /// Stop and join the thread (idempotent). A running callback finishes
  /// first; no callback runs afterwards.
  void stop();

 private:
  void loop();

  struct Entry {
    Id id;
    Clock::duration period;
    Clock::time_point due;
    std::function<void()> fn;  ///< moved out while it runs
  };

  std::mutex mu_;
  std::condition_variable cv_;  ///< new entry, stop, or a run that ended
  std::vector<Entry> entries_;
  std::optional<Id> running_;
  Id next_id_ = 1;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace backlog::service
