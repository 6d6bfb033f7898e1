// FaultPoints — the one fault-injection registry. Every injection point is
// declared once in kFaultPoints under a dotted name whose prefix is its
// layer: env.* (storage::Env file operations), wal.* (the service's WAL),
// cp.* (inside BacklogDb::consistency_point) and clone.* (clone_volume's
// commit sequence). A site holds a borrowed `FaultPoints*`, null in
// production (one pointer test); with nothing armed at the point a hit is
// one relaxed atomic load — no lock, no string hashing, no std::function.
// An armed action runs a callback on the hitting thread (crash tests _exit
// in it, latency tests sleep in it) or fails the operation with an errno.
#pragma once

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace backlog::util {

/// Every injection point, in pipeline order within each layer.
inline constexpr std::array<std::string_view, 14> kFaultPoints = {
    "env.create",         "env.link",
    "env.copy",           "env.append",
    "env.sync",           "env.rename",
    "env.delete",         "wal.appended",
    "wal.synced",         "wal.truncated",
    "cp.flushed",         "cp.registry_persisted",
    "clone.files_staged", "clone.committed",
};

static_assert(kFaultPoints.size() <= 32, "the armed mask is one word");
static_assert(
    [] {
      for (std::size_t i = 0; i < kFaultPoints.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
          if (kFaultPoints[i] == kFaultPoints[j]) return false;
      return true;
    }(),
    "fault point names must be unique");

/// Index of the declared point `name`; an undeclared name does not compile.
consteval std::size_t fault_point(std::string_view name) {
  for (std::size_t i = 0; i < kFaultPoints.size(); ++i)
    if (kFaultPoints[i] == name) return i;
  throw std::invalid_argument("undeclared fault point");
}

/// What an armed point does when it fires.
struct FaultAction {
  enum class Kind : std::uint8_t {
    kCallback,    ///< run `callback` on the hitting thread
    kFail,        ///< the operation fails with `err` before it writes
    kShortWrite,  ///< env.append: half the data lands, then `err`
    kTornPage,    ///< env.append: half of one 4 KB page lands, then `err`
  };
  Kind kind = Kind::kCallback;
  std::function<void()> callback;
  int err = EIO;
  /// Hits that pass untouched before the action fires.
  std::uint64_t after = 0;
  /// Keep firing after the first time; false fires once, then disarms. A
  /// sticky short write or torn page tears once, then fails plainly, as a
  /// dying disk does.
  bool sticky = true;
  /// Fire only for this volume; empty fires for every volume.
  std::string volume;

  /// Builders, e.g. FaultAction::fail(EXDEV).on("beta").once().
  static FaultAction call(std::function<void()> fn) {
    FaultAction a;
    a.callback = std::move(fn);
    return a;
  }
  static FaultAction fail(int err = EIO, Kind kind = Kind::kFail) {
    FaultAction a;
    a.kind = kind;
    a.err = err;
    return a;
  }
  FaultAction on(std::string v) && {
    volume = std::move(v);
    return std::move(*this);
  }
  FaultAction skip(std::uint64_t n) && { after = n; return std::move(*this); }
  FaultAction once() && { sticky = false; return std::move(*this); }
};

/// The failure a hit asks its site to inject; `err == 0` means none.
struct InjectedFault {
  FaultAction::Kind kind = FaultAction::Kind::kFail;
  int err = 0;
  explicit operator bool() const noexcept { return err != 0; }
};

class FaultPoints {
 public:
  using Id = std::uint64_t;

  /// Arms `action` at `point`; returns its id. Throws std::invalid_argument
  /// for an undeclared point, a callback action without a callback, or a
  /// failure with errno 0.
  Id arm(std::string_view point, FaultAction action);

  /// Removes one action; a no-op once a one-shot action has fired.
  void disarm(Id id);

  /// Fires `point` for `volume`: runs the callbacks that fire on this hit
  /// and returns the failure that fires, if any, for the site to apply.
  [[nodiscard]] InjectedFault hit(std::size_t point, std::string_view volume) {
    if ((armed_.load(std::memory_order_relaxed) & (1u << point)) == 0)
      return {};
    return hit_armed(point, volume);
  }

  /// hit() for sites without a partial outcome: a failure throws
  /// std::system_error carrying its errno.
  void check(std::size_t point, std::string_view volume) {
    if ((armed_.load(std::memory_order_relaxed) & (1u << point)) == 0)
      return;
    throw_if(hit_armed(point, volume), point, volume);
  }

 private:
  struct Armed {
    Id id;
    std::size_t point;
    FaultAction action;
    std::uint64_t seen;
  };

  InjectedFault hit_armed(std::size_t point, std::string_view volume);
  static void throw_if(InjectedFault fault, std::size_t point,
                       std::string_view volume);
  void refresh_mask_locked();

  std::mutex mu_;
  std::vector<Armed> actions_;
  Id next_id_ = 1;
  std::atomic<std::uint32_t> armed_{0};  ///< bit i: point i has an action
};

}  // namespace backlog::util
