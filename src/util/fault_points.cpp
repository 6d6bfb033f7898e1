#include "util/fault_points.hpp"

#include <algorithm>
#include <system_error>

namespace backlog::util {

FaultPoints::Id FaultPoints::arm(std::string_view point, FaultAction action) {
  const auto it = std::find(kFaultPoints.begin(), kFaultPoints.end(), point);
  if (it == kFaultPoints.end())
    throw std::invalid_argument("FaultPoints: undeclared point: " +
                                std::string(point));
  if (action.kind == FaultAction::Kind::kCallback ? !action.callback
                                                  : action.err == 0)
    throw std::invalid_argument("FaultPoints: action has nothing to inject");
  std::lock_guard lock(mu_);
  const Id id = next_id_++;
  actions_.push_back({id, static_cast<std::size_t>(it - kFaultPoints.begin()),
                      std::move(action), 0});
  refresh_mask_locked();
  return id;
}

void FaultPoints::disarm(Id id) {
  std::lock_guard lock(mu_);
  std::erase_if(actions_, [id](const Armed& a) { return a.id == id; });
  refresh_mask_locked();
}

void FaultPoints::refresh_mask_locked() {
  std::uint32_t mask = 0;
  for (const Armed& a : actions_) mask |= 1u << a.point;
  armed_.store(mask, std::memory_order_relaxed);
}

InjectedFault FaultPoints::hit_armed(std::size_t point,
                                     std::string_view volume) {
  std::vector<std::function<void()>> callbacks;
  InjectedFault fault;
  {
    std::lock_guard lock(mu_);
    for (auto it = actions_.begin(); it != actions_.end();) {
      FaultAction& a = it->action;
      const bool fires = it->point == point &&
                         (a.volume.empty() || a.volume == volume) &&
                         it->seen++ >= a.after &&
                         // one failure per hit; another waits for the next
                         (a.kind == FaultAction::Kind::kCallback || !fault);
      if (!fires) {
        ++it;
        continue;
      }
      if (a.kind == FaultAction::Kind::kCallback) {
        callbacks.push_back(a.callback);
      } else {
        fault = {a.kind, a.err};
        a.kind = FaultAction::Kind::kFail;  // a sticky tear latches
      }
      it = a.sticky ? it + 1 : actions_.erase(it);
    }
    refresh_mask_locked();
  }
  // Outside the lock: a sleeping callback must not stall other hits.
  for (const auto& cb : callbacks) cb();
  return fault;
}

void FaultPoints::throw_if(InjectedFault fault, std::size_t point,
                           std::string_view volume) {
  if (!fault) return;
  throw std::system_error(fault.err, std::generic_category(),
                          "injected fault at " +
                              std::string(kFaultPoints[point]) + " (volume '" +
                              std::string(volume) + "')");
}

}  // namespace backlog::util
