// MaintenanceScheduler — background compaction steering for the service.
//
// A single control thread periodically sweeps the hosted volumes and hands
// out background maintenance probes through
// VolumeManager::schedule_maintenance(). Fairness comes from two mechanisms:
//
//  * a per-sweep budget (MaintenancePolicy::budget_per_sweep) bounds how many
//    probes enter the shard queues at once, so compaction — which can take
//    orders of magnitude longer than a query — never floods a shard;
//  * sweeps start from a rotating round-robin cursor, so under sustained
//    pressure every tenant gets its turn regardless of name order or how
//    loud its neighbours are.
//
// The probes themselves re-check the volume's QuickStats on the shard and
// no-op below threshold, so an over-eager sweep costs one queue hop, not a
// compaction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "service/volume_manager.hpp"

namespace backlog::service {

class MaintenanceScheduler {
 public:
  /// Starts the sweep thread immediately. `vm` must outlive this object.
  explicit MaintenanceScheduler(VolumeManager& vm, MaintenancePolicy policy = {});
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Stop sweeping (idempotent; also called by the destructor). Probes
  /// already queued still run on their shards.
  void stop();

  [[nodiscard]] std::uint64_t sweeps() const noexcept {
    return sweeps_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  VolumeManager& vm_;
  MaintenancePolicy policy_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t cursor_ = 0;  // round-robin start index into the tenant list
  std::atomic<std::uint64_t> sweeps_{0};
  // Registry mirrors, bumped only from the (single) sweep thread via the
  // control slot.
  std::size_t metric_slot_;
  MetricsRegistry::Counter* m_sweeps_;
  MetricsRegistry::Counter* m_probes_;
  std::thread thread_;  // declared last: starts after all state is ready
};

}  // namespace backlog::service
