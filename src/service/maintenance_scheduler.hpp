// MaintenanceScheduler — background compaction steering for the service.
//
// A sweep registered on the service's ticker periodically visits the hosted
// volumes and hands out background maintenance probes through
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

#include <cstddef>

#include "service/volume_manager.hpp"

namespace backlog::service {

class MaintenanceScheduler {
 public:
  /// Registers the sweep (every policy.poll_interval) on vm.ticker()
  /// immediately. `vm` must outlive this object.
  explicit MaintenanceScheduler(VolumeManager& vm, MaintenancePolicy policy = {});
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Stop sweeping (idempotent; also called by the destructor): a sweep in
  /// flight finishes first. Probes already queued still run on their shards.
  void stop();

 private:
  void sweep();

  VolumeManager& vm_;
  MaintenancePolicy policy_;
  std::size_t cursor_ = 0;  // round-robin start index into the tenant list
  // Registry counters, bumped only from the sweep via the control slot.
  std::size_t metric_slot_;
  MetricsRegistry::Counter* m_sweeps_;
  MetricsRegistry::Counter* m_probes_;
  Ticker::Id tick_;  // declared last: registered after all state is ready
};

}  // namespace backlog::service
