#include "service/maintenance_scheduler.hpp"

namespace backlog::service {

MaintenanceScheduler::MaintenanceScheduler(VolumeManager& vm,
                                           MaintenancePolicy policy)
    : vm_(vm),
      policy_(policy),
      metric_slot_(vm.metrics().slots() - 1),
      m_sweeps_(&vm.metrics().counter("backlog_maintenance_sweeps_total",
                                      "Scheduler sweeps over the tenant list")),
      m_probes_(&vm.metrics().counter(
          "backlog_maintenance_probes_total",
          "Background maintenance probes handed to shards")),
      tick_(vm.ticker().every(policy_.poll_interval, [this] { sweep(); })) {}

MaintenanceScheduler::~MaintenanceScheduler() { stop(); }

void MaintenanceScheduler::stop() { vm_.ticker().cancel(tick_); }

void MaintenanceScheduler::sweep() {
  const std::vector<std::string> tenants = vm_.tenants();
  if (!tenants.empty()) {
    std::size_t handed_out = 0;
    const std::size_t start = cursor_ % tenants.size();
    for (std::size_t i = 0;
         i < tenants.size() && handed_out < policy_.budget_per_sweep; ++i) {
      const std::size_t idx = (start + i) % tenants.size();
      if (vm_.schedule_maintenance(tenants[idx], policy_)) {
        ++handed_out;
        m_probes_->add(metric_slot_);
        // Next sweep resumes after the tenant just served.
        cursor_ = idx + 1;
      }
    }
    if (handed_out == 0) cursor_ = start + 1;
  }
  m_sweeps_->add(metric_slot_);
}

}  // namespace backlog::service
