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
      thread_([this] { loop(); }) {}

MaintenanceScheduler::~MaintenanceScheduler() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void MaintenanceScheduler::stop() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

void MaintenanceScheduler::loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, policy_.poll_interval, [&] { return stop_; });
    if (stop_) break;
    lock.unlock();

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
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    m_sweeps_->add(metric_slot_);

    lock.lock();
  }
}

}  // namespace backlog::service
