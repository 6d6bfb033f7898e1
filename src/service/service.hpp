// Umbrella header for the multi-tenant volume service:
//
//   VolumeManager         — hosts N Backlog volumes on a sharded worker pool
//   MaintenanceScheduler  — tenant-fair background compaction
//   Balancer              — autonomous load-balancing placement
//   TenantQos / QosGate   — per-tenant admission control + fair scheduling
//   MetricsRegistry       — named counters/gauges/histograms, per-volume
//                           children, rate poller: each statistic's one record
//   ServiceStats          — snapshot of it: per-tenant rows + lifetime total
//   TraceRing / TraceSpan — sampled per-op tracing and slow-op forensics
//
// See volume_manager.hpp for the threading model.
#pragma once

#include "service/balancer.hpp"
#include "service/maintenance_scheduler.hpp"
#include "service/metrics.hpp"
#include "service/qos.hpp"
#include "service/service_stats.hpp"
#include "service/shard_queue.hpp"
#include "service/trace.hpp"
#include "service/volume_manager.hpp"
#include "service/worker_pool.hpp"
