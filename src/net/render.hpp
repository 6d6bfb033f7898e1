// Text renderers shared by the local CLI and the network server.
//
// backlogctl's inspection subcommands (info, runs, query, scan, maintain,
// dump-run) print human-readable reports. With --connect those same reports
// are rendered *server-side* — on the shard thread that owns the volume,
// via VolumeManager::with_db / with_env — and shipped back as one text
// payload, so the remote CLI prints byte-identical output to the local one.
// Keeping both paths on these functions is what enforces that.
#pragma once

#include <string>

#include "core/backlog_db.hpp"
#include "service/service_stats.hpp"
#include "service/trace.hpp"
#include "service/volume_manager.hpp"
#include "storage/env.hpp"

namespace backlog::net {

/// `backlogctl info`: CP, stats, snapshot lines. `label` names the volume
/// in the header (the local CLI passes the directory, the server the
/// tenant name).
std::string render_info(core::BacklogDb& db, const std::string& label);

/// `backlogctl runs`: every .run file with record/byte counts + block range.
std::string render_runs(storage::Env& env);

/// `backlogctl query`: masked owner-query entries, one per line.
std::string render_query(const std::vector<core::BackrefEntry>& entries);

/// `backlogctl raw` / `scan`: joined records, one per line.
std::string render_records(const std::vector<core::CombinedRecord>& records,
                           bool indent);

/// `backlogctl maintain`: the maintenance report.
std::string render_maintenance(const core::MaintenanceStats& m);

/// `backlogctl dump-run`: decode one run file record by record.
std::string render_dump_run(storage::Env& env, const std::string& file);

/// `backlogctl stats`: the ServiceStats snapshot as the per-tenant table
/// plus the lifetime total (or one JSON object with json=true).
std::string render_stats(const service::ServiceStats& stats, bool json);

/// `backlogctl cache`: the shared block cache's counters plus each hosted
/// volume's result-cache counters (or one JSON object with json=true).
std::string render_cache(const service::VolumeManager::CacheReport& report,
                         bool json);

/// `backlogctl trace`: sampled spans + slow-op log. `sample`/`slow_us`
/// label the report headers (they are the knobs the run used).
std::string render_trace(const std::vector<service::TraceSpan>& spans,
                         const std::vector<service::TraceSpan>& slow,
                         std::uint64_t sample, std::uint64_t slow_us);

}  // namespace backlog::net
