#include "service/volume_manager.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "util/clock.hpp"

namespace backlog::service {

using util::now_micros;

namespace {

/// Clone-in-progress staging directories: `<dst>.cloning` commits to `<dst>`
/// by an atomic rename; anything still carrying the suffix at construction
/// is a crashed clone and is discarded.
constexpr char kCloneStagingSuffix[] = ".cloning";

/// A name component unique across every volume instance of the service
/// (see BacklogOptions::file_tag): a process-wide random nonce
/// mixed with an instance counter. Uniqueness is what matters — stability
/// across reopens is not (old files keep their recorded names, only newly
/// minted runs carry the new tag).
std::string make_file_tag() {
  static const std::uint64_t nonce = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t v =
      nonce ^ (0x9e3779b97f4a7c15ULL *
               (counter.fetch_add(1, std::memory_order_relaxed) + 1));
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

ServiceOptions validated(ServiceOptions options) {
  if (options.shards == 0)
    throw std::invalid_argument("ServiceOptions: shards must be > 0");
  if (options.root.empty())
    throw std::invalid_argument("ServiceOptions: root must be set");
  return options;
}

/// Hard-links run `name` into `dir` for a clone. Returns false, leaving
/// nothing behind, when the file system cannot link it (EXDEV across
/// devices, EPERM/ENOTSUP where hard links are unsupported, EMLINK at the
/// link limit): the caller byte-copies that file instead. Any other failure
/// throws.
bool link_or_fall_back(storage::Env& env, const std::string& name,
                       const std::filesystem::path& dir) {
  try {
    env.link_file_to(name, dir);
    return true;
  } catch (const std::system_error& e) {
    const std::error_code ec = e.code();
    if (ec == std::errc::cross_device_link ||
        ec == std::errc::operation_not_permitted ||
        ec == std::errc::too_many_links || ec == std::errc::not_supported)
      return false;
    throw;
  }
}

/// The registry family of each per-volume series, in VolumeManager::Counted
/// / Timed order, and the TenantStats field stats() reads it into.
template <typename T>
struct SeriesFamily {
  const char* name;
  const char* help;
  T TenantStats::*field;
};

constexpr SeriesFamily<std::uint64_t> kCountedFamilies[] = {
    {"backlog_updates_total", "Add/remove ops applied", &TenantStats::updates},
    {"backlog_update_batches_total", "Update batches executed",
     &TenantStats::batches},
    {"backlog_cps_total", "Consistency points committed", &TenantStats::cps},
    {"backlog_queries_total", "Owner queries served", &TenantStats::queries},
    {"backlog_snapshots_total", "Snapshots taken", &TenantStats::snapshots},
    {"backlog_clones_total",
     "Writable lines branched (create_clone and clone_volume)",
     &TenantStats::clones},
    {"backlog_snapshot_deletes_total", "Snapshots deleted",
     &TenantStats::snapshot_deletes},
    {"backlog_migrations_total", "Completed live shard handoffs",
     &TenantStats::migrations},
    {"backlog_maintenance_runs_total", "Maintenance passes executed",
     &TenantStats::maintenance_runs},
    {"backlog_maintenance_skipped_total",
     "Background maintenance probes skipped (below threshold, write store "
     "busy or volume wounded)",
     &TenantStats::maintenance_skipped},
    {"backlog_throttle_queued_total", "Ops held by a QoS gate for tokens",
     &TenantStats::throttle_queued},
    {"backlog_throttle_rejected_total",
     "Ops refused with kThrottled (QoS wait queue full)",
     &TenantStats::throttle_rejected},
};

constexpr SeriesFamily<LatencyHistogram> kTimedFamilies[] = {
    {"backlog_update_batch_micros", "On-shard update-batch execution time",
     &TenantStats::update_batch_micros},
    {"backlog_cp_micros", "Consistency-point execution time",
     &TenantStats::cp_micros},
    {"backlog_query_micros", "On-shard query execution time",
     &TenantStats::query_micros},
    {"backlog_maintenance_micros", "Maintenance pass execution time",
     &TenantStats::maintenance_micros},
    {"backlog_queue_wait_micros",
     "Submit-to-execute delay (queue plus gate wait) of waiting ops",
     &TenantStats::queue_wait_micros},
    {"backlog_gate_wait_micros",
     "QoS gate hold time of throttled ops (populated while tracing)",
     &TenantStats::gate_wait_micros},
    {"backlog_commit_wait_micros",
     "Execute-end to durable-ack wait of WAL'd updates (populated while "
     "tracing)",
     &TenantStats::commit_wait_micros},
};

/// Clears the volume's maintenance-pending flag on every exit path of a
/// background probe.
struct PendingGuard {
  std::atomic<bool>& flag;
  ~PendingGuard() { flag.store(false, std::memory_order_release); }
};

}  // namespace

void validate_tenant_name(const std::string& tenant) {
  if (tenant.empty())
    throw std::invalid_argument("tenant name must not be empty");
  if (tenant.size() > 255)
    throw std::invalid_argument("tenant name too long: " + tenant);
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok)
      throw std::invalid_argument(
          "tenant name must be [A-Za-z0-9._-] (it names a directory): " +
          tenant);
  }
  if (tenant == "." || tenant == "..")
    throw std::invalid_argument("tenant name must not be a dot directory");
  if (tenant.ends_with(kCloneStagingSuffix))
    throw std::invalid_argument(
        "tenant name must not end with the reserved clone-staging suffix "
        "'.cloning': " +
        tenant);
}

core::CpFlushStats VolumeManager::commit_cp(Volume& v) {
  throw_if_wounded(v);
  const std::uint64_t t0 = now_micros();
  const core::CpFlushStats s = v.db->consistency_point();
  v.count(kCps);
  v.time(kCpMicros, now_micros() - t0);
  // The committed CP covers every logged op at or below its epoch: the log
  // restarts empty behind it. (A crash between the CP and this reset is
  // benign: replay skips records below the recovered epoch.)
  if (v.wal) {
    v.wal->reset();
    inject(util::fault_point("wal.truncated"), v);
  }
  return s;
}

bool VolumeManager::flush_buffered_cp(Volume& v) {
  if (v.db->quick_stats().ws_entries == 0) return false;
  commit_cp(v);
  return true;
}

VolumeManager::VolumeManager(ServiceOptions options)
    : options_(validated(std::move(options))),
      block_cache_(options_.cache.capacity_bytes,
                   options_.cache.block_cache_shards),
      metrics_(options_.shards + 1),  // one slot per shard + the API slot
      pool_(options_.shards, options_.bg_starvation_limit,
            options_.pin_shards) {
  trace_.sample_every.store(options_.trace_sample_every,
                            std::memory_order_relaxed);
  trace_.slow_op_micros.store(options_.slow_op_micros,
                              std::memory_order_relaxed);
  telemetry_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    telemetry_.push_back(std::make_unique<ShardTelemetry>(
        options_.trace_ring_size, options_.slow_op_ring_size));
  }
  // The per-volume series' families, registered up front so a scrape
  // shows them before any volume opens; each volume attaches its children.
  for (const auto& f : kCountedFamilies) metrics_.counter(f.name, f.help);
  for (const auto& f : kTimedFamilies) metrics_.histogram(f.name, f.help);
  // The service-wide handles (see README "Observability" for the catalog).
  // Registered once here; the verbs bump them with one relaxed store per op.
  hot_.trace_spans = &metrics_.counter("backlog_trace_spans_total",
                                       "Sampled spans recorded");
  hot_.trace_evictions = &metrics_.counter(
      "backlog_trace_evictions_total",
      "Unread spans overwritten in a full trace ring");
  hot_.slow_ops = &metrics_.counter("backlog_slow_ops_total",
                                    "Ops at or over slow_op_micros");
  hot_.shard_kills = &metrics_.counter(
      "backlog_shard_kills_total", "Shard workers stopped by fault injection");
  hot_.shard_restarts = &metrics_.counter(
      "backlog_shard_restarts_total",
      "Shard workers restarted after fault injection");
  hot_.wal_records = &metrics_.counter("backlog_wal_records_total",
                                       "WAL records appended");
  hot_.wal_syncs = &metrics_.counter(
      "backlog_wal_syncs_total",
      "WAL fsync barriers (group commit counts one per dirty volume swept)");
  hot_.wal_replayed_ops = &metrics_.counter(
      "backlog_wal_replayed_ops_total",
      "Update ops replayed from WAL tails at volume open");
  hot_.wal_dropped_bytes = &metrics_.counter(
      "backlog_wal_dropped_bytes_total",
      "WAL tail bytes dropped at volume open as torn, corrupt or foreign");
  hot_.volumes_wounded = &metrics_.counter(
      "backlog_volumes_wounded_total",
      "Volumes flipped read-only by persistent write errors");
  // Block-cache counters live inside BlockCache as relaxed atomics (many
  // writers); the registry exports them through callback gauges evaluated
  // at scrape time instead of mirroring them on the hot path. Monotonic
  // except entries/bytes (and all reset by `backlogctl cache clear`).
  const struct {
    const char* name;
    const char* help;
    std::uint64_t storage::BlockCacheStats::*field;
  } kCacheGauges[] = {
      {"backlog_block_cache_hits", "Shared block cache page hits",
       &storage::BlockCacheStats::hits},
      {"backlog_block_cache_misses",
       "Shared block cache page misses (each one storage read)",
       &storage::BlockCacheStats::misses},
      {"backlog_block_cache_evictions",
       "Pages evicted from the shared block cache (LRU)",
       &storage::BlockCacheStats::evictions},
      {"backlog_block_cache_invalidations",
       "Pages dropped because their file's last link was removed",
       &storage::BlockCacheStats::invalidations},
      {"backlog_block_cache_entries",
       "Pages currently resident in the shared block cache",
       &storage::BlockCacheStats::entries},
      {"backlog_block_cache_bytes",
       "Bytes currently resident in the shared block cache",
       &storage::BlockCacheStats::bytes},
  };
  for (const auto& g : kCacheGauges) {
    metrics_.gauge(g.name, g.help).set_callback([this, field = g.field] {
      return static_cast<double>(block_cache_.stats().*field);
    });
  }
  // Graceful-degradation visibility: how many hosted volumes are currently
  // read-only after persistent write errors. Evaluated at scrape time from
  // the per-volume flags (cheap: one relaxed load per volume under mu_).
  metrics_
      .gauge("backlog_wounded_volumes",
             "Hosted volumes currently read-only after write errors")
      .set_callback([this] {
        std::lock_guard lock(mu_);
        double n = 0;
        for (const auto& [name, vol] : volumes_) {
          if (vol->wounded.load(std::memory_order_relaxed)) ++n;
        }
        return n;
      });
  commit_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i)
    commit_.push_back(std::make_unique<ShardCommit>());
  recover_clone_staging();
}

TraceSpan VolumeManager::end_execute(Volume& v, const TraceCtx& ctx,
                                     std::uint64_t t_exec,
                                     std::uint64_t io_before_micros) noexcept {
  const std::uint64_t t_end = now_micros();
  const std::size_t shard = WorkerPool::current_shard();
  TraceSpan s;
  s.id = ctx.id;
  s.verb = ctx.verb;
  s.ops = ctx.ops;
  s.t_submit = ctx.t_submit;
  s.submit_shard = ctx.submit_shard;
  s.exec_shard = static_cast<std::uint16_t>(shard);
  s.migrated = shard != ctx.submit_shard;
  // Stage boundaries (clamped monotone so a racy stamp can't underflow):
  // gate + queue + execute telescopes back to exactly t_end - t_submit.
  const std::uint64_t admitted =
      ctx.t_admit == 0 ? ctx.t_submit : std::max(ctx.t_admit, ctx.t_submit);
  s.gate_wait_micros = admitted - ctx.t_submit;
  s.queue_wait_micros = t_exec >= admitted ? t_exec - admitted : 0;
  s.execute_micros = t_end >= t_exec ? t_end - t_exec : 0;
  const std::uint64_t io_now = v.env ? v.env->stats().io_micros
                                     : io_before_micros;
  s.io_micros = std::min(io_now - io_before_micros, s.execute_micros);
  s.set_tenant(v.tenant);
  if (ctx.t_admit != 0) v.time(kGateWaitMicros, s.gate_wait_micros);
  return s;
}

void VolumeManager::finish_deferred_trace(Volume& v, const TraceCtx& ctx,
                                          TraceSpan s,
                                          std::uint64_t t_ack) noexcept {
  // The stages so far end where execute did, so commit_wait extends the
  // telescope to the ack.
  const std::uint64_t t_executed = s.t_submit + s.end_to_end_micros();
  s.commit_wait_micros = t_ack > t_executed ? t_ack - t_executed : 0;
  v.time(kCommitWaitMicros, s.commit_wait_micros);
  finish_trace(ctx, s);
}

void VolumeManager::finish_trace(const TraceCtx& ctx, TraceSpan s) noexcept {
  const std::size_t shard = s.exec_shard;
  if (shard >= telemetry_.size()) return;  // defensive: not a pool thread
  ShardTelemetry& tel = *telemetry_[shard];
  if (ctx.sampled) {
    hot_.trace_spans->add(shard);
    if (tel.ring.push(s)) hot_.trace_evictions->add(shard);
  }
  const std::uint64_t slow =
      trace_.slow_op_micros.load(std::memory_order_relaxed);
  if (slow != 0 && s.end_to_end_micros() >= slow) {
    s.slow = true;
    hot_.slow_ops->add(shard);
    if (tel.slow.push(s)) hot_.trace_evictions->add(shard);
  }
}

std::vector<TraceSpan> VolumeManager::gather_spans(bool slow) {
  std::vector<TraceSpan> all;
  // Same sequential per-shard pattern as stats(): the snapshot task runs on
  // the ring's owning thread, so the single-writer rings need no locks and
  // the scrape can never block a shard behind another shard's scrape.
  for (std::size_t shard = 0; shard < pool_.size(); ++shard) {
    std::promise<std::vector<TraceSpan>> prom;
    std::future<std::vector<TraceSpan>> fut = prom.get_future();
    pool_.submit(shard, [this, shard, slow, &prom] {
      const ShardTelemetry& tel = *telemetry_[shard];
      prom.set_value(slow ? tel.slow.snapshot() : tel.ring.snapshot());
    });
    std::vector<TraceSpan> spans = fut.get();
    all.insert(all.end(), spans.begin(), spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.t_submit != b.t_submit ? a.t_submit < b.t_submit
                                              : a.id < b.id;
            });
  return all;
}

std::vector<TraceSpan> VolumeManager::trace_spans() {
  return gather_spans(/*slow=*/false);
}

std::vector<TraceSpan> VolumeManager::slow_ops() {
  return gather_spans(/*slow=*/true);
}

void VolumeManager::recover_clone_staging() {
  std::filesystem::create_directories(options_.root);
  std::error_code ec;
  for (const auto& de :
       std::filesystem::directory_iterator(options_.root, ec)) {
    if (de.is_directory() &&
        de.path().filename().string().ends_with(kCloneStagingSuffix)) {
      std::error_code rm_ec;
      std::filesystem::remove_all(de.path(), rm_ec);
    }
  }
}

SharedFileStats VolumeManager::shared_file_stats() const {
  SharedFileStats s;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;  // (dev, ino)
  std::error_code ec;
  for (const auto& vol :
       std::filesystem::directory_iterator(options_.root, ec)) {
    if (!vol.is_directory() ||
        vol.path().filename().string().ends_with(kCloneStagingSuffix))
      continue;
    std::error_code dir_ec;
    for (const auto& de :
         std::filesystem::directory_iterator(vol.path(), dir_ec)) {
      struct ::stat st{};
      if (!de.path().filename().string().ends_with(".run") ||
          ::stat(de.path().c_str(), &st) != 0 || st.st_nlink < 2 ||
          !seen.emplace(st.st_dev, st.st_ino).second)
        continue;
      const auto size = static_cast<std::uint64_t>(st.st_size);
      ++s.shared_files;
      s.shared_bytes += size;
      s.saved_bytes += (st.st_nlink - 1) * size;
    }
  }
  return s;
}

core::BacklogOptions VolumeManager::volume_db_options() {
  core::BacklogOptions opts = options_.db_options;
  opts.file_tag = make_file_tag();
  // Hosted volumes read through the service-wide block cache (the BacklogDb
  // ctor attaches it to the volume's Env for unlink invalidation).
  opts.shared_cache = &block_cache_;
  opts.result_cache_entries = options_.cache.result_cache_entries;
  // The cp.* points fire inside BacklogDb::consistency_point, the wal.*
  // points through inject(): one registry sees the full ordered sequence.
  opts.faults = options_.faults;
  return opts;
}

void VolumeManager::recover_volume_on_shard(
    Volume& v, const std::filesystem::path& dir,
    const core::BacklogOptions& db_opts) {
  v.env = std::make_unique<storage::Env>(dir);
  // WAL durability is meaningless without real fsyncs: enabling it forces
  // them even when the service otherwise runs unsynced.
  v.env->set_sync(options_.sync_writes || options_.wal_enabled);
  v.env->set_faults(options_.faults, v.tenant);
  v.db = std::make_unique<core::BacklogDb>(*v.env, db_opts);
  if (!options_.wal_enabled) return;
  // Replay the WAL tail into the recovered db. Records below the recovered
  // CP are already durable in run files and are skipped; anything at or
  // above it was acked durable but never reached a committed CP. Replayed
  // ops are committed as a consistency point immediately, so the reset
  // below can never drop an acked op.
  core::WalReplayOptions ropts;
  ropts.min_epoch = v.db->current_cp();
  ropts.max_extent_blocks = db_opts.max_extent_blocks;
  const core::WalReplayStats rs = core::Wal::replay(
      *v.env, core::Wal::kDefaultName, ropts,
      [&v](core::Epoch, std::span<const core::Update> ops) {
        v.db->apply_many(ops);
      });
  if (rs.ops_applied != 0) {
    v.db->consistency_point();
    hot_.wal_replayed_ops->add(metric_slot(), rs.ops_applied);
  }
  // Torn by a crash, or a whole WAL of another format version: say so.
  if (rs.bytes_rejected != 0) {
    hot_.wal_dropped_bytes->add(metric_slot(), rs.bytes_rejected);
    std::fprintf(stderr,
                 "backlog: volume '%s': WAL replay dropped a %llu-byte tail "
                 "(torn, corrupt, or of another format version)\n",
                 v.tenant.c_str(),
                 static_cast<unsigned long long>(rs.bytes_rejected));
  }
  // Start a fresh, empty log: replayed ops are in runs now, and a rejected
  // torn/corrupt tail is garbage by definition. Deliberately not a
  // "wal.truncated" injection point — recovery truncation is not part of
  // the commit pipeline's ordering, and a crash test dying here could
  // never finish its own recovery.
  v.wal = std::make_unique<core::Wal>(*v.env, core::Wal::kDefaultName);
  v.wal->reset();
}

VolumeManager::~VolumeManager() {
  // Stop the pacer first, then flush every gate: a throttled op still
  // waiting for tokens must reach its shard (and its promise) before the
  // pool drains — stranding promises at teardown would hang callers.
  stop_pacer();
  std::vector<std::shared_ptr<Volume>> vols;
  {
    std::lock_guard lock(mu_);
    for (const auto& [name, vol] : volumes_) vols.push_back(vol);
  }
  for (const auto& vol : vols) vol->gate.clear();
}

void VolumeManager::ensure_pacer() {
  std::lock_guard lock(pacer_mu_);
  if (pacer_.joinable()) return;
  pacer_ = std::thread([this] { pacer_loop(); });
}

void VolumeManager::stop_pacer() {
  {
    std::lock_guard lock(pacer_mu_);
    pacer_stop_ = true;
  }
  pacer_cv_.notify_all();
  if (pacer_.joinable()) pacer_.join();
}

void VolumeManager::pacer_loop() {
  std::unique_lock lock(pacer_mu_);
  while (!pacer_stop_) {
    pacer_cv_.wait_for(lock, options_.qos_pacer_interval,
                       [&] { return pacer_stop_; });
    if (pacer_stop_) break;
    lock.unlock();
    std::vector<std::shared_ptr<Volume>> gated;
    {
      std::lock_guard l(mu_);
      for (const auto& [name, vol] : volumes_) {
        if (vol->gate.gated()) gated.push_back(vol);
      }
    }
    const std::uint64_t now = now_micros();
    for (const auto& vol : gated) vol->gate.drain(now);
    lock.lock();
  }
}

void VolumeManager::set_qos(const std::string& tenant, const TenantQos& qos) {
  validate_qos(qos);
  const std::shared_ptr<Volume> vol = find(tenant);
  vol->gate.configure(qos, now_micros());
  vol->qos_weight.store(qos.weight, std::memory_order_relaxed);
  ensure_pacer();
}

void VolumeManager::clear_qos(const std::string& tenant) {
  const std::shared_ptr<Volume> vol = find(tenant);
  vol->gate.clear();
  vol->qos_weight.store(1, std::memory_order_relaxed);
}

QosSnapshot VolumeManager::qos(const std::string& tenant) const {
  return find(tenant)->gate.snapshot();
}

std::vector<VolumeManager::ShardLoad> VolumeManager::shard_loads() const {
  std::vector<ShardLoad> out;
  out.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    out.push_back({i, pool_.queue_depth(i), pool_.latency_ewma_micros(i),
                   pool_.busy_micros(i)});
  }
  return out;
}

std::vector<VolumeManager::VolumePlacement> VolumeManager::placements() const {
  std::vector<VolumePlacement> out;
  std::lock_guard lock(mu_);
  std::shared_lock rlock(routing_mu_);
  out.reserve(volumes_.size());
  for (const auto& [name, vol] : volumes_) {
    out.push_back({name, vol->shard.load(std::memory_order_relaxed),
                   vol->dispatched_ops.load(std::memory_order_relaxed)});
  }
  return out;
}

std::shared_ptr<VolumeManager::Volume> VolumeManager::find(
    const std::string& tenant) const {
  std::lock_guard lock(mu_);
  const auto it = volumes_.find(tenant);
  if (it == volumes_.end())
    throw std::invalid_argument("unknown tenant: " + tenant);
  return it->second;
}

bool VolumeManager::has_volume(const std::string& tenant) const {
  std::lock_guard lock(mu_);
  return volumes_.contains(tenant);
}

std::vector<std::string> VolumeManager::tenants() const {
  std::vector<std::string> out;
  std::lock_guard lock(mu_);
  out.reserve(volumes_.size());
  for (const auto& [name, vol] : volumes_) out.push_back(name);
  return out;
}

std::size_t VolumeManager::current_shard(const std::string& tenant) const {
  const std::shared_ptr<Volume> vol = find(tenant);
  std::shared_lock lock(routing_mu_);
  return vol->shard.load(std::memory_order_relaxed);
}

bool VolumeManager::kill_shard(std::size_t shard) {
  if (shard >= pool_.size()) throw std::out_of_range("kill_shard: bad shard");
  const bool killed = pool_.kill_shard(shard);
  if (killed) hot_.shard_kills->add(metric_slot());
  return killed;
}

bool VolumeManager::restart_shard(std::size_t shard) {
  if (shard >= pool_.size())
    throw std::out_of_range("restart_shard: bad shard");
  const bool restarted = pool_.restart_shard(shard);
  if (restarted) hot_.shard_restarts->add(metric_slot());
  return restarted;
}

bool VolumeManager::shard_alive(std::size_t shard) const {
  if (shard >= pool_.size()) throw std::out_of_range("shard_alive: bad shard");
  return pool_.shard_alive(shard);
}

void VolumeManager::dispatch(const std::shared_ptr<Volume>& vol, Task task,
                             bool background) {
  std::shared_lock lock(routing_mu_);
  if (!background)
    vol->dispatched_ops.fetch_add(1, std::memory_order_relaxed);
  if (vol->parked) {
    std::lock_guard pl(vol->park_mu);
    vol->parked_tasks.push_back({std::move(task), background});
    return;
  }
  const std::size_t shard = vol->shard.load(std::memory_order_relaxed);
  if (background) {
    pool_.submit_background(shard, std::move(task));
  } else {
    pool_.submit(shard, std::move(task), vol->flow_id,
                 vol->qos_weight.load(std::memory_order_relaxed));
  }
}

std::shared_ptr<VolumeManager::Volume> VolumeManager::register_volume(
    const std::string& tenant) {
  validate_tenant_name(tenant);
  auto vol = std::make_shared<Volume>();
  vol->tenant = tenant;
  const std::size_t home = shard_of(tenant);
  vol->shard.store(home, std::memory_order_relaxed);
  vol->flow_id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  if (!volumes_.emplace(tenant, vol).second)
    throw std::invalid_argument("volume already open: " + tenant);
  return vol;
}

void VolumeManager::recover_volume(const std::shared_ptr<Volume>& vol) {
  auto prom = std::make_shared<std::promise<void>>();
  std::future<void> fut = prom->get_future();
  dispatch(
      vol,
      [this, vol, prom, dir = options_.root / vol->tenant,
       db_opts = volume_db_options()] {
        try {
          recover_volume_on_shard(*vol, dir, db_opts);
          link_series(*vol, /*attach=*/true);
          prom->set_value();
        } catch (...) {
          prom->set_exception(std::current_exception());
        }
      },
      /*background=*/false);
  fut.get();
}

std::shared_ptr<VolumeManager::Volume> VolumeManager::unregister_volume(
    const std::string& tenant) {
  std::shared_ptr<Volume> vol;
  {
    std::lock_guard lock(mu_);
    const auto it = volumes_.find(tenant);
    if (it == volumes_.end())
      throw std::invalid_argument("unknown tenant: " + tenant);
    vol = it->second;
    volumes_.erase(it);  // no new operations route to it
  }
  // Flush the QoS gate before queueing the teardown: throttled ops reach
  // the shard (in order) ahead of it, so their promises resolve against a
  // still-open volume rather than stranding.
  vol->gate.clear();
  return vol;
}

void VolumeManager::retire(Volume& v) {
  {
    std::lock_guard lock(retired_mu_);
    retired_io_ += v.env->stats();
  }
  v.close_handles();
  link_series(v, /*attach=*/false);
}

void VolumeManager::link_series(Volume& v, bool attach) {
  static_assert(std::size(kCountedFamilies) == kCountedSeries);
  static_assert(std::size(kTimedFamilies) == kTimedSeries);
  const auto link = [&](auto& family, const auto& cell) {
    if (attach)
      family.attach(v.tenant, cell);
    else
      family.detach(cell);
  };
  for (std::size_t i = 0; i < kCountedSeries; ++i) {
    const auto& f = kCountedFamilies[i];
    link(metrics_.counter(f.name, f.help), v.counter(static_cast<Counted>(i)));
  }
  for (std::size_t i = 0; i < kTimedSeries; ++i) {
    const auto& f = kTimedFamilies[i];
    link(metrics_.histogram(f.name, f.help), v.latencies[i]);
  }
}

void VolumeManager::open_volume(const std::string& tenant) {
  // Registered before the open task runs: any operation submitted after
  // open_volume() returns queues behind this task for the same volume
  // (per-shard FIFO + the migration park/replay order), so it observes a
  // fully recovered volume.
  const std::shared_ptr<Volume> vol = register_volume(tenant);
  try {
    recover_volume(vol);
  } catch (...) {
    std::lock_guard lock(mu_);
    volumes_.erase(tenant);
    throw;
  }
}

void VolumeManager::close_volume(const std::string& tenant) {
  run_on(unregister_volume(tenant),
         [this](Volume& v) {
           // Commit anything still buffered, then retire (persists the
           // manifest base via the CP's edit append). Retirement happens even
           // if the flush fails: the tenant is already unrouted, so the
           // volume must actually close — a queued background probe checks
           // v.db and a subsequent open_volume() re-opens the directory —
           // while the caller still sees the flush error. Unflushed entries
           // are then lost to journal replay, exactly as in a crash.
           struct Teardown {
             VolumeManager& vm;
             Volume& v;
             ~Teardown() { vm.retire(v); }
           } teardown{*this, v};
           if (v.db->quick_stats().ws_entries != 0) {
             v.db->consistency_point();
           }
         })
      .get();
}

void VolumeManager::release_directory(const std::filesystem::path& dir) {
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    // This path deletes with std::filesystem directly (the volume's Env is
    // already gone), so it must mirror Env::delete_file's cache rule by
    // hand: drop the file's cached pages when this link is the last one —
    // links still held by a clone keep the pages (and the bytes) alive.
    if (block_cache_.enabled()) {
      struct ::stat st{};
      if (::stat(de.path().c_str(), &st) == 0 && st.st_nlink <= 1) {
        block_cache_.erase_file(static_cast<std::uint64_t>(st.st_dev),
                                static_cast<std::uint64_t>(st.st_ino));
      }
    }
    std::error_code rm_ec;
    std::filesystem::remove(de.path(), rm_ec);
  }
  std::error_code rm_ec;
  std::filesystem::remove_all(dir, rm_ec);
}

void VolumeManager::destroy_volume(const std::string& tenant) {
  const std::filesystem::path dir = options_.root / tenant;
  run_on(unregister_volume(tenant),
         [this, dir](Volume& v) {
           // Retire first so every file descriptor is released, then remove
           // this directory's links: a file shared with a clone lives on in
           // the sharer's directory, a sole-owned file's unlink here is its
           // physical removal.
           retire(v);
           release_directory(dir);
         })
      .get();
}

std::future<void> VolumeManager::apply_batch(const std::string& tenant,
                                             std::vector<UpdateOp> batch) {
  // QoS metering: a batch costs its op count against the ops bucket and an
  // approximate encoded size (one From/To record per op) against the bytes
  // bucket — charged once for the whole batch, which rides as a single task
  // with a single promise.
  const double ops_cost = static_cast<double>(batch.size());
  const double bytes_cost = ops_cost * core::kFromRecordSize;
  const auto op_count = static_cast<std::uint32_t>(batch.size());
  std::shared_ptr<Volume> vol = find(tenant);
  return run_on_deferred(
      vol,
      [this, vol, batch = std::move(batch)](Volume&, DoneFn done) {
        apply_on_shard(vol, batch, std::move(done));
      },
      ops_cost, bytes_cost, TraceVerb::kApplyBatch, op_count);
}

void VolumeManager::record_update_batch(Volume& v, std::size_t ops,
                                        std::uint64_t t0) {
  v.count(kUpdates, ops);
  v.count(kBatches);
  v.time(kUpdateBatchMicros, now_micros() - t0);
}

void VolumeManager::wound(Volume& v, const char* what, const DoneFn& done) {
  bool expected = false;
  if (v.wounded.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // First cause only: a volume is counted and reported once.
    hot_.volumes_wounded->add(metric_slot());
    std::fprintf(stderr,
                 "backlog: volume '%s' wounded (read-only): %s failed\n",
                 v.tenant.c_str(), what);
  }
  done(std::make_exception_ptr(ServiceError(
      ErrorCode::kWounded,
      std::string(what) + " failed (volume now read-only): " + v.tenant)));
}

bool VolumeManager::sync_wal(Volume& v) {
  try {
    v.wal->sync();
    hot_.wal_syncs->add(metric_slot());
    inject(util::fault_point("wal.synced"), v);
  } catch (...) {
    return false;
  }
  return true;
}

void VolumeManager::apply_on_shard(const std::shared_ptr<Volume>& vol,
                                   std::span<const UpdateOp> batch,
                                   DoneFn done) {
  Volume& v = *vol;
  throw_if_wounded(v);
  const std::uint64_t t0 = now_micros();
  // 1. Apply to the db first. apply_many validates the whole batch up front,
  //    so an invalid op throws with nothing applied and nothing logged;
  //    run_on_deferred routes the exception into the future.
  v.db->apply_many(batch);
  record_update_batch(v, batch.size(), t0);
  // Without a WAL (or with nothing to log) there is nothing to make
  // durable: ack at the end of execute.
  if (!v.wal || batch.empty()) {
    done(nullptr);
    return;
  }
  // 2. Log the batch. A write error here is the degradation trigger: the
  //    in-memory state holds ops whose durability can no longer be
  //    promised, so the volume flips read-only.
  try {
    v.wal->append(v.db->current_cp(), batch);
    inject(util::fault_point("wal.appended"), v);
  } catch (...) {
    wound(v, "WAL append", done);
    return;
  }
  hot_.wal_records->add(metric_slot());
  // 3. Make it durable. Window 0 is the per-op-fsync baseline: sync inline
  //    and ack before returning.
  const std::uint32_t window = options_.wal_commit_window_micros;
  if (window == 0) {
    if (sync_wal(v))
      done(nullptr);
    else
      wound(v, "WAL sync", done);
    return;
  }
  // Group commit: the ack joins the shard's window; the window's first
  // append schedules the flush sweep. Every batch the shard executes before
  // the sweep runs (see wal_flush_shard) rides the same fsync.
  const std::size_t shard = WorkerPool::current_shard();
  ShardCommit& c = *commit_[shard];
  c.pending.push_back({vol, std::move(done)});
  if (!c.flush_scheduled) {
    c.flush_scheduled = true;
    c.window_deadline_micros = now_micros() + window;
    pool_.submit(shard, [this, shard] { wal_flush_shard(shard); });
  }
}

void VolumeManager::wal_flush_shard(std::size_t shard) {
  // Commit on idle: the window bounds how long a parked ack may wait for
  // company, it is not a delay. When the queue holds nothing but this task
  // no append can join the sweep by waiting, so it commits at once. On a
  // busy shard the task *yields its scheduler turns* until the deadline:
  // the queue is stride-fair across per-volume flows, so each resubmission
  // lets a fair slice of queued appends run, and all of them ride this
  // sweep — one fsync per dirty volume, the group-commit amortization the
  // README documents.
  if (pool_.queue_depth_approx(shard) > 1 &&
      now_micros() < commit_[shard]->window_deadline_micros) {
    pool_.submit(shard, [this, shard] { wal_flush_shard(shard); });
    return;
  }
  wal_commit_now(shard);
}

void VolumeManager::wal_commit_now(std::size_t shard) {
  ShardCommit& c = *commit_[shard];
  c.flush_scheduled = false;
  if (c.pending.empty()) return;
  std::vector<ShardCommit::PendingAck> acks;
  acks.swap(c.pending);
  // One fsync per distinct volume, at its first pending ack. A clean WAL is
  // skipped without losing the ack's durability promise: the only way a
  // logged-but-unsynced record disappears from the log is a consistency
  // point, which made its ops durable in run files first. Likewise a closed
  // volume (null wal) already committed its buffered state in its close CP.
  std::vector<Volume*> seen;
  seen.reserve(acks.size());
  for (ShardCommit::PendingAck& a : acks) {
    Volume& v = *a.vol;
    bool ok = !v.wounded.load(std::memory_order_relaxed);
    if (std::find(seen.begin(), seen.end(), &v) == seen.end()) {
      seen.push_back(&v);
      if (ok && v.wal && v.wal->dirty()) ok = sync_wal(v);
    }
    if (ok)
      a.done(nullptr);
    else
      wound(v, "WAL sync", a.done);
  }
}

std::future<std::vector<std::vector<core::BackrefEntry>>>
VolumeManager::query_batch(const std::string& tenant,
                           std::vector<QueryRange> ranges) {
  const double ops_cost = static_cast<double>(ranges.size());
  const auto op_count = static_cast<std::uint32_t>(ranges.size());
  return run_on(
      find(tenant),
      [this, ranges = std::move(ranges)](Volume& v) {
        std::vector<std::vector<core::BackrefEntry>> out;
        out.reserve(ranges.size());
        for (const QueryRange& r : ranges) out.push_back(timed_query(v, r));
        return out;
      },
      /*background=*/false, ops_cost, 0, /*bypass_gate=*/false,
      TraceVerb::kQueryBatch, op_count);
}

std::future<core::CpFlushStats> VolumeManager::consistency_point(
    const std::string& tenant) {
  return run_on(
      find(tenant), [this](Volume& v) { return commit_cp(v); },
      /*background=*/false, 0, 0, /*bypass_gate=*/false, TraceVerb::kCp);
}

std::future<std::uint64_t> VolumeManager::relocate(const std::string& tenant,
                                                   core::BlockNo old_block,
                                                   std::uint64_t length,
                                                   core::BlockNo new_block) {
  return run_on(find(tenant), [this, old_block, length, new_block](Volume& v) {
    throw_if_wounded(v);
    // The WAL logs block ops, not relocations: commit the relocation with a
    // CP before acking it, so the log restarts behind it and replayed ops
    // land on the relocated state.
    const std::uint64_t moved = v.db->relocate(old_block, length, new_block);
    commit_cp(v);
    return moved;
  });
}

std::future<core::Epoch> VolumeManager::take_snapshot(const std::string& tenant,
                                                      core::LineId line) {
  return run_on(
      find(tenant),
      [this, line](Volume& v) {
        throw_if_wounded(v);
        // Retain the in-progress CP as the snapshot version, then commit it:
        // updates applied before this verb carry from == version and are part
        // of the snapshot; the CP advance makes later updates invisible to it.
        const core::Epoch version = v.db->registry().take_snapshot(line);
        commit_cp(v);
        v.count(kSnapshots);
        return version;
      },
      /*background=*/false, 0, 0, /*bypass_gate=*/false,
      TraceVerb::kSnapshot);
}

std::future<core::LineId> VolumeManager::create_clone(const std::string& tenant,
                                                      core::LineId parent_line,
                                                      core::Epoch version) {
  return run_on(find(tenant), [this, parent_line, version](Volume& v) {
    throw_if_wounded(v);
    const core::LineId line = v.db->registry().create_clone(parent_line, version);
    v.db->append_manifest_edit();
    v.count(kClones);
    return line;
  });
}

std::future<void> VolumeManager::delete_snapshot(const std::string& tenant,
                                                 core::LineId line,
                                                 core::Epoch version) {
  return run_on(find(tenant), [this, line, version](Volume& v) {
    throw_if_wounded(v);
    v.db->registry().delete_snapshot(line, version);
    v.db->append_manifest_edit();
    v.count(kSnapshotDeletes);
  });
}

std::future<std::vector<core::Epoch>> VolumeManager::list_versions(
    const std::string& tenant, core::LineId line) {
  return run_on(find(tenant),
                [line](Volume& v) { return v.db->registry().snapshots(line); });
}

core::LineId VolumeManager::clone_volume(const std::string& src_tenant,
                                         const std::string& dst_tenant,
                                         core::LineId parent_line,
                                         core::Epoch version) {
  validate_tenant_name(dst_tenant);
  if (src_tenant == dst_tenant)
    throw std::invalid_argument("clone_volume: src and dst are the same");
  const std::shared_ptr<Volume> src = find(src_tenant);

  // Reserve the destination name up front: concurrent open_volume() or
  // clone_volume() calls for the same tenant fail on the map insert instead
  // of racing the copy (and possibly deleting each other's files in their
  // cleanup paths). Operations routed to the reservation before the volume
  // opens fail with "volume is closed", the same transient window a plain
  // open_volume() has.
  const std::shared_ptr<Volume> dst = register_volume(dst_tenant);

  const std::filesystem::path dst_dir = options_.root / dst_tenant;
  const std::filesystem::path staging =
      options_.root / (dst_tenant + kCloneStagingSuffix);
  // Set by the shard task the moment the staging->dst rename lands: from
  // then on dst_dir is a committed volume, and a failure must dismantle it
  // instead of the staging directory.
  auto committed = std::make_shared<std::atomic<bool>>(false);
  try {
    if (std::filesystem::exists(dst_dir))
      throw std::invalid_argument("clone_volume: destination already exists: " +
                                  dst_dir.string());

    // Quiesce-and-share on the source shard: the task serializes behind
    // every update submitted before this call, flushes anything buffered so
    // the durable files are the complete state, validates the snapshot, and
    // stages the db's own file list (the manifest and the runs) into
    // `<dst>.cloning`. Immutable run files are hard-linked (no data copy;
    // the file system's link count records the sharing) and only the
    // manifest is byte-copied. The atomic staging->dst rename commits the
    // clone; recover_clone_staging() removes a staging directory that a
    // crash left behind.
    run_on(src,
           [this, parent_line, version, dst_dir, staging,
            committed](Volume& v) {
             flush_buffered_cp(v);
             if (!v.db->registry().has_snapshot(parent_line, version)) {
               throw std::invalid_argument(
                   "clone_volume: (line " + std::to_string(parent_line) +
                   ", v" + std::to_string(version) +
                   ") is not a retained snapshot of " + v.tenant);
             }
             std::error_code ec;
             std::filesystem::remove_all(staging, ec);  // stale leftovers
             std::filesystem::create_directories(staging);
             for (const std::string& name : v.db->live_files()) {
               if (!name.ends_with(".run") ||
                   !link_or_fall_back(*v.env, name, staging))
                 v.env->copy_file_to(name, staging);
             }
             inject(util::fault_point("clone.files_staged"), v);
             std::filesystem::rename(staging, dst_dir);  // the commit point
             committed->store(true, std::memory_order_release);
             inject(util::fault_point("clone.committed"), v);
           })
        .get();

    // The destination recovers from the copied manifest like any reopened
    // volume, then branches its writable line off the snapshot. The new
    // line is persisted immediately so the clone relationship survives a
    // crash.
    recover_volume(dst);
    return run_on(dst,
                  [parent_line, version](Volume& v) {
                    const core::LineId line =
                        v.db->registry().create_clone(parent_line, version);
                    v.db->append_manifest_edit();
                    v.count(kClones);
                    return line;
                  })
        .get();
  } catch (...) {
    // Before the commit, the clone got as far as its staging directory.
    // Remove it while the reservation still keeps a retry from staging
    // into the same path.
    if (!committed->load(std::memory_order_acquire)) {
      std::error_code ec;
      std::filesystem::remove_all(staging, ec);
    }
    // Unregister the reservation, tear down whatever opened on the shard,
    // and drop a committed directory. A retry must not hit "destination
    // already exists" for a volume that never came to life.
    {
      std::lock_guard lock(mu_);
      volumes_.erase(dst_tenant);
    }
    try {
      run_on(dst, [this](Volume& v) { retire(v); }).get();
    } catch (...) {
      // "volume is closed" when the open never happened — nothing to tear
      // down.
    }
    if (committed->load(std::memory_order_acquire)) release_directory(dst_dir);
    throw;
  }
}

MigrationStats VolumeManager::migrate_volume(const std::string& tenant,
                                             std::size_t target_shard,
                                             bool require_clean) {
  if (target_shard >= pool_.size())
    throw std::invalid_argument("migrate_volume: no shard " +
                                std::to_string(target_shard));
  const std::shared_ptr<Volume> vol = find(tenant);
  MigrationStats ms;
  ms.target_shard = target_shard;

  // Phase 1 — park. The exclusive write waits out every in-flight dispatch,
  // so after it every previously submitted op is in the source queue and
  // every later one lands in the parked deque.
  {
    std::unique_lock lock(routing_mu_);
    if (vol->parked)
      throw std::logic_error("migrate_volume: handoff already in flight: " +
                             tenant);
    ms.source_shard = vol->shard.load(std::memory_order_relaxed);
    if (ms.source_shard == target_shard) return ms;  // already there
    vol->parked = true;
  }

  // Phase 2 — drain barrier on the source shard (submitted directly: run_on
  // would park it; the volume's own flow keeps it FIFO behind all of the
  // tenant's queued ops). It forces a consistency point when updates are
  // buffered, so the handoff is also a durability point — unless the caller
  // asked for a clean-only move, where buffered updates abort the handoff
  // instead (the Balancer's polite mode).
  enum class Drain : std::uint8_t { kClean, kForcedCp, kDirtyAbort };
  auto prom = std::make_shared<std::promise<Drain>>();
  std::future<Drain> drained = prom->get_future();
  pool_.submit(
      ms.source_shard,
      [this, vol, prom, target_shard, require_clean] {
        try {
          Drain result = Drain::kClean;
          if (vol->db != nullptr) {
            if (require_clean && vol->db->quick_stats().ws_entries != 0) {
              result = Drain::kDirtyAbort;
            } else {
              if (flush_buffered_cp(*vol)) result = Drain::kForcedCp;
              // Settle the shard's commit window before the handoff: a
              // pending ack still referencing this volume after ownership
              // flips would race the new owner's appends. (The sweep covers
              // the whole shard — neighbours' acks simply land a little
              // early, which is never incorrect.)
              if (options_.wal_enabled)
                wal_commit_now(WorkerPool::current_shard());
              vol->count(kMigrations);
            }
          }
          prom->set_value(result);
        } catch (...) {
          prom->set_exception(std::current_exception());
        }
      },
      vol->flow_id, vol->qos_weight.load(std::memory_order_relaxed));

  // Replays the parked deque onto `shard` in original submission order.
  // Caller must hold routing_mu_ exclusively, so no new parkers interleave
  // and nothing submitted later can jump ahead of the replayed ops.
  const auto replay = [&](std::size_t shard) {
    std::deque<ParkedTask> parked;
    {
      std::lock_guard pl(vol->park_mu);
      parked.swap(vol->parked_tasks);
    }
    ms.replayed_tasks = parked.size();
    const std::uint32_t weight =
        vol->qos_weight.load(std::memory_order_relaxed);
    for (ParkedTask& pt : parked) {
      if (pt.background) {
        pool_.submit_background(shard, std::move(pt.task));
      } else {
        pool_.submit(shard, std::move(pt.task), vol->flow_id, weight);
      }
    }
    vol->parked = false;
  };

  Drain drain_result;
  try {
    drain_result = drained.get();
  } catch (...) {
    // Drain failed (e.g. the forced CP threw): the volume stays put and the
    // racers replay on the source, still in order.
    std::unique_lock lock(routing_mu_);
    replay(ms.source_shard);
    throw;
  }
  if (drain_result == Drain::kDirtyAbort) {
    // Clean-only move found buffered updates: unpark in place, no CP, no
    // ownership change.
    std::unique_lock lock(routing_mu_);
    replay(ms.source_shard);
    ms.aborted_dirty = true;
    return ms;
  }
  ms.forced_cp = drain_result == Drain::kForcedCp;

  // Phase 3 — flip ownership and replay. The promise/queue handoff orders
  // the source thread's last writes before the target thread's first reads,
  // so the BacklogDb handle moves shards without any lock of its own.
  {
    std::unique_lock lock(routing_mu_);
    vol->shard.store(target_shard, std::memory_order_relaxed);
    replay(target_shard);
  }
  ms.moved = true;
  return ms;
}

std::future<std::vector<core::BackrefEntry>> VolumeManager::query(
    const std::string& tenant, core::BlockNo first, std::uint64_t count,
    core::QueryOptions opts) {
  return run_on(
      find(tenant),
      [this, first, count, opts](Volume& v) {
        return timed_query(v, {first, count, opts});
      },
      /*background=*/false, /*ops_cost=*/1, 0, /*bypass_gate=*/false,
      TraceVerb::kQuery);
}

std::vector<core::BackrefEntry> VolumeManager::timed_query(
    Volume& v, const QueryRange& r) {
  const std::uint64_t t0 = now_micros();
  std::vector<core::BackrefEntry> out = v.db->query(r.first, r.count, r.opts);
  v.count(kQueries);
  v.time(kQueryMicros, now_micros() - t0);
  return out;
}

core::MaintenanceStats VolumeManager::timed_maintain(Volume& v) {
  const std::uint64_t t0 = now_micros();
  core::MaintenanceStats m = v.db->maintain();
  v.count(kMaintenanceRuns);
  v.time(kMaintenanceMicros, now_micros() - t0);
  return m;
}

std::future<std::vector<core::CombinedRecord>> VolumeManager::scan_all(
    const std::string& tenant) {
  return run_on(find(tenant), [](Volume& v) { return v.db->scan_all(); });
}

std::future<core::MaintenanceStats> VolumeManager::maintain(
    const std::string& tenant) {
  return run_on(
      find(tenant),
      [this](Volume& v) {
        throw_if_wounded(v);
        return timed_maintain(v);
      },
      /*background=*/false, 0, 0, /*bypass_gate=*/false,
      TraceVerb::kMaintenance);
}

bool VolumeManager::schedule_maintenance(const std::string& tenant,
                                         const MaintenancePolicy& policy) {
  std::shared_ptr<Volume> vol;
  {
    std::lock_guard lock(mu_);
    const auto it = volumes_.find(tenant);
    if (it == volumes_.end()) return false;
    vol = it->second;
  }
  bool expected = false;
  if (!vol->maintenance_pending.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return false;  // a probe is already queued or running
  }
  const std::uint64_t l0 = policy.l0_run_threshold;
  run_on(
      vol,
      [this, l0](Volume& v) {
        PendingGuard guard{v.maintenance_pending};
        // A wounded volume cannot write new runs; skip instead of failing
        // the background probe with an exception nobody awaits.
        if (v.wounded.load(std::memory_order_relaxed)) {
          v.count(kMaintenanceSkipped);
          return;
        }
        const core::QuickStats q = v.db->quick_stats();
        // maintain() requires an empty write store; mid-CP-window volumes
        // are retried on a later sweep rather than forced through an early
        // consistency point.
        if (q.ws_entries != 0) {
          v.count(kMaintenanceSkipped);
          return;
        }
        if (q.l0_runs() < l0) {
          v.count(kMaintenanceSkipped);
          return;
        }
        timed_maintain(v);
      },
      /*background=*/true);
  return true;
}

std::future<core::DbStats> VolumeManager::db_stats(const std::string& tenant) {
  return run_on(
      find(tenant), [](Volume& v) { return v.db->stats(); },
      /*background=*/false, 0, 0, /*bypass_gate=*/true);
}

std::future<core::QuickStats> VolumeManager::quick_stats(
    const std::string& tenant) {
  return run_on(
      find(tenant), [](Volume& v) { return v.db->quick_stats(); },
      /*background=*/false, 0, 0, /*bypass_gate=*/true);
}

std::future<storage::IoStats> VolumeManager::io_stats(
    const std::string& tenant) {
  return run_on(
      find(tenant), [](Volume& v) { return v.env->stats(); },
      /*background=*/false, 0, 0, /*bypass_gate=*/true);
}

ServiceStats VolumeManager::stats() {
  ServiceStats out;
  // Rows: each hosted volume's registry children, IoStats and file
  // ownership, read on its shard.
  gather_by_shard(
      [](Volume& v) {
        TenantStats ts;
        ts.shard = WorkerPool::current_shard();
        for (std::size_t i = 0; i < kCountedSeries; ++i) {
          fold(v.counter(static_cast<Counted>(i)),
               ts.*kCountedFamilies[i].field);
        }
        for (std::size_t i = 0; i < kTimedSeries; ++i)
          fold(v.latencies[i], ts.*kTimedFamilies[i].field);
        ts.io = v.env->stats();
        const core::FileOwnershipStats fo = v.db->file_ownership();
        ts.owned_bytes = fo.owned_bytes;
        ts.shared_bytes = fo.shared_bytes;
        ts.shared_files = fo.shared_files;
        return ts;
      },
      [&out](Volume& vol, TenantStats ts) {
        out.tenants.emplace(vol.tenant, std::move(ts));
      });
  // The lifetime total: the family totals (hosted children plus retired
  // parts) and the retired IoStats plus the hosted rows'.
  TenantStats& t = out.total;
  for (const auto& f : kCountedFamilies)
    t.*f.field = metrics_.counter(f.name, f.help).total();
  for (const auto& f : kTimedFamilies)
    t.*f.field = metrics_.histogram(f.name, f.help).merged();
  {
    std::lock_guard lock(retired_mu_);
    t.io = retired_io_;
  }
  for (const auto& [name, ts] : out.tenants) {
    t.io += ts.io;
    t.owned_bytes += ts.owned_bytes;
    t.shared_bytes += ts.shared_bytes;
    t.shared_files += ts.shared_files;
  }
  return out;
}

VolumeManager::CacheReport VolumeManager::cache_stats() {
  CacheReport report;
  report.block = block_cache_.stats();
  // Result-cache counters are shard-thread-private, like the write store.
  gather_by_shard([](Volume& v) { return v.db->result_cache_stats(); },
                  [&report](Volume& vol, core::ResultCacheStats rs) {
                    report.tenants.push_back({vol.tenant, rs});
                  });
  std::sort(report.tenants.begin(), report.tenants.end(),
            [](const CacheReport::VolumeRow& a, const CacheReport::VolumeRow& b) {
              return a.tenant < b.tenant;
            });
  return report;
}

void VolumeManager::clear_caches() {
  // One clear of the shared cache, then each volume drops its result cache
  // on its own shard — bypassing the gate, so a throttled tenant cannot
  // wedge the fleet-wide cold-cache lever.
  block_cache_.clear();
  gather_by_shard(
      [](Volume& v) {
        v.db->clear_result_cache();
        return true;
      },
      [](Volume&, bool) {});
}

std::future<void> VolumeManager::with_db(
    const std::string& tenant, std::function<void(core::BacklogDb&)> fn) {
  return run_on(find(tenant),
                [fn = std::move(fn)](Volume& v) { fn(*v.db); });
}

std::future<void> VolumeManager::with_env(
    const std::string& tenant,
    std::function<void(storage::Env&, core::BacklogDb&)> fn) {
  return run_on(find(tenant),
                [fn = std::move(fn)](Volume& v) { fn(*v.env, *v.db); });
}

}  // namespace backlog::service
