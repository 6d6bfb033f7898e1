#include "core/backlog_db.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <deque>
#include <set>
#include <utility>
#include <stdexcept>

#include "core/join.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace backlog::core {

using util::now_micros;

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
// The manifest's RecordLog magic names its format version; open rejects
// any other layout.
constexpr std::uint64_t kManifestMagic = 0x324c4f47464e414dULL;
constexpr std::size_t kMaxRunNameLen = 255;
// Queries touching at most this many blocks probe Bloom filters per block to
// skip runs entirely; wider scans rely on min/max fencing.
constexpr std::uint64_t kBloomProbeLimit = 64;

std::size_t record_size_of(std::uint8_t table) {
  switch (table) {
    case 0: return kFromRecordSize;
    case 1: return kToRecordSize;
    case 2: return kCombinedRecordSize;
    default: throw std::logic_error("bad table id");
  }
}

/// Limits a run stream to records with block < block_hi and keeps the run
/// file handle alive for the stream's lifetime.
class BoundedStream final : public lsm::RecordStream {
 public:
  BoundedStream(std::shared_ptr<lsm::RunFile> run,
                std::unique_ptr<lsm::RecordStream> in, BlockNo block_hi)
      : run_(std::move(run)), in_(std::move(in)), block_hi_(block_hi) {}

  [[nodiscard]] bool valid() const override {
    return in_->valid() && util::get_be64(in_->record().data()) < block_hi_;
  }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return in_->record();
  }
  void next() override { in_->next(); }

 private:
  std::shared_ptr<lsm::RunFile> run_;
  std::unique_ptr<lsm::RecordStream> in_;
  BlockNo block_hi_;
};

}  // namespace

BacklogDb::BacklogDb(storage::Env& env, BacklogOptions options)
    : env_(env),
      options_(options),
      ws_(options.pruning),
      private_cache_(options.shared_cache != nullptr
                         ? nullptr
                         : std::make_unique<storage::BlockCache>(
                               static_cast<std::uint64_t>(options.cache_pages) *
                                   storage::kPageSize,
                               /*shards=*/1)),
      cache_(options.shared_cache != nullptr ? *options.shared_cache
                                             : *private_cache_),
      result_cache_(options.result_cache_entries) {
  if (options_.partition_blocks == 0)
    throw std::invalid_argument("BacklogOptions: partition_blocks must be > 0");
  if (options_.max_extent_blocks == 0)
    throw std::invalid_argument(
        "BacklogOptions: max_extent_blocks must be > 0 (every reference "
        "covers at least one block)");
  if (options_.expected_ops_per_cp == 0)
    throw std::invalid_argument(
        "BacklogOptions: expected_ops_per_cp must be > 0 (it sizes the "
        "per-run Bloom filters)");
  if (options_.file_tag.size() > 32)
    throw std::invalid_argument(
        "BacklogOptions: file_tag must be <= 32 chars — run names embed it "
        "verbatim, and a truncated tag could collide across volumes");
  for (const char c : options_.file_tag) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok)
      throw std::invalid_argument(
          "BacklogOptions: file_tag must be [A-Za-z0-9._-] (it names files)");
  }
  // cache_pages == 0 (no shared cache) disables the page cache, which the
  // cold-cache experiments use. Attach whichever cache this db reads
  // through to the Env so deleting a run's last link invalidates its cached
  // pages before the inode can be recycled. Never override a cache the
  // service already attached.
  if (env_.block_cache() == nullptr) env_.set_block_cache(&cache_);
  try {
    if (env_.file_exists(kManifestName)) {
      load_manifest();
      remove_orphan_runs();
    }
    // Establish the manifest base so per-CP writes can be O(1) edit appends.
    save_manifest();
  } catch (...) {
    detach_private_cache();  // no destructor runs for a failed open
    throw;
  }
}

BacklogDb::~BacklogDb() { detach_private_cache(); }

void BacklogDb::detach_private_cache() noexcept {
  // The private cache dies with the db; the Env may outlive it (tests
  // reopen a db over the same Env), so drop the dangling attachment. A
  // service-injected shared cache outlives both — leave it.
  if (private_cache_ != nullptr && env_.block_cache() == private_cache_.get())
    env_.set_block_cache(nullptr);
}

void BacklogDb::add_reference(const BackrefKey& key) {
  const Update op{Update::Kind::kAdd, key};
  apply_many({&op, 1});
}

void BacklogDb::remove_reference(const BackrefKey& key) {
  const Update op{Update::Kind::kRemove, key};
  apply_many({&op, 1});
}

void BacklogDb::apply_many(std::span<const Update> ops) {
  // Validate the whole batch before touching the write store: a bad op
  // applies nothing (the batch is one unit; see the header contract).
  std::uint64_t max_len = 0;
  for (const Update& op : ops) {
    if (op.key.length == 0)
      throw std::invalid_argument("apply_many: zero-length extent");
    if (op.key.length > options_.max_extent_blocks)
      throw std::invalid_argument(
          "apply_many: extent exceeds max_extent_blocks");
    max_len = std::max(max_len, op.key.length);
  }
  max_extent_seen_ = std::max(max_extent_seen_, max_len);
  ws_.apply_many(ops, registry_.current_cp());
  ops_since_cp_ += ops.size();
  ++mutations_;
}

std::string BacklogDb::new_run_name(Table table, std::uint64_t partition) {
  const char prefix = table == Table::kFrom     ? 'f'
                      : table == Table::kTo     ? 't'
                                                : 'c';
  char buf[64];
  if (options_.file_tag.empty()) {
    std::snprintf(buf, sizeof buf, "%c_%06llu_%08llu.run", prefix,
                  static_cast<unsigned long long>(partition),
                  static_cast<unsigned long long>(next_run_id_++));
  } else {
    // The tag makes the name unique across every volume of a service: a
    // cloned volume inherits its source's runs (and the source's
    // next_run_id_), so without the tag both could mint the same name and a
    // later flush would truncate a file the other still reads.
    std::snprintf(buf, sizeof buf, "%c_%.32s_%06llu_%08llu.run", prefix,
                  options_.file_tag.c_str(),
                  static_cast<unsigned long long>(partition),
                  static_cast<unsigned long long>(next_run_id_++));
  }
  return buf;
}

void BacklogDb::flush_table(const std::vector<std::uint8_t>& sorted,
                            std::size_t record_size, Table table,
                            RunList& staged) {
  const std::size_t n = sorted.size() / record_size;
  std::size_t i = 0;
  while (i < n) {
    // Records are globally sorted block-first, so each partition's records
    // form one contiguous span (§5.3: one WS, split into partitions at CP).
    const BlockNo block = util::get_be64(sorted.data() + i * record_size);
    const std::uint64_t partition = partition_of(block);
    const BlockNo part_end = (partition + 1) * options_.partition_blocks;
    const std::string name = new_run_name(table, partition);
    lsm::RunWriter writer(env_, name, record_size,
                          std::min<std::size_t>(n, options_.expected_ops_per_cp),
                          options_.bloom_max_bytes);
    while (i < n) {
      const std::uint8_t* rec = sorted.data() + i * record_size;
      const BlockNo b = util::get_be64(rec);
      if (b >= part_end) break;
      writer.add({rec, record_size}, b);
      ++i;
    }
    writer.finish();
    staged.push_back(written_run(name, table, partition, writer));
  }
}

void BacklogDb::discard_runs(const RunList& staged) noexcept {
  for (const auto& meta : staged) {
    try {
      env_.delete_file(meta->name);
    } catch (...) {  // best effort: an undeleted run is an orphan too
    }
  }
}

void BacklogDb::install_runs(RunList& staged) {
  for (auto& meta : staged) {
    track_run_added(*meta);
    partitions_[meta->partition].of(meta->table).push_back(meta);
    pending_manifest_runs_.push_back(std::move(meta));
  }
}

CpFlushStats BacklogDb::consistency_point() {
  const std::uint64_t t0 = now_micros();
  const storage::IoStats before = env_.stats();

  CpFlushStats s;
  s.block_ops = ops_since_cp_;
  s.records_flushed = ws_.from_size() + ws_.to_size();

  // The CP is committed by the manifest write (the "root node written last"
  // rule of write-anywhere systems, §2) — so the registry advances first and
  // the manifest records the post-CP state. A failed write may be on disk
  // all the same (a failed sync does not take the bytes back), so the CP
  // keeps its number: retried with nothing new to flush, it only rewrites
  // the manifest; else the next CP's write commits it along.
  if (!cp_unconfirmed_ || !ws_.empty()) {
    // Both tables are written before any run is installed, so a failed
    // flush leaves the runs and the write store as they were and a retried
    // CP flushes every record once. A run file cut short by the failure is
    // an orphan that the next open removes.
    RunList staged;
    try {
      flush_table(ws_.encode_from_sorted(), kFromRecordSize, Table::kFrom,
                  staged);
      flush_table(ws_.encode_to_sorted(), kToRecordSize, Table::kTo, staged);
    } catch (...) {
      discard_runs(staged);
      throw;
    }
    install_runs(staged);
    ws_.clear();
    env_.check_fault(util::fault_point("cp.flushed"));
    registry_.advance_cp();
    cp_unconfirmed_ = true;
  }
  s.cp = registry_.current_cp() - 1;
  append_manifest_edit();
  cp_unconfirmed_ = false;
  env_.check_fault(util::fault_point("cp.registry_persisted"));
  ops_since_cp_ = 0;
  ++mutations_;

  const storage::IoStats delta = env_.stats() - before;
  s.pages_written = delta.page_writes;
  s.wall_micros = now_micros() - t0;
  return s;
}

std::vector<std::string> BacklogDb::live_files() const {
  std::vector<std::string> out;
  out.push_back(kManifestName);
  for (const auto& [pid, part] : partitions_) {
    for (const RunList& runs : part.runs)
      for (const auto& m : runs) out.push_back(m->name);
  }
  return out;
}

std::shared_ptr<BacklogDb::RunMeta> BacklogDb::load_run_meta(
    const std::string& name, Table table, std::uint64_t partition) {
  lsm::RunFile rf(env_, name, cache_);
  auto meta = std::make_shared<RunMeta>();
  meta->name = name;
  meta->table = table;
  meta->partition = partition;
  meta->record_count = rf.record_count();
  meta->size_bytes = rf.size_bytes();
  meta->bloom = rf.bloom();
  if (auto mn = rf.min_record()) meta->min_rec = *mn;
  if (auto mx = rf.max_record()) meta->max_rec = *mx;
  return meta;
}

std::shared_ptr<BacklogDb::RunMeta> BacklogDb::written_run(
    const std::string& name, Table table, std::uint64_t partition,
    const lsm::RunWriter& writer) {
  auto meta = std::make_shared<RunMeta>();
  meta->name = name;
  meta->table = table;
  meta->partition = partition;
  meta->record_count = writer.record_count();
  meta->size_bytes = writer.file_size();
  meta->bloom = writer.bloom();
  meta->min_rec = writer.first_record();
  meta->max_rec = writer.last_record();
  return meta;
}

std::shared_ptr<lsm::RunFile> BacklogDb::open_run(const RunMeta& meta) {
  if (auto it = open_runs_.find(meta.name); it != open_runs_.end()) {
    // Refresh LRU position.
    open_lru_.remove(meta.name);
    open_lru_.push_front(meta.name);
    return it->second;
  }
  auto rf = std::make_shared<lsm::RunFile>(env_, meta.name, cache_);
  open_runs_.emplace(meta.name, rf);
  open_lru_.push_front(meta.name);
  while (open_runs_.size() > options_.max_open_runs) {
    const std::string victim = open_lru_.back();
    open_lru_.pop_back();
    open_runs_.erase(victim);
  }
  return rf;
}

void BacklogDb::retire_runs() {
  const RunList retired = std::exchange(retired_runs_, {});
  // Forget every retired run before unlinking any: a failed unlink then
  // leaves only an orphan file, which the next open removes.
  for (const auto& m : retired) {
    track_run_removed(*m);
    if (auto it = open_runs_.find(m->name); it != open_runs_.end()) {
      open_lru_.remove(m->name);
      open_runs_.erase(it);
    }
  }
  // Deleting this directory's entry is always safe: a run shared with a
  // cloned volume is a hard link, so sharers keep the inode alive, and the
  // last link's removal is the physical one.
  for (const auto& m : retired) env_.delete_file(m->name);
}

void BacklogDb::track_run_added(const RunMeta& meta) noexcept {
  switch (meta.table) {
    case Table::kFrom: ++quick_.from_runs; break;
    case Table::kTo: ++quick_.to_runs; break;
    case Table::kCombined: ++quick_.combined_runs; break;
  }
  quick_.db_bytes += meta.size_bytes;
  quick_.run_records += meta.record_count;
}

void BacklogDb::track_run_removed(const RunMeta& meta) noexcept {
  switch (meta.table) {
    case Table::kFrom: --quick_.from_runs; break;
    case Table::kTo: --quick_.to_runs; break;
    case Table::kCombined: --quick_.combined_runs; break;
  }
  quick_.db_bytes -= meta.size_bytes;
  quick_.run_records -= meta.record_count;
}

bool BacklogDb::run_may_intersect(const RunMeta& meta, BlockNo block_lo,
                                  BlockNo block_hi) const {
  if (meta.record_count == 0) return false;
  const BlockNo min_block = util::get_be64(meta.min_rec.data());
  const BlockNo max_block = util::get_be64(meta.max_rec.data());
  if (max_block < block_lo || min_block >= block_hi) return false;
  if (options_.use_bloom && block_hi - block_lo <= kBloomProbeLimit) {
    for (BlockNo b = block_lo; b < block_hi; ++b) {
      if (meta.bloom.may_contain(b)) return true;
    }
    return false;
  }
  return true;
}

std::unique_ptr<lsm::RecordStream> BacklogDb::table_stream(
    const Partition& part, Table table, BlockNo block_lo, BlockNo block_hi,
    bool include_ws) {
  const RunList& runs = part.of(table);
  const std::size_t record_size = record_size_of(static_cast<std::uint8_t>(table));

  std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
  std::uint8_t prefix[8];
  util::put_be64(prefix, block_lo);
  for (const auto& meta : runs) {
    if (!run_may_intersect(*meta, block_lo, block_hi)) continue;
    std::shared_ptr<lsm::RunFile> rf = open_run(*meta);
    auto stream = rf->seek({prefix, 8});
    inputs.push_back(std::make_unique<BoundedStream>(std::move(rf),
                                                     std::move(stream), block_hi));
  }
  if (include_ws) {
    if (table == Table::kFrom) {
      auto buf = ws_.encode_from_range(block_lo, block_hi);
      if (!buf.empty())
        inputs.push_back(
            std::make_unique<lsm::VectorStream>(std::move(buf), record_size));
    } else if (table == Table::kTo) {
      auto buf = ws_.encode_to_range(block_lo, block_hi);
      if (!buf.empty())
        inputs.push_back(
            std::make_unique<lsm::VectorStream>(std::move(buf), record_size));
    }
  }
  auto merged = std::make_unique<lsm::MergeStream>(std::move(inputs), record_size);
  const lsm::DeletionVector& vec = dv(table);
  if (vec.empty()) return merged;
  return std::make_unique<lsm::FilteredStream>(std::move(merged), vec);
}

std::vector<CombinedRecord> BacklogDb::collect_raw(BlockNo block_lo,
                                                   BlockNo block_hi) {
  static const Partition kEmptyPartition;
  std::vector<CombinedRecord> out;
  // Records sort by *starting* block; an extent starting before block_lo can
  // still cover it, so begin scanning max_extent_seen_-1 blocks early and
  // filter to records whose range intersects [block_lo, block_hi).
  const std::uint64_t overscan = max_extent_seen_ - 1;
  const BlockNo scan_lo = block_lo > overscan ? block_lo - overscan : 0;
  const std::uint64_t first_part = partition_of(scan_lo);
  const std::uint64_t last_part = partition_of(block_hi - 1);
  for (std::uint64_t pid = first_part;; ++pid) {
    auto it = partitions_.find(pid);
    const Partition& part =
        it != partitions_.end() ? it->second : kEmptyPartition;

    auto join = std::make_unique<OuterJoinStream>(
        table_stream(part, Table::kFrom, scan_lo, block_hi, true),
        table_stream(part, Table::kTo, scan_lo, block_hi, true));
    std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
    inputs.push_back(std::move(join));
    inputs.push_back(table_stream(part, Table::kCombined, scan_lo, block_hi,
                                  false));
    lsm::MergeStream merged(std::move(inputs), kCombinedRecordSize);
    while (merged.valid()) {
      CombinedRecord rec = decode_combined(merged.record().data());
      if (rec.key.block + rec.key.length > block_lo) out.push_back(rec);
      merged.next();
    }
    if (pid == last_part) break;
  }
  return out;
}

void BacklogDb::expand_inheritance(std::vector<CombinedRecord>& records) const {
  // Records whose from == 0 override inheritance for their (key, line).
  std::set<BackrefKey> overrides;
  std::set<CombinedRecord> seen(records.begin(), records.end());
  for (const CombinedRecord& r : records) {
    if (r.is_override()) overrides.insert(r.key);
  }
  std::deque<CombinedRecord> work(records.begin(), records.end());
  while (!work.empty()) {
    const CombinedRecord r = work.front();
    work.pop_front();
    for (const CloneEdge& edge : registry_.clones_of(r.key.line)) {
      // The clone branched from snapshot (line, v); it inherits this record
      // iff the record was visible at v and no override exists in the clone.
      if (!(r.from <= edge.branch_version && edge.branch_version < r.to))
        continue;
      BackrefKey key2 = r.key;
      key2.line = edge.child;
      if (overrides.contains(key2)) continue;
      const CombinedRecord synth{key2, 0, kInfinity};
      if (seen.insert(synth).second) {
        overrides.insert(key2);
        work.push_back(synth);
      }
    }
  }
  records.assign(seen.begin(), seen.end());
}

std::vector<BackrefEntry> BacklogDb::query(BlockNo first, std::uint64_t count,
                                           const QueryOptions& opts) {
  if (count == 0) return {};
  // Result-cache fast path: the tag pairs this db's mutation counter with
  // the registry version, so any update/CP/maintenance/registry change
  // since the entry was stored makes the tags differ and the entry dies on
  // comparison. Queries read the write store too (table_stream with
  // include_ws), which is why plain CP-epoch tagging would be wrong — every
  // buffered update must invalidate, not only flushes.
  const ResultCache<std::vector<BackrefEntry>>::Key key{
      first, count, opts.expand, opts.mask};
  const ResultCache<std::vector<BackrefEntry>>::Tag tag{mutations_,
                                                        registry_.version()};
  if (const auto* cached = result_cache_.get(key, tag)) return *cached;

  std::vector<CombinedRecord> raw = collect_raw(first, first + count);
  if (opts.expand) expand_inheritance(raw);
  std::vector<BackrefEntry> out;
  out.reserve(raw.size());
  for (const CombinedRecord& r : raw) {
    BackrefEntry e;
    e.rec = r;
    e.versions = registry_.valid_versions_in(r.key.line, r.from, r.to);
    if (opts.mask && e.versions.empty()) continue;
    out.push_back(std::move(e));
  }
  result_cache_.put(key, tag, out);
  return out;
}

std::vector<CombinedRecord> BacklogDb::query_raw(BlockNo first,
                                                 std::uint64_t count) {
  if (count == 0) return {};
  return collect_raw(first, first + count);
}

std::vector<CombinedRecord> BacklogDb::scan_all() {
  std::vector<CombinedRecord> out;
  // WS entries may exist for partitions with no runs yet; collect_raw
  // handles that, so scan the full block space partition by partition.
  std::set<std::uint64_t> pids;
  for (const auto& [pid, part] : partitions_) pids.insert(pid);
  for (const FromRecord& r : ws_.from_entries()) pids.insert(partition_of(r.key.block));
  for (const ToRecord& r : ws_.to_entries()) pids.insert(partition_of(r.key.block));
  for (const std::uint64_t pid : pids) {
    const BlockNo lo = pid * options_.partition_blocks;
    const BlockNo hi = lo + options_.partition_blocks;
    std::vector<CombinedRecord> chunk = collect_raw(lo, hi);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

void BacklogDb::clear_cache() {
  cache_.clear();
  result_cache_.clear();
}

void BacklogDb::merge_run_batches(RunList& runs, Table table,
                                  std::uint64_t partition) {
  const std::size_t batch = std::max<std::size_t>(options_.max_open_runs, 2);
  const std::size_t record_size = record_size_of(static_cast<std::uint8_t>(table));
  // Each pass merges disjoint chunks of `batch` runs into one run apiece
  // (level k -> level k+1); a handful of passes suffices for any backlog,
  // and each record is rewritten only O(log_batch(runs)) times.
  while (runs.size() > batch) {
    RunList next_level, merged_runs;
    for (std::size_t chunk = 0; chunk < runs.size(); chunk += batch) {
      const std::size_t chunk_end = std::min(runs.size(), chunk + batch);
      if (chunk_end - chunk == 1) {
        next_level.push_back(runs[chunk]);
        continue;
      }
      std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
      std::uint64_t total_records = 0;
      for (std::size_t i = chunk; i < chunk_end; ++i) {
        std::shared_ptr<lsm::RunFile> rf = open_run(*runs[i]);
        inputs.push_back(
            std::make_unique<BoundedStream>(rf, rf->scan(), UINT64_MAX));
        total_records += runs[i]->record_count;
      }
      lsm::MergeStream merged(std::move(inputs), record_size);
      const std::string name = new_run_name(table, partition);
      lsm::RunWriter writer(env_, name, record_size,
                            std::max<std::size_t>(total_records, 1),
                            table == Table::kCombined
                                ? options_.combined_bloom_max_bytes
                                : options_.bloom_max_bytes);
      while (merged.valid()) {
        writer.add(merged.record(), util::get_be64(merged.record().data()));
        merged.next();
      }
      writer.finish();
      merged_runs.insert(merged_runs.end(), runs.begin() + chunk,
                         runs.begin() + chunk_end);

      auto meta = written_run(name, table, partition, writer);
      track_run_added(*meta);
      next_level.push_back(std::move(meta));
    }
    runs = std::move(next_level);
    retired_runs_.insert(retired_runs_.end(), merged_runs.begin(),
                         merged_runs.end());
  }
}

MaintenanceStats BacklogDb::maintain() { return maintain_pass(std::nullopt); }

MaintenanceStats BacklogDb::maintain_partition(BlockNo block) {
  return maintain_pass(partition_of(block));
}

MaintenanceStats BacklogDb::maintain_pass(std::optional<std::uint64_t> only) {
  if (!ws_.empty())
    throw std::logic_error(
        "BacklogDb::maintain: write store not empty; call consistency_point() "
        "first");
  const std::uint64_t t0 = now_micros();
  const storage::IoStats before = env_.stats();
  MaintenanceStats s;

  // Zombies whose descendants are gone can finally be purged (§4.2.2).
  registry_.collect_zombies();

  for (auto& [pid, part] : partitions_) {
    if (!only || *only == pid) maintain_one(pid, part, s);
  }
  // The root is written last (§2): the new base commits the pass, and only
  // then are the replaced runs unlinked.
  save_manifest();

  const storage::IoStats delta = env_.stats() - before;
  s.pages_read = delta.page_reads;
  s.pages_written = delta.page_writes;
  s.wall_micros = now_micros() - t0;
  ++mutations_;  // purging changes unmasked (query_raw-visible) results
  return s;
}

void BacklogDb::maintain_one(std::uint64_t pid, Partition& part,
                             MaintenanceStats& s) {
  const BlockNo block_lo = pid * options_.partition_blocks;
  const BlockNo block_hi = block_lo + options_.partition_blocks;

  bool empty = true;
  for (const RunList& runs : part.runs) {
    for (const auto& m : runs) {
      s.input_records += m->record_count;
      s.bytes_before += m->size_bytes;
      empty = false;
    }
  }
  if (empty) return;

  // Pre-merge oversized Level-0 populations into intermediate runs so the
  // final pass never holds more than max_open_runs files open (the
  // Stepped-Merge levels of §5.1).
  for (const Table t : {Table::kFrom, Table::kTo, Table::kCombined})
    merge_run_batches(part.of(t), t, pid);

  // Join all From runs against all To runs, then merge with the previous
  // Combined RS (Fig. 4's query plan).
  auto join = std::make_unique<OuterJoinStream>(
      table_stream(part, Table::kFrom, block_lo, block_hi, false),
      table_stream(part, Table::kTo, block_lo, block_hi, false));
  std::vector<std::unique_ptr<lsm::RecordStream>> inputs;
  inputs.push_back(std::move(join));
  inputs.push_back(
      table_stream(part, Table::kCombined, block_lo, block_hi, false));
  lsm::MergeStream merged(std::move(inputs), kCombinedRecordSize);

  const std::string combined_name = new_run_name(Table::kCombined, pid);
  const std::string from_name = new_run_name(Table::kFrom, pid);
  std::size_t total_guess = 0;
  for (const auto& m : part.of(Table::kCombined)) total_guess += m->record_count;
  for (const auto& m : part.of(Table::kFrom)) total_guess += m->record_count;
  lsm::RunWriter combined_writer(env_, combined_name, kCombinedRecordSize,
                                 std::max<std::size_t>(total_guess, 1),
                                 options_.combined_bloom_max_bytes);
  lsm::RunWriter from_writer(env_, from_name, kFromRecordSize,
                             std::max<std::size_t>(total_guess, 1),
                             options_.bloom_max_bytes);

  while (merged.valid()) {
    const CombinedRecord rec = decode_combined(merged.record().data());
    // Purge rule (§5.2): a record is dead when no retained version, zombie
    // or clone branch point falls inside its interval. Structural-
    // inheritance override records (from == 0) are the exception — they
    // gate expansion for their line, so they must survive until the line
    // itself is forgotten, even if no retained version observes them.
    const bool alive =
        rec.is_override()
            ? registry_.line_exists(rec.key.line)
            : registry_.interval_protected(rec.key.line, rec.from, rec.to);
    if (!alive) {
      ++s.purged;
    } else if (rec.to == kInfinity) {
      // Incomplete records live in the new From RS (§5.2).
      std::uint8_t buf[kFromRecordSize];
      encode_from(FromRecord{rec.key, rec.from}, buf);
      from_writer.add({buf, kFromRecordSize}, rec.key.block);
      ++s.output_incomplete;
    } else {
      std::uint8_t buf[kCombinedRecordSize];
      encode_combined(rec, buf);
      combined_writer.add({buf, kCombinedRecordSize}, rec.key.block);
      ++s.output_complete;
    }
    merged.next();
  }
  combined_writer.finish();
  from_writer.finish();

  auto output = [&](const std::string& name, Table table,
                    lsm::RunWriter& writer) -> std::shared_ptr<RunMeta> {
    if (writer.record_count() == 0) {
      env_.delete_file(name);
      return nullptr;
    }
    auto meta = written_run(name, table, pid, writer);
    s.bytes_after += meta->size_bytes;
    return meta;
  };
  const std::shared_ptr<RunMeta> outputs[] = {
      output(combined_name, Table::kCombined, combined_writer),
      output(from_name, Table::kFrom, from_writer)};

  // Install the new generation. The old runs stay on disk until the
  // manifest write that stops naming them has committed.
  for (RunList& runs : part.runs) {
    retired_runs_.insert(retired_runs_.end(), runs.begin(), runs.end());
    runs.clear();
  }
  for (const auto& meta : outputs) {
    if (meta == nullptr) continue;
    track_run_added(*meta);
    part.of(meta->table).push_back(meta);
  }

  // The deletion-vector entries for this block range were consumed by the
  // filtered input streams; the new runs no longer contain them.
  for (lsm::DeletionVector& vec : dvs_) vec.erase_block_range(block_lo, block_hi);
}

std::uint64_t BacklogDb::relocate(BlockNo old_block, std::uint64_t length,
                                  BlockNo new_block) {
  if (length == 0) return 0;
  const BlockNo block_hi = old_block + length;

  // 1. Read the extent's read-store records, per table. Partitions are
  //    block ranges visited in order and each stream is sorted, so every
  //    table's records arrive sorted — and stay sorted when re-keyed, since
  //    all their blocks shift by the same amount.
  constexpr Table kTables[] = {Table::kFrom, Table::kTo, Table::kCombined};
  std::array<std::vector<std::uint8_t>, std::size(kTables)> old_recs;
  for (std::uint64_t pid = partition_of(old_block);
       pid <= partition_of(block_hi - 1); ++pid) {
    auto it = partitions_.find(pid);
    if (it == partitions_.end()) continue;
    for (const Table table : kTables) {
      std::vector<std::uint8_t>& out =
          old_recs[static_cast<std::size_t>(table)];
      for (auto stream = table_stream(it->second, table, old_block, block_hi,
                                      false);
           stream->valid(); stream->next()) {
        out.insert(out.end(), stream->record().begin(), stream->record().end());
      }
    }
  }

  // 2. Write the re-keyed copies as fresh Level-0 runs before anything in
  //    memory changes: a failed write deletes what it staged (as a failed
  //    CP does) and leaves the db as it was, so a retry starts over.
  RunList staged;
  try {
    for (const Table table : kTables) {
      const std::size_t rec_size =
          record_size_of(static_cast<std::uint8_t>(table));
      std::vector<std::uint8_t> rekeyed =
          old_recs[static_cast<std::size_t>(table)];
      for (std::size_t off = 0; off < rekeyed.size(); off += rec_size) {
        const BlockNo b = util::get_be64(rekeyed.data() + off);
        util::put_be64(rekeyed.data() + off, b - old_block + new_block);
      }
      flush_table(rekeyed, rec_size, table, staged);
    }
  } catch (...) {
    discard_runs(staged);
    throw;
  }

  // 3. Commit in memory: re-key the write store, suppress the old copies
  //    through the deletion vectors (record bytes, epochs included, are
  //    otherwise preserved, so join results and version masks are
  //    unchanged) and install the new runs.
  std::uint64_t moved = ws_.rekey_block_range(old_block, block_hi, new_block);
  for (const Table table : kTables) {
    const std::vector<std::uint8_t>& recs =
        old_recs[static_cast<std::size_t>(table)];
    const std::size_t rec_size =
        record_size_of(static_cast<std::uint8_t>(table));
    for (std::size_t off = 0; off < recs.size(); off += rec_size, ++moved) {
      const std::span<const std::uint8_t> rec(recs.data() + off, rec_size);
      dv(table).insert(rec);
      pending_dv_.emplace_back(
          table, std::vector<std::uint8_t>(rec.begin(), rec.end()));
    }
  }
  install_runs(staged);
  ++mutations_;
  return moved;
}

DbStats BacklogDb::stats() const {
  DbStats s;
  for (const auto& [pid, part] : partitions_) {
    s.from_runs += part.of(Table::kFrom).size();
    s.to_runs += part.of(Table::kTo).size();
    s.combined_runs += part.of(Table::kCombined).size();
    for (const RunList& runs : part.runs) {
      for (const auto& m : runs) {
        s.db_bytes += m->size_bytes;
        s.run_records += m->record_count;
      }
    }
  }
  s.ws_from = ws_.from_size();
  s.ws_to = ws_.to_size();
  for (const lsm::DeletionVector& vec : dvs_) s.dv_entries += vec.size();
  s.partitions = partitions_.size();
  return s;
}

FileOwnershipStats BacklogDb::file_ownership() const {
  FileOwnershipStats s;
  const auto classify = [&](const std::shared_ptr<RunMeta>& m) {
    ++s.total_files;
    if (env_.link_count(m->name) >= 2) {
      ++s.shared_files;
      s.shared_bytes += m->size_bytes;
    } else {
      s.owned_bytes += m->size_bytes;
    }
  };
  for (const auto& [pid, part] : partitions_) {
    for (const RunList& runs : part.runs)
      for (const auto& m : runs) classify(m);
  }
  // The manifest is copied into clones, never linked: always owned.
  if (env_.file_exists(kManifestName)) {
    ++s.total_files;
    s.owned_bytes += env_.file_size(kManifestName);
  }
  return s;
}

QuickStats BacklogDb::quick_stats() const {
  QuickStats q = quick_;
  q.ws_entries = ws_.from_size() + ws_.to_size();
  q.ops_since_cp = ops_since_cp_;
  return q;
}

void BacklogDb::manifest_record(bool full,
                                std::vector<std::uint8_t>& out) const {
  // One payload for the base and for edits; an edit is the same record
  // restricted to what was added since the last write.
  std::vector<const RunMeta*> runs;
  std::vector<std::pair<Table, std::span<const std::uint8_t>>> entries;
  if (full) {
    for (const auto& [pid, part] : partitions_) {
      for (const RunList& list : part.runs)
        for (const auto& m : list) runs.push_back(m.get());
    }
    for (const Table t : {Table::kFrom, Table::kTo, Table::kCombined}) {
      for (const auto& e : dv(t).entries()) entries.emplace_back(t, e);
    }
  } else {
    for (const auto& m : pending_manifest_runs_) runs.push_back(m.get());
    for (const auto& [t, e] : pending_dv_) entries.emplace_back(t, e);
  }
  util::append_u64(out, next_run_id_);
  util::append_u64(out, max_extent_seen_);
  registry_.serialize(out);
  util::append_u32(out, static_cast<std::uint32_t>(runs.size()));
  for (const RunMeta* m : runs) {
    out.push_back(static_cast<std::uint8_t>(m->table));
    util::append_u64(out, m->partition);
    util::append_string(out, m->name);
  }
  util::append_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& [t, e] : entries) {
    out.push_back(static_cast<std::uint8_t>(t));
    out.insert(out.end(), e.begin(), e.end());
  }
}

void BacklogDb::save_manifest() {
  manifest_log_.reset();  // release the old file before replacing it
  {
    RecordLog base(env_, kManifestTmpName, kManifestMagic);
    base.truncate();  // a failed earlier save may have left bytes behind
    base.append([this](std::vector<std::uint8_t>& out) {
      manifest_record(/*full=*/true, out);
    });
    base.sync();
  }
  env_.rename_file(kManifestTmpName, kManifestName);  // the commit point
  pending_manifest_runs_.clear();
  pending_dv_.clear();
  manifest_log_ =
      std::make_unique<RecordLog>(env_, kManifestName, kManifestMagic);
  retire_runs();
}

void BacklogDb::append_manifest_edit() {
  if (manifest_log_ == nullptr) return save_manifest();
  try {
    manifest_log_->append([this](std::vector<std::uint8_t>& out) {
      manifest_record(/*full=*/false, out);
    });
    manifest_log_->sync();
  } catch (...) {
    manifest_log_.reset();
    throw;
  }
  pending_manifest_runs_.clear();
  pending_dv_.clear();
}

void BacklogDb::apply_manifest_record(std::span<const std::uint8_t> payload) {
  // The CRC matched, so a field that does not fit is corruption the CRC
  // missed or a writer bug — never a torn write. Every read is bounds-checked.
  util::Reader r(payload);
  const auto read_table = [&r] {
    const std::uint8_t t = r.u8();
    if (t > static_cast<std::uint8_t>(Table::kCombined))
      throw util::SerdeError("manifest: bad table id");
    return static_cast<Table>(t);
  };
  next_run_id_ = r.u64();
  max_extent_seen_ = r.u64();
  std::size_t consumed = 0;
  registry_ = SnapshotRegistry::deserialize(payload.subspan(16), &consumed);
  r.skip(consumed);
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    const Table table = read_table();
    const std::uint64_t partition = r.u64();
    const std::string name = r.string(kMaxRunNameLen);
    auto meta = load_run_meta(name, table, partition);
    track_run_added(*meta);
    partitions_[partition].of(table).push_back(std::move(meta));
  }
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    const Table table = read_table();
    dv(table).insert(r.bytes(record_size_of(static_cast<std::uint8_t>(table))));
  }
  if (!r.done()) throw util::SerdeError("manifest: trailing bytes in record");
}

void BacklogDb::load_manifest() {
  // The first record is the base and must be intact; after it, a torn or
  // corrupt record means the CP that wrote it never committed — the replay
  // drops it and everything behind it.
  const RecordLogReplay r = RecordLog::replay(
      env_, kManifestName, kManifestMagic,
      [this](std::span<const std::uint8_t> payload) {
        apply_manifest_record(payload);
        return true;
      });
  if (r.records > 0) return;
  if (r.bytes_dropped == 0) throw std::runtime_error("manifest: empty");
  throw std::runtime_error(
      r.foreign_magic
          ? "manifest: bad magic (not a manifest of this format version)"
          : "manifest: corrupt base record");
}

void BacklogDb::remove_orphan_runs() {
  // Run files not referenced by the recovered manifest belong to a CP that
  // never committed; write-anywhere recovery discards them.
  std::set<std::string> referenced;
  for (const std::string& name : live_files()) referenced.insert(name);
  for (const std::string& name : env_.list_files()) {
    if (name.size() > 4 && name.ends_with(".run") && !referenced.contains(name))
      env_.delete_file(name);
  }
}

}  // namespace backlog::core
