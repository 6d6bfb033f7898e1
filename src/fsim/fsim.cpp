#include "fsim/fsim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace backlog::fsim {

FileSystem::FileSystem(storage::Env& env, FsimOptions options,
                       core::BacklogOptions backlog_options)
    : options_(options), rng_(options.rng_seed) {
  db_ = std::make_unique<core::BacklogDb>(env, backlog_options);
  own_sink_ = std::make_unique<BacklogSink>(*db_);
  sink_ = own_sink_.get();
  zipf_ = std::make_unique<util::ZipfSampler>(
      std::max<std::uint64_t>(options_.dedup_pool_size, 1),
      options_.dedup_zipf_alpha);
  live_.emplace(0, Image{});
}

FileSystem::FileSystem(FsimOptions options, BackrefSink& sink)
    : options_(options), sink_(&sink), rng_(options.rng_seed) {
  own_registry_ = std::make_unique<core::SnapshotRegistry>();
  zipf_ = std::make_unique<util::ZipfSampler>(
      std::max<std::uint64_t>(options_.dedup_pool_size, 1),
      options_.dedup_zipf_alpha);
  live_.emplace(0, Image{});
}

FileSystem::~FileSystem() = default;

core::SnapshotRegistry& FileSystem::registry() {
  return db_ != nullptr ? db_->registry() : *own_registry_;
}

const core::SnapshotRegistry& FileSystem::registry() const {
  return db_ != nullptr ? db_->registry() : *own_registry_;
}

core::BacklogDb& FileSystem::db() {
  if (db_ == nullptr)
    throw std::logic_error("FileSystem: no BacklogDb in baseline-sink mode");
  return *db_;
}

// --- block allocator ---------------------------------------------------------

void FileSystem::ref_block(BlockNo b) { ++block_refs_[b]; }

void FileSystem::unref_block(BlockNo b) {
  auto it = block_refs_.find(b);
  if (it == block_refs_.end())
    throw std::logic_error("fsim: unref of unallocated block");
  if (--it->second == 0) {
    block_refs_.erase(it);
    free_list_.push_back(b);
    --stats_.allocated_blocks;
  }
}

BlockNo FileSystem::allocate_or_dedup(bool* was_dedup) {
  *was_dedup = false;
  if (options_.dedup_fraction > 0 && !dedup_pool_.empty() &&
      rng_.chance(options_.dedup_fraction)) {
    // Pick a share target with Zipf skew over the recent-block pool; rank 1
    // maps to the most recently written slot.
    const std::uint64_t rank = zipf_->sample(rng_) - 1;
    if (rank < dedup_pool_.size()) {
      const std::size_t idx =
          (dedup_pool_pos_ + dedup_pool_.size() - 1 - rank) % dedup_pool_.size();
      const BlockNo target = dedup_pool_[idx];
      if (block_refs_.contains(target)) {
        *was_dedup = true;
        ++stats_.dedup_hits;
        return target;
      }
    }
  }
  BlockNo b;
  if (!free_list_.empty()) {
    b = free_list_.back();
    free_list_.pop_back();
  } else {
    b = next_block_++;
  }
  ++stats_.allocated_blocks;
  if (dedup_pool_.size() < options_.dedup_pool_size) {
    dedup_pool_.push_back(b);
  } else if (!dedup_pool_.empty()) {
    dedup_pool_[dedup_pool_pos_] = b;
    dedup_pool_pos_ = (dedup_pool_pos_ + 1) % dedup_pool_.size();
  }
  return b;
}

// --- pointer bookkeeping -------------------------------------------------------

void FileSystem::add_pointer(LineId line, InodeNo inode, std::uint64_t offset,
                             BlockNo b) {
  BackrefKey key;
  key.block = b;
  key.inode = inode;
  key.offset = offset;
  key.length = 1;
  key.line = line;
  sink_->add_reference(key);
  journal_.push_back({true, key});
  ref_block(b);
  ++stats_.block_writes;
  ++writes_since_cp_;
}

void FileSystem::remove_pointer(LineId line, InodeNo inode, std::uint64_t offset,
                                BlockNo b) {
  BackrefKey key;
  key.block = b;
  key.inode = inode;
  key.offset = offset;
  key.length = 1;
  key.line = line;
  sink_->remove_reference(key);
  journal_.push_back({false, key});
  unref_block(b);
  ++stats_.block_frees;
}

void FileSystem::ref_image(const Image& img) {
  for (const auto& [ino, file] : img) {
    for (const BlockNo b : file->blocks) ref_block(b);
  }
}

void FileSystem::unref_image(const Image& img) {
  for (const auto& [ino, file] : img) {
    for (const BlockNo b : file->blocks) unref_block(b);
  }
}

// --- namespace operations -------------------------------------------------------

FileNode& FileSystem::mutable_file(LineId line, InodeNo inode) {
  auto lit = live_.find(line);
  if (lit == live_.end())
    throw std::invalid_argument("fsim: line has no live head");
  auto fit = lit->second.find(inode);
  if (fit == lit->second.end())
    throw std::invalid_argument("fsim: no such file");
  // Copy-on-write: snapshot images share the FileNode; clone it if shared.
  if (fit->second.use_count() > 1) {
    fit->second = std::make_shared<FileNode>(*fit->second);
  }
  return const_cast<FileNode&>(*fit->second);
}

InodeNo FileSystem::create_file(LineId line, std::uint64_t num_blocks) {
  auto lit = live_.find(line);
  if (lit == live_.end())
    throw std::invalid_argument("fsim: line has no live head");
  const InodeNo inode = next_inode_++;
  auto node = std::make_shared<FileNode>();
  node->blocks.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    bool dedup = false;
    const BlockNo b = allocate_or_dedup(&dedup);
    node->blocks.push_back(b);
    add_pointer(line, inode, i, b);
  }
  lit->second.emplace(inode, std::move(node));
  ++stats_.files_live;
  return inode;
}

void FileSystem::write_file(LineId line, InodeNo inode, std::uint64_t offset,
                            std::uint64_t count) {
  FileNode& file = mutable_file(line, inode);
  if (offset + count > file.blocks.size()) file.blocks.resize(offset + count, 0);
  for (std::uint64_t i = offset; i < offset + count; ++i) {
    const BlockNo old = file.blocks[i];
    if (old != 0) remove_pointer(line, inode, i, old);
    bool dedup = false;
    const BlockNo b = allocate_or_dedup(&dedup);
    file.blocks[i] = b;
    add_pointer(line, inode, i, b);
  }
}

void FileSystem::truncate_file(LineId line, InodeNo inode,
                               std::uint64_t new_blocks) {
  FileNode& file = mutable_file(line, inode);
  if (new_blocks >= file.blocks.size()) return;
  for (std::uint64_t i = new_blocks; i < file.blocks.size(); ++i) {
    if (file.blocks[i] != 0) remove_pointer(line, inode, i, file.blocks[i]);
  }
  file.blocks.resize(new_blocks);
}

void FileSystem::delete_file(LineId line, InodeNo inode) {
  truncate_file(line, inode, 0);
  live_.at(line).erase(inode);
  --stats_.files_live;
}

bool FileSystem::file_exists(LineId line, InodeNo inode) const {
  auto lit = live_.find(line);
  return lit != live_.end() && lit->second.contains(inode);
}

std::uint64_t FileSystem::file_size_blocks(LineId line, InodeNo inode) const {
  return live_.at(line).at(inode)->blocks.size();
}

std::vector<InodeNo> FileSystem::list_files(LineId line) const {
  std::vector<InodeNo> out;
  auto lit = live_.find(line);
  if (lit == live_.end()) return out;
  out.reserve(lit->second.size());
  for (const auto& [ino, file] : lit->second) out.push_back(ino);
  return out;
}

// --- snapshots and clones ---------------------------------------------------

Epoch FileSystem::take_snapshot(LineId line) {
  const Image& img = live_image(line);
  const Epoch version = registry().take_snapshot(line);
  snapshots_[line][version] = img;  // shared_ptr copies: O(#files)
  ref_image(img);
  return version;
}

void FileSystem::delete_snapshot(LineId line, Epoch version) {
  auto lit = snapshots_.find(line);
  if (lit == snapshots_.end() || !lit->second.contains(version))
    throw std::invalid_argument("fsim: no such snapshot");
  registry().delete_snapshot(line, version);
  unref_image(lit->second.at(version));
  lit->second.erase(version);
}

LineId FileSystem::create_clone(LineId line, Epoch version) {
  auto lit = snapshots_.find(line);
  if (lit == snapshots_.end() || !lit->second.contains(version))
    throw std::invalid_argument("fsim: cannot clone a non-retained snapshot");
  const LineId clone = registry().create_clone(line, version);
  const Image& img = lit->second.at(version);
  live_.emplace(clone, img);
  ref_image(img);
  stats_.files_live += img.size();
  // No back-reference records are written: structural inheritance (§4.2.2).
  return clone;
}

void FileSystem::delete_clone_head(LineId line) {
  auto lit = live_.find(line);
  if (lit == live_.end())
    throw std::invalid_argument("fsim: line has no live head");
  // Dropping the live head removes its (possibly inherited) references from
  // the live view — but those are *not* pointer removals at the back-ref
  // level for inherited blocks... they are: the live tree of the clone dies,
  // so every reference it holds stops being live. Write-anywhere systems
  // implement this as deleting every file, which is what we do; it produces
  // the To entries (overrides, for inherited blocks) the design expects.
  std::vector<InodeNo> inodes;
  for (const auto& [ino, file] : lit->second) inodes.push_back(ino);
  for (const InodeNo ino : inodes) delete_file(line, ino);
  live_.erase(line);
  registry().kill_line(line);
}

// --- time and consistency points ------------------------------------------------

void FileSystem::advance_time(double seconds) {
  seconds_since_cp_ += seconds;
}

std::optional<SinkCpStats> FileSystem::maybe_consistency_point() {
  if (writes_since_cp_ >= options_.ops_per_cp ||
      (seconds_since_cp_ >= options_.cp_interval_seconds &&
       writes_since_cp_ > 0)) {
    return consistency_point();
  }
  return std::nullopt;
}

SinkCpStats FileSystem::consistency_point() {
  SinkCpStats s = sink_->on_consistency_point();
  if (!sink_->advances_cp()) registry().advance_cp();
  journal_.clear();
  writes_since_cp_ = 0;
  seconds_since_cp_ = 0.0;
  ++stats_.cps_taken;
  return s;
}

// --- ground truth / misc --------------------------------------------------------

const Image& FileSystem::live_image(LineId line) const {
  auto lit = live_.find(line);
  if (lit == live_.end())
    throw std::invalid_argument("fsim: line has no live head");
  return lit->second;
}

std::vector<LineId> FileSystem::live_lines() const {
  std::vector<LineId> out;
  out.reserve(live_.size());
  for (const auto& [line, img] : live_) out.push_back(line);
  return out;
}

const std::map<Epoch, Image>& FileSystem::snapshot_images(LineId line) const {
  static const std::map<Epoch, Image> kEmpty;
  auto lit = snapshots_.find(line);
  return lit != snapshots_.end() ? lit->second : kEmpty;
}

std::uint64_t FileSystem::relocate_extent(BlockNo old_block, std::uint64_t length,
                                          BlockNo new_block) {
  const BlockNo old_hi = old_block + length;
  // Destination must be fresh: refuse overlapping or allocated targets.
  for (std::uint64_t i = 0; i < length; ++i) {
    if (block_refs_.contains(new_block + i))
      throw std::invalid_argument("relocate_extent: destination in use");
  }
  if (new_block < old_hi && old_block < new_block + length)
    throw std::invalid_argument("relocate_extent: ranges overlap");

  auto relocate_in_image = [&](Image& img) {
    std::uint64_t updated = 0;
    for (auto& [ino, file] : img) {
      bool dirty = false;
      for (const BlockNo b : file->blocks) {
        if (b >= old_block && b < old_hi) {
          dirty = true;
          break;
        }
      }
      if (!dirty) continue;
      auto copy = std::make_shared<FileNode>(*file);
      for (BlockNo& b : copy->blocks) {
        if (b >= old_block && b < old_hi) {
          b = b - old_block + new_block;
          ++updated;
        }
      }
      file = std::move(copy);
    }
    return updated;
  };

  std::uint64_t updated = 0;
  for (auto& [line, img] : live_) updated += relocate_in_image(img);
  for (auto& [line, snaps] : snapshots_) {
    for (auto& [version, img] : snaps) updated += relocate_in_image(img);
  }

  // Move the allocator bookkeeping.
  for (BlockNo b = old_block; b < old_hi; ++b) {
    auto it = block_refs_.find(b);
    if (it == block_refs_.end()) continue;
    block_refs_[b - old_block + new_block] = it->second;
    block_refs_.erase(it);
    free_list_.push_back(b);
  }
  next_block_ = std::max(next_block_, new_block + length);
  for (BlockNo& b : dedup_pool_) {
    if (b >= old_block && b < old_hi) b = b - old_block + new_block;
  }

  // Rewrite the back references themselves.
  if (db_ != nullptr) db_->relocate(old_block, length, new_block);
  return updated;
}

}  // namespace backlog::fsim
