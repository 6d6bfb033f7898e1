// Deletion vector (§5.1), borrowed from C-Store.
//
// Read-store runs are immutable; when a maintenance operation (block
// relocation, volume shrink) must remove back references from the RS without
// rewriting it, the records are registered here instead. The query engine
// wraps every RS stream in a FilteredStream, which makes the suppression
// completely opaque to query-processing logic — exactly the paper's design.
// Compaction consumes the vector: records dropped while writing the new RS
// are removed from it.
//
// The vector is an in-memory ordered index (the paper stores it as a small
// B-tree, "usually entirely cached"). It does no I/O: the owning BacklogDb
// commits its entries in the manifest's CRC-framed records, alongside the
// runs they suppress records of, and recovery replays them from there.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "lsm/run_file.hpp"

namespace backlog::lsm {

class DeletionVector {
 public:
  explicit DeletionVector(std::size_t record_size) : record_size_(record_size) {}

  void insert(std::span<const std::uint8_t> record);
  [[nodiscard]] bool contains(std::span<const std::uint8_t> record) const;
  /// Remove one entry (compaction consumed it). Returns true if present.
  bool erase(std::span<const std::uint8_t> record);

  /// Consume every entry whose leading 8 bytes (big-endian block number)
  /// fall in [block_lo, block_hi) — compaction of a partition clears the
  /// vector for that partition's block range. Returns the count removed.
  std::size_t erase_block_range(std::uint64_t block_lo, std::uint64_t block_hi);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Every entry, in record order.
  [[nodiscard]] const std::set<std::vector<std::uint8_t>>& entries() const noexcept {
    return entries_;
  }

  [[nodiscard]] std::size_t record_size() const noexcept { return record_size_; }

 private:
  std::size_t record_size_;
  std::set<std::vector<std::uint8_t>> entries_;
};

/// Stream adapter that hides records present in the deletion vector.
class FilteredStream final : public RecordStream {
 public:
  FilteredStream(std::unique_ptr<RecordStream> in, const DeletionVector& dv)
      : in_(std::move(in)), dv_(dv) {
    skip();
  }

  [[nodiscard]] bool valid() const override { return in_->valid(); }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return in_->record();
  }
  void next() override {
    in_->next();
    skip();
  }

 private:
  void skip() {
    while (in_->valid() && dv_.contains(in_->record())) in_->next();
  }

  std::unique_ptr<RecordStream> in_;
  const DeletionVector& dv_;
};

}  // namespace backlog::lsm
