// K-way merge over sorted record streams.
//
// Used by compaction (merge all Level-0 runs, §5.2) and by queries (merge
// run files + write-store snapshot into one sorted view). Duplicate records
// across inputs are *kept* — Backlog tables are multisets (the same
// (block,inode,offset,line) key legitimately recurs with different epochs,
// and those epochs are part of the record bytes anyway).
#pragma once

#include <memory>
#include <vector>

#include "lsm/run_file.hpp"

namespace backlog::lsm {

class MergeStream final : public RecordStream {
 public:
  /// Streams must all produce records of `record_size` bytes in memcmp order.
  MergeStream(std::vector<std::unique_ptr<RecordStream>> inputs,
              std::size_t record_size);

  [[nodiscard]] bool valid() const override;
  [[nodiscard]] std::span<const std::uint8_t> record() const override;
  void next() override;

 private:
  void sift_down(std::size_t i);
  [[nodiscard]] bool less(std::size_t a, std::size_t b) const;
  void heapify();

  std::vector<std::unique_ptr<RecordStream>> inputs_;
  std::vector<std::size_t> heap_;  // indexes into inputs_; min-heap by record
  std::size_t record_size_;
};

/// Wraps a stream, dropping exact-duplicate consecutive records. Compaction
/// uses this to collapse records that were re-written by earlier merges.
class DedupStream final : public RecordStream {
 public:
  DedupStream(std::unique_ptr<RecordStream> in, std::size_t record_size);

  [[nodiscard]] bool valid() const override { return in_->valid(); }
  [[nodiscard]] std::span<const std::uint8_t> record() const override {
    return in_->record();
  }
  void next() override;

 private:
  std::unique_ptr<RecordStream> in_;
  std::size_t record_size_;
};

}  // namespace backlog::lsm
