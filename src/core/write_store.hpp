// In-memory write stores for the From and To tables (§5, §5.1).
//
// The WS has two parts. The log is an append-only vector of the current CP's
// updates, so an update is one append. The folded view is two vectors sorted
// the same way as the on-disk runs. §5.1 needs the WS sorted only when the CP
// flushes it, so every reader first folds: one stable sort of the log by key,
// then one linear merge pass against the folded view that applies each key's
// updates in arrival order, with proactive pruning:
//
//  * add+remove within one CP  -> both sides are still in memory; the From
//    entry is dropped and nothing is ever written (records with from == to
//    never materialize);
//  * remove+re-add within one CP (reallocation) -> the buffered To entry is
//    dropped, so the original From record simply stays incomplete and the
//    reference's lifetime continues uninterrupted (the paper's "3..present"
//    example).
//
// Invariant: every epoch stored in the WS equals the *current* CP number —
// the WS is flushed at every consistency point, which is what makes pruning
// a pure in-memory operation. The log carries that one epoch; an update with
// another epoch folds the log first.
//
// Readers are const but fold, so the vectors are mutable: a WriteStore, like
// the BacklogDb that owns it, is used by one thread at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/backref_record.hpp"

namespace backlog::core {

class WriteStore {
 public:
  /// `pruning` off is used only by the ablation bench (§5.1 design choice).
  explicit WriteStore(bool pruning = true) : pruning_(pruning) {}

  /// A reference to `key` became live at the current CP `cp`.
  void add_reference(const BackrefKey& key, Epoch cp);

  /// The reference to `key` died at the current CP `cp`.
  void remove_reference(const BackrefKey& key, Epoch cp);

  /// Bulk update: append `ops` to the log. The next read folds them with
  /// exactly the same pruning rules as the per-op calls issued in order.
  void apply_many(std::span<const Update> ops, Epoch cp);

  [[nodiscard]] std::size_t from_size() const { return fold().from_.size(); }
  [[nodiscard]] std::size_t to_size() const { return fold().to_.size(); }
  [[nodiscard]] bool empty() const {
    return fold().from_.empty() && to_.empty();
  }

  /// Sorted snapshots of the stores as encoded record buffers (the flush
  /// path feeds these to RunWriter; the query path wraps them in streams).
  [[nodiscard]] std::vector<std::uint8_t> encode_from_sorted() const;
  [[nodiscard]] std::vector<std::uint8_t> encode_to_sorted() const;

  /// Encoded entries whose block lies in [block_lo, block_hi) — the query
  /// path merges these with the on-disk runs.
  [[nodiscard]] std::vector<std::uint8_t> encode_from_range(BlockNo block_lo,
                                                            BlockNo block_hi) const;
  [[nodiscard]] std::vector<std::uint8_t> encode_to_range(BlockNo block_lo,
                                                          BlockNo block_hi) const;

  /// Relocation support: rewrite the block field of every entry whose block
  /// lies in [block_lo, block_hi) to (block - block_lo + new_lo). Returns
  /// the number of entries rewritten.
  std::size_t rekey_block_range(BlockNo block_lo, BlockNo block_hi,
                                BlockNo new_lo);

  [[nodiscard]] const std::vector<FromRecord>& from_entries() const {
    return fold().from_;
  }
  [[nodiscard]] const std::vector<ToRecord>& to_entries() const {
    return fold().to_;
  }

  /// Drop everything (after a successful CP flush, or to simulate a crash).
  void clear() {
    log_.clear();
    from_ = {};
    to_ = {};
  }

 private:
  /// Folds the log into the sorted view; returns *this for the reader.
  const WriteStore& fold() const;

  bool pruning_;
  Epoch log_cp_ = 0;  // the epoch of every update in log_
  mutable std::vector<Update> log_;
  mutable std::vector<FromRecord> from_;
  mutable std::vector<ToRecord> to_;
};

}  // namespace backlog::core
