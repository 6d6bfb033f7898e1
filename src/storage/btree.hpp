// Update-in-place on-disk B+-tree.
//
// This is the substrate for the two baselines the paper compares against:
//  * the btrfs-style "native" back references, which live in a global
//    update-in-place metadata B-tree (§7), and
//  * the naive "conceptual table" design (§4.1), whose read-modify-write per
//    block deallocation is exactly an update-in-place tree update.
//
// Design:
//  * 4 KB pages, fixed-size keys and values configured at open time.
//  * Keys are opaque byte strings compared with memcmp; callers encode
//    integers big-endian so lexicographic order equals numeric order.
//  * A write-back buffer manager (LRU, bounded) holds hot pages; dirty pages
//    are written on eviction or at flush(). Page reads/writes are charged to
//    the Env's IoStats, which is how the baselines' CP-time I/O is measured.
//  * Deletes do not rebalance (lazy deletion). The trees the baselines build
//    shrink only via whole-volume churn, where lazy deletion loses a few
//    percent of space — an acceptable, documented trade-off.
//  * Page image checksummed (CRC32-C) on write-back, verified on read.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/env.hpp"

namespace backlog::storage {

/// Statistics for introspection and the ablation benches.
struct BTreeStats {
  std::uint64_t record_count = 0;
  std::uint64_t page_count = 0;   // allocated pages incl. meta
  std::uint32_t height = 0;       // 1 = root is a leaf
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class BTree {
 public:
  /// Open (or create) a tree stored in `file_name` under `env`.
  /// `key_size`/`value_size` must match the stored tree if it exists.
  /// `cache_pages` bounds the write-back cache (0 = unbounded).
  BTree(Env& env, const std::string& file_name, std::size_t key_size,
        std::size_t value_size, std::size_t cache_pages = 1024);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Insert or overwrite. Returns true if the key was new.
  bool put(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value);

  /// Point lookup.
  std::optional<std::vector<std::uint8_t>> get(std::span<const std::uint8_t> key);

  /// Remove. Returns true if the key existed.
  bool erase(std::span<const std::uint8_t> key);

  /// Write back all dirty pages (consistency-point behaviour for baselines).
  void flush();

  [[nodiscard]] std::uint64_t size() const noexcept { return record_count_; }
  [[nodiscard]] BTreeStats stats() const;

  [[nodiscard]] std::size_t key_size() const noexcept { return key_size_; }
  [[nodiscard]] std::size_t value_size() const noexcept { return value_size_; }

  /// Forward iterator over records with key >= seek key.
  class Cursor {
   public:
    /// False once past the last record.
    [[nodiscard]] bool valid() const noexcept { return page_ != 0; }
    [[nodiscard]] std::span<const std::uint8_t> key() const;
    [[nodiscard]] std::span<const std::uint8_t> value() const;
    void next();

   private:
    friend class BTree;
    BTree* tree_ = nullptr;
    std::uint64_t page_ = 0;  // 0 = end
    std::uint16_t index_ = 0;
    // Pinned copy of the current page so eviction can't invalidate us.
    std::shared_ptr<const std::vector<std::uint8_t>> snapshot_;
    void load();
  };

  Cursor seek(std::span<const std::uint8_t> key);
  Cursor begin();

 private:
  struct Frame {
    std::vector<std::uint8_t> data;  // kPageSize bytes
    bool dirty = false;
  };
  using FramePtr = std::shared_ptr<Frame>;

  // --- page layout helpers -------------------------------------------------
  [[nodiscard]] std::size_t leaf_slot_size() const noexcept {
    return key_size_ + value_size_;
  }
  [[nodiscard]] std::size_t internal_slot_size() const noexcept {
    return key_size_ + 8;
  }
  [[nodiscard]] std::size_t leaf_capacity() const noexcept;
  [[nodiscard]] std::size_t internal_capacity() const noexcept;

  // --- buffer manager ------------------------------------------------------
  FramePtr fetch(std::uint64_t page_no);
  FramePtr create_page(std::uint64_t* page_no_out);
  void maybe_evict();
  void write_back(std::uint64_t page_no, Frame& frame);

  // --- tree operations -----------------------------------------------------
  struct PathEntry {
    std::uint64_t page_no;
    std::uint16_t child_index;  // which child we descended into
  };
  std::uint64_t descend(std::span<const std::uint8_t> key,
                        std::vector<PathEntry>* path);
  void split_leaf(std::uint64_t leaf_no, Frame& leaf,
                  std::vector<PathEntry>& path);
  void insert_into_parent(std::vector<PathEntry>& path,
                          std::span<const std::uint8_t> sep_key,
                          std::uint64_t new_child);
  void load_meta();
  void store_meta();

  Env& env_;
  std::string file_name_;
  std::unique_ptr<RandomAccessFile> file_;
  std::size_t key_size_;
  std::size_t value_size_;
  std::size_t cache_pages_;

  std::uint64_t root_ = 0;
  std::uint64_t next_page_ = 1;  // page 0 is the meta page
  std::uint64_t record_count_ = 0;
  std::uint32_t height_ = 1;
  bool meta_dirty_ = false;

  std::unordered_map<std::uint64_t, FramePtr> frames_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> lru_pos_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace backlog::storage
