#include "lsm/deletion_vector.hpp"

#include <stdexcept>

#include "util/serde.hpp"

namespace backlog::lsm {

void DeletionVector::insert(std::span<const std::uint8_t> record) {
  if (record.size() != record_size_)
    throw std::invalid_argument("DeletionVector: wrong record size");
  entries_.emplace(record.begin(), record.end());
}

bool DeletionVector::contains(std::span<const std::uint8_t> record) const {
  if (entries_.empty()) return false;
  // Heterogeneous lookup without allocating: std::set<vector> requires a
  // key; the vector here is small (one record) and only built when the
  // vector is non-empty, which is rare in normal operation.
  std::vector<std::uint8_t> key(record.begin(), record.end());
  return entries_.contains(key);
}

bool DeletionVector::erase(std::span<const std::uint8_t> record) {
  std::vector<std::uint8_t> key(record.begin(), record.end());
  return entries_.erase(key) > 0;
}

std::size_t DeletionVector::erase_block_range(std::uint64_t block_lo,
                                              std::uint64_t block_hi) {
  std::vector<std::uint8_t> lo_key(record_size_, 0);
  util::put_be64(lo_key.data(), block_lo);
  std::size_t removed = 0;
  for (auto it = entries_.lower_bound(lo_key); it != entries_.end();) {
    if (util::get_be64(it->data()) >= block_hi) break;
    it = entries_.erase(it);
    ++removed;
  }
  return removed;
}

}  // namespace backlog::lsm
