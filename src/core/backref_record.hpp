// Back-reference record model (§4.1–4.2).
//
// A back reference maps a physical extent to a logical owner:
//   (block, inode, offset, length, line)  — "who references these blocks"
// plus lifetime epochs in global consistency-point numbers:
//   From table:     from              (reference became live at CP `from`)
//   To table:       to                (reference died at CP `to`, exclusive)
//   Combined table: [from, to)        (outer join of the two, §4.2.1)
// `to = kInfinity` marks an incomplete (live) record.
//
// On-disk encoding is fixed-size with all fields big-endian, so memcmp over
// the record bytes sorts by (block, inode, offset, length, line, epoch) —
// exactly the order the LSM machinery (run files, merges, pairing) needs.
// The paper's btrfs port uses 40-byte From/To and 48-byte Combined tuples
// with some fields narrowed; we keep every field 64-bit (48/56 bytes), which
// raises the space overhead the Fig. 6/8 benches report accordingly.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "util/serde.hpp"

namespace backlog::core {

/// Global consistency-point number ("version" of a snapshot within a line).
using Epoch = std::uint64_t;
/// Snapshot line id (§2, Fig. 3): a clone starts a new line.
using LineId = std::uint64_t;
/// Physical block number.
using BlockNo = std::uint64_t;
/// Inode number.
using InodeNo = std::uint64_t;

inline constexpr Epoch kInfinity = UINT64_MAX;

/// The owner-identity part shared by all three tables (§4.1 plus the length
/// field added for extent-based allocation, §6.1).
struct BackrefKey {
  BlockNo block = 0;    ///< first physical block of the extent
  InodeNo inode = 0;    ///< owning inode
  std::uint64_t offset = 0;  ///< logical offset within the inode, in blocks
  std::uint64_t length = 1;  ///< extent length in blocks
  LineId line = 0;      ///< snapshot line containing the inode

  friend auto operator<=>(const BackrefKey&, const BackrefKey&) = default;
};

struct FromRecord {
  BackrefKey key;
  Epoch from = 0;
  friend auto operator<=>(const FromRecord&, const FromRecord&) = default;
};

struct ToRecord {
  BackrefKey key;
  Epoch to = 0;
  friend auto operator<=>(const ToRecord&, const ToRecord&) = default;
};

struct CombinedRecord {
  BackrefKey key;
  Epoch from = 0;
  Epoch to = kInfinity;

  [[nodiscard]] bool complete() const noexcept { return to != kInfinity; }
  /// Structural-inheritance override marker (§4.2.2): a record that begins
  /// at epoch 0 terminates inheritance from the parent snapshot.
  [[nodiscard]] bool is_override() const noexcept { return from == 0; }

  friend auto operator<=>(const CombinedRecord&, const CombinedRecord&) = default;
};

/// One update-path operation (§5 callbacks in value form): the element type
/// of the batch verbs — BacklogDb::apply_many() in core and apply_batch() at
/// the service layer (service::UpdateOp is an alias).
struct Update {
  enum class Kind : std::uint8_t { kAdd, kRemove };
  Kind kind = Kind::kAdd;
  BackrefKey key;
};

inline constexpr std::size_t kKeySize = 40;
inline constexpr std::size_t kFromRecordSize = 48;
inline constexpr std::size_t kToRecordSize = 48;
inline constexpr std::size_t kCombinedRecordSize = 56;

inline void encode_key(const BackrefKey& k, std::uint8_t* dst) noexcept {
  util::put_be64(dst, k.block);
  util::put_be64(dst + 8, k.inode);
  util::put_be64(dst + 16, k.offset);
  util::put_be64(dst + 24, k.length);
  util::put_be64(dst + 32, k.line);
}

inline BackrefKey decode_key(const std::uint8_t* src) noexcept {
  BackrefKey k;
  k.block = util::get_be64(src);
  k.inode = util::get_be64(src + 8);
  k.offset = util::get_be64(src + 16);
  k.length = util::get_be64(src + 24);
  k.line = util::get_be64(src + 32);
  return k;
}

inline void encode_from(const FromRecord& r, std::uint8_t* dst) noexcept {
  encode_key(r.key, dst);
  util::put_be64(dst + kKeySize, r.from);
}
inline FromRecord decode_from(const std::uint8_t* src) noexcept {
  return {decode_key(src), util::get_be64(src + kKeySize)};
}

inline void encode_to(const ToRecord& r, std::uint8_t* dst) noexcept {
  encode_key(r.key, dst);
  util::put_be64(dst + kKeySize, r.to);
}
inline ToRecord decode_to(const std::uint8_t* src) noexcept {
  return {decode_key(src), util::get_be64(src + kKeySize)};
}

inline void encode_combined(const CombinedRecord& r, std::uint8_t* dst) noexcept {
  encode_key(r.key, dst);
  util::put_be64(dst + kKeySize, r.from);
  util::put_be64(dst + kKeySize + 8, r.to);
}
inline CombinedRecord decode_combined(const std::uint8_t* src) noexcept {
  return {decode_key(src), util::get_be64(src + kKeySize),
          util::get_be64(src + kKeySize + 8)};
}

/// Human-readable form for logs, test failures and the examples.
std::string to_string(const BackrefKey& k);
std::string to_string(const CombinedRecord& r);

}  // namespace backlog::core
