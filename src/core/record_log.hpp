// RecordLog: the one CRC-framed record log. The MANIFEST (the commit record
// of every consistency point, paper §2) and the WAL are both logs of these
// records, each under its own magic and with its own payload codec.
//
// A record, little-endian: [magic u64][len u32][payload][CRC32C(payload) u32].
// replay() reads the file as untrusted input: it checks every bound before
// the CRC and ends at the first bad record, reporting it instead of throwing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/env.hpp"

namespace backlog::core {

/// What a replay read, and where it stopped.
struct RecordLogReplay {
  std::uint64_t records = 0;        ///< records delivered and accepted
  std::uint64_t bytes_dropped = 0;  ///< from the first bad record to EOF
  bool foreign_magic = false;       ///< that record has another log's magic
};

/// Appends to one log file. Not thread-safe.
class RecordLog {
 public:
  static constexpr std::size_t kHeaderSize = 12;                  // magic, len
  static constexpr std::size_t kFrameOverhead = kHeaderSize + 4;  // and CRC

  /// Opens `name` for appending, keeping its contents (missing == empty).
  RecordLog(storage::Env& env, std::string name, std::uint64_t magic);

  /// Appends one record with one Env append. `encode(buf)` appends the
  /// payload to `buf`, the reused frame buffer, so it is never copied.
  template <typename Encode>
  void append(Encode&& encode) {
    frame_.resize(kHeaderSize);
    encode(frame_);
    write_frame();
  }

  /// Durability barrier; a no-op when nothing was appended since the last.
  void sync();
  /// True when appends since the last sync() await a durability barrier.
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }
  void truncate();

  /// Delivers each intact record of `name` (missing == empty) to `fn` in
  /// order. `fn` returns false to reject a CRC-valid payload, which ends the
  /// replay there; exceptions from `fn` propagate.
  using RecordFn = std::function<bool(std::span<const std::uint8_t>)>;
  static RecordLogReplay replay(storage::Env& env, const std::string& name,
                                std::uint64_t magic, const RecordFn& fn);

 private:
  void write_frame();

  storage::Env& env_;
  std::string name_;
  std::uint64_t magic_;
  std::unique_ptr<storage::WritableFile> file_;
  std::vector<std::uint8_t> frame_;
  bool dirty_ = false;
};

}  // namespace backlog::core
