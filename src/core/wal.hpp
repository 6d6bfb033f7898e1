// Write-ahead log for the group-commit durability pipeline (ROADMAP item).
//
// A consistency point is the paper's durability unit, but it is far too
// heavy to pay per operation: flushing the write store rewrites runs and
// the manifest. The WAL makes individual updates durable *between* CPs at
// the cost of one sequential append plus an (amortized) fsync: the service
// layer appends every applied batch here, group-commits one fsync across
// all volumes of a shard inside a commit window, and acks the callers only
// after that sync. A CP makes the logged window durable in run files, so
// the log is truncated behind the committed epoch.
//
// Each batch is one RecordLog record (record_log.hpp: framing, CRC and
// torn-tail rule) under the WAL's own magic. Its payload, little-endian:
//   [0,8)   epoch — BacklogDb::current_cp() at append time; replay skips
//           records below the recovered db's committed epoch (their ops are
//           already durable in run files)
//   [8,12)  op_count
//   then    op_count × 41 bytes { kind u8 (0=add, 1=remove), 40-byte
//           big-endian BackrefKey (the encode_key format run files use) }
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/backref_record.hpp"
#include "core/record_log.hpp"
#include "storage/env.hpp"

namespace backlog::core {

/// Outcome of one replay pass. A rejected tail may be torn, corrupt or
/// another log's: none of it was ever acknowledged durable.
struct WalReplayStats {
  std::uint64_t frames_scanned = 0;   ///< well-formed records seen
  std::uint64_t ops_applied = 0;      ///< ops delivered to the apply callback
  std::uint64_t ops_skipped = 0;      ///< ops below min_epoch (already in runs)
  std::uint64_t bytes_rejected = 0;   ///< the rejected tail, up to EOF
};

struct WalReplayOptions {
  /// Records with epoch < min_epoch are skipped, not applied: a CP that
  /// committed at this epoch already flushed them into run files.
  Epoch min_epoch = 0;
  /// Extent-length cap mirroring BacklogOptions::max_extent_blocks: a
  /// CRC-valid record carrying an op over the cap is clean-rejected here
  /// instead of exploding out of BacklogDb::apply_many mid-recovery.
  std::uint64_t max_extent_blocks = kInfinity;
};

/// Append-only log of Update batches, one per volume directory; the group
/// commit across a shard's volumes is the service layer's job. Not
/// thread-safe: owned and driven by the volume's shard thread.
class Wal {
 public:
  static constexpr const char* kDefaultName = "WAL";
  static constexpr std::size_t kPayloadHeaderSize = 12;  // epoch, op_count
  static constexpr std::size_t kOpSize = 1 + kKeySize;   // kind, key
  /// Largest op count of one record; replay rejects a record over it.
  static constexpr std::uint32_t kMaxOpsPerRecord = 1u << 20;

  /// Opens (creating if missing) `name` under `env`, preserving existing
  /// contents — recovery reads the old tail via replay() before the first
  /// append lands.
  explicit Wal(storage::Env& env, std::string name = kDefaultName);

  /// Appends one record. Buffered by the kernel only — call sync() (or let
  /// the shard's group-commit window do it) before acking durability.
  /// Empty batches append nothing.
  void append(Epoch epoch, std::span<const Update> ops);

  /// Durability barrier; a no-op when nothing was appended since the last.
  void sync() { log_.sync(); }

  /// True when appends since the last sync() await a durability barrier.
  [[nodiscard]] bool dirty() const noexcept { return log_.dirty(); }

  /// Empties the log, once a committed CP holds every logged op in runs.
  void reset() { log_.truncate(); }

  using ApplyFn = std::function<void(Epoch, std::span<const Update>)>;

  /// Replays `name` (missing file == empty log), delivering each surviving
  /// record's ops to `apply` in append order. Never throws on bad bytes:
  /// the first torn, corrupt or undecodable record rejects the remainder
  /// of the file (see WalReplayStats). Exceptions from `apply` itself
  /// propagate — the callback is trusted code.
  static WalReplayStats replay(storage::Env& env, const std::string& name,
                               const WalReplayOptions& options,
                               const ApplyFn& apply);

 private:
  RecordLog log_;
};

}  // namespace backlog::core
