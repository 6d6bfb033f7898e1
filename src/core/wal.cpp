#include "core/wal.hpp"

#include <stdexcept>
#include <vector>

#include "util/serde.hpp"

namespace backlog::core {

namespace {

constexpr std::uint64_t kWalMagic = 0x324c4157474c4b42ULL;  // "BKLGWAL2"

}  // namespace

Wal::Wal(storage::Env& env, std::string name)
    : log_(env, std::move(name), kWalMagic) {}

void Wal::append(Epoch epoch, std::span<const Update> ops) {
  if (ops.empty()) return;
  if (ops.size() > kMaxOpsPerRecord)
    throw std::invalid_argument("Wal::append: batch exceeds kMaxOpsPerRecord");
  log_.append([&](std::vector<std::uint8_t>& out) {
    const std::size_t at = out.size();
    out.resize(at + kPayloadHeaderSize + ops.size() * kOpSize);
    std::uint8_t* p = out.data() + at;
    util::put_u64(p, epoch);
    util::put_u32(p + 8, static_cast<std::uint32_t>(ops.size()));
    p += kPayloadHeaderSize;
    for (const Update& op : ops) {
      *p = static_cast<std::uint8_t>(op.kind);
      encode_key(op.key, p + 1);
      p += kOpSize;
    }
  });
}

WalReplayStats Wal::replay(storage::Env& env, const std::string& name,
                           const WalReplayOptions& options,
                           const ApplyFn& apply) {
  WalReplayStats stats;
  std::vector<Update> ops;
  // The frame's CRC matched, so a payload that fails here was written
  // wrong or corrupted past the CRC's reach: reject it like a torn frame.
  const auto decode = [&](std::span<const std::uint8_t> payload) {
    if (payload.size() < kPayloadHeaderSize) return false;
    const Epoch epoch = util::get_u64(payload.data());
    const std::uint32_t op_count = util::get_u32(payload.data() + 8);
    if (op_count > kMaxOpsPerRecord ||
        payload.size() != kPayloadHeaderSize + op_count * kOpSize)
      return false;
    ops.clear();
    const std::uint8_t* p = payload.data() + kPayloadHeaderSize;
    for (std::uint32_t i = 0; i < op_count; ++i, p += kOpSize) {
      if (*p > static_cast<std::uint8_t>(Update::Kind::kRemove)) return false;
      const Update op{static_cast<Update::Kind>(*p), decode_key(p + 1)};
      // The append path logs only batches the db already applied, so an op
      // the db would refuse is corruption, not input.
      if (op.key.length == 0 || op.key.length > options.max_extent_blocks)
        return false;
      ops.push_back(op);
    }
    if (epoch < options.min_epoch) {
      stats.ops_skipped += op_count;
    } else if (op_count > 0) {
      apply(epoch, ops);
      stats.ops_applied += op_count;
    }
    return true;
  };
  const RecordLogReplay r = RecordLog::replay(env, name, kWalMagic, decode);
  stats.frames_scanned = r.records;
  stats.bytes_rejected = r.bytes_dropped;
  return stats;
}

}  // namespace backlog::core
