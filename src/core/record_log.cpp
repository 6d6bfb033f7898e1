#include "core/record_log.hpp"

#include <limits>
#include <stdexcept>

#include "util/crc32c.hpp"
#include "util/serde.hpp"

namespace backlog::core {

RecordLog::RecordLog(storage::Env& env, std::string name, std::uint64_t magic)
    : env_(env), name_(std::move(name)), magic_(magic),
      file_(env_.append_file(name_)) {}

void RecordLog::write_frame() {
  const std::size_t len = frame_.size() - kHeaderSize;
  if (len > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("RecordLog: payload exceeds the u32 length");
  util::put_u64(frame_.data(), magic_);
  util::put_u32(frame_.data() + 8, static_cast<std::uint32_t>(len));
  util::append_u32(frame_, util::crc32c(frame_.data() + kHeaderSize, len));
  file_->append(frame_);
  dirty_ = true;
}

void RecordLog::sync() {
  if (!dirty_) return;
  file_->sync();
  dirty_ = false;
}

void RecordLog::truncate() {
  file_->close();
  file_ = env_.create_file(name_);
  dirty_ = false;
}

RecordLogReplay RecordLog::replay(storage::Env& env, const std::string& name,
                                  std::uint64_t magic, const RecordFn& fn) {
  RecordLogReplay out;
  if (!env.file_exists(name)) return out;
  std::vector<std::uint8_t> buf(env.file_size(name));
  if (!buf.empty()) env.open_file(name)->read(0, buf);
  std::span<const std::uint8_t> rest(buf);
  while (rest.size() >= kHeaderSize) {
    out.foreign_magic = util::get_u64(rest.data()) != magic;
    const std::uint32_t len = util::get_u32(rest.data() + 8);
    if (out.foreign_magic || rest.size() < kFrameOverhead + std::size_t{len})
      break;
    const auto payload = rest.subspan(kHeaderSize, len);
    const std::uint32_t crc = util::get_u32(payload.data() + len);
    if (util::crc32c(payload.data(), len) != crc || !fn(payload)) break;
    ++out.records;
    rest = rest.subspan(kFrameOverhead + len);
  }
  out.bytes_dropped = rest.size();
  return out;
}

}  // namespace backlog::core
