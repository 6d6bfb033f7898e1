#include "core/file_manifest.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

namespace backlog::core {

namespace {
constexpr char kRefsName[] = "FILEREFS";
constexpr char kRefsTmpName[] = "FILEREFS.tmp";
}  // namespace

FileManifest::FileManifest(std::filesystem::path root) : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
  load();
}

void FileManifest::load() {
  std::ifstream in(root_ / kRefsName);
  if (!in.is_open()) return;
  // One line per shared file: "<refcount> <size_bytes> <name>". The file is
  // untrusted on-disk state, so each field is validated before it is
  // believed: the name must look like a run file that could actually live in
  // a volume directory (no path separators, .run suffix, bounded length) and
  // the counters must be within what the clone machinery can produce —
  // anything else, including a hostile 2^63 size that would overflow the
  // saved-bytes accounting, stops the parse. rebuild() re-derives the truth
  // from the volume directories anyway.
  constexpr std::size_t kMaxName = 512;
  constexpr std::size_t kMaxEntries = 1u << 20;
  constexpr std::uint32_t kMaxRefcount = 1u << 20;
  constexpr std::uint64_t kMaxSizeBytes = 1ull << 50;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::uint32_t refcount = 0;
    std::uint64_t size_bytes = 0;
    std::string name;
    if (!(row >> refcount >> size_bytes >> name) || refcount < 2 ||
        refcount > kMaxRefcount || size_bytes > kMaxSizeBytes ||
        name.empty() || name.size() > kMaxName || !name.ends_with(".run") ||
        name.find('/') != std::string::npos ||
        name.find('\\') != std::string::npos) {
      break;
    }
    entries_[name] = Entry{refcount, size_bytes};
    if (entries_.size() >= kMaxEntries) break;
  }
}

void FileManifest::note_link(const std::string& name,
                             std::uint64_t size_bytes) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = entries_.try_emplace(name, Entry{2, size_bytes});
  if (!inserted) ++it->second.refcount;
  dirty_ = true;
}

bool FileManifest::note_unlink(const std::string& name) {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  if (--it->second.refcount <= 1) entries_.erase(it);
  dirty_ = true;
  return true;
}

void FileManifest::persist() {
  std::lock_guard lock(mu_);
  persist_locked();
}

void FileManifest::persist_if_dirty() {
  std::lock_guard lock(mu_);
  if (dirty_) persist_locked();
}

void FileManifest::persist_locked() {
  const std::filesystem::path tmp = root_ / kRefsTmpName;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open())
      throw std::runtime_error("FileManifest: cannot write " + tmp.string());
    for (const auto& [name, e] : entries_) {
      out << e.refcount << ' ' << e.size_bytes << ' ' << name << '\n';
    }
  }
  std::filesystem::rename(tmp, root_ / kRefsName);
  ++persists_;
  dirty_ = false;
}

bool FileManifest::is_shared(const std::string& name) const {
  std::lock_guard lock(mu_);
  return entries_.contains(name);
}

std::uint32_t FileManifest::refcount(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.refcount;
}

std::map<std::string, FileManifest::Entry> FileManifest::snapshot() const {
  std::lock_guard lock(mu_);
  return entries_;
}

FileManifest::Stats FileManifest::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.shared_files = entries_.size();
  s.persists = persists_;
  for (const auto& [name, e] : entries_) {
    s.shared_bytes += e.size_bytes;
    s.saved_bytes += e.size_bytes * (e.refcount - 1);
  }
  return s;
}

std::size_t FileManifest::rebuild(
    const std::vector<std::filesystem::path>& volume_dirs) {
  std::lock_guard lock(mu_);
  // Group holders by (device, inode), not by name alone: a run a clone had
  // to byte-copy duplicates its name across directories without sharing
  // storage, and spurious entries would misreport deduplication.
  using InodeId = std::pair<std::uint64_t, std::uint64_t>;
  std::map<std::string, std::map<InodeId, Entry>> counted;
  for (const auto& dir : volume_dirs) {
    std::error_code ec;
    for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
      if (!de.is_regular_file()) continue;
      const std::string name = de.path().filename().string();
      if (!name.ends_with(".run")) continue;
      struct ::stat st{};
      if (::stat(de.path().c_str(), &st) != 0) continue;
      const InodeId id{static_cast<std::uint64_t>(st.st_dev),
                       static_cast<std::uint64_t>(st.st_ino)};
      auto [it, inserted] = counted[name].try_emplace(
          id, Entry{1, static_cast<std::uint64_t>(st.st_size)});
      if (!inserted) ++it->second.refcount;
    }
  }
  entries_.clear();
  for (auto& [name, by_inode] : counted) {
    // At most one inode group per name can be shared in practice (only
    // clones create links); keep the most-held one if several exist.
    const Entry* best = nullptr;
    for (const auto& [id, e] : by_inode) {
      if (best == nullptr || e.refcount > best->refcount) best = &e;
    }
    if (best != nullptr && best->refcount >= 2) entries_.emplace(name, *best);
  }
  persist_locked();
  return entries_.size();
}

}  // namespace backlog::core
