// Storage environment: all file I/O in this repository flows through Env so
// that every experiment can report exact page-granularity I/O counts — the
// paper's primary overhead metric is "I/O writes (4 KB blocks) per block
// operation" (Fig. 5/7).
//
// Files are accessed through RAII wrappers; an Env owns an IoStats block that
// the wrappers update. Reads performed through the BlockCache (see
// block_cache.hpp) are only charged on cache miss, mirroring the paper's
// 32 MB query cache setup (§6.1).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/fault_points.hpp"

namespace backlog::storage {

/// All on-disk structures use 4 KB pages (the paper's WAFL block size).
inline constexpr std::size_t kPageSize = 4096;

/// Monotonically increasing I/O counters. `page_reads`/`page_writes` count
/// 4 KB pages touched, the unit the paper reports. `fsyncs`/`fsync_micros`
/// count durability barriers actually issued (no-op syncs under
/// `set_sync(false)` are not charged); `io_micros` is wall time spent inside
/// read/write/fsync syscalls (fsync time is a subset of it) and is what the
/// per-op trace spans report as their IO stage.
struct IoStats {
  std::uint64_t page_reads = 0;
  std::uint64_t page_writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t files_created = 0;
  std::uint64_t files_deleted = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t fsync_micros = 0;
  std::uint64_t io_micros = 0;

  void reset() { *this = IoStats{}; }

  /// Field-complete accumulate: VolumeManager::stats() and every other
  /// consumer fold IoStats with this operator so a newly added counter
  /// cannot be silently dropped (the static_assert below trips when a field
  /// is added without updating += and -).
  IoStats& operator+=(const IoStats& rhs) {
    page_reads += rhs.page_reads;
    page_writes += rhs.page_writes;
    bytes_read += rhs.bytes_read;
    bytes_written += rhs.bytes_written;
    files_created += rhs.files_created;
    files_deleted += rhs.files_deleted;
    fsyncs += rhs.fsyncs;
    fsync_micros += rhs.fsync_micros;
    io_micros += rhs.io_micros;
    return *this;
  }

  IoStats operator-(const IoStats& rhs) const {
    IoStats d;
    d.page_reads = page_reads - rhs.page_reads;
    d.page_writes = page_writes - rhs.page_writes;
    d.bytes_read = bytes_read - rhs.bytes_read;
    d.bytes_written = bytes_written - rhs.bytes_written;
    d.files_created = files_created - rhs.files_created;
    d.files_deleted = files_deleted - rhs.files_deleted;
    d.fsyncs = fsyncs - rhs.fsyncs;
    d.fsync_micros = fsync_micros - rhs.fsync_micros;
    d.io_micros = io_micros - rhs.io_micros;
    return d;
  }
};

static_assert(sizeof(IoStats) == 9 * sizeof(std::uint64_t),
              "IoStats gained a field: update operator+= and operator- above");

class WritableFile;
class RandomAccessFile;
class BlockCache;

/// A directory-rooted storage environment with shared I/O accounting.
/// Not thread-safe; each simulated volume owns one Env.
class Env {
 public:
  /// Creates `root` (and parents) if missing.
  explicit Env(std::filesystem::path root);

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }
  [[nodiscard]] IoStats& stats() noexcept { return stats_; }
  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }

  /// When false, sync() calls become no-ops. Durability accounting is
  /// unaffected (page counts are identical); benches disable fsync so that
  /// wall-clock numbers measure the algorithms, not the host's disk. Crash-
  /// consistency tests leave it on.
  void set_sync(bool enabled) noexcept { sync_enabled_ = enabled; }

  /// Open for appending; truncates any existing file.
  std::unique_ptr<WritableFile> create_file(const std::string& name);

  /// Open for appending, preserving existing contents (creates if missing).
  /// Used by the manifest's edit log.
  std::unique_ptr<WritableFile> append_file(const std::string& name);

  /// Open for random reads. Throws std::system_error if missing.
  std::unique_ptr<RandomAccessFile> open_file(const std::string& name);

  /// Open for page-aligned random reads *and* writes (B+-tree backing file);
  /// creates the file if missing.
  std::unique_ptr<RandomAccessFile> open_paged_rw(const std::string& name);

  [[nodiscard]] bool file_exists(const std::string& name) const;
  [[nodiscard]] std::uint64_t file_size(const std::string& name) const;

  /// Hard links to `name` (st_nlink). A run linked into a copy-on-write
  /// clone's directory reports 2 or more: the file system's link count is
  /// the one record of which volumes share a file.
  [[nodiscard]] std::uint64_t link_count(const std::string& name) const;

  void delete_file(const std::string& name);
  void rename_file(const std::string& from, const std::string& to);

  /// Hard-link `name` into `dst_dir` under the same name (the copy-on-write
  /// clone's zero-byte sharing of an immutable file). The destination must
  /// not exist. Counts one file creation, no bytes.
  void link_file_to(const std::string& name,
                    const std::filesystem::path& dst_dir);

  /// Byte-copy `name` into `dst_dir` under the same name, replacing any
  /// existing file (mutable metadata such as a manifest must be copied, not
  /// linked: an append or rewrite through a link would corrupt every
  /// sharer). Charges the copied bytes as written pages.
  void copy_file_to(const std::string& name,
                    const std::filesystem::path& dst_dir);

  /// Attach the fault-injection registry (borrowed; must outlive the Env)
  /// and the volume name its actions target. create_file, link_file_to,
  /// copy_file_to, rename_file, delete_file and WritableFile::append/sync
  /// then fire the env.* points (see util/fault_points.hpp). Null (the
  /// default) disables injection.
  void set_faults(util::FaultPoints* faults, std::string volume) {
    faults_ = faults;
    fault_volume_ = std::move(volume);
  }
  [[nodiscard]] const std::string& fault_volume() const noexcept {
    return fault_volume_;
  }

  /// Names (not paths) of regular files directly under the root, sorted.
  [[nodiscard]] std::vector<std::string> list_files() const;

  /// Attach the (service-shared) block cache so this Env can invalidate
  /// cached pages when an inode becomes eligible for recycling: deleting a
  /// file's *last* physical link, truncating an existing file in place, or
  /// renaming over an existing target all erase the affected (dev, ino)
  /// from the cache. Borrowed; must outlive the Env. Null (the default)
  /// disables invalidation — correct only when nothing reads this Env's
  /// files through a cache.
  void set_block_cache(BlockCache* cache) noexcept { block_cache_ = cache; }
  [[nodiscard]] BlockCache* block_cache() const noexcept {
    return block_cache_;
  }

 private:
  friend class WritableFile;
  friend class RandomAccessFile;

  [[nodiscard]] std::filesystem::path full(const std::string& name) const {
    return root_ / name;
  }

  /// If `path` names an existing file whose link being removed (or whose
  /// contents being replaced in place) would orphan cached pages, erase its
  /// (dev, ino) from the attached block cache. `last_link_only` restricts
  /// the erase to st_nlink == 1 — a file still hard-linked elsewhere keeps
  /// its entries, because the bytes stay live under the other links.
  void invalidate_cached_file(const std::filesystem::path& path,
                              bool last_link_only) noexcept;

  std::filesystem::path root_;
  IoStats stats_;
  util::FaultPoints* faults_ = nullptr;
  std::string fault_volume_;
  bool sync_enabled_ = true;
  BlockCache* block_cache_ = nullptr;
};

/// Append-only file handle. Page-write accounting: every append charges the
/// pages it touches (a partial tail page rewritten by a later append is
/// charged again — matching how a real log would issue the I/O).
class WritableFile {
 public:
  WritableFile(Env& env, const std::filesystem::path& path,
               bool truncate = true);
  ~WritableFile();

  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  void append(std::span<const std::uint8_t> data);
  void sync();
  void close();

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

 private:
  Env& env_;
  std::string name_;  ///< bare file name, for error messages
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

/// Random-access file handle (reads anywhere; page-aligned writes only, used
/// by the update-in-place B+-tree). Reads charge the pages they touch.
class RandomAccessFile {
 public:
  RandomAccessFile(Env& env, const std::filesystem::path& path, bool writable);
  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Read exactly data.size() bytes at `offset`; throws on short read.
  void read(std::uint64_t offset, std::span<std::uint8_t> data) const;

  /// Read one 4 KB page (page-granularity accounting: exactly one read).
  void read_page(std::uint64_t page_no, std::span<std::uint8_t> page) const;

  /// Write one 4 KB page at page_no (extends the file if needed).
  void write_page(std::uint64_t page_no, std::span<const std::uint8_t> page);

  void sync();

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t page_count() const noexcept {
    return (size_ + kPageSize - 1) / kPageSize;
  }

  /// Filesystem identity of the open file, captured by fstat at open. Two
  /// hard links to the same file — a run shared by CoW clones — report the
  /// same (dev, ino), which is what the service-wide BlockCache keys on.
  [[nodiscard]] std::uint64_t dev() const noexcept { return dev_; }
  [[nodiscard]] std::uint64_t ino() const noexcept { return ino_; }

 private:
  Env& env_;
  int fd_ = -1;
  bool writable_ = false;
  std::uint64_t size_ = 0;
  std::uint64_t dev_ = 0;
  std::uint64_t ino_ = 0;
};

/// RAII temporary directory for tests and benches.
class TempDir {
 public:
  /// Creates a fresh directory under the system temp dir.
  explicit TempDir(const std::string& prefix = "backlog");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace backlog::storage
