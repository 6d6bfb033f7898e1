#include "storage/env.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "storage/block_cache.hpp"
#include "util/clock.hpp"

static_assert(std::endian::native == std::endian::little,
              "Backlog on-disk formats require a little-endian host");

namespace backlog::storage {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::uint64_t pages_touched(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return 0;
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  return last - first + 1;
}

/// Bytes of a `size`-byte append that land before an injected failure. A
/// torn page lands half of one 4 KB page, always short of the request.
std::size_t admitted_bytes(util::FaultAction::Kind kind, std::size_t size) {
  using Kind = util::FaultAction::Kind;
  if (kind == Kind::kShortWrite) return size / 2;
  if (kind == Kind::kTornPage && size != 0)
    return std::min<std::size_t>(size - 1, kPageSize / 2);
  return 0;
}

/// Accumulates wall time spent inside a syscall loop into IoStats::io_micros
/// (two steady-clock reads, negligible against the syscall itself).
class IoTimer {
 public:
  explicit IoTimer(IoStats& stats)
      : stats_(stats), start_(util::now_micros()) {}
  ~IoTimer() { stats_.io_micros += util::now_micros() - start_; }

  IoTimer(const IoTimer&) = delete;
  IoTimer& operator=(const IoTimer&) = delete;

 private:
  IoStats& stats_;
  std::uint64_t start_;
};

}  // namespace

Env::Env(std::filesystem::path root) : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
  // Merges legitimately hold many run files open at once; lift the soft fd
  // limit to the hard limit once per process (idempotent, best effort).
  static const bool raised = [] {
    struct rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
      rl.rlim_cur = rl.rlim_max;
      ::setrlimit(RLIMIT_NOFILE, &rl);
    }
    return true;
  }();
  (void)raised;
}

void Env::invalidate_cached_file(const std::filesystem::path& path,
                                 bool last_link_only) noexcept {
  if (block_cache_ == nullptr) return;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return;
  if (last_link_only && st.st_nlink > 1) return;
  block_cache_->erase_file(static_cast<std::uint64_t>(st.st_dev),
                           static_cast<std::uint64_t>(st.st_ino));
}

std::unique_ptr<WritableFile> Env::create_file(const std::string& name) {
  if (faults_ != nullptr)
    faults_->check(util::fault_point("env.create"), fault_volume_);
  // O_TRUNC reuses the existing inode: stale pages of the old contents must
  // not survive under the same (dev, ino) key.
  invalidate_cached_file(full(name), /*last_link_only=*/false);
  ++stats_.files_created;
  return std::make_unique<WritableFile>(*this, full(name));
}

std::unique_ptr<WritableFile> Env::append_file(const std::string& name) {
  if (!file_exists(name)) ++stats_.files_created;
  return std::make_unique<WritableFile>(*this, full(name), /*truncate=*/false);
}

std::unique_ptr<RandomAccessFile> Env::open_file(const std::string& name) {
  return std::make_unique<RandomAccessFile>(*this, full(name), /*writable=*/false);
}

std::unique_ptr<RandomAccessFile> Env::open_paged_rw(const std::string& name) {
  if (!file_exists(name)) {
    ++stats_.files_created;
    // Touch the file so open(O_RDWR) succeeds.
    const int fd = ::open(full(name).c_str(), O_CREAT | O_WRONLY, 0644);
    if (fd < 0) throw_errno("create " + name);
    ::close(fd);
  }
  return std::make_unique<RandomAccessFile>(*this, full(name), /*writable=*/true);
}

bool Env::file_exists(const std::string& name) const {
  return std::filesystem::exists(full(name));
}

std::uint64_t Env::file_size(const std::string& name) const {
  return std::filesystem::file_size(full(name));
}

std::uint64_t Env::link_count(const std::string& name) const {
  return std::filesystem::hard_link_count(full(name));
}

void Env::delete_file(const std::string& name) {
  if (faults_ != nullptr)
    faults_->check(util::fault_point("env.delete"), fault_volume_);
  // Removing the *last* hard link frees the inode for recycling; a later
  // file may be handed the same (dev, ino) and would alias any cached pages
  // left behind. Links held by other volumes (CoW-shared runs) keep the
  // entries alive — the bytes are still live there.
  invalidate_cached_file(full(name), /*last_link_only=*/true);
  if (!std::filesystem::remove(full(name))) {
    throw std::runtime_error("delete_file: no such file: " + name);
  }
  ++stats_.files_deleted;
}

void Env::rename_file(const std::string& from, const std::string& to) {
  if (faults_ != nullptr)
    faults_->check(util::fault_point("env.rename"), fault_volume_);
  // rename over an existing target unlinks the target exactly like
  // delete_file would.
  invalidate_cached_file(full(to), /*last_link_only=*/true);
  std::filesystem::rename(full(from), full(to));
}

void Env::link_file_to(const std::string& name,
                       const std::filesystem::path& dst_dir) {
  if (faults_ != nullptr)
    faults_->check(util::fault_point("env.link"), fault_volume_);
  std::filesystem::create_hard_link(full(name), dst_dir / name);
  ++stats_.files_created;
}

void Env::copy_file_to(const std::string& name,
                       const std::filesystem::path& dst_dir) {
  if (faults_ != nullptr)
    faults_->check(util::fault_point("env.copy"), fault_volume_);
  std::filesystem::copy_file(full(name), dst_dir / name,
                             std::filesystem::copy_options::overwrite_existing);
  const std::uint64_t bytes = std::filesystem::file_size(dst_dir / name);
  ++stats_.files_created;
  stats_.bytes_written += bytes;
  stats_.page_writes += pages_touched(0, bytes);
}

std::vector<std::string> Env::list_files() const {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

WritableFile::WritableFile(Env& env, const std::filesystem::path& path,
                           bool truncate)
    : env_(env), name_(path.filename().string()) {
  const int flags = O_CREAT | O_WRONLY | (truncate ? O_TRUNC : O_APPEND);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("open for write: " + path.string());
  if (!truncate) {
    const off_t sz = ::lseek(fd_, 0, SEEK_END);
    if (sz < 0) throw_errno("lseek");
    size_ = static_cast<std::uint64_t>(sz);
  }
}

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

void WritableFile::append(std::span<const std::uint8_t> data) {
  if (fd_ < 0) throw std::logic_error("WritableFile: append after close");
  util::InjectedFault fault;
  if (env_.faults_ != nullptr) {
    fault = env_.faults_->hit(util::fault_point("env.append"),
                              env_.fault_volume_);
    if (fault) data = data.first(admitted_bytes(fault.kind, data.size()));
  }
  const IoTimer timer(env_.stats_);
  const std::uint8_t* p = data.data();
  std::size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    // POSIX allows write() to return 0 for a nonzero count (e.g. a
    // non-blocking target); retrying would spin forever, so treat it as the
    // I/O error it is.
    if (n == 0)
      throw std::runtime_error("WritableFile: write returned 0 bytes");
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  env_.stats_.page_writes += pages_touched(size_, data.size());
  env_.stats_.bytes_written += data.size();
  size_ += data.size();
  if (fault) {
    throw std::system_error(fault.err, std::generic_category(),
                            "write (injected fault): " + name_);
  }
}

void WritableFile::sync() {
  if (fd_ < 0) return;
  if (env_.faults_ != nullptr)
    env_.faults_->check(util::fault_point("env.sync"), env_.fault_volume_);
  if (!env_.sync_enabled_) return;
  const std::uint64_t start = util::now_micros();
  if (::fsync(fd_) < 0) throw_errno("fsync");
  const std::uint64_t d = util::now_micros() - start;
  ++env_.stats_.fsyncs;
  env_.stats_.fsync_micros += d;
  env_.stats_.io_micros += d;
}

void WritableFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RandomAccessFile::RandomAccessFile(Env& env, const std::filesystem::path& path,
                                   bool writable)
    : env_(env), writable_(writable) {
  fd_ = ::open(path.c_str(), writable ? O_RDWR : O_RDONLY);
  if (fd_ < 0) throw_errno("open: " + path.string());
  const off_t sz = ::lseek(fd_, 0, SEEK_END);
  if (sz < 0) throw_errno("lseek");
  size_ = static_cast<std::uint64_t>(sz);
  struct stat st{};
  if (::fstat(fd_, &st) < 0) throw_errno("fstat: " + path.string());
  dev_ = static_cast<std::uint64_t>(st.st_dev);
  ino_ = static_cast<std::uint64_t>(st.st_ino);
}

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) ::close(fd_);
}

void RandomAccessFile::read(std::uint64_t offset,
                            std::span<std::uint8_t> data) const {
  const IoTimer timer(env_.stats_);
  std::uint8_t* p = data.data();
  std::size_t remaining = data.size();
  std::uint64_t off = offset;
  while (remaining > 0) {
    const ssize_t n = ::pread(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread");
    }
    if (n == 0) throw std::runtime_error("RandomAccessFile: short read");
    p += n;
    off += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::size_t>(n);
  }
  env_.stats_.page_reads += pages_touched(offset, data.size());
  env_.stats_.bytes_read += data.size();
}

void RandomAccessFile::read_page(std::uint64_t page_no,
                                 std::span<std::uint8_t> page) const {
  if (page.size() != kPageSize)
    throw std::invalid_argument("read_page: buffer must be one page");
  read(page_no * kPageSize, page);
}

void RandomAccessFile::write_page(std::uint64_t page_no,
                                  std::span<const std::uint8_t> page) {
  if (!writable_) throw std::logic_error("write_page on read-only file");
  if (page.size() != kPageSize)
    throw std::invalid_argument("write_page: buffer must be one page");
  const IoTimer timer(env_.stats_);
  const std::uint64_t offset = page_no * kPageSize;
  const std::uint8_t* p = page.data();
  std::size_t remaining = page.size();
  std::uint64_t off = offset;
  while (remaining > 0) {
    const ssize_t n = ::pwrite(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwrite");
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::size_t>(n);
  }
  env_.stats_.page_writes += 1;
  env_.stats_.bytes_written += page.size();
  size_ = std::max(size_, offset + kPageSize);
}

void RandomAccessFile::sync() {
  if (!env_.sync_enabled_) return;
  const std::uint64_t start = util::now_micros();
  if (::fsync(fd_) < 0) throw_errno("fsync");
  const std::uint64_t d = util::now_micros() - start;
  ++env_.stats_.fsyncs;
  env_.stats_.fsync_micros += d;
  env_.stats_.io_micros += d;
}

TempDir::TempDir(const std::string& prefix) {
  static std::atomic<std::uint64_t> counter{0};
  const auto base = std::filesystem::temp_directory_path();
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto candidate =
        base / (prefix + "-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = std::move(candidate);
      return;
    }
  }
  throw std::runtime_error("TempDir: could not create a unique directory");
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // best effort
}

}  // namespace backlog::storage
