#include "net/client.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace backlog::net {

namespace {

/// Max decoded length of a text-report body (bounded by the frame cap
/// anyway; this is the explicit Reader cap).
constexpr std::size_t kMaxTextBody = kMaxFramePayload;

std::string text_request(Client& c, Verb verb, const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  const auto body = c.call(verb, tenant, w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

std::uint64_t mono_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// ±50% multiplicative jitter from a cheap per-process xorshift — good
/// enough to de-synchronize a fleet of retrying clients, and free of
/// <random>'s per-call construction cost.
std::uint32_t jittered(std::uint32_t base_ms) {
  static thread_local std::uint64_t state =
      0x9e3779b97f4a7c15ull ^
      (static_cast<std::uint64_t>(::getpid()) << 32) ^ mono_ms();
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  const std::uint32_t half = std::max<std::uint32_t>(1, base_ms / 2);
  return half + static_cast<std::uint32_t>(state % (2 * half));
}

/// One bounded connect attempt on an already-created socket. Returns 0 on
/// success, the failing errno otherwise (ETIMEDOUT for a poll timeout).
int connect_bounded(int fd, const sockaddr* addr, socklen_t addrlen,
                    std::uint32_t timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return errno;
  int rc;
  do {
    rc = ::connect(fd, addr, addrlen);
  } while (rc < 0 && errno == EINTR);
  int err = 0;
  if (rc < 0) {
    if (errno != EINPROGRESS) {
      err = errno;
    } else {
      const std::uint64_t deadline = mono_ms() + timeout_ms;
      pollfd pfd{fd, POLLOUT, 0};
      for (;;) {
        const std::uint64_t now = mono_ms();
        if (now >= deadline) {
          err = ETIMEDOUT;
          break;
        }
        const int pr = ::poll(&pfd, 1, static_cast<int>(deadline - now));
        if (pr < 0) {
          if (errno == EINTR) continue;
          err = errno;
          break;
        }
        if (pr == 0) {
          err = ETIMEDOUT;
          break;
        }
        socklen_t len = sizeof err;
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
          err = errno;
        break;
      }
    }
  }
  if (err == 0 && ::fcntl(fd, F_SETFL, flags) < 0) err = errno;
  return err;
}

}  // namespace

bool parse_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) return false;
  const std::string port_str = spec.substr(colon + 1);
  std::uint64_t p = 0;
  for (const char ch : port_str) {
    if (ch < '0' || ch > '9') return false;
    p = p * 10 + static_cast<std::uint64_t>(ch - '0');
    if (p > 65535) return false;
  }
  if (p == 0) return false;
  host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  connect(host, port, ConnectOptions{});
}

void Client::connect(const std::string& host, std::uint16_t port,
                     const ConnectOptions& opts) {
  close();
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("resolve " + host + ": " + ::gai_strerror(rc));
  }
  // Retrying a connect is always safe (no request has been issued), so a
  // client can race a daemon's startup: keep attempting for retry_for_ms
  // with exponentially backed-off, jittered pauses.
  const std::uint64_t give_up = mono_ms() + opts.retry_for_ms;
  std::uint32_t backoff = kRetryBackoffMs;
  int last_errno = ECONNREFUSED;
  for (;;) {
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                              ai->ai_protocol);
      if (fd < 0) {
        last_errno = errno;
        continue;
      }
      const int err =
          connect_bounded(fd, ai->ai_addr, ai->ai_addrlen, kConnectTimeoutMs);
      if (err == 0) {
        fd_ = fd;
        break;
      }
      last_errno = err;
      ::close(fd);
    }
    if (fd_ >= 0 || mono_ms() >= give_up) break;
    const std::uint32_t pause = jittered(backoff);
    backoff = std::min<std::uint32_t>(backoff * 2, 1000);
    ::poll(nullptr, 0, static_cast<int>(pause));  // signal-tolerant sleep
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) {
    throw std::runtime_error("connect " + host + ":" + port_str + ": " +
                             std::strerror(last_errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Client::adopt(int fd) {
  close();
  fd_ = fd;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::write_all(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close();
      throw std::runtime_error(std::string("net write: ") +
                               std::strerror(err));
    }
    if (n == 0) {
      close();
      throw std::runtime_error("net write: wrote 0 bytes");
    }
    off += static_cast<std::size_t>(n);
  }
}

bool Client::read_exact(std::uint8_t* dst, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd_, dst + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close();
      throw std::runtime_error(std::string("net read: ") + std::strerror(err));
    }
    if (r == 0) {
      close();
      if (off == 0) return false;
      throw std::runtime_error("net read: connection closed mid-frame");
    }
    off += static_cast<std::size_t>(r);
  }
  return true;
}

std::vector<std::uint8_t> Client::call(Verb verb, const std::string& tenant,
                                       std::span<const std::uint8_t> payload) {
  if (fd_ < 0) throw std::runtime_error("net: not connected");
  write_all(encode_frame(static_cast<std::uint16_t>(verb),
                         tenant_hash(tenant), payload));

  std::vector<std::uint8_t> frame(kHeaderSize);
  if (!read_exact(frame.data(), kHeaderSize)) {
    throw std::runtime_error("net: connection closed by server");
  }
  FrameHeader h;
  const HeaderStatus hs = decode_header(frame, h);
  if (hs != HeaderStatus::kOk) {
    close();
    throw std::runtime_error(std::string("net: bad response header: ") +
                             to_string(hs));
  }
  if (!h.is_response() ||
      h.verb_id() != verb) {
    close();
    throw std::runtime_error("net: response verb mismatch");
  }
  frame.resize(kHeaderSize + h.payload_len);
  if (h.payload_len != 0 &&
      !read_exact(frame.data() + kHeaderSize, h.payload_len)) {
    throw std::runtime_error("net: connection closed mid-frame");
  }
  if (!frame_crc_ok(frame)) {
    close();
    throw std::runtime_error("net: response crc mismatch");
  }

  util::Reader r(std::span<const std::uint8_t>(frame).subspan(kHeaderSize));
  const ResponseView v = decode_response_prefix(r);
  if (v.code != service::ErrorCode::kOk) {
    throw service::ServiceError(v.code, v.message);
  }
  const auto body = r.bytes(r.remaining());
  return {body.begin(), body.end()};
}

void Client::ping() { call(Verb::kPing, "", {}); }

void Client::open_volume(const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  call(Verb::kOpenVolume, tenant, w.data());
}

void Client::close_volume(const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  call(Verb::kCloseVolume, tenant, w.data());
}

void Client::destroy_volume(const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  call(Verb::kDestroyVolume, tenant, w.data());
}

std::vector<std::string> Client::list_tenants() {
  const auto body = call(Verb::kListTenants, "", {});
  util::Reader r(body);
  const std::uint32_t n = r.count(1u << 20);
  std::vector<std::string> out;
  out.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(r.string(wire::kMaxTenantLen));
  }
  return out;
}

void Client::apply_batch(const std::string& tenant,
                         const std::vector<service::UpdateOp>& batch) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  wire::put_update_ops(w, batch);
  call(Verb::kApplyBatch, tenant, w.data());
}

std::vector<std::vector<core::BackrefEntry>> Client::query_batch(
    const std::string& tenant,
    const std::vector<service::QueryRange>& ranges) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  wire::put_query_ranges(w, ranges);
  const auto body = call(Verb::kQueryBatch, tenant, w.data());
  util::Reader r(body);
  return wire::get_query_results(r);
}

core::CpFlushStats Client::consistency_point(const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  const auto body = call(Verb::kConsistencyPoint, tenant, w.data());
  util::Reader r(body);
  return wire::get_cp_stats(r);
}

core::Epoch Client::take_snapshot(const std::string& tenant,
                                  core::LineId line) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  w.u64(line);
  const auto body = call(Verb::kTakeSnapshot, tenant, w.data());
  util::Reader r(body);
  return r.u64();
}

std::vector<core::Epoch> Client::list_versions(const std::string& tenant,
                                               core::LineId line) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  w.u64(line);
  const auto body = call(Verb::kListVersions, tenant, w.data());
  util::Reader r(body);
  const std::uint32_t n = r.count(1u << 24);
  std::vector<core::Epoch> out;
  out.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u64());
  return out;
}

Client::CloneResult Client::clone_volume(const std::string& src,
                                         const std::string& dst,
                                         core::LineId parent_line,
                                         core::Epoch version) {
  util::Writer w;
  wire::put_tenant(w, src);
  wire::put_tenant(w, dst);
  w.u64(parent_line);
  w.u64(version);
  const auto body = call(Verb::kCloneVolume, src, w.data());
  util::Reader r(body);
  CloneResult res;
  res.new_line = r.u64();
  res.shared_files = r.u64();
  res.shared_bytes = r.u64();
  res.saved_bytes = r.u64();
  return res;
}

service::MigrationStats Client::migrate_volume(const std::string& tenant,
                                               std::uint64_t target_shard) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  w.u64(target_shard);
  const auto body = call(Verb::kMigrateVolume, tenant, w.data());
  util::Reader r(body);
  return wire::get_migration_stats(r);
}

void Client::set_qos(const std::string& tenant,
                     const service::TenantQos& qos) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  wire::put_qos(w, qos);
  call(Verb::kSetQos, tenant, w.data());
}

service::QosSnapshot Client::qos_snapshot(const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  const auto body = call(Verb::kQosSnapshot, tenant, w.data());
  util::Reader r(body);
  return wire::get_qos_snapshot(r);
}

core::QuickStats Client::quick_stats(const std::string& tenant) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  const auto body = call(Verb::kQuickStats, tenant, w.data());
  util::Reader r(body);
  return wire::get_quick_stats(r);
}

std::string Client::stats_text(bool json) {
  util::Writer w;
  w.u8(json ? 1 : 0);
  const auto body = call(Verb::kStatsText, "", w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

std::string Client::metrics_text(bool json) {
  util::Writer w;
  w.u8(json ? 1 : 0);
  const auto body = call(Verb::kMetricsText, "", w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

service::RateSample Client::poll_rates() {
  const auto body = call(Verb::kPollRates, "", {});
  util::Reader r(body);
  return wire::get_rate_sample(r);
}

void Client::set_tracing(std::uint32_t sample_every,
                         std::uint64_t slow_op_micros) {
  util::Writer w;
  w.u32(sample_every);
  w.u64(slow_op_micros);
  call(Verb::kSetTracing, "", w.data());
}

std::string Client::trace_text(std::uint64_t sample, std::uint64_t slow_us) {
  util::Writer w;
  w.u64(sample);
  w.u64(slow_us);
  const auto body = call(Verb::kTraceText, "", w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

std::string Client::info_text(const std::string& tenant) {
  return text_request(*this, Verb::kInfoText, tenant);
}

std::string Client::runs_text(const std::string& tenant) {
  return text_request(*this, Verb::kRunsText, tenant);
}

std::string Client::query_text(const std::string& tenant, core::BlockNo first,
                               std::uint64_t count, bool raw) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  w.u64(first);
  w.u64(count);
  w.u8(raw ? 1 : 0);
  const auto body = call(Verb::kQueryText, tenant, w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

std::string Client::scan_text(const std::string& tenant) {
  return text_request(*this, Verb::kScanText, tenant);
}

std::string Client::maintain_text(const std::string& tenant) {
  return text_request(*this, Verb::kMaintainText, tenant);
}

std::string Client::dump_run_text(const std::string& tenant,
                                  const std::string& file) {
  util::Writer w;
  wire::put_tenant(w, tenant);
  w.string(file);
  const auto body = call(Verb::kDumpRunText, tenant, w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

std::string Client::balance_text(std::uint64_t cycles) {
  util::Writer w;
  w.u64(cycles);
  const auto body = call(Verb::kBalanceText, "", w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

std::string Client::cache_text(bool json) {
  util::Writer w;
  w.u8(json ? 1 : 0);
  const auto body = call(Verb::kCacheText, "", w.data());
  util::Reader r(body);
  return r.string(kMaxTextBody);
}

void Client::cache_clear() { call(Verb::kCacheClear, "", {}); }

}  // namespace backlog::net
