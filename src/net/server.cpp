#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace backlog::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void wake(int event_fd) {
  const std::uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(event_fd, &one, sizeof one);
  } while (n < 0 && errno == EINTR);
}

void drain_eventfd(int event_fd) {
  std::uint64_t v;
  ssize_t n;
  do {
    n = ::read(event_fd, &v, sizeof v);
  } while (n < 0 && errno == EINTR);
}

}  // namespace

Server::~Server() { stop(); }

void Server::register_handler(Verb verb, std::uint32_t max_payload,
                              Handler handler) {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("Server: register_handler after start");
  }
  handlers_[static_cast<std::uint16_t>(verb)] =
      VerbEntry{max_payload, std::move(handler)};
}

void Server::start(const ServerOptions& options) {
  start_io(options);
  try {
    listen(options);
  } catch (...) {
    stop();
    throw;
  }
}

void Server::start_io(const ServerOptions& options) {
  if (running_.exchange(true)) {
    throw std::logic_error("Server: already started");
  }

  if (options.metrics != nullptr) {
    auto& reg = *options.metrics;
    g_connections_ = &reg.gauge("backlog_net_connections",
                                "Connections accepted since start");
    g_active_ = &reg.gauge("backlog_net_active_connections",
                           "Connections currently open");
    g_frames_ = &reg.gauge("backlog_net_frames",
                           "Request frames received since start");
    g_decode_errors_ =
        &reg.gauge("backlog_net_decode_errors",
                   "Malformed frames (bad magic/version/length/crc, "
                   "mid-frame close) that closed a connection");
    g_bytes_in_ =
        &reg.gauge("backlog_net_bytes_in", "Bytes read off the network");
    g_bytes_out_ =
        &reg.gauge("backlog_net_bytes_out", "Bytes written to the network");
  }

  const std::size_t threads = options.io_threads == 0 ? 1 : options.io_threads;
  io_.clear();
  for (std::size_t i = 0; i < threads; ++i) {
    auto t = std::make_unique<IoThread>();
    t->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (t->epoll_fd < 0) throw_errno("epoll_create1");
    t->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (t->wake_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = t->wake_fd;
    if (::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, t->wake_fd, &ev) < 0) {
      throw_errno("epoll_ctl wake_fd");
    }
    io_.push_back(std::move(t));
  }
  for (auto& t : io_) {
    IoThread* tp = t.get();
    t->thread = std::thread([this, tp] { io_loop(*tp); });
  }
}

void Server::listen(const ServerOptions& options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("Server: bad bind address " +
                                options.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    const int err = errno;
    throw std::system_error(err, std::generic_category(),
                            "bind/listen " + options.bind_address + ":" +
                                std::to_string(options.port));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  accept_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (accept_wake_fd_ < 0) throw_errno("eventfd");
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::adopt(int fd) {
  if (!running_.load(std::memory_order_acquire) || io_.empty()) {
    ::close(fd);
    throw std::logic_error("Server: adopt before start");
  }
  hand_off(fd);
}

void Server::hand_off(int fd) {
  set_nonblocking(fd);
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
  IoThread& t =
      *io_[next_io_.fetch_add(1, std::memory_order_relaxed) % io_.size()];
  {
    const std::lock_guard<std::mutex> lock(t.pending_mu);
    t.pending_fds.push_back(fd);
  }
  wake(t.wake_fd);
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  if (accept_wake_fd_ >= 0) wake(accept_wake_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_wake_fd_ >= 0) {
    ::close(accept_wake_fd_);
    accept_wake_fd_ = -1;
  }
  for (auto& t : io_) {
    wake(t->wake_fd);
    if (t->thread.joinable()) t->thread.join();
    for (auto& [fd, conn] : t->conns) {
      (void)conn;
      ::close(fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
    }
    t->conns.clear();
    {
      const std::lock_guard<std::mutex> lock(t->pending_mu);
      for (const int fd : t->pending_fds) ::close(fd);
      t->pending_fds.clear();
    }
    ::close(t->wake_fd);
    ::close(t->epoll_fd);
  }
  io_.clear();
  publish_metrics();
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

void Server::publish_metrics() noexcept {
  if (g_connections_ == nullptr) return;
  g_connections_->set(static_cast<double>(
      connections_accepted_.load(std::memory_order_relaxed)));
  g_active_->set(static_cast<double>(
      connections_active_.load(std::memory_order_relaxed)));
  g_frames_->set(
      static_cast<double>(frames_received_.load(std::memory_order_relaxed)));
  g_decode_errors_->set(
      static_cast<double>(decode_errors_.load(std::memory_order_relaxed)));
  g_bytes_in_->set(
      static_cast<double>(bytes_in_.load(std::memory_order_relaxed)));
  g_bytes_out_->set(
      static_cast<double>(bytes_out_.load(std::memory_order_relaxed)));
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {accept_wake_fd_, POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (drained) or a transient accept error
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      hand_off(fd);
    }
  }
}

void Server::adopt_pending(IoThread& t) {
  std::vector<int> fds;
  {
    const std::lock_guard<std::mutex> lock(t.pending_mu);
    fds.swap(t.pending_fds);
  }
  for (const int fd : fds) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(t.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    t.conns.emplace(fd, std::move(conn));
  }
}

void Server::io_loop(IoThread& t) {
  epoll_event events[64];
  while (true) {
    const int n = ::epoll_wait(t.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == t.wake_fd) {
        drain_eventfd(t.wake_fd);
        adopt_pending(t);
        continue;
      }
      const auto it = t.conns.find(fd);
      if (it == t.conns.end()) continue;  // closed earlier in this batch
      Connection& c = *it->second;
      bool alive = true;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Flush what the peer can still receive, then close: EPOLLHUP with
        // readable bytes pending is handled by the read path below first.
        alive = on_readable(t, c);
      } else {
        if ((events[i].events & EPOLLIN) != 0) alive = on_readable(t, c);
        if (alive && (events[i].events & EPOLLOUT) != 0) {
          alive = flush_writes(t, c);
        }
      }
      if (!alive) close_connection(t, fd);
    }
    publish_metrics();
  }
}

bool Server::on_readable(IoThread& t, Connection& c) {
  std::uint8_t chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) {
      // EOF. Unparsed leftover bytes mean the peer hung up mid-frame — that
      // is a decode error (the stream ended where a frame promised more).
      if (c.rpos < c.rbuf.size()) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    c.rbuf.insert(c.rbuf.end(), chunk, chunk + n);
    if (!process_frames(c)) return false;
    if (static_cast<std::size_t>(n) < sizeof chunk) break;  // likely drained
  }
  return flush_writes(t, c);
}

bool Server::process_frames(Connection& c) {
  while (c.rbuf.size() - c.rpos >= kHeaderSize) {
    const std::span<const std::uint8_t> avail{c.rbuf.data() + c.rpos,
                                              c.rbuf.size() - c.rpos};
    FrameHeader h;
    const HeaderStatus hs = decode_header(avail.first(kHeaderSize), h);
    if (hs != HeaderStatus::kOk) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Per-verb cap check *before* buffering the payload: a known verb's
    // frame over its cap is a decode error — skipping megabytes of payload
    // to keep a hostile stream alive is not worth it.
    const auto entry = handlers_.find(h.verb);
    if (entry != handlers_.end() && h.payload_len > entry->second.max_payload) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::size_t frame_len = kHeaderSize + h.payload_len;
    if (avail.size() < frame_len) break;  // wait for the rest

    if (!frame_crc_ok(avail.first(frame_len))) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);

    Response resp;
    if (entry == handlers_.end() || h.is_response()) {
      resp = Response::error(
          service::ErrorCode::kNoSuchVerb,
          "unknown verb id " + std::to_string(h.verb));
    } else {
      util::Reader req(avail.subspan(kHeaderSize, h.payload_len));
      try {
        resp = entry->second.handler(h, req);
      } catch (const util::SerdeError& e) {
        resp = Response::error(service::ErrorCode::kBadRequest, e.what());
      } catch (const service::ServiceError& e) {
        resp = Response::error(e.code(), e.what());
      } catch (const std::invalid_argument& e) {
        resp = Response::error(service::ErrorCode::kBadRequest, e.what());
      } catch (const std::exception& e) {
        resp = Response::error(service::ErrorCode::kInternal, e.what());
      }
    }
    const std::vector<std::uint8_t> payload =
        encode_response_payload(resp.code, resp.message, resp.body);
    const std::vector<std::uint8_t> frame = encode_frame(
        static_cast<std::uint16_t>(h.verb | kResponseBit), h.tenant_id,
        payload);
    c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
    c.rpos += frame_len;
  }
  // Compact: drop the parsed prefix once it dominates the buffer, so a
  // long-lived connection doesn't accrete every frame it ever received.
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos > 64 * 1024) {
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
    c.rpos = 0;
  }
  return true;
}

bool Server::flush_writes(IoThread& t, Connection& c) {
  while (c.wpos < c.wbuf.size()) {
    const ssize_t n =
        ::write(c.fd, c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          c.want_write = true;
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = c.fd;
          ::epoll_ctl(t.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
        }
        return true;
      }
      return false;
    }
    if (n == 0) return false;  // same rule as the storage layer: 0 is fatal
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
    c.wpos += static_cast<std::size_t>(n);
  }
  c.wbuf.clear();
  c.wpos = 0;
  if (c.want_write) {
    c.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c.fd;
    ::epoll_ctl(t.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }
  return true;
}

void Server::close_connection(IoThread& t, int fd) {
  ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  t.conns.erase(fd);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace backlog::net
