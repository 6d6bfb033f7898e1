// Epoll-based network server for the Backlog wire protocol.
//
// Threading model: one acceptor thread blocks in accept() and hands each new
// connection to one of `io_threads` event loops (round-robin). adopt() is
// the same hand-off for a connection made elsewhere (one end of a
// socketpair); start_io() runs the event loops with no listener at all. Every I/O
// thread owns a level-triggered epoll instance plus the read/write buffers
// of its connections — a connection lives on exactly one thread for its
// whole life, so buffer state needs no locking. Handlers run on the I/O
// thread: they decode the request with the bounds-checked util::Reader,
// call into the VolumeManager (whose verbs execute on the shard threads;
// the handler blocks on the future) and return the response payload.
// Because the client protocol is one-outstanding-request-per-connection,
// blocking the handler serializes only that connection; other connections
// on the same thread wait at most one verb's service time (raise io_threads
// to bound head-of-line blocking across connections).
//
// Trust model: the server trusts the network no more than a corrupt disk.
// Headers are validated before their length fields are believed, the crc
// covers header+payload, per-verb payload caps bound every allocation, and
// any malformed frame closes the connection after bumping the decode-error
// counter — the server itself must survive arbitrary bytes indefinitely.
//
// EINTR is retried on every syscall loop from day one; a write() returning
// 0 is treated as an error exactly like the storage layer's short-read rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "service/metrics.hpp"

namespace backlog::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound one via port()
  std::size_t io_threads = 2;
  /// Registry to mirror the net counters into (optional; see
  /// Server::stats() for the authoritative values).
  service::MetricsRegistry* metrics = nullptr;
};

/// Cumulative server counters (atomics — any thread may read).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class Server {
 public:
  /// Handler outcome: a status plus either a body (kOk) or a message.
  struct Response {
    service::ErrorCode code = service::ErrorCode::kOk;
    std::string message;
    std::vector<std::uint8_t> body;

    static Response ok(std::vector<std::uint8_t> body = {}) {
      return {service::ErrorCode::kOk, {}, std::move(body)};
    }
    static Response error(service::ErrorCode code, std::string message) {
      return {code, std::move(message), {}};
    }
  };

  /// Decodes its request from `req` (bounds-checked; a SerdeError thrown
  /// here is answered with kBadRequest). Runs on an I/O thread.
  using Handler =
      std::function<Response(const FrameHeader& header, util::Reader& req)>;

  Server() = default;
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register `handler` for `verb` with a request-payload cap (frames over
  /// it are decode errors). Register everything before start().
  void register_handler(Verb verb, std::uint32_t max_payload, Handler handler);

  /// Bind + listen + spawn the acceptor and I/O threads. Throws
  /// std::system_error on bind/listen failure.
  void start(const ServerOptions& options);

  /// Spawn the I/O threads only: no socket is bound and port() stays 0, so
  /// the server is reachable solely through adopt(). `bind_address` and
  /// `port` are ignored.
  void start_io(const ServerOptions& options);

  /// Serve an already-connected stream socket (any address family); the
  /// server owns `fd` from here on and closes it on disconnect or stop().
  /// Must not race stop(). Throws std::logic_error when not started.
  void adopt(int fd);

  /// Close the listener and every connection, join all threads. Idempotent.
  void stop();

  /// The bound TCP port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] ServerStats stats() const noexcept;

 private:
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> rbuf;   // unparsed inbound bytes
    std::size_t rpos = 0;             // parse cursor into rbuf
    std::vector<std::uint8_t> wbuf;   // unsent outbound bytes
    std::size_t wpos = 0;
    bool want_write = false;          // EPOLLOUT armed
  };

  struct IoThread {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: stop/new-connection kick
    std::thread thread;
    std::mutex pending_mu;
    std::vector<int> pending_fds;  // accepted fds awaiting adoption
    std::map<int, std::unique_ptr<Connection>> conns;
  };

  struct VerbEntry {
    std::uint32_t max_payload = 0;
    Handler handler;
  };

  void listen(const ServerOptions& options);
  void accept_loop();
  /// Queue a connected fd on the next I/O thread (round-robin). Needs no
  /// running check on the acceptor: stop() joins it before tearing the I/O
  /// threads down, and closes any fd still queued.
  void hand_off(int fd);
  void io_loop(IoThread& t);
  void adopt_pending(IoThread& t);
  /// Drain readable bytes; parse/dispatch complete frames. Returns false
  /// when the connection must close (EOF, error, or decode error).
  bool on_readable(IoThread& t, Connection& c);
  bool process_frames(Connection& c);
  /// Flush wbuf; arms/disarms EPOLLOUT as needed. False on fatal error.
  bool flush_writes(IoThread& t, Connection& c);
  void close_connection(IoThread& t, int fd);
  void publish_metrics() noexcept;

  std::map<std::uint16_t, VerbEntry> handlers_;
  std::vector<std::unique_ptr<IoThread>> io_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;  // eventfd that unblocks the acceptor's poll()
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> next_io_{0};

  // Authoritative counters (fetch_add: I/O threads share them).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};

  // Registry mirrors (gauges set from the atomics above after every event
  // batch: last-writer-wins of an authoritative value, so multiple I/O
  // threads never corrupt a single-writer counter slot).
  service::MetricsRegistry::Gauge* g_connections_ = nullptr;
  service::MetricsRegistry::Gauge* g_active_ = nullptr;
  service::MetricsRegistry::Gauge* g_frames_ = nullptr;
  service::MetricsRegistry::Gauge* g_decode_errors_ = nullptr;
  service::MetricsRegistry::Gauge* g_bytes_in_ = nullptr;
  service::MetricsRegistry::Gauge* g_bytes_out_ = nullptr;
};

}  // namespace backlog::net
