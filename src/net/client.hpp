// Synchronous client for the Backlog wire protocol.
//
// One Client wraps one stream connection (TCP, or an in-process socketpair
// via adopt()) with the one-outstanding-request protocol: call() writes a
// request frame, then blocks reading exactly one response frame. The client
// validates everything it receives with the same rigor as the server —
// magic, version, response bit, verb echo, payload cap and crc are all
// checked before a byte of the body is believed, and bodies are decoded
// through the bounds-checked util::Reader — a hostile or confused server is
// just another corrupt byte stream.
//
// Service-level failures arrive as non-kOk status bytes and are rethrown as
// service::ServiceError, so remote callers handle kThrottled (and friends)
// with exactly the code they'd use in-process. Protocol-level failures
// (closed connection, corrupt frame) throw std::runtime_error and leave the
// client unusable (the stream cannot be resynchronized).
//
// Thread model: a Client is NOT thread-safe; use one per thread (the bench's
// open-loop generator opens one per connection by design).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/wire.hpp"

namespace backlog::net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connection behavior knobs. The defaults are the old behavior except
  /// that a connect attempt is bounded instead of hanging on a black-holed
  /// address.
  struct ConnectOptions {
    /// Per-attempt connect bound (non-blocking connect + poll). 0 = the
    /// OS default (minutes).
    std::uint32_t connect_timeout_ms = 5000;
    /// SO_RCVTIMEO/SO_SNDTIMEO on the connected socket: a call() blocked on
    /// a stalled server throws ("net read: timeout") instead of hanging
    /// forever. 0 = no timeout. Note a timed-out client is closed like any
    /// other protocol failure — the request may have executed server-side,
    /// so only retry verbs that are idempotent (queries, open, stats).
    std::uint32_t read_timeout_ms = 0;
    /// Keep retrying refused/timed-out connects for this long before giving
    /// up — lets a client race a daemon's startup without external sleeps.
    /// Retrying a *connect* is always safe: no request has been sent yet.
    /// 0 = single attempt.
    std::uint32_t retry_for_ms = 0;
    /// First retry backoff; doubles per attempt (capped at 1 s) with ±50%
    /// jitter so a fleet of clients doesn't stampede a restarting server.
    std::uint32_t retry_backoff_ms = 50;
  };

  /// Resolve + connect (blocking). Throws std::runtime_error on failure.
  void connect(const std::string& host, std::uint16_t port);
  void connect(const std::string& host, std::uint16_t port,
               const ConnectOptions& opts);
  /// Take over an already-connected stream socket (e.g. one end of a
  /// socketpair another thread serves), closing any current connection.
  void adopt(int fd);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// One request/response round trip. Returns the response *body* on kOk;
  /// throws service::ServiceError on a non-kOk status, std::runtime_error
  /// on any protocol violation. `tenant` fills the header's scheduling-hint
  /// hash (pass "" for tenant-less verbs).
  std::vector<std::uint8_t> call(Verb verb, const std::string& tenant,
                                 std::span<const std::uint8_t> payload);

  // --- typed verbs (thin wrappers over call + wire codecs) -------------------

  void ping();
  void open_volume(const std::string& tenant);
  void close_volume(const std::string& tenant);
  void destroy_volume(const std::string& tenant);
  std::vector<std::string> list_tenants();

  void apply_batch(const std::string& tenant,
                   const std::vector<service::UpdateOp>& batch);
  std::vector<std::vector<core::BackrefEntry>> query_batch(
      const std::string& tenant,
      const std::vector<service::QueryRange>& ranges);
  core::CpFlushStats consistency_point(const std::string& tenant);

  core::Epoch take_snapshot(const std::string& tenant, core::LineId line);
  std::vector<core::Epoch> list_versions(const std::string& tenant,
                                         core::LineId line);
  /// Returns the clone's writable line id plus the service-wide shared-file
  /// accounting (files, bytes, saved bytes) after the clone.
  struct CloneResult {
    core::LineId new_line = 0;
    std::uint64_t shared_files = 0;
    std::uint64_t shared_bytes = 0;
    std::uint64_t saved_bytes = 0;
  };
  CloneResult clone_volume(const std::string& src, const std::string& dst,
                           core::LineId parent_line, core::Epoch version);
  service::MigrationStats migrate_volume(const std::string& tenant,
                                         std::uint64_t target_shard);

  void set_qos(const std::string& tenant, const service::TenantQos& qos);
  service::QosSnapshot qos_snapshot(const std::string& tenant);
  core::QuickStats quick_stats(const std::string& tenant);

  std::string stats_text(bool json);
  std::string metrics_text(bool json);
  service::RateSample poll_rates();
  void set_tracing(std::uint32_t sample_every, std::uint64_t slow_op_micros);
  /// `sample`/`slow_us` only label the report headers (the knobs the run
  /// used); the spans themselves come from the server's rings.
  std::string trace_text(std::uint64_t sample, std::uint64_t slow_us);
  std::string info_text(const std::string& tenant);
  std::string runs_text(const std::string& tenant);
  std::string query_text(const std::string& tenant, core::BlockNo first,
                         std::uint64_t count, bool raw);
  std::string scan_text(const std::string& tenant);
  std::string maintain_text(const std::string& tenant);
  std::string dump_run_text(const std::string& tenant,
                            const std::string& file);
  std::string balance_text(std::uint64_t cycles);
  std::string cache_text(bool json);
  void cache_clear();

 private:
  /// Write all of `data` (EINTR retried; a 0-byte send is an error, and a
  /// peer that hung up is EPIPE rather than SIGPIPE).
  void write_all(std::span<const std::uint8_t> data);
  /// Read exactly `n` bytes into `dst`; false on clean EOF at offset 0,
  /// throws on mid-buffer EOF or error.
  bool read_exact(std::uint8_t* dst, std::size_t n);

  int fd_ = -1;
};

/// Parse "host:port" (host may be empty for 127.0.0.1). Returns false on a
/// malformed string or out-of-range port.
bool parse_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port);

}  // namespace backlog::net
