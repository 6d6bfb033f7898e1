// ServiceEndpoint — the glue between the epoll Server and a VolumeManager.
//
// Registers a handler for every wire verb against one VolumeManager:
// control verbs decode under kControlPayloadCap, the data-plane batch verbs
// (apply/query) under kDataPayloadCap. Handlers re-validate everything the
// payload claims (tenant names through the same validation open_volume
// uses, shard indexes against shard_count()) — the header's tenant hash is
// a scheduling hint, never an authority. Volume-not-hosted is answered with
// kNoSuchTenant; a QoS rejection propagates as kThrottled byte-for-byte to
// the remote caller.
//
// The endpoint owns the Server and a MetricsPoller (for the kPollRates
// verb); net counters land in the VolumeManager's MetricsRegistry.
//
// ServiceHost packages a VolumeManager, its maintenance and an endpoint as
// the one service `backlogd` runs and `backlogctl` starts in process.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/maintenance_scheduler.hpp"
#include "service/metrics.hpp"
#include "service/volume_manager.hpp"

namespace backlog::net {

class ServiceEndpoint {
 public:
  /// Registers every verb; does not listen yet.
  explicit ServiceEndpoint(service::VolumeManager& vm);

  /// Bind + serve. `options.metrics` is overridden to the VolumeManager's
  /// registry.
  void start(ServerOptions options);
  /// Serve adopted connections only (Server::start_io); binds nothing.
  void start_io(ServerOptions options);
  /// Serve one already-connected stream socket (Server::adopt).
  void adopt(int fd) { server_.adopt(fd); }
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] const Server& server() const noexcept { return server_; }

 private:
  void register_handlers();

  service::VolumeManager& vm_;
  service::MetricsPoller poller_;
  std::mutex balance_mu_;  ///< kBalanceText cycles run exclusively
  Server server_;
};

/// The synthetic load `balance` and `metrics` push through the service: 16
/// add+remove pairs of fresh keys from `next_block` on (advanced past
/// them). Each pair annihilates in the write store, so the dispatch load is
/// real but the volume's contents are left unchanged.
std::vector<service::UpdateOp> annihilating_pulse(core::BlockNo& next_block);

/// backlogd's service as one object: a VolumeManager with the daemon's
/// options (WAL on, so a mutation is durable once its reply is sent), a
/// MaintenanceScheduler with the default policy, and a ServiceEndpoint over
/// them. listen() serves TCP as the daemon does; connect() instead returns
/// a Client on one end of an AF_UNIX socketpair whose other end the server
/// adopts — the production framing, checks and handlers, with no port
/// bound. Both may be used on one host.
class ServiceHost {
 public:
  /// Hosts every committed volume under `root`: each directory whose name
  /// validate_tenant_name() accepts, listed after the manager's constructor
  /// has discarded crashed clones' `.cloning` staging directories. With
  /// `only` set, hosts just that directory (if committed) and leaves its
  /// siblings closed.
  ServiceHost(const std::filesystem::path& root, std::size_t shards,
              std::uint32_t commit_window_micros = 0,
              const std::string& only = {});
  /// stop(), swallowing its errors; call stop() to see them.
  ~ServiceHost();

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  /// Bind + serve TCP (ServiceEndpoint::start).
  void listen(const ServerOptions& options);
  /// A connection served in process; the first call starts the I/O
  /// threads. Thread-safe.
  Client connect();
  /// Close every connection (adopted pairs included: their clients see the
  /// connection closed), stop maintenance, then flush and close every
  /// volume. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return endpoint_.port(); }
  [[nodiscard]] service::VolumeManager& volumes() noexcept { return vm_; }

 private:
  service::VolumeManager vm_;
  service::MaintenanceScheduler scheduler_;
  ServiceEndpoint endpoint_;
  std::mutex mu_;  ///< orders connect()/listen() against stop()
  bool serving_ = false;
  bool stopped_ = false;
};

}  // namespace backlog::net
