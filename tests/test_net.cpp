// Tests for the wire protocol and the epoll network server.
//
// Four layers: pure frame codec tests; end-to-end verb coverage through the
// synchronous Client against a live ServiceEndpoint; an adversarial
// corruption suite that pushes malformed byte streams at the server through
// raw sockets and asserts the server's contract — every corrupt stream is a
// clean connection close plus a decode-error counter bump, never a crash,
// and a healthy client on the same server keeps working throughout; and the
// ServiceHost, which serves socketpair connections with no listener and
// discovers the volumes under its root. The whole file runs under
// ASan/UBSan and TSan in CI.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/handlers.hpp"
#include "net/wire.hpp"
#include "service/service.hpp"
#include "storage/env.hpp"

namespace bc = backlog::core;
namespace bn = backlog::net;
namespace bs = backlog::storage;
namespace bsvc = backlog::service;

namespace {

// --- frame codec -------------------------------------------------------------

TEST(Frame, RoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing),
                                      bn::tenant_hash("t0"), payload);
  ASSERT_EQ(frame.size(), bn::kHeaderSize + payload.size());
  bn::FrameHeader h;
  EXPECT_EQ(bn::decode_header(frame, h), bn::HeaderStatus::kOk);
  EXPECT_EQ(h.verb_id(), bn::Verb::kPing);
  EXPECT_FALSE(h.is_response());
  EXPECT_EQ(h.tenant_id, bn::tenant_hash("t0"));
  EXPECT_EQ(h.payload_len, payload.size());
  EXPECT_TRUE(bn::frame_crc_ok(frame));
}

TEST(Frame, EveryHeaderByteFlipIsDetected) {
  // Flipping any single bit in the covered header region or payload must be
  // caught by validation or the crc — nothing slips through.
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const auto good = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing),
                                     0, payload);
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      bn::FrameHeader h;
      const bn::HeaderStatus st = bn::decode_header(bad, h);
      if (st == bn::HeaderStatus::kOk) {
        EXPECT_FALSE(bn::frame_crc_ok(bad))
            << "undetected flip at byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(Frame, HeaderValidationOrder) {
  const auto good = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing),
                                     0, {});
  bn::FrameHeader h;

  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(bn::decode_header(bad_magic, h), bn::HeaderStatus::kBadMagic);

  auto bad_version = good;
  bad_version[4] = 0x7f;
  EXPECT_EQ(bn::decode_header(bad_version, h), bn::HeaderStatus::kBadVersion);

  auto too_large = good;
  const std::uint32_t huge = bn::kMaxFramePayload + 1;
  std::memcpy(too_large.data() + 16, &huge, 4);
  EXPECT_EQ(bn::decode_header(too_large, h), bn::HeaderStatus::kTooLarge);
}

TEST(Frame, ResponsePayloadRoundTrip) {
  const std::vector<std::uint8_t> body = {42, 43};
  const auto ok = bn::encode_response_payload(bsvc::ErrorCode::kOk, "", body);
  backlog::util::Reader r(ok);
  const bn::ResponseView v = bn::decode_response_prefix(r);
  EXPECT_EQ(v.code, bsvc::ErrorCode::kOk);
  EXPECT_EQ(r.u8(), 42);

  const auto err = bn::encode_response_payload(bsvc::ErrorCode::kThrottled,
                                               "slow down", {});
  backlog::util::Reader r2(err);
  const bn::ResponseView v2 = bn::decode_response_prefix(r2);
  EXPECT_EQ(v2.code, bsvc::ErrorCode::kThrottled);
  EXPECT_EQ(v2.message, "slow down");
}

TEST(Frame, ParseHostPort) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(bn::parse_host_port("127.0.0.1:80", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 80);
  EXPECT_TRUE(bn::parse_host_port(":8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_FALSE(bn::parse_host_port("nohost", host, port));
  EXPECT_FALSE(bn::parse_host_port("h:0", host, port));
  EXPECT_FALSE(bn::parse_host_port("h:65536", host, port));
  EXPECT_FALSE(bn::parse_host_port("h:12x", host, port));
  EXPECT_FALSE(bn::parse_host_port("h:", host, port));
}

// --- end-to-end fixture ------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bsvc::ServiceOptions so;
    so.shards = 2;
    so.root = dir_.path();
    so.sync_writes = false;
    vm_ = std::make_unique<bsvc::VolumeManager>(so);
    endpoint_ = std::make_unique<bn::ServiceEndpoint>(*vm_);
    bn::ServerOptions opts;
    opts.port = 0;  // ephemeral
    opts.io_threads = 2;
    endpoint_->start(opts);
  }

  void TearDown() override {
    endpoint_->stop();
    for (const auto& t : vm_->tenants()) vm_->close_volume(t);
  }

  std::uint16_t port() const { return endpoint_->port(); }

  bs::TempDir dir_;
  std::unique_ptr<bsvc::VolumeManager> vm_;
  std::unique_ptr<bn::ServiceEndpoint> endpoint_;
};

bsvc::UpdateOp add_op(std::uint64_t block) {
  bsvc::UpdateOp op;
  op.kind = bsvc::UpdateOp::Kind::kAdd;
  op.key.block = block;
  op.key.inode = 2;
  op.key.length = 1;
  return op;
}

TEST_F(NetServerTest, VerbCoverageEndToEnd) {
  bn::Client c;
  c.connect("127.0.0.1", port());
  c.ping();

  c.open_volume("alpha");
  EXPECT_EQ(c.list_tenants(), std::vector<std::string>{"alpha"});

  std::vector<bsvc::UpdateOp> batch;
  for (std::uint64_t b = 1; b <= 200; ++b) batch.push_back(add_op(b));
  c.apply_batch("alpha", batch);

  bsvc::QueryRange qr;
  qr.first = 1;
  qr.count = 200;
  const auto results = c.query_batch("alpha", {qr});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].size(), 200u);

  const bc::CpFlushStats cp = c.consistency_point("alpha");
  EXPECT_EQ(cp.block_ops, 200u);

  const bc::Epoch v = c.take_snapshot("alpha", 0);
  EXPECT_GE(v, 1u);
  const auto versions = c.list_versions("alpha", 0);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions.back(), v);

  const auto clone = c.clone_volume("alpha", "beta", 0, v);
  EXPECT_GT(clone.new_line, 0u);
  EXPECT_GE(clone.shared_files, 1u);

  const bc::QuickStats qs = c.quick_stats("alpha");
  EXPECT_EQ(qs.run_records, 200u);

  const bsvc::MigrationStats ms = c.migrate_volume("alpha", 0);
  EXPECT_EQ(ms.target_shard, 0u);

  bsvc::TenantQos qos;
  qos.ops_per_sec = 100000;
  c.set_qos("alpha", qos);
  c.apply_batch("alpha", {add_op(500)});
  const bsvc::QosSnapshot snap = c.qos_snapshot("alpha");
  EXPECT_TRUE(snap.enabled);
  EXPECT_GE(snap.admitted, 1u);

  // Text verbs: non-empty, and info mentions the tenant by name.
  EXPECT_NE(c.info_text("alpha").find("volume:            alpha"),
            std::string::npos);
  EXPECT_NE(c.runs_text("alpha").find(".run"), std::string::npos);
  EXPECT_FALSE(c.query_text("alpha", 1, 4, false).empty());
  EXPECT_FALSE(c.scan_text("alpha").empty());
  EXPECT_FALSE(c.stats_text(false).empty());
  EXPECT_NE(c.stats_text(true).find("\"tenants\""), std::string::npos);
  EXPECT_NE(c.metrics_text(false).find("backlog_net_frames"),
            std::string::npos);
  c.set_tracing(1, 1);
  c.apply_batch("alpha", {add_op(501)});
  EXPECT_NE(c.trace_text(1, 1).find("sampled spans"), std::string::npos);

  c.destroy_volume("beta");
  EXPECT_THROW(c.quick_stats("beta"), bsvc::ServiceError);
}

TEST_F(NetServerTest, PollRatesPrimesAcrossCalls) {
  bn::Client c;
  c.connect("127.0.0.1", port());
  // The daemon-side poller has never polled: the first sample must be
  // labeled unprimed (its zero rates mean "unknown", not "idle").
  const bsvc::RateSample first = c.poll_rates();
  EXPECT_FALSE(first.primed);
  const bsvc::RateSample second = c.poll_rates();
  EXPECT_TRUE(second.primed);
}

TEST_F(NetServerTest, ThrottledPropagatesAsServiceError) {
  bn::Client c;
  c.connect("127.0.0.1", port());
  c.open_volume("hot");
  bsvc::TenantQos qos;
  qos.ops_per_sec = 0.5;  // one token every 2s: queued ops park for a while
  qos.burst_ops = 1;
  qos.max_wait_queue = 1;  // the smallest queue the gate allows
  c.set_qos("hot", qos);

  // Drain the burst token, then park a second op in the depth-1 wait queue
  // from its own connection (the wire protocol is one-outstanding-request,
  // so the waiter must not share the connection that probes the overflow).
  c.apply_batch("hot", {add_op(1000)});
  std::thread blocker([&] {
    bn::Client b;
    b.connect("127.0.0.1", port());
    b.apply_batch("hot", {add_op(1001)});  // queued until a token refills
  });

  // Wait until the gate reports the waiter, then overflow the queue: the
  // rejection must surface here as a typed kThrottled ServiceError, exactly
  // as it does for an in-process caller.
  bool parked = false;
  for (int i = 0; i < 500 && !parked; ++i) {
    parked = c.qos_snapshot("hot").wait_depth >= 1;
    if (!parked) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(parked);
  try {
    c.apply_batch("hot", {add_op(1002)});
    ADD_FAILURE() << "expected kThrottled";
  } catch (const bsvc::ServiceError& e) {
    EXPECT_EQ(e.code(), bsvc::ErrorCode::kThrottled);
  }
  blocker.join();
  c.ping();  // the error was the op's, not the connection's
}

TEST_F(NetServerTest, NoSuchTenantAndBadRequest) {
  bn::Client c;
  c.connect("127.0.0.1", port());
  try {
    c.quick_stats("ghost");
    FAIL() << "expected ServiceError";
  } catch (const bsvc::ServiceError& e) {
    EXPECT_EQ(e.code(), bsvc::ErrorCode::kNoSuchTenant);
  }
  try {
    c.open_volume("../escape");  // rejected by tenant-name validation
    FAIL() << "expected ServiceError";
  } catch (const bsvc::ServiceError& e) {
    EXPECT_EQ(e.code(), bsvc::ErrorCode::kBadRequest);
  }
  c.ping();
}

TEST_F(NetServerTest, UnknownVerbKeepsConnection) {
  bn::Client c;
  c.connect("127.0.0.1", port());
  try {
    c.call(static_cast<bn::Verb>(999), "", {});
    FAIL() << "expected ServiceError";
  } catch (const bsvc::ServiceError& e) {
    EXPECT_EQ(e.code(), bsvc::ErrorCode::kNoSuchVerb);
  }
  c.ping();  // a framed unknown verb is NOT a decode error
  EXPECT_EQ(endpoint_->server().stats().decode_errors, 0u);
}

// --- corruption suite (raw sockets) ------------------------------------------

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// True if the peer closed (or reset) the connection within the timeout.
bool peer_closed(int fd, int timeout_ms = 5000) {
  char buf[512];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r <= 0) return false;  // timeout: server kept the connection
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
    // Data (a response) — keep draining until close or timeout.
  }
}

TEST_F(NetServerTest, CorruptStreamsCloseCleanly) {
  const std::uint64_t base_errors = endpoint_->server().stats().decode_errors;
  std::uint64_t expected = 0;

  const auto expect_rejected = [&](std::vector<std::uint8_t> bytes,
                                   const char* what) {
    const int fd = raw_connect(port());
    send_all(fd, bytes);
    EXPECT_TRUE(peer_closed(fd)) << what;
    ::close(fd);
    ++expected;
  };

  // Bad magic.
  auto frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing),
                                0, {});
  frame[0] ^= 0xff;
  expect_rejected(frame, "bad magic");

  // Bad version.
  frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0, {});
  frame[4] = 0x7e;
  expect_rejected(frame, "bad version");

  // Payload length over the absolute cap.
  frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0, {});
  const std::uint32_t huge = bn::kMaxFramePayload + 1;
  std::memcpy(frame.data() + 16, &huge, 4);
  expect_rejected(frame, "payload over absolute cap");

  // Payload length over the verb's cap (kPing is a control verb) but under
  // the absolute cap: must be rejected from the header alone, before the
  // server buffers a single payload byte.
  frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0, {});
  const std::uint32_t over_verb_cap = bn::kControlPayloadCap + 1;
  std::memcpy(frame.data() + 16, &over_verb_cap, 4);
  expect_rejected(frame, "payload over verb cap");

  // CRC mismatch (flip a payload byte after encoding).
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0,
                           payload);
  frame[bn::kHeaderSize + 1] ^= 0x01;
  expect_rejected(frame, "crc mismatch");

  // Random garbage flood.
  std::vector<std::uint8_t> garbage(4096);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  expect_rejected(garbage, "garbage flood");

  // Truncated header: send half a header, then close. EOF mid-frame is a
  // decode error (the peer abandoned a frame it promised).
  {
    const int fd = raw_connect(port());
    frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0, {});
    send_all(fd, std::span<const std::uint8_t>(frame.data(), 10));
    ::close(fd);
    ++expected;
  }

  // Mid-frame close: full header promising 100 payload bytes, only 10 sent.
  {
    const int fd = raw_connect(port());
    std::vector<std::uint8_t> body(100, 0xab);
    frame = bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0,
                             body);
    send_all(fd, std::span<const std::uint8_t>(frame.data(),
                                               bn::kHeaderSize + 10));
    ::close(fd);
    ++expected;
  }

  // The counter is bumped on the io thread; closes from our side race the
  // epoll wakeup, so poll for convergence.
  for (int i = 0; i < 200; ++i) {
    if (endpoint_->server().stats().decode_errors >= base_errors + expected)
      break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(endpoint_->server().stats().decode_errors, base_errors + expected);

  // Through it all the server must still serve a well-behaved client.
  bn::Client c;
  c.connect("127.0.0.1", port());
  c.ping();
  c.open_volume("survivor");
  c.apply_batch("survivor", {add_op(7)});
  EXPECT_EQ(c.consistency_point("survivor").block_ops, 1u);
}

TEST_F(NetServerTest, ManyParallelGarbageConnections) {
  // A small swarm of corrupt clients must not wedge the io threads.
  std::vector<int> fds;
  for (int i = 0; i < 16; ++i) fds.push_back(raw_connect(port()));
  std::vector<std::uint8_t> junk(64, 0x5a);
  for (const int fd : fds) send_all(fd, junk);
  for (const int fd : fds) {
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
  }
  bn::Client c;
  c.connect("127.0.0.1", port());
  c.ping();
}

// --- in-process host ---------------------------------------------------------

TEST(ServiceHost, ServesSocketpairClientsWithoutAPort) {
  bs::TempDir dir;
  bn::ServiceHost host(dir.path(), 2);
  bn::Client c = host.connect();
  c.ping();
  c.open_volume("alpha");
  c.apply_batch("alpha", {add_op(1), add_op(2)});
  EXPECT_EQ(c.consistency_point("alpha").block_ops, 2u);
  EXPECT_NE(c.info_text("alpha").find("volume:            alpha"),
            std::string::npos);
  // A second connection while the first stays open.
  EXPECT_EQ(host.connect().list_tenants(), std::vector<std::string>{"alpha"});
  EXPECT_EQ(host.port(), 0u);  // no listener was ever bound
}

TEST(ServiceHost, StopClosesAdoptedPairs) {
  bs::TempDir dir;
  bn::ServiceHost host(dir.path(), 1);
  bn::Client c = host.connect();
  c.ping();
  std::atomic<bool> closed{false};
  std::thread caller([&] {
    try {
      for (;;) c.ping();  // blocked in a response read almost all the time
    } catch (const std::runtime_error&) {
      closed = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  host.stop();
  caller.join();  // hangs here if stop() leaves the pair open
  EXPECT_TRUE(closed.load());
  EXPECT_THROW(host.connect(), std::logic_error);
}

TEST(ServiceHost, StopClosesAPairBlockedMidFrame) {
  bn::Server server;
  server.register_handler(
      bn::Verb::kPing, bn::kControlPayloadCap,
      [](const bn::FrameHeader&, backlog::util::Reader&) {
        return bn::Server::Response::ok();
      });
  server.start_io(bn::ServerOptions{});
  EXPECT_EQ(server.port(), 0u);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  server.adopt(fds[1]);
  // Half a header: the server waits for the rest and never answers.
  const auto frame =
      bn::encode_frame(static_cast<std::uint16_t>(bn::Verb::kPing), 0, {});
  send_all(fds[0], std::span<const std::uint8_t>(frame.data(), 10));
  EXPECT_FALSE(peer_closed(fds[0], 50));
  server.stop();
  EXPECT_TRUE(peer_closed(fds[0]));
  ::close(fds[0]);
}

TEST(ServiceHost, HostsExactlyTheCommittedVolumes) {
  bs::TempDir dir;
  {
    bn::ServiceHost host(dir.path(), 1);
    bn::Client c = host.connect();
    c.open_volume("tenant");
    c.apply_batch("tenant", {add_op(1)});
    const bc::Epoch v = c.take_snapshot("tenant", 0);
    c.clone_volume("tenant", "alice.dev", 0, v);  // dotted names are legal
  }
  // A clone that crashed before its commit rename leaves its staging
  // directory behind; the service discards it, and discovery must not
  // mistake it for a volume.
  std::filesystem::create_directories(dir.path() / "x.cloning");
  std::filesystem::create_directories(dir.path() / "not a volume");

  bn::ServiceHost host(dir.path(), 2);
  std::vector<std::string> hosted = host.volumes().tenants();
  std::sort(hosted.begin(), hosted.end());
  EXPECT_EQ(hosted, (std::vector<std::string>{"alice.dev", "tenant"}));
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "x.cloning"));
  bn::Client c = host.connect();
  EXPECT_NE(c.info_text("alice.dev").find("cloned from"), std::string::npos);
}

TEST(ServiceHost, OnlyOpensTheNamedVolume) {
  bs::TempDir dir;
  {
    bn::ServiceHost host(dir.path(), 1);
    bn::Client c = host.connect();
    c.open_volume("a");
    c.open_volume("b");
  }
  bn::ServiceHost host(dir.path(), 1, 0, "b");
  EXPECT_EQ(host.volumes().tenants(), std::vector<std::string>{"b"});
  bn::ServiceHost none(dir.path(), 1, 0, "missing");
  EXPECT_TRUE(none.volumes().tenants().empty());
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "missing"));
}

}  // namespace
