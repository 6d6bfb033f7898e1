// backlogd — the Backlog network daemon.
//
//   backlogd <root> [--port N] [--bind ADDR] [--shards N] [--io-threads N]
//            [--commit-window-us N]
//
// Runs a net::ServiceHost over <root>: every committed volume directory
// under it (any name validate_tenant_name accepts, dotted ones included;
// crashed clones' `.cloning` staging dirs are discarded first) is hosted in
// one VolumeManager with the WAL on and background maintenance running, and
// the wire protocol (see src/net/frame.hpp) is served on an epoll server.
// Port 0 (the default) binds an ephemeral port; the bound address is
// printed to stdout as soon as the server is accepting —
//
//   backlogd: listening on 127.0.0.1:43211
//
// — flushed, so a harness can start the daemon, read one line and connect
// (the CI loopback smoke test does exactly this). SIGINT/SIGTERM shut the
// daemon down cleanly: stop accepting, close every connection, flush and
// close every volume.
//
// Malformed invocations print usage and exit 2; runtime failures exit 1.
#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/handlers.hpp"

using namespace backlog;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: backlogd <root> [--port N] [--bind ADDR] [--shards N] "
               "[--io-threads N] [--commit-window-us N]\n"
               "  --commit-window-us N   group-commit WAL window (0 = fsync "
               "per batch, the default)\n");
  return 2;
}

bool parse_u64(const char* arg, std::uint64_t& out,
               std::uint64_t min_value = 0,
               std::uint64_t max_value = UINT64_MAX) {
  if (arg == nullptr || *arg == '\0' || *arg == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 0);
  if (errno != 0 || end == arg || *end != '\0') return false;
  if (v < min_value || v > max_value) return false;
  out = v;
  return true;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) {
  // Second signal: the clean shutdown (final consistency points, fsyncs,
  // WAL truncation) is taking longer than whoever is signalling will wait.
  // Force out with the conventional killed-by-SIGTERM code; recovery will
  // replay the WAL on the next start.
  if (g_stop != 0) ::_exit(143);
  g_stop = 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* root = argv[1];
  std::uint64_t port = 0, shards = 4, io_threads = 2, commit_window_us = 0;
  std::string bind_address = "127.0.0.1";
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], port, 0, 65535)) return usage();
    } else if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      bind_address = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], shards, 1, 1024)) return usage();
    } else if (std::strcmp(argv[i], "--io-threads") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], io_threads, 1, 64)) return usage();
    } else if (std::strcmp(argv[i], "--commit-window-us") == 0 &&
               i + 1 < argc) {
      if (!parse_u64(argv[++i], commit_window_us, 0, 10'000'000))
        return usage();
    } else {
      return usage();
    }
  }

  // Handlers go in *before* the ServiceHost exists: a SIGTERM landing
  // during recovery/WAL replay must request a clean stop (finish startup,
  // then immediately shut down) rather than hit the default action and kill
  // the process mid-recovery. SA_RESTART keeps recovery's blocking I/O from
  // surfacing spurious EINTRs. The signals stay *blocked* until the wait
  // loop — sigsuspend unblocks and waits atomically, so a signal delivered
  // at any point during startup cannot slip between the g_stop check and
  // the wait (the classic lost-wakeup race).
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  sigset_t blocked, orig_mask;
  ::sigemptyset(&blocked);
  ::sigaddset(&blocked, SIGINT);
  ::sigaddset(&blocked, SIGTERM);
  ::sigprocmask(SIG_BLOCK, &blocked, &orig_mask);

  try {
    // The host opens whatever already lives under the root; remote
    // kOpenVolume adds more at runtime.
    net::ServiceHost host(root, shards,
                          static_cast<std::uint32_t>(commit_window_us));
    net::ServerOptions opts;
    opts.bind_address = bind_address;
    opts.port = static_cast<std::uint16_t>(port);
    opts.io_threads = io_threads;
    host.listen(opts);

    std::printf("backlogd: listening on %s:%u (%zu volumes, %llu shards)\n",
                bind_address.c_str(), host.port(),
                host.volumes().tenants().size(),
                static_cast<unsigned long long>(shards));
    std::fflush(stdout);

    // Wait with the original (signal-deliverable) mask; a SIGTERM that
    // arrived during startup is pending and fires on the first sigsuspend,
    // turning an early kill into an immediate clean shutdown.
    while (g_stop == 0) ::sigsuspend(&orig_mask);
    // Unblock for the shutdown phase so a second signal reaches the handler
    // and forces an exit instead of queueing behind a stuck close.
    ::sigprocmask(SIG_SETMASK, &orig_mask, nullptr);

    std::fprintf(stderr, "backlogd: shutting down\n");
    host.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "backlogd: %s\n", e.what());
    return 1;
  }
}
