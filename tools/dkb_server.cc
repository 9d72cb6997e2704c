// dkb_server: the D/KB testbed behind a TCP socket.
//
//   dkb_server -p 7070                 # listen on 127.0.0.1:7070
//   dkb_server --host 0.0.0.0 -p 7070  # reachable from other machines
//
// Clients: any dkb::RemoteClient — `dkb_repl --connect host:port`,
// `dkb_profile --connect host:port`, `dkb_bench --connect host:port net`.
// Protocol: length-prefixed binary frames (src/net/wire.h); DESIGN.md
// "Network layer & client API" documents the format and lifecycle.

#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/server.h"
#include "testbed/testbed.h"

namespace {

// Written from the signal handler; sig_atomic_t is the type the standard
// guarantees for that.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*signum*/) { g_stop = 1; }

/// Raises the open-file soft limit toward `want` so hundreds of concurrent
/// connections do not die on EMFILE (each costs one fd).
void RaiseFdLimit(rlim_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  rlimit raised = lim;
  raised.rlim_cur = want < lim.rlim_max ? want : lim.rlim_max;
  setrlimit(RLIMIT_NOFILE, &raised);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [-p|--port PORT] [--host ADDR] [--shards N]\n"
      "          [--wal-dir DIR] [--no-wal-fsync] [--no-group-commit]\n"
      "          [--slow-request-us N]\n"
      "  -p, --port PORT         listen port (default 7070)\n"
      "      --host ADDR         bind address (default 127.0.0.1)\n"
      "      --shards N          shards per stored table (default 1)\n"
      "      --wal-dir DIR       durable state directory; recovers the\n"
      "                          checkpoint + WAL found there on startup\n"
      "      --no-wal-fsync      ack writes before fsync (faster, unsafe)\n"
      "      --no-group-commit   one fsync per commit instead of batching\n"
      "      --slow-request-us N log requests slower than N us (default "
      "off)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dkb::net::ServerOptions options;
  options.port = 7070;
  size_t shards = 1;
  std::string wal_dir;
  bool wal_fsync = true;
  bool group_commit = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if ((arg == "-p" || arg == "--port") && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--host" && i + 1 < argc) {
      options.bind_address = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (arg == "--no-wal-fsync") {
      wal_fsync = false;
    } else if (arg == "--no-group-commit") {
      group_commit = false;
    } else if (arg == "--slow-request-us" && i + 1 < argc) {
      options.slow_request_us = std::atoll(argv[++i]);
    } else {
      return Usage(argv[0]);
    }
  }

  RaiseFdLimit(8192);

  auto testbed = dkb::testbed::Testbed::Create(dkb::testbed::TestbedOptions{}
                                                   .WithShards(shards)
                                                   .WithWalDir(wal_dir)
                                                   .WithWalFsync(wal_fsync)
                                                   .WithWalGroupCommit(group_commit));
  if (!testbed.ok()) {
    std::fprintf(stderr, "testbed init failed: %s\n",
                 testbed.status().ToString().c_str());
    return 1;
  }
  if (!wal_dir.empty()) {
    auto wal = (*testbed)->WalSnapshot();
    std::printf("dkb_server recovered %s (last_lsn=%llu)\n", wal.path.c_str(),
                static_cast<unsigned long long>(wal.last_lsn));
  }

  dkb::net::Server server;
  dkb::Status started = server.Start(testbed->get(), options);
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("dkb_server listening on %s:%u\n",
              options.bind_address.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("dkb_server shutting down\n");
  server.Stop();
  return 0;
}
