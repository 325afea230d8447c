// Standalone DOT serving front-end: trains (or loads) the demo oracle,
// serves the binary protocol on a TCP port through a fleet of worker
// shards, and drains gracefully on SIGTERM/SIGINT.  Used by the check.sh
// loopback smokes and available for manual poking with the bench client.
// Its settings come from the flags below alone; everything else serves its
// default (DOT_FAILPOINTS still arms failpoints from the environment).
//
// Usage: dot_server [--port N] [--port-file PATH] [--checkpoint PATH]
//                   [--admin-port N] [--admin-port-file PATH] [--shards N]
//                   [--lame-duck-ms MS]
//
//   --port N            listen port (default: ephemeral)
//   --port-file PATH    write the bound port to PATH once listening (how
//                       scripts discover an ephemeral port)
//   --checkpoint PATH   cache the trained demo oracle weights at PATH
//   --admin-port N      start the admin/introspection HTTP plane on port N
//                       (0 = ephemeral; without the flag, no admin plane)
//   --admin-port-file PATH  write the bound admin port to PATH
//   --shards N          worker shard count (default 1)
//   --lame-duck-ms MS   after SIGTERM/SIGINT, keep serving MS milliseconds
//                       with /readyz at 503 before draining (default 0)
//
// Sharding (DESIGN.md §5i): the demo model is trained once and sealed to
// a checkpoint; every shard loads its own replica from that checkpoint, so
// shards fail (and hot-swap) independently. The router partitions queries
// across shards by OD-pair hash. /shardz (admin) reports per-shard health;
// POST /swapz or SIGHUP hot-swaps every shard from the checkpoint with
// zero downtime.
//
// Continual adaptation (DESIGN.md §5k): the process carries an incident
// storm scheduled for the day after the demo training window. POST
// /adaptz fine-tunes the sealed model on fresh incident trajectories,
// re-seals the checkpoint on improvement, and hot-swaps every shard onto
// it; GET /adaptz reports the round history.
//
// Prints "LISTENING <port>" (plus "ADMIN <port>" when the admin plane is
// up, and "SHARDS <n>") on stdout when ready.
//
// Signals (handled via a self-pipe; the handlers only write one byte):
//   SIGTERM/SIGINT  graceful drain: /readyz flips to 503, the process
//                   lingers --lame-duck-ms so load balancers observe the
//                   flip, then drains and exits.
//   SIGUSR1         dumps the /varz-equivalent JSON snapshot to stderr.
//   SIGHUP          zero-downtime model hot-swap across all shards.

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shard.h"
#include "obs/metrics.h"
#include "serve/adapt.h"
#include "serve/admin.h"
#include "serve/demo.h"
#include "serve/router.h"
#include "serve/server.h"
#include "sim/incidents.h"
#include "util/logging.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
int g_signal_pipe[2] = {-1, -1};

void HandleStopSignal(int) {
  g_stop = 1;
  char b = 't';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

void HandleUsr1(int) {
  char b = 'u';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

void HandleHup(int) {
  char b = 'h';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

// The "server" section of /varz and the SIGUSR1 dump: point-in-time
// front-end counters that live outside the metrics registry.
std::string ServerStatsJson(const dot::serve::Server& server) {
  dot::serve::ServerStats s = server.stats();
  dot::serve::BatcherStats b = server.batcher_stats();
  auto num = [](long long v) { return std::to_string(v); };
  return std::string("{") + "\"port\": " + std::to_string(server.port()) +
         ", \"connections_accepted\": " + num(s.connections_accepted) +
         ", \"connections_open\": " + num(s.connections_open) +
         ", \"requests\": " + num(s.requests) +
         ", \"responses\": " + num(s.responses) +
         ", \"overload_rejected\": " + num(s.overload_rejected) +
         ", \"protocol_errors\": " + num(s.protocol_errors) +
         ", \"pings\": " + num(s.pings) + ", \"waves\": " + num(b.waves) +
         ", \"submitted\": " + num(b.submitted) +
         ", \"completed\": " + num(b.completed) + "}";
}

bool WritePortFile(const std::string& path, int port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "port file %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fprintf(f, "%d\n", port);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string port_file;
  std::string admin_port_file;
  std::string checkpoint;
  dot::serve::ServerConfig config;
  dot::serve::AdminConfig admin_config;
  bool admin_enabled = false;
  long num_shards = 1;
  double lame_duck_ms = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      config.port = std::atoi(next());
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--checkpoint") {
      checkpoint = next();
    } else if (arg == "--admin-port") {
      admin_config.port = std::atoi(next());
      admin_enabled = true;
    } else if (arg == "--admin-port-file") {
      admin_port_file = next();
    } else if (arg == "--shards") {
      num_shards = std::atol(next());
    } else if (arg == "--lame-duck-ms") {
      lame_duck_ms = std::atof(next());
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: dot_server [--port N] "
                   "[--port-file PATH] [--checkpoint PATH] [--admin-port N] "
                   "[--admin-port-file PATH] [--shards N] "
                   "[--lame-duck-ms MS]\n",
                   arg.c_str());
      return 2;
    }
  }
  if (num_shards < 1) num_shards = 1;

  DOT_LOG_INFO << "building demo world (oracle training may take a moment)";
  dot::Result<dot::serve::DemoWorld> world =
      dot::serve::BuildDemoWorld(checkpoint);
  if (!world.ok()) {
    std::fprintf(stderr, "demo world: %s\n", world.status().ToString().c_str());
    return 1;
  }

  // Every shard loads its own model replica from a sealed checkpoint (the
  // shard factories re-run on hot swap). Without --checkpoint, the trained
  // demo weights are sealed to a private temp file.
  std::string shard_checkpoint = checkpoint;
  bool temp_checkpoint = false;
  if (shard_checkpoint.empty()) {
    shard_checkpoint =
        "/tmp/dot_server_demo_" + std::to_string(::getpid()) + ".ckpt";
    temp_checkpoint = true;
  }
  {
    dot::Status sealed = world->oracle->SaveFile(shard_checkpoint);
    if (!sealed.ok()) {
      std::fprintf(stderr, "seal checkpoint %s: %s\n",
                   shard_checkpoint.c_str(), sealed.ToString().c_str());
      return 1;
    }
  }
  dot::ModelFactory factory =
      [&world, shard_checkpoint]() -> dot::Result<std::unique_ptr<dot::DotOracle>> {
    auto oracle = std::make_unique<dot::DotOracle>(dot::serve::DemoDotConfig(),
                                                   *world->grid);
    dot::Status loaded = oracle->LoadFile(shard_checkpoint);
    if (!loaded.ok()) return loaded;
    return oracle;
  };

  std::vector<std::unique_ptr<dot::OracleShard>> shards;
  for (long s = 0; s < num_shards; ++s) {
    dot::ShardConfig shard_config;
    shard_config.shard_id = std::to_string(s);
    dot::Result<std::unique_ptr<dot::OracleShard>> shard =
        dot::OracleShard::Create(factory, std::move(shard_config));
    if (!shard.ok()) {
      std::fprintf(stderr, "shard %ld: %s\n", s,
                   shard.status().ToString().c_str());
      return 1;
    }
    shards.push_back(std::move(*shard));
  }
  dot::serve::ShardRouter router(std::move(shards));

  dot::serve::Server server(dot::serve::RouterBackend(&router), config);
  dot::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  // Continual adaptation loop (DESIGN.md §5k): an incident storm disrupts
  // the day after the training data ends; POST /adaptz fine-tunes the
  // sealed model on fresh incident-window trajectories and hot-swaps the
  // fleet onto the result.
  dot::TripConfig demo_trips = dot::serve::DemoTripConfig();
  int64_t storm_start =
      demo_trips.start_unix + demo_trips.num_days * 86400 + 7 * 3600;
  int64_t storm_end = storm_start + 12 * 3600;
  auto storm = std::make_shared<dot::IncidentSchedule>(
      dot::IncidentSchedule::Storm(*world->city, storm_start, storm_end,
                                   dot::serve::kDemoCitySeed));
  dot::serve::AdaptationManager adapt(
      world->city.get(), world->grid.get(), world->dataset->split.train,
      shard_checkpoint, dot::serve::AdaptConfig{});
  adapt.SetIncidents(storm, storm_start, storm_end);

  dot::serve::AdminHooks hooks;
  hooks.server_json = [&server] { return ServerStatsJson(server); };
  hooks.slow_ring = server.slow_ring();
  hooks.shardz_json = [&router] { return router.ShardzJson(); };
  hooks.swap = [&router] { return router.SwapAll(); };
  hooks.adapt_json = [&adapt] { return adapt.StatusJson(); };
  hooks.adapt_run = [&adapt, &router]() -> dot::Result<std::string> {
    dot::Result<dot::serve::AdaptRound> round =
        adapt.RunRound([&router] { return router.SwapAll(); });
    if (!round.ok()) return round.status();
    return round->ToJson();
  };
  dot::serve::AdminServer admin(admin_config, hooks);
  if (admin_enabled) {
    dot::Status admin_started = admin.Start();
    if (!admin_started.ok()) {
      std::fprintf(stderr, "admin: %s\n", admin_started.ToString().c_str());
      server.Shutdown();
      return 1;
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "signal pipe: %s\n", std::strerror(errno));
    server.Shutdown();
    return 1;
  }
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGUSR1, HandleUsr1);
  std::signal(SIGHUP, HandleHup);

  if (!port_file.empty() && !WritePortFile(port_file, server.port())) {
    server.Shutdown();
    return 1;
  }
  if (admin_enabled && !admin_port_file.empty() &&
      !WritePortFile(admin_port_file, admin.port())) {
    server.Shutdown();
    return 1;
  }
  std::printf("LISTENING %d\n", server.port());
  if (admin_enabled) std::printf("ADMIN %d\n", admin.port());
  std::printf("SHARDS %ld\n", num_shards);
  std::fflush(stdout);

  while (!g_stop) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    int rc = ::poll(&pfd, 1, 500);
    if (rc <= 0) continue;  // timeout or EINTR; g_stop is the backstop
    char bytes[64];
    ssize_t n = ::read(g_signal_pipe[0], bytes, sizeof(bytes));
    for (ssize_t i = 0; i < n; ++i) {
      if (bytes[i] == 'u') {
        // /varz-equivalent snapshot, greppable in the server's stderr log.
        std::fprintf(stderr, "SIGUSR1 varz dump: {\"metrics\": %s, \"server\": %s}\n",
                     dot::obs::MetricsToJson().c_str(),
                     ServerStatsJson(server).c_str());
        std::fflush(stderr);
      } else if (bytes[i] == 'h') {
        // SIGHUP hot swap runs on the main thread; the serving and admin
        // threads keep answering on the old models until each shard's
        // shadow is canary-warmed and published.
        DOT_LOG_INFO << "SIGHUP: hot-swapping " << router.shard_count()
                     << " shard(s) from " << shard_checkpoint;
        dot::Status swapped = router.SwapAll();
        if (swapped.ok()) {
          std::fprintf(stderr, "SIGHUP swap ok\n");
        } else {
          std::fprintf(stderr, "SIGHUP swap failed: %s\n",
                       swapped.ToString().c_str());
        }
        std::fflush(stderr);
      }
    }
  }

  // Lame duck: readiness flips immediately; the serving socket stays up
  // for --lame-duck-ms so load balancers can observe the flip and stop
  // routing before connections start failing.
  admin.SetReady(false);
  DOT_LOG_INFO << "signal received; lame duck " << lame_duck_ms
               << "ms, then draining";
  if (lame_duck_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(lame_duck_ms));
  }
  server.Shutdown();
  dot::serve::ServerStats stats = server.stats();
  dot::serve::BatcherStats bstats = server.batcher_stats();
  std::printf(
      "DRAINED conns=%lld requests=%lld responses=%lld rejected=%lld "
      "waves=%lld lost=%lld\n",
      static_cast<long long>(stats.connections_accepted),
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.responses),
      static_cast<long long>(stats.overload_rejected),
      static_cast<long long>(bstats.waves),
      static_cast<long long>(bstats.submitted - bstats.completed));
  std::fflush(stdout);
  admin.Shutdown();
  if (temp_checkpoint) ::unlink(shard_checkpoint.c_str());
  return 0;
}
