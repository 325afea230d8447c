// Serving load harness: drives the socket front-end with realistic OD/ToD
// traffic from the trip simulator and measures what the paper's "oracle for
// map-based services" framing actually demands of a server — throughput,
// tail latency, batch formation, and graceful degradation under overload.
//
// Default mode is self-contained: trains the demo oracle, seals it to a
// checkpoint, starts the sharded server in-process on a loopback port
// (2 worker shards), then runs
//   1. a closed-loop phase (N synchronous clients) to measure capacity,
//   2. an open-loop Poisson sweep at 0.5x / 1x / 2x the measured capacity
//      (open loop keeps sending at the target rate regardless of response
//      progress, so the 2x point genuinely overloads the queue and the
//      typed backpressure + degradation ladder must answer),
//   3. a `swap` phase: open loop at 0.5x capacity while every shard
//      hot-swaps its model mid-phase — the zero-downtime claim measured
//      (zero errors required; p99 should stay within 2x of steady state),
//   4. a `sparse_miss` phase: open loop at a low fixed rate of fresh trips
//      drawn uniformly over the grid and the day, so nearly every query
//      misses the cache and most reach an idle server alone.
//
// Results (throughput, p50/p95/p99 latency, cache-hit share, wave-size
// distribution, degradation mix, rejection counts) go to stdout and as
// JSON to $DOT_BENCH_SERVING_LOAD_JSON (default BENCH_serving.json;
// run_benches.sh exports it).
//
// `--client-smoke --port N [--queries K]` turns the binary into a tiny
// external client used by scripts/check.sh: it pings a *running* dot_server
// on that port, sends K demand queries, and exits nonzero unless every one
// is answered. No training happens in this mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/shard.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/router.h"
#include "serve/server.h"
#include "sim/trips.h"
#include "util/logging.h"

namespace dot {
namespace serve {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kDeadlineMs = 250.0;  // client budget per query
constexpr double kSparseMissQps = 20.0;  // sparse_miss phase arrival rate

struct Percentiles {
  double mean = 0, p50 = 0, p95 = 0, p99 = 0;
};

Percentiles ComputePercentiles(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (double x : v) sum += x;
  p.mean = sum / static_cast<double>(v.size());
  auto at = [&](double q) {
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

/// Per-request server-side breakdown samples (every bench
/// query sets kQueryFlagWantBreakdown).
struct BreakdownVecs {
  std::vector<double> queue, batch_wait, stage1, stage2;
  void Append(const TimingBreakdown& b) {
    queue.push_back(b.queue_us);
    batch_wait.push_back(b.batch_wait_us);
    stage1.push_back(b.stage1_us);
    stage2.push_back(b.stage2_us);
  }
  void Merge(const BreakdownVecs& o) {
    queue.insert(queue.end(), o.queue.begin(), o.queue.end());
    batch_wait.insert(batch_wait.end(), o.batch_wait.begin(),
                      o.batch_wait.end());
    stage1.insert(stage1.end(), o.stage1.begin(), o.stage1.end());
    stage2.insert(stage2.end(), o.stage2.begin(), o.stage2.end());
  }
};

/// Per-phase outcome tally.
struct PhaseResult {
  std::string name;
  double target_qps = 0;       // 0 = closed loop
  double duration_s = 0;
  int64_t offered = 0;
  int64_t ok = 0;
  int64_t rejected = 0;        // typed ResourceExhausted answers
  int64_t errors = 0;          // any other non-OK response / transport error
  int64_t quality[4] = {0, 0, 0, 0};
  Percentiles latency_ms;
  // Server-side per-request segments (microseconds), from the responses.
  Percentiles bd_queue_us, bd_batch_wait_us, bd_stage1_us, bd_stage2_us;
  // Batcher deltas over the phase.
  int64_t waves = 0;
  int64_t size_flushes = 0, age_flushes = 0, drain_flushes = 0;
  int64_t completed = 0;
  // Service cache deltas over the phase (all shards).
  int64_t service_queries = 0, cache_hits = 0;

  double achieved_qps() const {
    return duration_s > 0 ? static_cast<double>(ok) / duration_s : 0;
  }
  double mean_wave() const {
    return waves > 0 ? static_cast<double>(completed) /
                           static_cast<double>(waves)
                     : 0;
  }
  double hit_share() const {
    return service_queries > 0 ? static_cast<double>(cache_hits) /
                                     static_cast<double>(service_queries)
                               : 0;
  }
};

void TallyResponse(const QueryResponse& r, PhaseResult* out,
                   std::vector<double>* latencies, double latency_ms,
                   BreakdownVecs* bd) {
  if (r.code == 0) {
    ++out->ok;
    if (r.quality < 4) ++out->quality[r.quality];
    latencies->push_back(latency_ms);
    if (r.has_breakdown && bd != nullptr) bd->Append(r.breakdown);
  } else if (r.code == static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    ++out->rejected;
  } else {
    ++out->errors;
  }
}

void FillBreakdown(BreakdownVecs bd, PhaseResult* out) {
  out->bd_queue_us = ComputePercentiles(std::move(bd.queue));
  out->bd_batch_wait_us = ComputePercentiles(std::move(bd.batch_wait));
  out->bd_stage1_us = ComputePercentiles(std::move(bd.stage1));
  out->bd_stage2_us = ComputePercentiles(std::move(bd.stage2));
}

BatcherStats Delta(const BatcherStats& now, const BatcherStats& then) {
  BatcherStats d;
  d.waves = now.waves - then.waves;
  d.size_flushes = now.size_flushes - then.size_flushes;
  d.age_flushes = now.age_flushes - then.age_flushes;
  d.drain_flushes = now.drain_flushes - then.drain_flushes;
  d.completed = now.completed - then.completed;
  d.submitted = now.submitted - then.submitted;
  d.rejected_full = now.rejected_full - then.rejected_full;
  d.rejected_stale = now.rejected_stale - then.rejected_stale;
  return d;
}

/// Batcher stats and the process-wide service cache counters, read at a
/// phase boundary.
struct ServingCounters {
  BatcherStats batcher;
  int64_t service_queries = 0;
  int64_t cache_hits = 0;
};

ServingCounters ReadCounters(Server* server) {
  auto& reg = obs::MetricsRegistry::Get();
  ServingCounters c;
  c.batcher = server->batcher_stats();
  c.service_queries = reg.GetCounter("dot_service_queries_total")->Value();
  c.cache_hits = reg.GetCounter("dot_service_cache_hits_total")->Value();
  return c;
}

void FillDelta(const ServingCounters& then, Server* server,
               PhaseResult* out) {
  ServingCounters now = ReadCounters(server);
  BatcherStats d = Delta(now.batcher, then.batcher);
  out->waves = d.waves;
  out->size_flushes = d.size_flushes;
  out->age_flushes = d.age_flushes;
  out->drain_flushes = d.drain_flushes;
  out->completed = d.completed;
  out->service_queries = now.service_queries - then.service_queries;
  out->cache_hits = now.cache_hits - then.cache_hits;
}

/// Closed loop: `threads` synchronous clients, each Call()ing back to back
/// for `duration_s`. Measures sustainable capacity.
PhaseResult RunClosedLoop(int port, const std::vector<OdtInput>& demand,
                          int threads, double duration_s, Server* server) {
  PhaseResult result;
  result.name = "closed_loop";
  result.duration_s = duration_s;
  ServingCounters before = ReadCounters(server);
  std::mutex mu;
  std::vector<double> latencies;
  BreakdownVecs breakdown;
  std::atomic<int64_t> next_index{0};
  double end_ms = NowMs() + duration_s * 1e3;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      PhaseResult local;
      std::vector<double> local_lat;
      BreakdownVecs local_bd;
      while (NowMs() < end_ms) {
        int64_t i = next_index.fetch_add(1);
        const OdtInput& odt = demand[static_cast<size_t>(i) % demand.size()];
        double t0 = NowMs();
        Result<QueryResponse> r =
            client.Call(static_cast<uint64_t>(i), odt, kDeadlineMs,
                        /*timeout_ms=*/10000, /*trace_id=*/0,
                        kQueryFlagWantBreakdown);
        ++local.offered;
        if (!r.ok()) {
          ++local.errors;
          continue;
        }
        TallyResponse(*r, &local, &local_lat, NowMs() - t0, &local_bd);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.offered += local.offered;
      result.ok += local.ok;
      result.rejected += local.rejected;
      result.errors += local.errors;
      for (int q = 0; q < 4; ++q) result.quality[q] += local.quality[q];
      latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
      breakdown.Merge(local_bd);
    });
  }
  for (auto& w : workers) w.join();
  result.latency_ms = ComputePercentiles(std::move(latencies));
  FillBreakdown(std::move(breakdown), &result);
  FillDelta(before, server, &result);
  return result;
}

/// Open loop: Poisson arrivals at `target_qps`, dispatched round-robin over
/// `conns` pipelined connections. Arrivals never wait for responses, so an
/// over-capacity rate builds real queueing and forces the admission control
/// to answer.
PhaseResult RunOpenLoop(int port, const std::vector<OdtInput>& demand,
                        double target_qps, int conns, double duration_s,
                        Server* server, uint64_t seed) {
  PhaseResult result;
  result.name = "open_loop";
  result.target_qps = target_qps;
  result.duration_s = duration_s;
  ServingCounters before = ReadCounters(server);

  struct ConnState {
    Client client;
    std::mutex mu;
    std::unordered_map<uint64_t, double> sent_ms;  // id -> send time
    int64_t sent = 0;
    PhaseResult tally;
    std::vector<double> latencies;
    BreakdownVecs breakdown;
  };
  std::vector<std::unique_ptr<ConnState>> states;
  for (int c = 0; c < conns; ++c) {
    auto s = std::make_unique<ConnState>();
    if (!s->client.Connect("127.0.0.1", port).ok()) {
      result.errors = -1;
      return result;
    }
    states.push_back(std::move(s));
  }

  std::atomic<bool> dispatch_done{false};
  std::vector<std::thread> receivers;
  receivers.reserve(conns);
  for (int c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      ConnState& s = *states[c];
      int64_t received = 0;
      int idle = 0;
      while (true) {
        {
          std::lock_guard<std::mutex> lock(s.mu);
          if (dispatch_done.load() && received >= s.sent) break;
        }
        Result<Message> msg = s.client.Receive(/*timeout_ms=*/250);
        if (!msg.ok()) {
          if (msg.status().IsDeadlineExceeded()) {
            // Stop waiting once the stream has clearly gone quiet after the
            // dispatch phase (lost responses would otherwise hang the bench).
            if (dispatch_done.load() && ++idle > 40) break;
            continue;
          }
          break;  // connection problem: give up on this conn
        }
        idle = 0;
        const auto* r = std::get_if<QueryResponse>(&*msg);
        if (r == nullptr) continue;
        double now = NowMs();
        double sent_at;
        {
          std::lock_guard<std::mutex> lock(s.mu);
          auto it = s.sent_ms.find(r->id);
          if (it == s.sent_ms.end()) continue;  // duplicate/unknown id
          sent_at = it->second;
          s.sent_ms.erase(it);
        }
        ++received;
        TallyResponse(*r, &s.tally, &s.latencies, now - sent_at,
                      &s.breakdown);
      }
    });
  }

  // Dispatcher: exponential inter-arrivals at the target rate.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(target_qps);
  double next_ms = NowMs();
  double end_ms = next_ms + duration_s * 1e3;
  uint64_t id = 1;
  size_t demand_i = 0;
  while (next_ms < end_ms) {
    double now = NowMs();
    if (now < next_ms) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(next_ms - now));
    }
    ConnState& s = *states[id % static_cast<uint64_t>(conns)];
    const OdtInput& odt = demand[demand_i++ % demand.size()];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.sent_ms[id] = NowMs();
      ++s.sent;
    }
    if (!s.client
             .SendQuery(id, odt, kDeadlineMs, /*trace_id=*/0,
                        kQueryFlagWantBreakdown)
             .ok()) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.sent_ms.erase(id);
      --s.sent;
      ++result.errors;
    } else {
      ++result.offered;
    }
    ++id;
    next_ms += gap_s(rng) * 1e3;
  }
  dispatch_done.store(true);
  for (auto& t : receivers) t.join();

  std::vector<double> latencies;
  BreakdownVecs breakdown;
  for (auto& s : states) {
    result.ok += s->tally.ok;
    result.rejected += s->tally.rejected;
    result.errors += s->tally.errors;
    for (int q = 0; q < 4; ++q) result.quality[q] += s->tally.quality[q];
    latencies.insert(latencies.end(), s->latencies.begin(),
                     s->latencies.end());
    breakdown.Merge(s->breakdown);
  }
  result.latency_ms = ComputePercentiles(std::move(latencies));
  FillBreakdown(std::move(breakdown), &result);
  FillDelta(before, server, &result);
  return result;
}

/// `n` trips whose origin, destination and departure are uniform over the
/// grid box and the demo trip window. The demo grid's 64 cells and the
/// service's 48 time-of-day slots make about 200k cache buckets, so nearly
/// every trip falls in one no earlier phase cached.
std::vector<OdtInput> FreshTrips(const BoundingBox& box, size_t n,
                                 uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> lng(box.min_lng, box.max_lng);
  std::uniform_real_distribution<double> lat(box.min_lat, box.max_lat);
  TripConfig tc = DemoTripConfig();
  std::uniform_int_distribution<int64_t> when(
      tc.start_unix, tc.start_unix + tc.num_days * 86400 - 1);
  std::vector<OdtInput> trips(n);
  for (OdtInput& odt : trips) {
    odt.origin = {lng(rng), lat(rng)};
    odt.destination = {lng(rng), lat(rng)};
    odt.departure_time = when(rng);
  }
  return trips;
}

std::string QualityJson(const PhaseResult& r) {
  std::ostringstream os;
  os << "{";
  for (int q = 0; q < 4; ++q) {
    if (q) os << ", ";
    os << "\"" << ServedQualityName(static_cast<ServedQuality>(q))
       << "\": " << r.quality[q];
  }
  os << "}";
  return os.str();
}

std::string PercentilesJson(const Percentiles& p) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"mean\": " << p.mean << ", \"p50\": " << p.p50
     << ", \"p95\": " << p.p95 << ", \"p99\": " << p.p99 << "}";
  return os.str();
}

std::string PhaseJson(const PhaseResult& r) {
  std::ostringstream os;
  os.precision(6);
  os << "    {\"name\": \"" << r.name << "\", \"target_qps\": " << r.target_qps
     << ", \"duration_s\": " << r.duration_s << ",\n"
     << "     \"offered\": " << r.offered << ", \"ok\": " << r.ok
     << ", \"rejected\": " << r.rejected << ", \"errors\": " << r.errors
     << ", \"achieved_qps\": " << r.achieved_qps() << ",\n"
     << "     \"latency_ms\": " << PercentilesJson(r.latency_ms) << ",\n"
     << "     \"breakdown_us\": {\"queue\": " << PercentilesJson(r.bd_queue_us)
     << ", \"batch_wait\": " << PercentilesJson(r.bd_batch_wait_us)
     << ", \"stage1\": " << PercentilesJson(r.bd_stage1_us)
     << ", \"stage2\": " << PercentilesJson(r.bd_stage2_us) << "},\n"
     << "     \"quality\": " << QualityJson(r)
     << ", \"hit_share\": " << r.hit_share() << ",\n"
     << "     \"waves\": " << r.waves
     << ", \"mean_wave_size\": " << r.mean_wave()
     << ", \"flush_triggers\": {\"size\": " << r.size_flushes
     << ", \"age\": " << r.age_flushes << ", \"drain\": " << r.drain_flushes
     << "}}";
  return os.str();
}

void PrintPhase(const PhaseResult& r) {
  std::printf(
      "%-12s target=%7.1f qps  ok=%6lld rej=%5lld err=%3lld  "
      "qps=%7.1f  p50=%6.1fms p95=%6.1fms p99=%6.1fms  hit=%.2f  "
      "waves=%5lld mean_wave=%.2f\n",
      r.name.c_str(), r.target_qps, static_cast<long long>(r.ok),
      static_cast<long long>(r.rejected), static_cast<long long>(r.errors),
      r.achieved_qps(), r.latency_ms.p50, r.latency_ms.p95, r.latency_ms.p99,
      r.hit_share(), static_cast<long long>(r.waves), r.mean_wave());
}

int RunClientSmoke(int port, int queries) {
  // Demand from the same demo city the dot_server answers for; the city is
  // cheap to build (no training, no routing).
  City city(DemoCityConfig(), kDemoCitySeed);
  TripGenerator gen(&city, 99);
  std::vector<OdtInput> demand =
      gen.GenerateDemand(queries, DemoTripConfig());
  Client client;
  Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    std::fprintf(stderr, "smoke: %s\n", connected.ToString().c_str());
    return 1;
  }
  Status ping = client.PingServer(0, /*timeout_ms=*/10000);
  if (!ping.ok()) {
    std::fprintf(stderr, "smoke ping: %s\n", ping.ToString().c_str());
    return 1;
  }
  int64_t ok = 0;
  for (int i = 0; i < queries; ++i) {
    Result<QueryResponse> r =
        client.Call(static_cast<uint64_t>(i + 1), demand[i], kDeadlineMs,
                    /*timeout_ms=*/30000);
    if (!r.ok()) {
      std::fprintf(stderr, "smoke query %d: %s\n", i,
                   r.status().ToString().c_str());
      return 1;
    }
    if (r->code != 0) {
      std::fprintf(stderr, "smoke query %d: code=%d %s\n", i, r->code,
                   r->message.c_str());
      return 1;
    }
    if (!(r->minutes > 0) || !(r->minutes < 24 * 60)) {
      std::fprintf(stderr, "smoke query %d: implausible minutes=%f\n", i,
                   r->minutes);
      return 1;
    }
    ++ok;
  }
  std::printf("SMOKE_OK queries=%lld\n", static_cast<long long>(ok));
  return 0;
}

int RunLoadBench() {
  const char* scale_env = std::getenv("DOT_BENCH_SCALE");
  bool full = scale_env != nullptr && std::string(scale_env) == "full";
  double phase_s = full ? 5.0 : 2.0;
  int threads = full ? 8 : 4;

  DOT_LOG_INFO << "training demo oracle for the serving bench";
  Result<DemoWorld> world = BuildDemoWorld();
  if (!world.ok()) {
    std::fprintf(stderr, "demo world: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  // The bench serves through the production sharded wiring: the trained
  // demo oracle is sealed to a checkpoint and every shard loads its own
  // replica from it, exactly like dot_server. The swap phase re-runs the
  // same factory for the shadow models.
  std::string ckpt =
      "/tmp/dot_bench_serving_" + std::to_string(::getpid()) + ".ckpt";
  Status sealed = world->oracle->SaveFile(ckpt);
  if (!sealed.ok()) {
    std::fprintf(stderr, "seal checkpoint: %s\n", sealed.ToString().c_str());
    return 1;
  }
  ModelFactory factory = [&world,
                          ckpt]() -> Result<std::unique_ptr<DotOracle>> {
    auto oracle = std::make_unique<DotOracle>(DemoDotConfig(), *world->grid);
    Status loaded = oracle->LoadFile(ckpt);
    if (!loaded.ok()) return loaded;
    return oracle;
  };
  std::vector<std::unique_ptr<OracleShard>> shards;
  for (long s = 0; s < 2; ++s) {
    ShardConfig shard_config;
    shard_config.shard_id = std::to_string(s);
    // Large enough that the canary ring covers the swap phase's hot
    // working set, so the shadow models go live warm.
    shard_config.canary_capacity = 128;
    Result<std::unique_ptr<OracleShard>> shard =
        OracleShard::Create(factory, std::move(shard_config));
    if (!shard.ok()) {
      std::fprintf(stderr, "shard %ld: %s\n", s,
                   shard.status().ToString().c_str());
      ::unlink(ckpt.c_str());
      return 1;
    }
    shards.push_back(std::move(*shard));
  }
  ShardRouter router(std::move(shards));

  ServerConfig config;
  // A deliberately small queue budget so the 2x-capacity point sheds load
  // instead of building a seconds-deep queue.
  config.batcher.queue_budget_ms = 2 * kDeadlineMs;
  config.batcher.queue_capacity = 512;
  Server server(RouterBackend(&router), config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    ::unlink(ckpt.c_str());
    return 1;
  }

  // OD/ToD demand replayed from the simulator's demand model.
  TripGenerator gen(world->city.get(), 7);
  std::vector<OdtInput> demand = gen.GenerateDemand(4096, DemoTripConfig());

  // Warmup: populate the service cache the way any long-running server
  // would be warm, so the measured phases compare batching policies, not
  // first-touch compulsory misses.
  PhaseResult warmup = RunClosedLoop(server.port(), demand, threads,
                                     phase_s * 0.5, &server);
  std::printf("warmup: %lld queries\n", static_cast<long long>(warmup.ok));

  PhaseResult closed =
      RunClosedLoop(server.port(), demand, threads, phase_s, &server);
  PrintPhase(closed);
  double capacity = std::max(closed.achieved_qps(), 1.0);

  std::vector<PhaseResult> open;
  const double kRateFactors[] = {0.5, 1.0, 2.0};
  uint64_t seed = 1234;
  for (double factor : kRateFactors) {
    PhaseResult r = RunOpenLoop(server.port(), demand, factor * capacity,
                                /*conns=*/threads, phase_s, &server, seed++);
    r.name = "open_" + std::to_string(factor).substr(0, 3) + "x";
    PrintPhase(r);
    open.push_back(r);
  }

  // Swap phase: steady 0.5x open-loop load while every shard hot-swaps its
  // model a third of the way in. The zero-downtime claim, measured: the
  // phase must serve zero errors and its p99 should stay within 2x of the
  // equivalent steady-state phase (open[0]). The phase replays a compact
  // hot working set (steady traffic concentrates on hot OD pairs) — the
  // scenario the canary warm is built for: the shadow model re-serves the
  // shards' recent-OD rings before going live, so the swap does not turn
  // the hot set into a cold-cache stampede.
  std::vector<OdtInput> hot_demand(
      demand.begin(),
      demand.begin() + std::min<size_t>(64, demand.size()));
  std::vector<int64_t> versions_before;
  for (const ShardStatus& s : router.Statuses()) {
    versions_before.push_back(s.model_version);
  }
  double swap_ms = 0;
  Status swap_status = Status::OK();
  std::thread swapper([&router, &swap_ms, &swap_status, phase_s] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(phase_s / 3.0));
    double t0 = NowMs();
    swap_status = router.SwapAll();
    swap_ms = NowMs() - t0;
  });
  PhaseResult swap_phase = RunOpenLoop(server.port(), hot_demand,
                                       0.5 * capacity, /*conns=*/threads,
                                       phase_s, &server, seed++);
  swapper.join();
  swap_phase.name = "swap";
  PrintPhase(swap_phase);
  std::vector<int64_t> versions_after;
  for (const ShardStatus& s : router.Statuses()) {
    versions_after.push_back(s.model_version);
  }

  // Sparse misses: each query pays a stage-1 pass, and at this rate most
  // arrive after the previous wave has finished, so the phase shows what a
  // lone miss waits for companions.
  std::vector<OdtInput> fresh = FreshTrips(world->grid->box(), 4096, seed++);
  PhaseResult sparse = RunOpenLoop(server.port(), fresh, kSparseMissQps,
                                   /*conns=*/threads, 2 * phase_s, &server,
                                   seed++);
  sparse.name = "sparse_miss";
  PrintPhase(sparse);

  server.Shutdown();
  ServerStats stats = server.stats();
  BatcherStats bstats = server.batcher_stats();

  std::ostringstream os;
  os.precision(6);
  os << "{\n  \"bench\": \"serving_load\", \"scale\": \""
     << (full ? "full" : "quick") << "\",\n"
     << "  \"capacity_qps\": " << capacity << ",\n"
     << "  \"shards\": " << router.shard_count() << ",\n  \"phases\": [\n"
     << PhaseJson(closed);
  for (const PhaseResult& r : open) os << ",\n" << PhaseJson(r);
  os << ",\n" << PhaseJson(swap_phase);
  os << ",\n" << PhaseJson(sparse);
  double steady_p99 = open.front().latency_ms.p99;
  double swap_p99_vs_steady =
      steady_p99 > 0 ? swap_phase.latency_ms.p99 / steady_p99 : 0;
  os << "\n  ],\n"
     << "  \"swap\": {\"ok\": " << (swap_status.ok() ? "true" : "false")
     << ", \"swap_ms\": " << swap_ms << ", \"versions_before\": [";
  for (size_t i = 0; i < versions_before.size(); ++i) {
    os << (i ? ", " : "") << versions_before[i];
  }
  os << "], \"versions_after\": [";
  for (size_t i = 0; i < versions_after.size(); ++i) {
    os << (i ? ", " : "") << versions_after[i];
  }
  os << "], \"errors\": " << swap_phase.errors
     << ", \"p99_vs_steady\": " << swap_p99_vs_steady << "},\n"
     << "  \"server\": {\"connections\": " << stats.connections_accepted
     << ", \"requests\": " << stats.requests
     << ", \"responses\": " << stats.responses
     << ", \"overload_rejected\": " << stats.overload_rejected
     << ", \"protocol_errors\": " << stats.protocol_errors << "},\n"
     << "  \"batcher\": {\"submitted\": " << bstats.submitted
     << ", \"completed\": " << bstats.completed
     << ", \"waves\": " << bstats.waves
     << ", \"rejected_full\": " << bstats.rejected_full
     << ", \"rejected_stale\": " << bstats.rejected_stale << "}\n}\n";

  const char* path_env = std::getenv("DOT_BENCH_SERVING_LOAD_JSON");
  std::string path =
      (path_env && path_env[0]) ? path_env : "BENCH_serving.json";
  std::ofstream out(path);
  out << os.str();
  out.close();
  std::printf("wrote %s\n", path.c_str());

  // Sanity checks that make a silent regression loud in bench logs: batch
  // formation must actually happen under load, and the overload point must
  // be answered by typed rejections and/or degradation, not by timeouts.
  const PhaseResult& overload = open.back();
  bool formed_waves = overload.mean_wave() > 1.0;
  bool shed_or_degraded =
      overload.rejected > 0 ||
      overload.quality[1] + overload.quality[2] + overload.quality[3] > 0;
  if (!formed_waves) std::printf("WARN: no batch formation under load\n");
  if (!shed_or_degraded) std::printf("WARN: overload produced no shedding\n");
  // Hot-swap acceptance: the swap must have completed, bumped every shard's
  // model version, served zero errors, and kept tail latency bounded.
  bool all_bumped = versions_before.size() == versions_after.size();
  for (size_t i = 0; all_bumped && i < versions_after.size(); ++i) {
    all_bumped = versions_after[i] > versions_before[i];
  }
  if (!swap_status.ok()) {
    std::printf("WARN: hot swap failed: %s\n",
                swap_status.ToString().c_str());
  }
  if (!all_bumped) std::printf("WARN: swap did not bump every shard\n");
  if (swap_phase.errors > 0) {
    std::printf("WARN: swap phase served %lld errors\n",
                static_cast<long long>(swap_phase.errors));
  }
  if (swap_p99_vs_steady > 2.0) {
    std::printf("WARN: swap phase p99 %.1fms is %.2fx steady state\n",
                swap_phase.latency_ms.p99, swap_p99_vs_steady);
  }
  ::unlink(ckpt.c_str());
  std::printf("SERVING_BENCH_DONE\n");
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace dot

int main(int argc, char** argv) {
  int port = 0;
  int queries = 25;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--client-smoke") {
      smoke = true;
    } else if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--queries" && i + 1 < argc) {
      queries = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_serving_load [--client-smoke --port N "
                   "[--queries K]]\n");
      return 2;
    }
  }
  if (smoke) {
    if (port <= 0) {
      std::fprintf(stderr, "--client-smoke requires --port\n");
      return 2;
    }
    return dot::serve::RunClientSmoke(port, queries);
  }
  return dot::serve::RunLoadBench();
}
