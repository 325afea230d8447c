// Serving benchmark of the bench-scale DOT oracle.
//
// Runs the production serving wiring in-process through public APIs:
// sealed checkpoint -> ModelFactory -> 2 x OracleShard -> ShardRouter ->
// Server/DynamicBatcher on loopback, driven by a poll() load generator
// whose queries are simulated trips with known travel times.
//
//   perfbench_oracle --prepare --cache DIR
//       trains and seals the checkpoint once (not part of any metric)
//   perfbench_oracle --workload cold|hot|adapt --seed N --seconds S
//                    --trace 0|1 --cache DIR --out DIR [--source ID]
//       prints one JSON result object as its last stdout line and writes
//       the full results (and, traced, the per-layer table and chrome
//       trace) under --out.
//
// Workloads (all with a 2000 ms client deadline):
//   cold   closed loop, 16 outstanding over 4 connections, every query a
//          fresh trip: stage 1 (diffusion -> UNet -> conv/GEMM) dominates.
//   hot    open-loop Poisson at 500 qps over 4 connections, Zipf(1) over a
//          128-trip working set filled during set-up, then a saturation
//          phase at 16 outstanding: IO, batcher, router and stage 2 carry
//          the time.
//   adapt  the cold stream at 4 outstanding while a writer runs two
//          continual-learning rounds (LoadFile -> FineTune -> SaveFile ->
//          SwapAll) on a fixed schedule, sharing the thread pool.
//
// Every set-up serves its own copy of the prepared checkpoint, because the
// rounds re-seal the file the shards read.
//
// A traced run (--trace 1) reports per-layer metrics instead: it enables
// obs tracing and the op profiler, asks for the V2 timing breakdown, wraps
// the router backend and the model factory with timers, and reads the
// registry counters the program exports. It then sets up again without the
// timers, with tracing and the profiler off, and repeats the measured phase
// as the untraced baseline of the tracing overhead.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <malloc.h>
#include <unistd.h>
#include <vector>

#include "core/shard.h"
#include "eval/metrics.h"
#include "load.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/router.h"
#include "serve/server.h"
#include "util/stopwatch.h"
#include "world.h"

namespace dot::perfbench {
namespace {

// ---- fixed load shapes (absolute; never scaled by a measured capacity)
constexpr int64_t kShards = 2;
constexpr int kConnections = 4;
constexpr double kDeadlineMs = 2000;
constexpr int kColdOutstandingPerConn = 4;   // 16 outstanding
constexpr int kAdaptOutstandingPerConn = 1;  // 4 outstanding
constexpr int kSaturationPerConn = 4;        // hot saturation: 16 outstanding
constexpr double kHotRateQps = 500;
constexpr int64_t kHotWorkingSet = 128;
constexpr double kZipfExponent = 1.0;
constexpr int kAdaptRounds = 2;            // per measured phase
constexpr int64_t kFreshTripsPerRound = 200;
// One round's fine-tune: the FineTuneConfig defaults with the mixed set
// capped so a round fits its slot of the schedule.
constexpr int64_t kRoundMaxSamples = 192;
constexpr int64_t kWarmupQueries = 32;     // cold / adapt warm-up
constexpr int kSetupReps = 3;              // setup_s is their median
// Trips simulated per run for the query streams. A stream that runs out
// wraps around (counted as `stream_wraps`; it would turn misses into hits).
constexpr int64_t kTripPool = 4000;
// Output checks: the served MAE on the first kCheckTrips trips answered by
// the prepared checkpoint must lie within kMaeMarginRel * offline MAE +
// kMaeMarginAbs of that checkpoint's offline EstimateBatch MAE on them.
constexpr int64_t kCheckTrips = 48;
constexpr double kMaeMarginRel = 0.25;
constexpr double kMaeMarginAbs = 0.5;

enum class Workload { kCold, kHot, kAdapt };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kCold: return "cold";
    case Workload::kHot: return "hot";
    case Workload::kAdapt: return "adapt";
  }
  return "?";
}

struct Args {
  bool prepare = false;
  Workload workload = Workload::kCold;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir = ".bench_build/cache";
  std::string out_dir = ".bench_build/results";
  std::string source_id = "unknown";
};

// ---- small statistics helpers

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// \brief Ordered (name -> value, unit) list rendered as the result JSON.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", items_[i].value);
      out += (i ? ", " : "") + std::string("\"") + items_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + items_[i].unit +
             "\"}";
    }
    return out + "}";
  }
  std::string Table() const {
    std::string out = "| metric | value | unit |\n|---|---|---|\n";
    for (const auto& it : items_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", it.value);
      out += "| " + it.name + " | " + buf + " | " + it.unit + " |\n";
    }
    return out;
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// ---- timers around public calls (traced runs)

/// A list appended to from serving threads and taken by the main thread.
template <typename T>
class SampleLog {
 public:
  void Add(T v) {
    std::lock_guard<std::mutex> lock(mu_);
    v_.push_back(std::move(v));
  }
  std::vector<T> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(v_, {});
  }

 private:
  std::mutex mu_;
  std::vector<T> v_;
};

/// One wave through the wrapped router backend.
struct WaveSample {
  double route_us = 0;
  double stage1_us = 0;  ///< critical-path stage-1 time (max over shards)
  double stage2_us = 0;
  double skew = 0;       ///< max / mean sub-wave size
};

// ---- the serving stack

/// A cursor over the trips of one workload.
struct TripStream {
  const std::vector<TripSample>* trips = nullptr;
  int64_t next = 0;
  int64_t wraps = 0;

  const TripSample& at(int64_t i) const {
    return (*trips)[static_cast<size_t>(i)];
  }
  Query Trip(int64_t i) const { return Query{i, at(i).odt}; }
  Query NextFresh() {
    if (next >= static_cast<int64_t>(trips->size())) {
      next = 0;
      ++wraps;
    }
    return Trip(next++);
  }
};

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(int64_t n, double s, uint64_t seed) : rng_(seed) {
    double total = 0;
    for (int64_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int64_t Next() {
    double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<int64_t>(it - cdf_.begin(),
                             static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
};

/// Data of the continual-learning rounds: the replay set (the checkpoint's
/// training data) and freshly simulated trips per round.
struct RoundData {
  std::vector<TripSample> replay;
  std::vector<std::vector<TripSample>> fresh;
};

RoundData MakeRoundData(const City& city, uint64_t seed, int rounds) {
  RoundData d;
  d.replay = TrainingData(city).train;
  for (int r = 0; r < rounds; ++r) {
    d.fresh.push_back(SimulateTrips(
        city, seed * 1000003ULL + 7919ULL * static_cast<uint64_t>(r + 1),
        kFreshTripsPerRound));
  }
  return d;
}

/// Query trips and round data of a run: benchmark inputs, simulated once
/// per run before set-up is timed.
struct Inputs {
  std::vector<TripSample> trips;
  RoundData rounds;
};

Inputs MakeInputs(Workload w, uint64_t seed) {
  World world = BuildWorld();
  Inputs in;
  in.trips = SimulateTrips(*world.city, seed * 2654435761ULL + 17, kTripPool);
  in.rounds = MakeRoundData(*world.city, seed,
                            w == Workload::kAdapt ? kAdaptRounds : 1);
  return in;
}

struct Stack {
  World world;
  TripStream stream;
  const RoundData* rounds = nullptr;
  std::string model_path;  // sealed checkpoint the shard factories read
  std::unique_ptr<serve::ShardRouter> router;
  std::unique_ptr<serve::Server> server;  // destroyed before the router
};

/// Probes of a traced run (null in untraced runs).
struct Probes {
  SampleLog<double> load_ms;     // ModelFactory calls
  SampleLog<WaveSample> waves;   // wrapped BatchBackend
};

Result<std::unique_ptr<Stack>> BuildStack(const Inputs& in,
                                          const std::string& model_path,
                                          Probes* probes) {
  auto st = std::make_unique<Stack>();
  st->world = BuildWorld();
  st->stream.trips = &in.trips;
  st->rounds = &in.rounds;
  st->model_path = model_path;

  const Grid* grid = st->world.grid.get();
  ModelFactory factory = [grid, model_path,
                          probes]() -> Result<std::unique_ptr<DotOracle>> {
    Stopwatch sw;
    Result<std::unique_ptr<DotOracle>> oracle = LoadOracle(*grid, model_path);
    if (probes != nullptr) probes->load_ms.Add(sw.ElapsedSeconds() * 1e3);
    return oracle;
  };
  std::vector<std::unique_ptr<OracleShard>> shards;
  for (int64_t s = 0; s < kShards; ++s) {
    ShardConfig sc;
    sc.shard_id = std::to_string(s);
    DOT_ASSIGN_OR_RETURN(std::unique_ptr<OracleShard> shard,
                         OracleShard::Create(factory, std::move(sc)));
    shards.push_back(std::move(shard));
  }
  st->router = std::make_unique<serve::ShardRouter>(std::move(shards));

  serve::BatchBackend backend = serve::RouterBackend(st->router.get());
  if (probes != nullptr) {
    serve::ShardRouter* router = st->router.get();
    backend = [router, probes](const std::vector<OdtInput>& odts,
                               const QueryOptions& opts)
        -> Result<std::vector<DotEstimate>> {
      std::map<OracleShard*, int64_t> per_shard;
      for (const OdtInput& odt : odts) ++per_shard[router->ShardForQuery(odt)];
      int64_t biggest = 0;
      for (const auto& [shard, n] : per_shard) biggest = std::max(biggest, n);
      Stopwatch sw;
      Result<std::vector<DotEstimate>> r = router->Route(odts, opts);
      WaveSample ws;
      ws.route_us = sw.ElapsedSeconds() * 1e6;
      if (opts.timing != nullptr) {
        ws.stage1_us = opts.timing->stage1_us;
        ws.stage2_us = opts.timing->stage2_us;
      }
      ws.skew = Ratio(static_cast<double>(biggest),
                      static_cast<double>(odts.size()) /
                          static_cast<double>(router->shard_count()));
      probes->waves.Add(ws);
      return r;
    };
  }
  st->server = std::make_unique<serve::Server>(backend, serve::ServerConfig{});
  DOT_RETURN_NOT_OK(st->server->Start());
  return st;
}

// ---- load phases

LoadSpec ClosedSpec(int per_conn, double seconds, uint8_t flags) {
  LoadSpec s;
  s.connections = kConnections;
  s.outstanding_per_conn = per_conn;
  s.seconds = seconds;
  s.deadline_ms = kDeadlineMs;
  s.flags = flags;
  return s;
}

/// Warm-up (cold, adapt) or working-set fill (hot): the end of set-up.
PhaseLog WarmUp(Workload w, Stack* st, uint8_t flags, uint64_t* next_id) {
  LoadSpec spec = ClosedSpec(w == Workload::kAdapt ? kAdaptOutstandingPerConn
                                                   : kColdOutstandingPerConn,
                             120, flags);
  PhaseLog log;
  if (w == Workload::kHot) {
    // Answer every working-set trip once, in order.
    int64_t i = 0;
    spec.max_requests = kHotWorkingSet;
    log = RunPhase(st->server->port(), spec,
                   [&] {
                     int64_t t = i++ % kHotWorkingSet;
                     return st->stream.Trip(t);
                   },
                   *next_id);
    st->stream.next = kHotWorkingSet;  // fresh trips (checks) start after
  } else {
    spec.max_requests = kWarmupQueries;
    log = RunPhase(st->server->port(), spec,
                   [&] { return st->stream.NextFresh(); }, *next_id);
  }
  *next_id += log.outcomes.size();
  return log;
}

/// \brief Outcome of one continual-learning round.
struct RoundResult {
  double round_s = 0;
  double load_ms = 0;
  double finetune_s = 0;
  double seal_ms = 0;
  double swap_ms = 0;
  double swap_start_ms = 0;  ///< NowMs() when SwapAll began; 0: never began
  bool published = false;
  std::string error;
};

/// One round through public calls: load the sealed model into a shadow,
/// fine-tune on fresh trips plus replay, re-seal the checkpoint the shard
/// factories read, and hot-swap every shard onto it.
RoundResult RunRound(Stack* st, const std::vector<TripSample>& fresh) {
  RoundResult r;
  std::vector<int64_t> before;
  for (const ShardStatus& s : st->router->Statuses()) {
    before.push_back(s.model_version);
  }
  Stopwatch total;
  Stopwatch sw;
  Result<std::unique_ptr<DotOracle>> shadow =
      LoadOracle(*st->world.grid, st->model_path);
  r.load_ms = sw.ElapsedSeconds() * 1e3;
  if (!shadow.ok()) {
    r.error = shadow.status().ToString();
    return r;
  }
  sw.Restart();
  FineTuneConfig ftc;
  ftc.max_samples = kRoundMaxSamples;
  Status tuned = (*shadow)->FineTune(fresh, st->rounds->replay, ftc);
  r.finetune_s = sw.ElapsedSeconds();
  if (!tuned.ok()) {
    r.error = tuned.ToString();
    return r;
  }
  sw.Restart();
  Status sealed = (*shadow)->SaveFile(st->model_path);
  r.seal_ms = sw.ElapsedSeconds() * 1e3;
  if (!sealed.ok()) {
    r.error = sealed.ToString();
    return r;
  }
  sw.Restart();
  r.swap_start_ms = NowMs();
  Status swapped = st->router->SwapAll();
  r.swap_ms = sw.ElapsedSeconds() * 1e3;
  r.round_s = total.ElapsedSeconds();
  if (!swapped.ok()) {
    r.error = swapped.ToString();
    return r;
  }
  std::vector<ShardStatus> after = st->router->Statuses();
  r.published = after.size() == before.size();
  for (size_t i = 0; r.published && i < after.size(); ++i) {
    r.published = after[i].model_version > before[i];
  }
  if (!r.published) r.error = "a shard kept its model version";
  return r;
}

/// \brief One measured load phase and what it reports.
struct MeasuredPhase {
  PhaseLog log;
  bool latency = true;   // p50/p99 come from this phase
  bool capacity = true;  // capacity_qps comes from this phase
};

/// \brief The measured phases of one workload.
struct Measured {
  std::vector<MeasuredPhase> phases;
  std::vector<RoundResult> rounds;
};

Measured RunMeasured(Workload w, Stack* st, const Args& a, uint8_t flags,
                     uint64_t* next_id) {
  Measured m;
  int port = st->server->port();
  switch (w) {
    case Workload::kCold: {
      PhaseLog log = RunPhase(port, ClosedSpec(kColdOutstandingPerConn,
                                               a.seconds, flags),
                              [&] { return st->stream.NextFresh(); }, *next_id);
      *next_id += log.outcomes.size();
      m.phases.push_back({std::move(log)});
      break;
    }
    case Workload::kHot: {
      // Fixed-rate phase first, saturation after it. Draws and arrivals
      // depend on the seed only.
      Zipf zipf(kHotWorkingSet, kZipfExponent, a.seed * 31 + 7);
      auto draw = [&] {
        int64_t t = zipf.Next();
        return st->stream.Trip(t);
      };
      LoadSpec open = ClosedSpec(0, a.seconds, flags);
      open.rate_qps = kHotRateQps;
      open.schedule_seed = a.seed * 7919 + 1;
      PhaseLog log = RunPhase(port, open, draw, *next_id);
      *next_id += log.outcomes.size();
      m.phases.push_back({std::move(log), true, false});
      PhaseLog sat = RunPhase(
          port, ClosedSpec(kSaturationPerConn, a.seconds / 2, flags), draw,
          *next_id);
      *next_id += sat.outcomes.size();
      m.phases.push_back({std::move(sat), false, true});
      break;
    }
    case Workload::kAdapt: {
      // Rounds start on a fixed schedule inside the sending window; a round
      // that overruns its slot delays the next one.
      double period_ms = a.seconds * 1e3 / kAdaptRounds;
      double start = NowMs();
      m.rounds.resize(kAdaptRounds);
      std::thread writer([&] {
        for (int k = 0; k < kAdaptRounds; ++k) {
          double due = start + k * period_ms;
          double now = NowMs();
          if (now < due) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(due - now));
          }
          m.rounds[k] = RunRound(st, st->rounds->fresh[static_cast<size_t>(k)]);
        }
      });
      PhaseLog log = RunPhase(port, ClosedSpec(kAdaptOutstandingPerConn,
                                               a.seconds, flags),
                              [&] { return st->stream.NextFresh(); }, *next_id);
      writer.join();
      *next_id += log.outcomes.size();
      m.phases.push_back({std::move(log)});
      break;
    }
  }
  return m;
}

// ---- end-to-end summary and output checks

struct Summary {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t full_in_deadline = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t lost = 0;
  int64_t duplicates = 0;
  int64_t unknown = 0;
  int64_t bad_minutes = 0;  // OK answers outside (0, 1440) or non-finite
  int64_t latency_samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double capacity_qps = 0;
  int64_t capacity_samples = 0;
  double mae_min = 0;
  int64_t mae_trips = 0;
  double late_p99_ms = 0;
  std::map<int64_t, double> served;  // trip -> first served minutes
  int64_t failed() const { return rejected + errors + lost; }
  /// Every request id answered once, with a valid value when OK.
  bool clean() const {
    return duplicates == 0 && unknown == 0 && lost == 0 && bad_minutes == 0;
  }
};

void Tally(const PhaseLog& log, Summary* s) {
  s->duplicates += log.duplicates;
  s->unknown += log.unknown;
  for (const Outcome& o : log.outcomes) {
    ++s->attempted;
    if (!o.answered()) {
      ++s->lost;
      continue;
    }
    const serve::QueryResponse& r = o.response;
    if (r.code == static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
      ++s->rejected;
      continue;
    }
    if (r.code != 0) {
      ++s->errors;
      continue;
    }
    ++s->ok;
    if (!std::isfinite(r.minutes) || r.minutes <= 0 || r.minutes >= 1440) {
      ++s->bad_minutes;
    }
    if (r.quality == static_cast<uint8_t>(ServedQuality::kFull) &&
        o.latency_ms() <= kDeadlineMs) {
      ++s->full_in_deadline;
    }
    s->served.emplace(o.trip, r.minutes);
  }
}

/// Full answers per second between the first and the last answer of the
/// sending window: answers arrive in waves, so counting from the first
/// wave's completion to the last one's covers whole waves only. Returns 0
/// when fewer than two distinct completion times fall in the window.
double CapacityQps(const PhaseLog& log, int64_t* samples) {
  std::vector<double> t;
  for (const Outcome& o : log.outcomes) {
    if (o.answered() && o.recv_ms < log.end_ms && o.response.code == 0 &&
        o.response.quality == static_cast<uint8_t>(ServedQuality::kFull) &&
        o.latency_ms() <= kDeadlineMs) {
      t.push_back(o.recv_ms);
    }
  }
  std::sort(t.begin(), t.end());
  if (t.size() < 2 || t.back() <= t.front()) return 0;
  int64_t n = 0;
  for (double x : t) n += x > t.front() ? 1 : 0;
  *samples += n;
  return static_cast<double>(n) / ((t.back() - t.front()) / 1e3);
}

Summary Summarize(const Measured& m, const std::vector<TripSample>& trips) {
  Summary s;
  std::vector<double> lat, late, phase_qps;
  for (const MeasuredPhase& p : m.phases) {
    Tally(p.log, &s);
    if (p.capacity) phase_qps.push_back(CapacityQps(p.log, &s.capacity_samples));
    if (!p.latency) continue;
    for (const Outcome& o : p.log.outcomes) {
      late.push_back(o.sent_ms - o.due_ms);
      if (o.answered() && o.response.code == 0) lat.push_back(o.latency_ms());
    }
  }
  s.latency_samples = static_cast<int64_t>(lat.size());
  s.p50_ms = Quantile(lat, 0.50);
  s.p99_ms = Quantile(lat, 0.99);
  s.capacity_qps = Median(phase_qps);
  s.late_p99_ms = Quantile(late, 0.99);
  double abs_err = 0;
  for (const auto& [trip, minutes] : s.served) {
    abs_err += std::fabs(minutes - trips[static_cast<size_t>(trip)]
                                       .travel_time_minutes);
  }
  s.mae_trips = static_cast<int64_t>(s.served.size());
  s.mae_min = Ratio(abs_err, static_cast<double>(s.served.size()));
  return s;
}

/// Adds the OK answers of `log` that arrived before `before_ms`
/// (trip -> minutes; the first answer of a trip is kept).
void ServedBefore(const PhaseLog& log, double before_ms,
                  std::map<int64_t, double>* out) {
  for (const Outcome& o : log.outcomes) {
    if (o.answered() && o.response.code == 0 && o.recv_ms < before_ms) {
      out->emplace(o.trip, o.response.minutes);
    }
  }
}

/// \brief Result of the offline accuracy cross-check.
struct AccuracyCheck {
  int64_t trips = 0;
  double served_mae = 0;
  double offline_mae = 0;
  double margin = 0;
  bool ok = false;
  std::string error;
};

/// Scores the first kCheckTrips trips of `served_by_trip`, all answered by
/// `checkpoint`, against that checkpoint's offline EstimateBatch on them.
AccuracyCheck CheckAccuracy(const std::map<int64_t, double>& served_by_trip,
                            const Stack& st, const std::string& checkpoint) {
  AccuracyCheck c;
  std::vector<OdtInput> odts;
  std::vector<double> truth, served;
  for (const auto& [trip, minutes] : served_by_trip) {
    if (static_cast<int64_t>(odts.size()) >= kCheckTrips) break;
    const TripSample& t = st.stream.at(trip);
    odts.push_back(t.odt);
    truth.push_back(t.travel_time_minutes);
    served.push_back(minutes);
  }
  c.trips = static_cast<int64_t>(odts.size());
  Result<std::unique_ptr<DotOracle>> oracle =
      LoadOracle(*st.world.grid, checkpoint);
  if (!oracle.ok()) {
    c.error = oracle.status().ToString();
    return c;
  }
  MetricsAccumulator offline, online;
  for (size_t i = 0; i < odts.size(); i += 16) {
    std::vector<OdtInput> batch(
        odts.begin() + static_cast<std::ptrdiff_t>(i),
        odts.begin() + static_cast<std::ptrdiff_t>(std::min(i + 16, odts.size())));
    Result<std::vector<DotEstimate>> est = (*oracle)->EstimateBatch(batch);
    if (!est.ok()) {
      c.error = est.status().ToString();
      return c;
    }
    for (size_t k = 0; k < est->size(); ++k) {
      offline.Add((*est)[k].minutes, truth[i + k]);
      online.Add(served[i + k], truth[i + k]);
    }
  }
  c.offline_mae = offline.Finalize().mae;
  c.served_mae = online.Finalize().mae;
  c.margin = kMaeMarginRel * c.offline_mae + kMaeMarginAbs;
  c.ok = c.trips > 0 && std::fabs(c.served_mae - c.offline_mae) <= c.margin;
  return c;
}

// ---- per-layer attribution (traced runs)

/// Registry values read at the edges of the measured phase.
struct Counters {
  std::map<std::string, int64_t> counters;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  std::map<std::string, double> gauges;
  double serialize_p50_us = 0;  // rolling window of the V2 breakdown
  obs::OpStats ops[static_cast<int>(obs::OpKind::kNumKinds)];
  serve::BatcherStats batcher;
  std::vector<ShardStatus> shards;

  static Counters Read(const Stack& st) {
    Counters c;
    obs::MetricsSnapshot snap = obs::SnapshotMetrics();
    c.counters = std::move(snap.counters);
    c.histograms = std::move(snap.histograms);
    c.gauges = std::move(snap.gauges);
    auto win = snap.windows.find("dot_server_breakdown_serialize_us");
    if (win != snap.windows.end()) c.serialize_p50_us = win->second.p50;
    for (int k = 0; k < static_cast<int>(obs::OpKind::kNumKinds); ++k) {
      c.ops[k] = obs::OpProfiler::Get(static_cast<obs::OpKind>(k));
    }
    c.batcher = st.server->batcher_stats();
    c.shards = st.router->Statuses();
    return c;
  }
  int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Sum over every labelled series of `base`.
  int64_t CounterFamily(const std::string& base) const {
    int64_t total = 0;
    for (const auto& [name, v] : counters) {
      if (name == base || name.rfind(base + "{", 0) == 0) total += v;
    }
    return total;
  }
  double HistSum(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.sum;
  }
};

/// Per-request server segments from the V2 breakdown.
struct Segments {
  std::vector<double> queue, batch_wait, stage1, stage2, io, rtt;
};

Segments CollectSegments(const std::vector<MeasuredPhase>& phases) {
  Segments seg;
  for (const MeasuredPhase& p : phases) {
    if (!p.latency) continue;
    for (const Outcome& o : p.log.outcomes) {
      if (!o.answered() || !o.response.has_breakdown) continue;
      const serve::TimingBreakdown& b = o.response.breakdown;
      double rtt_us = (o.recv_ms - o.sent_ms) * 1e3;
      seg.queue.push_back(b.queue_us);
      seg.batch_wait.push_back(b.batch_wait_us);
      seg.stage1.push_back(b.stage1_us);
      seg.stage2.push_back(b.stage2_us);
      seg.rtt.push_back(rtt_us);
      seg.io.push_back(std::max(
          0.0, rtt_us - b.queue_us - b.batch_wait_us - b.stage1_us -
                   b.stage2_us));
    }
  }
  return seg;
}

double SpanMeanUs(const std::vector<obs::TraceEvent>& events,
                  const char* name) {
  std::vector<double> d;
  for (const auto& e : events) {
    if (e.name == name) d.push_back(static_cast<double>(e.dur_us));
  }
  return Mean(d);
}

/// Builds the per-layer metric list of a traced run.
MetricList LayerMetrics(const Counters& warm, const Counters& c0,
                        const Counters& c1, const Measured& m,
                        const std::vector<WaveSample>& warm_waves,
                        const std::vector<WaveSample>& waves,
                        const std::vector<double>& load_ms,
                        const std::vector<obs::TraceEvent>& events,
                        const std::vector<RoundResult>& rounds,
                        const Summary& traced, const Summary& untraced,
                        std::string* attribution) {
  const double traced_p50 = traced.p50_ms;
  MetricList out;
  Segments seg = CollectSegments(m.phases);

  // server
  out.Add("server.io_us.p50", Quantile(seg.io, 0.5), "us");
  out.Add("server.serialize_us.p50", c1.serialize_p50_us, "us");
  out.Add("server.protocol_errors",
          static_cast<double>(c1.Counter("dot_server_protocol_errors_total") -
                              c0.Counter("dot_server_protocol_errors_total")),
          "count");

  // batcher
  double waves_n = static_cast<double>(c1.batcher.waves - c0.batcher.waves);
  out.Add("batcher.queue_us.p50", Quantile(seg.queue, 0.5), "us");
  out.Add("batcher.queue_us.p99", Quantile(seg.queue, 0.99), "us");
  out.Add("batcher.wave_size",
          Ratio(static_cast<double>(c1.batcher.completed - c0.batcher.completed),
                waves_n),
          "queries");
  out.Add("batcher.age_flush_share",
          Ratio(static_cast<double>(c1.batcher.age_flushes -
                                    c0.batcher.age_flushes),
                waves_n),
          "ratio");
  out.Add("batcher.rejected",
          static_cast<double>(c1.batcher.rejected_full + c1.batcher.rejected_stale -
                              c0.batcher.rejected_full - c0.batcher.rejected_stale),
          "count");

  // router
  std::vector<double> route, s1, s2, skew;
  for (const WaveSample& ws : waves) {
    route.push_back(ws.route_us);
    s2.push_back(ws.stage2_us);
    skew.push_back(ws.skew);
  }
  for (const auto* list : {&warm_waves, &waves}) {
    for (const WaveSample& ws : *list) {
      if (ws.stage1_us > 0) s1.push_back(ws.stage1_us);
    }
  }
  out.Add("router.route_us.p50", Quantile(route, 0.5), "us");
  out.Add("router.route_us.p99", Quantile(route, 0.99), "us");
  out.Add("router.overhead_us.p50", Quantile(seg.batch_wait, 0.5), "us");
  out.Add("router.skew", Mean(skew), "ratio");

  // shard
  double qmax = 0, qmin = 0;
  int64_t health_changes = 0;
  for (size_t i = 0; i < c1.shards.size(); ++i) {
    double q = static_cast<double>(c1.shards[i].queries - c0.shards[i].queries);
    qmax = i == 0 ? q : std::max(qmax, q);
    qmin = i == 0 ? q : std::min(qmin, q);
    health_changes += c1.shards[i].quarantines - c0.shards[i].quarantines;
    health_changes += c1.shards[i].health != c0.shards[i].health ? 1 : 0;
  }
  out.Add("shard.imbalance", Ratio(qmax, qmin), "ratio");
  out.Add("shard.health_changes", static_cast<double>(health_changes), "count");
  out.Add("shard.load_ms", Median(load_ms), "ms");
  std::vector<double> swap_ms, finetune_s, seal_ms;
  for (const RoundResult& r : rounds) {
    swap_ms.push_back(r.swap_ms);
    finetune_s.push_back(r.finetune_s);
    seal_ms.push_back(r.seal_ms);
  }
  out.Add("shard.swap_ms", Median(swap_ms), "ms");

  // service (measured phase only)
  double queries = static_cast<double>(c1.Counter("dot_service_queries_total") -
                                       c0.Counter("dot_service_queries_total"));
  out.Add("service.hit_rate",
          Ratio(static_cast<double>(c1.Counter("dot_service_cache_hits_total") -
                                    c0.Counter("dot_service_cache_hits_total")),
                queries),
          "ratio");
  out.Add("service.dedup_rate",
          Ratio(static_cast<double>(c1.Counter("dot_service_dedup_hits_total") -
                                    c0.Counter("dot_service_dedup_hits_total")),
                queries),
          "ratio");
  out.Add("service.degraded_share",
          Ratio(static_cast<double>(
                    c1.CounterFamily("dot_serving_degraded_total") -
                    c0.CounterFamily("dot_serving_degraded_total")),
                queries),
          "ratio");
  out.Add("service.retries",
          static_cast<double>(c1.Counter("dot_serving_retries_total") -
                              c0.Counter("dot_serving_retries_total")),
          "count");

  // stage 1: over warm-up + measured phase (hot runs stage 1 only in its
  // working-set fill). Per-miss cost sums both shards' stage-1 time.
  auto misses = [](const Counters& a, const Counters& b) {
    return static_cast<double>(b.Counter("dot_service_cache_misses_total") -
                               a.Counter("dot_service_cache_misses_total"));
  };
  auto s1_us = [](const Counters& a, const Counters& b) {
    return b.HistSum("dot_oracle_stage1_latency_us") -
           a.HistSum("dot_oracle_stage1_latency_us");
  };
  double miss_all = misses(warm, c1);
  double per_miss = Ratio(s1_us(warm, c1), miss_all);
  double per_miss_warm = Ratio(s1_us(warm, c0), misses(warm, c0));
  double per_miss_measured = Ratio(s1_us(c0, c1), misses(c0, c1));
  out.Add("stage1.wave_us.p50", Quantile(s1, 0.5), "us");
  out.Add("stage1.wave_us.p99", Quantile(s1, 0.99), "us");
  // Share of the router's busy time (measured phase) spent in stage 1.
  double busy_us = 0, stage1_busy_us = 0;
  for (const WaveSample& ws : waves) {
    busy_us += ws.route_us;
    stage1_busy_us += ws.stage1_us;
  }
  out.Add("stage1.busy_share", Ratio(stage1_busy_us, busy_us), "ratio");
  out.Add("stage1.us_per_miss", per_miss, "us");
  out.Add("stage1.step_us", SpanMeanUs(events, "reverse_step"), "us");
  out.Add("stage1.interference",
          misses(c0, c1) > 0 ? Ratio(per_miss_measured, per_miss_warm) : 1.0,
          "ratio");

  // stage 2
  double all_queries =
      static_cast<double>(c1.Counter("dot_service_queries_total") -
                          warm.Counter("dot_service_queries_total"));
  out.Add("stage2.wave_us.p50", Quantile(s2, 0.5), "us");
  out.Add("stage2.us_per_query",
          Ratio(c1.HistSum("dot_oracle_stage2_latency_us") -
                    warm.HistSum("dot_oracle_stage2_latency_us"),
                all_queries),
          "us");

  // tensor: op-profiler totals over warm-up + measured phase
  auto op = [&](obs::OpKind k) {
    obs::OpStats d;
    const obs::OpStats& a = warm.ops[static_cast<int>(k)];
    const obs::OpStats& b = c1.ops[static_cast<int>(k)];
    d.calls = b.calls - a.calls;
    d.total_ns = b.total_ns - a.total_ns;
    d.flops = b.flops - a.flops;
    return d;
  };
  obs::OpStats conv = op(obs::OpKind::kConv2d);
  obs::OpStats kern = op(obs::OpKind::kGemmKernel);
  obs::OpStats attn = op(obs::OpKind::kAttention);
  out.Add("tensor.conv2d_ms_per_miss", Ratio(conv.total_ms(), miss_all), "ms");
  out.Add("tensor.gemm_gflops", kern.gflops(), "GFLOP/s");
  out.Add("tensor.gemm_flops_per_miss", Ratio(kern.flops, miss_all), "flop");
  out.Add("tensor.attention_ms_per_query", Ratio(attn.total_ms(), all_queries),
          "ms");
  out.Add("tensor.pool_misses_per_query",
          Ratio(static_cast<double>(c1.Counter("dot_pool_misses_total") -
                                    warm.Counter("dot_pool_misses_total")),
                all_queries),
          "count");
  auto hw = c1.gauges.find("dot_pool_high_water_bytes");
  out.Add("tensor.pool_high_water_mb",
          hw == c1.gauges.end() ? 0 : hw->second / 1e6, "MB");

  // train / checkpoint
  out.Add("train.finetune_s", Median(finetune_s), "s");
  out.Add("train.epoch_ms", SpanMeanUs(events, "Trainer::epoch") / 1e3, "ms");
  out.Add("checkpoint.seal_ms", Median(seal_ms), "ms");

  // generator; tracing overhead against the untraced baseline, which also
  // gives this seed's client tail and accuracy
  out.Add("gen.late_ms.p99", traced.late_p99_ms, "ms");
  out.Add("trace.overhead", Ratio(traced_p50, untraced.p50_ms), "ratio");
  out.Add("latency.p99_ms", untraced.p99_ms, "ms");
  out.Add("accuracy.mae_min", untraced.mae_min, "min");

  // Attribution: the server segments plus IO against the client p50.
  double q50 = Quantile(seg.queue, 0.5), b50 = Quantile(seg.batch_wait, 0.5),
         st1 = Quantile(seg.stage1, 0.5), st2 = Quantile(seg.stage2, 0.5),
         io50 = Quantile(seg.io, 0.5), rtt50 = Quantile(seg.rtt, 0.5);
  double sum_ms = (q50 + b50 + st1 + st2 + io50) / 1e3;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "| segment (p50 over %zu requests) | ms |\n|---|---|\n"
      "| batcher queue | %.3f |\n| batch wait (router overhead) | %.3f |\n"
      "| stage 1 | %.3f |\n| stage 2 | %.3f |\n| server io (RTT - segments) "
      "| %.3f |\n| **sum of segment medians** | %.3f |\n"
      "| client RTT p50 | %.3f |\n| client p50_ms (traced) | %.3f |\n"
      "| sum / p50_ms | %.3f |\n",
      seg.rtt.size(), q50 / 1e3, b50 / 1e3, st1 / 1e3, st2 / 1e3, io50 / 1e3,
      sum_ms, rtt50 / 1e3, traced_p50, Ratio(sum_ms, traced_p50));
  *attribution = buf;
  return out;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricList& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.Json() + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

std::string SummaryJson(const Summary& s) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"attempted\": " << s.attempted << ", \"ok\": " << s.ok
     << ", \"full_in_deadline\": " << s.full_in_deadline
     << ", \"rejected\": " << s.rejected << ", \"errors\": " << s.errors
     << ", \"lost\": " << s.lost << ", \"duplicates\": " << s.duplicates
     << ", \"unknown_ids\": " << s.unknown
     << ", \"bad_minutes\": " << s.bad_minutes
     << ", \"latency_samples\": " << s.latency_samples
     << ", \"p50_ms\": " << s.p50_ms << ", \"p99_ms\": " << s.p99_ms
     << ", \"capacity_qps\": " << s.capacity_qps
     << ", \"capacity_samples\": " << s.capacity_samples
     << ", \"mae_min\": " << s.mae_min << ", \"mae_trips\": " << s.mae_trips
     << ", \"generator_late_p99_ms\": " << s.late_p99_ms << "}";
  return os.str();
}

std::string RoundsJson(const std::vector<RoundResult>& rounds) {
  std::ostringstream os;
  os.precision(10);
  os << "[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    os << (i ? ", " : "") << "{\"round_s\": " << r.round_s
       << ", \"load_ms\": " << r.load_ms << ", \"finetune_s\": " << r.finetune_s
       << ", \"seal_ms\": " << r.seal_ms << ", \"swap_ms\": " << r.swap_ms
       << ", \"published\": " << (r.published ? "true" : "false")
       << ", \"error\": \"" << obs::JsonEscape(r.error) << "\"}";
  }
  os << "]";
  return os.str();
}

bool RoundsOk(const std::vector<RoundResult>& rounds) {
  for (const RoundResult& r : rounds) {
    if (!r.published || !r.error.empty()) return false;
  }
  return true;
}

int Run(const Args& a) {
  Result<std::string> prepared = PrepareCheckpoint(BuildWorld(), a.cache_dir);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: checkpoint: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  if (a.prepare) {
    std::fprintf(stderr, "perfbench: checkpoint ready at %s\n",
                 prepared->c_str());
    return 0;
  }
  const std::string base = *prepared;
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string tag = std::string(WorkloadName(a.workload)) + "-seed" +
                          std::to_string(a.seed);
  // The rounds re-seal the checkpoint the shard factories read: every
  // set-up serves a fresh copy, so the prepared checkpoint stays as trained.
  const std::string model_path =
      a.out_dir + "/" + tag + "-" + std::to_string(::getpid()) + ".ckpt";

  Stopwatch inputs_sw;
  const Inputs inputs = MakeInputs(a.workload, a.seed);
  std::fprintf(stderr, "perfbench: simulated %zu query trips in %.2f s\n",
               inputs.trips.size(), inputs_sw.ElapsedSeconds());

  Probes probes;
  const uint8_t flags =
      a.trace ? (serve::kQueryFlagWantBreakdown | serve::kQueryFlagSampled) : 0;
  if (a.trace) {
    obs::OpProfiler::Enable(true);
    obs::StartTracing();
  }

  // One set-up: world build, checkpoint load into both shards, server
  // start, warm-up (hot: the working-set fill). Copying the checkpoint is
  // not timed.
  uint64_t next_id = 1;
  PhaseLog warm_log;
  auto set_up = [&](Probes* p, uint8_t f, Counters* warm,
                    double* seconds) -> Result<std::unique_ptr<Stack>> {
    ::malloc_trim(0);
    std::error_code copy_ec;
    std::filesystem::copy_file(
        base, model_path, std::filesystem::copy_options::overwrite_existing,
        copy_ec);
    if (copy_ec) {
      return Status::IOError("copy checkpoint: " + copy_ec.message());
    }
    Stopwatch sw;
    DOT_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                         BuildStack(inputs, model_path, p));
    double built_s = sw.ElapsedSeconds();
    if (warm != nullptr) *warm = Counters::Read(*stack);
    warm_log = WarmUp(a.workload, stack.get(), f, &next_id);
    *seconds = sw.ElapsedSeconds();
    std::fprintf(stderr,
                 "perfbench: set-up: stack %.3f s, total %.3f s, peak rss "
                 "%.1f MB\n",
                 built_s, *seconds, PeakRssMb());
    return stack;
  };

  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  Counters warm;
  for (int rep = 0; rep < (a.trace ? 1 : kSetupReps); ++rep) {
    st.reset();
    double seconds = 0;
    Result<std::unique_ptr<Stack>> built =
        set_up(a.trace ? &probes : nullptr, flags, a.trace ? &warm : nullptr,
               &seconds);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    st = std::move(*built);
    setup_s.push_back(seconds);
  }

  // Measured phase.
  std::vector<WaveSample> warm_waves = probes.waves.Take();
  Counters c0, c1;
  if (a.trace) c0 = Counters::Read(*st);
  Measured m = RunMeasured(a.workload, st.get(), a, flags, &next_id);
  if (a.trace) c1 = Counters::Read(*st);
  std::vector<WaveSample> waves = probes.waves.Take();
  Summary s = Summarize(m, inputs.trips);

  // Peak memory of set-up and serving (adapt: beside its training rounds).
  double peak_rss = PeakRssMb();

  // Answers known to come from the prepared checkpoint: the warm-up's and
  // those received before the first round began to swap.
  double first_swap_ms = std::numeric_limits<double>::infinity();
  for (const RoundResult& r : m.rounds) {
    if (r.swap_start_ms > 0) first_swap_ms = std::min(first_swap_ms, r.swap_start_ms);
  }
  std::map<int64_t, double> base_served;
  ServedBefore(warm_log, first_swap_ms, &base_served);
  for (const MeasuredPhase& p : m.phases) {
    ServedBefore(p.log, first_swap_ms, &base_served);
  }

  // cold and hot run one continual-learning round after the measured
  // phase, without traffic; adapt reports the rounds it ran under load.
  std::vector<RoundResult> rounds = m.rounds;
  if (a.workload != Workload::kAdapt) {
    rounds = {RunRound(st.get(), inputs.rounds.fresh[0])};
  }
  std::vector<obs::TraceEvent> events;
  if (a.trace) {
    events = obs::StopTracing();
    obs::OpProfiler::Enable(false);
  }
  AccuracyCheck acc = CheckAccuracy(base_served, *st, base);
  int64_t wraps = st->stream.wraps;

  // The traced run's untraced baseline: set-up and measured phase again on
  // a stack without the timers, with tracing and the op profiler off, on
  // the same query stream and rounds as an untraced run of this seed.
  Summary untraced;
  bool baseline_ok = true;
  if (a.trace) {
    st.reset();
    double seconds = 0;
    Result<std::unique_ptr<Stack>> built = set_up(nullptr, 0, nullptr, &seconds);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: baseline set-up: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    st = std::move(*built);
    Measured plain = RunMeasured(a.workload, st.get(), a, 0, &next_id);
    untraced = Summarize(plain, inputs.trips);
    baseline_ok = untraced.clean() && RoundsOk(plain.rounds);
  }

  std::vector<double> round_s;
  for (const RoundResult& r : rounds) round_s.push_back(r.round_s);
  bool correct = s.clean() && acc.ok && !rounds.empty() && RoundsOk(rounds) &&
                 baseline_ok;
  std::string fingerprint = FingerprintJson(a.seed, kShards, a.source_id);
  std::ostringstream detail;
  detail.precision(10);
  detail << "{\"workload\": \"" << WorkloadName(a.workload)
         << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
         << ", \"trace\": " << (a.trace ? 1 : 0)
         << ",\n \"fingerprint\": " << fingerprint
         << ",\n \"load\": {\"connections\": " << kConnections
         << ", \"deadline_ms\": " << kDeadlineMs
         << ", \"cold_outstanding\": " << kConnections * kColdOutstandingPerConn
         << ", \"adapt_outstanding\": "
         << kConnections * kAdaptOutstandingPerConn
         << ", \"hot_rate_qps\": " << kHotRateQps
         << ", \"hot_working_set\": " << kHotWorkingSet
         << ", \"hot_saturation_outstanding\": "
         << kConnections * kSaturationPerConn
         << ", \"adapt_rounds\": " << kAdaptRounds << "}"
         << ",\n \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail << (i ? ", " : "") << setup_s[i];
  }
  detail << "],\n \"summary\": " << SummaryJson(s);
  if (a.trace) detail << ",\n \"untraced_summary\": " << SummaryJson(untraced);
  detail << ",\n \"accuracy_check\": {\"trips\": " << acc.trips
         << ", \"served_mae\": " << acc.served_mae
         << ", \"offline_mae\": " << acc.offline_mae
         << ", \"margin\": " << acc.margin
         << ", \"ok\": " << (acc.ok ? "true" : "false") << ", \"error\": \""
         << obs::JsonEscape(acc.error) << "\"}"
         << ",\n \"rounds\": " << RoundsJson(rounds)
         << ",\n \"stream_wraps\": " << wraps << ", \"correct\": "
         << (correct ? "true" : "false");

  MetricList metrics;
  if (!a.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("capacity_qps", s.capacity_qps, "1/s");
    metrics.Add("p50_ms", s.p50_ms, "ms");
    metrics.Add("full_share",
                Ratio(static_cast<double>(s.full_in_deadline),
                      static_cast<double>(s.attempted)),
                "ratio");
    metrics.Add("ok_share",
                1.0 - Ratio(static_cast<double>(s.failed()),
                            static_cast<double>(s.attempted)),
                "ratio");
    metrics.Add("peak_rss_mb", peak_rss, "MB");
    metrics.Add("adapt_round_s", Median(round_s), "s");
    detail << ",\n \"metrics\": " << metrics.Json() << "}\n";
    WriteFile(a.out_dir + "/" + tag + ".json", detail.str());
  } else {
    std::string attribution;
    metrics = LayerMetrics(warm, c0, c1, m, warm_waves, waves,
                           probes.load_ms.Take(), events, rounds, s,
                           untraced, &attribution);
    detail << ",\n \"metrics\": " << metrics.Json() << "}\n";
    WriteFile(a.out_dir + "/" + tag + "-layers.json", detail.str());
    WriteFile(a.out_dir + "/" + tag + "-layers.md",
              "# " + tag + " per-layer metrics (traced run)\n\n" +
                  metrics.Table() + "\n## Attribution of p50_ms\n\n" +
                  attribution);
    WriteFile(a.out_dir + "/" + tag + "-trace.json", obs::ToChromeJson(events));
  }
  st.reset();
  std::filesystem::remove(model_path, ec);
  std::printf("%s\n", ResultLine(correct, s.attempted, s.failed(), metrics).c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--prepare") {
      a->prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (v == "cold") {
        a->workload = Workload::kCold;
      } else if (v == "hot") {
        a->workload = Workload::kHot;
      } else if (v == "adapt") {
        a->workload = Workload::kAdapt;
      } else {
        return false;
      }
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (arg == "--cache") {
      a->cache_dir = v;
    } else if (arg == "--out") {
      a->out_dir = v;
    } else if (arg == "--source") {
      a->source_id = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace dot::perfbench

int main(int argc, char** argv) {
  dot::perfbench::Args args;
  if (!dot::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_oracle [--prepare] --workload cold|hot|adapt "
                 "--seed N --seconds S --trace 0|1 [--cache DIR] [--out DIR] "
                 "[--source ID]\n");
    return 2;
  }
  return dot::perfbench::Run(args);
}
