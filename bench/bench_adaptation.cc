// Incident-storm adaptation bench (DESIGN.md §5k): measures how stale the
// clear-day demo model goes inside a disruption window, runs one continual
// fine-tune round through the serving AdaptationManager, and verifies the
// fleet hot-swaps onto the adapted model under live query load.
//
//   1. Train (and seal) the clear-day demo oracle.
//   2. Schedule an incident storm over the day after the training data and
//      simulate ground-truth trips from the disrupted city, bucketed by
//      hours-into-the-incident (the staleness axis).
//   3. Score the sealed model per bucket (the "before" curve), run an
//      adaptation round — fine-tune on fresh incident trajectories with a
//      clear-day replay mix, re-seal, publish via ShardRouter::SwapAll —
//      while a load thread hammers the router, then score the re-sealed
//      model per bucket (the "after" curve).
//
// Output: a table on stdout and a JSON dump to DOT_BENCH_ADAPTATION_JSON
// (default BENCH_adaptation.json; run_benches.sh exports it). Exits
// non-zero when a gate fails:
//   - the adapted model recovers >= 50% of the incident-induced MAE
//     degradation (vs the clear-day test MAE as the noise floor),
//   - zero routing errors while the swap runs under load,
//   - every shard's model version bumps mid-load.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shard.h"
#include "eval/metrics.h"
#include "geo/trajectory.h"
#include "serve/adapt.h"
#include "serve/demo.h"
#include "serve/router.h"
#include "sim/incidents.h"
#include "util/logging.h"

namespace dot {
namespace {

constexpr double kRecoveryGate = 0.5;
constexpr int64_t kBucketHours = 3;

double HoldoutMae(DotOracle* oracle, const std::vector<TripSample>& samples) {
  std::vector<OdtInput> odts;
  for (const auto& s : samples) odts.push_back(s.odt);
  Result<std::vector<DotEstimate>> est = oracle->EstimateBatch(odts);
  DOT_CHECK(est.ok()) << est.status().ToString();
  MetricsAccumulator acc;
  for (size_t i = 0; i < samples.size(); ++i) {
    acc.Add((*est)[i].minutes, samples[i].travel_time_minutes);
  }
  return acc.Finalize().mae;
}

}  // namespace
}  // namespace dot

using namespace dot;

int main() {
  // 1) Clear-day world, sealed to the checkpoint the shard fleet and the
  // adaptation loop share.
  Result<serve::DemoWorld> world = serve::BuildDemoWorld("");
  DOT_CHECK(world.ok()) << world.status().ToString();
  std::string checkpoint =
      "/tmp/bench_adaptation_" + std::to_string(::getpid()) + ".ckpt";
  DOT_CHECK(world->oracle->SaveFile(checkpoint).ok());

  // 2) Incident storm over the day after the training data.
  TripConfig demo_trips = serve::DemoTripConfig();
  int64_t window_start =
      demo_trips.start_unix + demo_trips.num_days * 86400 + 7 * 3600;
  int64_t window_end = window_start + 12 * 3600;
  auto storm = std::make_shared<IncidentSchedule>(IncidentSchedule::Storm(
      *world->city, window_start, window_end, serve::kDemoCitySeed));

  serve::AdaptConfig adapt_config;
  // The bench wants a decisive adaptation, not the server's cheap default:
  // more fresh trajectories and fine-tune epochs per round.
  adapt_config.fresh_trips = 320;
  adapt_config.holdout_trips = 64;
  adapt_config.finetune.stage1_epochs = 2;
  adapt_config.finetune.stage2_epochs = 6;
  adapt_config.finetune.max_samples = 1024;
  serve::AdaptationManager adapt(world->city.get(), world->grid.get(),
                                 world->dataset->split.train, checkpoint,
                                 adapt_config);
  adapt.SetIncidents(storm, window_start, window_end);

  // 3) Ground-truth incident trips, independent of the manager's fine-tune
  // pool, bucketed by hours into the window (the staleness axis).
  const int64_t num_buckets = (window_end - window_start) / (kBucketHours * 3600);
  std::vector<std::vector<TripSample>> buckets(
      static_cast<size_t>(num_buckets));
  {
    TripConfig tc = serve::DemoTripConfig();
    tc.start_unix = window_start - SecondsOfDay(window_start);
    tc.num_days = 1;
    tc.num_trips = 600;
    TrajectoryFilter filter;
    filter.max_duration_seconds = 120 * 60;
    TripGenerator gen(world->city.get(), 4242);
    for (auto& s : ToSamples(gen.Generate(tc), filter)) {
      int64_t offset = s.odt.departure_time - window_start;
      if (offset < 0 || s.odt.departure_time >= window_end) continue;
      buckets[static_cast<size_t>(offset / (kBucketHours * 3600))].push_back(
          std::move(s));
    }
  }

  // "Before" curve: the sealed clear-day model inside the incident.
  DotOracle stale(serve::DemoDotConfig(), *world->grid);
  DOT_CHECK(stale.LoadFile(checkpoint).ok());
  double clear_mae_stale = HoldoutMae(&stale, world->dataset->split.test);
  std::vector<double> mae_stale;
  std::vector<TripSample> all_incident;
  for (const auto& b : buckets) {
    mae_stale.push_back(b.empty() ? 0 : HoldoutMae(&stale, b));
    all_incident.insert(all_incident.end(), b.begin(), b.end());
  }
  double incident_mae_stale = HoldoutMae(&stale, all_incident);

  // 4) Shard fleet on the sealed checkpoint + live load during the round.
  ModelFactory factory = [&]() -> Result<std::unique_ptr<DotOracle>> {
    auto oracle =
        std::make_unique<DotOracle>(serve::DemoDotConfig(), *world->grid);
    DOT_RETURN_NOT_OK(oracle->LoadFile(checkpoint));
    return oracle;
  };
  std::vector<std::unique_ptr<OracleShard>> shards;
  for (int s = 0; s < 2; ++s) {
    ShardConfig sc;
    sc.shard_id = std::to_string(s);
    Result<std::unique_ptr<OracleShard>> shard =
        OracleShard::Create(factory, std::move(sc));
    DOT_CHECK(shard.ok()) << shard.status().ToString();
    shards.push_back(std::move(*shard));
  }
  serve::ShardRouter router(std::move(shards));
  int64_t version_before = 0;
  for (const auto& st : router.Statuses()) {
    version_before = std::max(version_before, st.model_version);
  }

  std::vector<OdtInput> load_odts;
  for (size_t i = 0; i < all_incident.size() && i < 64; ++i) {
    load_odts.push_back(all_incident[i].odt);
  }
  std::atomic<bool> stop_load{false};
  std::atomic<long long> load_queries{0};
  std::atomic<long long> load_errors{0};
  std::thread load_thread([&] {
    QueryOptions opts;
    size_t at = 0;
    while (!stop_load.load(std::memory_order_relaxed)) {
      std::vector<OdtInput> wave;
      for (int i = 0; i < 4; ++i) {
        wave.push_back(load_odts[at++ % load_odts.size()]);
      }
      Result<std::vector<DotEstimate>> got = router.Route(wave, opts);
      if (!got.ok()) {
        load_errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        for (const auto& e : *got) {
          if (!std::isfinite(e.minutes)) {
            load_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      load_queries.fetch_add(static_cast<long long>(wave.size()),
                             std::memory_order_relaxed);
    }
  });

  // 5) The adaptation round publishes through the live fleet.
  Result<serve::AdaptRound> round =
      adapt.RunRound([&router] { return router.SwapAll(); });
  stop_load.store(true);
  load_thread.join();
  DOT_CHECK(round.ok()) << round.status().ToString();

  int64_t version_after = 0;
  for (const auto& st : router.Statuses()) {
    version_after = std::max(version_after, st.model_version);
  }

  // "After" curve: the re-sealed adapted model on the same buckets.
  DotOracle adapted(serve::DemoDotConfig(), *world->grid);
  DOT_CHECK(adapted.LoadFile(checkpoint).ok());
  double clear_mae_adapted = HoldoutMae(&adapted, world->dataset->split.test);
  std::vector<double> mae_adapted;
  for (const auto& b : buckets) {
    mae_adapted.push_back(b.empty() ? 0 : HoldoutMae(&adapted, b));
  }
  double incident_mae_adapted = HoldoutMae(&adapted, all_incident);

  double degradation = incident_mae_stale - clear_mae_stale;
  double recovered = incident_mae_stale - incident_mae_adapted;
  double recovered_fraction = degradation > 1e-9 ? recovered / degradation : 0;

  bool recovery_ok = recovered_fraction >= kRecoveryGate;
  bool zero_errors_ok = load_errors.load() == 0 && load_queries.load() > 0;
  bool version_ok = round->published && version_after > version_before;

  std::printf("Incident adaptation (window %lldh, %lld buckets)\n",
              static_cast<long long>((window_end - window_start) / 3600),
              static_cast<long long>(num_buckets));
  std::printf("  clear-day test MAE     %.3f -> %.3f min\n", clear_mae_stale,
              clear_mae_adapted);
  std::printf("  incident MAE           %.3f -> %.3f min (recovered %.0f%%)\n",
              incident_mae_stale, incident_mae_adapted,
              100 * recovered_fraction);
  for (size_t i = 0; i < buckets.size(); ++i) {
    std::printf("  staleness %2lldh-%2lldh (n=%3zu): %.3f -> %.3f min\n",
                static_cast<long long>(i * kBucketHours),
                static_cast<long long>((i + 1) * kBucketHours),
                buckets[i].size(), mae_stale[i], mae_adapted[i]);
  }
  std::printf("  swap under load: %lld queries, %lld errors, version %lld -> %lld\n",
              load_queries.load(), load_errors.load(),
              static_cast<long long>(version_before),
              static_cast<long long>(version_after));

  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"window_start\": %lld,\n  \"window_end\": %lld,\n"
                "  \"clear_mae_stale\": %.4f,\n  \"clear_mae_adapted\": %.4f,\n"
                "  \"incident_mae_stale\": %.4f,\n"
                "  \"incident_mae_adapted\": %.4f,\n"
                "  \"recovered_fraction\": %.4f,\n",
                static_cast<long long>(window_start),
                static_cast<long long>(window_end), clear_mae_stale,
                clear_mae_adapted, incident_mae_stale, incident_mae_adapted,
                recovered_fraction);
  json += buf;
  json += "  \"staleness_curve\": [\n";
  for (size_t i = 0; i < buckets.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"hours_into_incident\": %lld, \"bucket_hours\": %lld, "
                  "\"n\": %zu, \"mae_stale\": %.4f, \"mae_adapted\": %.4f}%s\n",
                  static_cast<long long>(i * kBucketHours),
                  static_cast<long long>(kBucketHours), buckets[i].size(),
                  mae_stale[i], mae_adapted[i],
                  i + 1 < buckets.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"round\": " + round->ToJson() + ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"swap_under_load\": {\"queries\": %lld, \"errors\": %lld, "
                "\"version_before\": %lld, \"version_after\": %lld},\n"
                "  \"gates\": {\"recovery_gate\": %.2f, \"recovery_ok\": %s, "
                "\"zero_errors_ok\": %s, \"version_bump_ok\": %s}\n}\n",
                load_queries.load(), load_errors.load(),
                static_cast<long long>(version_before),
                static_cast<long long>(version_after), kRecoveryGate,
                recovery_ok ? "true" : "false",
                zero_errors_ok ? "true" : "false",
                version_ok ? "true" : "false");
  json += buf;

  const char* path = std::getenv("DOT_BENCH_ADAPTATION_JSON");
  std::string out_path = (path && path[0]) ? path : "BENCH_adaptation.json";
  std::ofstream out(out_path);
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  ::unlink(checkpoint.c_str());

  if (!recovery_ok) {
    std::fprintf(stderr, "FAIL: recovered %.3f of incident degradation, gate %.2f\n",
                 recovered_fraction, kRecoveryGate);
    return 1;
  }
  if (!zero_errors_ok) {
    std::fprintf(stderr, "FAIL: %lld routing errors during swap under load\n",
                 load_errors.load());
    return 1;
  }
  if (!version_ok) {
    std::fprintf(stderr, "FAIL: model version did not bump (published=%d, %lld -> %lld)\n",
                 round->published ? 1 : 0,
                 static_cast<long long>(version_before),
                 static_cast<long long>(version_after));
    return 1;
  }
  return 0;
}
