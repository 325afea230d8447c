#include "serve/adapt.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "eval/metrics.h"
#include "geo/trajectory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dot {
namespace serve {

namespace {

// Base seed of the per-round trip simulation (the round index is mixed in
// so successive rounds see fresh trajectories).
constexpr uint64_t kTripSeed = 99;

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

std::string AdaptRound::ToJson() const {
  std::string json = "{";
  json += "\"round\": " + std::to_string(round);
  json += ", \"fresh_samples\": " + std::to_string(fresh_samples);
  json += ", \"holdout_samples\": " + std::to_string(holdout_samples);
  json += ", \"mae_before\": " + Num(mae_before);
  json += ", \"mae_after\": " + Num(mae_after);
  json += std::string(", \"improved\": ") + (improved ? "true" : "false");
  json += std::string(", \"published\": ") + (published ? "true" : "false");
  json += ", \"error\": \"" + obs::JsonEscape(error) + "\"";
  json += "}";
  return json;
}

AdaptationManager::AdaptationManager(City* city, const Grid* grid,
                                     std::vector<TripSample> replay,
                                     std::string checkpoint,
                                     AdaptConfig config)
    : city_(city),
      grid_(grid),
      replay_(std::move(replay)),
      checkpoint_(std::move(checkpoint)),
      config_(config) {}

void AdaptationManager::SetIncidents(
    std::shared_ptr<const IncidentSchedule> schedule, int64_t window_start,
    int64_t window_end) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_ = std::move(schedule);
  window_start_ = window_start;
  window_end_ = window_end;
  city_->SetIncidents(schedule_);
}

Result<AdaptRound> AdaptationManager::RunRound(
    const std::function<Status()>& publish) {
  std::lock_guard<std::mutex> lock(mu_);
  if (schedule_ == nullptr || schedule_->empty()) {
    return Status::FailedPrecondition(
        "no incident schedule installed; call SetIncidents first");
  }
  AdaptRound round;
  round.round = static_cast<int64_t>(history_.size()) + 1;
  obs::TraceSpan span("AdaptationManager::RunRound");

  // 1) Simulate fresh trajectories from the disrupted city, confined to
  // the incident window. Trip generation covers the window's days; kept
  // samples must depart inside [window_start, window_end). The filter's
  // duration ceiling is doubled: a closure legitimately produces trips a
  // clear-day filter would reject as too slow.
  TripConfig tc = DemoTripConfig();
  int64_t day0 = window_start_ - SecondsOfDay(window_start_);
  tc.start_unix = day0;
  tc.num_days =
      std::max<int64_t>(1, (window_end_ - day0 + 86399) / 86400);
  TrajectoryFilter filter;
  filter.max_duration_seconds = 120 * 60;
  std::vector<TripSample> window_samples;
  int64_t want = config_.fresh_trips + config_.holdout_trips;
  for (int chunk = 0;
       chunk < 5 && static_cast<int64_t>(window_samples.size()) < want;
       ++chunk) {
    tc.num_trips = want;
    TripGenerator gen(city_, kTripSeed +
                                 static_cast<uint64_t>(round.round) * 131 +
                                 static_cast<uint64_t>(chunk) * 7919);
    std::vector<TripSample> samples = ToSamples(gen.Generate(tc), filter);
    for (auto& s : samples) {
      if (s.odt.departure_time < window_start_ ||
          s.odt.departure_time >= window_end_) {
        continue;
      }
      window_samples.push_back(std::move(s));
      if (static_cast<int64_t>(window_samples.size()) >= want) break;
    }
  }
  if (static_cast<int64_t>(window_samples.size()) <
      std::max<int64_t>(8, config_.holdout_trips)) {
    return Status::Internal("incident window produced too few trips (" +
                            std::to_string(window_samples.size()) +
                            "); widen the window");
  }
  int64_t n_holdout = std::min<int64_t>(
      config_.holdout_trips, static_cast<int64_t>(window_samples.size()) / 2);
  std::vector<TripSample> holdout(window_samples.begin(),
                                  window_samples.begin() + n_holdout);
  std::vector<TripSample> fresh(window_samples.begin() + n_holdout,
                                window_samples.end());
  round.fresh_samples = static_cast<int64_t>(fresh.size());
  round.holdout_samples = static_cast<int64_t>(holdout.size());

  // 2) Load the sealed (stale) model into a shadow oracle.
  DotOracle shadow(DemoDotConfig(), *grid_);
  DOT_RETURN_NOT_OK(shadow.LoadFile(checkpoint_));

  std::vector<OdtInput> holdout_odts;
  std::vector<double> holdout_truth;
  for (const auto& s : holdout) {
    holdout_odts.push_back(s.odt);
    holdout_truth.push_back(s.travel_time_minutes);
  }
  auto holdout_mae = [&]() -> Result<double> {
    DOT_ASSIGN_OR_RETURN(std::vector<DotEstimate> est,
                         shadow.EstimateBatch(holdout_odts));
    MetricsAccumulator acc;
    for (size_t i = 0; i < est.size(); ++i) {
      acc.Add(est[i].minutes, holdout_truth[i]);
    }
    return acc.Finalize().mae;
  };

  // 3) Staleness gap before, fine-tune, gap after.
  DOT_ASSIGN_OR_RETURN(round.mae_before, holdout_mae());
  Status tuned = shadow.FineTune(fresh, replay_, config_.finetune);
  if (!tuned.ok()) {
    round.error = tuned.ToString();
    history_.push_back(round);
    return round;
  }
  DOT_ASSIGN_OR_RETURN(round.mae_after, holdout_mae());
  round.improved = round.mae_after < round.mae_before;

  // 4) Publish only improvements: re-seal the checkpoint (atomic
  // tmp+rename inside SaveFile) and hot-swap the fleet onto it. A
  // regressed fine-tune leaves the sealed model untouched.
  if (round.improved) {
    Status sealed = shadow.SaveFile(checkpoint_);
    if (!sealed.ok()) {
      round.error = sealed.ToString();
      history_.push_back(round);
      return round;
    }
    if (publish) {
      Status swapped = publish();
      if (swapped.ok()) {
        round.published = true;
      } else {
        round.error = swapped.ToString();
      }
    }
  }
  DOT_LOG_INFO << "adaptation round " << round.round << ": holdout MAE "
               << round.mae_before << " -> " << round.mae_after
               << (round.published ? " (published)" : " (not published)");
  history_.push_back(round);
  return round;
}

std::string AdaptationManager::StatusJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json = "{";
  json += "\"rounds\": " + std::to_string(history_.size());
  json += ", \"window_start\": " + std::to_string(window_start_);
  json += ", \"window_end\": " + std::to_string(window_end_);
  json += ", \"incidents\": " +
          std::to_string(schedule_ ? schedule_->incidents().size() : 0);
  json += ", \"history\": [";
  for (size_t i = 0; i < history_.size(); ++i) {
    if (i > 0) json += ", ";
    json += history_[i].ToJson();
  }
  json += "]}";
  return json;
}

int64_t AdaptationManager::rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(history_.size());
}

}  // namespace serve
}  // namespace dot
