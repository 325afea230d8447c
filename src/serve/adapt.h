// Online continual adaptation (DESIGN.md §5k): when an incident schedule
// disrupts the city, the serving model — trained on clear-day trajectories
// — goes stale inside the incident window. The AdaptationManager closes
// the loop: it simulates fresh trajectories from the disrupted city,
// fine-tunes a copy of the sealed model on a fresh+replay mix at low LR,
// measures held-out incident-window MAE before and after, re-seals the
// checkpoint only on improvement, and publishes through the shard fleet's
// zero-downtime hot swap (ShardRouter::SwapAll).
//
// Exposed on the admin plane as /adaptz: GET returns the round history as
// JSON, POST runs one adaptation round synchronously. AdaptConfig sizes a
// round; dot_server serves its defaults.

#ifndef DOT_SERVE_ADAPT_H_
#define DOT_SERVE_ADAPT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dot_oracle.h"
#include "serve/demo.h"
#include "sim/incidents.h"

namespace dot {
namespace serve {

struct AdaptConfig {
  FineTuneConfig finetune;
  /// Incident-window trajectories simulated per round (fine-tune pool).
  int64_t fresh_trips = 200;
  /// Additional held-out incident trips scoring the before/after MAE.
  int64_t holdout_trips = 60;
};

/// \brief Outcome of one adaptation round (one JSON object in /adaptz).
struct AdaptRound {
  int64_t round = 0;
  int64_t fresh_samples = 0;   ///< fine-tune pool size after filtering
  int64_t holdout_samples = 0;
  double mae_before = 0;       ///< stale model, incident-window holdout
  double mae_after = 0;        ///< fine-tuned model, same holdout
  bool improved = false;
  bool published = false;      ///< resealed + hot-swapped into the fleet
  std::string error;           ///< non-empty when the round failed

  std::string ToJson() const;
};

/// \brief Drives continual fine-tune rounds against a demo-world serving
/// process. Thread-safe; RunRound serializes behind a mutex (one shadow
/// fine-tune at a time bounds memory, mirroring SwapAll's serial swaps).
class AdaptationManager {
 public:
  /// `city` is mutated: the incident schedule installs into it so the
  /// round's trip simulation sees the disruption. `replay` is the clear-day
  /// training pool sampled into every fine-tune mix; `checkpoint` is the
  /// sealed model file shared with the shard factories.
  AdaptationManager(City* city, const Grid* grid,
                    std::vector<TripSample> replay, std::string checkpoint,
                    AdaptConfig config);

  /// Installs the disruption the next rounds adapt to. `window_start` /
  /// `window_end` bound the half-open departure window fresh trips are
  /// drawn from (normally the schedule's own envelope).
  void SetIncidents(std::shared_ptr<const IncidentSchedule> schedule,
                    int64_t window_start, int64_t window_end);

  /// One continual-learning round. `publish` pushes the re-sealed
  /// checkpoint into serving (ShardRouter::SwapAll in production; may be
  /// null for offline use). Returns the round record; a Status error means
  /// the round could not run at all (no incidents installed, load failure).
  Result<AdaptRound> RunRound(const std::function<Status()>& publish);

  /// JSON document for GET /adaptz.
  std::string StatusJson() const;

  int64_t rounds() const;

 private:
  City* city_;
  const Grid* grid_;
  std::vector<TripSample> replay_;
  std::string checkpoint_;
  AdaptConfig config_;

  mutable std::mutex mu_;
  std::shared_ptr<const IncidentSchedule> schedule_;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  std::vector<AdaptRound> history_;
};

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_ADAPT_H_
