// The benchmark's world: the bench-scale oracle architecture, the
// Chengdu-like city it serves, the sealed checkpoint it is trained into
// once, simulated query trips with known travel times, and the run
// fingerprint recorded with every result.

#ifndef DOT_PERFBENCH_WORLD_H_
#define DOT_PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dot_oracle.h"
#include "eval/dataset.h"
#include "geo/grid.h"
#include "sim/city.h"

namespace dot::perfbench {

/// The oracle architecture: bench::ScaledDotConfig at quick scale (16x16
/// grid, 12 base channels, 2 UNet levels, 12 DDIM steps, d_E 64, 2 MViT
/// layers), pinned here so the benchmark measures the same model on every
/// commit, trained with the quick scale's epochs (a one-time preparation).
DotConfig OracleConfig();

/// One-line description of the architecture for the fingerprint.
std::string ConfigSummary(const DotConfig& c);

/// \brief The Chengdu-like city and the grid the oracle serves.
struct World {
  std::unique_ptr<City> city;
  std::unique_ptr<Grid> grid;
};

/// Builds the quick-scale Chengdu-like city (13x13 intersections) and its
/// grid. Deterministic: the city does not depend on the workload seed.
World BuildWorld();

/// The training dataset of the sealed checkpoint (also the replay set of
/// the continual-learning rounds).
DatasetSplit TrainingData(const City& city);

/// Simulates `n` trips (before filtering) with TripGenerator(`seed`) over
/// the training days and returns the filtered samples: each carries its
/// OD x departure-time query and its simulated travel time.
std::vector<TripSample> SimulateTrips(const City& city, uint64_t seed,
                                      int64_t n);

/// Returns the path of the sealed checkpoint under `cache_dir`, training
/// and sealing it first when it is missing. The file name is keyed on the
/// architecture, the training data and the training seed.
Result<std::string> PrepareCheckpoint(const World& world,
                                      const std::string& cache_dir);

/// Loads a sealed checkpoint into a fresh oracle of OracleConfig().
Result<std::unique_ptr<DotOracle>> LoadOracle(const Grid& grid,
                                              const std::string& path);

/// JSON object describing the host and configuration of a run.
std::string FingerprintJson(uint64_t seed, int64_t shards,
                            const std::string& source_id);

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

}  // namespace dot::perfbench

#endif  // DOT_PERFBENCH_WORLD_H_
