#include "world.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "tensor/gemm_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace dot::perfbench {

namespace {

// Quick-scale Chengdu-like dataset of the paper benches (bench/common.cc):
// 13x13 intersections at the paper's city extent, 1250 trips.
constexpr int64_t kCityNodes = 13;
constexpr uint64_t kCitySeed = 101;
constexpr uint64_t kTrainTripSeed = 111;
constexpr int64_t kTrainTrips = 1250;

// Training budget of the one-time preparation: the quick scale's epochs.
constexpr int64_t kStage1Epochs = 6;
constexpr int64_t kStage2Epochs = 8;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

bool CpuHasFlag(const std::string& flag) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string w;
    while (words >> w) {
      if (w == flag) return true;
    }
    return false;
  }
  return false;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

}  // namespace

DotConfig OracleConfig() {
  DotConfig cfg;
  cfg.grid_size = 16;
  cfg.diffusion_steps = 200;
  cfg.sample_steps = 12;
  cfg.unet.base_channels = 12;
  cfg.unet.levels = 2;
  cfg.unet.cond_dim = 64;
  cfg.estimator.embed_dim = 64;
  cfg.estimator.layers = 2;
  cfg.batch_size = 16;
  cfg.val_samples = 48;
  cfg.stage1_epochs = kStage1Epochs;
  cfg.stage2_epochs = kStage2Epochs;
  return cfg;
}

std::string ConfigSummary(const DotConfig& c) {
  std::ostringstream os;
  os << "grid=" << c.grid_size << " diffusion_steps=" << c.diffusion_steps
     << " sample_steps=" << c.sample_steps
     << " unet.base_channels=" << c.unet.base_channels
     << " unet.levels=" << c.unet.levels << " unet.cond_dim=" << c.unet.cond_dim
     << " estimator.embed_dim=" << c.estimator.embed_dim
     << " estimator.layers=" << c.estimator.layers
     << " stage1_epochs=" << c.stage1_epochs
     << " stage2_epochs=" << c.stage2_epochs << " seed=" << c.seed;
  return os.str();
}

World BuildWorld() {
  World w;
  CityConfig cc = CityConfig::ChengduLike();
  cc.spacing_meters = cc.spacing_meters * static_cast<double>(cc.grid_nodes) /
                      static_cast<double>(kCityNodes);
  cc.grid_nodes = kCityNodes;
  w.city = std::make_unique<City>(cc, kCitySeed);
  Result<Grid> grid = Grid::Make(w.city->network().Bounds().Inflated(0.03),
                                 OracleConfig().grid_size);
  DOT_CHECK(grid.ok()) << grid.status().ToString();
  w.grid = std::make_unique<Grid>(std::move(*grid));
  return w;
}

DatasetSplit TrainingData(const City& city) {
  TripConfig tc = TripConfig::ChengduLike();
  tc.num_trips = kTrainTrips;
  return BuildDataset(city, tc, kTrainTripSeed, "Chengdu").split;
}

std::vector<TripSample> SimulateTrips(const City& city, uint64_t seed,
                                      int64_t n) {
  TripConfig tc = TripConfig::ChengduLike();
  tc.num_trips = n;
  TripGenerator gen(&city, seed);
  return ToSamples(gen.Generate(tc), TrajectoryFilter());
}

Result<std::string> PrepareCheckpoint(const World& world,
                                      const std::string& cache_dir) {
  DotConfig cfg = OracleConfig();
  std::string key = ConfigSummary(cfg) + "|city=" + std::to_string(kCityNodes) +
                    "/" + std::to_string(kCitySeed) +
                    "|trips=" + std::to_string(kTrainTrips) + "/" +
                    std::to_string(kTrainTripSeed);
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  std::string path =
      cache_dir + "/oracle_" + std::to_string(Fnv1a(key)) + ".ckpt";
  if (std::filesystem::exists(path)) {
    // A readable sealed checkpoint is reused; anything else is retrained.
    if (LoadOracle(*world.grid, path).ok()) return path;
    std::filesystem::remove(path, ec);
  }
  DatasetSplit split = TrainingData(*world.city);
  DotOracle oracle(cfg, *world.grid);
  Stopwatch sw;
  DOT_RETURN_NOT_OK(oracle.TrainStage1(split.train));
  DOT_RETURN_NOT_OK(oracle.TrainStage2(split.train, split.val));
  std::fprintf(stderr, "perfbench: trained the oracle in %.1f s\n",
               sw.ElapsedSeconds());
  DOT_RETURN_NOT_OK(oracle.SaveFile(path));
  return path;
}

Result<std::unique_ptr<DotOracle>> LoadOracle(const Grid& grid,
                                              const std::string& path) {
  auto oracle = std::make_unique<DotOracle>(OracleConfig(), grid);
  DOT_RETURN_NOT_OK(oracle->LoadFile(path));
  return oracle;
}

std::string FingerprintJson(uint64_t seed, int64_t shards,
                            const std::string& source_id) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << obs::JsonEscape(CpuModel()) << "\""
     << ", \"avx2\": " << (CpuHasFlag("avx2") ? "true" : "false")
     << ", \"avx512f\": " << (CpuHasFlag("avx512f") ? "true" : "false")
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << ThreadPool::Global()->num_threads()
     << ", \"DOT_NUM_THREADS\": \"" << obs::JsonEscape(EnvOr("DOT_NUM_THREADS", ""))
     << "\", \"DOT_GEMM_KERNEL\": \""
     << obs::JsonEscape(EnvOr("DOT_GEMM_KERNEL", ""))
     << "\", \"DOT_GEMM_PRECISION\": \""
     << obs::JsonEscape(EnvOr("DOT_GEMM_PRECISION", ""))
     << "\", \"gemm_kernel\": \"" << gemm::KernelName(gemm::ActiveKernel())
     << "\", \"gemm_precision\": \""
     << gemm::PrecisionName(gemm::ActivePrecision()) << "\""
     << ", \"shards\": " << shards << ", \"model\": \""
     << ConfigSummary(OracleConfig()) << "\", \"source\": \""
     << obs::JsonEscape(source_id) << "\", \"seed\": " << seed << "}";
  return os.str();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace dot::perfbench
