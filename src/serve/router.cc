#include "serve/router.h"

#include <cmath>
#include <set>
#include <utility>

#include "util/logging.h"

namespace dot {
namespace serve {
namespace {

/// splitmix64 finalizer: cheap, well-mixed 64-bit avalanche.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t OdKey(const OdtInput& odt) {
  // ~100 m quantization: 1e-3 degrees of latitude is ~111 m. Queries whose
  // endpoints jitter within a cell keep their shard; departure time is
  // deliberately excluded (see the header).
  auto q = [](double deg) {
    return static_cast<uint64_t>(
        static_cast<int64_t>(std::llround(deg * 1000.0)));
  };
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  h = SplitMix64(h ^ q(odt.origin.lat));
  h = SplitMix64(h ^ q(odt.origin.lng));
  h = SplitMix64(h ^ q(odt.destination.lat));
  h = SplitMix64(h ^ q(odt.destination.lng));
  return h;
}

size_t ShardIndex(const OdtInput& odt, size_t num_shards) {
  return static_cast<size_t>(OdKey(odt) % num_shards);
}

ShardRouter::ShardRouter(std::vector<std::unique_ptr<OracleShard>> shards)
    : shards_(std::move(shards)) {
  DOT_CHECK(!shards_.empty()) << "router needs at least one shard";
  std::set<std::string> ids;
  for (const auto& shard : shards_) {
    DOT_CHECK(ids.insert(shard->id()).second)
        << "duplicate shard id " << shard->id();
  }
}

OracleShard* ShardRouter::ShardForQuery(const OdtInput& odt) {
  return shards_[ShardIndex(odt, shards_.size())].get();
}

Result<std::vector<DotEstimate>> ShardRouter::Route(
    const std::vector<OdtInput>& odts, const QueryOptions& opts) {
  if (odts.empty()) return std::vector<DotEstimate>{};

  // Split the wave by owning shard, in shard-index order (the order
  // ServeWaves takes the shards' wave locks in), keeping each member's
  // wave position for the shared passes and the merge.
  std::vector<ShardWave> waves(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) waves[s].shard = shards_[s].get();
  for (size_t i = 0; i < odts.size(); ++i) {
    ServiceWave& w = waves[ShardIndex(odts[i], shards_.size())].wave;
    w.odts.push_back(odts[i]);
    w.positions.push_back(i);
  }
  std::erase_if(waves, [](const ShardWave& w) { return w.wave.odts.empty(); });

  // A whole-wave error (an untrained model) fails every share; the
  // batcher answers every member with it. An invalid query's own error
  // rides in its estimate.
  DOT_RETURN_NOT_OK(OracleShard::ServeWaves(&waves, opts));
  std::vector<DotEstimate> out(odts.size());
  for (ShardWave& w : waves) {
    for (size_t k = 0; k < w.wave.positions.size(); ++k) {
      out[w.wave.positions[k]] = std::move(w.wave.estimates[k]);
    }
  }
  return out;
}

Status ShardRouter::SwapAll() {
  Status first_error = Status::OK();
  for (auto& shard : shards_) {
    Status s = shard->HotSwap();
    if (!s.ok()) {
      DOT_LOG_WARN << "shard " << shard->id()
                   << " swap failed: " << s.ToString();
      if (first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

std::vector<ShardStatus> ShardRouter::Statuses() const {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->status());
  return out;
}

std::string ShardRouter::ShardzJson() const {
  std::string out = "{\"shards\": [";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) out += ", ";
    out += shards_[i]->StatusJson();
  }
  out += "]}";
  return out;
}

BatchBackend RouterBackend(ShardRouter* router) {
  return [router](const std::vector<OdtInput>& odts,
                  const QueryOptions& opts) {
    return router->Route(odts, opts);
  };
}

}  // namespace serve
}  // namespace dot
