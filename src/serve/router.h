// Shard router (DESIGN.md §5i): sits between the DynamicBatcher and the
// worker shards. Each wave the batcher forms is split by OD-pair key
// (ShardIndex) and served on the caller's thread by
// OracleShard::ServeWaves: every shard gates its own share, the shares on
// one model share one stage-1 and one stage-2 pass while each shard keeps
// its own cache, and the answers are merged back in input order — the
// batcher cannot tell it is talking to N shards instead of one service,
// and the shard count does not change the answers.
//
// The partition key hashes the *quantized OD pair* (origin + destination
// at ~100 m resolution) and deliberately excludes the departure time: all
// time-of-day buckets of one OD pair land on the same shard, so that
// shard's LRU cache and neighbor-bucket ladder see every query that could
// share a PiT. The shard count is fixed for the router's lifetime and
// every shard cache lives in memory, so a plain `key % N` is all the
// partition needs.

#ifndef DOT_SERVE_ROUTER_H_
#define DOT_SERVE_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/shard.h"
#include "serve/batcher.h"

namespace dot {
namespace serve {

/// Shard partition key of a query: a mix of the origin and destination
/// quantized to ~100 m. Departure time is excluded so every time-of-day
/// slot of one OD pair shares a shard (cache affinity).
uint64_t OdKey(const OdtInput& odt);

/// Index of the shard that serves `odt` among `num_shards` (> 0):
/// OdKey(odt) % num_shards.
size_t ShardIndex(const OdtInput& odt, size_t num_shards);

/// \brief Routes batcher waves across a fleet of owned worker shards.
class ShardRouter {
 public:
  /// Takes ownership of the shards. At least one is required; ids must be
  /// unique (they label the shards' metrics and failpoints).
  explicit ShardRouter(std::vector<std::unique_ptr<OracleShard>> shards);

  /// Splits the wave by shard, serves it through OracleShard::ServeWaves,
  /// merges the answers in input order. Per-request semantics match
  /// OracleService::QueryBatch: exactly one answer per input (an invalid
  /// input's carries its error in DotEstimate::status), stage timings
  /// summed over the shared passes.
  Result<std::vector<DotEstimate>> Route(const std::vector<OdtInput>& odts,
                                         const QueryOptions& opts);

  /// Hot-swaps every shard (serially — one shadow model trains/loads at a
  /// time, bounding the swap's memory overhead). Continues past per-shard
  /// failures and returns the first error, if any. One shard swaps alone
  /// through shard(i)->HotSwap().
  Status SwapAll();

  std::vector<ShardStatus> Statuses() const;
  /// JSON document for /shardz: {"shards": [...]}.
  std::string ShardzJson() const;

  size_t shard_count() const { return shards_.size(); }
  OracleShard* shard(size_t i) { return shards_[i].get(); }
  /// Shard that would serve `odt` (testing / diagnostics).
  OracleShard* ShardForQuery(const OdtInput& odt);

 private:
  std::vector<std::unique_ptr<OracleShard>> shards_;
};

/// Adapts a ShardRouter into the batcher's BatchBackend (the production
/// wiring: dot_server serves through a router even at one shard).
BatchBackend RouterBackend(ShardRouter* router);

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_ROUTER_H_
