// Shard router (DESIGN.md §5i): sits between the DynamicBatcher and the
// worker shards. Each wave the batcher forms is split by OD-pair hash on a
// consistent-hash ring and served on the caller's thread by
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
// share a PiT. The consistent-hash ring (virtual nodes) keeps the
// assignment stable under shard count changes — adding or removing one of
// N shards moves ~1/N of the keys, so warm caches survive a resize.

#ifndef DOT_SERVE_ROUTER_H_
#define DOT_SERVE_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/shard.h"
#include "serve/batcher.h"

namespace dot {
namespace serve {

/// Shard partition key of a query: a mix of the origin and destination
/// quantized to ~100 m. Departure time is excluded so every time-of-day
/// slot of one OD pair shares a shard (cache affinity).
uint64_t OdKey(const OdtInput& odt);

/// \brief Consistent-hash ring with virtual nodes.
///
/// Each shard id is hashed to `vnodes_per_shard` points on a uint64 ring;
/// a key belongs to the shard owning the first point at or clockwise of
/// the key. Lookup is O(log vnodes); add/remove of one shard out of N
/// moves ~1/N of the key space.
class HashRing {
 public:
  explicit HashRing(int64_t vnodes_per_shard = 256);

  void AddShard(const std::string& id);
  void RemoveShard(const std::string& id);
  /// Owning shard of `key`. Must not be called on an empty ring.
  const std::string& ShardFor(uint64_t key) const;

  size_t num_shards() const { return num_shards_; }
  bool empty() const { return ring_.empty(); }

 private:
  int64_t vnodes_;
  size_t num_shards_ = 0;
  std::map<uint64_t, std::string> ring_;  // point -> shard id
};

/// \brief Routes batcher waves across a fleet of owned worker shards.
class ShardRouter {
 public:
  /// Takes ownership of the shards. At least one is required; ids must be
  /// unique (they are the ring keys).
  explicit ShardRouter(std::vector<std::unique_ptr<OracleShard>> shards,
                       int64_t vnodes_per_shard = 256);

  /// Splits the wave by shard, serves it through OracleShard::ServeWaves,
  /// merges the answers in input order. Per-request semantics match
  /// OracleService::QueryBatch: exactly one answer per input (an invalid
  /// input's carries its error in DotEstimate::status), stage timings
  /// summed over the shared passes, stage1_failed OR-ed.
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
  std::unordered_map<std::string, size_t> index_by_id_;
  HashRing ring_;
};

/// Adapts a ShardRouter into the batcher's BatchBackend (the sharded
/// production wiring, replacing OracleBackend's single service).
BatchBackend RouterBackend(ShardRouter* router);

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_ROUTER_H_
