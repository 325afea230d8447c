// Router partition-key properties (DESIGN.md §5i). Pure-function tests —
// no model, no sockets: a deterministic, balanced OD-pair partition keeps
// per-shard caches effective (every shard gets its share of the load, and
// all ToD buckets of one OD pair share a shard). Dispatch behavior over
// live shards is covered by chaos_test.cc.

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "serve/router.h"

namespace dot {
namespace serve {
namespace {

/// Deterministic synthetic OD pairs spread over a city-sized box.
std::vector<OdtInput> SyntheticDemand(int n) {
  std::vector<OdtInput> out;
  out.reserve(n);
  uint64_t state = 12345;
  auto next = [&state]() {
    // splitmix64: cheap deterministic stream, independent of libc rand.
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < n; ++i) {
    OdtInput odt;
    odt.origin.lat = 30.0 + (next() % 20000) * 1e-5;     // ~22 km span
    odt.origin.lng = 104.0 + (next() % 20000) * 1e-5;
    odt.destination.lat = 30.0 + (next() % 20000) * 1e-5;
    odt.destination.lng = 104.0 + (next() % 20000) * 1e-5;
    odt.departure_time = static_cast<int64_t>(next() % 86400);
    out.push_back(odt);
  }
  return out;
}

TEST(OdKeyTest, DepartureTimeDoesNotChangeTheKey) {
  // Every time-of-day slot of one OD pair must land on the same shard, or
  // the neighbor-bucket ladder and LRU affinity fall apart.
  for (const OdtInput& odt : SyntheticDemand(100)) {
    uint64_t base = OdKey(odt);
    OdtInput shifted = odt;
    shifted.departure_time += 3600;
    EXPECT_EQ(OdKey(shifted), base);
    shifted.departure_time = 0;
    EXPECT_EQ(OdKey(shifted), base);
  }
}

TEST(OdKeyTest, DistinctPairsGetDistinctKeys) {
  std::vector<OdtInput> demand = SyntheticDemand(1000);
  std::map<uint64_t, int> seen;
  for (const OdtInput& odt : demand) ++seen[OdKey(odt)];
  // 64-bit keys over 1k random pairs: collisions mean a broken mix.
  EXPECT_EQ(seen.size(), demand.size());
}

TEST(OdKeyTest, SubQuantizationJitterSharesAKey) {
  // ~100 m quantization: GPS noise on the same physical OD pair must not
  // scatter it across shards.
  OdtInput odt;
  odt.origin = {104.06, 30.66};
  odt.destination = {104.10, 30.70};
  OdtInput jittered = odt;
  jittered.origin.lat += 2e-4;  // ~20 m, inside one quantization cell
  EXPECT_EQ(OdKey(odt), OdKey(jittered));
}

TEST(ShardIndexTest, IsDeterministicAndReachesEveryIndex) {
  std::vector<OdtInput> demand = SyntheticDemand(1000);
  for (size_t n = 1; n <= 8; ++n) {
    std::vector<int> hits(n, 0);
    for (const OdtInput& odt : demand) {
      size_t s = ShardIndex(odt, n);
      ASSERT_LT(s, n);
      EXPECT_EQ(ShardIndex(odt, n), s);  // stable on repeat lookup
      ++hits[s];
    }
    for (size_t s = 0; s < n; ++s) {
      EXPECT_GT(hits[s], 0) << "shard " << s << " of " << n << " gets nothing";
    }
  }
}

TEST(ShardIndexTest, BalanceWithinFifteenPercentAcrossShards) {
  const size_t kShards = 4;
  std::vector<OdtInput> demand = SyntheticDemand(1000);
  std::vector<int> hits(kShards, 0);
  for (const OdtInput& odt : demand) ++hits[ShardIndex(odt, kShards)];
  double expected = static_cast<double>(demand.size()) / kShards;
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_NEAR(hits[s], expected, 0.15 * expected)
        << "shard " << s << " owns " << hits[s] << " of " << demand.size();
  }
}

}  // namespace
}  // namespace serve
}  // namespace dot
