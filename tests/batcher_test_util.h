// Fake clock and manual-pump batcher config shared by the batcher policy
// suite (serve_batcher_test) and the oracle-backed equivalence suite
// (serve_batching_test).

#ifndef DOT_TESTS_BATCHER_TEST_UTIL_H_
#define DOT_TESTS_BATCHER_TEST_UTIL_H_

#include <functional>

#include "serve/batcher.h"

namespace dot::serve {

/// Shared fake time source; tests advance it explicitly.
struct FakeClock {
  double ms = 0;
  std::function<double()> fn() {
    return [this] { return ms; };
  }
};

/// Manual-pump batcher on `clock`: waves of at most 4, a 10 ms age
/// trigger, 8 queue slots and a 50 ms staleness budget.
inline BatcherConfig ManualConfig(FakeClock* clock) {
  BatcherConfig config;
  config.max_batch = 4;
  config.max_wave_age_ms = 10.0;
  config.queue_capacity = 8;
  config.queue_budget_ms = 50.0;
  config.now_ms = clock->fn();
  config.manual_pump = true;
  return config;
}

}  // namespace dot::serve

#endif  // DOT_TESTS_BATCHER_TEST_UTIL_H_
