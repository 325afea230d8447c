// DynamicBatcher policy tests: wave triggers, deadline propagation,
// admission control and drain under an injectable fake clock (manual_pump
// mode: no background thread, PumpOnce drives wave formation
// deterministically), plus real-thread checks of the wall-clock triggers.
// The backend is a stub, so the suite trains no model.

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "batcher_test_util.h"
#include "serve/batcher.h"

namespace dot {
namespace serve {
namespace {

OdtInput MakeOdt(int i) {
  OdtInput odt;
  odt.origin = {104.0 + i * 1e-3, 30.6};
  odt.destination = {104.05, 30.65 + i * 1e-3};
  odt.departure_time = 1541060400 + i * 60;
  return odt;
}

/// Backend stub: answers minutes = 100 * index-in-wave + wave_number and
/// records every wave it saw.
struct StubBackend {
  std::vector<std::vector<OdtInput>> waves;
  std::vector<double> deadlines;  // QueryOptions.deadline_ms per wave
  Status fail_with;               // non-OK: every wave fails
  FakeClock* clock = nullptr;     // when set, every wave costs cost_ms on it
  double cost_ms = 0;

  BatchBackend fn() {
    return [this](const std::vector<OdtInput>& odts,
                  const QueryOptions& opts) -> Result<std::vector<DotEstimate>> {
      waves.push_back(odts);
      deadlines.push_back(opts.deadline_ms);
      if (clock != nullptr) clock->ms += cost_ms;
      if (!fail_with.ok()) return fail_with;
      std::vector<DotEstimate> out(odts.size());
      for (size_t i = 0; i < odts.size(); ++i) {
        out[i].minutes = 100.0 * static_cast<double>(i) +
                         static_cast<double>(waves.size());
      }
      return out;
    };
  }
};

TEST(BatcherPolicyTest, SizeTriggerFlushesFullWave) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  std::vector<double> answers;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0,
                            [&](const Result<DotEstimate>& r) {
                              ASSERT_TRUE(r.ok());
                              answers.push_back(r->minutes);
                            })
                    .ok());
  }
  // No time has passed: the flush is purely the size trigger.
  EXPECT_EQ(batcher.PumpOnce(), 4);
  ASSERT_EQ(backend.waves.size(), 1u);
  EXPECT_EQ(backend.waves[0].size(), 4u);
  ASSERT_EQ(answers.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(answers[i], 100.0 * i + 1);  // FIFO order preserved
  }
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.size_flushes, 1);
  EXPECT_EQ(stats.age_flushes, 0);
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.completed, 4);
}

TEST(BatcherPolicyTest, AgeTriggerFlushesPartialWave) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  int done = 0;
  ASSERT_TRUE(batcher
                  .Submit(MakeOdt(0), 0,
                          [&](const Result<DotEstimate>& r) {
                            EXPECT_TRUE(r.ok());
                            ++done;
                          })
                  .ok());
  EXPECT_EQ(batcher.PumpOnce(), 0);  // under max_batch, not old enough
  clock.ms += 9.99;
  EXPECT_EQ(batcher.PumpOnce(), 0);  // still one tick short of the age limit
  clock.ms += 0.02;
  EXPECT_EQ(batcher.PumpOnce(), 1);  // a lone query must not wait forever
  EXPECT_EQ(done, 1);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.age_flushes, 1);
  EXPECT_EQ(stats.size_flushes, 0);
}

TEST(BatcherPolicyTest, CheapWaveBoundsTheNextHeadsWaitByItsFollowUpWindow) {
  FakeClock clock;
  StubBackend backend;
  backend.clock = &clock;
  backend.cost_ms = 0.5;  // a cache-hit wave
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  // No wave has run yet: the first head waits the whole age. Its wave
  // runs from 10 to 10.5 ms.
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, ignore).ok());
  clock.ms = 9.75;
  EXPECT_EQ(batcher.PumpOnce(), 0);
  clock.ms = 10.0;
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(clock.ms, 10.5);
  // An arrival 0.25 ms after that wave may gather companions until the
  // follow-up window closes one service time after the wave: 11 ms, not
  // the 20.75 ms the age alone allows.
  clock.ms = 10.75;
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0, ignore).ok());
  EXPECT_EQ(batcher.PumpOnce(), 0);
  clock.ms = 10.875;
  EXPECT_EQ(batcher.PumpOnce(), 0);
  clock.ms = 11.0;
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(clock.ms, 11.5);
  // An arrival 5 ms after the last wave finds its window long closed and
  // flushes on the first pump.
  clock.ms = 16.5;
  ASSERT_TRUE(batcher.Submit(MakeOdt(2), 0, ignore).ok());
  EXPECT_EQ(batcher.PumpOnce(), 1);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.age_flushes, 3);  // an early due time is still the age
  EXPECT_EQ(stats.size_flushes, 0);
  EXPECT_EQ(stats.completed, 3);
}

TEST(BatcherPolicyTest, ExpensiveWaveLeavesTheNextHeadTheFullAge) {
  // A stage-1 wave costs far more than max_wave_age_ms, so a head arriving
  // early in its follow-up window waits the full age, one arriving late in
  // it waits for the window to close, and one arriving after it (an idle
  // gap longer than the wave's cost) flushes at once.
  FakeClock clock;
  StubBackend backend;
  backend.clock = &clock;
  backend.cost_ms = 30.0;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, ignore).ok());
  clock.ms = 10.0;
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(clock.ms, 40.0);
  // Arrival as the wave ends (window until 70 ms): due at 50.
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0, ignore).ok());
  clock.ms = 49.75;
  EXPECT_EQ(batcher.PumpOnce(), 0);
  clock.ms = 50.0;
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(clock.ms, 80.0);
  // Arrival in the window's last max_wave_age_ms (window until 110 ms):
  // due when the window closes, before its age.
  clock.ms = 105.0;
  ASSERT_TRUE(batcher.Submit(MakeOdt(2), 0, ignore).ok());
  clock.ms = 109.75;
  EXPECT_EQ(batcher.PumpOnce(), 0);
  clock.ms = 110.0;
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(clock.ms, 140.0);
  // Arrival 31 ms after that wave, past its window (until 170 ms): the
  // first pump flushes it.
  clock.ms = 171.0;
  ASSERT_TRUE(batcher.Submit(MakeOdt(3), 0, ignore).ok());
  EXPECT_EQ(batcher.PumpOnce(), 1);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.age_flushes, 4);
  EXPECT_EQ(stats.completed, 4);
}

TEST(BatcherPolicyTest, MalformedQueryIsRejectedAtAdmission) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto never = [](const Result<DotEstimate>&) {
    ADD_FAILURE() << "a rejected query must get no callback";
  };
  OdtInput nan_origin = MakeOdt(0);
  nan_origin.origin.lng = std::nan("");
  OdtInput inf_destination = MakeOdt(1);
  inf_destination.destination.lat = std::numeric_limits<double>::infinity();
  OdtInput negative_time = MakeOdt(2);
  negative_time.departure_time = -1;
  for (const OdtInput& bad : {nan_origin, inf_destination, negative_time}) {
    Status s = batcher.Submit(bad, 0, never);
    EXPECT_TRUE(s.IsInvalidArgument()) << s;
  }
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.rejected_full + stats.rejected_stale, 0);
  EXPECT_EQ(batcher.queue_depth(), 0);
}

TEST(BatcherPolicyTest, EarliestDeadlinePropagatesToQueryOptions) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  // Deadlines 200ms, 80ms, none. 5ms passes in the queue. The wave budget
  // must be the most urgent member's *remaining* time: 80 - 5 = 75.
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 200.0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 80.0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(2), 0.0, ignore).ok());
  clock.ms += 5.0;
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  ASSERT_EQ(backend.deadlines.size(), 1u);
  EXPECT_DOUBLE_EQ(backend.deadlines[0], 75.0);
}

TEST(BatcherPolicyTest, NoDeadlinesMeansUnboundedWave) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0.0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0.0, ignore).ok());
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 2);
  ASSERT_EQ(backend.deadlines.size(), 1u);
  EXPECT_DOUBLE_EQ(backend.deadlines[0], 0.0);  // 0 = no deadline
}

TEST(BatcherPolicyTest, ExpiredDeadlineClampsToTinyPositiveBudget) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 3.0, ignore).ok());
  clock.ms += 20.0;  // waited far past its deadline
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(backend.deadlines.size(), 1u);
  // Must stay a *deadline* (positive) — 0 would disable the ladder.
  EXPECT_GT(backend.deadlines[0], 0.0);
  EXPECT_LE(backend.deadlines[0], 1.0);
}

TEST(BatcherPolicyTest, QueueFullRejectsTyped) {
  FakeClock clock;
  StubBackend backend;
  BatcherConfig config = ManualConfig(&clock);
  config.queue_capacity = 2;
  DynamicBatcher batcher(backend.fn(), config);
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0, ignore).ok());
  Status rejected = batcher.Submit(MakeOdt(2), 0, ignore);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected;
  EXPECT_EQ(batcher.stats().rejected_full, 1);
  EXPECT_EQ(batcher.queue_depth(), 2);
  // Draining the queue reopens admission.
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 2);
  EXPECT_TRUE(batcher.Submit(MakeOdt(2), 0, ignore).ok());
}

TEST(BatcherPolicyTest, StaleQueueHeadRejectsNewArrivals) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  for (int i = 0; i < 4; ++i) {  // a full wave (max_batch) queued
    ASSERT_TRUE(batcher.Submit(MakeOdt(i), 0, ignore).ok());
  }
  clock.ms += 51.0;  // past queue_budget_ms: the backend is clearly behind
  Status rejected = batcher.Submit(MakeOdt(4), 0, ignore);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected;
  EXPECT_EQ(batcher.stats().rejected_stale, 1);
  // The queued requests themselves are still answered.
  EXPECT_EQ(batcher.PumpOnce(), 4);
  EXPECT_EQ(batcher.stats().completed, 4);
}

TEST(BatcherPolicyTest, ArrivalThatFitsTheNextWaveIsAdmittedBehindAStaleHead) {
  // A short age-flushed wave can leave a request queued while the backend
  // runs it; by the time the other callers re-submit, that request is past
  // the budget. The re-submissions still fit in the next wave, so they are
  // not behind and must not be shed.
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, ignore).ok());
  clock.ms += 51.0;  // the lone queued request is now stale
  Status admitted = batcher.Submit(MakeOdt(1), 0, ignore);
  EXPECT_TRUE(admitted.ok()) << admitted;
  EXPECT_EQ(batcher.stats().rejected_stale, 0);
  EXPECT_EQ(batcher.PumpOnce(), 2);
  EXPECT_EQ(batcher.stats().completed, 2);
}

TEST(BatcherPolicyTest, ShutdownDrainsEverythingThenRefuses) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  int done = 0;
  for (int i = 0; i < 6; ++i) {  // 1.5 waves worth
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0,
                            [&](const Result<DotEstimate>& r) {
                              EXPECT_TRUE(r.ok());
                              ++done;
                            })
                    .ok());
  }
  batcher.Shutdown();
  EXPECT_EQ(done, 6);  // every admitted request answered before return
  EXPECT_EQ(batcher.queue_depth(), 0);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.completed, 6);
  EXPECT_GE(stats.drain_flushes, 1);
  Status after = batcher.Submit(MakeOdt(9), 0, [](const Result<DotEstimate>&) {});
  EXPECT_TRUE(after.IsFailedPrecondition()) << after;
}

TEST(BatcherPolicyTest, BackendErrorReachesEveryCallback) {
  FakeClock clock;
  StubBackend backend;
  backend.fail_with = Status::Internal("wave exploded");
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  int errors = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0,
                            [&](const Result<DotEstimate>& r) {
                              EXPECT_TRUE(r.status().IsInternal());
                              ++errors;
                            })
                    .ok());
  }
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  EXPECT_EQ(errors, 3);
}

TEST(BatcherPolicyTest, CallbacksReceiveTheWaveTimingBreakdown) {
  FakeClock clock;
  // The backend reports 1 ms of stage 1 and 0.2 ms of stage 2 and takes
  // 2 ms of wall time.
  BatchBackend backend = [&clock](const std::vector<OdtInput>& odts,
                                  const QueryOptions& opts)
      -> Result<std::vector<DotEstimate>> {
    if (opts.timing != nullptr) {
      opts.timing->stage1_us = 1000;
      opts.timing->stage2_us = 200;
    }
    clock.ms += 2.0;
    return std::vector<DotEstimate>(odts.size());
  };
  DynamicBatcher batcher(backend, ManualConfig(&clock));
  std::vector<TimingBreakdown> timings;
  for (double at_ms : {0.0, 1.0, 3.0}) {
    clock.ms = at_ms;
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(static_cast<int>(at_ms)), 0,
                            /*root_span=*/0,
                            [&](const Result<DotEstimate>& r,
                                const TimingBreakdown& t) {
                              EXPECT_TRUE(r.ok());
                              timings.push_back(t);
                            })
                    .ok());
  }
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  ASSERT_EQ(timings.size(), 3u);
  const double queue_us[] = {3000, 2000, 0};
  for (size_t i = 0; i < timings.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    EXPECT_DOUBLE_EQ(timings[i].queue_us, queue_us[i]);
    EXPECT_DOUBLE_EQ(timings[i].stage1_us, 1000);
    EXPECT_DOUBLE_EQ(timings[i].stage2_us, 200);
    // The wave's 2 ms less its 1.2 ms of stage time.
    EXPECT_DOUBLE_EQ(timings[i].batch_wait_us, 800);
  }
}

TEST(BatcherPolicyTest, RealThreadFlushesOnAgeWithoutPumping) {
  // Sanity-check the background thread variant end to end: the wall-clock
  // age trigger must flush a lone request without any explicit pump.
  StubBackend backend;
  BatcherConfig config;
  config.max_batch = 64;        // size trigger unreachable
  config.max_wave_age_ms = 2.0;
  DynamicBatcher batcher(backend.fn(), config);
  std::mutex mu;
  std::condition_variable cv;
  bool answered = false;
  ASSERT_TRUE(batcher
                  .Submit(MakeOdt(0), 0,
                          [&](const Result<DotEstimate>& r) {
                            EXPECT_TRUE(r.ok());
                            std::lock_guard<std::mutex> lock(mu);
                            answered = true;
                            cv.notify_all();
                          })
                  .ok());
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return answered; }));
  EXPECT_GE(batcher.stats().age_flushes, 1);
}

TEST(BatcherPolicyTest, RealThreadAnswersALoneRequestAfterACheapWaveAtOnce) {
  // The age (2 s) dwarfs an instant wave: a lone request arriving after
  // that wave's follow-up window must not wait it out. The 1 s bound
  // leaves room for sanitizer builds on a loaded machine.
  StubBackend backend;
  BatcherConfig config;
  config.max_batch = 2;
  config.max_wave_age_ms = 2000.0;
  DynamicBatcher batcher(backend.fn(), config);
  std::mutex mu;
  std::condition_variable cv;
  int answered = 0;
  auto done = [&](const Result<DotEstimate>& r) {
    EXPECT_TRUE(r.ok());
    std::lock_guard<std::mutex> lock(mu);
    ++answered;
    cv.notify_all();
  };
  auto wait_for_answers = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return answered >= n; });
  };
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, done).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0, done).ok());
  ASSERT_TRUE(wait_for_answers(2));  // the size trigger
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.Submit(MakeOdt(2), 0, done).ok());
  ASSERT_TRUE(wait_for_answers(3));
  double waited_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - sent)
                         .count();
  EXPECT_LT(waited_ms, 1000.0);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.size_flushes, 1);
  EXPECT_EQ(stats.age_flushes, 1);
}

}  // namespace
}  // namespace serve
}  // namespace dot
