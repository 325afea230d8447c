// Tests for the util substrate: Status/Result, RNG, tables, thread pool,
// serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/checkpoint.h"
#include "util/failpoint.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dot {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad grid size");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad grid size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad grid size");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
}

Status Fails() { return Status::NotFound("inner"); }
Status Propagates() {
  DOT_RETURN_NOT_OK(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  Status s = Propagates();
  EXPECT_TRUE(s.IsNotFound());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(10);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    int64_t k = rng.Categorical({1.0, 0.0, 3.0});
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 3);
    counts[k]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, CategoricalDegenerateCases) {
  Rng rng(11);
  EXPECT_EQ(rng.Categorical({}), -1);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), -1);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(12);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(14);
  Rng b = a.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000) == b.UniformInt(0, 1000)) ++equal;
  }
  EXPECT_LT(equal, 10);
}

TEST(TableTest, AlignedRendering) {
  Table t("Demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22.5"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TableTest, CsvRoundTripAndEscaping) {
  Table t("csv");
  t.SetHeader({"a", "b"});
  t.AddRow({"plain", "with,comma"});
  t.AddRow({"quote\"inside", "x"});
  std::string path = ::testing::TempDir() + "/table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream f(path);
  std::string all((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(all.find("\"quote\"\"inside\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  ParallelFor(
      &pool, 100,
      [&count](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) count++;
      },
      /*min_chunk=*/1);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  ParallelFor(
      &pool, 5000,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
      },
      /*min_chunk=*/128);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Fork-join: a ParallelFor returns once its own chunks are done, whatever
// other callers have in flight on the same pool. Caller A's chunks block
// until the test releases them, which it does only after caller B has
// returned; a pool-wide wait would hold B until the 5 s fallback released A.
TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnChunks) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> a_entered;
  std::once_flag a_entered_once;
  std::atomic<int> a_blocked{0};  // A's chunks currently blocked
  std::thread caller_a([&] {
    ParallelFor(
        &pool, 2,
        [&](int64_t, int64_t) {
          a_blocked++;
          std::call_once(a_entered_once, [&] { a_entered.set_value(); });
          released.wait_for(std::chrono::seconds(5));
          a_blocked--;
        },
        /*min_chunk=*/1);
  });
  a_entered.get_future().wait();

  std::atomic<int> b_hits{0};
  bool a_blocked_when_b_returned = false;
  std::thread caller_b([&] {
    ParallelFor(
        &pool, 2,
        [&](int64_t b, int64_t e) { b_hits += static_cast<int>(e - b); },
        /*min_chunk=*/1);
    a_blocked_when_b_returned = a_blocked.load() > 0;
    release.set_value();
  });
  caller_b.join();
  caller_a.join();
  EXPECT_EQ(b_hits.load(), 2);
  EXPECT_TRUE(a_blocked_when_b_returned)
      << "caller B waited for caller A's chunks to finish";
}

// A ParallelFor body that calls ParallelFor on the same pool: the inner call
// runs inline as one fn(0, n), so it completes and every index is covered
// once. A nested call that waited for the whole pool to go idle would wait
// for its own enclosing chunk forever; the ctest TIMEOUT on this suite
// bounds that hang.
TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCoversRange) {
  constexpr int64_t kOuter = 8, kInner = 300;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> split_inner_calls{0};
  ParallelFor(
      &pool, kOuter,
      [&](int64_t ob, int64_t oe) {
        for (int64_t o = ob; o < oe; ++o) {
          ParallelFor(
              &pool, kInner,
              [&, o](int64_t b, int64_t e) {
                if (b != 0 || e != kInner) split_inner_calls++;
                for (int64_t i = b; i < e; ++i) {
                  hits[static_cast<size_t>(o * kInner + i)]++;
                }
              },
              /*min_chunk=*/16);
        }
      },
      /*min_chunk=*/1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(split_inner_calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForInlineForSmallN) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, 10, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  (void)x;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000 - 1e-6);
}

TEST(SerializeTest, RoundTripAllTypes) {
  std::string path = ::testing::TempDir() + "/ser_test.bin";
  {
    BinaryWriter w(path);
    ASSERT_TRUE(w.Ok());
    w.WriteU64(42);
    w.WriteI64(-7);
    w.WriteF64(3.25);
    w.WriteF32(1.5f);
    w.WriteString("hello");
    w.WriteF32Vector({1.0f, 2.0f});
    w.WriteI64Vector({10, 20, 30});
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.Ok());
  EXPECT_EQ(r.ReadU64(), 42u);
  EXPECT_EQ(r.ReadI64(), -7);
  EXPECT_EQ(r.ReadF64(), 3.25);
  EXPECT_EQ(r.ReadF32(), 1.5f);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadF32Vector(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(r.ReadI64Vector(), (std::vector<int64_t>{10, 20, 30}));
  std::remove(path.c_str());
}

TEST(SerializeTest, EmptyVectorsAndStringsRoundTrip) {
  // Regression: WriteRaw used to hand data() of an empty vector — a null
  // pointer — to ostream::write, which is UB even for zero bytes.
  std::string path = ::testing::TempDir() + "/ser_empty.bin";
  {
    BinaryWriter w(path);
    ASSERT_TRUE(w.Ok());
    w.WriteF32Vector({});
    w.WriteI64Vector({});
    w.WriteString("");
    w.WriteU64(99);  // sentinel after the empties
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.Ok());
  EXPECT_TRUE(r.ReadF32Vector().empty());
  EXPECT_TRUE(r.ReadI64Vector().empty());
  EXPECT_TRUE(r.ReadString().empty());
  EXPECT_EQ(r.ReadU64(), 99u);
  EXPECT_TRUE(r.Ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, Crc32KnownAnswerAndIncremental) {
  // The IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
  // An incremental checksum equals the one-shot checksum.
  uint32_t part = Crc32(s, 4);
  EXPECT_EQ(Crc32(s + 4, 5, part), 0xCBF43926u);
  EXPECT_EQ(Crc32(s, 0), 0u);
}

TEST(SerializeTest, WriterAndReaderAgreeOnRunningCrc) {
  std::string path = ::testing::TempDir() + "/ser_crc.bin";
  uint32_t written;
  {
    BinaryWriter w(path);
    w.WriteString("payload");
    w.WriteF32Vector({1.0f, 2.0f, 3.0f});
    written = w.crc();
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  r.ReadString();
  r.ReadF32Vector();
  EXPECT_EQ(r.crc(), written);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RoundTripAndValidation) {
  std::string path = ::testing::TempDir() + "/ckpt_ok.bin";
  {
    CheckpointWriter w(path, "TESTCKPT", 3);
    ASSERT_TRUE(w.Ok());
    w.writer()->WriteF64(2.5);
    ASSERT_TRUE(w.Commit().ok());
  }
  {
    auto r = CheckpointReader::Open(path, "TESTCKPT", 3);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->version(), 3u);
    EXPECT_EQ(r->reader().ReadF64(), 2.5);
  }
  // Wrong magic and too-old max_version are rejected with InvalidArgument.
  EXPECT_TRUE(
      CheckpointReader::Open(path, "OTHER", 3).status().IsInvalidArgument());
  EXPECT_TRUE(
      CheckpointReader::Open(path, "TESTCKPT", 2).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(CheckpointTest, FlippedByteAndTruncationAreRejected) {
  std::string path = ::testing::TempDir() + "/ckpt_corrupt.bin";
  {
    CheckpointWriter w(path, "TESTCKPT", 1);
    for (int i = 0; i < 64; ++i) w.writer()->WriteF64(i * 0.5);
    ASSERT_TRUE(w.Commit().ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Flip one payload byte: the CRC footer must catch it.
  {
    std::string bad = bytes;
    bad[bad.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bad;
  }
  Status flipped = CheckpointReader::Open(path, "TESTCKPT", 1).status();
  EXPECT_TRUE(flipped.IsIOError());
  EXPECT_NE(flipped.message().find("checksum"), std::string::npos);
  // Truncate the tail: also rejected before any payload is parsed.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_FALSE(CheckpointReader::Open(path, "TESTCKPT", 1).ok());
  // A nearly-empty file is "truncated", not a crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "xy";
  }
  Status tiny = CheckpointReader::Open(path, "TESTCKPT", 1).status();
  EXPECT_TRUE(tiny.IsIOError());
  EXPECT_NE(tiny.message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
  // Missing file.
  EXPECT_TRUE(CheckpointReader::Open(::testing::TempDir() + "/ckpt_nope.bin",
                                     "TESTCKPT", 1)
                  .status()
                  .IsIOError());
}

TEST(CheckpointTest, UncommittedWriterLeavesNoFile) {
  std::string path = ::testing::TempDir() + "/ckpt_abandoned.bin";
  { CheckpointWriter w(path, "TESTCKPT", 1); }  // destroyed without Commit
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

// scripts/check.sh runs this suite with DOT_FAILPOINTS="check.smoke=error"
// to smoke-test environment arming end to end; without that environment the
// test is a skip. Declared before any test that calls DisarmAll().
TEST(FailpointTest, EnvArmingSmoke) {
  const char* env = std::getenv("DOT_FAILPOINTS");
  if (env == nullptr ||
      std::string(env).find("check.smoke") == std::string::npos) {
    GTEST_SKIP() << "DOT_FAILPOINTS does not arm check.smoke";
  }
  EXPECT_TRUE(fail::Get("check.smoke")->armed());
  EXPECT_EQ(DOT_FAILPOINT("check.smoke"), fail::Action::kError);
}

TEST(FailpointTest, DisarmedIsOffAndCostsNothingVisible) {
  fail::Failpoint* fp = fail::Get("util_test.probe");
  EXPECT_FALSE(fp->armed());
  EXPECT_EQ(fp->Fire(), fail::Action::kOff);
  EXPECT_EQ(DOT_FAILPOINT("util_test.probe"), fail::Action::kOff);
}

TEST(FailpointTest, ArmCountAutoDisarms) {
  fail::Arm("util_test.count", fail::Action::kError, 2);
  EXPECT_EQ(DOT_FAILPOINT("util_test.count"), fail::Action::kError);
  EXPECT_EQ(DOT_FAILPOINT("util_test.count"), fail::Action::kError);
  EXPECT_EQ(DOT_FAILPOINT("util_test.count"), fail::Action::kOff);
  EXPECT_FALSE(fail::Get("util_test.count")->armed());
  EXPECT_EQ(fail::Get("util_test.count")->fire_count(), 2);
}

TEST(FailpointTest, SpecGrammarArmsAndRejects) {
  ASSERT_TRUE(
      fail::ArmFromSpec("util_test.a=error:1,util_test.b=delay(5)").ok());
  std::vector<std::string> armed = fail::ArmedFailpoints();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "util_test.a"), armed.end());
  EXPECT_NE(std::find(armed.begin(), armed.end(), "util_test.b"), armed.end());
  EXPECT_EQ(fail::Get("util_test.b")->arg(), 5.0);
  fail::DisarmAll();
  EXPECT_TRUE(fail::ArmedFailpoints().empty());
  // Malformed specs arm nothing at all — not even the valid prefix.
  EXPECT_FALSE(fail::ArmFromSpec("util_test.c=error,util_test.d=bogus").ok());
  EXPECT_TRUE(fail::ArmedFailpoints().empty());
  EXPECT_FALSE(fail::ArmFromSpec("missing_equals").ok());
  EXPECT_FALSE(fail::ArmFromSpec("util_test.e=delay(abc)").ok());
  EXPECT_FALSE(fail::ArmFromSpec("util_test.f=error:notanum").ok());
}

TEST(FailpointTest, DelayActionSleepsInsideFire) {
  fail::Arm("util_test.delay", fail::Action::kDelay, 1, /*arg=*/20);
  Stopwatch sw;
  EXPECT_EQ(DOT_FAILPOINT("util_test.delay"), fail::Action::kDelay);
  EXPECT_GE(sw.ElapsedMillis(), 15.0);
  EXPECT_EQ(DOT_FAILPOINT("util_test.delay"), fail::Action::kOff);
}

}  // namespace
}  // namespace dot
