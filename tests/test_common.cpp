// Unit tests for src/common: checks, RNG, statistics, tables, parallel_for.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace defa {
namespace {

// ---------------------------------------------------------------- DEFA_CHECK
TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(DEFA_CHECK(1 + 1 == 2, "math works"));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(DEFA_CHECK(false, "expected failure"), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    DEFA_CHECK(false, "distinctive-marker");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("distinctive-marker"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, CheckErrorIsLogicError) {
  EXPECT_THROW(DEFA_CHECK(false, ""), std::logic_error);
}

// ----------------------------------------------------------------- parse_flag
TEST(ParseFlag, AcceptsWholeInRangeValues) {
  EXPECT_EQ(parse_flag<int>("--workers", "4", 0), 4);
  EXPECT_EQ(parse_flag<int>("--shard-id", "-1", -1), -1);
  EXPECT_EQ(parse_flag<int>("--listen", "65535", 0, 65535), 65535);
  EXPECT_EQ(parse_flag<std::size_t>("--max-contexts", "0"), 0u);
  EXPECT_EQ(parse_flag<std::uint64_t>("--seed", "18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_flag<double>("--rate", "2.5", 1e-3, 1e9), 2.5);
  EXPECT_EQ(parse_flag<double>("--rate", "1e3", 1e-3, 1e9), 1000.0);
}

TEST(ParseFlag, RejectsPartialMalformedAndOutOfRangeText) {
  const auto rejects_int = [](const char* text, int lo, int hi) {
    EXPECT_THROW((void)parse_flag<int>("--workers", text, lo, hi), FlagError)
        << "'" << text << "'";
  };
  rejects_int("4x", 0, 64);         // trailing junk
  rejects_int("7junk", 0, 64);
  rejects_int("", 0, 64);           // empty
  rejects_int(" 4", 0, 64);         // surrounding whitespace
  rejects_int("4 ", 0, 64);
  rejects_int("-3", 0, 64);         // below the range
  rejects_int("65", 0, 64);         // above the range
  rejects_int("4294967297", 0, INT32_MAX);  // beyond int: no wrap to 1
  rejects_int("2.0", 0, 64);        // not an integer
  // Negative text never wraps into an unsigned count.
  EXPECT_THROW((void)parse_flag<std::size_t>("--max-contexts", "-1"), FlagError);
  EXPECT_THROW((void)parse_flag<std::size_t>("--queue-capacity", "0", 1), FlagError);
  EXPECT_THROW((void)parse_flag<std::uint64_t>("--seed", "18446744073709551616"),
               FlagError);
  for (const char* text : {"nan", "inf", "-inf", "1e400", "0", "3qps"}) {
    EXPECT_THROW((void)parse_flag<double>("--rate", text, 1e-3, 1e9), FlagError)
        << "'" << text << "'";
  }
}

TEST(ParseFlag, MessageNamesFlagRangeAndText) {
  const auto message = [](auto parse) {
    try {
      parse();
    } catch (const FlagError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { (void)parse_flag<std::size_t>("--max-memo", "7junk"); }),
            "--max-memo: expected an integer in [0, 18446744073709551615], got '7junk'");
  EXPECT_EQ(message([] { (void)parse_flag<double>("--metrics-interval", "0", 1e-3, 86400.0); }),
            "--metrics-interval: expected a number in [0.001, 86400], got '0'");
}

// ------------------------------------------------------------------------ Rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, RandintRespectsInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.randint(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(123);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // Child stream differs from continuing the parent.
  EXPECT_NE(child.uniform(), a.uniform());
}

TEST(SmallRng, DeterministicAndSeedSensitive) {
  SmallRng a(10), b(10), c(11);
  EXPECT_EQ(a.next(), b.next());
  SmallRng a2(10);
  EXPECT_NE(a2.next(), c.next());
}

TEST(SmallRng, Uniform01InRange) {
  SmallRng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(SmallRng, NormalMoments) {
  SmallRng rng(4);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(SmallRng, BernoulliFrequency) {
  SmallRng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(MixSeed, OrderSensitive) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 3, 2));
  EXPECT_EQ(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
}

// ---------------------------------------------------------------- RunningStats
TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Metrics, RmseAndNrmse) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
  EXPECT_DOUBLE_EQ(nrmse(a, b), 0.0);

  const std::vector<float> c{2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(rmse(a, c), 1.0);
  EXPECT_GT(nrmse(a, c), 0.0);
}

TEST(Metrics, NrmseScaleInvariance) {
  std::vector<float> a{1.0f, -2.0f, 3.0f, 0.5f};
  std::vector<float> b{1.1f, -1.9f, 3.2f, 0.4f};
  const double e1 = nrmse(a, b);
  for (auto& x : a) x *= 10.0f;
  for (auto& x : b) x *= 10.0f;
  EXPECT_NEAR(nrmse(a, b), e1, 1e-6);
}

TEST(Metrics, MaxAbsDiff) {
  const std::vector<float> a{0.0f, 1.0f};
  const std::vector<float> b{0.5f, -1.0f};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.0);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW((void)rmse(a, b), CheckError);
  EXPECT_THROW((void)nrmse(a, b), CheckError);
}

// ------------------------------------------------------------------ TextTable
TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.new_row().add("alpha").add_num(1.5, 1);
  t.new_row().add("beta").add_int(42);
  const std::string s = t.str("Title");
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable t({"only"});
  t.new_row().add("x");
  EXPECT_THROW(t.add("y"), CheckError);
}

TEST(TextTable, AddBeforeRowThrows) {
  TextTable t({"c"});
  EXPECT_THROW(t.add("x"), CheckError);
}

TEST(Format, PercentAndRatio) {
  EXPECT_EQ(percent(0.433), "43.3%");
  EXPECT_EQ(ratio(3.06), "3.06x");
}

// ---------------------------------------------------------------- parallel_for
TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(0, 10000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  }, 1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, InvertedRangeThrows) {
  EXPECT_THROW(parallel_for(2, 1, [](std::int64_t, std::int64_t) {}), CheckError);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  std::vector<int> hits(10, 0);
  parallel_for(0, 10, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });  // default min_parallel keeps this single-chunk
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, HardwareThreadsPositive) {
  EXPECT_GE(hardware_threads(), 1);
  EXPECT_LE(hardware_threads(), 32);
}

}  // namespace
}  // namespace defa
