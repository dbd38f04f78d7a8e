#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/table_printer.h"

namespace ppfr {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntWithinRangeAndCoversAll) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, LaplaceIsSymmetricWithCorrectScale) {
  Rng rng(17);
  double sum = 0.0, sum_abs = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Laplace(2.0);
    sum += x;
    sum_abs += std::fabs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.08);
  // E|X| = scale for Laplace(0, scale).
  EXPECT_NEAR(sum_abs / n, 2.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(19);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(23);
  const std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// The sparse partial Fisher-Yates makes the draws, and returns the order, of
// the dense one over an n-entry index pool, and leaves the generator in the
// same state.
TEST(RngTest, SampleWithoutReplacementEqualsDensePartialFisherYates) {
  const auto dense = [](Rng* rng, int n, int k) {
    std::vector<int> pool(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
    for (int i = 0; i < k; ++i) {
      const int64_t j = i + rng->UniformInt(n - i);
      std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
    }
    pool.resize(static_cast<size_t>(k));
    return pool;
  };
  std::vector<std::pair<int, int>> cases = {
      {0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {7, 7}, {10, 3}, {64, 64}, {100, 99},
      {1000, 10}, {5000, 2500}, {100000, 0}, {100000, 5}, {100000, 1000},
      {200003, 10}, {100000, 100000}};
  Rng pick(3);
  for (int i = 0; i < 200; ++i) {
    const int n = 1 + static_cast<int>(pick.UniformInt(300));
    cases.emplace_back(n, static_cast<int>(pick.UniformInt(n + 1)));
  }
  uint64_t seed = 100;
  for (const auto& [n, k] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    Rng got_rng(seed), want_rng(seed);
    ++seed;
    ASSERT_EQ(got_rng.SampleWithoutReplacement(n, k), dense(&want_rng, n, k));
    ASSERT_EQ(got_rng.NextU64(), want_rng.NextU64());
  }
}

// Values recorded before seeding, NextU64, Uniform(), Bernoulli and MixSeed
// moved inline into rng.h: every stream in the library, the scale
// generator's edge, feature and split streams among them, hangs off these.
TEST(RngTest, HotPathKeepsRecordedValues) {
  struct Golden {
    uint64_t seed;
    uint64_t next[3];
    double uniform[3];
    std::vector<int> bernoulli_hits;  // draws < 400 where Bernoulli(0.02) fired
    int64_t uniform_int7[8];
    uint64_t mix_seed7;
    std::vector<int> sample;  // SampleWithoutReplacement(1000, 10)
    uint64_t next_after_sample;
  };
  const Golden goldens[] = {
      {42,
       {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL},
       {0x1.5780b2e0c2ecp-4, 0x1.84136619b444ep-2, 0x1.5c2ea66473c93p-1},
       {125, 142, 172, 279, 284, 297, 309},
       {2, 1, 5, 4, 4, 1, 2, 0},
       0x73dcda68202f91caULL,
       {742, 253, 839, 121, 836, 944, 162, 208, 358, 382},
       0xaeb53b340c103971ULL},
      {0x5eed5eed,
       {0x2f073b7bc4bbd7a6ULL, 0x3a8e2f5de99a0413ULL, 0xf01bc0089171b2d2ULL},
       {0x1.7839dbde25de8p-3, 0x1.d4717aef4cdp-3, 0x1.e037801122e36p-1},
       {13, 18, 146, 168, 299, 302, 358, 379, 383},
       {0, 2, 1, 2, 5, 2, 1, 2},
       0xd084931ecfa0b03dULL,
       {550, 595, 218, 272, 169, 621, 427, 603, 228, 133},
       0x6aceda8347a73e68ULL},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    Rng next(g.seed), uniform(g.seed), bernoulli(g.seed), uniform_int(g.seed), sample(g.seed);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(next.NextU64(), g.next[i]);
      EXPECT_EQ(uniform.Uniform(), g.uniform[i]);
    }
    std::vector<int> hits;
    for (int i = 0; i < 400; ++i) {
      if (bernoulli.Bernoulli(0.02)) hits.push_back(i);
    }
    EXPECT_EQ(hits, g.bernoulli_hits);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(uniform_int.UniformInt(7), g.uniform_int7[i]);
    EXPECT_EQ(MixSeed(g.seed, 7), g.mix_seed7);
    EXPECT_EQ(sample.SampleWithoutReplacement(1000, 10), g.sample);
    EXPECT_EQ(sample.NextU64(), g.next_after_sample);
  }
  EXPECT_EQ(Rng().NextU64(), 0x422ea740d0977210ULL);  // the default seed
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng fork = a.Fork();
  // The fork differs from the parent's continuation.
  EXPECT_NE(a.NextU64(), fork.NextU64());
}

// Uniformity sweep: chi-square-like sanity across several seeds.
class RngUniformitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngUniformitySweep, BucketsAreBalanced) {
  Rng rng(GetParam());
  constexpr int kBuckets = 10;
  constexpr int kDraws = 20000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) {
    counts[static_cast<int>(rng.Uniform() * kBuckets)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / kBuckets, 0.1 * kDraws / kBuckets);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformitySweep,
                         ::testing::Values(1ull, 99ull, 1234567ull, 0xdeadbeefull));

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"A", "Long header"});
  table.AddRow({"x", "1"});
  table.AddSeparator();
  table.AddRow({"yyyy", "2.5"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| A    | Long header |"), std::string::npos);
  EXPECT_NE(s.find("| yyyy | 2.5         |"), std::string::npos);
  // Header rule + separator + closing rule => at least 4 '+--' rules.
  int rules = 0;
  for (size_t pos = 0; (pos = s.find("+-", pos)) != std::string::npos; ++pos) ++rules;
  EXPECT_GE(rules, 4);
}

TEST(TablePrinterTest, NumAndPctFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(std::nan(""), 2), "-");
  EXPECT_EQ(TablePrinter::Pct(-0.3551), "-35.51");
  EXPECT_EQ(TablePrinter::Pct(0.018), "+1.80");
}

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name=test", "--verbose",
                        "--count=12"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("count", 0), 12);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, Uint64SeedsRoundTripWithoutTruncation) {
  // Seeds above INT_MAX used to be truncated by an int round-trip.
  const char* argv[] = {"prog", "--seed=9876543210987654321"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetUint64("seed", 0), 9876543210987654321ULL);
  EXPECT_EQ(flags.GetUint64("missing", 7), 7ULL);
}

TEST(StrictParseTest, AcceptsExactNumbersOnly) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64Strict("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64Strict("", &i));
  EXPECT_FALSE(ParseInt64Strict("12abc", &i));
  EXPECT_FALSE(ParseInt64Strict("99999999999999999999", &i));  // overflow

  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64Strict("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  EXPECT_FALSE(ParseUint64Strict("18446744073709551616", &u));  // overflow
  EXPECT_FALSE(ParseUint64Strict("-1", &u));  // strtoull would wrap this
  EXPECT_FALSE(ParseUint64Strict("+1", &u));
  EXPECT_FALSE(ParseUint64Strict("1 ", &u));
  // Leading whitespace would let strtoull smuggle a sign past the
  // first-character check (" -1" → ULLONG_MAX); exact parses only.
  EXPECT_FALSE(ParseUint64Strict(" -1", &u));
  EXPECT_FALSE(ParseUint64Strict("\t-2", &u));
  EXPECT_FALSE(ParseUint64Strict(" 1", &u));
  int64_t i2 = 0;
  EXPECT_FALSE(ParseInt64Strict(" 5", &i2));
  double d2 = 0.0;
  EXPECT_FALSE(ParseDoubleStrict(" 0.5", &d2));

  double d = 0.0;
  EXPECT_TRUE(ParseDoubleStrict("2.5e-3", &d));
  EXPECT_DOUBLE_EQ(d, 2.5e-3);
  EXPECT_FALSE(ParseDoubleStrict("1.5x", &d));
  EXPECT_FALSE(ParseDoubleStrict("1e999", &d));  // overflows to inf
  EXPECT_FALSE(ParseDoubleStrict("inf", &d));    // strtod literals are garbage
  EXPECT_FALSE(ParseDoubleStrict("nan", &d));    // flags too
  EXPECT_TRUE(ParseDoubleStrict("1e-320", &d));  // subnormal underflow is fine
}

TEST(FlagsDeathTest, MalformedNumericFlagsExitFatally) {
  // `--seed=12abc` used to silently parse as 12 and out-of-range values
  // wrapped; every garbage numeric flag must now name itself and exit(2).
  const char* argv[] = {"prog", "--seed=12abc", "--epochs=99999999999999999999",
                        "--alpha=fast", "--neg=-1", "--flagonly", "--verbose=maybe"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetUint64("seed", 0), ::testing::ExitedWithCode(2),
              "invalid value for --seed: '12abc'");
  EXPECT_EXIT(flags.GetInt("epochs", 0), ::testing::ExitedWithCode(2),
              "invalid value for --epochs");
  EXPECT_EXIT(flags.GetDouble("alpha", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --alpha: 'fast'");
  EXPECT_EXIT(flags.GetUint64("neg", 0), ::testing::ExitedWithCode(2),
              "invalid value for --neg: '-1'");
  // A bare "--flagonly" stores "true", which is not a number.
  EXPECT_EXIT(flags.GetInt("flagonly", 0), ::testing::ExitedWithCode(2),
              "invalid value for --flagonly: 'true'");
  EXPECT_EXIT(flags.GetBool("verbose", false), ::testing::ExitedWithCode(2),
              "invalid value for --verbose: 'maybe'");
  // Absent flags still fall back to defaults without touching the parser.
  EXPECT_EQ(flags.GetInt("missing", 3), 3);
}

TEST(FlagsTest, ReportsUnknownFlags) {
  const char* argv[] = {"prog", "--epochs=10", "--epoch=12", "--sed=3"};
  Flags flags(4, const_cast<char**>(argv));
  const std::vector<std::string> unknown = flags.UnknownFlags({"epochs", "seed"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "epoch");
  EXPECT_EQ(unknown[1], "sed");
  EXPECT_TRUE(flags.UnknownFlags({"epochs", "epoch", "sed"}).empty());
}

TEST(JsonWriterTest, RendersNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("sweep");
  w.Key("count").Int(3);
  w.Key("ratio").Number(0.5);
  w.Key("ok").Bool(true);
  w.Key("items").BeginArray();
  w.Number(1.0);
  w.BeginObject();
  w.Key("inner").Null();
  w.EndObject();
  w.EndArray();
  w.Key("empty").BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.ToString(),
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"count\": 3,\n"
            "  \"ratio\": 0.5,\n"
            "  \"ok\": true,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    {\n"
            "      \"inner\": null\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesStringsAndSerialisesNonFiniteAsNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("text").String("a\"b\\c\nd\te");
  w.Key("nan").Number(std::nan(""));
  w.Key("inf").Number(std::numeric_limits<double>::infinity());
  w.EndObject();
  const std::string json = w.ToString();
  EXPECT_NE(json.find("\"a\\\"b\\\\c\\nd\\te\""), std::string::npos);
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
}

TEST(JsonWriterTest, JsonMetricMarksNonFiniteValues) {
  JsonWriter w;
  w.BeginObject();
  JsonMetric(&w, "ok", 0.25);
  JsonMetric(&w, "bad", std::nan(""));
  JsonMetric(&w, "worse", -std::numeric_limits<double>::infinity());
  w.EndObject();
  const std::string json = w.ToString();
  EXPECT_NE(json.find("\"ok\": 0.25"), std::string::npos);
  EXPECT_EQ(json.find("\"ok_finite\""), std::string::npos);
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos);
  EXPECT_NE(json.find("\"bad_finite\": false"), std::string::npos);
  EXPECT_NE(json.find("\"worse_finite\": false"), std::string::npos);
}

TEST(SerializeTest, PrimitivesRoundTripBitwise) {
  BinaryWriter w;
  w.WriteU32(0xdeadbeefu);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-17);
  w.WriteDouble(-0.0);
  w.WriteDouble(std::nan(""));
  w.WriteBool(true);
  w.WriteString("hello\0world");  // embedded NUL would break a cstring format
  w.WriteDoubleVec({1.5, -2.25});
  w.WriteIntVec({-3, 0, 7});

  BinaryReader r(w.data());
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadI64(), -17);
  EXPECT_EQ(std::signbit(r.ReadDouble()), true);  // -0.0 preserved bitwise
  EXPECT_TRUE(std::isnan(r.ReadDouble()));
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadString(), std::string("hello"));  // literal truncates at NUL
  EXPECT_EQ(r.ReadDoubleVec(), (std::vector<double>{1.5, -2.25}));
  EXPECT_EQ(r.ReadIntVec(), (std::vector<int>{-3, 0, 7}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncationAndGarbageLengthsPoisonInsteadOfCrashing) {
  BinaryWriter w;
  w.WriteString("payload");
  w.WriteDoubleVec({1.0, 2.0, 3.0});
  const std::string& full = w.data();

  // Every truncation point parses to a poisoned reader, never UB.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader r(full.data(), cut);
    (void)r.ReadString();
    (void)r.ReadDoubleVec();
    EXPECT_FALSE(r.AtEnd()) << "cut at " << cut;
  }

  // A garbage length prefix must not trigger a pathological allocation.
  BinaryWriter bad;
  bad.WriteU64(0xffffffffffffffffULL);
  BinaryReader r(bad.data());
  EXPECT_TRUE(r.ReadString().empty());
  EXPECT_FALSE(r.ok());
  // Reads after poisoning return zero values.
  EXPECT_EQ(r.ReadU64(), 0u);
}

TEST(SerializeTest, WriteFileAtomicReportsFailuresAndLeavesNoPartials) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/atomic_probe.bin";
  EXPECT_TRUE(WriteFileAtomic(path, "abc"));
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back));
  EXPECT_EQ(back, "abc");
  // Overwrite is atomic too.
  EXPECT_TRUE(WriteFileAtomic(path, "xyz"));
  ASSERT_TRUE(ReadFileToString(path, &back));
  EXPECT_EQ(back, "xyz");
  std::remove(path.c_str());

  std::string error;
  EXPECT_FALSE(WriteFileAtomic("/nonexistent-dir-zzz/out.json", "x", &error));
  EXPECT_NE(error.find("/nonexistent-dir-zzz/out.json"), std::string::npos);
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH({ PPFR_CHECK(1 == 2) << "should fire"; }, "CHECK failed");
  EXPECT_DEATH({ PPFR_CHECK_EQ(3, 4); }, "CHECK failed");
}

}  // namespace
}  // namespace ppfr
