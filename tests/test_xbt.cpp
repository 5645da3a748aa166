/// Unit tests for the xbt base toolbox: logging, deterministic RNG, string
/// helpers, unit parsing, and the config store.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"
#include "xbt/units.hpp"

namespace {

using namespace sg::xbt;

// -- logging ------------------------------------------------------------------

TEST(Log, LevelParsing) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::debug);
  EXPECT_EQ(log_level_from_string("VERBOSE"), LogLevel::verbose);
  EXPECT_EQ(log_level_from_string("warn"), LogLevel::warning);
  EXPECT_EQ(log_level_from_string("off"), LogLevel::off);
  EXPECT_EQ(log_level_from_string("bogus"), LogLevel::info);
}

TEST(Log, CategoryThresholds) {
  LogCategory cat("log_test_cat");
  EXPECT_FALSE(cat.enabled(LogLevel::debug));  // default threshold is info
  EXPECT_TRUE(cat.enabled(LogLevel::error));
  log_control_set("log_test_cat", LogLevel::debug);
  EXPECT_TRUE(cat.enabled(LogLevel::debug));
  log_control_set("log_test_cat", LogLevel::off);
  EXPECT_FALSE(cat.enabled(LogLevel::critical));
}

TEST(Log, ControlSpecString) {
  LogCategory cat("log_test_spec");
  log_control_apply("log_test_spec:error");
  EXPECT_FALSE(cat.enabled(LogLevel::warning));
  EXPECT_TRUE(cat.enabled(LogLevel::error));
}

// -- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64())
      ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01Range) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01Mean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.05);
}

// -- strings ----------------------------------------------------------------------

TEST(Str, Split) {
  auto v = split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[2], "");
  auto w = split("a,b,,c", ',', /*skip_empty=*/true);
  ASSERT_EQ(w.size(), 3u);
}

TEST(Str, SplitWs) {
  auto v = split_ws("  foo \t bar\nbaz ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "foo");
  EXPECT_EQ(v[2], "baz");
}

TEST(Str, TrimAndCase) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Str, Affixes) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Str, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.2345), "1.23");
}

// -- units -----------------------------------------------------------------------

TEST(Units, Speed) {
  EXPECT_DOUBLE_EQ(parse_speed("1000"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_speed("2Gf"), 2e9);
  EXPECT_DOUBLE_EQ(parse_speed("100Mf"), 1e8);
  EXPECT_THROW(parse_speed("3zips"), InvalidArgument);
}

TEST(Units, Bandwidth) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("125MBps"), 1.25e8);
  EXPECT_DOUBLE_EQ(parse_bandwidth("1Gbps"), 1.25e8);  // bits -> bytes
  EXPECT_DOUBLE_EQ(parse_bandwidth("1KiBps"), 1024.0);
  EXPECT_THROW(parse_bandwidth("5lightyears"), InvalidArgument);
}

TEST(Units, Time) {
  EXPECT_DOUBLE_EQ(parse_time("10ms"), 0.01);
  EXPECT_DOUBLE_EQ(parse_time("50us"), 5e-5);
  EXPECT_DOUBLE_EQ(parse_time("2h"), 7200.0);
  EXPECT_DOUBLE_EQ(parse_time("0.5"), 0.5);
}

TEST(Units, Size) {
  EXPECT_DOUBLE_EQ(parse_size("3.2MB"), 3.2e6);
  EXPECT_DOUBLE_EQ(parse_size("10KiB"), 10240.0);
  EXPECT_DOUBLE_EQ(parse_size("8b"), 1.0);  // bits
  EXPECT_THROW(parse_size(""), InvalidArgument);
}

// -- config -----------------------------------------------------------------------

TEST(Config, DeclareGetSet) {
  const sg::config::NumberKey key{"test/x-y"};
  sg::config::declare(key, 3.5, "test key");
  EXPECT_DOUBLE_EQ(sg::config::get(key), 3.5);
  sg::config::set(key, 4.0);
  EXPECT_DOUBLE_EQ(sg::config::get(key), 4.0);
  sg::config::declare(key, 99.0, "test key");  // re-declare keeps current value
  EXPECT_DOUBLE_EQ(sg::config::get(key), 4.0);
}

TEST(Config, UnknownKeyThrows) {
  EXPECT_THROW(sg::config::get(sg::config::NumberKey{"test/nope"}), InvalidArgument);
  EXPECT_THROW(sg::config::set(sg::config::NumberKey{"test/nope"}, 1.0), InvalidArgument);
  EXPECT_THROW(sg::config::apply("test/nope:1"), InvalidArgument);
}

TEST(Config, StringsAndApply) {
  const sg::config::NumberKey a{"test/a"};
  const sg::config::StringKey mode{"test/mode"};
  sg::config::declare(a, 1.0, "test number");
  sg::config::declare(mode, "fluid", "test string");
  sg::config::apply("test/a:2.5, test/mode: packet ");
  EXPECT_DOUBLE_EQ(sg::config::get(a), 2.5);
  EXPECT_EQ(sg::config::get(mode), "packet");  // values are trimmed
  EXPECT_THROW(sg::config::apply("bogus"), InvalidArgument);
  EXPECT_THROW(sg::config::apply("test/a:2.5x"), InvalidArgument);
}

TEST(Config, EnvSeedGoesThroughTheTypedParser) {
  ::setenv("SG_TEST_CFG_FLAG", "on", 1);
  sg::config::declare(sg::config::FlagKey{"test/env-flag"}, false, "test flag", "SG_TEST_CFG_FLAG");
  ::unsetenv("SG_TEST_CFG_FLAG");
  EXPECT_TRUE(sg::config::get(sg::config::FlagKey{"test/env-flag"}));

  ::setenv("SG_TEST_CFG_BAD", "sometimes", 1);
  try {
    sg::config::declare(sg::config::FlagKey{"test/env-bad"}, false, "test flag", "SG_TEST_CFG_BAD");
    ADD_FAILURE() << "malformed env seed was accepted";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test/env-bad"), std::string::npos) << msg;
    EXPECT_NE(msg.find("SG_TEST_CFG_BAD"), std::string::npos) << msg;
  }
  ::unsetenv("SG_TEST_CFG_BAD");
}

}  // namespace
