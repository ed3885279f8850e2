// Tests for the benchmark harness: stats, tables, options, and the handoff
// runner (run against a real queue so the harness itself is validated).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/synchronous_queue.hpp"
#include "harness/options.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"

using namespace ssq;
using namespace ssq::harness;

// ---------------------------------------------------------------- stats

TEST(Stats, EmptyInput) {
  auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.median, 0);
  EXPECT_EQ(s.q1, 0);
  EXPECT_EQ(s.q3, 0);
}

TEST(Stats, SingleSample) {
  auto s = summarize({5.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.q1, 5.0);
  EXPECT_DOUBLE_EQ(s.q3, 5.0);
}

TEST(Stats, KnownDistribution) {
  auto s = summarize({9.0, 4.0, 2.0, 5.0, 4.0, 7.0, 4.0, 5.0});
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.q1, 4.0); // rank 1.75 of the sorted samples
  EXPECT_DOUBLE_EQ(s.q3, 5.5); // rank 5.25: between 5 and 7
}

TEST(Stats, MedianOddCount) {
  auto s = summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 15.0); // between ranks
}

TEST(Stats, PercentileEdgeCases) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 0.5), 0.0);
  std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.99), 7.0);
  std::vector<double> unsorted{3, 1, 2};
  EXPECT_DOUBLE_EQ(percentile(unsorted, 0.5), 2.0) << "must sort input";
  EXPECT_DOUBLE_EQ(percentile(unsorted, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(unsorted, 2.0), 3.0);
}

// ---------------------------------------------------------------- table

TEST(Table, WritesJsonWithSpread) {
  table t({"N", "algo_a", "algo_b"});
  t.add_row({"1", summarize({1000.0, 1234.56, 1300.0}), "x"});
  t.add_row({"2", "8.0", "9.5"});
  t.set_meta("reps", "3");
  std::string path = ::testing::TempDir() + "/ssq_table_test.json";
  ASSERT_TRUE(t.write_json(path));

  FILE *f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[256];
  while (std::fgets(buf, sizeof buf, f)) json += buf;
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"meta\": {\"reps\": \"3\"}"), std::string::npos);
  EXPECT_NE(json.find("\"columns\": [\"N\", \"algo_a\", \"algo_b\"]"),
            std::string::npos);
  // A summarised cell: the median, unquoted, and its quartiles.
  EXPECT_NE(json.find("{\"N\": 1, \"algo_a\": 1234.6, \"algo_b\": \"x\", "
                      "\"spread\": {\"algo_a\": [1117.3, 1267.3]}}"),
            std::string::npos)
      << json;
  // A row of plain cells has no spread.
  EXPECT_NE(json.find("{\"N\": 2, \"algo_a\": 8.0, \"algo_b\": 9.5}"),
            std::string::npos)
      << json;
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(table::fmt(3.0, 0), "3");
}

// ---------------------------------------------------------------- options

TEST(Options, ParsesKeyValues) {
  const char *argv[] = {"prog", "--reps=5", "--json=out.json", "--verbose"};
  auto o = options::parse(4, const_cast<char **>(argv));
  EXPECT_EQ(o.get_int("reps", 1), 5);
  EXPECT_EQ(o.get("json", ""), "out.json");
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Options, ParsesIntLists) {
  const char *argv[] = {"prog", "--threads=1,2,4,8"};
  auto o = options::parse(2, const_cast<char **>(argv));
  auto v = o.get_int_list("threads", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 8);
  auto dflt = o.get_int_list("none", {3});
  ASSERT_EQ(dflt.size(), 1u);
  EXPECT_EQ(dflt[0], 3);
}

TEST(Options, ParsesDoubles) {
  const char *argv[] = {"prog", "--scale=2.5"};
  auto o = options::parse(2, const_cast<char **>(argv));
  EXPECT_DOUBLE_EQ(o.get_double("scale", 1.0), 2.5);
}

// ---------------------------------------------------------------- runner

TEST(Runner, SplitQuotaIsExact) {
  auto q = split_quota(10, 3);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0] + q[1] + q[2], 10u);
  EXPECT_EQ(q[0], 4u);
  EXPECT_EQ(q[1], 3u);
  EXPECT_EQ(q[2], 3u);
}

TEST(Runner, RunThreadsTimedMeasuresWallClock) {
  auto secs = run_threads_timed({[] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }});
  EXPECT_GE(secs, 0.045);
  EXPECT_LT(secs, 10.0);
}

TEST(Runner, HandoffRunChecksums) {
  synchronous_queue<std::uint64_t, false> q;
  auto r = run_handoff(q, 2, 2, 2000);
  EXPECT_TRUE(r.checksum_ok);
  EXPECT_EQ(r.transfers, 2000u);
  EXPECT_GT(r.ns_per_transfer, 0.0);
}

TEST(Runner, HandoffAsymmetricTopologies) {
  synchronous_queue<std::uint64_t, true> q;
  auto r1 = run_handoff(q, 1, 3, 900);
  EXPECT_TRUE(r1.checksum_ok);
  auto r2 = run_handoff(q, 3, 1, 900);
  EXPECT_TRUE(r2.checksum_ok);
}
