#include <gtest/gtest.h>

#include "common/random.h"
#include "query/segment_executor.h"
#include "tests/row_oracle.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

using test::BuildAnalyticsSegment;
using test::RunPql;

TEST(QueryExecutionTest, CountStar) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment, "SELECT count(*) FROM analytics");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 12);
  // No filter -> metadata-only plan.
  EXPECT_TRUE(result.stats.answered_from_metadata);
}

TEST(QueryExecutionTest, SumWithEqFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT sum(impressions) FROM analytics WHERE country = 'us'");
  // us rows: 10+20+50+80+100+120 = 380
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 380);
  EXPECT_EQ(result.stats.docs_matched, 6u);
}

TEST(QueryExecutionTest, MinMaxAvgFromMetadata) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT min(impressions), max(impressions) FROM analytics");
  EXPECT_TRUE(result.stats.answered_from_metadata);
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 10);
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[1]), 120);
}

TEST(QueryExecutionTest, AvgNotFromMetadata) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment, "SELECT avg(clicks) FROM analytics");
  EXPECT_FALSE(result.stats.answered_from_metadata);
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 75.0 / 12.0);
}

TEST(QueryExecutionTest, AndFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics WHERE country = 'us' "
                       "AND browser = 'firefox'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, OrFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics WHERE browser = "
                       "'firefox' OR browser = 'safari'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 8);
}

TEST(QueryExecutionTest, RangeFilterOnTime) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT count(*) FROM analytics WHERE day BETWEEN 101 AND 102");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 6);
  result = RunPql(segment, "SELECT count(*) FROM analytics WHERE day > 102");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, NotEqAndNotIn) {
  auto segment = BuildAnalyticsSegment();
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country != 'us'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 6);
  result = RunPql(
      segment,
      "SELECT count(*) FROM analytics WHERE country NOT IN ('us', 'ca')");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, InFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT count(*) FROM analytics WHERE country IN ('de', 'fr')");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, FilterMatchingNothing) {
  auto segment = BuildAnalyticsSegment();
  // 'jp' falls inside the [ca, us] stats range, so the segment cannot be
  // pruned; execution finds nothing.
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country = 'jp'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
  EXPECT_EQ(result.stats.segments_queried, 1u);

  // 'zz' is above the column max: metadata alone prunes the segment.
  result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country = 'zz'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
  EXPECT_EQ(result.stats.segments_queried, 0u);
  EXPECT_EQ(result.stats.segments_pruned, 1u);

  // Same for a time range entirely past the segment's data.
  result = RunPql(segment, "SELECT count(*) FROM analytics WHERE day > 500");
  EXPECT_EQ(result.stats.segments_pruned, 1u);
}

TEST(QueryExecutionTest, MultiValueFilter) {
  auto segment = BuildAnalyticsSegment();
  // tags contains 'a' in 5 rows.
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE tags = 'a'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);
}

TEST(QueryExecutionTest, GroupByWithTopN) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment,
      "SELECT sum(impressions) FROM analytics GROUP BY country TOP 2");
  ASSERT_EQ(result.group_rows.size(), 2u);
  // us = 380, ca = 180, de = 130, fr = 90.
  EXPECT_EQ(std::get<std::string>(result.group_rows[0].keys[0]), "us");
  EXPECT_DOUBLE_EQ(std::get<double>(result.group_rows[0].values[0]), 380);
  EXPECT_EQ(std::get<std::string>(result.group_rows[1].keys[0]), "ca");
  EXPECT_DOUBLE_EQ(std::get<double>(result.group_rows[1].values[0]), 180);
}

TEST(QueryExecutionTest, GroupByMultipleColumns) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics GROUP BY country, "
                       "browser TOP 100");
  // Distinct (country, browser) pairs in the dataset.
  EXPECT_EQ(result.group_rows.size(), 9u);
  int64_t total = 0;
  for (const auto& row : result.group_rows) {
    total += std::get<int64_t>(row.values[0]);
  }
  EXPECT_EQ(total, 12);
}

TEST(QueryExecutionTest, GroupByStringsWithSeparatorBytesStayDistinct) {
  // ("a\x1f", "b") and ("a", "\x1fb") collided into one group under the
  // old '\x1f'-separated key encoding.
  std::vector<test::AnalyticsRow> rows = {
      {"a\x1f", "b", 1, {}, 10, 1, 100},
      {"a", "\x1f"
            "b",
       2, {}, 20, 2, 100},
  };
  auto segment = BuildAnalyticsSegment({}, rows);
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics GROUP BY country, "
                       "browser TOP 10");
  ASSERT_FALSE(result.partial) << result.error_message;
  ASSERT_EQ(result.group_rows.size(), 2u);
  for (const auto& row : result.group_rows) {
    EXPECT_EQ(std::get<int64_t>(row.values[0]), 1);
  }
}

TEST(QueryExecutionTest, GroupByMultiValueColumnExplodes) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT count(*) FROM analytics GROUP BY tags TOP 100");
  // Tag counts: a=5, b=4, c=3, d=2, and 2 rows with no tags.
  int64_t a_count = 0;
  for (const auto& row : result.group_rows) {
    if (ValueToString(row.keys[0]) == "a") {
      a_count = std::get<int64_t>(row.values[0]);
    }
  }
  EXPECT_EQ(a_count, 5);
}

TEST(QueryExecutionTest, DistinctCount) {
  auto segment = BuildAnalyticsSegment();
  auto result =
      RunPql(segment, "SELECT distinctcount(memberId) FROM analytics");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);
  result = RunPql(
      segment,
      "SELECT distinctcount(memberId) FROM analytics WHERE country = 'us'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 4);  // 1,2,4,5
}

TEST(QueryExecutionTest, SelectionWithLimit) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment,
      "SELECT country, impressions FROM analytics WHERE browser = 'chrome' "
      "LIMIT 2");
  ASSERT_EQ(result.selection_rows.size(), 2u);
  EXPECT_EQ(result.selection_columns,
            (std::vector<std::string>{"country", "impressions"}));
}

TEST(QueryExecutionTest, SelectionOrderBy) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT memberId, impressions FROM analytics ORDER BY "
                       "impressions DESC LIMIT 3");
  ASSERT_EQ(result.selection_rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(result.selection_rows[0][1]), 120);
  EXPECT_EQ(std::get<int64_t>(result.selection_rows[1][1]), 110);
  EXPECT_EQ(std::get<int64_t>(result.selection_rows[2][1]), 100);
}

TEST(QueryExecutionTest, SelectStarExpandsSchema) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment, "SELECT * FROM analytics LIMIT 1");
  ASSERT_EQ(result.selection_rows.size(), 1u);
  EXPECT_EQ(result.selection_rows[0].size(), 7u);
}

TEST(QueryExecutionTest, UnknownColumnMakesResultPartial) {
  auto segment = BuildAnalyticsSegment();
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE nope = 1");
  EXPECT_TRUE(result.partial);
}

TEST(QueryExecutionTest, MultipleSegmentsMerge) {
  std::vector<std::shared_ptr<SegmentInterface>> segments = {
      BuildAnalyticsSegment(), BuildAnalyticsSegment()};
  auto result = RunPql(segments,
                       "SELECT sum(impressions) FROM analytics WHERE "
                       "country = 'us'");
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 760);
  // Group rows merge across segments by value, not dictionary id.
  result = RunPql(segments,
                  "SELECT count(*) FROM analytics GROUP BY browser TOP 10");
  EXPECT_EQ(result.group_rows.size(), 3u);
  for (const auto& row : result.group_rows) {
    if (ValueToString(row.keys[0]) == "firefox") {
      EXPECT_EQ(std::get<int64_t>(row.values[0]), 10);
    }
  }
}

TEST(QueryExecutionTest, DistinctCountMergesAcrossSegments) {
  std::vector<std::shared_ptr<SegmentInterface>> segments = {
      BuildAnalyticsSegment(), BuildAnalyticsSegment()};
  auto result =
      RunPql(segments, "SELECT distinctcount(memberId) FROM analytics");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);  // Not 10.
}

TEST(QueryExecutionTest, FilterOnSchemaEvolvedColumn) {
  auto segment = BuildAnalyticsSegment();
  // Simulate a schema-evolved query against a segment lacking the column:
  // add the field to the segment's schema via a fresh schema + query path.
  // The executor treats missing columns as default-filled.
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country = ''");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
}

// Index-equivalence property: the same queries return identical results
// with no index, inverted indexes, sorted column, or star-tree.
class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalenceTest, AllIndexConfigurationsAgree) {
  SegmentBuildConfig config;
  switch (GetParam()) {
    case 0:
      break;  // No indexes.
    case 1:
      config.inverted_index_columns = {"country", "browser", "memberId",
                                       "tags", "day"};
      break;
    case 2:
      config.sort_columns = {"memberId", "day"};
      break;
    case 3:
      config.sort_columns = {"country"};
      config.inverted_index_columns = {"browser"};
      config.star_tree.dimensions = {"country", "browser", "day"};
      config.star_tree.metrics = {"impressions", "clicks"};
      config.star_tree.max_leaf_records = 1;
      break;
  }
  auto segment = BuildAnalyticsSegment(config);
  auto baseline = BuildAnalyticsSegment();

  const std::vector<std::string> queries = {
      "SELECT count(*) FROM t WHERE country = 'us'",
      "SELECT sum(impressions) FROM t WHERE browser = 'firefox'",
      "SELECT sum(impressions), sum(clicks) FROM t WHERE browser = 'firefox' "
      "OR browser = 'safari'",
      "SELECT sum(clicks) FROM t WHERE country = 'us' AND browser = 'chrome'",
      "SELECT count(*) FROM t WHERE day BETWEEN 101 AND 102",
      "SELECT sum(impressions) FROM t WHERE country IN ('us', 'de') AND day "
      ">= 101",
      "SELECT count(*) FROM t WHERE country != 'us'",
      "SELECT sum(impressions) FROM t GROUP BY country TOP 10",
      "SELECT sum(impressions) FROM t WHERE browser = 'firefox' GROUP BY "
      "country TOP 10",
      "SELECT min(impressions), max(impressions), avg(impressions) FROM t "
      "WHERE day > 100",
  };
  for (const auto& pql : queries) {
    auto a = RunPql(segment, pql);
    auto b = RunPql(baseline, pql);
    ASSERT_FALSE(a.partial) << pql << ": " << a.error_message;
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << pql;
    for (size_t i = 0; i < a.aggregates.size(); ++i) {
      EXPECT_EQ(ValueToString(a.aggregates[i]), ValueToString(b.aggregates[i]))
          << pql;
    }
    ASSERT_EQ(a.group_rows.size(), b.group_rows.size()) << pql;
    for (size_t g = 0; g < a.group_rows.size(); ++g) {
      EXPECT_EQ(ValueToString(a.group_rows[g].keys[0]),
                ValueToString(b.group_rows[g].keys[0]))
          << pql;
      EXPECT_EQ(ValueToString(a.group_rows[g].values[0]),
                ValueToString(b.group_rows[g].values[0]))
          << pql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(IndexConfigs, IndexEquivalenceTest,
                         ::testing::Values(0, 1, 2, 3));

// --- Batched scan path vs the row oracle ------------------------------------
//
// The block-decode aggregation kernels, packed group-by keys (dense and
// radix tables) and the per-doc / string-key path for what packed keys
// cannot express must all give the row oracle's answer. One segment and
// no sort column keep doc order equal to row order, so doubles are
// compared bit for bit.

std::vector<test::AnalyticsRow> LargeRandomRows() {
  const std::vector<std::string> countries = {"us", "ca", "de", "fr", "jp",
                                              "br", "in", "uk"};
  const std::vector<std::string> browsers = {"firefox", "chrome", "safari",
                                             "edge"};
  const std::vector<std::string> tag_pool = {"a", "b", "c", "d", "e"};
  Random rng(20260805);
  std::vector<test::AnalyticsRow> rows;
  for (int i = 0; i < 3000; ++i) {
    test::AnalyticsRow r;
    r.country = countries[rng.NextUint64(countries.size())];
    r.browser = browsers[rng.NextUint64(browsers.size())];
    r.member_id = static_cast<int64_t>(rng.NextUint64(500));
    const uint64_t num_tags = rng.NextUint64(4);
    for (uint64_t t = 0; t < num_tags; ++t) {
      r.tags.push_back(tag_pool[rng.NextUint64(tag_pool.size())]);
    }
    r.impressions = static_cast<int64_t>(rng.NextUint64(10000));
    r.clicks = static_cast<int64_t>(rng.NextUint64(100));
    r.day = 100 + static_cast<int64_t>(rng.NextUint64(30));
    rows.push_back(std::move(r));
  }
  return rows;
}

// The kernel or group table a traced run picked (`kernel` on aggregate
// spans, `group_table` on group-by spans).
std::string PathLabel(const TraceSpan& segment_span) {
  for (const TraceSpan& phase : segment_span.children) {
    for (const char* key : {"kernel", "group_table"}) {
      const std::string value = phase.LabelValue(key);
      if (!value.empty()) return value;
    }
  }
  return segment_span.LabelValue("plan");
}

TEST(BatchedScanOracleTest, BatchedPathsMatchRowOracle) {
  const std::vector<std::vector<test::AnalyticsRow>> datasets = {
      test::AnalyticsRows(), LargeRandomRows()};
  // Each query with the path it takes on the 3000-row segment.
  const std::vector<std::pair<std::string, std::string>> queries = {
      // Range-like doc sets (no filter / sorted-range).
      {"SELECT sum(impressions), min(impressions), max(impressions), "
       "avg(clicks) FROM t",
       "batched"},
      {"SELECT sum(impressions) FROM t WHERE day BETWEEN 101 AND 110",
       "batched"},
      // Bitmap doc sets.
      {"SELECT sum(impressions), avg(impressions) FROM t WHERE browser = "
       "'firefox' OR browser = 'safari'",
       "batched"},
      {"SELECT min(clicks), max(clicks) FROM t WHERE country IN ('us', 'de') "
       "AND day >= 101",
       "batched"},
      // Group-bys: single column, multi column, high-cardinality column,
      // and filtered variants.
      {"SELECT sum(impressions) FROM t GROUP BY country TOP 1000", "dense"},
      {"SELECT count(*), sum(impressions), min(impressions), "
       "max(impressions), avg(clicks) FROM t GROUP BY country, browser TOP "
       "1000",
       "dense"},
      {"SELECT sum(impressions) FROM t WHERE browser = 'firefox' GROUP BY "
       "country, day TOP 1000",
       "dense"},
      {"SELECT count(*) FROM t GROUP BY memberId, country TOP 10000",
       "dense"},
      // Past the dense limit: 9 + 3 + 5 + 12 key bits.
      {"SELECT count(*), sum(clicks) FROM t GROUP BY memberId, country, day, "
       "impressions TOP 10000",
       "radix(64)"},
      // Multi-value group column: string keys, exploded per entry.
      {"SELECT count(*), sum(impressions) FROM t GROUP BY tags TOP 1000",
       "string"},
      {"SELECT count(*) FROM t GROUP BY country, tags TOP 1000", "string"},
      // DISTINCTCOUNT stays on the per-doc path.
      {"SELECT distinctcount(browser) FROM t WHERE country = 'us' GROUP BY "
       "country TOP 1000",
       "string"},
      {"SELECT distinctcount(tags), sum(clicks) FROM t WHERE day < 105",
       "per-doc"},
  };

  for (const auto& dataset : datasets) {
    auto segment = BuildAnalyticsSegment({}, dataset);
    std::vector<Row> rows;
    for (const auto& r : dataset) rows.push_back(test::ToRow(r));
    for (const auto& [pql, path] : queries) {
      auto query = ParsePql("TRACE " + pql);
      ASSERT_TRUE(query.ok()) << pql << ": " << query.status().ToString();
      PartialResult partial;
      TraceSpan span = TraceSpan::Open("segment");
      Status st = ExecuteQueryOnSegment(*segment, *query, &partial, &span);
      ASSERT_TRUE(st.ok()) << pql << ": " << st.ToString();
      if (&dataset == &datasets.back()) {
        EXPECT_EQ(PathLabel(span), path) << pql;
      }
      const QueryResult result =
          ReduceToFinalResult(*query, std::move(partial));
      EXPECT_EQ(test::CheckAgainstRows(*query, rows, result, /*exact=*/true),
                "")
          << pql << " over " << rows.size() << " rows";
    }
  }
}

}  // namespace
}  // namespace pinot
