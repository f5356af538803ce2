// Randomized testing of the query engine. For each seed we generate a
// random dataset and a few hundred random queries, then check invariants
// that must hold regardless of physical layout:
//
//   1. Every split (one to five segments) and every index configuration
//      (none / inverted / sorted / star-tree) returns the row oracle's
//      answer, so a bug shared by all layouts still shows.
//   2. Executing through serialized-and-reloaded segments returns the
//      oracle's answer too (the on-disk format is lossless).
//   3. Tracing and EXPLAIN are pure observers.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "query/parser.h"
#include "query/result.h"
#include "query/table_executor.h"
#include "segment/segment_builder.h"
#include "tests/row_oracle.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

Schema FuzzSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("d_str", DataType::kString),
      FieldSpec::Dimension("d_int", DataType::kLong),
      FieldSpec::Dimension("d_small", DataType::kString),
      FieldSpec::Dimension("d_multi", DataType::kString, false),
      FieldSpec::Metric("m_long", DataType::kLong),
      FieldSpec::Metric("m_double", DataType::kDouble),
      FieldSpec::Time("t", DataType::kLong),
  });
}

std::vector<Row> MakeRows(Random& rng, int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    Row row;
    row.SetString("d_str", "v" + std::to_string(rng.NextUint64(40)));
    row.SetLong("d_int", static_cast<int64_t>(rng.NextUint64(100)));
    row.SetString("d_small", "s" + std::to_string(rng.NextUint64(5)));
    std::vector<std::string> multi;
    const int entries = static_cast<int>(rng.NextUint64(4));  // 0..3.
    for (int e = 0; e < entries; ++e) {
      multi.push_back("tag" + std::to_string(rng.NextUint64(12)));
    }
    row.SetStringArray("d_multi", std::move(multi));
    row.SetLong("m_long", static_cast<int64_t>(rng.NextUint64(1000)));
    row.SetDouble("m_double", rng.NextDouble() * 100 - 50);
    row.SetLong("t", 500 + static_cast<int64_t>(rng.NextUint64(30)));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RandomLiteral(Random& rng, const std::string& column) {
  if (column == "d_str") return "'v" + std::to_string(rng.NextUint64(45)) + "'";
  if (column == "d_int") return std::to_string(rng.NextUint64(110));
  if (column == "d_small") return "'s" + std::to_string(rng.NextUint64(6)) + "'";
  if (column == "d_multi") {
    return "'tag" + std::to_string(rng.NextUint64(14)) + "'";
  }
  if (column == "t") return std::to_string(495 + rng.NextUint64(40));
  return std::to_string(rng.NextUint64(1000));
}

std::string RandomPredicate(Random& rng) {
  static const char* kColumns[] = {"d_str", "d_int", "d_small", "d_multi",
                                   "t"};
  const std::string column = kColumns[rng.NextUint64(5)];
  switch (rng.NextUint64(6)) {
    case 0:
      return column + " = " + RandomLiteral(rng, column);
    case 1:
      return column + " != " + RandomLiteral(rng, column);
    case 2:
      return column + " IN (" + RandomLiteral(rng, column) + ", " +
             RandomLiteral(rng, column) + ", " + RandomLiteral(rng, column) +
             ")";
    case 3:
      return column + " NOT IN (" + RandomLiteral(rng, column) + ", " +
             RandomLiteral(rng, column) + ")";
    case 4: {
      // Ranges only on numeric columns to keep semantics obvious.
      if (column == "d_str" || column == "d_small" || column == "d_multi") {
        return column + " = " + RandomLiteral(rng, column);
      }
      const std::string a = RandomLiteral(rng, column);
      const std::string b = RandomLiteral(rng, column);
      return column + " BETWEEN " + (a < b ? a : b) + " AND " +
             (a < b ? b : a);
    }
    default: {
      static const char* kOps[] = {">", ">=", "<", "<="};
      const std::string numeric = rng.NextBool() ? "d_int" : "t";
      return numeric + " " + kOps[rng.NextUint64(4)] + " " +
             RandomLiteral(rng, numeric);
    }
  }
}

std::string RandomQuery(Random& rng) {
  static const char* kAggs[] = {
      "count(*)",         "sum(m_long)",           "min(m_double)",
      "max(m_long)",      "avg(m_double)",         "distinctcount(d_int)",
      "sum(m_double)",    "distinctcount(d_str)",
  };
  std::string pql = "SELECT ";
  const int num_aggs = 1 + static_cast<int>(rng.NextUint64(3));
  for (int i = 0; i < num_aggs; ++i) {
    if (i > 0) pql += ", ";
    pql += kAggs[rng.NextUint64(8)];
  }
  pql += " FROM fuzz";
  const int num_preds = static_cast<int>(rng.NextUint64(4));  // 0..3.
  for (int i = 0; i < num_preds; ++i) {
    pql += i == 0 ? " WHERE " : (rng.NextBool(0.7) ? " AND " : " OR ");
    pql += RandomPredicate(rng);
  }
  if (rng.NextBool(0.4)) {
    static const char* kGroups[] = {"d_str", "d_small", "d_int", "d_multi"};
    pql += std::string(" GROUP BY ") + kGroups[rng.NextUint64(4)] +
           " TOP 1000";
  }
  return pql;
}

using Segments = std::vector<std::shared_ptr<SegmentInterface>>;

Segments BuildSplit(const Schema& schema, const std::vector<Row>& rows,
                    int num_segments, SegmentBuildConfig config) {
  Segments segments;
  const size_t per = (rows.size() + num_segments - 1) / num_segments;
  size_t next = 0;
  for (int s = 0; s < num_segments && next < rows.size(); ++s) {
    SegmentBuildConfig segment_config = config;
    segment_config.table_name = "fuzz";
    segment_config.segment_name = "fuzz_" + std::to_string(s);
    SegmentBuilder builder(schema, segment_config);
    for (size_t i = 0; i < per && next < rows.size(); ++i, ++next) {
      EXPECT_TRUE(builder.AddRow(rows[next]).ok());
    }
    auto segment = builder.Build();
    EXPECT_TRUE(segment.ok()) << segment.status().ToString();
    segments.push_back(*segment);
  }
  return segments;
}

// Renders a result into a canonical comparable form (group rows as a
// sorted map keyed by group values).
std::string Canonical(const QueryResult& result) {
  std::string out;
  for (const auto& v : result.aggregates) {
    out += ValueToString(v) + "|";
  }
  std::map<std::string, std::string> groups;
  for (const auto& row : result.group_rows) {
    std::string vals;
    for (const auto& v : row.values) vals += ValueToString(v) + ",";
    groups[EncodeGroupKey(row.keys)] = vals;
  }
  for (const auto& [k, v] : groups) out += k + "=" + v + ";";
  return out;
}

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, LayoutsAndSplitsAgree) {
  const uint64_t seed = GetParam();
  Random rng(seed);
  const Schema schema = FuzzSchema();
  const std::vector<Row> rows = MakeRows(rng, 1500);

  SegmentBuildConfig none;
  SegmentBuildConfig inverted;
  inverted.inverted_index_columns = {"d_str", "d_int", "d_small", "d_multi",
                                     "t"};
  SegmentBuildConfig sorted;
  sorted.sort_columns = {"d_int", "t"};
  SegmentBuildConfig star;
  star.sort_columns = {"d_str"};
  star.star_tree.dimensions = {"d_str", "d_small", "d_int", "t"};
  star.star_tree.metrics = {"m_long", "m_double"};
  star.star_tree.max_leaf_records = 32;

  struct Config {
    const char* name;
    Segments segments;
    bool doc_order;  // One unsorted segment: doubles match bit for bit.
  };
  std::vector<Config> configs;
  configs.push_back({"none-1seg", BuildSplit(schema, rows, 1, none), true});
  configs.push_back({"none-5seg", BuildSplit(schema, rows, 5, none), false});
  configs.push_back(
      {"inverted-3seg", BuildSplit(schema, rows, 3, inverted), false});
  configs.push_back(
      {"sorted-4seg", BuildSplit(schema, rows, 4, sorted), false});
  configs.push_back(
      {"startree-2seg", BuildSplit(schema, rows, 2, star), false});

  // Serialize/reload the one-segment split.
  {
    auto immutable =
        std::dynamic_pointer_cast<ImmutableSegment>(configs[0].segments[0]);
    auto reloaded =
        ImmutableSegment::DeserializeFromBlob(immutable->SerializeToBlob());
    ASSERT_TRUE(reloaded.ok());
    configs.push_back({"reloaded-1seg", {*reloaded}, true});
  }

  for (int q = 0; q < 150; ++q) {
    const std::string pql = RandomQuery(rng);
    auto query = ParsePql(pql);
    ASSERT_TRUE(query.ok()) << pql;
    test::RowOracle oracle(*query);
    for (const Row& row : rows) oracle.Add(row);

    for (const auto& config : configs) {
      PartialResult partial = ExecuteQueryOnSegments(config.segments, *query);
      ASSERT_TRUE(partial.status.ok())
          << config.name << " " << pql << ": " << partial.status.ToString();
      QueryResult result = ReduceToFinalResult(*query, std::move(partial));
      ASSERT_EQ(oracle.Check(result, config.doc_order), "")
          << "seed=" << seed << " config=" << config.name << "\n  " << pql;
    }
  }
}

// Tracing must be a pure observer: executing with a span attached returns
// bit-identical results, and the produced span tree is structurally valid
// (every child interval inside its parent, one leaf per segment, a plan
// label on each).
TEST_P(QueryFuzzTest, TracedExecutionIsEquivalentAndWellFormed) {
  const uint64_t seed = GetParam();
  Random rng(seed + 1000);  // Distinct stream from LayoutsAndSplitsAgree.
  const Schema schema = FuzzSchema();
  const std::vector<Row> rows = MakeRows(rng, 800);

  SegmentBuildConfig star;
  star.sort_columns = {"d_str"};
  star.star_tree.dimensions = {"d_str", "d_small", "d_int", "t"};
  star.star_tree.metrics = {"m_long", "m_double"};
  star.star_tree.max_leaf_records = 32;
  const Segments plain = BuildSplit(schema, rows, 4, SegmentBuildConfig{});
  const Segments startree = BuildSplit(schema, rows, 3, star);

  for (int q = 0; q < 60; ++q) {
    const std::string pql = RandomQuery(rng);
    auto query = ParsePql(pql);
    ASSERT_TRUE(query.ok()) << pql;

    for (const Segments* segments : {&plain, &startree}) {
      PartialResult untraced = ExecuteQueryOnSegments(*segments, *query);
      const std::string reference =
          Canonical(ReduceToFinalResult(*query, std::move(untraced)));

      Query traced_query = *query;
      traced_query.trace = true;
      TraceSpan parent = TraceSpan::Open("combine");
      PartialResult traced =
          ExecuteQueryOnSegments(*segments, traced_query, nullptr, &parent);
      parent.Close();

      ASSERT_EQ(parent.children.size(), segments->size())
          << "seed=" << seed << " " << pql;
      std::string why;
      ASSERT_TRUE(parent.WellFormed(&why, /*slack_micros=*/2000))
          << "seed=" << seed << " " << pql << ": " << why << "\n"
          << parent.ToString();
      for (const TraceSpan& leaf : parent.children) {
        EXPECT_EQ(leaf.name.rfind("segment:", 0), 0u) << leaf.name;
        EXPECT_FALSE(leaf.LabelValue("plan").empty())
            << pql << "\n" << parent.ToString();
      }
      EXPECT_EQ(Canonical(ReduceToFinalResult(*query, std::move(traced))),
                reference)
          << "seed=" << seed << " " << pql;
    }
  }
}

// EXPLAIN over fuzzed queries: planning never reads data and agrees with
// what a traced execution actually chose per segment.
TEST_P(QueryFuzzTest, ExplainAgreesWithExecutedPlan) {
  const uint64_t seed = GetParam();
  Random rng(seed + 2000);
  const Schema schema = FuzzSchema();
  const std::vector<Row> rows = MakeRows(rng, 600);

  SegmentBuildConfig star;
  star.sort_columns = {"d_str"};
  star.star_tree.dimensions = {"d_str", "d_small", "d_int", "t"};
  star.star_tree.metrics = {"m_long", "m_double"};
  star.star_tree.max_leaf_records = 32;
  const Segments segments = BuildSplit(schema, rows, 3, star);

  for (int q = 0; q < 40; ++q) {
    const std::string pql = RandomQuery(rng);
    auto parsed = ParsePql(pql);
    ASSERT_TRUE(parsed.ok()) << pql;

    Query explain_query = *parsed;
    explain_query.explain = true;
    TraceSpan explain_parent = TraceSpan::Open("combine");
    PartialResult planned =
        ExecuteQueryOnSegments(segments, explain_query, nullptr,
                               &explain_parent);
    EXPECT_EQ(planned.stats.docs_scanned, 0u) << pql;
    EXPECT_TRUE(planned.groups.empty()) << pql;
    EXPECT_TRUE(planned.selection_rows.empty()) << pql;

    Query traced_query = *parsed;
    traced_query.trace = true;
    TraceSpan traced_parent = TraceSpan::Open("combine");
    ExecuteQueryOnSegments(segments, traced_query, nullptr, &traced_parent);

    ASSERT_EQ(explain_parent.children.size(), traced_parent.children.size())
        << pql;
    for (size_t i = 0; i < explain_parent.children.size(); ++i) {
      EXPECT_EQ(explain_parent.children[i].LabelValue("plan"),
                traced_parent.children[i].LabelValue("plan"))
          << "seed=" << seed << " segment "
          << explain_parent.children[i].name << "\n  " << pql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace pinot
