#ifndef PINOT_TESTS_TEST_UTIL_H_
#define PINOT_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/row.h"
#include "data/schema.h"
#include "query/parser.h"
#include "query/result.h"
#include "query/table_executor.h"
#include "segment/segment.h"
#include "segment/segment_builder.h"

namespace pinot {
namespace test {

/// Schema used by most query tests: a small web-analytics-style table.
inline Schema AnalyticsSchema() {
  auto schema = Schema::Make({
      FieldSpec::Dimension("country", DataType::kString),
      FieldSpec::Dimension("browser", DataType::kString),
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Dimension("tags", DataType::kString, /*single_value=*/false),
      FieldSpec::Metric("impressions", DataType::kLong),
      FieldSpec::Metric("clicks", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return *schema;
}

struct AnalyticsRow {
  std::string country;
  std::string browser;
  int64_t member_id;
  std::vector<std::string> tags;
  int64_t impressions;
  int64_t clicks;
  int64_t day;
};

inline Row ToRow(const AnalyticsRow& r) {
  Row row;
  row.SetString("country", r.country)
      .SetString("browser", r.browser)
      .SetLong("memberId", r.member_id)
      .SetStringArray("tags", r.tags)
      .SetLong("impressions", r.impressions)
      .SetLong("clicks", r.clicks)
      .SetLong("day", r.day);
  return row;
}

/// A deterministic 12-row dataset exercised by most execution tests.
inline std::vector<AnalyticsRow> AnalyticsRows() {
  return {
      {"us", "firefox", 1, {"a", "b"}, 10, 1, 100},
      {"us", "chrome", 2, {"a"}, 20, 2, 100},
      {"ca", "firefox", 3, {}, 30, 0, 100},
      {"ca", "safari", 1, {"c"}, 40, 4, 101},
      {"us", "safari", 2, {"a", "c"}, 50, 5, 101},
      {"de", "chrome", 3, {"b"}, 60, 6, 101},
      {"de", "firefox", 4, {"b", "c"}, 70, 7, 102},
      {"us", "chrome", 4, {}, 80, 8, 102},
      {"fr", "safari", 5, {"a"}, 90, 9, 102},
      {"us", "firefox", 5, {"d"}, 100, 10, 103},
      {"ca", "chrome", 1, {"a", "d"}, 110, 11, 103},
      {"us", "firefox", 1, {"b"}, 120, 12, 103},
  };
}

inline std::shared_ptr<ImmutableSegment> BuildAnalyticsSegment(
    SegmentBuildConfig config = {},
    std::vector<AnalyticsRow> rows = AnalyticsRows()) {
  if (config.table_name.empty()) config.table_name = "analytics";
  if (config.segment_name.empty()) config.segment_name = "analytics_0";
  SegmentBuilder builder(AnalyticsSchema(), std::move(config));
  for (const auto& r : rows) {
    Status st = builder.AddRow(ToRow(r));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  auto segment = builder.Build();
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return *segment;
}

/// Parses and runs `pql` over the given segments, returning the final
/// (broker-reduced) result.
inline QueryResult RunPql(
    const std::vector<std::shared_ptr<SegmentInterface>>& segments,
    const std::string& pql) {
  auto query = ParsePql(pql);
  EXPECT_TRUE(query.ok()) << pql << ": " << query.status().ToString();
  PartialResult partial = ExecuteQueryOnSegments(segments, *query);
  return ReduceToFinalResult(*query, std::move(partial));
}

inline QueryResult RunPql(std::shared_ptr<ImmutableSegment> segment,
                          const std::string& pql) {
  return RunPql(
      std::vector<std::shared_ptr<SegmentInterface>>{std::move(segment)},
      pql);
}

/// The broker's call spans ("call:<server>" / "hedge:<server>"), one per
/// scatter call, across every scatter of the result's span tree; empty
/// when the result carries no span.
inline std::vector<const TraceSpan*> CallSpans(const QueryResult& result) {
  std::vector<const TraceSpan*> calls;
  if (!result.span.has_value()) return calls;
  for (const TraceSpan& scatter : result.span->children) {
    if (scatter.name.rfind("scatter:", 0) != 0) continue;
    for (const TraceSpan& call : scatter.children) calls.push_back(&call);
  }
  return calls;
}

/// The server a call span went to.
inline std::string CallServer(const TraceSpan& call) {
  return call.name.substr(call.name.find(':') + 1);
}

/// Replica-pick reasons of a call span: its whole-call `pick` label, or one
/// `pick:<segment>` label per segment.
inline std::vector<std::string> PickReasons(const TraceSpan& call) {
  std::vector<std::string> reasons;
  for (const auto& [key, value] : call.labels) {
    if (key == "pick" || key.rfind("pick:", 0) == 0) reasons.push_back(value);
  }
  return reasons;
}

}  // namespace test
}  // namespace pinot

#endif  // PINOT_TESTS_TEST_UTIL_H_
