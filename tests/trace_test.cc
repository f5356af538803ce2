// Tests for the hierarchical query-tracing subsystem: TraceSpan structure
// and rendering, the slow-query log, and end-to-end TRACE / EXPLAIN queries
// through a full (hybrid) cluster.

#include "trace/trace.h"

#include <gtest/gtest.h>

#include "cluster/pinot_cluster.h"
#include "tests/test_util.h"
#include "trace/slow_query_log.h"

namespace pinot {
namespace {

using test::AnalyticsRows;
using test::AnalyticsSchema;
using test::BuildAnalyticsSegment;
using test::ToRow;

// Clock-granularity slack for containment checks: spans on different
// components are stamped at slightly different instants.
constexpr int64_t kSlackMicros = 2000;

// --- TraceSpan unit tests ---------------------------------------------------

TEST(TraceSpanTest, RenderGrammar) {
  TraceSpan root = TraceSpan::OpenAt("broker:b0", 1000);
  root.duration_micros = 12345;  // 12.345ms
  TraceSpan child = TraceSpan::OpenAt("segment:seg0", 1100);
  child.duration_micros = 900;  // 0.900ms
  child.Label("plan", "raw");
  child.Annotate("docs_scanned", 42);
  root.AddChild(std::move(child));

  EXPECT_EQ(root.ToString(),
            "broker:b0 12.345ms\n"
            "  segment:seg0 0.900ms {plan=raw, docs_scanned=42}\n");
}

TEST(TraceSpanTest, RenderPadsSubMillisecondDurations) {
  TraceSpan span = TraceSpan::OpenAt("x", 0);
  span.duration_micros = 7;  // Must render as 0.007, not 0.7.
  EXPECT_EQ(span.ToString(), "x 0.007ms\n");
}

TEST(TraceSpanTest, FindAnnotationLabel) {
  TraceSpan root = TraceSpan::OpenAt("root", 0);
  TraceSpan mid = TraceSpan::OpenAt("mid", 0);
  TraceSpan leaf = TraceSpan::OpenAt("leaf", 0);
  leaf.Annotate("docs", 7);
  leaf.Label("plan", "star-tree");
  mid.AddChild(std::move(leaf));
  root.AddChild(std::move(mid));

  const TraceSpan* found = root.Find("leaf");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->Annotation("docs"), 7);
  EXPECT_EQ(found->Annotation("missing", -1), -1);
  EXPECT_EQ(found->LabelValue("plan"), "star-tree");
  EXPECT_EQ(found->LabelValue("missing"), "");
  EXPECT_EQ(root.Find("nope"), nullptr);
  EXPECT_EQ(root.Find("root"), &root);
}

TEST(TraceSpanTest, WellFormedAcceptsContainedChildren) {
  TraceSpan root = TraceSpan::OpenAt("root", 1000);
  root.duration_micros = 100;
  TraceSpan child = TraceSpan::OpenAt("child", 1010);
  child.duration_micros = 50;
  root.AddChild(std::move(child));
  std::string why;
  EXPECT_TRUE(root.WellFormed(&why)) << why;
}

TEST(TraceSpanTest, WellFormedRejectsChildOutsideParent) {
  TraceSpan root = TraceSpan::OpenAt("root", 1000);
  root.duration_micros = 100;
  TraceSpan child = TraceSpan::OpenAt("child", 1090);
  child.duration_micros = 500;  // Ends at 1590 > 1100.
  root.AddChild(std::move(child));
  std::string why;
  EXPECT_FALSE(root.WellFormed(&why));
  EXPECT_NE(why.find("ends after parent"), std::string::npos) << why;
  // Slack big enough to cover the overhang makes it pass again.
  EXPECT_TRUE(root.WellFormed(&why, /*slack_micros=*/500));
}

TEST(TraceSpanTest, WellFormedRejectsNegativeDuration) {
  TraceSpan span = TraceSpan::OpenAt("x", 0);
  span.duration_micros = -1;
  std::string why;
  EXPECT_FALSE(span.WellFormed(&why));
  EXPECT_NE(why.find("negative"), std::string::npos) << why;
}

// --- SlowQueryLog unit tests ------------------------------------------------

TraceSpan TinySpan() {
  TraceSpan span = TraceSpan::OpenAt("broker:b0", 0);
  span.duration_micros = 1000;
  return span;
}

TEST(SlowQueryLogTest, ThresholdFiltersFastQueries) {
  SlowQueryLog log(SlowQueryLog::Options{/*threshold_millis=*/50.0,
                                         /*capacity=*/4});
  log.Record(10.0, "fast", TinySpan());
  EXPECT_EQ(log.size(), 0u);
  log.Record(50.0, "at threshold", TinySpan());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_NE(log.Dump().find("at threshold"), std::string::npos);
}

TEST(SlowQueryLogTest, KeepsWorstNInOrder) {
  SlowQueryLog log(SlowQueryLog::Options{/*threshold_millis=*/0.0,
                                         /*capacity=*/3});
  log.Record(30.0, "q30", TinySpan());
  log.Record(10.0, "q10", TinySpan());
  log.Record(50.0, "q50", TinySpan());
  log.Record(40.0, "q40", TinySpan());  // Evicts q10.
  log.Record(5.0, "q5", TinySpan());    // Below the current worst 3; dropped.

  const auto worst = log.Worst();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0].description, "q50");
  EXPECT_EQ(worst[1].description, "q40");
  EXPECT_EQ(worst[2].description, "q30");
  // Top-n cap applies to both Worst and Dump.
  EXPECT_EQ(log.Worst(1).size(), 1u);
  const std::string top1 = log.Dump(1);
  EXPECT_NE(top1.find("q50"), std::string::npos);
  EXPECT_EQ(top1.find("q40"), std::string::npos);
}

TEST(SlowQueryLogTest, DumpContainsRenderedTrace) {
  SlowQueryLog log(SlowQueryLog::Options{0.0, 2});
  TraceSpan root = TinySpan();
  TraceSpan child = TraceSpan::OpenAt("reduce", 0);
  child.duration_micros = 10;
  root.AddChild(std::move(child));
  log.Record(12.5, "SELECT count(*) FROM t", root);
  const std::string dump = log.Dump();
  EXPECT_NE(dump.find("# slow query 1: 12.500ms"), std::string::npos) << dump;
  EXPECT_NE(dump.find("SELECT count(*) FROM t"), std::string::npos);
  EXPECT_NE(dump.find("broker:b0"), std::string::npos);
  EXPECT_NE(dump.find("  reduce"), std::string::npos);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_NE(log.Dump().find("empty"), std::string::npos);
}

// --- Cluster integration ----------------------------------------------------

class TraceClusterTest : public ::testing::Test {
 protected:
  TableConfig OfflineConfig(int replicas = 1) {
    TableConfig config;
    config.name = "analytics";
    config.type = TableType::kOffline;
    config.schema = AnalyticsSchema();
    config.num_replicas = replicas;
    return config;
  }

  TableConfig RealtimeConfig() {
    TableConfig config;
    config.name = "analytics";
    config.type = TableType::kRealtime;
    config.schema = AnalyticsSchema();
    config.num_replicas = 1;
    config.realtime.topic = "analytics-events";
    config.realtime.num_partitions = 1;
    config.realtime.flush_threshold_rows = 100000;  // Stay consuming.
    return config;
  }

  std::string BuildSegmentBlob(const std::string& name,
                               SegmentBuildConfig config = {}) {
    config.segment_name = name;
    config.table_name = "analytics_OFFLINE";
    auto segment = BuildAnalyticsSegment(std::move(config));
    return segment->SerializeToBlob();
  }

  // Offline segment (days 100-103) plus a realtime stream extending past the
  // boundary: the classic hybrid setup of paper Figure 6.
  void SetUpHybrid(PinotCluster* cluster) {
    Controller* leader = cluster->leader_controller();
    ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
    ASSERT_TRUE(
        leader->UploadSegment("analytics_OFFLINE", BuildSegmentBlob("seg0"))
            .ok());
    StreamTopic* topic =
        cluster->streams()->GetOrCreateTopic("analytics-events", 1);
    ASSERT_TRUE(leader->AddTable(RealtimeConfig()).ok());
    for (auto row : AnalyticsRows()) {
      row.day += 3;  // Days 103-106: overlaps and extends the offline data.
      topic->Produce(std::to_string(row.member_id), ToRow(row));
    }
    cluster->ProcessRealtimeTicks(2);
  }
};

TEST_F(TraceClusterTest, TraceQueryOnHybridTableYieldsSpanTree) {
  PinotCluster cluster(PinotClusterOptions{});
  SetUpHybrid(&cluster);

  auto result = cluster.Execute(
      "TRACE SELECT sum(impressions) FROM analytics WHERE country = 'us'");
  ASSERT_FALSE(result.partial) << result.error_message;
  ASSERT_TRUE(result.span.has_value());
  EXPECT_FALSE(result.explain_only);

  const TraceSpan& root = *result.span;
  EXPECT_EQ(root.name.rfind("broker:", 0), 0u) << root.name;
  std::string why;
  EXPECT_TRUE(root.WellFormed(&why, kSlackMicros)) << why << "\n"
                                                   << root.ToString();

  // The hybrid rewrite scatters to both physical tables; each scatter has
  // call -> server -> segment nesting.
  EXPECT_NE(root.Find("route"), nullptr);
  EXPECT_NE(root.Find("reduce"), nullptr);
  for (const char* scatter :
       {"scatter:analytics_OFFLINE", "scatter:analytics_REALTIME"}) {
    const TraceSpan* scatter_span = root.Find(scatter);
    ASSERT_NE(scatter_span, nullptr) << scatter << "\n" << root.ToString();
    ASSERT_FALSE(scatter_span->children.empty()) << root.ToString();
    const TraceSpan& call = scatter_span->children[0];
    EXPECT_EQ(call.name.rfind("call:", 0), 0u) << call.name;
    EXPECT_EQ(call.LabelValue("outcome"), "ok");
    EXPECT_EQ(call.LabelValue("pick"), "routing-table");
    EXPECT_EQ(call.Annotation("wave", -1), 0);
    ASSERT_FALSE(call.children.empty()) << root.ToString();
    const TraceSpan& server = call.children[0];
    EXPECT_EQ(server.name.rfind("server:", 0), 0u) << server.name;
    EXPECT_GE(server.Annotation("exec_micros", -1), 0);
    EXPECT_GE(server.Annotation("queue_micros", -1), 0);
  }

  // Per-segment leaves carry the chosen plan and doc counts. The offline
  // side runs a raw filtered scan over the 12-row fixture segment.
  const TraceSpan* segment = root.Find("segment:seg0");
  ASSERT_NE(segment, nullptr) << root.ToString();
  EXPECT_EQ(segment->LabelValue("plan"), "raw");
  // During execution the per-column filter operators land on the filter
  // phase span (EXPLAIN puts them directly on the segment span).
  const TraceSpan* filter = segment->Find("filter");
  ASSERT_NE(filter, nullptr) << root.ToString();
  EXPECT_EQ(filter->LabelValue("op:country"), "scan");
  EXPECT_GE(filter->Annotation("docs_matched", -1), 0);
  EXPECT_GT(segment->Annotation("docs_scanned", -1), 0);
  EXPECT_GT(segment->Annotation("docs_matched", -1), 0);

  // The rendered tree rides on the client-facing ToString.
  EXPECT_NE(result.ToString().find("--- trace ---"), std::string::npos);
}

TEST_F(TraceClusterTest, UntracedQueryCarriesNoSpan) {
  PinotCluster cluster(PinotClusterOptions{});
  SetUpHybrid(&cluster);
  auto result = cluster.Execute("SELECT count(*) FROM analytics");
  EXPECT_FALSE(result.span.has_value());
  EXPECT_EQ(result.ToString().find("--- trace ---"), std::string::npos);
}

TEST_F(TraceClusterTest, TraceMatchesUntracedResults) {
  PinotCluster cluster(PinotClusterOptions{});
  SetUpHybrid(&cluster);
  const std::string pql =
      "SELECT sum(impressions), count(*) FROM analytics GROUP BY country "
      "TOP 10";
  auto plain = cluster.Execute(pql);
  auto traced = cluster.Execute("TRACE " + pql);
  ASSERT_FALSE(plain.partial) << plain.error_message;
  ASSERT_FALSE(traced.partial) << traced.error_message;
  ASSERT_EQ(traced.group_rows.size(), plain.group_rows.size());
  for (size_t i = 0; i < plain.group_rows.size(); ++i) {
    EXPECT_EQ(traced.group_rows[i].keys, plain.group_rows[i].keys);
    EXPECT_EQ(traced.group_rows[i].values, plain.group_rows[i].values);
  }
  EXPECT_EQ(traced.stats.docs_scanned, plain.stats.docs_scanned);
  EXPECT_EQ(traced.stats.segments_queried, plain.stats.segments_queried);
}

TEST_F(TraceClusterTest, ExplainReportsPlansWithoutExecuting) {
  PinotCluster cluster(PinotClusterOptions{});
  Controller* leader = cluster.leader_controller();
  ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
  SegmentBuildConfig star;
  star.sort_columns = {"country"};
  star.star_tree.dimensions = {"country", "browser", "day"};
  star.star_tree.metrics = {"impressions", "clicks"};
  ASSERT_TRUE(leader
                  ->UploadSegment("analytics_OFFLINE",
                                  BuildSegmentBlob("seg_star", star))
                  .ok());

  // Metadata-only: unfiltered count(*) never touches row data.
  auto result = cluster.Execute("EXPLAIN SELECT count(*) FROM analytics");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_TRUE(result.explain_only);
  ASSERT_TRUE(result.span.has_value());
  const TraceSpan* segment = result.span->Find("segment:seg_star");
  ASSERT_NE(segment, nullptr) << result.span->ToString();
  EXPECT_EQ(segment->LabelValue("plan"), "metadata");
  // Nothing executed: no rows, no aggregates, no docs scanned.
  EXPECT_TRUE(result.aggregates.empty());
  EXPECT_TRUE(result.group_rows.empty());
  EXPECT_EQ(result.stats.docs_scanned, 0u);
  EXPECT_EQ(result.stats.segments_queried, 1u);
  EXPECT_NE(result.ToString().find("--- plan ---"), std::string::npos);

  // Star-tree-eligible aggregation group-by.
  result = cluster.Execute(
      "EXPLAIN SELECT sum(impressions) FROM analytics GROUP BY country "
      "TOP 10");
  ASSERT_TRUE(result.span.has_value());
  segment = result.span->Find("segment:seg_star");
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->LabelValue("plan"), "star-tree");
  EXPECT_EQ(result.stats.docs_scanned, 0u);

  // Filter on a non-star-tree column falls back to raw, and the would-be
  // filter operator per column is reported.
  result = cluster.Execute(
      "EXPLAIN SELECT sum(impressions) FROM analytics WHERE country = 'us' "
      "AND memberId = 1");
  ASSERT_TRUE(result.span.has_value());
  segment = result.span->Find("segment:seg_star");
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->LabelValue("plan"), "raw");
  EXPECT_EQ(segment->LabelValue("op:country"), "sorted-range");
  EXPECT_EQ(segment->LabelValue("op:memberId"), "scan");
  EXPECT_EQ(result.stats.docs_scanned, 0u);
}

TEST_F(TraceClusterTest, ExplainReportsPrunedSegments) {
  PinotCluster cluster(PinotClusterOptions{});
  Controller* leader = cluster.leader_controller();
  ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
  ASSERT_TRUE(
      leader->UploadSegment("analytics_OFFLINE", BuildSegmentBlob("seg0"))
          .ok());
  // Fixture days are 100-103; this predicate is disjoint from the segment.
  auto result =
      cluster.Execute("EXPLAIN SELECT count(*) FROM analytics WHERE day > "
                      "500");
  ASSERT_TRUE(result.span.has_value());
  const TraceSpan* segment = result.span->Find("segment:seg0");
  ASSERT_NE(segment, nullptr) << result.span->ToString();
  EXPECT_EQ(segment->LabelValue("plan"), "pruned");
  EXPECT_EQ(result.stats.segments_pruned, 1u);
  EXPECT_EQ(result.stats.segments_queried, 0u);
}

// Satellite: per-segment execution stats must survive the server combine and
// the broker merge into the final result, including star-tree counters.
TEST_F(TraceClusterTest, ExecutionStatsSurviveBrokerMerge) {
  PinotCluster cluster(PinotClusterOptions{});
  Controller* leader = cluster.leader_controller();
  ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
  SegmentBuildConfig star;
  star.sort_columns = {"country"};
  star.star_tree.dimensions = {"country", "browser", "day"};
  star.star_tree.metrics = {"impressions", "clicks"};
  ASSERT_TRUE(leader
                  ->UploadSegment("analytics_OFFLINE",
                                  BuildSegmentBlob("seg_star0", star))
                  .ok());
  ASSERT_TRUE(leader
                  ->UploadSegment("analytics_OFFLINE",
                                  BuildSegmentBlob("seg_star1", star))
                  .ok());

  auto result = cluster.Execute(
      "SELECT sum(impressions) FROM analytics GROUP BY country TOP 10");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(result.stats.segments_queried, 2u);
  EXPECT_TRUE(result.stats.used_star_tree);
  EXPECT_GT(result.stats.star_tree_records_scanned, 0u);
  EXPECT_EQ(result.total_docs, 24);
  // The client-facing rendering exposes the segment totals.
  EXPECT_NE(result.ToString().find("segments queried: 2"), std::string::npos)
      << result.ToString();

  // A raw filtered scan accumulates doc counters across both segments.
  result = cluster.Execute(
      "SELECT sum(impressions) FROM analytics WHERE memberId >= 1");
  EXPECT_EQ(result.stats.docs_scanned, 24u);
  EXPECT_EQ(result.stats.docs_matched, 24u);
}

TEST_F(TraceClusterTest, SlowQueryLogCapturesInjectedDelay) {
  PinotClusterOptions options;
  options.num_servers = 1;
  options.broker_options.slow_query_threshold_millis = 20.0;
  options.broker_options.slow_query_log_capacity = 4;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();
  ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
  ASSERT_TRUE(
      leader->UploadSegment("analytics_OFFLINE", BuildSegmentBlob("seg0"))
          .ok());

  // A fast query stays out of the log.
  cluster.Execute("SELECT count(*) FROM analytics");
  EXPECT_EQ(cluster.broker(0)->slow_query_log()->size(), 0u);

  // Delay the next server call past the threshold; the query is NOT traced,
  // but broker-level spans are always recorded, so the log still captures
  // it.
  cluster.server(0)->InjectQueryDelay(1, 60);
  auto result =
      cluster.Execute("SELECT sum(clicks) FROM analytics WHERE day >= 100");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_GE(result.latency_millis, 20.0);

  ASSERT_EQ(cluster.broker(0)->slow_query_log()->size(), 1u);
  const std::string dump = cluster.SlowQueryLogDump();
  EXPECT_NE(dump.find("# slow query 1:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("SELECT sum(clicks) FROM analytics"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("scatter:analytics_OFFLINE"), std::string::npos) << dump;
  // The scatter phase dominates the retained trace (that is where the
  // injected delay sat), so the log attributes the latency correctly.
  const auto worst = cluster.broker(0)->slow_query_log()->Worst(1);
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_GE(worst[0].latency_millis, 20.0);
}

TEST(SlowQueryLogTest, DumpCarriesTableAndReceipt) {
  SlowQueryLog log(SlowQueryLog::Options{0.0, 2});
  EXPECT_TRUE(log.Record(12.0, "events", "SELECT count(*) FROM events",
                         TinySpan(),
                         "receipt: phases queue=0.100ms\n"
                         "receipt: work docs_scanned=42\n"));
  const std::string dump = log.Dump();
  EXPECT_NE(dump.find("# table=events"), std::string::npos) << dump;
  // Receipt lines are comment-prefixed so span-grammar consumers skip them.
  EXPECT_NE(dump.find("# receipt: phases queue=0.100ms"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("# receipt: work docs_scanned=42"), std::string::npos)
      << dump;
}

TEST(SlowQueryLogTest, RecordReportsThresholdCrossing) {
  SlowQueryLog log(SlowQueryLog::Options{/*threshold_millis=*/50.0,
                                         /*capacity=*/1});
  EXPECT_FALSE(log.Record(10.0, "t", "fast", TinySpan(), ""));
  EXPECT_TRUE(log.Record(60.0, "t", "slow", TinySpan(), ""));
  // Slow but not retained (worse entry already holds the only slot): still
  // reported as slow so the per-table counter keeps counting.
  EXPECT_TRUE(log.Record(55.0, "t", "also slow", TinySpan(), ""));
  EXPECT_EQ(log.size(), 1u);
}

// Sums an annotation over every span in the tree whose name starts with
// `prefix`.
int64_t SumAnnotation(const TraceSpan& span, const std::string& prefix,
                      const std::string& key) {
  int64_t total = 0;
  if (span.name.rfind(prefix, 0) == 0) total += span.Annotation(key, 0);
  for (const auto& child : span.children) {
    total += SumAnnotation(child, prefix, key);
  }
  return total;
}

// Tentpole: a TRACE'd query renders a resource receipt whose totals agree
// with the execution stats, the call spans and the per-segment span
// annotations.
TEST_F(TraceClusterTest, TracedQueryRendersConsistentReceipt) {
  PinotCluster cluster(PinotClusterOptions{});
  SetUpHybrid(&cluster);

  auto result = cluster.Execute(
      "TRACE SELECT sum(impressions) FROM analytics WHERE country = 'us'");
  ASSERT_FALSE(result.partial) << result.error_message;
  ASSERT_TRUE(result.span.has_value());

  const QueryReceipt& receipt = result.receipt;
  // The doc tallies of the stats agree with the per-segment span
  // annotations.
  EXPECT_EQ(SumAnnotation(*result.span, "segment:", "docs_scanned"),
            static_cast<int64_t>(result.stats.docs_scanned));
  // One scatter call per physical table of the hybrid plan, each a call
  // span; no retry waves and no hedge spans.
  EXPECT_EQ(receipt.calls, test::CallSpans(result).size());
  EXPECT_EQ(receipt.calls, 2u);
  EXPECT_EQ(receipt.retries, 0u);
  EXPECT_EQ(receipt.hedges, 0u);
  for (const TraceSpan* call : test::CallSpans(result)) {
    EXPECT_EQ(call->name.rfind("call:", 0), 0u) << call->name;
    EXPECT_EQ(call->Annotation("wave", -1), 0);
  }
  // Work actually happened, and the phase clocks ran.
  EXPECT_GT(result.stats.docs_scanned, 0u);
  EXPECT_GT(receipt.scan_bytes, 0u);
  EXPECT_GT(receipt.payload_bytes, 0u);
  EXPECT_GT(receipt.scatter_micros, 0);
  EXPECT_GE(receipt.queue_micros, 0);
  EXPECT_GE(receipt.filter_micros, 0);

  // The rendered receipt rides after the trace tree.
  const std::string rendered = result.ToString();
  const size_t trace_at = rendered.find("--- trace ---");
  const size_t receipt_at = rendered.find("--- receipt ---");
  ASSERT_NE(trace_at, std::string::npos) << rendered;
  ASSERT_NE(receipt_at, std::string::npos) << rendered;
  EXPECT_GT(receipt_at, trace_at);
  EXPECT_NE(rendered.find("receipt: phases queue="), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("receipt: work docs_scanned="), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("receipt: scatter calls=2"), std::string::npos)
      << rendered;
}

TEST_F(TraceClusterTest, ReceiptAccountsPrunedDocs) {
  PinotCluster cluster(PinotClusterOptions{});
  Controller* leader = cluster.leader_controller();
  ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
  ASSERT_TRUE(
      leader->UploadSegment("analytics_OFFLINE", BuildSegmentBlob("seg0"))
          .ok());
  ASSERT_TRUE(
      leader->UploadSegment("analytics_OFFLINE", BuildSegmentBlob("seg1"))
          .ok());
  // Fixture days are 100-103: disjoint predicate prunes both segments.
  auto result = cluster.Execute(
      "TRACE SELECT count(*) FROM analytics WHERE day > 500");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(result.stats.segments_pruned, 2u);
  EXPECT_EQ(result.stats.segments_queried, 0u);
  EXPECT_EQ(result.receipt.docs_pruned, 24u);  // 12 rows per fixture segment.
  EXPECT_EQ(result.stats.docs_scanned, 0u);
  EXPECT_NE(result.ToString().find("receipt: work docs_scanned=0 "
                                   "docs_pruned=24 segments_queried=0 "
                                   "segments_pruned=2 "),
            std::string::npos)
      << result.ToString();
}

TEST_F(TraceClusterTest, PerTableSeriesRollUpOnQueryFamilies) {
  PinotCluster cluster(PinotClusterOptions{});
  SetUpHybrid(&cluster);
  cluster.Execute("SELECT count(*) FROM analytics");
  const std::string dump = cluster.MetricsDump();
  // Broker families roll up under the logical table...
  EXPECT_NE(dump.find("broker_queries_total{table=\"analytics\"} 1"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("broker_query_latency_ms_count{table=\"analytics\"}"),
            std::string::npos)
      << dump;
  // ...and server families do too (the physical _OFFLINE/_REALTIME split
  // collapses onto the logical name).
  EXPECT_NE(dump.find("server_queries_total{table=\"analytics\"}"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("server_docs_scanned_total{table=\"analytics\"}"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("server_scan_bytes_total{table=\"analytics\"}"),
            std::string::npos)
      << dump;
  // The unlabeled broker-wide series keeps its old meaning alongside.
  EXPECT_NE(dump.find("broker_queries_total 1"), std::string::npos) << dump;
}

TEST_F(TraceClusterTest, SlowQueryCounterAndLogCarryTable) {
  PinotClusterOptions options;
  options.num_servers = 1;
  options.broker_options.slow_query_threshold_millis = 20.0;
  options.broker_options.slow_query_log_capacity = 4;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();
  ASSERT_TRUE(leader->AddTable(OfflineConfig()).ok());
  ASSERT_TRUE(
      leader->UploadSegment("analytics_OFFLINE", BuildSegmentBlob("seg0"))
          .ok());
  cluster.server(0)->InjectQueryDelay(1, 60);
  auto result = cluster.Execute("SELECT count(*) FROM analytics");
  ASSERT_FALSE(result.partial) << result.error_message;

  EXPECT_EQ(cluster.metrics()->CounterValue("broker_slow_queries_total",
                                            {{"table", "analytics"}}),
            1u);
  const std::string dump = cluster.SlowQueryLogDump();
  EXPECT_NE(dump.find("# table=analytics"), std::string::npos) << dump;
  EXPECT_NE(dump.find("# receipt: phases"), std::string::npos) << dump;
  EXPECT_NE(dump.find("# receipt: work"), std::string::npos) << dump;
}

TEST_F(TraceClusterTest, PhaseHistogramsRecorded) {
  PinotCluster cluster(PinotClusterOptions{});
  SetUpHybrid(&cluster);
  cluster.Execute("SELECT count(*) FROM analytics");
  const std::string dump = cluster.MetricsDump();
  EXPECT_NE(dump.find("broker_route_time_ms"), std::string::npos) << dump;
  EXPECT_NE(dump.find("broker_scatter_time_ms"), std::string::npos);
  EXPECT_NE(dump.find("broker_reduce_time_ms"), std::string::npos);
  EXPECT_NE(dump.find("server_query_queue_ms"), std::string::npos);
}

}  // namespace
}  // namespace pinot
