// Fault-injection tests for the broker's resilient scatter-gather: replica
// failover on injected failures, partitions, delays and drops; partial
// results whose call spans name the failed servers and segments when no
// replica is left; the corrupt-time-boundary fallback; and the
// tail-tolerance machinery (adaptive replica selection, hedged requests,
// load shedding).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/pinot_cluster.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

using test::AnalyticsSchema;
using test::BuildAnalyticsSegment;
using test::CallServer;
using test::CallSpans;
using test::PickReasons;
using test::ToRow;

Schema KeyedSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Metric("hits", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
}

// An offline table with `num_segments` x `rows_each` rows, replicated
// `replicas` times, behind a broker with a short deadline so timeout tests
// run fast.
void SetUpKeyedTable(PinotCluster& cluster, int replicas, int num_segments,
                     int rows_each) {
  Controller* leader = cluster.leader_controller();
  TableConfig config;
  config.name = "keyed";
  config.type = TableType::kOffline;
  config.schema = KeyedSchema();
  config.num_replicas = replicas;
  ASSERT_TRUE(leader->AddTable(config).ok());
  for (int s = 0; s < num_segments; ++s) {
    SegmentBuildConfig build;
    build.table_name = "keyed_OFFLINE";
    build.segment_name = "seg_" + std::to_string(s);
    SegmentBuilder builder(KeyedSchema(), build);
    for (int i = 0; i < rows_each; ++i) {
      Row row;
      row.SetLong("memberId", s * rows_each + i)
          .SetLong("hits", 1)
          .SetLong("day", 1);
      ASSERT_TRUE(builder.AddRow(row).ok());
    }
    auto segment = builder.Build();
    ASSERT_TRUE(segment.ok());
    ASSERT_TRUE(
        leader->UploadSegment("keyed_OFFLINE", (*segment)->SerializeToBlob())
            .ok());
  }
}

PinotClusterOptions FastBrokerOptions(int servers,
                                      int64_t timeout_millis = 1500) {
  PinotClusterOptions options;
  options.num_servers = servers;
  options.broker_options.default_timeout_millis = timeout_millis;
  return options;
}

int64_t Count(const QueryResult& result) {
  return std::get<int64_t>(result.aggregates[0]);
}

// Acceptance scenario: one replica of *every* queried segment dies
// mid-query (each server fails its first request), and the broker still
// returns a complete result by retrying on the surviving replicas.
TEST(BrokerResilienceTest, RetriesInjectedFailureOnAnotherReplica) {
  PinotCluster cluster(FastBrokerOptions(3));
  SetUpKeyedTable(cluster, /*replicas=*/3, /*num_segments=*/6,
                  /*rows_each=*/5);
  for (int i = 0; i < cluster.num_servers(); ++i) {
    cluster.server(i)->InjectQueryFailures(1);
  }

  auto result = cluster.Execute("TRACE SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 30);
  // The first wave failed somewhere; retries made the result whole.
  EXPECT_GT(result.receipt.retries, 0u);
  bool saw_failure = false;
  int64_t retried_segments = 0;
  for (const TraceSpan* call : CallSpans(result)) {
    if (call->LabelValue("outcome").rfind("failed:", 0) == 0) {
      saw_failure = true;
    }
    if (call->Annotation("wave", -1) > 0) {
      retried_segments += call->Annotation("segments");
    }
  }
  EXPECT_TRUE(saw_failure) << result.ToString();
  // Every retry re-scatters one segment in a later wave.
  EXPECT_EQ(retried_segments, static_cast<int64_t>(result.receipt.retries))
      << result.ToString();
  EXPECT_EQ(result.receipt.calls, CallSpans(result).size());

  // Faults consumed: the next query is clean.
  result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial);
  EXPECT_EQ(Count(result), 30);
  EXPECT_EQ(result.receipt.retries, 0u);
}

// Every call span reports why each of its segments landed on that server:
// "routing-table" on the first wave, "failover(<prior outcome>,
// candidates=<n>)" on retry waves — one whole-call `pick` label when every
// segment shares the reason, else one `pick:<segment>` label per segment.
TEST(BrokerResilienceTest, CallSpansCarryReplicaPickReasons) {
  PinotCluster cluster(FastBrokerOptions(3));
  SetUpKeyedTable(cluster, /*replicas=*/3, /*num_segments=*/6,
                  /*rows_each=*/5);
  for (int i = 0; i < cluster.num_servers(); ++i) {
    cluster.server(i)->InjectQueryFailures(1);
  }

  auto result = cluster.Execute("TRACE SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  ASSERT_GT(result.receipt.retries, 0u);
  ASSERT_TRUE(result.span.has_value());

  bool saw_failover_reason = false;
  bool saw_answered_retry = false;
  for (const TraceSpan* call : CallSpans(result)) {
    const std::vector<std::string> reasons = PickReasons(*call);
    if (call->LabelValue("pick").empty()) {
      EXPECT_EQ(static_cast<int64_t>(reasons.size()),
                call->Annotation("segments"))
          << result.ToString();
    } else {
      EXPECT_EQ(reasons.size(), 1u) << result.ToString();
    }
    const int64_t wave = call->Annotation("wave", -1);
    for (const auto& reason : reasons) {
      if (wave == 0) {
        // The routing-table assignment, possibly overridden by adaptive
        // replica selection (scores can diverge once stats accumulate).
        EXPECT_TRUE(reason == "routing-table" ||
                    reason.rfind("adaptive(", 0) == 0)
            << reason << "\n" << result.ToString();
      } else {
        EXPECT_EQ(reason.rfind("failover(", 0), 0u) << reason;
        EXPECT_NE(reason.find("candidates="), std::string::npos) << reason;
        saw_failover_reason = true;
      }
    }
    if (wave > 0 && call->LabelValue("outcome") == "ok") {
      saw_answered_retry = true;
    }
  }
  EXPECT_TRUE(saw_failover_reason) << result.ToString();
  EXPECT_TRUE(saw_answered_retry) << result.ToString();
  // The failover reason names the prior outcome that triggered it.
  const std::string rendered = result.span->ToString();
  EXPECT_NE(rendered.find("failover(failed:"), std::string::npos) << rendered;
}

// A partitioned server stays in the external view (routing is NOT
// rebuilt), so the broker must detect unreachability at scatter time and
// fail over in-flight.
TEST(BrokerResilienceTest, FailsOverFromPartitionedServerMidQuery) {
  PinotCluster cluster(FastBrokerOptions(3));
  SetUpKeyedTable(cluster, /*replicas=*/3, /*num_segments=*/6,
                  /*rows_each=*/5);
  ASSERT_EQ(Count(cluster.Execute("SELECT count(*) FROM keyed")), 30);

  cluster.PartitionServer(1);
  for (int i = 0; i < 5; ++i) {
    auto result = cluster.Execute("SELECT count(*) FROM keyed");
    ASSERT_FALSE(result.partial) << result.error_message;
    EXPECT_EQ(Count(result), 30);
  }
  cluster.HealServer(1);
  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial);
  EXPECT_EQ(Count(result), 30);
}

// A server that answers too slowly is abandoned at its attempt deadline
// and its segments are re-scattered to a faster replica, all within the
// original query deadline.
TEST(BrokerResilienceTest, TimedOutSegmentsRetryOnFastReplica) {
  PinotCluster cluster(FastBrokerOptions(3, /*timeout_millis=*/900));
  SetUpKeyedTable(cluster, /*replicas=*/3, /*num_segments=*/6,
                  /*rows_each=*/5);
  // Longer than the whole query deadline: without failover this query can
  // only be partial.
  cluster.server(0)->InjectQueryDelay(1, 1200);

  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 30);
  EXPECT_GE(result.receipt.timeouts, 1u);
  EXPECT_LT(result.latency_millis, 900);
}

// Dropped calls (response withheld past the deadline) look identical to
// timeouts and take the same failover path.
TEST(BrokerResilienceTest, DroppedCallsFailOver) {
  PinotCluster cluster(FastBrokerOptions(3, /*timeout_millis=*/900));
  SetUpKeyedTable(cluster, /*replicas=*/3, /*num_segments=*/6,
                  /*rows_each=*/5);
  cluster.server(2)->SetQueryDropFraction(1.0);

  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 30);
  EXPECT_GE(result.receipt.timeouts, 1u);

  cluster.server(2)->SetQueryDropFraction(0);
}

// When every replica of a segment is gone the result is partial, and even
// without TRACE its call spans name the failed servers, how they failed,
// and the segments each covered.
TEST(BrokerResilienceTest, NoLiveReplicaYieldsPartialWithTrace) {
  PinotCluster cluster(FastBrokerOptions(2));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/3,
                  /*rows_each=*/5);
  ASSERT_EQ(Count(cluster.Execute("SELECT count(*) FROM keyed")), 15);

  cluster.PartitionServer(0);
  cluster.PartitionServer(1);
  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  EXPECT_TRUE(result.partial);
  EXPECT_NE(result.error_message.find("no live replica"), std::string::npos)
      << result.error_message;

  // Every failed scatter call has a span with its server, its outcome and
  // the segments it covered; together they cover every segment.
  ASSERT_TRUE(result.span.has_value());
  std::set<std::string> covered;
  for (const TraceSpan* call : CallSpans(result)) {
    EXPECT_EQ(call->LabelValue("outcome"), "unreachable") << result.ToString();
    const std::string server = CallServer(*call);
    EXPECT_TRUE(server == "server-0" || server == "server-1") << server;
    std::stringstream segments(call->LabelValue("covered"));
    std::string segment;
    int64_t named = 0;
    while (std::getline(segments, segment, ',')) {
      covered.insert(segment);
      ++named;
    }
    EXPECT_EQ(named, call->Annotation("segments")) << result.ToString();
  }
  EXPECT_EQ(covered, (std::set<std::string>{"seg_0", "seg_1", "seg_2"}))
      << result.ToString();
  // The client-facing rendering shows the same.
  EXPECT_NE(result.ToString().find("outcome=unreachable"), std::string::npos)
      << result.ToString();

  cluster.HealServer(0);
  cluster.HealServer(1);
  result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 15);
}

// Exhausted retries (every wave fails) also end partial instead of
// spinning past the deadline.
TEST(BrokerResilienceTest, ExhaustedRetriesReportPartial) {
  PinotCluster cluster(FastBrokerOptions(2));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/3,
                  /*rows_each=*/5);
  // More injected failures than retry waves on both replicas.
  cluster.server(0)->InjectQueryFailures(10);
  cluster.server(1)->InjectQueryFailures(10);

  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  EXPECT_TRUE(result.partial);
  const std::vector<const TraceSpan*> calls = CallSpans(result);
  ASSERT_FALSE(calls.empty());
  EXPECT_EQ(result.receipt.calls, calls.size());
  for (const TraceSpan* call : calls) {
    EXPECT_EQ(call->LabelValue("outcome").rfind("failed:", 0), 0u)
        << result.ToString();
    EXPECT_FALSE(call->LabelValue("covered").empty()) << result.ToString();
  }
}

// Satellite regression: a corrupt time-boundary property used to escape as
// an uncaught std::stoll exception and crash the broker. It must fall back
// to the unfiltered hybrid plan (both physical tables, no time filter).
TEST(BrokerResilienceTest, CorruptTimeBoundaryFallsBackToUnfilteredPlan) {
  PinotCluster cluster(FastBrokerOptions(3));
  Controller* leader = cluster.leader_controller();
  StreamTopic* topic =
      cluster.streams()->GetOrCreateTopic("analytics-events", 1);

  TableConfig offline;
  offline.name = "analytics";
  offline.type = TableType::kOffline;
  offline.schema = AnalyticsSchema();
  offline.num_replicas = 1;
  ASSERT_TRUE(leader->AddTable(offline).ok());
  {
    SegmentBuildConfig build;
    build.table_name = "analytics_OFFLINE";
    build.segment_name = "offline0";
    auto segment = BuildAnalyticsSegment(build);  // Days 100..103, 12 rows.
    ASSERT_TRUE(
        leader->UploadSegment("analytics_OFFLINE", segment->SerializeToBlob())
            .ok());
  }

  TableConfig realtime;
  realtime.name = "analytics";
  realtime.type = TableType::kRealtime;
  realtime.schema = AnalyticsSchema();
  realtime.num_replicas = 1;
  realtime.realtime.topic = "analytics-events";
  realtime.realtime.num_partitions = 1;
  realtime.realtime.flush_threshold_rows = 1000;
  ASSERT_TRUE(leader->AddTable(realtime).ok());
  // Realtime rows strictly after the boundary, so the unfiltered fallback
  // plan cannot double count any row.
  for (int64_t day : {104, 105}) {
    test::AnalyticsRow row{"us", "chrome", 9, {}, 1000, 7, day};
    topic->Produce("9", ToRow(row));
  }
  cluster.ProcessRealtimeTicks(2);

  // Healthy boundary (103, the max offline day): the hybrid rewrite asks
  // offline for day <= 102 and realtime for day >= 103, so the 3 offline
  // day-103 rows fall outside both sides: 9 offline + 2 realtime.
  auto result = cluster.Execute("SELECT count(*) FROM analytics");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 11);

  // Every corrupt value falls back to the unfiltered plan: all 12 offline
  // rows plus both realtime rows, with no crash and no partial flag.
  const std::string boundary_path = "/TIMEBOUNDARY/analytics";
  for (const std::string corrupt :
       {"garbage", "", "123abc", "99999999999999999999999", "  42"}) {
    cluster.property_store()->Set(boundary_path, corrupt);
    result = cluster.Execute("SELECT count(*) FROM analytics");
    ASSERT_FALSE(result.partial)
        << "boundary \"" << corrupt << "\": " << result.error_message;
    EXPECT_EQ(Count(result), 14) << "boundary \"" << corrupt << "\"";
  }

  // Restoring a sane boundary restores the filtered plan.
  cluster.property_store()->Set(boundary_path, "103");
  result = cluster.Execute(
      "SELECT count(*) FROM analytics WHERE day <= 102");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 9);
}

// A healthy TRACE query has one ok wave-0 call span per server call, and
// together they cover every segment.
TEST(BrokerResilienceTest, HealthyQueryCarriesTrace) {
  PinotCluster cluster(FastBrokerOptions(3));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/6,
                  /*rows_each=*/5);
  auto result = cluster.Execute("TRACE SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  const std::vector<const TraceSpan*> calls = CallSpans(result);
  ASSERT_FALSE(calls.empty());
  EXPECT_EQ(result.receipt.calls, calls.size());
  int64_t segments_covered = 0;
  for (const TraceSpan* call : calls) {
    EXPECT_EQ(call->LabelValue("outcome"), "ok");
    EXPECT_EQ(call->Annotation("wave", -1), 0);
    EXPECT_EQ(call->LabelValue("covered"), "");  // Only unanswered calls.
    segments_covered += call->Annotation("segments");
  }
  EXPECT_EQ(segments_covered, 6);
  EXPECT_EQ(result.receipt.retries, 0u);
  EXPECT_EQ(result.receipt.timeouts, 0u);
}

// The cluster-wide metrics dump reflects activity on every layer: broker
// query accounting, server execution counters, and the injected faults
// that drive scatter retries.
TEST(BrokerResilienceTest, MetricsDumpReflectsQueryAndFaultActivity) {
  PinotCluster cluster(FastBrokerOptions(3));
  SetUpKeyedTable(cluster, /*replicas=*/3, /*num_segments=*/6,
                  /*rows_each=*/5);
  MetricsRegistry* metrics = cluster.metrics();

  // Three clean queries; sum(hits) forces a real scan of every row.
  for (int i = 0; i < 3; ++i) {
    auto result = cluster.Execute("SELECT sum(hits) FROM keyed");
    ASSERT_FALSE(result.partial) << result.error_message;
  }
  EXPECT_EQ(metrics->CounterValue("broker_queries_total"), 3u);
  EXPECT_EQ(metrics->CounterValue("broker_scatter_retries_total"), 0u);
  EXPECT_EQ(metrics->CounterValue("broker_partial_results_total"), 0u);
  const Histogram* latency =
      metrics->FindHistogram("broker_query_latency_ms", {{"table", "keyed"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Count(), 3u);

  // Server-side: across all instances, each of the 3 queries covered all 6
  // segments exactly once and scanned all 30 rows.
  uint64_t server_queries = 0, segments_queried = 0, docs_scanned = 0;
  for (int i = 0; i < cluster.num_servers(); ++i) {
    const MetricLabels labels = {{"instance", cluster.server(i)->id()}};
    server_queries += metrics->CounterValue("server_queries_total", labels);
    segments_queried +=
        metrics->CounterValue("server_segments_queried_total", labels);
    docs_scanned +=
        metrics->CounterValue("server_docs_scanned_total", labels);
  }
  EXPECT_GE(server_queries, 3u);
  EXPECT_EQ(segments_queried, 3u * 6);
  EXPECT_EQ(docs_scanned, 3u * 30);

  // Inject one failure per server: the broker retries on other replicas
  // and both sides of that story land in the registry.
  for (int i = 0; i < cluster.num_servers(); ++i) {
    cluster.server(i)->InjectQueryFailures(1);
  }
  auto result = cluster.Execute("SELECT sum(hits) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  ASSERT_GT(result.receipt.retries, 0u);
  EXPECT_EQ(metrics->CounterValue("broker_scatter_retries_total"),
            result.receipt.retries);
  uint64_t injected = 0;
  for (int i = 0; i < cluster.num_servers(); ++i) {
    injected += metrics->CounterValue(
        "server_injected_faults_total",
        {{"instance", cluster.server(i)->id()}, {"kind", "fail"}});
  }
  EXPECT_GT(injected, 0u);

  const std::string dump = cluster.MetricsDump();
  EXPECT_NE(dump.find("broker_queries_total 4"), std::string::npos) << dump;
  EXPECT_NE(dump.find("broker_query_latency_ms_count{table=\"keyed\"} 4"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("server_injected_faults_total"), std::string::npos);
}

// --- Tail tolerance: hedged requests -----------------------------------------

// Broker options with hedging warmed up quickly: after `hedge_min_samples`
// observed calls the budget becomes max(p95, floor).
PinotClusterOptions HedgingOptions(int servers, double floor_millis = 5.0,
                                   int64_t timeout_millis = 2000) {
  PinotClusterOptions options;
  options.num_servers = servers;
  options.broker_options.default_timeout_millis = timeout_millis;
  options.broker_options.hedge_min_samples = 8;
  options.broker_options.hedge_floor_millis = floor_millis;
  // Keep wave-0 picks on the routing table: under load, warmup timing noise
  // can otherwise steer every segment off the delayed server before the
  // injected delay is consumed, and no hedge ever fires.
  options.broker_options.adaptive_routing = false;
  return options;
}

// A call outstanding past the latency budget gets hedged onto another
// replica; the hedge's response is merged, the abandoned primary's never is.
TEST(BrokerHedgingTest, HedgeFiresPastBudgetAndWinnerMergesOnce) {
  PinotCluster cluster(HedgingOptions(2));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/6,
                  /*rows_each=*/5);
  // Warm the latency stats well past hedge_min_samples.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(Count(cluster.Execute("SELECT count(*) FROM keyed")), 30);
  }

  // One slow request: far beyond the ~5ms budget, far under the deadline.
  cluster.server(0)->InjectQueryDelay(1, 400);
  const auto start = std::chrono::steady_clock::now();
  auto result = cluster.Execute("TRACE SELECT count(*) FROM keyed");
  const double elapsed_millis =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1000.0;

  ASSERT_FALSE(result.partial) << result.error_message;
  // Merged exactly once: a double-merged hedge race would double the count.
  EXPECT_EQ(Count(result), 30);
  EXPECT_GE(result.receipt.hedges, 1u) << result.ToString();
  EXPECT_GE(result.receipt.hedge_wins, 1u) << result.ToString();
  // The hedge raced the 400ms straggler and won near the budget.
  EXPECT_LT(elapsed_millis, 300) << result.ToString();

  bool saw_winning_hedge = false;
  bool saw_abandoned_primary = false;
  uint32_t hedge_spans = 0;
  for (const TraceSpan* call : CallSpans(result)) {
    const bool hedge = call->name.rfind("hedge:", 0) == 0;
    hedge_spans += hedge ? 1 : 0;
    if (hedge && call->LabelValue("hedge") == "won" &&
        call->LabelValue("outcome") == "ok") {
      saw_winning_hedge = true;
    }
    if (!hedge && call->LabelValue("outcome") == "abandoned (hedge won)") {
      saw_abandoned_primary = true;
    }
  }
  EXPECT_EQ(hedge_spans, result.receipt.hedges) << result.ToString();
  EXPECT_TRUE(saw_winning_hedge) << result.ToString();
  EXPECT_TRUE(saw_abandoned_primary) << result.ToString();
  EXPECT_GE(cluster.metrics()->CounterValue("broker_hedged_calls_total"), 1u);
  EXPECT_GE(cluster.metrics()->CounterValue("broker_hedge_wins_total"), 1u);
}

// Until enough samples accumulate the budget is the cap, so cold clusters
// never hedge — a slow-but-within-deadline call just gets waited on.
TEST(BrokerHedgingTest, NoHedgeDuringWarmup) {
  PinotCluster cluster(FastBrokerOptions(3));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/6,
                  /*rows_each=*/5);
  cluster.server(0)->InjectQueryDelay(1, 300);

  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(Count(result), 30);
  EXPECT_EQ(result.receipt.hedges, 0u);
  EXPECT_EQ(result.receipt.timeouts, 0u);
}

// Fuzz the hedge race: across many delay placements, a query under hedging
// renders bit-identically to the clean baseline (same rows, same aggregate
// values, same scan statistics) — the losing side of a race never leaks
// into the merged result.
TEST(BrokerHedgingTest, HedgedResultsMatchBaselineUnderFuzz) {
  PinotCluster cluster(HedgingOptions(3, /*floor_millis=*/2.0));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/6,
                  /*rows_each=*/5);
  const std::string pql =
      "SELECT count(*), sum(hits) FROM keyed WHERE memberId >= 3";
  for (int i = 0; i < 10; ++i) {  // Warm past hedge_min_samples.
    ASSERT_FALSE(cluster.Execute(pql).partial);
  }
  const std::string baseline = cluster.Execute(pql).ToString();

  uint32_t total_hedges = 0;
  for (int i = 0; i < 12; ++i) {
    cluster.server(i % 3)->InjectQueryDelay(1, 20 + 15 * (i % 4));
    auto result = cluster.Execute(pql);
    ASSERT_FALSE(result.partial) << result.ToString();
    EXPECT_EQ(result.ToString(), baseline)
        << "iteration " << i << "\n"
        << result.receipt.ToString(result.stats);
    total_hedges += result.receipt.hedges;
  }
  // Sanity: the fuzz actually exercised the hedge path.
  EXPECT_GT(total_hedges, 0);
}

// --- Tail tolerance: adaptive replica selection ------------------------------

// The EWMA steers wave-0 traffic away from a consistently slow server, and
// exploration probes pull the estimate back down once it recovers.
TEST(BrokerAdaptiveRoutingTest, SteersAwayFromSlowServerThenRecovers) {
  PinotClusterOptions options;
  options.num_servers = 2;
  options.broker_options.default_timeout_millis = 2000;
  options.broker_options.explore_probability = 0.2;
  options.broker_options.hedging_enabled = false;  // Isolate the steering.
  PinotCluster cluster(options);
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/6,
                  /*rows_each=*/5);
  ServerStatsRegistry* stats = cluster.broker(0)->server_stats();

  // Phase 1: server-0 answers every request 30ms slow. The broker's view of
  // it degrades and p2c moves its segments to server-1.
  cluster.server(0)->InjectQueryDelay(1000, 30);
  bool saw_p2c_move = false;
  for (int i = 0; i < 25; ++i) {
    auto result = cluster.Execute("TRACE SELECT count(*) FROM keyed");
    ASSERT_FALSE(result.partial) << result.error_message;
    ASSERT_EQ(Count(result), 30);
    for (const TraceSpan* call : CallSpans(result)) {
      for (const auto& reason : PickReasons(*call)) {
        if (reason == "adaptive(p2c)" && CallServer(*call) == "server-1") {
          saw_p2c_move = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_p2c_move);
  EXPECT_GT(stats->ScoreOf("server-0"), stats->ScoreOf("server-1") * 3)
      << "server-0=" << stats->ScoreOf("server-0")
      << " server-1=" << stats->ScoreOf("server-1");

  // Phase 2: server-0 recovers. Exploration keeps routing occasional probe
  // segments to it, and the fast samples forgive the EWMA geometrically.
  cluster.server(0)->InjectQueryDelay(0, 0);
  for (int i = 0; i < 60; ++i) {
    ASSERT_FALSE(cluster.Execute("SELECT count(*) FROM keyed").partial);
  }
  const ServerStats* recovered = stats->Find("server-0");
  ASSERT_NE(recovered, nullptr);
  EXPECT_LT(recovered->LatencyEwmaMillis(), 10.0);
}

// --- Tail tolerance: broker load shedding ------------------------------------

// Past the in-flight watermark the broker rejects immediately with an
// explicit throttled result carrying a retry-after estimate, and recovers
// as soon as capacity frees up.
TEST(BrokerLoadSheddingTest, OverloadedBrokerShedsWithRetryAfter) {
  PinotClusterOptions options;
  options.num_servers = 3;
  options.broker_options.default_timeout_millis = 2000;
  options.broker_options.max_inflight_queries = 1;
  PinotCluster cluster(options);
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/6,
                  /*rows_each=*/5);
  ASSERT_EQ(Count(cluster.Execute("SELECT count(*) FROM keyed")), 30);

  // Occupy the single in-flight slot with a deliberately slow query. Every
  // server is delayed (twice over, covering hedge calls) so the query is
  // slow regardless of where adaptive routing lands it.
  for (int s = 0; s < 3; ++s) cluster.server(s)->InjectQueryDelay(2, 400);
  std::thread occupant([&] {
    auto result = cluster.Execute("SELECT count(*) FROM keyed");
    EXPECT_FALSE(result.partial) << result.error_message;
  });
  // Wait (bounded) until the occupant holds the slot.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.broker(0)->InFlightQueries() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto shed = cluster.Execute("SELECT count(*) FROM keyed");
  occupant.join();

  EXPECT_TRUE(shed.throttled);
  EXPECT_TRUE(shed.partial);
  EXPECT_GE(shed.retry_after_millis, 1.0);
  EXPECT_NE(shed.error_message.find("overloaded"), std::string::npos)
      << shed.error_message;
  // Shed before any scatter: no server work, no scatter calls.
  EXPECT_EQ(shed.receipt.calls, 0u);
  EXPECT_FALSE(shed.span.has_value());
  EXPECT_GE(cluster.metrics()->CounterValue("broker_shed_queries_total"), 1u);

  // Capacity is back: the next query is served normally.
  auto after = cluster.Execute("SELECT count(*) FROM keyed");
  EXPECT_FALSE(after.throttled);
  ASSERT_FALSE(after.partial) << after.error_message;
  EXPECT_EQ(Count(after), 30);
}

// --- Satellite: server-side admission deadline -------------------------------

// A request whose deadline expired while it waited (here: behind an
// injected delay) is answered with a timeout instead of executing — the
// broker abandoned it long ago, so executing would be pure waste.
TEST(BrokerResilienceTest, ExpiredDeadlineSkipsServerExecution) {
  PinotCluster cluster(FastBrokerOptions(1, /*timeout_millis=*/300));
  SetUpKeyedTable(cluster, /*replicas=*/1, /*num_segments=*/3,
                  /*rows_each=*/5);
  ASSERT_EQ(Count(cluster.Execute("SELECT count(*) FROM keyed")), 15);
  MetricsRegistry* metrics = cluster.metrics();
  const MetricLabels labels = {{"instance", "server-0"}};
  const uint64_t executed_before =
      metrics->CounterValue("server_queries_total", labels);

  // The only replica sleeps past the whole query deadline.
  cluster.server(0)->InjectQueryDelay(1, 500);
  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  EXPECT_TRUE(result.partial);

  // Let the abandoned worker finish its sleep and hit the deadline check
  // (polled with a generous bound: sanitizer builds run it slowly).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics->CounterValue("server_deadline_exceeded_total", labels) ==
             0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(metrics->CounterValue("server_deadline_exceeded_total", labels),
            1u);
  EXPECT_EQ(metrics->CounterValue("server_queries_total", labels),
            executed_before)
      << "expired request must not execute";
}

// --- Satellite: zero-budget waves never scatter ------------------------------

// With no deadline budget at all, the broker reports the segments as timed
// out instead of scattering calls that cannot possibly answer in time.
TEST(BrokerResilienceTest, ZeroBudgetWaveNeverScatters) {
  PinotCluster cluster(FastBrokerOptions(2, /*timeout_millis=*/0));
  SetUpKeyedTable(cluster, /*replicas=*/2, /*num_segments=*/3,
                  /*rows_each=*/5);
  MetricsRegistry* metrics = cluster.metrics();

  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  EXPECT_TRUE(result.partial);
  EXPECT_NE(result.error_message.find("deadline exhausted"),
            std::string::npos)
      << result.error_message;
  const std::vector<const TraceSpan*> calls = CallSpans(result);
  ASSERT_FALSE(calls.empty());
  EXPECT_EQ(result.receipt.timeouts, calls.size());
  for (const TraceSpan* call : calls) {
    EXPECT_EQ(call->LabelValue("outcome"), "timeout (deadline exhausted)");
    EXPECT_FALSE(call->LabelValue("covered").empty());
  }
  // No server ever saw the query.
  for (int i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(metrics->CounterValue("server_queries_total",
                                    {{"instance", cluster.server(i)->id()}}),
              0u);
  }
}

}  // namespace
}  // namespace pinot
