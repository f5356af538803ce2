// Trace smoke driver for scripts/check_dumps.sh: stands up a hybrid table
// and a wide-key offline table (for the radix group-by) on a two-server
// cluster, runs TRACE / EXPLAIN queries, forces a hedged
// scatter call and a load-shed query, plus one slow (delay-injected) query,
// and prints the rendered trace, the query receipt, the metrics dump, the
// slow-query log, and the SLO health report between well-known markers so
// the script can validate each grammar. The health phase injects faults
// against the "events" table only (a lagging partition plus failing
// servers), so the report must grade events RED and metrics GREEN.

#include <chrono>
#include <cstdio>
#include <thread>

#include "cluster/pinot_cluster.h"
#include "segment/segment_builder.h"

using namespace pinot;

namespace {

Schema MetricsSchema() {
  auto schema = Schema::Make({
      FieldSpec::Dimension("page", DataType::kString),
      FieldSpec::Metric("views", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
  return *schema;
}

// Two ~1100-value keys: 11 + 11 dict-id bits, past the dense group
// table's 2^20 slots, so grouping by both runs on the radix table.
Schema WideSchema() {
  auto schema = Schema::Make({
      FieldSpec::Dimension("a", DataType::kLong),
      FieldSpec::Dimension("b", DataType::kLong),
      FieldSpec::Metric("views", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
  return *schema;
}

Row MakeRow(const char* page, int64_t views, int64_t day) {
  Row row;
  row.SetString("page", page).SetLong("views", views).SetLong("day", day);
  return row;
}

}  // namespace

int main() {
  PinotClusterOptions options;
  options.num_servers = 2;  // Two replicas so hedges have somewhere to go.
  options.broker_options.slow_query_threshold_millis = 10.0;
  options.broker_options.hedge_min_samples = 8;
  options.broker_options.hedge_floor_millis = 2.0;
  options.broker_options.max_inflight_queries = 1;  // Shed past 1 in flight.
  // Aggressive server-side trimming, so the group-by trace below carries
  // the trimmed=<n> label check_dumps pins.
  options.server_options.groupby_trim_factor = 1;
  options.server_options.groupby_trim_min = 1;
  // A small per-tick fetch budget so the health phase below can leave the
  // events partition genuinely lagging (producer ahead of consumption).
  options.server_options.max_fetch_batch = 4;
  options.slo.max_freshness_lag_rows = 10;
  // The shed/delay exercises push broker latency to hundreds of ms by
  // design; keep the latency rule out of the verdict.
  options.slo.p99_latency_budget_ms = 5000.0;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();
  StreamTopic* topic = cluster.streams()->GetOrCreateTopic("metrics", 1);

  TableConfig offline;
  offline.name = "metrics";
  offline.type = TableType::kOffline;
  offline.schema = MetricsSchema();
  offline.num_replicas = 2;
  if (!leader->AddTable(offline).ok()) return 1;

  // Two offline segments so balanced routing spreads the scatter across
  // both servers.
  for (int half = 0; half < 2; ++half) {
    SegmentBuildConfig config;
    config.table_name = "metrics_OFFLINE";
    config.segment_name = half == 0 ? "daily_a" : "daily_b";
    // Give the page filter below both physical options so its trace spans
    // carry the planner's cost comparison (cost:page=bitmap=...,scan=...).
    config.inverted_index_columns = {"page"};
    SegmentBuilder builder(MetricsSchema(), config);
    for (int day = 1 + 2 * half; day <= 2 + 2 * half; ++day) {
      if (!builder.AddRow(MakeRow("home", 100 + day, day)).ok()) return 1;
      if (!builder.AddRow(MakeRow("jobs", 40 + day, day)).ok()) return 1;
    }
    auto segment = builder.Build();
    if (!leader
             ->UploadSegment("metrics_OFFLINE", (*segment)->SerializeToBlob())
             .ok()) {
      return 1;
    }
  }

  TableConfig wide;
  wide.name = "wide";
  wide.type = TableType::kOffline;
  wide.schema = WideSchema();
  wide.num_replicas = 2;
  if (!leader->AddTable(wide).ok()) return 1;
  {
    SegmentBuildConfig config;
    config.table_name = "wide_OFFLINE";
    config.segment_name = "wide_0";
    SegmentBuilder builder(WideSchema(), config);
    for (int64_t i = 0; i < 1100; ++i) {
      Row row;
      row.SetLong("a", i).SetLong("b", (i * 7) % 1100).SetLong("views", i);
      row.SetLong("day", 1);
      if (!builder.AddRow(row).ok()) return 1;
    }
    auto segment = builder.Build();
    if (!leader->UploadSegment("wide_OFFLINE", (*segment)->SerializeToBlob())
             .ok()) {
      return 1;
    }
  }

  TableConfig realtime;
  realtime.name = "metrics";
  realtime.type = TableType::kRealtime;
  realtime.schema = MetricsSchema();
  realtime.realtime.topic = "metrics";
  realtime.realtime.flush_threshold_rows = 100000;
  if (!leader->AddTable(realtime).ok()) return 1;
  topic->Produce("k", MakeRow("home", 150, 5));
  topic->Produce("k", MakeRow("jobs", 80, 5));
  cluster.ProcessRealtimeTicks(2);

  // An upsert table: two rows for one key, so the traced query below
  // carries the upsert=on / valid_docs=<n> labels and the server's
  // dead-rows counter is nonzero in the metrics dump.
  TableConfig upsert;
  upsert.name = "events";
  upsert.type = TableType::kRealtime;
  upsert.schema = MetricsSchema();
  upsert.realtime.topic = "events";
  upsert.realtime.flush_threshold_rows = 100000;
  upsert.upsert_enabled = true;
  upsert.upsert_key_columns = {"page"};
  StreamTopic* events = cluster.streams()->GetOrCreateTopic("events", 1);
  if (!leader->AddTable(upsert).ok()) return 1;
  events->Produce("home", MakeRow("home", 1, 5));
  events->Produce("home", MakeRow("home", 2, 5));
  cluster.ProcessRealtimeTicks(2);
  QueryResult upserted =
      cluster.Execute("TRACE SELECT count(*) FROM events");
  if (!upserted.span.has_value()) {
    std::fprintf(stderr, "TRACE upsert query returned no span\n");
    return 1;
  }
  const std::string upsert_trace = upserted.span->ToString();
  if (upsert_trace.find("upsert=on") == std::string::npos ||
      upsert_trace.find("valid_docs=") == std::string::npos) {
    std::fprintf(stderr, "upsert trace misses validity labels:\n%s",
                 upsert_trace.c_str());
    return 1;
  }

  // Warm the per-server latency stats past hedge_min_samples so the hedge
  // budget reflects observed (sub-millisecond) call latencies.
  for (int i = 0; i < 12; ++i) {
    cluster.Execute("SELECT count(*) FROM metrics");
  }

  // Force a hedged scatter: delay one server's next response far past the
  // hedge budget; the broker fires a hedge to the other replica. Routing
  // may concentrate a query on either server, so alternate the injected
  // server until the trace carries a hedge span.
  QueryResult traced;
  for (int attempt = 0; attempt < 6; ++attempt) {
    cluster.server(attempt % 2)->InjectQueryDelay(1, 60);
    traced = cluster.Execute(
        "TRACE SELECT sum(views) FROM metrics WHERE page = 'home'");
    if (!traced.span.has_value()) {
      std::fprintf(stderr, "TRACE query returned no span\n");
      return 1;
    }
    if (traced.span->ToString().find("hedge:") != std::string::npos) break;
  }
  // A traced group-by: its server span carries groupby_groups/trimmed
  // labels (TOP 1 with a keep of 1 trims all but one of the 1100 groups)
  // and the per-segment group-by phase is labelled with the radix table.
  QueryResult grouped = cluster.Execute(
      "TRACE SELECT sum(views) FROM wide GROUP BY a, b TOP 1");
  if (!grouped.span.has_value()) {
    std::fprintf(stderr, "TRACE group-by returned no span\n");
    return 1;
  }
  const std::string grouped_trace = grouped.span->ToString();
  if (grouped_trace.find("group_table=radix(") == std::string::npos ||
      grouped_trace.find("trimmed=") == std::string::npos) {
    std::fprintf(stderr, "group-by trace misses radix/trim labels:\n%s",
                 grouped_trace.c_str());
    return 1;
  }

  std::printf("# --- trace dump ---\n%s%s%s",
              traced.span->ToString().c_str(), grouped_trace.c_str(),
              upsert_trace.c_str());

  // The resource receipt of the traced query: the same three lines the
  // client sees after the trace tree in result.ToString().
  const std::string receipt = traced.receipt.ToString(traced.stats);
  if (traced.stats.docs_scanned == 0 || traced.receipt.calls == 0) {
    std::fprintf(stderr, "traced query carries an empty receipt:\n%s",
                 receipt.c_str());
    return 1;
  }
  std::printf("# --- receipt dump ---\n%s", receipt.c_str());

  auto explained = cluster.Execute("EXPLAIN SELECT count(*) FROM metrics");
  if (!explained.span.has_value() || !explained.explain_only) {
    std::fprintf(stderr, "EXPLAIN query returned no plan\n");
    return 1;
  }
  std::printf("# --- explain dump ---\n%s",
              explained.span->ToString().c_str());

  // Push one query over the slow threshold so the log has an entry. Both
  // servers are delayed twice over (primary + hedge call) so a hedge
  // cannot rescue the query below the threshold.
  cluster.server(0)->InjectQueryDelay(2, 20);
  cluster.server(1)->InjectQueryDelay(2, 20);
  cluster.Execute("SELECT count(*) FROM metrics WHERE day >= 2");

  // Shed exercise: occupy the broker's single in-flight slot with a slow
  // query (delays again cover primaries and hedges), then issue a second
  // query that must be turned away throttled.
  cluster.server(0)->InjectQueryDelay(2, 300);
  cluster.server(1)->InjectQueryDelay(2, 300);
  std::thread occupant(
      [&] { cluster.Execute("SELECT count(*) FROM metrics"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  QueryResult shed = cluster.Execute("SELECT count(*) FROM metrics");
  occupant.join();
  if (!shed.throttled) {
    std::fprintf(stderr, "expected the second in-flight query to be shed\n");
    return 1;
  }

  std::printf("# --- slow query log ---\n%s",
              cluster.SlowQueryLogDump().c_str());

  // --- SLO health phase -----------------------------------------------------
  // Open a rate window, then hurt only the events table: produce far past
  // the per-tick fetch budget (one tick consumes 4 rows, leaving the
  // partition lagging well over the 10-row SLO) and fail every scatter call
  // of a burst of events queries (single-replica table: no failover, so
  // each query returns partial).
  cluster.TakeMetricsSnapshot();
  for (int i = 0; i < 24; ++i) {
    events->Produce("home", MakeRow("home", 3 + i, 6));
  }
  cluster.ProcessRealtimeTicks(1);
  for (int i = 0; i < 8; ++i) {
    cluster.server(0)->InjectQueryFailures(1);
    cluster.server(1)->InjectQueryFailures(1);
    QueryResult failed = cluster.Execute("SELECT count(*) FROM events");
    if (!failed.partial) {
      std::fprintf(stderr, "injected failure did not surface as partial\n");
      return 1;
    }
  }
  cluster.TakeMetricsSnapshot();

  const std::string health = cluster.HealthDump();
  if (health.find("table=events status=RED") == std::string::npos ||
      health.find("table=metrics status=GREEN") == std::string::npos) {
    std::fprintf(stderr,
                 "health report misgrades the injected faults:\n%s",
                 health.c_str());
    return 1;
  }

  std::printf("# --- metrics dump ---\n%s", cluster.MetricsDump().c_str());
  std::printf("# --- health dump ---\n%s", health.c_str());
  std::printf("# --- end ---\n");
  return 0;
}
