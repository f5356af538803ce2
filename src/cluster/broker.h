#ifndef PINOT_CLUSTER_BROKER_H_
#define PINOT_CLUSTER_BROKER_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster_context.h"
#include "cluster/cluster_manager.h"
#include "cluster/table_config.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "metrics/metrics.h"
#include "query/query.h"
#include "query/result.h"
#include "routing/routing.h"
#include "trace/slow_query_log.h"
#include "trace/trace.h"

namespace pinot {

/// A Pinot broker (paper sections 3.2-3.3): parses queries, rewrites
/// hybrid-table queries around the time boundary (Figure 6), picks a
/// routing table at random, scatters sub-queries to servers, gathers and
/// merges partial results. Calls that fail or time out are retried on
/// other live replicas of the affected segments within the query's
/// deadline budget; only when no replica answers is the response flagged
/// partial, with call spans saying which servers and segments failed.
/// Routing tables are rebuilt whenever the external view changes
/// (section 3.3.2).
class Broker {
 public:
  struct Options {
    int scatter_threads = 8;
    int64_t default_timeout_millis = 10000;
    uint64_t seed = 1234;
    // Number of precomputed tables for the balanced strategy (queries pick
    // one at random).
    int balanced_tables = 3;
    // Maximum replica-retry waves after the initial scatter. Each wave
    // re-routes the segments of failed/timed-out calls to untried live
    // replicas; all waves share the query's deadline budget.
    int max_scatter_retries = 2;
    // Slow-query log: queries at or over the threshold retain their
    // rendered span tree in a worst-N ring (SlowQueryLogDump()).
    double slow_query_threshold_millis = 100.0;
    size_t slow_query_log_capacity = 8;

    // --- Tail tolerance (adaptive routing / hedging / shedding) ----------

    // Adaptive replica selection: per-segment power-of-two-choices override
    // of the routing-table replica pick, scored by latency EWMA ×
    // in-flight. Also used for failover and hedge replica picks.
    bool adaptive_routing = true;
    // Probability that a pick ignores the score and probes a uniformly
    // random replica, so cold/recovered servers get re-measured.
    double explore_probability = 0.05;
    // A replica steals a segment from its routing-table assignee only when
    // its score is below assignee_score × this factor (hysteresis: equal
    // servers keep the precomputed balanced assignment).
    double adaptive_hysteresis = 0.9;

    // Hedged requests: when an outstanding scatter call exceeds the
    // latency budget — the `hedge_percentile` of observed call latencies,
    // clamped to [hedge_floor_millis, hedge_cap_millis] — fire one
    // speculative call for the same segments to different live replicas
    // and merge whichever side answers first. Until `hedge_min_samples`
    // calls have been observed the budget is the cap (no hedging during
    // warmup, when the percentile estimate is noise).
    bool hedging_enabled = true;
    double hedge_percentile = 95.0;
    double hedge_floor_millis = 5.0;
    double hedge_cap_millis = 2000.0;
    uint64_t hedge_min_samples = 50;
    // Bound on speculative calls per query, so hedges cannot amplify an
    // overloaded cluster's load unboundedly.
    int max_hedged_calls = 4;

    // Broker load shedding: with this many queries already in flight, new
    // queries are rejected immediately with a throttled QueryResult (and a
    // retry-after estimate) instead of queueing until everything
    // saturates. <= 0 disables shedding.
    int max_inflight_queries = 1024;
  };

  Broker(std::string id, ClusterContext ctx, Options options);
  Broker(std::string id, ClusterContext ctx);
  ~Broker();

  /// Registers the instance and subscribes to external-view changes.
  void Start();

  const std::string& id() const { return id_; }

  /// Full client entry point: parse, route, scatter, gather, reduce.
  QueryResult Execute(const std::string& pql);
  QueryResult ExecuteQuery(const Query& query);

  /// Forces a routing rebuild for one physical table (normally triggered
  /// by the external-view watch).
  void RebuildRouting(const std::string& physical_table);

  /// Rendered worst-first slow-query traces, dumpable next to
  /// MetricsDump(). Broker-level spans are built for every query (cheap: a
  /// handful per request), so the log captures slow queries even when the
  /// client did not ask for TRACE.
  std::string SlowQueryLogDump(size_t top_n = 0) const {
    return slow_query_log_.Dump(top_n);
  }
  SlowQueryLog* slow_query_log() { return &slow_query_log_; }

  /// Per-server latency/load estimates feeding adaptive replica selection
  /// and the hedge budget (exposed for tests and introspection).
  ServerStatsRegistry* server_stats() { return &server_stats_; }

  /// Queries currently inside ExecuteQuery (the shed watermark input).
  int InFlightQueries() const {
    return inflight_queries_.load(std::memory_order_relaxed);
  }

 private:
  struct TableRouting {
    TableConfig config;
    bool config_loaded = false;
    std::vector<RoutingTable> routing_tables;
    // Segment -> partition id (-1 when unpartitioned), for partition-aware
    // pruning.
    std::map<std::string, int32_t> segment_partitions;
    // Segment -> queryable replicas, for partition-aware per-query routing.
    std::map<std::string, std::vector<std::string>> segment_servers;
  };

  /// Runs one physical table's scatter/gather and merges into `merged`.
  /// Failed or timed-out calls are retried on other live replicas within
  /// `deadline`; every call is counted on `merged->receipt` and recorded
  /// as a `call:<server>` child of `scatter_span` (wave number, outcome,
  /// per-segment replica-pick reason, the segments of a call that did not
  /// answer; server-side spans nest under their call).
  void QueryPhysicalTable(const std::string& physical_table,
                          const Query& query,
                          std::chrono::steady_clock::time_point deadline,
                          PartialResult* merged, TraceSpan* scatter_span);

  /// Builds the per-query routing for a partition-aware table.
  RoutingTable BuildPartitionAwareTable(const TableRouting& routing,
                                        const Query& query);

  std::shared_ptr<TableRouting> GetRouting(const std::string& physical_table);

  const std::string id_;
  ClusterContext ctx_;
  Options options_;
  MetricsRegistry* metrics_;
  // Declared before pool_ so scatter workers (which report call outcomes
  // into the registry) are joined before the registry is destroyed.
  ServerStatsRegistry server_stats_;
  std::atomic<int> inflight_queries_{0};
  ThreadPool pool_;
  int view_watch_handle_ = -1;

  SlowQueryLog slow_query_log_;

  mutable std::mutex mutex_;
  Random rng_;
  std::map<std::string, std::shared_ptr<TableRouting>> routing_;
};

}  // namespace pinot

#endif  // PINOT_CLUSTER_BROKER_H_
