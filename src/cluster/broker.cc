#include "cluster/broker.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <thread>

#include "cluster/property_store.h"
#include "common/hash.h"
#include "common/logging.h"
#include "query/parser.h"

namespace pinot {

Broker::Broker(std::string id, ClusterContext ctx, Options options)
    : id_(std::move(id)),
      ctx_(std::move(ctx)),
      options_(options),
      metrics_(ctx_.metrics != nullptr ? ctx_.metrics
                                       : MetricsRegistry::Default()),
      pool_(options.scatter_threads),
      slow_query_log_(SlowQueryLog::Options{
          options.slow_query_threshold_millis,
          options.slow_query_log_capacity}),
      rng_(options.seed) {
  // Pre-register the tail-tolerance series so dumps (and their grammar
  // checks) always show them, even before the first hedge or shed.
  metrics_->GetCounter("broker_hedged_calls_total");
  metrics_->GetCounter("broker_hedge_wins_total");
  metrics_->GetCounter("broker_shed_queries_total");
}

Broker::Broker(std::string id, ClusterContext ctx)
    : Broker(std::move(id), std::move(ctx), Options()) {}

Broker::~Broker() {
  if (view_watch_handle_ >= 0) {
    ctx_.cluster->UnwatchExternalView(view_watch_handle_);
  }
}

void Broker::Start() {
  ctx_.cluster->RegisterInstance(id_, {"broker"}, nullptr);
  view_watch_handle_ = ctx_.cluster->WatchExternalView(
      [this](const std::string& table) { RebuildRouting(table); });
}

void Broker::RebuildRouting(const std::string& physical_table) {
  auto routing = std::make_shared<TableRouting>();

  // Table config (for strategy parameters); may be absent for tables we
  // only see through the view.
  auto encoded =
      ctx_.property_store->Get(zkpaths::TableConfigPath(physical_table));
  if (encoded.ok()) {
    ByteReader reader(*encoded);
    auto config = TableConfig::Deserialize(&reader);
    if (config.ok()) {
      routing->config = std::move(config).value();
      routing->config_loaded = true;
    }
  }

  const TableView view = ctx_.cluster->GetExternalView(physical_table);
  routing->segment_servers = QueryableReplicas(view);

  // Partition metadata for partition-aware pruning and for upsert
  // replica-group routing (all segments of one partition must be served by
  // the same instance's key map).
  if (routing->config_loaded &&
      (routing->config.routing == RoutingStrategy::kPartitionAware ||
       routing->config.upsert_enabled)) {
    for (const auto& [segment, servers] : routing->segment_servers) {
      auto meta_encoded = ctx_.property_store->Get(
          zkpaths::SegmentMetadataPath(physical_table, segment));
      int32_t partition = -1;
      if (meta_encoded.ok()) {
        auto meta = SegmentZkMetadata::Decode(*meta_encoded);
        if (meta.ok()) partition = meta->partition;
      }
      routing->segment_partitions[segment] = partition;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!routing->segment_servers.empty()) {
    switch (routing->config_loaded ? routing->config.routing
                                   : RoutingStrategy::kBalanced) {
      case RoutingStrategy::kBalanced:
        for (int i = 0; i < options_.balanced_tables; ++i) {
          routing->routing_tables.push_back(
              BuildBalancedRoutingTable(routing->segment_servers, &rng_));
        }
        break;
      case RoutingStrategy::kGenerated: {
        GeneratedRoutingOptions gen;
        gen.target_server_count = routing->config.target_servers_per_query;
        gen.tables_to_generate = routing->config.routing_tables_to_generate;
        gen.tables_to_keep = routing->config.routing_tables_to_keep;
        routing->routing_tables =
            GenerateRoutingTables(routing->segment_servers, gen, &rng_);
        break;
      }
      case RoutingStrategy::kPartitionAware:
        // Built per query from the filter (section 4.4).
        break;
    }
  }
  routing_[physical_table] = std::move(routing);
}

std::shared_ptr<Broker::TableRouting> Broker::GetRouting(
    const std::string& physical_table) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = routing_.find(physical_table);
    if (it != routing_.end()) return it->second;
  }
  RebuildRouting(physical_table);
  std::lock_guard<std::mutex> lock(mutex_);
  return routing_[physical_table];
}

namespace {

// Finds EQ/IN predicates on `column` in the top-level conjunction and
// returns the matching partition set; `all_partitions` when the filter
// does not constrain the column.
void CollectPartitionValues(const FilterNode& node, const std::string& column,
                            std::vector<Value>* values, bool* constrained) {
  switch (node.kind) {
    case FilterNode::Kind::kLeaf:
      if (node.predicate.column == column &&
          (node.predicate.op == PredicateOp::kEq ||
           node.predicate.op == PredicateOp::kIn)) {
        *constrained = true;
        for (const auto& v : node.predicate.values) values->push_back(v);
      }
      return;
    case FilterNode::Kind::kAnd:
      for (const auto& child : node.children) {
        CollectPartitionValues(child, column, values, constrained);
      }
      return;
    case FilterNode::Kind::kOr:
      // Partition pruning across OR requires every branch to constrain the
      // column; keep it conservative and do not prune.
      return;
  }
}

}  // namespace

RoutingTable Broker::BuildPartitionAwareTable(const TableRouting& routing,
                                              const Query& query) {
  // Which partitions can match the query?
  std::vector<Value> values;
  bool constrained = false;
  if (query.filter.has_value() && routing.config.num_partitions > 0) {
    CollectPartitionValues(*query.filter, routing.config.partition_column,
                           &values, &constrained);
  }
  std::vector<bool> wanted(
      std::max(routing.config.num_partitions, 1), !constrained);
  if (constrained) {
    for (const auto& v : values) {
      const int partition = KafkaPartition(
          ValueToString(v), routing.config.num_partitions);
      wanted[partition] = true;
    }
  }

  RoutingTable table;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [segment, servers] : routing.segment_servers) {
    auto part_it = routing.segment_partitions.find(segment);
    const int32_t partition =
        part_it == routing.segment_partitions.end() ? -1 : part_it->second;
    // Unpartitioned segments (-1) must always be queried.
    if (partition >= 0 && partition < static_cast<int>(wanted.size()) &&
        !wanted[partition]) {
      continue;
    }
    // Per-query replica pick: adaptive (score-based) when enabled, else
    // uniform random as in the paper.
    const std::string server =
        options_.adaptive_routing
            ? PickReplicaAdaptive(servers, std::set<std::string>(), nullptr,
                                  &server_stats_,
                                  options_.explore_probability, &rng_)
            : servers[rng_.NextUint64(servers.size())];
    if (server.empty()) continue;
    table.server_segments[server].push_back(segment);
  }
  return table;
}

namespace {

// Whole-call failures worth retrying on another replica: the server was
// unreachable, died mid-request, or ran out of time. Anything else (e.g. a
// routing race reported as NotFound) carries data plus a per-segment
// status and is merged as-is.
bool IsRetryableScatterFailure(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
             .count() /
         1000.0;
}

int64_t SteadyMicros(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

void Broker::QueryPhysicalTable(const std::string& physical_table,
                                const Query& query,
                                std::chrono::steady_clock::time_point deadline,
                                PartialResult* merged,
                                TraceSpan* scatter_span) {
  QueryReceipt& receipt = merged->receipt;
  std::shared_ptr<TableRouting> routing = GetRouting(physical_table);
  if (routing->segment_servers.empty()) {
    return;  // Table has no queryable segments (not an error).
  }

  // Pick the routing table (section 3.3.3 step 2: "picked at random").
  RoutingTable table;
  const RoutingStrategy strategy = routing->config_loaded
                                       ? routing->config.routing
                                       : RoutingStrategy::kBalanced;
  // Upsert tables require strict replica groups: a query must read all of
  // a partition's segments from ONE server, whose key map then guarantees
  // at most one live row per key. Per-segment replica overrides (adaptive
  // selection, hedging) are disabled for them below.
  const bool upsert =
      routing->config_loaded && routing->config.upsert_enabled;
  if (upsert) {
    std::lock_guard<std::mutex> lock(mutex_);
    table = BuildUpsertRoutingTable(routing->segment_servers,
                                    routing->segment_partitions, &rng_);
  } else if (strategy == RoutingStrategy::kPartitionAware) {
    table = BuildPartitionAwareTable(*routing, query);
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    if (routing->routing_tables.empty()) return;
    table = routing->routing_tables[rng_.NextUint64(
        routing->routing_tables.size())];
  }

  auto reachable = [this](const std::string& s) {
    return ctx_.cluster->IsInstanceReachable(s);
  };

  // Why each segment is (currently) assigned to its server. Wave 0 comes
  // from the routing table, possibly overridden by adaptive selection;
  // retry waves record the prior outcome and how many untried live replicas
  // the picker chose among, so a failover run is explainable from the trace
  // alone.
  const char* initial_reason =
      upsert ? "upsert-replica-group"
             : strategy == RoutingStrategy::kPartitionAware
                   ? "partition-aware"
                   : "routing-table";
  std::map<std::string, std::string> pick_reason;
  for (const auto& [server, segments] : table.server_segments) {
    for (const auto& segment : segments) pick_reason[segment] = initial_reason;
  }
  // Last failure outcome per segment, feeding the next wave's pick reason.
  std::map<std::string, std::string> last_outcome;

  std::map<std::string, std::vector<std::string>> assignment =
      std::move(table.server_segments);

  // Adaptive replica selection (wave 0): power of two choices. Each segment
  // races its routing-table assignee against one sampled alternative
  // replica; the segment moves only when the alternative's EWMA×in-flight
  // score beats the assignee's by the hysteresis margin, or the assignee is
  // unreachable. With probability `explore_probability` the score check is
  // skipped and the assignment stays put, so a slow-marked server keeps
  // receiving occasional probe traffic that refreshes its EWMA downward
  // once it recovers.
  if (options_.adaptive_routing &&
      strategy != RoutingStrategy::kPartitionAware && !upsert) {
    std::map<std::string, std::vector<std::string>> adapted;
    for (const auto& [server, segments] : assignment) {
      for (const auto& segment : segments) {
        std::string chosen = server;
        auto replicas_it = routing->segment_servers.find(segment);
        if (replicas_it != routing->segment_servers.end() &&
            replicas_it->second.size() > 1) {
          bool probe = false;
          std::string alternative;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            probe = rng_.NextBool(options_.explore_probability);
            alternative =
                PickReplica(replicas_it->second, {server}, reachable, &rng_);
          }
          if (!alternative.empty()) {
            if (!reachable(server)) {
              chosen = alternative;
              pick_reason[segment] = "adaptive(unreachable)";
            } else if (!probe &&
                       server_stats_.ScoreOf(alternative) <
                           server_stats_.ScoreOf(server) *
                               options_.adaptive_hysteresis) {
              chosen = alternative;
              pick_reason[segment] = "adaptive(p2c)";
            }
          }
        }
        adapted[chosen].push_back(segment);
      }
    }
    assignment = std::move(adapted);
  }

  // Scatter/gather with bounded replica failover: each wave scatters the
  // still-unanswered segments, races the calls (hedging slow ones onto
  // other replicas), and re-routes the segments of failed calls to a
  // replica that has not failed them yet. Segments whose call answered are
  // merged exactly once — of a hedge race, only one side is ever merged,
  // and a retried call's original result is discarded wholesale, never
  // merged alongside its replacement.
  std::map<std::string, std::set<std::string>> tried_servers;
  std::vector<std::string> dead_segments;  // Replicas/retries exhausted.
  const int max_attempts = std::max(1, options_.max_scatter_retries + 1);
  int hedges_fired = 0;
  bool deadline_exhausted = false;

  struct ScatterCall {
    std::string server;
    std::vector<std::string> segments;
    PartialResult result;
    // Stored (release) by the worker once `result` is written. The call
    // holds no future: the pool task owns the call, so a future here would
    // close an ownership cycle and no call would ever be freed.
    std::atomic<bool> done{false};
    std::chrono::steady_clock::time_point started;
    bool hedge = false;
    std::string hedge_of;   // Primary server this call hedges, if any.
    bool finished = false;  // `done` observed by the gather loop.
    bool failed = false;    // Finished with a retryable failure.
  };

  // A primary scatter call plus any speculative hedges covering the same
  // segments. Exactly one side of the race is merged per segment.
  struct CallGroup {
    std::shared_ptr<ScatterCall> primary;
    std::vector<std::shared_ptr<ScatterCall>> hedges;
    bool hedges_cover_all = false;  // Hedges jointly cover every segment.
    bool hedge_attempted = false;
    bool resolved = false;
  };

  auto submit_call = [&](const std::string& server,
                         std::vector<std::string> segments,
                         bool hedge) -> std::shared_ptr<ScatterCall> {
    QueryServerApi* endpoint =
        ctx_.server_endpoint ? ctx_.server_endpoint(server) : nullptr;
    if (endpoint == nullptr || !ctx_.cluster->IsInstanceReachable(server)) {
      return nullptr;
    }
    auto call = std::make_shared<ScatterCall>();
    call->server = server;
    call->segments = std::move(segments);
    call->hedge = hedge;
    ServerQueryRequest request;
    request.physical_table = physical_table;
    request.query = query;
    request.segments = call->segments;
    request.tenant =
        routing->config_loaded ? routing->config.server_tenant : std::string();
    request.timeout_millis = std::max<int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               deadline - std::chrono::steady_clock::now())
               .count());
    call->started = std::chrono::steady_clock::now();
    // The worker reports the true service time into the stats registry even
    // when the broker abandons the call first — exactly the signal adaptive
    // selection needs to steer traffic away from the slow server. The task
    // keeps an abandoned call alive until its worker finishes.
    ServerStatsRegistry* stats = &server_stats_;
    stats->OnCallStart(call->server);
    pool_.Submit([call, endpoint, stats, request = std::move(request)] {
      const auto run_start = std::chrono::steady_clock::now();
      call->result = endpoint->ExecuteServerQuery(request);
      stats->OnCallFinish(call->server, MillisSince(run_start),
                          call->result.status.ok());
      call->done.store(true, std::memory_order_release);
    });
    return call;
  };

  for (int attempt = 0; attempt < max_attempts && !assignment.empty();
       ++attempt) {
    std::set<std::string> failed_segments;

    // Fills the pick-reason list parallel to `segments` from the current
    // assignment reasons.
    auto reasons_for = [&](const std::vector<std::string>& segments) {
      std::vector<std::string> reasons;
      reasons.reserve(segments.size());
      for (const auto& segment : segments) {
        auto it = pick_reason.find(segment);
        reasons.push_back(it != pick_reason.end() ? it->second
                                                  : initial_reason);
      }
      return reasons;
    };
    auto reasons_of = [&](const ScatterCall& call) {
      if (call.hedge) {
        return std::vector<std::string>(call.segments.size(),
                                        "hedge(of " + call.hedge_of + ")");
      }
      return reasons_for(call.segments);
    };

    // One child span per scatter call ("call:<server>" for primaries,
    // "hedge:<server>" for hedges), opened at submit time, closed at
    // resolution and counted on the receipt: wave + outcome, the
    // per-segment replica-pick reason (collapsed to one whole-call label
    // when uniform), `hedge=won|lost` on hedges, the segments of any call
    // that did not answer ok, and server-side spans (TRACE/EXPLAIN) nested
    // under it.
    auto emit = [&](const std::string& server,
                    const std::vector<std::string>& segments,
                    const std::vector<std::string>& reasons,
                    int64_t start_micros, const std::string& outcome,
                    const char* hedge, std::vector<TraceSpan>* children) {
      ++receipt.calls;
      TraceSpan call_span = TraceSpan::OpenAt(
          (hedge != nullptr ? "hedge:" : "call:") + server, start_micros);
      call_span.Label("outcome", outcome);
      bool uniform = true;
      for (const auto& reason : reasons) {
        if (reason != reasons.front()) {
          uniform = false;
          break;
        }
      }
      if (uniform && !reasons.empty()) {
        call_span.Label("pick", reasons.front());
      } else {
        for (size_t i = 0; i < segments.size(); ++i) {
          call_span.Label("pick:" + segments[i], reasons[i]);
        }
      }
      if (outcome != "ok") {
        std::string covered;
        for (const auto& segment : segments) {
          if (!covered.empty()) covered += ',';
          covered += segment;
        }
        call_span.Label("covered", std::move(covered));
      }
      if (hedge != nullptr) call_span.Label("hedge", hedge);
      call_span.Annotate("wave", attempt);
      call_span.Annotate("segments", static_cast<int64_t>(segments.size()));
      if (children != nullptr) {
        for (auto& child : *children) call_span.AddChild(std::move(child));
        children->clear();
      }
      call_span.Close();
      scatter_span->AddChild(std::move(call_span));
    };
    // The span of a submitted call; `merged_data` marks the side of a race
    // whose response is merged (its server spans nest under the call, and
    // a hedge that is merged won).
    auto emit_call = [&](ScatterCall& call, const std::string& outcome,
                         bool merged_data) {
      const char* hedge =
          call.hedge ? (merged_data ? "won" : "lost") : nullptr;
      emit(call.server, call.segments, reasons_of(call),
           SteadyMicros(call.started), outcome, hedge,
           merged_data ? &call.result.spans : nullptr);
    };
    auto answered_outcome = [](const ScatterCall& call) {
      const Status& st = call.result.status;
      return st.ok() ? std::string("ok") : "error: " + st.ToString();
    };

    // Marks a call's unanswered segments for failover in the next wave.
    auto fail_segments = [&](const ScatterCall& call,
                             const std::string& outcome,
                             const std::set<std::string>* answered) {
      for (const auto& segment : call.segments) {
        if (answered != nullptr && answered->count(segment) > 0) continue;
        tried_servers[segment].insert(call.server);
        failed_segments.insert(segment);
        last_outcome[segment] = outcome;
      }
    };

    // Resolves a race: merges exactly one side, emits a span per call, and
    // routes unanswered segments into the failover set.
    auto resolve_group = [&](CallGroup& group) {
      group.resolved = true;
      ScatterCall& primary = *group.primary;
      // Primary finished first with data (ok, or a non-retryable error that
      // still carries per-segment results): merge it, the hedges lose.
      if (primary.finished && !primary.failed) {
        emit_call(primary, answered_outcome(primary), true);
        merged->Merge(std::move(primary.result));
        for (auto& hedge : group.hedges) {
          emit_call(*hedge,
                    hedge->finished ? "discarded (hedge lost)"
                                    : "abandoned (hedge lost)",
                    false);
        }
        return;
      }

      // Hedge side: merge every hedge that finished with data. Those
      // segments are answered exactly once — the primary's copy of them is
      // never merged past this point.
      std::set<std::string> answered;
      for (auto& hedge : group.hedges) {
        if (!hedge->finished || hedge->failed) continue;
        ++receipt.hedge_wins;
        emit_call(*hedge, answered_outcome(*hedge), true);
        answered.insert(hedge->segments.begin(), hedge->segments.end());
        merged->Merge(std::move(hedge->result));
      }

      // Primary loses: still running (abandoned; the pool task keeps the
      // call alive and its late result is never merged) or finished with a
      // retryable failure.
      if (!primary.finished) {
        if (answered.empty()) {
          ++receipt.timeouts;
          server_stats_.PenalizeFailure(primary.server);
          emit_call(primary, "timeout", false);
        } else {
          emit_call(primary, "abandoned (hedge won)", false);
        }
        fail_segments(primary, "timeout", &answered);
      } else {
        const std::string outcome =
            "failed: " + primary.result.status.ToString();
        emit_call(primary, outcome, false);
        fail_segments(primary, outcome, &answered);
      }

      // Losing hedges (failed, or still running at the wave deadline).
      for (auto& hedge : group.hedges) {
        if (hedge->finished && !hedge->failed) continue;  // Merged above.
        std::string outcome = "timeout";
        if (hedge->finished) {
          outcome = "failed: " + hedge->result.status.ToString();
        } else {
          ++receipt.timeouts;
          server_stats_.PenalizeFailure(hedge->server);
        }
        emit_call(*hedge, outcome, false);
        fail_segments(*hedge, outcome, &answered);
      }
    };

    // Never scatter a wave whose deadline budget is already exhausted: its
    // calls could not finish in time and would only add load to a cluster
    // that is presumably struggling. Surface the segments as timeouts.
    if (std::chrono::steady_clock::now() >= deadline) {
      for (const auto& [server, segments] : assignment) {
        ++receipt.timeouts;
        emit(server, segments, reasons_for(segments), TraceSpan::NowMicros(),
             "timeout (deadline exhausted)", nullptr, nullptr);
        dead_segments.insert(dead_segments.end(), segments.begin(),
                             segments.end());
      }
      assignment.clear();
      deadline_exhausted = true;
      break;
    }

    // Scatter (step 3). Dead or unknown servers fail immediately and their
    // segments join this wave's retry set.
    std::vector<CallGroup> groups;
    for (auto& [server, segments] : assignment) {
      auto call = submit_call(server, segments, /*hedge=*/false);
      if (call == nullptr) {
        server_stats_.PenalizeFailure(server);
        emit(server, segments, reasons_for(segments), TraceSpan::NowMicros(),
             "unreachable", nullptr, nullptr);
        for (const auto& segment : segments) {
          tried_servers[segment].insert(server);
          failed_segments.insert(segment);
          last_outcome[segment] = "unreachable";
        }
        continue;
      }
      CallGroup group;
      group.primary = std::move(call);
      groups.push_back(std::move(group));
    }

    // Gather (steps 6-7): poll the race. Every wave but the last waits only
    // for its share of the remaining budget so failed segments still have
    // time to retry; the last wave runs to the query deadline.
    auto attempt_deadline = deadline;
    const auto now = std::chrono::steady_clock::now();
    if (attempt + 1 < max_attempts && deadline > now) {
      attempt_deadline = now + (deadline - now) / (max_attempts - attempt);
    }
    const double hedge_budget_millis = server_stats_.HedgeBudgetMillis(
        options_.hedge_percentile, options_.hedge_floor_millis,
        options_.hedge_cap_millis, options_.hedge_min_samples);

    size_t unresolved = groups.size();
    while (unresolved > 0 &&
           std::chrono::steady_clock::now() < attempt_deadline) {
      bool progressed = false;
      for (auto& group : groups) {
        if (group.resolved) continue;
        auto observe = [&](ScatterCall& call) {
          if (call.finished || !call.done.load(std::memory_order_acquire)) {
            return;
          }
          call.finished = true;
          call.failed = !call.result.status.ok() &&
                        IsRetryableScatterFailure(call.result.status.code());
          progressed = true;
        };
        observe(*group.primary);
        for (auto& hedge : group.hedges) observe(*hedge);

        const ScatterCall& primary = *group.primary;
        bool all_hedges_done = true;
        bool any_hedge_failed = false;
        for (const auto& hedge : group.hedges) {
          if (!hedge->finished) {
            all_hedges_done = false;
          } else if (hedge->failed) {
            any_hedge_failed = true;
          }
        }

        if (primary.finished && !primary.failed) {
          resolve_group(group);
          --unresolved;
          continue;
        }
        if (primary.finished && primary.failed &&
            (group.hedges.empty() || all_hedges_done)) {
          // The whole race is decided; fail over without waiting out the
          // wave deadline.
          resolve_group(group);
          --unresolved;
          continue;
        }
        if (!primary.finished && group.hedges_cover_all && all_hedges_done &&
            !any_hedge_failed) {
          // Every hedge answered: the primary lost the race.
          resolve_group(group);
          --unresolved;
          continue;
        }

        // Hedge trigger: the primary has been outstanding past the latency
        // budget and the per-query speculative-call allowance is not spent.
        if (options_.hedging_enabled && !upsert && !group.hedge_attempted &&
            !primary.finished && hedges_fired < options_.max_hedged_calls &&
            MillisSince(primary.started) > hedge_budget_millis) {
          group.hedge_attempted = true;
          // Route every segment of the slow call to a different live
          // replica; hedge only on full coverage, so a winning hedge side
          // fully replaces the primary.
          std::map<std::string, std::vector<std::string>> hedge_assignment;
          bool full_cover = true;
          for (const auto& segment : primary.segments) {
            auto replicas_it = routing->segment_servers.find(segment);
            std::string replica;
            if (replicas_it != routing->segment_servers.end()) {
              std::set<std::string> exclude = tried_servers[segment];
              exclude.insert(primary.server);
              std::lock_guard<std::mutex> lock(mutex_);
              replica = PickReplicaAdaptive(
                  replicas_it->second, exclude, reachable,
                  options_.adaptive_routing ? &server_stats_ : nullptr,
                  /*explore_probability=*/0, &rng_);
            }
            if (replica.empty()) {
              full_cover = false;
              break;
            }
            hedge_assignment[replica].push_back(segment);
          }
          if (full_cover && !hedge_assignment.empty() &&
              hedges_fired + static_cast<int>(hedge_assignment.size()) <=
                  options_.max_hedged_calls) {
            bool all_submitted = true;
            for (auto& [server, segments] : hedge_assignment) {
              auto hedge = submit_call(server, std::move(segments),
                                       /*hedge=*/true);
              if (hedge == nullptr) {
                // Raced an instance death; the primary still covers the
                // segments, so just skip this speculative call.
                all_submitted = false;
                continue;
              }
              hedge->hedge_of = primary.server;
              ++hedges_fired;
              ++receipt.hedges;
              group.hedges.push_back(std::move(hedge));
              progressed = true;
            }
            group.hedges_cover_all = all_submitted && !group.hedges.empty();
          }
        }
      }
      if (unresolved > 0 && !progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    // Wave deadline: resolve whatever is still racing (unfinished calls
    // are abandoned and, when nothing answered their segments, counted as
    // timeouts).
    for (auto& group : groups) {
      if (!group.resolved) resolve_group(group);
    }

    // Re-route failed segments to untried live replicas (next wave).
    assignment.clear();
    if (failed_segments.empty()) break;
    if (attempt + 1 >= max_attempts) {
      dead_segments.insert(dead_segments.end(), failed_segments.begin(),
                           failed_segments.end());
      break;
    }
    // For upsert tables, failed segments of the same partition should land
    // on the SAME replacement replica so its key map still covers the whole
    // partition lineage; memoize the first pick per partition and reuse it
    // when the later segments' replica sets allow.
    std::map<int32_t, std::string> partition_failover_pick;
    for (const auto& segment : failed_segments) {
      auto servers_it = routing->segment_servers.find(segment);
      std::string replica;
      size_t candidates = 0;
      if (servers_it != routing->segment_servers.end()) {
        const std::set<std::string>& tried = tried_servers[segment];
        for (const auto& server : servers_it->second) {
          if (tried.count(server) == 0 && reachable(server)) ++candidates;
        }
        int32_t partition = -1;
        if (upsert) {
          auto part_it = routing->segment_partitions.find(segment);
          if (part_it != routing->segment_partitions.end()) {
            partition = part_it->second;
          }
          auto pick_it = partition_failover_pick.find(partition);
          if (partition >= 0 && pick_it != partition_failover_pick.end() &&
              tried.count(pick_it->second) == 0 &&
              reachable(pick_it->second) &&
              std::find(servers_it->second.begin(), servers_it->second.end(),
                        pick_it->second) != servers_it->second.end()) {
            replica = pick_it->second;
          }
        }
        if (replica.empty()) {
          std::lock_guard<std::mutex> lock(mutex_);
          replica = options_.adaptive_routing && !upsert
                        ? PickReplicaAdaptive(servers_it->second, tried,
                                              reachable, &server_stats_,
                                              options_.explore_probability,
                                              &rng_)
                        : PickReplica(servers_it->second, tried, reachable,
                                      &rng_);
          if (upsert && partition >= 0 && !replica.empty()) {
            partition_failover_pick[partition] = replica;
          }
        }
      }
      if (replica.empty()) {
        dead_segments.push_back(segment);
      } else {
        ++receipt.retries;
        pick_reason[segment] = "failover(" + last_outcome[segment] +
                               ", candidates=" +
                               std::to_string(candidates) + ")";
        assignment[replica].push_back(segment);
      }
    }
  }

  if (!dead_segments.empty()) {
    std::sort(dead_segments.begin(), dead_segments.end());
    dead_segments.erase(
        std::unique(dead_segments.begin(), dead_segments.end()),
        dead_segments.end());
    std::string message =
        deadline_exhausted
            ? "query deadline exhausted before segments could be scattered:"
            : "no live replica answered segments:";
    for (const auto& segment : dead_segments) message += " " + segment;
    message += " (table " + physical_table + ")";
    if (merged->status.ok()) {
      merged->status = deadline_exhausted
                           ? Status::Timeout(std::move(message))
                           : Status::Unavailable(std::move(message));
    }
  }
}

QueryResult Broker::Execute(const std::string& pql) {
  auto query = ParsePql(pql);
  if (!query.ok()) {
    QueryResult result;
    result.partial = true;
    result.error_message = query.status().ToString();
    return result;
  }
  return ExecuteQuery(*query);
}

namespace {

// Defensive parse of the time-boundary property. A corrupt value (empty,
// non-numeric, trailing garbage, out of range) must not take the broker
// down — this path used to throw out of std::stoll on garbage znodes.
std::optional<int64_t> ParseTimeBoundary(const std::string& raw) {
  if (raw.empty()) return std::nullopt;
  // strtoll silently skips leading whitespace; treat it as corruption.
  if (std::isspace(static_cast<unsigned char>(raw.front()))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw.c_str(), &end, 10);
  if (errno == ERANGE || end != raw.c_str() + raw.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(parsed);
}

}  // namespace

QueryResult Broker::ExecuteQuery(const Query& query) {
  const auto start = std::chrono::steady_clock::now();

  // Load shedding (watermark admission): past the in-flight watermark the
  // broker rejects immediately with an explicit throttled result instead of
  // queueing work it cannot finish in time, so overload degrades into fast
  // retryable rejections rather than a cluster-wide latency collapse.
  struct InFlightGuard {
    std::atomic<int>* counter;
    ~InFlightGuard() { counter->fetch_sub(1, std::memory_order_relaxed); }
  };
  const int inflight =
      inflight_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  InFlightGuard inflight_guard{&inflight_queries_};
  if (options_.max_inflight_queries > 0 &&
      inflight > options_.max_inflight_queries) {
    metrics_->GetCounter("broker_shed_queries_total")->Increment();
    metrics_->GetCounter("broker_shed_queries_total",
                         {{"table", query.table}})
        ->Increment();
    QueryResult result;
    result.partial = true;
    result.throttled = true;
    // Retry-after estimate: the typical scatter-call latency is roughly how
    // long until in-flight slots free up (floored so clients always back
    // off a little).
    result.retry_after_millis =
        std::max(1.0, server_stats_.latency_histogram()->Percentile(50.0));
    result.error_message =
        "broker " + id_ + " overloaded: " + std::to_string(inflight - 1) +
        " queries in flight (watermark " +
        std::to_string(options_.max_inflight_queries) + ")";
    result.latency_millis = MillisSince(start);
    return result;
  }

  const auto deadline =
      start + std::chrono::milliseconds(options_.default_timeout_millis);
  PartialResult merged;

  // Broker-level spans are built for every query, traced or not: route /
  // scatter / reduce are a handful of spans per request, and the slow-query
  // log needs them for queries that did not ask for TRACE.
  TraceSpan root = TraceSpan::Open("broker:" + id_);
  TraceSpan route_span = TraceSpan::Open("route");

  // Resolve the logical table into physical tables. A name that is already
  // physical is used as-is.
  std::vector<std::pair<std::string, Query>> plans;
  auto is_physical = [](const std::string& name) {
    return name.size() > 8 &&
           (name.rfind("_OFFLINE") == name.size() - 8 ||
            (name.size() > 9 && name.rfind("_REALTIME") == name.size() - 9));
  };
  if (is_physical(query.table)) {
    plans.emplace_back(query.table, query);
  } else {
    const std::string offline = query.table + "_OFFLINE";
    const std::string realtime = query.table + "_REALTIME";
    const bool has_offline =
        ctx_.property_store->Exists(zkpaths::TableConfigPath(offline));
    const bool has_realtime =
        ctx_.property_store->Exists(zkpaths::TableConfigPath(realtime));
    if (has_offline && has_realtime) {
      // Hybrid rewrite (section 3.3.3, Figure 6): offline serves strictly
      // before the time boundary, realtime serves at/after it.
      auto boundary_str =
          ctx_.property_store->Get(zkpaths::TimeBoundaryPath(query.table));
      auto config_encoded =
          ctx_.property_store->Get(zkpaths::TableConfigPath(offline));
      std::string time_column;
      if (config_encoded.ok()) {
        ByteReader reader(*config_encoded);
        auto config = TableConfig::Deserialize(&reader);
        if (config.ok()) time_column = config->schema.time_column();
      }
      std::optional<int64_t> boundary;
      if (boundary_str.ok()) {
        boundary = ParseTimeBoundary(*boundary_str);
        if (!boundary.has_value()) {
          PINOT_LOG_WARN << id_ << ": corrupt time boundary for "
                         << query.table << " (\"" << *boundary_str
                         << "\"); falling back to unfiltered hybrid plan";
        }
      }
      if (boundary.has_value() && !time_column.empty()) {
        auto with_time_filter = [&](const Query& base, bool offline_side) {
          Query q = base;
          Predicate pred;
          pred.column = time_column;
          pred.op = PredicateOp::kRange;
          if (offline_side) {
            pred.upper = *boundary - 1;
            pred.upper_inclusive = true;
          } else {
            pred.lower = *boundary;
            pred.lower_inclusive = true;
          }
          FilterNode leaf = FilterNode::Leaf(std::move(pred));
          if (q.filter.has_value()) {
            q.filter = FilterNode::And({*std::move(q.filter), std::move(leaf)});
          } else {
            q.filter = std::move(leaf);
          }
          return q;
        };
        plans.emplace_back(offline, with_time_filter(query, true));
        plans.emplace_back(realtime, with_time_filter(query, false));
      } else {
        plans.emplace_back(offline, query);
        plans.emplace_back(realtime, query);
      }
    } else if (has_offline) {
      plans.emplace_back(offline, query);
    } else if (has_realtime) {
      plans.emplace_back(realtime, query);
    } else {
      QueryResult result;
      result.partial = true;
      result.error_message = "no such table: " + query.table;
      return result;
    }
  }

  route_span.Close();
  metrics_->GetHistogram("broker_route_time_ms")
      ->Observe(route_span.duration_millis());
  merged.receipt.route_micros +=
      static_cast<int64_t>(route_span.duration_millis() * 1000.0);
  root.AddChild(std::move(route_span));

  const MetricLabels table_labels = {{"table", query.table}};
  for (const auto& [physical, subquery] : plans) {
    TraceSpan scatter_span = TraceSpan::Open("scatter:" + physical);
    QueryPhysicalTable(physical, subquery, deadline, &merged, &scatter_span);
    scatter_span.Close();
    metrics_->GetHistogram("broker_scatter_time_ms", table_labels)
        ->Observe(scatter_span.duration_millis());
    merged.receipt.scatter_micros +=
        static_cast<int64_t>(scatter_span.duration_millis() * 1000.0);
    root.AddChild(std::move(scatter_span));
  }
  // Server spans were re-parented under their call spans before merging;
  // anything left (defensive) would dangle, so drop it.
  merged.spans.clear();

  QueryResult result;
  if (query.explain) {
    // EXPLAIN: planning already ran per segment inside the scatter; report
    // stats and the span tree without reducing (there are no rows).
    result.explain_only = true;
    result.stats = merged.stats;
    result.receipt = merged.receipt;
    result.total_docs = merged.total_docs;
    if (!merged.status.ok()) {
      result.partial = true;
      result.error_message = merged.status.ToString();
    }
  } else {
    TraceSpan reduce_span = TraceSpan::Open("reduce");
    result = ReduceToFinalResult(query, std::move(merged));
    reduce_span.Close();
    metrics_->GetHistogram("broker_reduce_time_ms")
        ->Observe(reduce_span.duration_millis());
    result.receipt.reduce_micros +=
        static_cast<int64_t>(reduce_span.duration_millis() * 1000.0);
    root.AddChild(std::move(reduce_span));
  }
  const auto end = std::chrono::steady_clock::now();
  result.latency_millis =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count() /
      1000.0;
  root.Close();

  // Unlabeled counters keep their broker-wide meaning; the {table=...}
  // series roll the same families up per logical table for dashboards and
  // the SLO health rules.
  metrics_->GetCounter("broker_queries_total")->Increment();
  metrics_->GetCounter("broker_queries_total", table_labels)->Increment();
  if (result.partial) {
    metrics_->GetCounter("broker_partial_results_total")->Increment();
    metrics_->GetCounter("broker_partial_results_total", table_labels)
        ->Increment();
  }
  const QueryReceipt& receipt = result.receipt;
  for (const auto& [family, count] : {
           std::pair<const char*, uint32_t>{"broker_scatter_retries_total",
                                            receipt.retries},
           {"broker_scatter_timeouts_total", receipt.timeouts},
           {"broker_hedged_calls_total", receipt.hedges},
           {"broker_hedge_wins_total", receipt.hedge_wins}}) {
    if (count == 0) continue;
    metrics_->GetCounter(family)->Increment(count);
    metrics_->GetCounter(family, table_labels)->Increment(count);
  }
  if (result.stats.docs_scanned > 0) {
    metrics_->GetCounter("broker_docs_scanned_total", table_labels)
        ->Increment(result.stats.docs_scanned);
  }
  if (receipt.payload_bytes > 0) {
    metrics_->GetCounter("broker_scatter_payload_bytes_total", table_labels)
        ->Increment(receipt.payload_bytes);
  }
  metrics_->GetHistogram("broker_query_latency_ms", table_labels)
      ->Observe(result.latency_millis);

  if (!query.explain) {
    const bool slow = slow_query_log_.Record(
        result.latency_millis, query.table, query.ToString(), root,
        receipt.ToString(result.stats));
    if (slow) {
      metrics_->GetCounter("broker_slow_queries_total", table_labels)
          ->Increment();
    }
  }
  // A partial result keeps the broker span tree even without TRACE: its
  // call spans name the server that failed, how, and the segments it
  // covered.
  if (query.trace || query.explain || result.partial) {
    result.span = std::move(root);
  }
  return result;
}

}  // namespace pinot
