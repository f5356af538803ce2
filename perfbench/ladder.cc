#include "ladder.h"

#include <algorithm>
#include <cstdio>

#include "common/thread_pool.h"
#include "query/filter_evaluator.h"
#include "query/parser.h"
#include "query/segment_executor.h"
#include "query/table_executor.h"
#include "realtime/mutable_segment.h"

namespace perfbench {

using pinot::PartialResult;
using pinot::QueryResult;

pinot::SegmentBuildConfig BuildConfigOf(const pinot::TableConfig& table,
                                        const std::string& segment) {
  pinot::SegmentBuildConfig config;
  config.table_name = table.PhysicalName();
  config.segment_name = segment;
  config.sort_columns = table.sort_columns;
  config.inverted_index_columns = table.inverted_index_columns;
  config.star_tree = table.star_tree;
  return config;
}

namespace {

/// Sum of the durations of `parent`'s children. Called right after the
/// parent closes, so only its own children follow it in the log.
double ChildMicros(const SpanLog& spans, int parent) {
  double total = 0;
  for (size_t i = parent + 1; i < spans.spans().size(); ++i) {
    if (spans.at(static_cast<int>(i)).parent == parent) {
      total += spans.at(static_cast<int>(i)).micros();
    }
  }
  return total;
}

}  // namespace

LadderSamples RunLadder(const LadderInput& input, SpanLog* spans) {
  LadderSamples out;
  // The pooled depth runs on a pool the size of a server's.
  pinot::ThreadPool pool(pinot::Server::Options().num_query_threads);
  pinot::Broker* broker = input.cluster->broker(0);
  const std::vector<BenchQuery>& queries = *input.queries;
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(input.seconds * 1e9);
  for (uint64_t i = 0; i < kMaxLadderQueries; ++i) {
    if (NowNanos() >= deadline) break;
    if (input.stop != nullptr && input.stop->load(std::memory_order_acquire)) {
      break;
    }
    const BenchQuery& query = queries[i % queries.size()];
    const std::string cls = ClassName(query.cls);
    const int64_t qid = static_cast<int64_t>(i);
    bool ok = true;
    const int root = spans->Open("query", -1, qid, cls);

    int depth = spans->Open("parse", root, qid, cls);
    auto parsed = pinot::ParsePql(query.pql);
    spans->Close(depth);
    out.parse.push_back(spans->at(depth).micros());
    ok = ok && parsed.ok();

    depth = spans->Open("filter", root, qid, cls);
    for (const ServerShare& share : input.own) {
      for (size_t s = 0; s < share.own.size(); ++s) {
        const int call = spans->Open("filter:" + share.names[s], depth, qid,
                                     cls);
        pinot::FilterEvaluator evaluator(*share.own[s], nullptr);
        auto docs = evaluator.Evaluate(query.parsed.filter);
        spans->Close(call);
        ok = ok && docs.ok();
      }
    }
    spans->Close(depth);
    out.filter.push_back(ChildMicros(*spans, depth));

    depth = spans->Open("segment", root, qid, cls);
    PartialResult serial;
    for (const ServerShare& share : input.own) {
      for (size_t s = 0; s < share.own.size(); ++s) {
        const int call = spans->Open("segment:" + share.names[s], depth, qid,
                                     cls);
        pinot::Status status =
            pinot::ExecuteQueryOnSegment(*share.own[s], query.parsed, &serial);
        spans->Close(call);
        ok = ok && status.ok();
      }
    }
    spans->Close(depth);
    out.segment.push_back(ChildMicros(*spans, depth));

    // Servers run their shares side by side, so the slowest share is the
    // pooled depth's time.
    depth = spans->Open("pool", root, qid, cls);
    PartialResult merged;
    double pool_max = 0;
    for (const ServerShare& share : input.own) {
      const int call = spans->Open(
          "pool:server-" + std::to_string(share.server), depth, qid, cls);
      PartialResult partial =
          pinot::ExecuteQueryOnSegments(share.own, query.parsed, &pool);
      spans->Close(call);
      pool_max = std::max(pool_max, spans->at(call).micros());
      merged.Merge(std::move(partial));
    }
    spans->Close(depth);
    out.pool.push_back(pool_max);
    ok = ok && merged.status.ok();
    out.docs_scanned += merged.stats.docs_scanned;
    out.docs_matched += merged.stats.docs_matched;
    out.total_docs += merged.total_docs;

    depth = spans->Open("reduce", root, qid, cls);
    QueryResult reduced =
        pinot::ReduceToFinalResult(query.parsed, std::move(merged));
    spans->Close(depth);
    out.reduce.push_back(spans->at(depth).micros());
    if (query.expected.has_value()) {
      ok = ok && SameAnswer(reduced, *query.expected, nullptr);
    }

    depth = spans->Open("server", root, qid, cls);
    double exec_max = 0;
    for (const auto& [server, segments] : input.server_requests()) {
      pinot::ServerQueryRequest request;
      request.physical_table = input.physical;
      request.query = query.parsed;
      request.segments = segments;
      request.tenant = "DefaultTenant";
      const int call = spans->Open("server:server-" + std::to_string(server),
                                   depth, qid, cls);
      PartialResult partial =
          input.cluster->server(server)->ExecuteServerQuery(request);
      spans->Close(call);
      exec_max = std::max(exec_max, spans->at(call).micros());
      ok = ok && partial.status.ok();
    }
    spans->Close(depth);
    out.server_exec.push_back(exec_max);
    out.server_overhead.push_back(exec_max - pool_max);

    depth = spans->Open("broker", root, qid, cls);
    QueryResult result = broker->Execute(query.pql);
    spans->Close(depth);
    const pinot::QueryReceipt& receipt = result.receipt;
    spans->Count(depth, "route_us", receipt.route_micros);
    spans->Count(depth, "scatter_us", receipt.scatter_micros);
    spans->Count(depth, "reduce_us", receipt.reduce_micros);
    spans->Count(depth, "queue_us", receipt.queue_micros);
    spans->Count(depth, "calls", receipt.calls);
    spans->Count(depth, "payload_bytes",
                 static_cast<int64_t>(receipt.payload_bytes));
    out.broker_execute.push_back(spans->at(depth).micros());
    out.broker_overhead.push_back(spans->at(depth).micros() - exec_max);
    out.receipts.push_back(receipt);
    ok = ok && Complete(result);
    if (query.expected.has_value()) {
      ok = ok && SameAnswer(result, *query.expected, nullptr);
    }

    spans->Close(root);
    ++out.queries;
    if (!ok) ++out.failed;
  }
  return out;
}

MutableProbe ProbeMutableSegment(const pinot::TableConfig& table,
                                 const std::vector<pinot::Row>& rows) {
  MutableProbe out;
  std::vector<double> index_us;
  std::vector<double> seal_ms;
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto segment = std::make_shared<pinot::MutableSegment>(
        table.schema, table.PhysicalName(), "probe_consuming",
        pinot::RealClock::Instance());
    const int64_t start = NowNanos();
    for (const pinot::Row& row : rows) Check(segment->Index(row), "Index");
    index_us.push_back(MicrosSince(start) / static_cast<double>(rows.size()));
    const int64_t seal_start = NowNanos();
    auto sealed = segment->Seal(BuildConfigOf(table, "probe_sealed"));
    seal_ms.push_back(MicrosSince(seal_start) / 1000.0);
    Check(sealed.status(), "Seal");
    out.consuming = segment;
    out.sealed = *sealed;
  }
  out.index_us_per_row = Median(index_us);
  out.seal_ms = Median(seal_ms);
  return out;
}

double ProbeSegmentBuild(const pinot::Schema& schema,
                         const pinot::SegmentBuildConfig& config,
                         const std::vector<pinot::Row>& rows) {
  std::vector<double> rows_per_s;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const int64_t start = NowNanos();
    pinot::SegmentBuilder builder(schema, config);
    for (const pinot::Row& row : rows) Check(builder.AddRow(row), "AddRow");
    auto built = builder.Build();
    const double seconds = MicrosSince(start) / 1e6;
    Check(built.status(), "Build");
    rows_per_s.push_back(static_cast<double>(rows.size()) / seconds);
  }
  return Median(rows_per_s);
}

double ProbeMetricsLookupNs(pinot::MetricsRegistry* registry) {
  const pinot::MetricLabels labels = {{"instance", "server-0"}};
  const std::string name = "server_queries_total";
  registry->GetCounter(name, labels);
  constexpr int kCallsPerBatch = 200;
  std::vector<double> per_call_ns;
  for (int batch = 0; batch < 500; ++batch) {
    const int64_t start = NowNanos();
    for (int call = 0; call < kCallsPerBatch; ++call) {
      registry->GetCounter(name, labels);
    }
    per_call_ns.push_back(static_cast<double>(NowNanos() - start) /
                          kCallsPerBatch);
  }
  return Median(per_call_ns);
}

void DriveTicks(pinot::PinotCluster* cluster, int64_t target,
                std::atomic<bool>* done, TickLog* log) {
  int idle_ticks = 0;
  while (log->indexed < target && idle_ticks < 2) {
    const int span = log->spans.Open("tick", -1, -1, "ingest");
    const int rows = cluster->ProcessRealtimeTicks(1);
    log->spans.Close(span);
    log->spans.Count(span, "rows", rows);
    log->tick_us.push_back(log->spans.at(span).micros());
    log->rows.push_back(rows);
    log->indexed += rows;
    log->last_tick_end_ns = log->spans.at(span).end_ns;
    idle_ticks = rows == 0 ? idle_ticks + 1 : 0;
  }
  done->store(true, std::memory_order_release);
}

}  // namespace perfbench
