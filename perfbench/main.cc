// Repository benchmark program. One run stands up an in-process cluster for
// one workload from inputs generated from --seed, measures it for
// --seconds, checks every answer, and prints its metrics by name with units
// and, as the last line, one JSON object:
//
//   perfbench --workload lookup|scan|ingest --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 prints
// the per-layer metrics of the depth ladder and the layer probes, and
// writes the ladder's spans to FILE.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "harness.h"
#include "ladder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pinot::QueryReceipt;
using pinot::QueryResult;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options->trace = std::atoi(value);
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (options->workload == "lookup" || options->workload == "scan" ||
          options->workload == "ingest") &&
         options->seconds > 0 && (options->trace == 0 || options->trace == 1);
}

/// Counts wrong answers across client threads and reports the first few.
class AnswerChecker {
 public:
  bool Check(const BenchQuery& query, const QueryResult& result) {
    if (!Complete(result)) {
      Report("incomplete", query, result.error_message);
      return false;
    }
    std::string why;
    if (query.expected.has_value() &&
        !SameAnswer(result, *query.expected, &why)) {
      wrong_.fetch_add(1);
      Report("wrong answer", query, why);
      return false;
    }
    return true;
  }
  void Wrong(const BenchQuery& query, const std::string& why) {
    wrong_.fetch_add(1);
    Report("wrong answer", query, why);
  }
  uint64_t wrong() const { return wrong_.load(); }

 private:
  void Report(const char* what, const BenchQuery& query,
              const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (reported_++ < 5) {
      std::fprintf(stderr, "perfbench: %s: %s (%s)\n", what,
                   query.pql.c_str(), why.c_str());
    }
  }

  std::atomic<uint64_t> wrong_{0};
  std::mutex mutex_;
  int reported_ = 0;
};

/// Receipt-derived per-layer metrics over every answered query.
void AddReceiptMetrics(const std::vector<QueryReceipt>& receipts,
                       Report* report) {
  std::vector<double> route, scatter, reduce, queue, payload, calls, retries,
      hedges;
  for (const QueryReceipt& r : receipts) {
    route.push_back(static_cast<double>(r.route_micros));
    scatter.push_back(static_cast<double>(r.scatter_micros));
    reduce.push_back(static_cast<double>(r.reduce_micros));
    queue.push_back(static_cast<double>(r.queue_micros));
    payload.push_back(static_cast<double>(r.payload_bytes));
    calls.push_back(r.calls);
    retries.push_back(r.retries);
    hedges.push_back(r.hedges);
  }
  report->Add("server.payload_bytes", Mean(payload), "bytes");
  report->Add("tenant.queue_us", Percentile(queue, 99), "us");
  report->Add("routing.route_us", Median(route), "us");
  report->Add("broker.scatter_us", Median(scatter), "us");
  report->Add("broker.reduce_us", Median(reduce), "us");
  report->Add("broker.calls_per_query", Mean(calls), "count");
  report->Add("broker.retries_per_query", Mean(retries), "count");
  report->Add("broker.hedges_per_query", Mean(hedges), "count");
}

/// Everything the traced run measures besides the ladder.
struct LayerProbes {
  MutableProbe mutable_segment;
  double build_rows_per_s = 0;
  std::vector<double> load_ms;
  double metrics_lookup_ns = 0;
  // Resident memory growth while the load ran, per broker query.
  double load_growth_kb_per_query = 0;
  const TickLog* ticks = nullptr;
};

/// Prints the per-layer metrics, the per-class self-time table, and writes
/// the spans.
void ReportLayers(const Options& options, const LoadStats& untraced,
                  const LadderSamples& ladder, const LayerProbes& probes,
                  const SpanLog& spans, int64_t epoch_ns, uint64_t attempted,
                  uint64_t failed, bool correct) {
  Report report;
  report.Add("query.parse_us", Median(ladder.parse), "us");
  report.Add("query.filter_us", Median(ladder.filter), "us");
  report.Add("query.segment_us", Median(ladder.segment), "us");
  report.Add("query.pool_us", Median(ladder.pool), "us");
  report.Add("query.reduce_us", Median(ladder.reduce), "us");
  report.Add("query.reduce_p99_us", Percentile(ladder.reduce, 99), "us");
  const double sampled = std::max<double>(1, ladder.queries);
  report.Add("query.docs_scanned", ladder.docs_scanned / sampled, "count");
  report.Add("query.matched_per_scanned",
             ladder.docs_matched / std::max(1.0, ladder.total_docs), "ratio");
  report.Add("server.exec_us", Median(ladder.server_exec), "us");
  report.Add("server.overhead_us", Median(ladder.server_overhead), "us");
  report.Add("broker.execute_us", Median(ladder.broker_execute), "us");
  report.Add("broker.overhead_us", Median(ladder.broker_overhead), "us");
  std::vector<QueryReceipt> receipts = untraced.receipts;
  receipts.insert(receipts.end(), ladder.receipts.begin(),
                  ladder.receipts.end());
  AddReceiptMetrics(receipts, &report);
  report.Add("metrics.lookup_ns", probes.metrics_lookup_ns, "ns");
  report.Add("segment.build_rows_per_s", probes.build_rows_per_s, "rows/s");
  report.Add("segment.load_ms", Median(probes.load_ms), "ms");
  report.Add("realtime.index_us_per_row",
             probes.mutable_segment.index_us_per_row, "us");
  report.Add("realtime.seal_ms", probes.mutable_segment.seal_ms, "ms");
  const TickLog& ticks = *probes.ticks;
  report.Add("realtime.tick_us", Median(ticks.tick_us), "us");
  report.Add("realtime.tick_max_ms", Percentile(ticks.tick_us, 100) / 1000.0,
             "ms");
  report.Add("realtime.rows_per_tick", Mean(ticks.rows), "rows");
  report.Add("mem.load_growth_kb_per_query", probes.load_growth_kb_per_query,
             "KB");
  report.Add("trace.overhead_us",
             Median(ladder.broker_execute) - Median(untraced.latencies_us),
             "us");

  report.Note("samples: untraced queries=" +
              std::to_string(untraced.latencies_us.size()) +
              " ladder queries=" + std::to_string(ladder.queries) +
              " ticks=" + std::to_string(ticks.tick_us.size()) +
              " segment loads=" + std::to_string(probes.load_ms.size()));
  report.Note("self time by class and depth (median us, n):");
  for (const auto& [key, value] : spans.SelfTimeByClass()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-18s %-8s %12.1f %6zu",
                  key.first.c_str(), key.second.c_str(), value.first,
                  value.second);
    report.Note(line);
  }
  if (!options.spans_path.empty()) {
    SpanLog all = spans;
    all.Append(ticks.spans);
    if (!all.Write(options.spans_path, epoch_ns)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.spans_path.c_str());
      std::exit(1);
    }
    report.Note("spans: " + std::to_string(all.spans().size()) + " -> " +
                options.spans_path);
  }
  report.Print(correct, attempted, failed);
}

/// Answers checked and answers failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Sends every query once (and at least `minimum` queries) so routing
/// tables, hedge statistics, pools and caches are warm before timing.
Tally WarmUp(pinot::Broker* broker, const std::vector<BenchQuery>& queries,
             size_t minimum, AnswerChecker* checker) {
  Tally tally;
  for (; tally.attempted < std::max(minimum, queries.size());
       ++tally.attempted) {
    const BenchQuery& query = queries[tally.attempted % queries.size()];
    if (!checker->Check(query, broker->Execute(query.pql))) ++tally.failed;
  }
  return tally;
}

// Enough warm-up calls to pass Broker::Options::hedge_min_samples (50 per
// broker) with room to spare.
constexpr size_t kWarmUpQueries = 128;

int RunOffline(const Options& options) {
  OfflineSpec spec = options.workload == "lookup" ? MakeLookupSpec(options.seed)
                                                  : MakeScanSpec(options.seed);
  const double rss_before = ResidentMb();
  OfflineTable table =
      SetUpOffline(spec, options.trace ? 1 : spec.setups_before);
  ComputeExpected(table.shares, &spec.queries);
  // Every broker query currently leaves memory behind; the traced run
  // reports the growth from here per query.
  const double rss_ready = ResidentMb();
  pinot::Broker* broker = table.cluster->broker(0);
  AnswerChecker checker;
  const Tally warm = WarmUp(broker, spec.queries, kWarmUpQueries, &checker);

  const size_t n = spec.queries.size();
  auto one_query = [&](int client, uint64_t i, QueryResult* result) {
    // Clients walk the same mix from evenly spaced offsets.
    const BenchQuery& query =
        spec.queries[(client * n / spec.clients + i) % n];
    *result = broker->Execute(query.pql);
    return checker.Check(query, *result);
  };

  if (!options.trace) {
    LoadStats load = RunClosedLoop(spec.clients, options.seconds, nullptr,
                                   one_query, false);
    table.cluster.reset();
    RepeatSetUp(spec, spec.setups_after, &table);
    Report report;
    const LoadFigures figures = Summarize(load);
    report.Add("query_p50_us", figures.p50_us, "us");
    report.Add("query_p99_us", figures.p99_us, "us");
    report.Add("qps", figures.qps, "1/s");
    report.Add("ingest_rows_per_s", Median(table.push_rows_per_s), "rows/s");
    report.Add("setup_s", Median(table.setup_s), "s");
    report.Add("store_bytes_per_row",
               static_cast<double>(table.stored_bytes) / spec.num_rows,
               "bytes");
    // The first set-up's footprint: read before any query and before the
    // bench loads its own copies of the segments.
    report.Add("mem_mb", table.resident_mb - rss_before, "MB");
    std::string setups;
    for (double s : table.setup_s) setups += " " + std::to_string(s);
    report.Note("samples: queries=" + std::to_string(load.attempted) +
                " clients=" + std::to_string(spec.clients) +
                " rows=" + std::to_string(spec.num_rows) + " setup_s:" +
                setups);
    report.Print(checker.wrong() == 0, warm.attempted + load.attempted,
                 warm.failed + load.failed);
    return 0;
  }

  const int64_t epoch = NowNanos();
  // Untraced single-client baseline for trace.overhead_us, then the ladder.
  LoadStats untraced = RunClosedLoop(1, 0.3 * options.seconds, nullptr,
                                     one_query, true);
  LadderInput input;
  input.cluster = table.cluster.get();
  input.physical = spec.table.PhysicalName();
  input.queries = &spec.queries;
  input.own = table.shares;
  input.server_requests = [&table] {
    std::vector<std::pair<int, std::vector<std::string>>> requests;
    for (const ServerShare& share : table.shares) {
      requests.emplace_back(share.server, share.names);
    }
    return requests;
  };
  input.seconds = 0.5 * options.seconds;
  SpanLog spans;
  LadderSamples ladder = RunLadder(input, &spans);

  LayerProbes probes;
  probes.load_growth_kb_per_query =
      (ResidentMb() - rss_ready) * 1000 /
      (warm.attempted + untraced.attempted + ladder.queries);
  const pinot::TableConfig realtime = RealtimeTableConfig(
      spec.table.name, spec.table.schema, spec.table.inverted_index_columns);
  const std::vector<pinot::Row> threshold_rows(
      spec.probe_rows.begin(), spec.probe_rows.begin() + kFlushThresholdRows);
  probes.mutable_segment = ProbeMutableSegment(realtime, threshold_rows);
  pinot::SegmentBuildConfig build = spec.build;
  build.table_name = spec.table.PhysicalName();
  build.segment_name = "probe_built";
  probes.build_rows_per_s =
      ProbeSegmentBuild(spec.table.schema, build, spec.probe_rows);
  probes.load_ms = table.load_ms;
  probes.metrics_lookup_ns = ProbeMetricsLookupNs(table.cluster->metrics());
  // Tick probe: the workload's rows through a small realtime table.
  TickLog ticks;
  {
    RealtimeTable probe_table = SetUpRealtime(realtime, spec.probe_rows, 1);
    std::atomic<bool> done{false};
    DriveTicks(probe_table.cluster.get(), kProbeRows, &done, &ticks);
  }
  probes.ticks = &ticks;

  ReportLayers(options, untraced, ladder, probes, spans, epoch,
               warm.attempted + untraced.attempted + ladder.queries,
               warm.failed + untraced.failed + ladder.failed,
               checker.wrong() == 0 && ladder.failed == 0);
  return 0;
}

int RunIngest(const Options& options) {
  const int cycles = IngestCycles(options.seconds);
  RealtimeSpec spec = MakeIngestSpec(options.seed, cycles);
  const std::string physical = spec.table.PhysicalName();
  const int64_t produced = static_cast<int64_t>(spec.rows.size());
  const std::vector<pinot::Row> threshold_rows(
      spec.rows.begin(), spec.rows.begin() + kFlushThresholdRows);
  const double rss_before = ResidentMb();
  RealtimeTable table =
      SetUpRealtime(spec.table, std::move(spec.rows),
                    options.trace ? 1 : kIngestSetupsBefore);
  pinot::PinotCluster* cluster = table.cluster.get();
  pinot::Broker* broker = cluster->broker(0);

  // The table's history: kHistoryRows consumed and committed with no query
  // client, so the loaded footprint is read before any query (every broker
  // query currently leaves memory behind).
  {
    TickLog history;
    std::atomic<bool> done{false};
    DriveTicks(cluster, kHistoryRows, &done, &history);
  }
  const double mem_mb = ResidentMb() - rss_before;
  AnswerChecker checker;
  const Tally warm = WarmUp(broker, spec.queries, kWarmUpQueries, &checker);
  const double rss_ready = ResidentMb();

  // The traced run's ladder runs its segment depths on a standalone
  // consuming segment filled to the flush threshold and its sealed copy.
  LayerProbes probes;
  if (options.trace) {
    probes.mutable_segment = ProbeMutableSegment(spec.table, threshold_rows);
    probes.build_rows_per_s = ProbeSegmentBuild(
        spec.table.schema, BuildConfigOf(spec.table, "probe_built"),
        threshold_rows);
    probes.metrics_lookup_ns = ProbeMetricsLookupNs(cluster->metrics());
  }

  // One tick thread consumes `cycles` whole flush cycles of the pre-filled
  // stream while one closed-loop client queries the same table; the load
  // ends with the last of them.
  const int64_t start = NowNanos();
  std::atomic<bool> done{false};
  TickLog ticks;
  std::thread ticker([&] {
    DriveTicks(cluster, cycles * kCycleRows, &done, &ticks);
  });
  int64_t last_count = -1;
  auto one_query = [&](int, uint64_t i, QueryResult* result) {
    const BenchQuery& query = spec.queries[i % spec.queries.size()];
    *result = broker->Execute(query.pql);
    if (!checker.Check(query, *result)) return false;
    if (query.cls == QueryClass::kMetadataCount) {
      // Freshness never goes backwards: count(*) is non-decreasing.
      const int64_t count = FirstAggregate(*result);
      if (count < last_count) {
        checker.Wrong(query, "count(*) fell from " +
                                 std::to_string(last_count) + " to " +
                                 std::to_string(count));
        return false;
      }
      last_count = count;
    }
    return true;
  };
  LoadStats load;
  LadderSamples ladder;
  SpanLog spans;
  if (!options.trace) {
    load = RunClosedLoop(1, 0, &done, one_query, false);
  } else {
    load = RunClosedLoop(1, 0.4 * options.seconds, &done, one_query, true);
    LadderInput input;
    input.cluster = cluster;
    input.physical = physical;
    input.queries = &spec.queries;
    input.own.push_back(ServerShare{
        0, {"probe_consuming", "probe_sealed"},
        {probes.mutable_segment.consuming, probes.mutable_segment.sealed}});
    input.server_requests = [cluster, physical] {
      return std::vector<std::pair<int, std::vector<std::string>>>{
          {0, cluster->server(0)->HostedSegments(physical)}};
    };
    input.seconds = 0.5 * options.seconds;
    input.stop = &done;
    ladder = RunLadder(input, &spans);
  }
  ticker.join();
  probes.load_growth_kb_per_query =
      (ResidentMb() - rss_ready) * 1000 /
      std::max<uint64_t>(1, load.attempted + ladder.queries);
  const double ingest_s = (ticks.last_tick_end_ns - start) / 1e9;
  const double rows_per_s = ticks.indexed / std::max(1e-9, ingest_s);

  // After the drain, every produced row is counted exactly once.
  cluster->DrainRealtime();
  const BenchQuery final_check =
      MakeQuery("SELECT count(*), sum(count) FROM " + spec.table.name,
                QueryClass::kMetadataCount);
  const QueryResult drained_result = broker->Execute(final_check.pql);
  bool final_ok = checker.Check(final_check, drained_result);
  if (final_ok &&
      (drained_result.aggregates.size() != 2 ||
       FirstAggregate(drained_result) != produced ||
       static_cast<int64_t>(pinot::ValueToDouble(
           drained_result.aggregates[1])) != spec.sum_count)) {
    checker.Wrong(final_check, "after drain: " + drained_result.ToString());
    final_ok = false;
  }
  StoredSegments committed = LoadStored(cluster, physical);
  committed.segments.clear();

  // Warm-up, the measured load and the check after the drain.
  const uint64_t attempted = warm.attempted + load.attempted + 1;
  const uint64_t failed = warm.failed + load.failed + (final_ok ? 0 : 1);
  if (!options.trace) {
    table.cluster.reset();
    const RealtimeTable after =
        SetUpRealtime(spec.table, {}, kIngestSetupsAfter);
    table.setup_s.insert(table.setup_s.end(), after.setup_s.begin(),
                         after.setup_s.end());
    Report report;
    const LoadFigures figures = Summarize(load);
    report.Add("query_p50_us", figures.p50_us, "us");
    report.Add("query_p99_us", figures.p99_us, "us");
    report.Add("qps", figures.qps, "1/s");
    report.Add("ingest_rows_per_s", rows_per_s, "rows/s");
    report.Add("setup_s", Median(table.setup_s), "s");
    report.Add("store_bytes_per_row",
               static_cast<double>(committed.bytes) /
                   std::max<uint64_t>(1, committed.rows),
               "bytes");
    report.Add("mem_mb", mem_mb, "MB");
    report.Note("samples: queries=" + std::to_string(load.attempted) +
                " rows indexed=" + std::to_string(ticks.indexed) + " in " +
                std::to_string(ingest_s) + "s ticks=" +
                std::to_string(ticks.tick_us.size()) +
                " committed segments=" +
                std::to_string(committed.load_ms.size()));
    report.Print(checker.wrong() == 0, attempted, failed);
    return 0;
  }
  probes.load_ms = committed.load_ms;
  probes.ticks = &ticks;
  std::printf("# ingest_rows_per_s %.1f rows/s (beside the traced client)\n",
              rows_per_s);
  ReportLayers(options, load, ladder, probes, spans, start,
               attempted + ladder.queries, failed + ladder.failed,
               checker.wrong() == 0 && ladder.failed == 0);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload lookup|scan|ingest --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace, perfbench::EnvironmentLine().c_str());
  std::fflush(stdout);
  return options.workload == "ingest" ? perfbench::RunIngest(options)
                                      : perfbench::RunOffline(options);
}
