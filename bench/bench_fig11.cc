// Figure 11: comparison of indexing techniques on the anomaly-detection
// dataset — latency vs query rate for Druid(-like), Pinot without indexes,
// Pinot with inverted indexes, and Pinot with the star-tree index.
//
// Expected shape (paper): druid-like and no-index saturate first, inverted
// indexes roughly double Pinot's scalability, and the star-tree gives the
// largest gain.
//
// A second phase drives the same dataset through a full broker+server
// cluster past its saturation knee, once with broker load shedding off and
// once with it on. With shedding the broker rejects excess queries quickly
// (throttled result + retry-after) instead of queueing them, so latency of
// the work it does accept degrades gracefully instead of collapsing.

#include <chrono>

#include "baseline/druid_like.h"
#include "bench/bench_util.h"
#include "cluster/pinot_cluster.h"
#include "metrics/metrics.h"
#include "query/result.h"
#include "trace/slow_query_log.h"
#include "trace/trace.h"

namespace pinot {
namespace bench {
namespace {

struct Engine {
  std::string name;
  std::vector<std::shared_ptr<SegmentInterface>> segments;
};

uint64_t TotalBytes(const Engine& engine) {
  uint64_t total = 0;
  for (const auto& segment : engine.segments) {
    auto immutable = std::dynamic_pointer_cast<const ImmutableSegment>(segment);
    if (immutable != nullptr) total += immutable->SizeInBytes();
  }
  return total;
}

// Stands up a single-server cluster holding the star-tree segments for the
// broker saturation phase. `max_inflight` > 0 arms broker load shedding.
std::unique_ptr<PinotCluster> MakeBrokerCluster(const Workload& workload,
                                                int max_inflight) {
  PinotClusterOptions options;
  options.num_servers = 1;
  options.num_brokers = 1;
  options.broker_options.max_inflight_queries = max_inflight;
  options.broker_options.hedging_enabled = false;  // isolate shedding
  options.server_options.num_query_threads = 2;
  options.server_options.artificial_latency_micros = 1000;
  auto cluster = std::make_unique<PinotCluster>(options);

  TableConfig config;
  config.name = workload.name;
  config.type = TableType::kOffline;
  config.schema = workload.schema;
  config.num_replicas = 1;
  Controller* leader = cluster->leader_controller();
  if (!leader->AddTable(config).ok()) std::abort();

  SegmentBuildConfig build = workload.pinot_config;
  build.table_name = config.PhysicalName();
  constexpr int kShedSegments = 4;
  for (int s = 0; s < kShedSegments; ++s) {
    SegmentBuildConfig segment_build = build;
    segment_build.segment_name = "shed_" + std::to_string(s);
    SegmentBuilder builder(workload.schema, segment_build);
    for (size_t i = s; i < workload.rows.size(); i += kShedSegments) {
      if (!builder.AddRow(workload.rows[i]).ok()) std::abort();
    }
    auto segment = builder.Build();
    if (!segment.ok()) std::abort();
    if (!leader
             ->UploadSegment(config.PhysicalName(),
                             (*segment)->SerializeToBlob())
             .ok()) {
      std::abort();
    }
  }
  return cluster;
}

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  Workload workload = MakeAnomalyWorkload(options.workload_options());
  std::vector<Query> queries = ParseQueries(workload);

  std::vector<Engine> engines;
  engines.push_back({"druid-like",
                     BuildSegments(workload, DruidLikeBuildConfig(workload.schema),
                                   options.num_segments, "druid")});
  engines.push_back({"pinot-no-index",
                     BuildSegments(workload, SegmentBuildConfig{},
                                   options.num_segments, "noidx")});
  SegmentBuildConfig inverted_only = workload.pinot_config;
  inverted_only.star_tree = StarTreeConfig{};
  engines.push_back({"pinot-inverted",
                     BuildSegments(workload, inverted_only,
                                   options.num_segments, "inv")});
  engines.push_back({"pinot-star-tree",
                     BuildSegments(workload, workload.pinot_config,
                                   options.num_segments, "star")});

  std::printf("# dataset: %u rows, %d segments, %zu sampled queries\n",
              options.rows, options.num_segments, queries.size());
  for (const auto& engine : engines) {
    std::printf("# %-18s segment bytes: %10lu\n", engine.name.c_str(),
                static_cast<unsigned long>(TotalBytes(engine)));
  }
  PrintQpsHeader("Figure 11",
                 "indexing techniques on the anomaly detection dataset");

  MetricsRegistry metrics;
  BenchJsonWriter json("fig11", options.json_path);
  // Worst-3 traces across all engines and sweep points, printed at exit so
  // a saturating configuration can be attributed to a phase/segment.
  SlowQueryLog slow_log(SlowQueryLog::Options{/*threshold_millis=*/0.0,
                                              /*capacity=*/3});
  for (const auto& engine : engines) {
    Histogram* latency = metrics.GetHistogram("bench_query_latency_ms",
                                              {{"engine", engine.name}});
    for (double qps : options.qps_sweep) {
      QpsPoint point = RunQpsPoint(
          [&](int i) {
            const auto start = std::chrono::steady_clock::now();
            TraceSpan root = TraceSpan::Open("bench:" + engine.name);
            PartialResult partial =
                ExecuteQueryOnSegments(engine.segments, queries[i],
                                       /*pool=*/nullptr, &root);
            QueryResult result =
                ReduceToFinalResult(queries[i], std::move(partial));
            (void)result;
            root.Close();
            const double millis =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                1000.0;
            latency->Observe(millis);
            slow_log.Record(millis, "anomaly",
                            engine.name + ": " + queries[i].ToString(), root,
                            result.receipt.ToString(result.stats));
          },
          static_cast<int>(queries.size()), qps, options.client_threads,
          options.duration_ms);
      PrintQpsPoint(engine.name, point);
      json.Add(engine.name, point);
      // Stop sweeping a config once it is hopelessly saturated; the paper
      // plots cut off the same way.
      if (point.avg_ms > 250) break;
    }
  }

  // --- broker saturation phase: load shedding past the knee --------------
  // Past ~2000 qps the single-server cluster saturates. Without shedding
  // queued queries drag every client down; with shedding the broker turns
  // the excess away immediately (throttled + retry-after) and the accepted
  // work keeps bounded latency.
  std::printf("\n");
  PrintQpsHeader("Figure 11 (broker phase)",
                 "saturation behaviour with and without load shedding");
  struct ShedSetup {
    std::string name;
    int max_inflight;
  };
  const std::vector<ShedSetup> shed_setups = {
      {"broker-no-shed", 0},
      {"broker-shed", std::max(2, options.client_threads / 2)},
  };
  const std::vector<double> shed_sweep = {250, 500, 1000, 2000, 4000, 8000};
  for (const auto& setup : shed_setups) {
    auto cluster = MakeBrokerCluster(workload, setup.max_inflight);
    Broker* broker = cluster->broker(0);
    std::atomic<uint64_t> shed{0};
    // Bracket the sweep with snapshots so the exit health report carries
    // windowed rates (qps, shed rate) over the whole saturation run.
    cluster->TakeMetricsSnapshot();
    for (double qps : shed_sweep) {
      QpsPoint point = RunQpsPoint(
          [&](int i) {
            QueryResult result = broker->Execute(workload.queries[i]);
            if (result.throttled) shed.fetch_add(1);
          },
          static_cast<int>(workload.queries.size()), qps,
          options.client_threads, options.duration_ms);
      PrintQpsPoint(setup.name, point);
      json.Add(setup.name, point);
      if (point.avg_ms > 500) break;
    }
    std::printf("# %-18s throttled queries: %lu\n", setup.name.c_str(),
                static_cast<unsigned long>(shed.load()));
    cluster->TakeMetricsSnapshot();
    std::printf("# --- health dump (%s) ---\n%s", setup.name.c_str(),
                cluster->HealthDump().c_str());
  }

  std::printf("\n# --- slow query log (top 3) ---\n%s",
              slow_log.Dump(3).c_str());
  std::printf("\n# --- metrics dump ---\n%s", metrics.Dump().c_str());
  if (!json.Write()) return 1;
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pinot

int main(int argc, char** argv) { return pinot::bench::Main(argc, argv); }
