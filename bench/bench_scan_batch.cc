// Microbenchmark for the batched columnar scan engine: block decode +
// aggregation kernels + packed group-by keys on one large segment. Reports
// scan throughput (rows/sec) per query and aborts with MISMATCH when an
// answer differs from the row oracle's (bit-identical: one unsorted
// segment accumulates in doc order, as the oracle does).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "metrics/metrics.h"
#include "query/result.h"
#include "query/segment_executor.h"
#include "tests/row_oracle.h"
#include "trace/slow_query_log.h"
#include "trace/trace.h"

namespace pinot {
namespace bench {
namespace {

// Builds the segment and streams every row into the oracles, so a 1M-row
// run never holds its rows.
std::shared_ptr<ImmutableSegment> BuildScanSegment(
    uint32_t rows, uint64_t seed, std::vector<test::RowOracle>* oracles) {
  auto schema = Schema::Make({
      FieldSpec::Dimension("country", DataType::kString),
      FieldSpec::Dimension("browser", DataType::kString),
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Metric("impressions", DataType::kLong),
      FieldSpec::Metric("clicks", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    std::abort();
  }
  const std::vector<std::string> countries = {"us", "ca", "de", "fr",
                                              "jp", "br", "in", "uk"};
  const std::vector<std::string> browsers = {"firefox", "chrome", "safari",
                                             "edge"};
  SegmentBuildConfig config;
  config.table_name = "scan";
  config.segment_name = "scan_0";
  // Filters go through inverted indexes (the production Pinot setup), so
  // the timed difference is the scan/aggregation pipeline itself.
  config.inverted_index_columns = {"country", "browser"};
  SegmentBuilder builder(*schema, config);
  Random rng(seed);
  for (uint32_t i = 0; i < rows; ++i) {
    Row row;
    row.SetString("country", countries[rng.NextUint64(countries.size())])
        .SetString("browser", browsers[rng.NextUint64(browsers.size())])
        .SetLong("memberId", static_cast<int64_t>(rng.NextUint64(50000)))
        .SetLong("impressions", static_cast<int64_t>(rng.NextUint64(100000)))
        .SetLong("clicks", static_cast<int64_t>(rng.NextUint64(100)))
        .SetLong("day", 100 + static_cast<int64_t>(rng.NextUint64(30)));
    Status st = builder.AddRow(row);
    if (!st.ok()) {
      std::fprintf(stderr, "AddRow: %s\n", st.ToString().c_str());
      std::abort();
    }
    for (auto& oracle : *oracles) oracle.Add(row);
  }
  auto segment = builder.Build();
  if (!segment.ok()) {
    std::fprintf(stderr, "Build: %s\n", segment.status().ToString().c_str());
    std::abort();
  }
  return *segment;
}

struct RunStats {
  double rows_per_sec = 0;
  uint64_t docs_scanned = 0;
  std::vector<double> latencies_ms;  // One entry per iteration, sorted.
};

RunStats RunQuery(const SegmentInterface& segment, const Query& query,
                  int iters, Histogram* latency) {
  RunStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    const auto iter_start = std::chrono::steady_clock::now();
    PartialResult partial;
    Status st = ExecuteQueryOnSegment(segment, query, &partial);
    if (!st.ok()) {
      std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    const double millis = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - iter_start)
                              .count();
    stats.latencies_ms.push_back(millis);
    if (latency != nullptr) latency->Observe(millis);
    stats.docs_scanned += partial.stats.docs_scanned;
  }
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.rows_per_sec =
      seconds > 0 ? static_cast<double>(stats.docs_scanned) / seconds : 0;
  return stats;
}

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  // Default to one 1M-doc segment (the acceptance configuration); the
  // shared --rows flag overrides.
  const uint32_t rows = options.rows == 150000 ? 1000000 : options.rows;
  const int iters = 5;

  struct Case {
    const char* name;
    const char* slug;  // Space-free JSON config key (check_perf.sh awk).
    const char* pql;
  };
  const std::vector<Case> cases = {
      {"full-scan sum", "full-scan-sum", "SELECT sum(impressions) FROM scan"},
      {"filtered sum", "filtered-sum",
       "SELECT sum(impressions) FROM scan WHERE browser = 'firefox'"},
      {"filtered sum+min+max", "filtered-sum-min-max",
       "SELECT sum(impressions), min(impressions), max(impressions) FROM "
       "scan WHERE country IN ('us', 'de', 'fr')"},
      {"group-by country (8 groups)", "groupby-country",
       "SELECT sum(impressions) FROM scan GROUP BY country TOP 1000"},
      {"group-by country,browser,day", "groupby-country-browser-day",
       "SELECT count(*), sum(impressions) FROM scan GROUP BY country, "
       "browser, day TOP 10000"},
      {"group-by memberId (50k groups)", "groupby-memberId-50k",
       "SELECT sum(impressions) FROM scan GROUP BY memberId TOP 100000"},
  };
  std::vector<Query> queries;
  std::vector<test::RowOracle> oracles;
  for (const auto& c : cases) {
    auto query = ParsePql(c.pql);
    if (!query.ok()) {
      std::fprintf(stderr, "bad query %s: %s\n", c.pql,
                   query.status().ToString().c_str());
      std::abort();
    }
    queries.push_back(*query);
    oracles.emplace_back(*query);
  }

  std::printf("# bench_scan_batch — batched scan on a %u-doc segment (%d "
              "iterations per cell)\n",
              rows, iters);
  auto segment = BuildScanSegment(rows, options.seed, &oracles);

  MetricsRegistry metrics;
  // Worst-3 traces, collected from one traced run per case *after* its
  // timed cells so the measured loop stays on the disabled (null-span)
  // path.
  SlowQueryLog slow_log(SlowQueryLog::Options{/*threshold_millis=*/0.0,
                                              /*capacity=*/3});
  // Machine-readable dump gated by scripts/check_perf.sh: one point per
  // case keyed by the segment row count so runs at the same --rows compare
  // against each other; achieved_qps carries the scan throughput.
  BenchJsonWriter json("scan_batch", options.json_path);
  auto to_point = [rows](RunStats& stats) {
    QpsPoint point;
    point.offered_qps = rows;
    point.achieved_qps = stats.rows_per_sec;
    point.queries = stats.latencies_ms.size();
    double sum = 0;
    for (double v : stats.latencies_ms) sum += v;
    point.avg_ms =
        stats.latencies_ms.empty() ? 0 : sum / stats.latencies_ms.size();
    point.p50_ms = Percentile(stats.latencies_ms, 0.50);
    point.p95_ms = Percentile(stats.latencies_ms, 0.95);
    point.p99_ms = Percentile(stats.latencies_ms, 0.99);
    return point;
  };
  std::printf("%-32s %16s %10s\n", "query", "rows/s", "p50 ms");
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    RunStats stats = RunQuery(
        *segment, queries[i], iters,
        metrics.GetHistogram("bench_scan_latency_ms", {{"case", c.name}}));
    json.Add(c.slug, to_point(stats));
    std::printf("%-32s %16.0f %10.3f\n", c.name, stats.rows_per_sec,
                Percentile(stats.latencies_ms, 0.50));
    std::fflush(stdout);

    // One traced execution per case: checked against the row oracle, and
    // recorded for the exit-time slow-query log.
    const auto traced_start = std::chrono::steady_clock::now();
    TraceSpan root = TraceSpan::Open("segment:scan_0");
    PartialResult partial;
    Status st = ExecuteQueryOnSegment(*segment, queries[i], &partial, &root);
    if (!st.ok()) {
      std::fprintf(stderr, "traced execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    root.Annotate("docs_scanned",
                  static_cast<int64_t>(partial.stats.docs_scanned));
    root.Close();
    slow_log.Record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - traced_start)
                        .count(),
                    c.pql, root);
    const std::string diff = oracles[i].Check(
        ReduceToFinalResult(queries[i], std::move(partial)), /*exact=*/true);
    if (!diff.empty()) {
      std::fprintf(stderr, "MISMATCH on %s: %s\n", c.name, diff.c_str());
      std::abort();
    }
  }
  std::printf("\n# --- slow query log (top 3) ---\n%s",
              slow_log.Dump(3).c_str());
  std::printf("\n# --- metrics dump ---\n%s", metrics.Dump().c_str());
  return json.Write() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pinot

int main(int argc, char** argv) { return pinot::bench::Main(argc, argv); }
