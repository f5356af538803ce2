// Group-by cardinality sweep: the packed group-by (dense table up to 2^20
// key slots, radix-partitioned above) on one segment, memberId swept 10 ->
// 1M and grouped with day, so the key crosses the dense limit mid-sweep.
// Aborts with MISMATCH when the groups differ from the row oracle's,
// checks that the packed flush stays allocation-free per group (global
// operator new counter), and reports the scatter payload bytes a server
// would ship with and without ORDER-BY/LIMIT trimming.
//
// At the points with at least 50k groups it also runs a server's pooled
// share: the same rows split into 4 segments, combined on a 4-thread pool
// by ExecuteQueryOnSegments (hash-sharded above kShardedCombineMinGroups).
// `pool/seg` is that share's wall time over its slowest segment run alone,
// and `combine allocs/group` the heap allocations the combine adds per
// group (the pooled run's minus the segments' own). The pooled answer is
// checked against the row oracle too.
//
// Expected shape: throughput stays roughly flat as cardinality grows past
// cache sizes, trimmed payload is O(over-fetch) regardless of group count,
// and the pooled share stays within a small factor of its slowest segment.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "query/result.h"
#include "query/segment_executor.h"
#include "query/table_executor.h"
#include "tests/row_oracle.h"

// Heap-allocation counter: every operator new in the process bumps this.
// The bench resets it around each measured execution to prove the packed
// flush does not allocate per group (the old flush built a
// std::vector<Value> + map node + key string per group).
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() paired with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pinot {
namespace bench {
namespace {

// Builds the segment and streams every row into the oracle, so a 1M-row
// run never holds its rows.
std::shared_ptr<ImmutableSegment> BuildSweepSegment(
    uint32_t rows, uint32_t cardinality, uint64_t seed,
    test::RowOracle* oracle, const std::string& name = "sweep_0") {
  auto schema = Schema::Make({
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Metric("impressions", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    std::abort();
  }
  SegmentBuildConfig config;
  config.table_name = "sweep";
  config.segment_name = name;
  SegmentBuilder builder(*schema, config);
  Random rng(seed);
  for (uint32_t i = 0; i < rows; ++i) {
    Row row;
    row.SetLong("memberId", static_cast<int64_t>(rng.NextUint64(cardinality)))
        .SetLong("impressions", static_cast<int64_t>(rng.NextUint64(100000)))
        .SetLong("day", 100 + static_cast<int64_t>(rng.NextUint64(30)));
    Status st = builder.AddRow(row);
    if (!st.ok()) {
      std::fprintf(stderr, "AddRow: %s\n", st.ToString().c_str());
      std::abort();
    }
    oracle->Add(row);
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
  uint64_t groups = 0;
  uint64_t heap_allocs = 0;  // During the last iteration only.
  std::vector<double> latencies_ms;  // Sorted, one per iteration.
};

RunStats RunSweepQuery(const SegmentInterface& segment, const Query& query,
                       int iters) {
  RunStats stats;
  uint64_t docs_scanned = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    const auto iter_start = std::chrono::steady_clock::now();
    const uint64_t allocs_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    PartialResult partial;
    Status st = ExecuteQueryOnSegment(segment, query, &partial);
    stats.heap_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    if (!st.ok()) {
      std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    stats.latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() -
                                     iter_start)
                                     .count());
    docs_scanned += partial.stats.docs_scanned;
    stats.groups = partial.groups.size();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.rows_per_sec =
      seconds > 0 ? static_cast<double>(docs_scanned) / seconds : 0;
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  return stats;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A server's pooled share of `segments`: median wall times over `iters` of
// the slowest segment alone and of the pooled ExecuteQueryOnSegments, and
// the heap allocations the combine adds per group.
struct PooledShare {
  double slowest_segment_ms = 0;
  double pooled_ms = 0;
  double combine_allocs_per_group = 0;
};

PooledShare RunPooledShare(
    const std::vector<std::shared_ptr<SegmentInterface>>& segments,
    const Query& query, ThreadPool* pool, int iters) {
  PooledShare share;
  uint64_t segment_allocs = 0;
  for (const auto& segment : segments) {
    std::vector<double> ms;
    for (int it = 0; it < iters; ++it) {
      const auto start = std::chrono::steady_clock::now();
      const uint64_t allocs_before =
          g_heap_allocs.load(std::memory_order_relaxed);
      PartialResult partial;
      Status st = ExecuteQueryOnSegment(*segment, query, &partial);
      if (it == 0) {
        segment_allocs +=
            g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
      }
      ms.push_back(MillisSince(start));
      if (!st.ok()) {
        std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
        std::abort();
      }
    }
    std::sort(ms.begin(), ms.end());
    share.slowest_segment_ms =
        std::max(share.slowest_segment_ms, Percentile(ms, 0.50));
  }
  std::vector<double> ms;
  for (int it = 0; it < iters; ++it) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t allocs_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    PartialResult partial = ExecuteQueryOnSegments(segments, query, pool);
    const uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    ms.push_back(MillisSince(start));
    if (it == 0 && !partial.groups.empty()) {
      share.combine_allocs_per_group =
          (static_cast<double>(allocs) - static_cast<double>(segment_allocs)) /
          static_cast<double>(partial.groups.size());
    }
  }
  std::sort(ms.begin(), ms.end());
  share.pooled_ms = Percentile(ms, 0.50);
  return share;
}

QpsPoint ToPoint(uint32_t cardinality, RunStats& stats) {
  QpsPoint point;
  point.offered_qps = cardinality;  // Curve key: the swept group count.
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
}

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  // Default to a 2M-doc segment so the 1M-group case has ~2 docs per
  // group; the shared --rows flag overrides.
  const uint32_t rows = options.rows == 150000 ? 2000000 : options.rows;

  // TOP 10 so the trim demo uses the production over-fetch
  // max(10 * 5, 5000); the sweep itself never reduces, so TOP does not
  // affect the timed path. The oracle check ranks every group.
  auto query = ParsePql("SELECT sum(impressions) FROM sweep "
                        "GROUP BY memberId, day TOP 10");
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    std::abort();
  }
  const size_t trim_keep = std::max<size_t>(
      static_cast<size_t>(query->top_n) * 5, 5000);
  Query all_groups = *query;
  all_groups.top_n = std::numeric_limits<int>::max();

  BenchJsonWriter json("groupby_sweep", options.json_path);
  std::printf("# bench_groupby_sweep — packed group-by on a %u-doc "
              "segment\n",
              rows);
  std::printf("%10s %10s %10s %14s %12s %14s %14s %9s %22s\n",
              "cardinality", "groups", "table", "rows/s", "allocs/group",
              "payload bytes", "trimmed bytes", "pool/seg",
              "combine allocs/group");
  ThreadPool pool(4);

  const std::vector<uint32_t> sweep = {10,    100,    1000,   10000,
                                       50000, 100000, 1000000};
  for (uint32_t cardinality : sweep) {
    if (cardinality > rows) continue;
    test::RowOracle oracle(all_groups);
    auto segment =
        BuildSweepSegment(rows, cardinality, options.seed, &oracle);
    const int iters = cardinality >= 100000 ? 3 : 5;

    RunStats stats = RunSweepQuery(*segment, *query, iters);
    const double allocs_per_group =
        stats.groups > 0 ? static_cast<double>(stats.heap_allocs) /
                               static_cast<double>(stats.groups)
                         : 0;
    // The packed flush must not allocate per group (vector growth is
    // amortized-logarithmic, so the ratio tends to zero as cardinality
    // grows).
    if (stats.groups >= 50000 && allocs_per_group > 1.0) {
      std::fprintf(stderr,
                   "ALLOC REGRESSION at cardinality %u: %llu heap "
                   "allocations for %llu groups (%.2f/group)\n",
                   cardinality,
                   static_cast<unsigned long long>(stats.heap_allocs),
                   static_cast<unsigned long long>(stats.groups),
                   allocs_per_group);
      std::abort();
    }

    // One traced run: its group table label, its answer against the row
    // oracle (bit-identical: one unsorted segment sums in doc order).
    PartialResult partial;
    TraceSpan span = TraceSpan::Open("segment:sweep_0");
    Status st = ExecuteQueryOnSegment(*segment, all_groups, &partial, &span);
    if (!st.ok()) {
      std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    std::string table;
    for (const TraceSpan& phase : span.children) {
      if (table.empty()) table = phase.LabelValue("group_table");
    }
    const std::string diff = oracle.Check(
        ReduceToFinalResult(all_groups, std::move(partial)), /*exact=*/true);
    if (!diff.empty()) {
      std::fprintf(stderr, "MISMATCH at cardinality %u: %s\n", cardinality,
                   diff.c_str());
      std::abort();
    }

    // Scatter payload a server would ship, with and without trimming.
    partial = PartialResult();
    st = ExecuteQueryOnSegment(*segment, *query, &partial);
    if (!st.ok()) {
      std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    const size_t payload_before = partial.groups.ApproxPayloadBytes();
    TrimGroupPartial(*query, trim_keep, &partial);
    const size_t payload_after = partial.groups.ApproxPayloadBytes();

    // The pooled 4-segment share at the high-cardinality points, checked
    // against its own oracle (integer sums: exact in any merge order).
    std::string pool_ratio = "-";
    std::string combine_allocs = "-";
    if (stats.groups >= 50000) {
      segment.reset();
      test::RowOracle pooled_oracle(all_groups);
      std::vector<std::shared_ptr<SegmentInterface>> segments;
      for (int s = 0; s < 4; ++s) {
        segments.push_back(BuildSweepSegment(
            rows / 4, cardinality, options.seed + 1 + static_cast<uint64_t>(s),
            &pooled_oracle, "sweep_" + std::to_string(s)));
      }
      const PooledShare share = RunPooledShare(segments, *query, &pool, iters);
      const std::string pooled_diff = pooled_oracle.Check(
          ReduceToFinalResult(all_groups,
                              ExecuteQueryOnSegments(segments, all_groups,
                                                     &pool)),
          /*exact=*/true);
      if (!pooled_diff.empty()) {
        std::fprintf(stderr, "MISMATCH (pooled) at cardinality %u: %s\n",
                     cardinality, pooled_diff.c_str());
        std::abort();
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f",
                    share.pooled_ms / share.slowest_segment_ms);
      pool_ratio = buf;
      std::snprintf(buf, sizeof(buf), "%.4f", share.combine_allocs_per_group);
      combine_allocs = buf;
    }

    std::printf("%10u %10llu %10s %14.0f %12.4f %14zu %14zu %9s %22s\n",
                cardinality, static_cast<unsigned long long>(stats.groups),
                table.c_str(), stats.rows_per_sec, allocs_per_group,
                payload_before, payload_after, pool_ratio.c_str(),
                combine_allocs.c_str());
    std::fflush(stdout);

    json.Add("memberId-day", ToPoint(cardinality, stats));
  }
  return json.Write() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pinot

int main(int argc, char** argv) { return pinot::bench::Main(argc, argv); }
