// Ablation (section 3.3.4 / 4.2): cost-based predicate reordering in AND
// filters. The evaluator normally runs the sorted-range operator first and
// passes its doc range to subsequent scans ("This causes subsequent
// operators to only evaluate part of the column"); disabling reordering
// makes the expensive scan run over the full segment first.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "query/filter_evaluator.h"

namespace pinot {
namespace bench {
namespace {

constexpr uint32_t kRows = 500000;

std::shared_ptr<ImmutableSegment> BuildSegment() {
  WorkloadOptions wo;
  wo.num_rows = kRows;
  wo.num_queries = 1;
  Workload workload = MakeWvmpWorkload(wo);
  SegmentBuildConfig config;
  config.table_name = "wvmp";
  config.segment_name = "abl";
  config.sort_columns = {"vieweeId"};
  SegmentBuilder builder(workload.schema, config);
  for (const auto& row : workload.rows) {
    if (!builder.AddRow(row).ok()) std::abort();
  }
  auto segment = builder.Build();
  if (!segment.ok()) std::abort();
  return *segment;
}

std::optional<FilterNode> MakeFilter() {
  // Selective sorted predicate + unindexed scan predicate, written with
  // the scan first (query order).
  Predicate scan_pred;
  scan_pred.column = "viewerRegion";
  scan_pred.op = PredicateOp::kEq;
  scan_pred.values.push_back(Value{std::string("region_3")});
  Predicate sorted_pred;
  sorted_pred.column = "vieweeId";
  sorted_pred.op = PredicateOp::kEq;
  sorted_pred.values.push_back(Value{int64_t{42}});
  std::optional<FilterNode> filter;
  filter.emplace(FilterNode::And(
      {FilterNode::Leaf(scan_pred), FilterNode::Leaf(sorted_pred)}));
  return filter;
}

// Mean microseconds per filter evaluation over `iterations` runs; the
// matched-doc count is returned through `matched` so both orders can be
// checked to agree.
double TimeEvaluate(const ImmutableSegment& segment,
                    const std::optional<FilterNode>& filter, bool reorder,
                    int iterations, uint64_t* matched) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    FilterEvaluator evaluator(segment, nullptr);
    evaluator.set_reorder_predicates(reorder);
    auto docs = evaluator.Evaluate(filter);
    if (!docs.ok()) std::abort();
    *matched = docs->Cardinality();
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         iterations;
}

int Main() {
  constexpr int kIterations = 200;
  auto segment = BuildSegment();
  const std::optional<FilterNode> filter = MakeFilter();

  std::printf("# Ablation — AND predicate order (%u rows, %d iterations)\n",
              kRows, kIterations);
  std::printf("%-16s %12s %10s\n", "order", "us/eval", "matched");
  uint64_t matched_reordered = 0;
  uint64_t matched_query_order = 0;
  // Warm up both paths once so the first timed loop pays no cold misses.
  TimeEvaluate(*segment, filter, true, 1, &matched_reordered);
  TimeEvaluate(*segment, filter, false, 1, &matched_query_order);
  const double reordered_us =
      TimeEvaluate(*segment, filter, true, kIterations, &matched_reordered);
  const double query_order_us =
      TimeEvaluate(*segment, filter, false, kIterations, &matched_query_order);
  if (matched_reordered != matched_query_order) {
    std::fprintf(stderr, "MISMATCH: reordered=%llu query-order=%llu\n",
                 static_cast<unsigned long long>(matched_reordered),
                 static_cast<unsigned long long>(matched_query_order));
    return 1;
  }
  std::printf("%-16s %12.1f %10llu\n", "reordered", reordered_us,
              static_cast<unsigned long long>(matched_reordered));
  std::printf("%-16s %12.1f %10llu\n", "query-order", query_order_us,
              static_cast<unsigned long long>(matched_query_order));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pinot

int main() { return pinot::bench::Main(); }
