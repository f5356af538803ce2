#include "query/table_executor.h"

#include <mutex>

#include "query/segment_executor.h"

namespace pinot {

namespace {

int CompareValuesForPrune(const Value& a, const Value& b) {
  const auto* sa = std::get_if<std::string>(&a);
  const auto* sb = std::get_if<std::string>(&b);
  if (sa != nullptr && sb != nullptr) return sa->compare(*sb);
  const double da = ValueToDouble(a);
  const double db = ValueToDouble(b);
  return da < db ? -1 : (da > db ? 1 : 0);
}

// Returns true when `pred` provably matches no document given the column's
// [min, max] statistics.
bool PredicateDisjointFromStats(const Predicate& pred,
                                const ColumnStats& stats) {
  switch (pred.op) {
    case PredicateOp::kEq: {
      const Value& v = pred.values[0];
      return CompareValuesForPrune(v, stats.min_value) < 0 ||
             CompareValuesForPrune(v, stats.max_value) > 0;
    }
    case PredicateOp::kIn: {
      for (const auto& v : pred.values) {
        if (CompareValuesForPrune(v, stats.min_value) >= 0 &&
            CompareValuesForPrune(v, stats.max_value) <= 0) {
          return false;
        }
      }
      return true;
    }
    case PredicateOp::kRange: {
      if (pred.lower.has_value()) {
        const int c = CompareValuesForPrune(*pred.lower, stats.max_value);
        if (c > 0 || (c == 0 && !pred.lower_inclusive)) return true;
      }
      if (pred.upper.has_value()) {
        const int c = CompareValuesForPrune(*pred.upper, stats.min_value);
        if (c < 0 || (c == 0 && !pred.upper_inclusive)) return true;
      }
      return false;
    }
    case PredicateOp::kNotEq:
    case PredicateOp::kNotIn:
      return false;
  }
  return false;
}

// Walks top-level AND leaves only: if any single conjunct is disjoint from
// the segment, the whole filter is.
bool FilterDisjointFromSegment(const SegmentInterface& segment,
                               const FilterNode& node) {
  switch (node.kind) {
    case FilterNode::Kind::kLeaf: {
      const ColumnReader* column = segment.GetColumn(node.predicate.column);
      if (column == nullptr) return false;
      return PredicateDisjointFromStats(node.predicate, column->stats());
    }
    case FilterNode::Kind::kAnd:
      for (const auto& child : node.children) {
        if (FilterDisjointFromSegment(segment, child)) return true;
      }
      return false;
    case FilterNode::Kind::kOr:
      for (const auto& child : node.children) {
        if (!FilterDisjointFromSegment(segment, child)) return false;
      }
      return !node.children.empty();
  }
  return false;
}

}  // namespace

bool CanPruneSegment(const SegmentInterface& segment, const Query& query) {
  if (!query.filter.has_value()) return false;
  if (segment.num_docs() == 0) return true;
  return FilterDisjointFromSegment(segment, *query.filter);
}

namespace {

// Annotates a finished per-segment span with that segment's own stats.
void AnnotateSegmentSpan(const ExecutionStats& stats, TraceSpan* span) {
  span->Annotate("docs_scanned", static_cast<int64_t>(stats.docs_scanned));
  span->Annotate("docs_matched", static_cast<int64_t>(stats.docs_matched));
  if (stats.used_star_tree) {
    span->Annotate("star_tree_records",
                   static_cast<int64_t>(stats.star_tree_records_scanned));
  }
}

}  // namespace

size_t TrimGroupPartial(const Query& query, size_t keep,
                        PartialResult* partial) {
  if (query.group_by.empty() || query.aggregations.empty()) return 0;
  if (partial->groups.size() <= keep) return 0;
  return partial->groups.TrimToTopN(query.aggregations[0].type, keep);
}

PartialResult ExecuteQueryOnSegments(
    const std::vector<std::shared_ptr<SegmentInterface>>& segments,
    const Query& query, ThreadPool* pool, TraceSpan* parent) {
  PartialResult merged;

  const int64_t prune_mark = TraceSpan::NowMicros();
  std::vector<std::shared_ptr<SegmentInterface>> to_run;
  for (const auto& segment : segments) {
    if (CanPruneSegment(*segment, query)) {
      merged.stats.segments_pruned += 1;
      merged.receipt.docs_pruned += segment->num_docs();
      merged.total_docs += segment->num_docs();
      if (parent != nullptr) {
        TraceSpan span =
            TraceSpan::Open("segment:" + segment->metadata().segment_name);
        span.Label("plan", "pruned");
        span.Close();
        parent->AddChild(std::move(span));
      }
    } else {
      to_run.push_back(segment);
    }
  }
  // Pruning decisions are part of planning.
  merged.receipt.plan_micros += TraceSpan::NowMicros() - prune_mark;

  if (query.explain) {
    // EXPLAIN: report the would-be plan per segment; read no row data.
    for (const auto& segment : to_run) {
      merged.stats.segments_queried += 1;
      merged.total_docs += segment->num_docs();
      if (parent != nullptr) {
        TraceSpan span =
            TraceSpan::Open("segment:" + segment->metadata().segment_name);
        const SegmentPlanKind kind = PlanQueryOnSegment(*segment, query, &span);
        span.Label("plan", SegmentPlanKindToString(kind));
        span.Close();
        parent->AddChild(std::move(span));
      }
    }
    return merged;
  }

  if (pool == nullptr || to_run.size() <= 1) {
    for (const auto& segment : to_run) {
      PartialResult partial;
      TraceSpan span;
      TraceSpan* span_ptr = nullptr;
      if (parent != nullptr) {
        span = TraceSpan::Open("segment:" + segment->metadata().segment_name);
        span_ptr = &span;
      }
      partial.status =
          ExecuteQueryOnSegment(*segment, query, &partial, span_ptr);
      if (parent != nullptr) {
        AnnotateSegmentSpan(partial.stats, &span);
        span.Close();
        parent->AddChild(std::move(span));
      }
      merged.Merge(std::move(partial));
    }
    return merged;
  }

  std::vector<PartialResult> partials(to_run.size());
  std::vector<TraceSpan> spans(parent != nullptr ? to_run.size() : 0);
  pool->ParallelFor(static_cast<int>(to_run.size()), [&](int i) {
    TraceSpan* span_ptr = nullptr;
    if (parent != nullptr) {
      spans[i] =
          TraceSpan::Open("segment:" + to_run[i]->metadata().segment_name);
      span_ptr = &spans[i];
    }
    partials[i].status =
        ExecuteQueryOnSegment(*to_run[i], query, &partials[i], span_ptr);
    if (span_ptr != nullptr) {
      AnnotateSegmentSpan(partials[i].stats, span_ptr);
      span_ptr->Close();
    }
  });
  for (size_t i = 0; i < partials.size(); ++i) {
    if (parent != nullptr) parent->AddChild(std::move(spans[i]));
  }

  // Tree-wise combine: pairwise rounds across the pool, partials[2k] <-
  // partials[2k+1], compacting survivors in order. Merging in index order
  // at every round keeps error precedence (lowest segment's error wins) and
  // span concatenation order identical to the old sequential fold, and the
  // fixed pairing topology keeps float accumulation deterministic run to
  // run.
  size_t live = partials.size();
  while (live > 1) {
    const int pairs = static_cast<int>(live / 2);
    pool->ParallelFor(pairs, [&](int k) {
      partials[2 * k].Merge(std::move(partials[2 * k + 1]));
    });
    size_t write = 0;
    for (size_t read = 0; read < live; read += 2, ++write) {
      if (write != read) partials[write] = std::move(partials[read]);
    }
    live = write;
  }
  if (live == 1) merged.Merge(std::move(partials[0]));
  return merged;
}

}  // namespace pinot
