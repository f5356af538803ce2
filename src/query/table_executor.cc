#include "query/table_executor.h"

#include <algorithm>

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

// Keeps the `keep` top-ranked groups; no-op for non-group-by queries.
size_t TrimGroupsTo(const Query& query, size_t keep, GroupTable* groups) {
  if (query.group_by.empty() || query.aggregations.empty()) return 0;
  if (groups->size() <= keep) return 0;
  return groups->TrimToTopN(query.aggregations[0].type, keep);
}

// Merges the segments' group tables hash shard by hash shard: shard p of
// every table merges on one worker in segment order and is trimmed to
// `keep`, and only the survivors are concatenated. Each group still merges
// in segment-index order, so the result equals the fold's bit for bit.
GroupTable ShardedGroupCombine(std::vector<GroupTable>* tables,
                               const Query& query, size_t keep,
                               ThreadPool* pool, size_t* dropped) {
  const uint32_t num_shards = static_cast<uint32_t>(pool->num_threads());
  size_t largest = 0;
  for (const GroupTable& table : *tables) {
    largest = std::max(largest, table.size());
  }
  std::vector<GroupTable> shards(num_shards);
  std::vector<size_t> shard_dropped(num_shards, 0);
  pool->ParallelFor(static_cast<int>(num_shards), [&](int p) {
    GroupTable& shard = shards[p];
    shard.EnsureArity(tables->front().num_keys(), tables->front().num_aggs());
    // At least its share of the largest table, plus room for the groups
    // the other segments add.
    shard.Reserve(largest / num_shards + largest / (4 * num_shards));
    for (GroupTable& table : *tables) {
      shard.MergeShardFrom(&table, static_cast<uint32_t>(p), num_shards);
    }
    shard_dropped[p] = TrimGroupsTo(query, keep, &shard);
  });
  for (size_t d : shard_dropped) *dropped += d;
  return GroupTable::Concatenate(std::move(shards));
}

// The combine's last step: the final group trim (sharded survivors can
// number up to shards × keep), the selection LIMIT, and the receipt's
// pre-trim group count and dropped groups.
void FinishCombine(const Query& query, size_t keep, size_t groups,
                   size_t dropped, PartialResult* merged) {
  dropped += TrimGroupsTo(query, keep, &merged->groups);
  if (!query.IsAggregation()) {
    KeepSelectionRows(query, &merged->selection_rows);
  }
  merged->receipt.groups += groups;
  merged->receipt.trimmed += dropped;
}

}  // namespace

size_t TrimGroupPartial(const Query& query, size_t keep,
                        PartialResult* partial) {
  return TrimGroupsTo(query, keep, &partial->groups);
}

PartialResult ExecuteQueryOnSegments(
    const std::vector<std::shared_ptr<SegmentInterface>>& segments,
    const Query& query, ThreadPool* pool, TraceSpan* parent,
    size_t group_keep) {
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
    const size_t groups = merged.groups.size();
    FinishCombine(query, group_keep, groups, 0, &merged);
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

  // Combine. Small group tables fold on this thread in segment order: a
  // pool round-trip costs more than merging a few thousand groups. Large
  // ones merge hash shard by hash shard across the pool.
  size_t total_groups = 0;
  for (const PartialResult& partial : partials) {
    total_groups += partial.groups.size();
  }
  if (total_groups < kShardedCombineMinGroups || pool->num_threads() < 2) {
    for (PartialResult& partial : partials) merged.Merge(std::move(partial));
    const size_t groups = merged.groups.size();
    FinishCombine(query, group_keep, groups, 0, &merged);
    return merged;
  }
  // Everything but the groups folds in segment order (the lowest segment's
  // error wins, spans keep their order); tables whose arity disagrees with
  // the first are dropped with the same error the fold reports.
  std::vector<GroupTable> tables;
  for (PartialResult& partial : partials) {
    GroupTable table = std::move(partial.groups);
    merged.MergeExceptGroups(std::move(partial));
    if (table.empty()) continue;
    if (!tables.empty() &&
        !tables.front().MergeableWith(table, &merged.status)) {
      continue;
    }
    tables.push_back(std::move(table));
  }
  size_t dropped = 0;
  merged.groups =
      ShardedGroupCombine(&tables, query, group_keep, pool, &dropped);
  FinishCombine(query, group_keep, merged.groups.size() + dropped, dropped,
                &merged);
  return merged;
}

}  // namespace pinot
