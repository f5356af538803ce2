#ifndef PINOT_QUERY_SEGMENT_EXECUTOR_H_
#define PINOT_QUERY_SEGMENT_EXECUTOR_H_

#include "common/status.h"
#include "query/query.h"
#include "query/result.h"
#include "segment/segment.h"
#include "trace/trace.h"

namespace pinot {

/// Executes `query` against one segment and merges the outcome into `out`.
///
/// Per-segment physical planning (paper section 3.3.4): the executor picks,
/// in order of preference,
///   1. a metadata-only plan (COUNT(*)/MIN/MAX with no filter),
///   2. a star-tree plan when the segment has a star-tree covering the
///      query's filter/group-by dimensions and aggregation metrics
///      (section 4.3), or
///   3. the raw plan: filter evaluation (sorted-range / inverted / scan
///      operators chosen per column) followed by aggregation, group-by, or
///      selection over the matching documents.
///
/// When `span` is non-null, execution appends phase child spans (plan /
/// filter / aggregate | group-by | selection) and labels the span with the
/// chosen plan (`plan` = metadata | star-tree | raw), the per-column filter
/// operator (`op:<col>`), the aggregation kernel (`kernel` = count-only |
/// batched | per-doc) and the group-table kind (`group_table` = dense |
/// radix(<shards>) | string). A null span runs the untraced path with zero
/// overhead.
Status ExecuteQueryOnSegment(const SegmentInterface& segment,
                             const Query& query, PartialResult* out,
                             TraceSpan* span = nullptr);

/// The physical plan classes of paper section 3.3.4, in preference order.
enum class SegmentPlanKind { kMetadataOnly, kStarTree, kRaw };

/// "metadata" / "star-tree" / "raw".
const char* SegmentPlanKindToString(SegmentPlanKind kind);

/// Planning only (EXPLAIN): decides which physical plan
/// ExecuteQueryOnSegment would pick for this query on this segment without
/// reading any row data — including the star-tree id-expansion limit, so a
/// would-be runtime fallback to raw is reported as raw. When `span` is
/// non-null and the raw plan is chosen, each filter column is labelled with
/// its operator (`op:<col>` = constant | sorted-range | inverted | scan).
SegmentPlanKind PlanQueryOnSegment(const SegmentInterface& segment,
                                   const Query& query,
                                   TraceSpan* span = nullptr);

/// True when the segment's star-tree can answer the query (exposed for
/// tests and the Figure 13 bench).
bool CanUseStarTree(const SegmentInterface& segment, const Query& query);

}  // namespace pinot

#endif  // PINOT_QUERY_SEGMENT_EXECUTOR_H_
