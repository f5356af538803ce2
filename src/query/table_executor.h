#ifndef PINOT_QUERY_TABLE_EXECUTOR_H_
#define PINOT_QUERY_TABLE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "query/query.h"
#include "query/result.h"
#include "query/segment_executor.h"
#include "segment/segment.h"
#include "trace/trace.h"

namespace pinot {

/// Executes `query` over a set of segments, combining the per-segment
/// partial results (the server-side combine of paper section 3.3.3 step 6;
/// "query plans are processed in parallel" when `pool` is non-null).
///
/// Segments whose metadata proves they cannot match the filter (predicate
/// value ranges disjoint from the column's min/max) are pruned without
/// execution; per-segment errors mark the merged result's status, which the
/// broker surfaces as a partial result rather than a failure.
///
/// When `parent` is non-null, one `segment:<name>` child span is attached
/// per segment, labelled with the chosen plan (metadata / star-tree / raw /
/// pruned) and annotated with docs scanned/matched; in the parallel path
/// each task builds its span locally and the single-threaded merge step
/// attaches them, so no locking is needed. A query with `explain` set runs
/// per-segment planning only — plan spans are produced but no data is read
/// and no rows are returned.
/// When `pool` is non-null the per-segment partials are also *merged*
/// tree-wise across the pool (pairwise rounds, log2(segments) deep) instead
/// of one sequential fold — at million-group cardinalities the combine is
/// as expensive as the scans, and the pairwise topology is deterministic so
/// results are reproducible run to run.
PartialResult ExecuteQueryOnSegments(
    const std::vector<std::shared_ptr<SegmentInterface>>& segments,
    const Query& query, ThreadPool* pool = nullptr,
    TraceSpan* parent = nullptr);

/// Server-side ORDER-BY/LIMIT trim (production Pinot's scatter-payload
/// bound): keeps the `keep` groups that rank highest in the broker's final
/// order (first aggregation descending, encoded key as tie-break) and drops
/// the rest. Returns the number of groups dropped. `keep` should over-fetch
/// the query's TOP n (e.g. max(top_n * 5, 5000)) so per-server local ranks
/// almost surely cover the global top-N; no-op for non-group-by queries.
size_t TrimGroupPartial(const Query& query, size_t keep,
                        PartialResult* partial);

/// True when segment metadata alone proves the filter matches nothing in
/// this segment (exposed for tests).
bool CanPruneSegment(const SegmentInterface& segment, const Query& query);

}  // namespace pinot

#endif  // PINOT_QUERY_TABLE_EXECUTOR_H_
