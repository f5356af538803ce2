#ifndef PINOT_QUERY_TABLE_EXECUTOR_H_
#define PINOT_QUERY_TABLE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "query/query.h"
#include "query/result.h"
#include "query/segment_executor.h"
#include "segment/segment.h"
#include "trace/trace.h"

namespace pinot {

/// `group_keep` that keeps every group (no server-side trim).
inline constexpr size_t kKeepAllGroups = SIZE_MAX;

/// Total groups across a combine's segment partials below which the
/// partials fold on the calling thread: a pool round-trip costs more than
/// merging a few thousand groups.
inline constexpr size_t kShardedCombineMinGroups = 8192;

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
///
/// The combine keeps only what the query can return: selection rows are
/// cut to the query's LIMIT (each segment already keeps at most that many),
/// and the group table to the `group_keep` top-ranked groups (the server's
/// over-fetched keep; the default keeps every group). Below
/// kShardedCombineMinGroups groups in total the partials fold on the
/// calling thread in segment order. Above it, with a pool of two or more
/// threads, groups are partitioned by encoded-key hash into one shard per
/// pool thread; shard p of every segment merges on one worker in segment
/// order and is trimmed to `group_keep`, and the survivors are
/// concatenated (and trimmed once more to `group_keep`).
/// Every group merges in segment-index order on every path, so pooled and
/// serial runs return bit-identical results. The receipt records the
/// pre-trim group count and the groups dropped.
PartialResult ExecuteQueryOnSegments(
    const std::vector<std::shared_ptr<SegmentInterface>>& segments,
    const Query& query, ThreadPool* pool = nullptr,
    TraceSpan* parent = nullptr, size_t group_keep = kKeepAllGroups);

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
