#ifndef PINOT_QUERY_RESULT_H_
#define PINOT_QUERY_RESULT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/value.h"
#include "query/agg.h"
#include "query/query.h"
#include "trace/trace.h"

namespace pinot {

/// Counters accumulated during execution; used for Figure 13 (preaggregated
/// records scanned vs raw records) and for the automated index advisor
/// (section 5.2 parses execution statistics to add inverted indexes).
struct ExecutionStats {
  uint64_t docs_scanned = 0;         // Raw documents visited post-filter.
  uint64_t docs_matched = 0;         // Documents matching the filter.
  uint64_t segments_queried = 0;
  uint64_t segments_pruned = 0;      // Skipped via metadata/partition.
  uint64_t star_tree_records_scanned = 0;
  bool used_star_tree = false;
  bool answered_from_metadata = false;

  void Merge(const ExecutionStats& other) {
    docs_scanned += other.docs_scanned;
    docs_matched += other.docs_matched;
    segments_queried += other.segments_queried;
    segments_pruned += other.segments_pruned;
    star_tree_records_scanned += other.star_tree_records_scanned;
    used_star_tree = used_star_tree || other.used_star_tree;
    answered_from_metadata =
        answered_from_metadata || other.answered_from_metadata;
  }
};

/// Encodes group-key values into a hashable string key (values from
/// different segments hash identically, unlike dictionary ids). Each value
/// is its Value alternative in one tag byte, then a 4-byte length, then its
/// rendering: string values can contain any byte, so a separator scheme
/// could not distinguish ("a\x1f", "b") from ("a", "\x1fb"). Integers and
/// doubles render as their shortest round-trip decimal, so the key is
/// exact and DecodeGroupKey inverts it; a multi-value renders as its
/// entries' encodings.
std::string EncodeGroupKey(const std::vector<Value>& keys);

/// Appends the encoding of one key value to `out` — EncodeGroupKey is the
/// fold of this over all key values. Exposed so the packed group-by flush
/// can build encoded keys incrementally in a reused buffer without
/// materializing a std::vector<Value> per group.
void AppendGroupKeyValue(const Value& v, std::string* out);

/// Appends the encoding of a string key value without copying it into a
/// Value (what AppendGroupKeyValue produces for that string).
void AppendStringGroupKeyValue(std::string_view value, std::string* out);

/// The key values an EncodeGroupKey key holds.
std::vector<Value> DecodeGroupKey(std::string_view encoded);

/// Flat group-by accumulation table, the mergeable group-by payload of a
/// PartialResult. Replaces the old `unordered_map<string, GroupEntry>`:
/// encoded keys live in one byte arena, aggregation states in one flat
/// array (`num_aggs` entries per group), and lookup goes through a
/// linear-probing index of group ordinals. At million-group cardinalities
/// this avoids the three-allocations-per-group cost of the node-based map
/// (key string, GroupEntry node, per-group key vector) that used to
/// dominate the per-segment flush.
///
/// Keys stay encoded through merges, combines and trims: KeysAt decodes a
/// group's `num_keys()` values only for the rows the broker returns.
/// Every group holds exactly `num_aggs()` states; a table whose arity
/// disagrees with a merge peer (older table config) is rejected wholesale
/// instead of per-entry.
class GroupTable {
 public:
  static constexpr uint32_t kInvalidGroup = 0xffffffffu;

  bool empty() const { return group_count_ == 0; }
  size_t size() const { return group_count_; }
  size_t num_keys() const { return num_keys_; }
  size_t num_aggs() const { return num_aggs_; }

  /// Sets the per-group arity on first use; returns false when the table
  /// already holds groups of a different arity.
  bool EnsureArity(size_t num_keys, size_t num_aggs);

  /// Ordinal of the group with this encoded key, or kInvalidGroup.
  uint32_t Find(std::string_view encoded_key) const;

  /// Find-or-insert: returns the ordinal for `encoded_key` (num_keys()
  /// values encoded by AppendGroupKeyValue), inserting a new group with
  /// default (zero) states when absent.
  uint32_t FindOrAdd(std::string_view encoded_key) {
    const size_t hash = HashKey(encoded_key);
    const uint32_t g = FindWithHash(encoded_key, hash);
    return g != kInvalidGroup ? g : AppendGroup(encoded_key, hash);
  }

  /// Inserts one externally built group (or merges states into an existing
  /// one). EnsureArity must have been called.
  void AddGroup(const std::vector<Value>& keys,
                std::vector<AggState>&& states);

  AggState* StatesAt(uint32_t g) { return &states_[size_t{g} * num_aggs_]; }
  const AggState* StatesAt(uint32_t g) const {
    return &states_[size_t{g} * num_aggs_];
  }
  /// The key values of group `g`, decoded from its encoded key.
  std::vector<Value> KeysAt(uint32_t g) const {
    return DecodeGroupKey(EncodedKeyAt(g));
  }
  std::string_view EncodedKeyAt(uint32_t g) const {
    return std::string_view(arena_).substr(key_offsets_[g],
                                           key_offsets_[g + 1] -
                                               key_offsets_[g]);
  }

  /// Merges `other` in (groups matched by encoded key). On arity mismatch
  /// the table is left untouched and `*status` is set (first error wins).
  void MergeFrom(GroupTable&& other, Status* status);

  /// True when `other` can merge into this table: either side is empty or
  /// the arities agree. Otherwise sets `*status` (unless already an error)
  /// to the arity-mismatch error MergeFrom reports.
  bool MergeableWith(const GroupTable& other, Status* status) const;

  /// Merges in the groups of `other` that fall in hash shard `shard` of
  /// `num_shards` (by the high bits of the stored hash, independent of the
  /// index slot), in `other`'s order: a new group takes its key and states,
  /// an existing one merges the states. Nothing is re-hashed, and `other`
  /// is only read, except that DISTINCTCOUNT sets move out; so one worker
  /// per shard can drain the same tables at once without sharing a write.
  void MergeShardFrom(GroupTable* other, uint32_t shard, uint32_t num_shards);

  /// Sizes the index and the flat arrays for `groups` groups in total.
  void Reserve(size_t groups);

  /// One table holding every group of `parts`, whose keys must be
  /// pairwise disjoint (hash shards of one combine), in part order.
  static GroupTable Concatenate(std::vector<GroupTable>&& parts);

  /// The `limit` highest-ranked group ordinals in order, ranked by
  /// (AggSortValue of the first state descending, encoded key ascending)
  /// — the deterministic broker TOP-n order. Encoded keys are unique, so
  /// the order is strict and the prefix does not depend on how many groups
  /// are ranked: server-side trimming and the broker reduce agree on equal
  /// sort values. Partial sort: O(groups · log limit).
  std::vector<uint32_t> RankedByFirstAgg(AggregationType first_type,
                                         size_t limit) const;

  /// Keeps the `keep` highest-ranked groups (see RankedByFirstAgg) and
  /// drops the rest; returns the number of groups dropped. This is the
  /// server-side ORDER-BY/LIMIT trim: with broker-side over-fetch the
  /// scatter payload becomes O(keep) instead of O(groups). Selection, not
  /// a sort: O(groups), and the kept groups stay in table order.
  size_t TrimToTopN(AggregationType first_type, size_t keep);

  /// Rough wire size of the table (encoded keys + states), used to report
  /// payload bytes shipped per server with/without trimming.
  size_t ApproxPayloadBytes() const;

 private:
  size_t HashKey(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
  uint32_t FindWithHash(std::string_view key, size_t hash) const;
  uint32_t AppendGroup(std::string_view key, size_t hash);
  // Merges group `og` of `other` in (see MergeShardFrom).
  void MergeGroupFrom(GroupTable* other, uint32_t og);
  // Appends group `og` of `other`, whose key must be absent here.
  void AppendMovedGroup(GroupTable* other, uint32_t og);
  void GrowIndex(size_t min_groups);
  // (first-aggregation sort value, ordinal) of every group, for ranking.
  struct SortEntry {
    double value;
    uint32_t group;
  };
  std::vector<SortEntry> SortEntries(AggregationType first_type) const;
  bool Ranks(const SortEntry& a, const SortEntry& b) const {
    if (a.value != b.value) return a.value > b.value;
    return EncodedKeyAt(a.group) < EncodedKeyAt(b.group);
  }

  size_t num_keys_ = 0;
  size_t num_aggs_ = 0;
  size_t group_count_ = 0;
  bool arity_set_ = false;

  // Encoded keys, concatenated; group g spans
  // [key_offsets_[g], key_offsets_[g+1]) of arena_.
  std::string arena_;
  std::vector<uint32_t> key_offsets_ = {0};

  // Flat per-group payload: num_aggs_ states per group.
  std::vector<AggState> states_;

  // Per-group hash of the encoded key, computed once on insert and reused
  // by index growth, merges and shard bucketing.
  std::vector<size_t> hashes_;

  // Linear-probing index: slot -> group ordinal (kInvalidGroup = empty).
  // Rebuilt from the arena on growth; power-of-two capacity.
  std::vector<uint32_t> slots_;
};

/// Per-query resource receipt: where the time went and how much work was
/// done, accounted unconditionally (TRACE or not) so cost is attributable
/// to tables and tenants ("Enhancing OLAP Resilience at LinkedIn" operates
/// Pinot by attributing latency and capacity to specific queries).
///
/// Time fields are microseconds. Segment-phase times (plan/filter/scan/agg)
/// are summed across parallel workers and scatter calls, so they are CPU
/// time and can exceed the query's wall latency; queue_micros sums tenant
/// admission waits across servers; route/scatter/reduce are broker wall
/// phases. Doc and segment tallies live in ExecutionStats only; the
/// receipt holds what the stats do not.
struct QueryReceipt {
  // Phase times (micros).
  int64_t queue_micros = 0;    // Tenant-admission queue wait, all servers.
  int64_t plan_micros = 0;     // Segment plan selection (incl. pruning).
  int64_t filter_micros = 0;   // Filter evaluation.
  int64_t scan_micros = 0;     // Selection row materialization.
  int64_t agg_micros = 0;      // Aggregation + group-by accumulation.
  int64_t route_micros = 0;    // Broker routing-table lookup.
  int64_t scatter_micros = 0;  // Broker scatter wall time, all tables.
  int64_t reduce_micros = 0;   // Broker merge/finalize.

  // Work done.
  uint64_t docs_pruned = 0;    // Docs inside segments skipped by pruning.
  uint64_t scan_bytes = 0;     // Estimated column bytes decoded.
  uint64_t payload_bytes = 0;  // Partial-result bytes shipped to the broker.
  uint64_t groups = 0;         // Pre-trim group count, summed over servers.
  uint64_t trimmed = 0;        // Groups dropped by server-side trimming.

  // Scatter behaviour (broker-side). `calls` and `timeouts` count call
  // spans; `retries` counts segments, not calls; every hedge fired gets
  // exactly one `hedge:` span.
  uint32_t calls = 0;          // Call spans (incl. retries/hedges).
  uint32_t retries = 0;        // Segments re-scattered in a later wave.
  uint32_t timeouts = 0;       // Call spans whose outcome is a timeout.
  uint32_t hedges = 0;         // Speculative hedge calls fired.
  uint32_t hedge_wins = 0;     // Hedge calls whose response was merged.

  void Merge(const QueryReceipt& other);

  /// Three `receipt: <section> k=v ...` lines (phases / work / scatter);
  /// the work line reads the doc/segment tallies from `stats`.
  /// Grammar-checked by scripts/check_dumps.sh.
  std::string ToString(const ExecutionStats& stats) const;
};

/// Unfinalized result of executing a query over one or more segments.
/// Mergeable across segments (server-side combine, paper section 3.3.3 step
/// 6) and across servers (broker-side merge, step 7).
struct PartialResult {
  // Aggregation without group-by: one state per aggregation spec.
  std::vector<AggState> aggregates;

  // Group-by accumulation (see GroupTable). Servers may trim this to the
  // query's over-fetched top-N before it ships to the broker.
  GroupTable groups;

  // Selection rows: at most `limit` per segment and per server combine
  // (see KeepSelectionRows); the broker reduce keeps the final `limit`.
  std::vector<std::vector<Value>> selection_rows;

  ExecutionStats stats;
  int64_t total_docs = 0;  // Total documents in the queried segments.

  // Resource accounting for this partial (phase times, docs_pruned, bytes,
  // group counts, scatter calls); merged alongside stats.
  QueryReceipt receipt;

  // Execution errors; a non-OK status marks the merged result partial.
  Status status;

  // Trace spans produced while computing this partial (per-request server
  // spans with per-segment children). Only populated when the query carries
  // trace/explain; Merge concatenates so spans survive the server-side
  // combine and ride back to the broker.
  std::vector<TraceSpan> spans;

  void Merge(PartialResult&& other);

  /// Merge minus the group tables: status (first error wins), stats,
  /// receipt, aggregates, selection rows and spans. The sharded server
  /// combine merges the group tables itself.
  void MergeExceptGroups(PartialResult&& other);
};

/// Compares two selection values: <0, 0 or >0. Strings compare as strings,
/// integers as integers, and mixed numbers as doubles; multi-values compare
/// entry by entry, then by length. Values of one column always have one
/// type, so this is a total order on a column's values.
int CompareSelectionValues(const Value& a, const Value& b);

/// The total order of selection rows for a query with ORDER BY: the ORDER
/// BY columns in their directions, then every remaining selected column
/// ascending, in selection order. Rows that tie under it are equal in
/// every selected column, so whichever copy a trim keeps, the answer is
/// byte-identical. The segment top-k heap (on dictionary ids), the server
/// combine trim, the broker reduce and the test row oracle all rank rows
/// by this order.
class SelectionOrder {
 public:
  struct Key {
    size_t column;  // Index into the selection list.
    bool desc;
  };

  /// The order for `query` against its selection list, or nullopt when the
  /// query has no ORDER BY or an ORDER BY column is not selected.
  static std::optional<SelectionOrder> ForQuery(const Query& query);

  const std::vector<Key>& keys() const { return keys_; }

  /// True when row `a` ranks strictly before row `b`.
  bool Less(const std::vector<Value>& a, const std::vector<Value>& b) const;

 private:
  std::vector<Key> keys_;
};

/// Keeps the first `query.limit` selection rows: with a resolvable ORDER BY
/// the top of SelectionOrder, sorted; otherwise the first rows in their
/// current order. Exact, not an over-fetch: the query's top rows are
/// always among each part's top rows.
void KeepSelectionRows(const Query& query,
                       std::vector<std::vector<Value>>* rows);

/// Final client-facing query response (paper section 3.3.3 step 8; errors
/// or timeouts mark the result as partial instead of failing it).
struct QueryResult {
  bool partial = false;
  std::string error_message;

  // Broker load shedding: the query was rejected at admission because the
  // broker was past its in-flight watermark. No server did any work; the
  // client should back off ~retry_after_millis before resubmitting
  // (a Retry-After header in a real HTTP broker).
  bool throttled = false;
  double retry_after_millis = 0;

  // Aggregation mode.
  std::vector<std::string> aggregation_names;
  std::vector<Value> aggregates;

  // Group-by mode: rows sorted descending by the first aggregation, top-n.
  struct GroupRow {
    std::vector<Value> keys;
    std::vector<Value> values;
  };
  std::vector<std::string> group_by_columns;
  std::vector<GroupRow> group_rows;

  // Selection mode.
  std::vector<std::string> selection_columns;
  std::vector<std::vector<Value>> selection_rows;

  ExecutionStats stats;
  // Resource receipt for the whole query (server phases merged across the
  // scatter + broker phases). Rendered after the trace and attached to
  // slow-query-log entries.
  QueryReceipt receipt;
  // Full hierarchical execution trace (root = broker span). Populated for
  // TRACE/EXPLAIN queries and for partial results, whose call spans say
  // which server failed, how, and which segments it covered; ToString()
  // renders it after the result rows.
  std::optional<TraceSpan> span;
  // True for EXPLAIN results: planning ran but no data was read.
  bool explain_only = false;
  int64_t total_docs = 0;
  double latency_millis = 0;

  /// Human-readable rendering for examples and debugging.
  std::string ToString() const;
};

/// Broker-side reduce: finalizes a merged PartialResult into the client
/// response (computes avg/distinct-count, sorts group rows, applies TOP n /
/// LIMIT and selection ordering).
QueryResult ReduceToFinalResult(const Query& query, PartialResult&& partial);

}  // namespace pinot

#endif  // PINOT_QUERY_RESULT_H_
