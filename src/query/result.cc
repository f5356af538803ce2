#include "query/result.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <sstream>
#include <type_traits>

namespace pinot {

namespace {

// A key value's tag byte is its Value alternative's index.
template <size_t kTag, typename T>
constexpr bool kTagIs =
    std::is_same_v<std::variant_alternative_t<kTag, Value>, T>;
static_assert(kTagIs<1, int64_t> && kTagIs<2, double> &&
              kTagIs<3, std::string> && kTagIs<4, std::vector<int64_t>> &&
              kTagIs<5, std::vector<double>> &&
              kTagIs<6, std::vector<std::string>>);
constexpr size_t kStringTag = 3;

void AppendTaggedGroupKeyValue(size_t tag, std::string_view rendered,
                               std::string* out) {
  const uint32_t size = static_cast<uint32_t>(rendered.size());
  char prefix[1 + sizeof(size)];
  prefix[0] = static_cast<char>(tag);
  std::memcpy(prefix + 1, &size, sizeof(size));
  out->append(prefix, sizeof(prefix));
  out->append(rendered.data(), rendered.size());
}

template <typename T>
void AppendNumberGroupKeyValue(size_t tag, T number, std::string* out) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), number);
  AppendTaggedGroupKeyValue(
      tag, std::string_view(buf, static_cast<size_t>(res.ptr - buf)), out);
}

template <typename T>
T ParseNumber(std::string_view rendered) {
  T number{};
  std::from_chars(rendered.data(), rendered.data() + rendered.size(), number);
  return number;
}

// Decodes the value at `*pos` of `encoded` and advances past it.
Value DecodeGroupKeyValue(std::string_view encoded, size_t* pos) {
  const size_t tag = static_cast<unsigned char>(encoded[*pos]);
  uint32_t size;
  std::memcpy(&size, encoded.data() + *pos + 1, sizeof(size));
  const std::string_view rendered = encoded.substr(*pos + 5, size);
  *pos += 5 + size;
  auto entries = [&rendered](auto* out) {
    for (size_t at = 0; at < rendered.size();) {
      using Entry = typename std::decay_t<decltype(*out)>::value_type;
      out->push_back(std::get<Entry>(DecodeGroupKeyValue(rendered, &at)));
    }
  };
  switch (tag) {
    case 1:
      return ParseNumber<int64_t>(rendered);
    case 2:
      return ParseNumber<double>(rendered);
    case 3:
      return std::string(rendered);
    case 4: {
      std::vector<int64_t> out;
      entries(&out);
      return out;
    }
    case 5: {
      std::vector<double> out;
      entries(&out);
      return out;
    }
    case 6: {
      std::vector<std::string> out;
      entries(&out);
      return out;
    }
  }
  return Value{};
}

}  // namespace

void AppendStringGroupKeyValue(std::string_view value, std::string* out) {
  AppendTaggedGroupKeyValue(kStringTag, value, out);
}

void AppendGroupKeyValue(const Value& v, std::string* out) {
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          AppendTaggedGroupKeyValue(v.index(), {}, out);
        } else if constexpr (std::is_same_v<T, int64_t> ||
                             std::is_same_v<T, double>) {
          // Shortest round-trip decimal: distinct doubles stay distinct
          // groups (ValueToString keeps six significant digits).
          AppendNumberGroupKeyValue(v.index(), x, out);
        } else if constexpr (std::is_same_v<T, std::string>) {
          AppendTaggedGroupKeyValue(v.index(), x, out);
        } else {
          std::string entries;
          for (const auto& entry : x) {
            AppendGroupKeyValue(Value{entry}, &entries);
          }
          AppendTaggedGroupKeyValue(v.index(), entries, out);
        }
      },
      v);
}

std::string EncodeGroupKey(const std::vector<Value>& keys) {
  std::string out;
  for (const auto& key : keys) AppendGroupKeyValue(key, &out);
  return out;
}

std::vector<Value> DecodeGroupKey(std::string_view encoded) {
  std::vector<Value> values;
  for (size_t pos = 0; pos < encoded.size();) {
    values.push_back(DecodeGroupKeyValue(encoded, &pos));
  }
  return values;
}

// --- GroupTable ------------------------------------------------------------

bool GroupTable::EnsureArity(size_t num_keys, size_t num_aggs) {
  if (!arity_set_) {
    num_keys_ = num_keys;
    num_aggs_ = num_aggs;
    arity_set_ = true;
    return true;
  }
  return num_keys_ == num_keys && num_aggs_ == num_aggs;
}

uint32_t GroupTable::FindWithHash(std::string_view key, size_t hash) const {
  if (slots_.empty()) return kInvalidGroup;
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (true) {
    const uint32_t g = slots_[pos];
    if (g == kInvalidGroup) return kInvalidGroup;
    if (EncodedKeyAt(g) == key) return g;
    pos = (pos + 1) & mask;
  }
}

uint32_t GroupTable::Find(std::string_view encoded_key) const {
  return FindWithHash(encoded_key, HashKey(encoded_key));
}

void GroupTable::GrowIndex(size_t min_groups) {
  // Load factor stays under 0.7; keys stay put in the arena and the stored
  // hashes place them, so growth re-hashes nothing.
  size_t capacity = slots_.empty() ? 1024 : slots_.size() * 2;
  while (min_groups * 10 >= capacity * 7) capacity *= 2;
  slots_.assign(capacity, kInvalidGroup);
  const size_t mask = capacity - 1;
  for (uint32_t g = 0; g < group_count_; ++g) {
    size_t pos = hashes_[g] & mask;
    while (slots_[pos] != kInvalidGroup) pos = (pos + 1) & mask;
    slots_[pos] = g;
  }
}

uint32_t GroupTable::AppendGroup(std::string_view key, size_t hash) {
  if (slots_.empty() || (group_count_ + 1) * 10 >= slots_.size() * 7) {
    GrowIndex(group_count_ + 1);
  }
  const uint32_t g = static_cast<uint32_t>(group_count_++);
  arena_.append(key.data(), key.size());
  key_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  states_.resize(states_.size() + num_aggs_);
  hashes_.push_back(hash);
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (slots_[pos] != kInvalidGroup) pos = (pos + 1) & mask;
  slots_[pos] = g;
  return g;
}

void GroupTable::Reserve(size_t groups) {
  if (groups * 10 >= slots_.size() * 7) GrowIndex(groups);
  key_offsets_.reserve(groups + 1);
  hashes_.reserve(groups);
  states_.reserve(groups * num_aggs_);
}

void GroupTable::AddGroup(const std::vector<Value>& keys,
                          std::vector<AggState>&& states) {
  const uint32_t g = FindOrAdd(EncodeGroupKey(keys));
  AggState* dst = StatesAt(g);
  for (size_t i = 0; i < num_aggs_; ++i) dst[i].Merge(std::move(states[i]));
}

bool GroupTable::MergeableWith(const GroupTable& other, Status* status) const {
  if (empty() || other.empty() ||
      (num_keys_ == other.num_keys_ && num_aggs_ == other.num_aggs_)) {
    return true;
  }
  // A peer running an older table config can disagree on the group or
  // aggregate arity; merging would index past the end.
  if (status->ok()) {
    *status = Status::FailedPrecondition(
        "group arity mismatch across partial results (" +
        std::to_string(num_keys_) + "x" + std::to_string(num_aggs_) + " vs " +
        std::to_string(other.num_keys_) + "x" +
        std::to_string(other.num_aggs_) + ")");
  }
  return false;
}

void GroupTable::AppendMovedGroup(GroupTable* other, uint32_t og) {
  const uint32_t g = AppendGroup(other->EncodedKeyAt(og), other->hashes_[og]);
  AggState* src = other->StatesAt(og);
  AggState* dst = StatesAt(g);
  for (size_t i = 0; i < num_aggs_; ++i) {
    // Copy, not move: a move would write `src` (and its cache line) even
    // without a distinct set to take.
    dst[i].sum = src[i].sum;
    dst[i].min = src[i].min;
    dst[i].max = src[i].max;
    dst[i].count = src[i].count;
    if (src[i].distinct != nullptr) {
      dst[i].distinct = std::move(src[i].distinct);
    }
  }
}

void GroupTable::MergeGroupFrom(GroupTable* other, uint32_t og) {
  const uint32_t g = FindWithHash(other->EncodedKeyAt(og), other->hashes_[og]);
  if (g == kInvalidGroup) {
    AppendMovedGroup(other, og);
    return;
  }
  AggState* src = other->StatesAt(og);
  AggState* dst = StatesAt(g);
  for (size_t i = 0; i < num_aggs_; ++i) dst[i].Merge(std::move(src[i]));
}

void GroupTable::MergeShardFrom(GroupTable* other, uint32_t shard,
                                uint32_t num_shards) {
  for (uint32_t og = 0; og < other->group_count_; ++og) {
    if (((other->hashes_[og] >> 32) * num_shards) >> 32 == shard) {
      MergeGroupFrom(other, og);
    }
  }
}

void GroupTable::MergeFrom(GroupTable&& other, Status* status) {
  if (other.empty()) return;
  if (empty()) {
    *this = std::move(other);
    return;
  }
  // On mismatch keep our side; the status flags the result partial.
  if (!MergeableWith(other, status)) return;
  for (uint32_t og = 0; og < other.size(); ++og) MergeGroupFrom(&other, og);
}

GroupTable GroupTable::Concatenate(std::vector<GroupTable>&& parts) {
  GroupTable out;
  size_t groups = 0;
  size_t bytes = 0;
  for (const GroupTable& part : parts) {
    if (part.empty()) continue;
    out.EnsureArity(part.num_keys_, part.num_aggs_);
    groups += part.group_count_;
    bytes += part.arena_.size();
  }
  out.arena_.reserve(bytes);
  out.Reserve(groups);
  for (GroupTable& part : parts) {
    if (part.empty()) continue;
    const uint32_t base = static_cast<uint32_t>(out.arena_.size());
    out.arena_.append(part.arena_);
    for (size_t g = 1; g <= part.group_count_; ++g) {
      out.key_offsets_.push_back(base + part.key_offsets_[g]);
    }
    std::move(part.states_.begin(), part.states_.end(),
              std::back_inserter(out.states_));
    out.hashes_.insert(out.hashes_.end(), part.hashes_.begin(),
                       part.hashes_.end());
    out.group_count_ += part.group_count_;
  }
  if (out.group_count_ > 0) out.GrowIndex(out.group_count_);
  return out;
}

std::vector<GroupTable::SortEntry> GroupTable::SortEntries(
    AggregationType first_type) const {
  // One finalize per group, not one per comparison.
  std::vector<SortEntry> entries(group_count_);
  for (uint32_t g = 0; g < group_count_; ++g) {
    entries[g].value =
        num_aggs_ == 0 ? 0 : AggSortValue(first_type, *StatesAt(g));
    entries[g].group = g;
  }
  return entries;
}

std::vector<uint32_t> GroupTable::RankedByFirstAgg(AggregationType first_type,
                                                   size_t limit) const {
  std::vector<SortEntry> entries = SortEntries(first_type);
  const size_t n = std::min(limit, entries.size());
  std::partial_sort(
      entries.begin(), entries.begin() + n, entries.end(),
      [this](const SortEntry& a, const SortEntry& b) { return Ranks(a, b); });
  std::vector<uint32_t> order(n);
  for (size_t r = 0; r < n; ++r) order[r] = entries[r].group;
  return order;
}

size_t GroupTable::TrimToTopN(AggregationType first_type, size_t keep) {
  if (group_count_ <= keep) return 0;
  std::vector<SortEntry> entries = SortEntries(first_type);
  if (keep > 0) {
    std::nth_element(
        entries.begin(), entries.begin() + (keep - 1), entries.end(),
        [this](const SortEntry& a, const SortEntry& b) { return Ranks(a, b); });
  }
  entries.resize(keep);
  std::sort(entries.begin(), entries.end(),
            [](const SortEntry& a, const SortEntry& b) {
              return a.group < b.group;
            });
  GroupTable trimmed;
  trimmed.EnsureArity(num_keys_, num_aggs_);
  trimmed.Reserve(keep);
  for (const SortEntry& entry : entries) {
    trimmed.AppendMovedGroup(this, entry.group);
  }
  const size_t dropped = group_count_ - trimmed.size();
  *this = std::move(trimmed);
  return dropped;
}

size_t GroupTable::ApproxPayloadBytes() const {
  return arena_.size() + key_offsets_.size() * sizeof(uint32_t) +
         states_.size() * sizeof(AggState);
}

void QueryReceipt::Merge(const QueryReceipt& other) {
  queue_micros += other.queue_micros;
  plan_micros += other.plan_micros;
  filter_micros += other.filter_micros;
  scan_micros += other.scan_micros;
  agg_micros += other.agg_micros;
  route_micros += other.route_micros;
  scatter_micros += other.scatter_micros;
  reduce_micros += other.reduce_micros;
  docs_pruned += other.docs_pruned;
  scan_bytes += other.scan_bytes;
  payload_bytes += other.payload_bytes;
  groups += other.groups;
  trimmed += other.trimmed;
  calls += other.calls;
  retries += other.retries;
  timeouts += other.timeouts;
  hedges += other.hedges;
  hedge_wins += other.hedge_wins;
}

std::string QueryReceipt::ToString(const ExecutionStats& stats) const {
  auto ms = [](int64_t micros) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", micros / 1000.0);
    return std::string(buf);
  };
  std::string out;
  out += "receipt: phases queue=" + ms(queue_micros) + "ms plan=" +
         ms(plan_micros) + "ms filter=" + ms(filter_micros) + "ms scan=" +
         ms(scan_micros) + "ms agg=" + ms(agg_micros) + "ms route=" +
         ms(route_micros) + "ms scatter=" + ms(scatter_micros) +
         "ms reduce=" + ms(reduce_micros) + "ms\n";
  out += "receipt: work docs_scanned=" + std::to_string(stats.docs_scanned) +
         " docs_pruned=" + std::to_string(docs_pruned) +
         " segments_queried=" + std::to_string(stats.segments_queried) +
         " segments_pruned=" + std::to_string(stats.segments_pruned) +
         " scan_bytes=" + std::to_string(scan_bytes) + " payload_bytes=" +
         std::to_string(payload_bytes) + " groups=" + std::to_string(groups) +
         " trimmed=" + std::to_string(trimmed) + "\n";
  out += "receipt: scatter calls=" + std::to_string(calls) + " retries=" +
         std::to_string(retries) + " timeouts=" + std::to_string(timeouts) +
         " hedges=" + std::to_string(hedges) + " hedge_wins=" +
         std::to_string(hedge_wins) + "\n";
  return out;
}

void PartialResult::Merge(PartialResult&& other) {
  GroupTable other_groups = std::move(other.groups);
  MergeExceptGroups(std::move(other));
  groups.MergeFrom(std::move(other_groups), &status);
}

void PartialResult::MergeExceptGroups(PartialResult&& other) {
  if (!other.status.ok() && status.ok()) status = other.status;
  stats.Merge(other.stats);
  receipt.Merge(other.receipt);
  total_docs += other.total_docs;

  if (aggregates.empty()) {
    aggregates = std::move(other.aggregates);
  } else if (!other.aggregates.empty()) {
    if (aggregates.size() != other.aggregates.size()) {
      // A peer running an older table config can disagree on the aggregate
      // count; merging would index past the end. Keep our side and flag
      // the result partial.
      if (status.ok()) {
        status = Status::FailedPrecondition(
            "aggregate count mismatch across partial results (" +
            std::to_string(aggregates.size()) + " vs " +
            std::to_string(other.aggregates.size()) + ")");
      }
    } else {
      for (size_t i = 0; i < aggregates.size(); ++i) {
        aggregates[i].Merge(std::move(other.aggregates[i]));
      }
    }
  }

  for (auto& row : other.selection_rows) {
    selection_rows.push_back(std::move(row));
  }

  for (auto& span : other.spans) {
    spans.push_back(std::move(span));
  }
}

namespace {

template <typename T>
int CompareScalars(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

int CompareScalars(const std::string& a, const std::string& b) {
  return a.compare(b);
}

template <typename T>
int CompareEntries(const std::vector<T>& a, const std::vector<T>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = CompareScalars(a[i], b[i]);
    if (c != 0) return c;
  }
  return CompareScalars(a.size(), b.size());
}

}  // namespace

int CompareSelectionValues(const Value& a, const Value& b) {
  if (a.index() != b.index()) {
    const int c = CompareScalars(ValueToDouble(a), ValueToDouble(b));
    return c != 0 ? c : CompareScalars(a.index(), b.index());
  }
  return std::visit(
      [&b](const auto& x) -> int {
        using T = std::decay_t<decltype(x)>;
        const T& y = std::get<T>(b);
        if constexpr (std::is_same_v<T, std::monostate>) {
          return 0;
        } else if constexpr (std::is_same_v<T, std::vector<int64_t>> ||
                             std::is_same_v<T, std::vector<double>> ||
                             std::is_same_v<T, std::vector<std::string>>) {
          return CompareEntries(x, y);
        } else {
          return CompareScalars(x, y);
        }
      },
      a);
}

std::optional<SelectionOrder> SelectionOrder::ForQuery(const Query& query) {
  if (query.order_by.empty()) return std::nullopt;
  const std::vector<std::string>& columns = query.selection_columns;
  SelectionOrder order;
  std::vector<bool> used(columns.size(), false);
  for (const auto& [column, desc] : query.order_by) {
    const size_t index =
        std::find(columns.begin(), columns.end(), column) - columns.begin();
    if (index == columns.size()) return std::nullopt;
    if (used[index]) continue;  // A repeated key decides nothing new.
    used[index] = true;
    order.keys_.push_back({index, desc});
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!used[i]) order.keys_.push_back({i, false});
  }
  return order;
}

bool SelectionOrder::Less(const std::vector<Value>& a,
                          const std::vector<Value>& b) const {
  for (const Key& key : keys_) {
    const int c = CompareSelectionValues(a[key.column], b[key.column]);
    if (c != 0) return key.desc ? c > 0 : c < 0;
  }
  return false;
}

void KeepSelectionRows(const Query& query,
                       std::vector<std::vector<Value>>* rows) {
  const size_t keep =
      std::min(rows->size(), static_cast<size_t>(query.limit));
  if (const std::optional<SelectionOrder> order =
          SelectionOrder::ForQuery(query)) {
    std::partial_sort(rows->begin(), rows->begin() + keep, rows->end(),
                      [&order](const std::vector<Value>& a,
                               const std::vector<Value>& b) {
                        return order->Less(a, b);
                      });
  }
  rows->resize(keep);
}

QueryResult ReduceToFinalResult(const Query& query, PartialResult&& partial) {
  QueryResult result;
  result.stats = partial.stats;
  result.receipt = partial.receipt;
  result.total_docs = partial.total_docs;
  if (!partial.status.ok()) {
    result.partial = true;
    result.error_message = partial.status.ToString();
  }

  if (query.IsAggregation()) {
    for (const auto& spec : query.aggregations) {
      result.aggregation_names.push_back(spec.ToString());
    }
    if (!query.HasGroupBy()) {
      if (partial.aggregates.empty()) {
        // No data (e.g. an empty table): render zero-valued aggregates.
        partial.aggregates.resize(query.aggregations.size());
      } else if (partial.aggregates.size() != query.aggregations.size()) {
        if (!result.partial) {
          result.partial = true;
          result.error_message = "aggregate count mismatch in merged result";
        }
        partial.aggregates.resize(query.aggregations.size());
      }
      for (size_t i = 0; i < query.aggregations.size(); ++i) {
        result.aggregates.push_back(
            FinalizeAgg(query.aggregations[i].type, partial.aggregates[i]));
      }
    } else {
      result.group_by_columns = query.group_by;
      // Order groups by (first aggregation descending, encoded key
      // ascending) and keep TOP n. The key tie-break matches the
      // server-side trim order, so trimming cannot reshuffle equal-valued
      // groups across the cut. A table whose arity disagrees with the
      // query (mismatched peers) cannot be finalized; report partial with
      // no rows rather than index past the end.
      GroupTable& table = partial.groups;
      if (!table.empty() &&
          (table.num_aggs() != query.aggregations.size() ||
           table.num_keys() != query.group_by.size())) {
        if (!result.partial) {
          result.partial = true;
          result.error_message = "group arity mismatch in merged result";
        }
      } else if (!table.empty()) {
        const AggregationType first_type = query.aggregations[0].type;
        const std::vector<uint32_t> order = table.RankedByFirstAgg(
            first_type, static_cast<size_t>(query.top_n));
        result.group_rows.reserve(order.size());
        for (const uint32_t g : order) {
          QueryResult::GroupRow row;
          row.keys = table.KeysAt(g);
          for (size_t i = 0; i < query.aggregations.size(); ++i) {
            row.values.push_back(FinalizeAgg(query.aggregations[i].type,
                                             table.StatesAt(g)[i]));
          }
          result.group_rows.push_back(std::move(row));
        }
      }
    }
  } else {
    result.selection_columns = query.selection_columns;
    auto& rows = partial.selection_rows;
    for (const auto& [column, desc] : query.order_by) {
      // An unresolvable ORDER BY column is a query error: trimming
      // unsorted rows to `limit` would silently return arbitrary rows as
      // if they were the top-k.
      const auto& columns = query.selection_columns;
      if (std::find(columns.begin(), columns.end(), column) ==
          columns.end()) {
        result.partial = true;
        if (!result.error_message.empty()) result.error_message += "; ";
        result.error_message +=
            "ORDER BY column not in selection list: " + column;
        return result;
      }
    }
    KeepSelectionRows(query, &rows);
    result.selection_rows = std::move(rows);
  }
  return result;
}

std::string QueryResult::ToString() const {
  std::ostringstream os;
  if (throttled) {
    os << "[THROTTLED: " << error_message << " (retry after "
       << retry_after_millis << "ms)]\n";
  } else if (partial) {
    os << "[PARTIAL: " << error_message << "]\n";
  }
  if (!aggregates.empty()) {
    for (size_t i = 0; i < aggregates.size(); ++i) {
      os << aggregation_names[i] << " = " << ValueToString(aggregates[i])
         << "\n";
    }
  }
  if (!group_rows.empty()) {
    for (const auto& column : group_by_columns) os << column << "\t";
    for (const auto& name : aggregation_names) os << name << "\t";
    os << "\n";
    for (const auto& row : group_rows) {
      for (const auto& key : row.keys) os << ValueToString(key) << "\t";
      for (const auto& value : row.values) os << ValueToString(value) << "\t";
      os << "\n";
    }
  }
  if (!selection_rows.empty()) {
    for (const auto& column : selection_columns) os << column << "\t";
    os << "\n";
    for (const auto& row : selection_rows) {
      for (const auto& value : row) os << ValueToString(value) << "\t";
      os << "\n";
    }
  }
  os << "(docs scanned: " << stats.docs_scanned
     << ", matched: " << stats.docs_matched
     << ", total: " << total_docs
     << ", segments queried: " << stats.segments_queried
     << ", pruned: " << stats.segments_pruned;
  if (stats.used_star_tree) {
    os << ", star-tree records: " << stats.star_tree_records_scanned;
  }
  os << ")";
  if (span.has_value()) {
    os << "\n--- " << (explain_only ? "plan" : "trace") << " ---\n"
       << span->ToString();
    if (!explain_only) {
      os << "--- receipt ---\n" << receipt.ToString(stats);
    }
  }
  return os.str();
}

}  // namespace pinot
