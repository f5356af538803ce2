#include "query/result.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace pinot {

void AppendRenderedGroupKeyValue(std::string_view rendered, std::string* out) {
  const uint32_t size = static_cast<uint32_t>(rendered.size());
  char prefix[sizeof(size)];
  std::memcpy(prefix, &size, sizeof(size));
  out->append(prefix, sizeof(size));
  out->append(rendered.data(), rendered.size());
}

void AppendGroupKeyValue(const Value& v, std::string* out) {
  // Doubles render exactly (shortest round-trip), not with ValueToString's
  // six significant digits, so distinct values stay distinct groups.
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), *d);
    AppendRenderedGroupKeyValue(
        std::string_view(buf, static_cast<size_t>(res.ptr - buf)), out);
    return;
  }
  AppendRenderedGroupKeyValue(ValueToString(v), out);
}

std::string EncodeGroupKey(const std::vector<Value>& keys) {
  std::string out;
  for (const auto& key : keys) AppendGroupKeyValue(key, &out);
  return out;
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

void GroupTable::GrowIndex() {
  const size_t new_capacity = slots_.empty() ? 1024 : slots_.size() * 2;
  slots_.assign(new_capacity, kInvalidGroup);
  const size_t mask = new_capacity - 1;
  for (uint32_t g = 0; g < group_count_; ++g) {
    size_t pos = HashKey(EncodedKeyAt(g)) & mask;
    while (slots_[pos] != kInvalidGroup) pos = (pos + 1) & mask;
    slots_[pos] = g;
  }
}

uint32_t GroupTable::AppendGroup(std::string_view key, size_t hash) {
  // Keep the index load factor under 0.7 (growing rehashes ordinal ints
  // only; keys stay put in the arena).
  if (slots_.empty() || (group_count_ + 1) * 10 >= slots_.size() * 7) {
    GrowIndex();
  }
  const uint32_t g = static_cast<uint32_t>(group_count_++);
  arena_.append(key.data(), key.size());
  key_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  states_.resize(states_.size() + num_aggs_);
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (slots_[pos] != kInvalidGroup) pos = (pos + 1) & mask;
  slots_[pos] = g;
  return g;
}

void GroupTable::AddGroup(std::vector<Value> keys,
                          std::vector<AggState>&& states) {
  const std::string encoded = EncodeGroupKey(keys);
  const uint32_t g = FindOrAdd(encoded, [&](std::vector<Value>* out) {
    for (auto& key : keys) out->push_back(std::move(key));
  });
  AggState* dst = StatesAt(g);
  for (size_t i = 0; i < num_aggs_; ++i) dst[i].Merge(std::move(states[i]));
}

void GroupTable::MergeFrom(GroupTable&& other, Status* status) {
  if (other.empty()) return;
  if (empty()) {
    *this = std::move(other);
    return;
  }
  if (num_keys_ != other.num_keys_ || num_aggs_ != other.num_aggs_) {
    // A peer running an older table config can disagree on the group or
    // aggregate arity; merging would index past the end. Keep our side and
    // flag the result partial.
    if (status->ok()) {
      *status = Status::FailedPrecondition(
          "group arity mismatch across partial results (" +
          std::to_string(num_keys_) + "x" + std::to_string(num_aggs_) +
          " vs " + std::to_string(other.num_keys_) + "x" +
          std::to_string(other.num_aggs_) + ")");
    }
    return;
  }
  for (uint32_t og = 0; og < other.size(); ++og) {
    const uint32_t g =
        FindOrAdd(other.EncodedKeyAt(og), [&](std::vector<Value>* out) {
          Value* keys = other.MutableKeysAt(og);
          for (size_t i = 0; i < num_keys_; ++i) {
            out->push_back(std::move(keys[i]));
          }
        });
    AggState* dst = StatesAt(g);
    AggState* src = other.StatesAt(og);
    for (size_t i = 0; i < num_aggs_; ++i) dst[i].Merge(std::move(src[i]));
  }
}

std::vector<uint32_t> GroupTable::RankedByFirstAgg(
    AggregationType first_type) const {
  std::vector<uint32_t> order(group_count_);
  for (uint32_t g = 0; g < group_count_; ++g) order[g] = g;
  if (num_aggs_ == 0) return order;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const double va = AggSortValue(first_type, *StatesAt(a));
    const double vb = AggSortValue(first_type, *StatesAt(b));
    if (va != vb) return va > vb;
    return EncodedKeyAt(a) < EncodedKeyAt(b);
  });
  return order;
}

size_t GroupTable::TrimToTopN(AggregationType first_type, size_t keep) {
  if (group_count_ <= keep) return 0;
  std::vector<uint32_t> order = RankedByFirstAgg(first_type);
  order.resize(keep);
  GroupTable trimmed;
  trimmed.EnsureArity(num_keys_, num_aggs_);
  for (uint32_t g : order) {
    const uint32_t ng =
        trimmed.FindOrAdd(EncodedKeyAt(g), [&](std::vector<Value>* out) {
          Value* keys = MutableKeysAt(g);
          for (size_t i = 0; i < num_keys_; ++i) {
            out->push_back(std::move(keys[i]));
          }
        });
    AggState* dst = trimmed.StatesAt(ng);
    AggState* src = StatesAt(g);
    for (size_t i = 0; i < num_aggs_; ++i) dst[i] = std::move(src[i]);
  }
  const size_t dropped = group_count_ - trimmed.size();
  *this = std::move(trimmed);
  return dropped;
}

size_t GroupTable::ApproxPayloadBytes() const {
  size_t bytes = arena_.size() + key_offsets_.size() * sizeof(uint32_t) +
                 states_.size() * sizeof(AggState) +
                 key_values_.size() * sizeof(Value);
  for (const auto& v : key_values_) {
    if (const auto* s = std::get_if<std::string>(&v)) bytes += s->size();
  }
  return bytes;
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

  groups.MergeFrom(std::move(other.groups), &status);

  for (auto& row : other.selection_rows) {
    selection_rows.push_back(std::move(row));
  }

  for (auto& span : other.spans) {
    spans.push_back(std::move(span));
  }
}

namespace {

// Comparator for selection ORDER BY: compares two rows on the given
// (column index, descending) list.
struct RowComparator {
  const std::vector<std::pair<int, bool>>* order;

  static int CompareValues(const Value& a, const Value& b) {
    const auto* sa = std::get_if<std::string>(&a);
    const auto* sb = std::get_if<std::string>(&b);
    if (sa != nullptr && sb != nullptr) return sa->compare(*sb);
    const double da = ValueToDouble(a);
    const double db = ValueToDouble(b);
    return da < db ? -1 : (da > db ? 1 : 0);
  }

  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (const auto& [index, desc] : *order) {
      const int c = CompareValues(a[index], b[index]);
      if (c != 0) return desc ? c > 0 : c < 0;
    }
    return false;
  }
};

}  // namespace

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
        std::vector<uint32_t> order = table.RankedByFirstAgg(first_type);
        const size_t n =
            std::min<size_t>(order.size(), static_cast<size_t>(query.top_n));
        result.group_rows.reserve(n);
        for (size_t r = 0; r < n; ++r) {
          const uint32_t g = order[r];
          QueryResult::GroupRow row;
          Value* keys = table.MutableKeysAt(g);
          row.keys.reserve(query.group_by.size());
          for (size_t i = 0; i < query.group_by.size(); ++i) {
            row.keys.push_back(std::move(keys[i]));
          }
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
    if (!query.order_by.empty()) {
      // Map order-by columns to selection indexes. An unresolvable column
      // is a query error: trimming unsorted rows to `limit` would silently
      // return arbitrary rows as if they were the top-k.
      std::vector<std::pair<int, bool>> order;
      for (const auto& [column, desc] : query.order_by) {
        int index = -1;
        for (size_t i = 0; i < query.selection_columns.size(); ++i) {
          if (query.selection_columns[i] == column) {
            index = static_cast<int>(i);
            break;
          }
        }
        if (index < 0) {
          result.partial = true;
          if (!result.error_message.empty()) result.error_message += "; ";
          result.error_message +=
              "ORDER BY column not in selection list: " + column;
          return result;
        }
        order.emplace_back(index, desc);
      }
      RowComparator cmp{&order};
      const size_t keep =
          std::min<size_t>(rows.size(), static_cast<size_t>(query.limit));
      std::partial_sort(rows.begin(), rows.begin() + keep, rows.end(), cmp);
    }
    if (rows.size() > static_cast<size_t>(query.limit)) {
      rows.resize(query.limit);
    }
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
