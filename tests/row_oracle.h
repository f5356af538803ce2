#ifndef PINOT_TESTS_ROW_ORACLE_H_
#define PINOT_TESTS_ROW_ORACLE_H_

// Brute-force row oracle: a query's expected answer computed straight from
// the ingested rows, with none of the engine's machinery (no dictionaries,
// plans, kernels, group tables or partial-result merges). Feed it rows in
// doc order, then Check() an engine or broker answer. It has no gtest
// dependency, so benches can abort on a wrong answer too.
//
// The semantics it pins, as this engine implements PQL:
//   - Filters: PredicateMatchesValue per leaf, AND/OR over the tree.
//   - COUNT counts rows; SUM/MIN/MAX/AVG read the value as a double;
//     DISTINCTCOUNT counts distinct scalar values (every entry of a
//     multi-value column). Over no rows SUM is 0 and MIN/MAX/AVG are null.
//   - GROUP BY explodes multi-value columns into one group per entry (the
//     cross product across columns); an empty list is a null key.
//   - TOP n ranks groups by (first aggregation descending, encoded key
//     ascending).
//   - Selection: without ORDER BY, every returned row is a distinct
//     matching row. With ORDER BY, the rows are exactly the first k of the
//     matching rows sorted by SelectionOrder (the ORDER BY keys, then every
//     other selected column ascending): a total order on distinct rows, so
//     ties at the cut are not free.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "data/row.h"
#include "query/filter_evaluator.h"
#include "query/query.h"
#include "query/result.h"

namespace pinot {
namespace test {

inline bool RowMatches(const FilterNode& node, const Row& row) {
  switch (node.kind) {
    case FilterNode::Kind::kLeaf:
      return PredicateMatchesValue(node.predicate,
                                   row.Get(node.predicate.column));
    case FilterNode::Kind::kAnd:
      for (const auto& child : node.children) {
        if (!RowMatches(child, row)) return false;
      }
      return true;
    case FilterNode::Kind::kOr:
      for (const auto& child : node.children) {
        if (RowMatches(child, row)) return true;
      }
      return false;
  }
  return false;
}

// The scalar entries of a value: itself, or each entry of a multi-value.
inline std::vector<Value> ScalarEntries(const Value& v) {
  if (const auto* xs = std::get_if<std::vector<int64_t>>(&v)) {
    return std::vector<Value>(xs->begin(), xs->end());
  }
  if (const auto* ds = std::get_if<std::vector<double>>(&v)) {
    return std::vector<Value>(ds->begin(), ds->end());
  }
  if (const auto* ss = std::get_if<std::vector<std::string>>(&v)) {
    return std::vector<Value>(ss->begin(), ss->end());
  }
  return {v};
}

// ValueToString with doubles at full precision, for difference reports.
inline std::string RenderExact(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  return ValueToString(v);
}

inline std::string RenderExact(const std::vector<Value>& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += RenderExact(values[i]);
  }
  return out + ")";
}

// Hash of a group key (scalar values only: multi-values are exploded).
struct GroupKeyHash {
  size_t operator()(const std::vector<Value>& keys) const {
    size_t h = keys.size();
    for (const Value& v : keys) {
      size_t x = v.index();
      if (const auto* i = std::get_if<int64_t>(&v)) {
        x ^= std::hash<int64_t>{}(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        x ^= std::hash<double>{}(*d);
      } else if (const auto* s = std::get_if<std::string>(&v)) {
        x ^= std::hash<std::string>{}(*s);
      }
      h = h * 0x9e3779b97f4a7c15ULL + x;
    }
    return h;
  }
};

class RowOracle {
 public:
  explicit RowOracle(Query query)
      : query_(std::move(query)),
        totals_(query_.HasGroupBy() ? 0 : query_.aggregations.size()),
        double_input_(query_.aggregations.size(), false) {}

  /// Adds one ingested row. Rows must come in doc order for Check(exact)
  /// to hold on a single segment.
  void Add(const Row& row) {
    if (query_.filter.has_value() && !RowMatches(*query_.filter, row)) {
      return;
    }
    if (!query_.IsAggregation()) {
      std::vector<Value> projected;
      projected.reserve(query_.selection_columns.size());
      for (const auto& column : query_.selection_columns) {
        projected.push_back(row.Get(column));
      }
      selected_.push_back(std::move(projected));
    } else if (!query_.HasGroupBy()) {
      Accumulate(row, &totals_);
    } else {
      std::vector<Value> key;
      AddToGroups(row, &key);
    }
  }

  /// "" when `actual` is the answer, else the first difference found. With
  /// `exact`, doubles must be bit-identical (one segment, doc-order sums).
  /// Otherwise SUM/AVG over double values may differ by 1e-9 of the summed
  /// magnitudes; every other value (counts, long sums, MIN/MAX,
  /// DISTINCTCOUNT, keys) must still match exactly.
  std::string Check(const QueryResult& actual, bool exact) const {
    if (actual.partial) return "partial answer: " + actual.error_message;
    if (!query_.IsAggregation()) return CheckSelection(actual);
    if (!query_.HasGroupBy()) {
      if (actual.aggregates.size() != totals_.size()) {
        return "expected " + std::to_string(totals_.size()) +
               " aggregates, got " + std::to_string(actual.aggregates.size());
      }
      for (size_t i = 0; i < totals_.size(); ++i) {
        const std::string diff =
            CompareAgg(i, totals_[i], actual.aggregates[i], exact);
        if (!diff.empty()) {
          return query_.aggregations[i].ToString() + ": " + diff;
        }
      }
      return "";
    }
    return CheckGroups(actual, exact);
  }

 private:
  struct Acc {
    int64_t count = 0;
    double sum = 0;
    double magnitude = 0;  // Sum of |value|: the double tolerance scale.
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::set<Value> distinct;
  };

  void Accumulate(const Row& row, std::vector<Acc>* accs) {
    for (size_t i = 0; i < query_.aggregations.size(); ++i) {
      const AggregationSpec& spec = query_.aggregations[i];
      Acc& acc = (*accs)[i];
      ++acc.count;
      if (spec.type == AggregationType::kCount) continue;
      const Value& v = row.Get(spec.column);
      if (spec.type == AggregationType::kDistinctCount) {
        for (Value& entry : ScalarEntries(v)) {
          acc.distinct.insert(std::move(entry));
        }
        continue;
      }
      if (std::holds_alternative<double>(v)) double_input_[i] = true;
      const double d = ValueToDouble(v);
      acc.sum += d;
      acc.magnitude += std::fabs(d);
      acc.min = std::min(acc.min, d);
      acc.max = std::max(acc.max, d);
    }
  }

  void AddToGroups(const Row& row, std::vector<Value>* key) {
    if (key->size() == query_.group_by.size()) {
      auto [it, inserted] = groups_.try_emplace(*key);
      if (inserted) it->second.resize(query_.aggregations.size());
      Accumulate(row, &it->second);
      return;
    }
    const Value& value = row.Get(query_.group_by[key->size()]);
    if (!IsMultiValue(value)) {
      key->push_back(value);
      AddToGroups(row, key);
      key->pop_back();
      return;
    }
    std::vector<Value> entries = ScalarEntries(value);
    if (entries.empty()) entries.emplace_back();  // Empty list: null key.
    for (Value& entry : entries) {
      key->push_back(std::move(entry));
      AddToGroups(row, key);
      key->pop_back();
    }
  }

  Value Finalize(size_t i, const Acc& acc) const {
    switch (query_.aggregations[i].type) {
      case AggregationType::kCount:
        return acc.count;
      case AggregationType::kSum:
        return acc.count == 0 ? 0.0 : acc.sum;
      case AggregationType::kMin:
        return acc.count == 0 ? Value{} : Value{acc.min};
      case AggregationType::kMax:
        return acc.count == 0 ? Value{} : Value{acc.max};
      case AggregationType::kAvg:
        return acc.count == 0
                   ? Value{}
                   : Value{acc.sum / static_cast<double>(acc.count)};
      case AggregationType::kDistinctCount:
        return static_cast<int64_t>(acc.distinct.size());
    }
    return Value{};
  }

  // SUM/AVG over double values is order-sensitive; nothing else is.
  bool OrderSensitive(size_t i) const {
    const AggregationType type = query_.aggregations[i].type;
    return double_input_[i] &&
           (type == AggregationType::kSum || type == AggregationType::kAvg);
  }

  double Tolerance(size_t i, const Acc& acc) const {
    if (!OrderSensitive(i)) return 0;
    const double tolerance = 1e-9 * acc.magnitude;
    return query_.aggregations[i].type == AggregationType::kAvg
               ? tolerance / static_cast<double>(acc.count)
               : tolerance;
  }

  std::string CompareAgg(size_t i, const Acc& acc, const Value& actual,
                         bool exact) const {
    const Value expected = Finalize(i, acc);
    if (expected == actual) return "";
    const auto* e = std::get_if<double>(&expected);
    const auto* a = std::get_if<double>(&actual);
    if (!exact && e != nullptr && a != nullptr &&
        std::fabs(*e - *a) <= Tolerance(i, acc)) {
      return "";
    }
    return "expected " + RenderExact(expected) + ", got " +
           RenderExact(actual);
  }

  std::string CheckGroups(const QueryResult& actual, bool exact) const {
    struct Ranked {
      const std::vector<Value>* keys;
      const std::vector<Acc>* accs;
      double sort;
      mutable std::string encoded;  // Built on the first tie.
      const std::string& Encoded() const {
        if (encoded.empty()) encoded = EncodeGroupKey(*keys);
        return encoded;
      }
    };
    std::vector<Ranked> ranked;
    ranked.reserve(groups_.size());
    for (const auto& [keys, accs] : groups_) {
      ranked.push_back({&keys, &accs, ValueToDouble(Finalize(0, accs[0])), {}});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.sort != b.sort) return a.sort > b.sort;
                return a.Encoded() < b.Encoded();
              });
    const size_t want =
        std::min(ranked.size(), static_cast<size_t>(query_.top_n));
    if (actual.group_rows.size() != want) {
      return "expected " + std::to_string(want) + " group rows (of " +
             std::to_string(ranked.size()) + " groups), got " +
             std::to_string(actual.group_rows.size());
    }
    // A rank by an order-sensitive first aggregation is only defined up to
    // its tolerance; every other rank must match position by position.
    const bool loose_rank = !exact && OrderSensitive(0);
    std::set<std::vector<Value>> returned;
    double floor = std::numeric_limits<double>::infinity();
    double prev_high = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < want; ++r) {
      const QueryResult::GroupRow& row = actual.group_rows[r];
      auto where = [&] {
        return "group row " + std::to_string(r) + " " + RenderExact(row.keys);
      };
      const std::vector<Acc>* accs = ranked[r].accs;
      if (loose_rank) {
        auto it = groups_.find(row.keys);
        if (it == groups_.end()) return where() + ": no such group";
        if (!returned.insert(row.keys).second) return where() + ": repeated";
        accs = &it->second;
      } else if (row.keys != *ranked[r].keys) {
        return where() + ": expected group " + RenderExact(*ranked[r].keys);
      }
      if (row.values.size() != query_.aggregations.size()) {
        return where() + ": wrong value count";
      }
      for (size_t i = 0; i < row.values.size(); ++i) {
        const std::string diff =
            CompareAgg(i, (*accs)[i], row.values[i], exact);
        if (!diff.empty()) {
          return where() + " " + query_.aggregations[i].ToString() + ": " +
                 diff;
        }
      }
      if (!loose_rank) continue;
      const double sort = ValueToDouble(Finalize(0, (*accs)[0]));
      const double tolerance = Tolerance(0, (*accs)[0]);
      if (sort - tolerance > prev_high) return where() + ": out of rank order";
      prev_high = sort + tolerance;
      floor = std::min(floor, sort + tolerance);
    }
    if (!loose_rank) return "";
    for (size_t g = want; g < ranked.size(); ++g) {
      if (returned.count(*ranked[g].keys) > 0) continue;
      if (ranked[g].sort - Tolerance(0, (*ranked[g].accs)[0]) > floor) {
        return "group " + RenderExact(*ranked[g].keys) +
               " outranks a returned row but is missing";
      }
    }
    return "";
  }

  std::string CheckSelection(const QueryResult& actual) const {
    const size_t want =
        std::min(selected_.size(), static_cast<size_t>(query_.limit));
    if (actual.selection_rows.size() != want) {
      return "expected " + std::to_string(want) + " rows (of " +
             std::to_string(selected_.size()) + " matching), got " +
             std::to_string(actual.selection_rows.size());
    }
    if (!query_.order_by.empty()) {
      const std::optional<SelectionOrder> order =
          SelectionOrder::ForQuery(query_);
      if (!order.has_value()) return "ORDER BY column not selected";
      std::vector<std::vector<Value>> expected = selected_;
      std::sort(expected.begin(), expected.end(),
                [&order](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                  return order->Less(a, b);
                });
      for (size_t r = 0; r < want; ++r) {
        if (actual.selection_rows[r] != expected[r]) {
          return "row " + std::to_string(r) + " " +
                 RenderExact(actual.selection_rows[r]) + ", expected " +
                 RenderExact(expected[r]);
        }
      }
      return "";
    }
    std::map<std::vector<Value>, int> unused;
    for (const auto& row : selected_) ++unused[row];
    for (size_t r = 0; r < want; ++r) {
      auto it = unused.find(actual.selection_rows[r]);
      if (it == unused.end() || it->second == 0) {
        return "row " + std::to_string(r) + " " +
               RenderExact(actual.selection_rows[r]) +
               " is not a distinct matching row";
      }
      --it->second;
    }
    return "";
  }

  Query query_;
  std::vector<Acc> totals_;  // No group-by: one per aggregation.
  std::unordered_map<std::vector<Value>, std::vector<Acc>, GroupKeyHash>
      groups_;
  std::vector<std::vector<Value>> selected_;  // Projected matching rows.
  std::vector<bool> double_input_;  // Per aggregation: saw a double value.
};

/// Checks `actual` against the oracle over `rows` (in doc order).
inline std::string CheckAgainstRows(const Query& query,
                                    const std::vector<Row>& rows,
                                    const QueryResult& actual, bool exact) {
  RowOracle oracle(query);
  for (const Row& row : rows) oracle.Add(row);
  return oracle.Check(actual, exact);
}

}  // namespace test
}  // namespace pinot

#endif  // PINOT_TESTS_ROW_ORACLE_H_
