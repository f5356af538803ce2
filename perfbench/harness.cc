#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>

#include "query/parser.h"

namespace perfbench {

using pinot::QueryResult;
using pinot::Value;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Check(const pinot::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

double ResidentMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

const char* ClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kMetadataCount:
      return "metadata_count";
    case QueryClass::kSortedLeaf:
      return "sorted_leaf";
    case QueryClass::kInvertedLeaf:
      return "inverted_leaf";
    case QueryClass::kScanLeaf:
      return "scan_leaf";
    case QueryClass::kGroupByLow:
      return "groupby_low";
    case QueryClass::kGroupByHigh:
      return "groupby_high";
    case QueryClass::kSelectionOrderBy:
      return "selection_orderby";
    case QueryClass::kDistinctCount:
      return "distinctcount";
  }
  return "unknown";
}

BenchQuery MakeQuery(std::string pql, QueryClass cls) {
  auto parsed = pinot::ParsePql(pql);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: bad generated query %s: %s\n",
                 pql.c_str(), parsed.status().ToString().c_str());
    std::exit(1);
  }
  BenchQuery query;
  query.pql = std::move(pql);
  query.cls = cls;
  query.parsed = std::move(*parsed);
  return query;
}

namespace {

bool SameValue(const Value& got, const Value& want) {
  const bool got_numeric = std::holds_alternative<int64_t>(got) ||
                           std::holds_alternative<double>(got);
  const bool want_numeric = std::holds_alternative<int64_t>(want) ||
                            std::holds_alternative<double>(want);
  if (got_numeric && want_numeric) {
    const double a = pinot::ValueToDouble(got);
    const double b = pinot::ValueToDouble(want);
    return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a),
                                                std::fabs(b)});
  }
  return got == want;
}

bool SameValues(const std::vector<Value>& got, const std::vector<Value>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameValue(got[i], want[i])) return false;
  }
  return true;
}

}  // namespace

bool SameAnswer(const QueryResult& got, const QueryResult& want,
                std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (!SameValues(got.aggregates, want.aggregates)) {
    return fail("aggregates differ");
  }
  if (got.group_rows.size() != want.group_rows.size()) {
    return fail("group count " + std::to_string(got.group_rows.size()) +
                " != " + std::to_string(want.group_rows.size()));
  }
  for (size_t i = 0; i < got.group_rows.size(); ++i) {
    if (!SameValues(got.group_rows[i].keys, want.group_rows[i].keys) ||
        !SameValues(got.group_rows[i].values, want.group_rows[i].values)) {
      return fail("group row " + std::to_string(i) + " differs");
    }
  }
  if (got.selection_rows.size() != want.selection_rows.size()) {
    return fail("selection row count differs");
  }
  for (size_t i = 0; i < got.selection_rows.size(); ++i) {
    if (!SameValues(got.selection_rows[i], want.selection_rows[i])) {
      return fail("selection row " + std::to_string(i) + " differs");
    }
  }
  return true;
}

bool Complete(const QueryResult& result) {
  return !result.partial && !result.throttled && result.error_message.empty();
}

int64_t FirstAggregate(const QueryResult& result) {
  if (result.aggregates.empty()) return -1;
  return static_cast<int64_t>(pinot::ValueToDouble(result.aggregates[0]));
}

LoadStats RunClosedLoop(
    int clients, double seconds, const std::atomic<bool>* stop,
    const std::function<bool(int, uint64_t, QueryResult*)>& one_query,
    bool keep_receipts) {
  const int64_t start = NowNanos();
  const int64_t deadline =
      seconds > 0 ? start + static_cast<int64_t>(seconds * 1e9)
                  : std::numeric_limits<int64_t>::max();
  std::vector<LoadStats> per_client(clients);
  std::vector<int64_t> last_end(clients, start);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& stats = per_client[c];
      for (uint64_t i = 0;; ++i) {
        if (NowNanos() >= deadline) break;
        if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
        QueryResult result;
        const int64_t sent = NowNanos();
        const bool ok = one_query(c, i, &result);
        last_end[c] = NowNanos();
        stats.latencies_us.push_back((last_end[c] - sent) / 1000.0);
        ++stats.attempted;
        if (!ok) ++stats.failed;
        if (keep_receipts) stats.receipts.push_back(result.receipt);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  LoadStats total;
  total.start_ns = start;
  for (int c = 0; c < clients; ++c) {
    LoadStats& stats = per_client[c];
    total.latencies_us.insert(total.latencies_us.end(),
                              stats.latencies_us.begin(),
                              stats.latencies_us.end());
    total.receipts.insert(total.receipts.end(), stats.receipts.begin(),
                          stats.receipts.end());
    total.attempted += stats.attempted;
    total.failed += stats.failed;
  }
  total.end_ns = *std::max_element(last_end.begin(), last_end.end());
  return total;
}

LoadFigures Summarize(const LoadStats& load) {
  LoadFigures figures;
  figures.p50_us = Median(load.latencies_us);
  figures.p99_us = Percentile(load.latencies_us, 99);
  const double elapsed_s =
      std::max<int64_t>(1, load.end_ns - load.start_ns) / 1e9;
  figures.qps = static_cast<double>(load.latencies_us.size()) / elapsed_s;
  return figures;
}

int SpanLog::Open(std::string name, int parent, int64_t qid, std::string cls) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.qid = qid;
  span.cls = std::move(cls);
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Append(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

bool SpanLog::Write(const std::string& path, int64_t epoch_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %d, \"qid\": %lld, \"class\": "
                 "\"%s\", \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f",
                 i, span.parent, static_cast<long long>(span.qid),
                 span.cls.c_str(), span.name.c_str(),
                 (span.start_ns - epoch_ns) / 1000.0,
                 (span.end_ns - epoch_ns) / 1000.0);
    for (const auto& [key, value] : span.counts) {
      std::fprintf(out, ", \"%s\": %lld", key.c_str(),
                   static_cast<long long>(value));
    }
    std::fprintf(out, "}\n");
  }
  return std::fclose(out) == 0;
}

std::map<std::pair<std::string, std::string>, std::pair<double, size_t>>
SpanLog::SelfTimeByClass() const {
  std::vector<double> child_micros(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_micros[span.parent] += span.micros();
  }
  std::map<std::pair<std::string, std::string>, std::vector<double>> samples;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0 || spans_[span.parent].parent >= 0) continue;
    samples[{span.cls, span.name}].push_back(span.micros() - child_micros[i]);
  }
  std::map<std::pair<std::string, std::string>, std::pair<double, size_t>> out;
  for (auto& [key, values] : samples) {
    const size_t n = values.size();
    out[key] = {Median(std::move(values)), n};
  }
  return out;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

namespace {

std::string FormatNumber(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  std::printf("# failed_frac %.6f (%llu of %llu answers partial, errored, "
              "throttled or wrong)\n",
              static_cast<double>(failed) / std::max<uint64_t>(1, attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, value_unit] : metrics_) {
    std::printf("%-32s %14s %s\n", name.c_str(),
                FormatNumber(value_unit.first).c_str(),
                value_unit.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].first + "\": {\"value\": " +
            FormatNumber(metrics_[i].second.first) + ", \"unit\": \"" +
            metrics_[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string EnvironmentLine() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=\"" + compiler + "\" build=" + PERFBENCH_BUILD_TYPE;
}

}  // namespace perfbench
