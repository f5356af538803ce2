// The traced run's depth ladder and the standalone layer probes. Every
// timing here comes from a call into one layer's public function, made
// from the benchmark's own code; nothing inside the program is changed.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/pinot_cluster.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// One server's request in the ladder's per-server depth.
using ServerRequests =
    std::function<std::vector<std::pair<int, std::vector<std::string>>>()>;

struct LadderInput {
  pinot::PinotCluster* cluster = nullptr;
  std::string physical;
  const std::vector<BenchQuery>* queries = nullptr;
  // Segment depths (filter, serial, pooled, reduce) run on these copies.
  std::vector<ServerShare> own;
  // Per-server depth: which segments each server is sent.
  ServerRequests server_requests;
  double seconds = 1;
  const std::atomic<bool>* stop = nullptr;
};

/// Per-query samples of every depth, in microseconds unless noted.
struct LadderSamples {
  std::vector<double> parse, filter, segment, pool, reduce;
  std::vector<double> server_exec, server_overhead;
  std::vector<double> broker_execute, broker_overhead;
  std::vector<pinot::QueryReceipt> receipts;
  double docs_scanned = 0;  // Sums over the sampled queries.
  double docs_matched = 0;
  double total_docs = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;  // Incomplete or wrong answers at any depth.
};

/// Sampled queries per ladder at most; keeps the span file small.
inline constexpr uint64_t kMaxLadderQueries = 4000;

/// Issues each sampled query at every depth in turn — parse, filter,
/// serial segments, pooled segments, reduce, per-server, broker — recording
/// one span per call, until `seconds` pass, `stop` is set or
/// kMaxLadderQueries were sampled.
LadderSamples RunLadder(const LadderInput& input, SpanLog* spans);

/// MutableSegment::Index of `rows` into a standalone segment, then Seal;
/// the median of three fills.
struct MutableProbe {
  double index_us_per_row = 0;
  double seal_ms = 0;
  // The last fill and its sealed copy, for the ingest ladder.
  std::shared_ptr<pinot::SegmentInterface> consuming;
  std::shared_ptr<pinot::SegmentInterface> sealed;
};
MutableProbe ProbeMutableSegment(const pinot::TableConfig& table,
                                 const std::vector<pinot::Row>& rows);

/// The build config a table's servers seal and build its segments with.
pinot::SegmentBuildConfig BuildConfigOf(const pinot::TableConfig& table,
                                        const std::string& segment);

/// SegmentBuilder AddRow + Build of `rows`, rows per second; the median of
/// three builds.
double ProbeSegmentBuild(const pinot::Schema& schema,
                         const pinot::SegmentBuildConfig& config,
                         const std::vector<pinot::Row>& rows);

/// MetricsRegistry::GetCounter on an existing labelled series, per call
/// (median over batches).
double ProbeMetricsLookupNs(pinot::MetricsRegistry* registry);

/// Every ProcessRealtimeTicks(1) call of a tick thread.
struct TickLog {
  std::vector<double> tick_us;
  std::vector<double> rows;
  int64_t indexed = 0;
  int64_t last_tick_end_ns = 0;
  SpanLog spans;
};

/// Ticks until `target` rows were indexed or the stream runs dry (two ticks
/// in a row index nothing). Then sets `done`.
void DriveTicks(pinot::PinotCluster* cluster, int64_t target,
                std::atomic<bool>* done, TickLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
