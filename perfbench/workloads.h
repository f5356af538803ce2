// The benchmark's three workloads: generated inputs, cluster set-up, and
// the query mixes. Every input derives from the run's --seed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/pinot_cluster.h"
#include "data/row.h"
#include "data/schema.h"
#include "harness.h"
#include "segment/segment.h"
#include "segment/segment_builder.h"

namespace perfbench {

/// splitmix64: derives independent generator seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Realtime flush threshold: part of the ingest workload's definition,
/// since the ingest rate falls faster than linearly as it grows.
inline constexpr int64_t kFlushThresholdRows = 20000;
/// Rows of one flush cycle of a 2-partition table: the partitions consume
/// side by side, so both seal and commit once per cycle.
inline constexpr int64_t kCycleRows = 2 * kFlushThresholdRows;
// One flush cycle of the probe table.
inline constexpr int64_t kProbeRows = kCycleRows;

/// Rows of one segment, handed over in chunks so a 1M-row table never sits
/// in memory as rows; generation happens between chunks, outside set-up
/// timing.
using RowSource = std::function<void(
    int segment, const std::function<void(const std::vector<pinot::Row>&)>&)>;

/// An offline table served by a small cluster (`lookup`, `scan`).
struct OfflineSpec {
  pinot::TableConfig table;
  pinot::SegmentBuildConfig build;  // Per-segment name filled at set-up.
  int num_servers = 2;
  int num_segments = 8;
  uint64_t num_rows = 0;
  RowSource rows;
  std::vector<BenchQuery> queries;
  int clients = 1;
  // Set-ups per end-to-end run, before and after the measured load;
  // setup_s is their median.
  int setups_before = 2;
  int setups_after = 1;
  // kProbeRows of the workload's rows for the standalone realtime probes.
  std::vector<pinot::Row> probe_rows;
};

OfflineSpec MakeLookupSpec(uint64_t seed);
OfflineSpec MakeScanSpec(uint64_t seed);

/// The segments one server is sent for a query, and the bench's own
/// copies of them. Across a table's shares every segment appears once: the
/// balanced split the broker makes.
struct ServerShare {
  int server = 0;
  std::vector<std::string> names;
  std::vector<std::shared_ptr<pinot::SegmentInterface>> own;
};

/// A set-up offline table, ready to serve.
struct OfflineTable {
  std::unique_ptr<pinot::PinotCluster> cluster;
  std::vector<double> setup_s;       // Cluster start to first servable query.
  // Rows per second of each set-up's segment pushes (build, serialize,
  // upload, server load).
  std::vector<double> push_rows_per_s;
  // Resident size once the first set-up serves, before the bench loads its
  // own copies of the segments.
  double resident_mb = 0;
  uint64_t stored_bytes = 0;         // Segment blob bytes.
  std::vector<double> load_ms;       // DeserializeFromBlob per segment.
  std::vector<ServerShare> shares;
};

/// Sets the table up `repeats` times (each from a fresh cluster, the
/// previous one torn down first) and keeps the last. Then loads the bench's
/// own copies of its segments from the cluster's object store and splits
/// them across the servers.
OfflineTable SetUpOffline(const OfflineSpec& spec, int repeats);

/// Sets the table up `repeats` more times, adding only the timings to
/// `table`. Runs after the measured load, so set-up samples span the run:
/// the host's CPU speed changes in spells of seconds.
void RepeatSetUp(const OfflineSpec& spec, int repeats, OfflineTable* table);

/// Fills each query's expected answer from the bench's own segment copies
/// (ExecuteQueryOnSegments + ReduceToFinalResult); equal query texts share
/// one computation.
void ComputeExpected(const std::vector<ServerShare>& shares,
                     std::vector<BenchQuery>* queries);

/// A realtime table on one server fed from a pre-filled 2-partition
/// stream (`ingest`, and the tick probe of the other workloads).
struct RealtimeSpec {
  pinot::TableConfig table;
  std::vector<pinot::Row> rows;  // Produced into the stream at set-up.
  int64_t sum_count = 0;         // Sum of the "count" column over rows.
  std::vector<BenchQuery> queries;
};

// Rows the ingest table consumes and commits before the measured load, with
// no query client: two flush cycles. Queries then start on a table with
// history, so their latency changes less over the run.
inline constexpr int64_t kHistoryRows = 2 * kCycleRows;
// Set-ups per end-to-end ingest run, before and after the measured load:
// each takes about a millisecond, so many are needed for a steady median.
inline constexpr int kIngestSetupsBefore = 20;
inline constexpr int kIngestSetupsAfter = 20;

/// Flush cycles the measured ingest load consumes: a fixed amount of work,
/// so every run indexes, seals and commits the same rows into a table of the
/// same final size, however fast the host runs. One cycle beside the query
/// client takes about 4 s (4 vCPU, gcc 12, RelWithDebInfo), so a run of
/// `seconds` gets about that many seconds of load.
int IngestCycles(double seconds);

/// The ingest stream holds the history, `cycles` measured flush cycles and
/// one more cycle of rows, so hash partitioning never leaves a partition
/// short of its last seal; the check after the drain counts them all.
RealtimeSpec MakeIngestSpec(uint64_t seed, int cycles);

/// A realtime table whose stream holds the spec's rows and whose consuming
/// segments are open; nothing has been consumed yet.
struct RealtimeTable {
  std::unique_ptr<pinot::PinotCluster> cluster;
  std::vector<double> setup_s;  // Cluster start to first servable query.
};

/// Sets the table up `repeats` times and keeps the last. Producing the rows
/// into the stream is input generation and stays outside set-up timing;
/// only the kept set-up gets them, moved in, so they are held once.
RealtimeTable SetUpRealtime(const pinot::TableConfig& table,
                            std::vector<pinot::Row> rows, int repeats);

/// Realtime config for `schema` with the benchmark's flush threshold.
pinot::TableConfig RealtimeTableConfig(const std::string& name,
                                       const pinot::Schema& schema,
                                       std::vector<std::string> inverted);

/// The ONLINE segments of a table, loaded from the cluster's object store:
/// the segments by name, their blob bytes, row count and load times.
struct StoredSegments {
  std::map<std::string, std::shared_ptr<pinot::SegmentInterface>> segments;
  uint64_t bytes = 0;
  uint64_t rows = 0;
  std::vector<double> load_ms;  // DeserializeFromBlob per segment.
};
StoredSegments LoadStored(pinot::PinotCluster* cluster,
                          const std::string& physical);

/// A fresh cluster configured as the benchmark runs them: shipped broker
/// and server defaults, no injected latency, one controller and broker.
std::unique_ptr<pinot::PinotCluster> MakeCluster(int num_servers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
