#ifndef PINOT_CLUSTER_SERVER_H_
#define PINOT_CLUSTER_SERVER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster_context.h"
#include "cluster/cluster_manager.h"
#include "cluster/table_config.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "metrics/metrics.h"
#include "realtime/mutable_segment.h"
#include "realtime/upsert_meta.h"
#include "segment/segment.h"
#include "stream/stream.h"
#include "tenant/token_bucket.h"

namespace pinot {

/// A Pinot server (paper section 3.2): hosts segments, executes queries on
/// them, consumes realtime data from the stream, and reacts to Helix state
/// transitions (Figure 4: fetch from the object store, unpack, load, serve).
/// Local segment state is a pure cache of the object store, so a dead
/// server can be replaced by a blank one (section 3.4).
class Server : public StateTransitionHandler, public QueryServerApi {
 public:
  struct Options {
    std::string tenant_tag = "DefaultTenant";
    int num_query_threads = 4;
    // Fixed extra latency added to every query execution, used by the
    // QPS benches to model network + scheduling delay of a real host.
    int64_t artificial_latency_micros = 0;
    // Messages fetched from the stream per consuming segment per tick.
    int max_fetch_batch = 1000;
    // Server-side group-by trimming (production Pinot's scatter-payload
    // bound): before a group-by result ships to the broker it is trimmed
    // to max(top_n * groupby_trim_factor, groupby_trim_min) groups in the
    // broker's final order. The over-fetch keeps per-server local ranks
    // covering the global top-N under skewed data; set factor/min high (or
    // min to SIZE_MAX) to effectively disable trimming.
    size_t groupby_trim_factor = 5;
    size_t groupby_trim_min = 5000;
  };

  Server(std::string id, ClusterContext ctx, Options options);
  Server(std::string id, ClusterContext ctx);
  ~Server() override;

  /// Registers the instance (tags: "server" + tenant tag).
  void Start();

  const std::string& id() const { return id_; }
  TenantQuotaManager* quota_manager() { return &quota_; }

  // --- QueryServerApi --------------------------------------------------------

  /// Executes a scatter request: admission through the tenant's token
  /// bucket, per-segment physical planning, parallel execution, combine.
  PartialResult ExecuteServerQuery(const ServerQueryRequest& request) override;

  // --- StateTransitionHandler -----------------------------------------------

  Status OnSegmentStateTransition(const std::string& table,
                                  const std::string& segment,
                                  SegmentState from, SegmentState to) override;
  Status OnUserMessage(const std::string& type,
                       const std::string& payload) override;

  // --- Realtime ingestion -----------------------------------------------------

  /// Drives every consuming segment one step: fetch + index a batch, and
  /// when the end criteria is reached run the completion protocol against
  /// the leader controller. Returns the number of rows indexed.
  int ProcessRealtimeTick();

  // --- Introspection ----------------------------------------------------------

  std::vector<std::string> HostedSegments(const std::string& table) const;
  uint64_t HostedDataBytes() const;

  /// Upsert introspection: the current invalid-docs snapshot of a hosted
  /// segment (null when the segment is absent, not upsert, or all-valid),
  /// and the number of dead rows it holds. The compaction scheduler and
  /// tests read these.
  std::shared_ptr<const RoaringBitmap> UpsertInvalidDocs(
      const std::string& table, const std::string& segment) const;
  uint64_t UpsertDeadRows(const std::string& table,
                          const std::string& segment) const;
  /// The table's upsert state (null for non-upsert tables); test-only.
  std::shared_ptr<UpsertTableState> upsert_state(
      const std::string& table) const;
  void set_artificial_latency_micros(int64_t micros) {
    options_.artificial_latency_micros = micros;
  }

  // --- Fault injection --------------------------------------------------------
  // Deterministic failure knobs for resilience tests: faults are consumed
  // in order (fail, then delay, then drop) before any real query work.

  /// Fails the next `n` scatter requests with Unavailable, as a server
  /// crashing mid-request looks to the broker.
  void InjectQueryFailures(int n);
  /// Delays the next `n` scatter requests by `millis` before executing.
  void InjectQueryDelay(int n, int64_t millis);
  /// Drops `fraction` [0,1] of scatter requests: the response is withheld
  /// past the request deadline, so the broker observes a timeout.
  void SetQueryDropFraction(double fraction);

 private:
  // One replica of a consuming segment (paper section 3.3.6).
  struct ConsumingState {
    std::shared_ptr<MutableSegment> segment;
    StreamTopic* topic = nullptr;
    int partition = -1;
    int64_t offset = 0;
    int64_t flush_threshold_rows = 0;
    int64_t flush_threshold_millis = 0;
    int64_t consumption_start_millis = 0;
    int64_t catchup_target = -1;       // CATCHUP instruction target.
    bool awaiting_completion = false;  // End criteria reached.
    std::shared_ptr<ImmutableSegment> sealed;  // Local commit candidate.
    SegmentBuildConfig seal_config;
    // Non-null for upsert tables: the key map this segment commits into.
    std::shared_ptr<UpsertTableState> upsert;
  };

  Result<TableConfig> LoadTableConfig(const std::string& physical_table) const;
  std::shared_ptr<UpsertTableState> GetOrCreateUpsertState(
      const std::string& table, const TableConfig& config);
  Status LoadOnlineSegment(const std::string& table,
                           const std::string& segment);
  Status StartConsuming(const std::string& table, const std::string& segment);
  Status PromoteConsuming(const std::string& table,
                          const std::string& segment);
  // Drives one consuming segment; returns rows indexed.
  int TickConsuming(const std::string& table, const std::string& segment,
                    ConsumingState* state);

  const std::string id_;
  ClusterContext ctx_;
  Options options_;
  MetricsRegistry* metrics_;
  ThreadPool pool_;
  TenantQuotaManager quota_;

  // Fault-injection state; separate lock so faults never interact with the
  // segment/ingestion mutex.
  mutable std::mutex fault_mutex_;
  int fault_fail_requests_ = 0;
  int fault_delay_requests_ = 0;
  int64_t fault_delay_millis_ = 0;
  double fault_drop_fraction_ = 0;
  Random fault_rng_{0x5eed};

  mutable std::mutex mutex_;
  // table -> segment -> queryable view.
  std::map<std::string, std::map<std::string, std::shared_ptr<SegmentInterface>>>
      segments_;
  // table -> segment -> consuming replica state.
  std::map<std::string, std::map<std::string, ConsumingState>> consuming_;
  // table -> upsert key map + validity registry. Entries are created when
  // the first consuming/online segment of an upsert table arrives and live
  // for the server's lifetime. Lock order: UpsertTableState's internal
  // mutex may be held while taking mutex_ (BindLoadedSegment's publish
  // closure), never the reverse.
  std::map<std::string, std::shared_ptr<UpsertTableState>> upsert_;
};

}  // namespace pinot

#endif  // PINOT_CLUSTER_SERVER_H_
