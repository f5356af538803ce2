#include "cluster/server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "cluster/object_store.h"
#include "cluster/property_store.h"
#include "common/logging.h"
#include "query/table_executor.h"
#include "stream/stream.h"

namespace pinot {

Server::Server(std::string id, ClusterContext ctx, Options options)
    : id_(std::move(id)),
      ctx_(std::move(ctx)),
      options_(options),
      metrics_(ctx_.metrics != nullptr ? ctx_.metrics
                                       : MetricsRegistry::Default()),
      pool_(options.num_query_threads),
      quota_(ctx_.clock, metrics_) {}

Server::Server(std::string id, ClusterContext ctx)
    : Server(std::move(id), std::move(ctx), Options()) {}

Server::~Server() = default;

void Server::Start() {
  ctx_.cluster->RegisterInstance(id_, {"server", options_.tenant_tag}, this);
}

Result<TableConfig> Server::LoadTableConfig(
    const std::string& physical_table) const {
  PINOT_ASSIGN_OR_RETURN(
      std::string encoded,
      ctx_.property_store->Get(zkpaths::TableConfigPath(physical_table)));
  ByteReader reader(encoded);
  return TableConfig::Deserialize(&reader);
}

void Server::InjectQueryFailures(int n) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_fail_requests_ = n;
}

void Server::InjectQueryDelay(int n, int64_t millis) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_delay_requests_ = n;
  fault_delay_millis_ = millis;
}

void Server::SetQueryDropFraction(double fraction) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_drop_fraction_ = fraction;
}

PartialResult Server::ExecuteServerQuery(const ServerQueryRequest& request) {
  PartialResult result;
  const auto start = std::chrono::steady_clock::now();
  // Per-request span (TRACE/EXPLAIN only): covers injected delay, tenant
  // admission (queue time), and execution; rides back to the broker on
  // result.spans. Untraced queries never touch the span.
  const bool tracing = request.query.trace || request.query.explain;
  TraceSpan server_span;
  if (tracing) server_span = TraceSpan::Open("server:" + id_);

  // Injected faults are consumed before any real work so the broker's
  // failover path can be driven deterministically.
  {
    bool fail = false;
    bool drop = false;
    int64_t delay_millis = 0;
    {
      std::lock_guard<std::mutex> lock(fault_mutex_);
      if (fault_fail_requests_ > 0) {
        --fault_fail_requests_;
        fail = true;
      } else if (fault_delay_requests_ > 0) {
        --fault_delay_requests_;
        delay_millis = fault_delay_millis_;
      } else if (fault_drop_fraction_ > 0 &&
                 fault_rng_.NextDouble() < fault_drop_fraction_) {
        drop = true;
      }
    }
    if (fail) {
      metrics_->GetCounter("server_injected_faults_total",
                           {{"instance", id_}, {"kind", "fail"}})
          ->Increment();
      result.status = Status::Unavailable("injected failure on " + id_);
      return result;
    }
    if (drop) {
      // A dropped response only manifests at the caller as a deadline
      // expiry; sleep past the request deadline before answering.
      metrics_->GetCounter("server_injected_faults_total",
                           {{"instance", id_}, {"kind", "drop"}})
          ->Increment();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(request.timeout_millis + 50));
      result.status = Status::Timeout("injected drop on " + id_);
      return result;
    }
    if (delay_millis > 0) {
      metrics_->GetCounter("server_injected_faults_total",
                           {{"instance", id_}, {"kind", "delay"}})
          ->Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_millis));
    }
  }

  // A request whose deadline already passed (e.g. it sat behind an injected
  // delay, or the broker's budget was nearly gone at submit) must not
  // execute: the broker has abandoned it, so any work done now is wasted
  // cycles taken from queries that can still answer in time.
  const auto request_deadline =
      start + std::chrono::milliseconds(request.timeout_millis);
  auto deadline_expired = [&](const char* where) {
    if (std::chrono::steady_clock::now() < request_deadline) return false;
    metrics_->GetCounter("server_deadline_exceeded_total",
                         {{"instance", id_}})
        ->Increment();
    result.status = Status::Timeout("request deadline expired " + std::string(where) +
                                    " on " + id_);
    return true;
  };
  if (deadline_expired("before admission")) return result;

  // Tenant admission (paper section 4.5): queries for an exhausted tenant
  // queue until tokens accrue or the request deadline passes. The wait is
  // the request's queue time.
  const auto admit_start = std::chrono::steady_clock::now();
  Status admitted = quota_.AdmitQuery(request.tenant, request.timeout_millis);
  const int64_t queue_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - admit_start)
          .count();
  metrics_->GetHistogram("server_query_queue_ms", {{"instance", id_}})
      ->Observe(queue_micros / 1000.0);
  if (!admitted.ok()) {
    result.status = admitted;
    return result;
  }
  // The quota queue bounds its own wait by the request timeout, but that
  // budget does not account for time already spent before admission.
  if (deadline_expired("in admission queue")) return result;

  if (options_.artificial_latency_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.artificial_latency_micros));
  }

  std::vector<std::shared_ptr<SegmentInterface>> to_query;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto table_it = segments_.find(request.physical_table);
    if (table_it == segments_.end()) {
      result.status =
          Status::NotFound("server hosts no segments of table " +
                           request.physical_table);
      return result;
    }
    for (const auto& segment : request.segments) {
      auto it = table_it->second.find(segment);
      if (it == table_it->second.end()) {
        // Routing raced a segment move; report partial data.
        result.status = Status::NotFound("segment not hosted: " + segment);
        continue;
      }
      to_query.push_back(it->second);
    }
  }

  // Consuming segments are mutated by the ingestion tick; take their reader
  // locks for the whole execution so the single writer is excluded while
  // concurrent queries proceed. Locks are acquired in a global (address)
  // order: multi-lock acquirers can then never deadlock against each other
  // or the single-lock writer.
  std::vector<MutableSegment*> mutable_segments;
  for (const auto& segment : to_query) {
    if (auto* mutable_segment = dynamic_cast<MutableSegment*>(segment.get())) {
      mutable_segments.push_back(mutable_segment);
    }
  }
  std::sort(mutable_segments.begin(), mutable_segments.end());
  mutable_segments.erase(
      std::unique(mutable_segments.begin(), mutable_segments.end()),
      mutable_segments.end());
  std::vector<std::shared_lock<std::shared_mutex>> read_locks;
  read_locks.reserve(mutable_segments.size());
  for (MutableSegment* mutable_segment : mutable_segments) {
    read_locks.push_back(mutable_segment->AcquireReadLock());
  }

  // Server-side TOP/LIMIT trim inside the combine: ship the over-fetched
  // top-N groups instead of the full group table (paper section 4: scatter
  // payloads stay bounded at million-group cardinalities); selections ship
  // at most LIMIT rows.
  const size_t group_keep =
      std::max(static_cast<size_t>(request.query.top_n) *
                   options_.groupby_trim_factor,
               options_.groupby_trim_min);
  const auto exec_start = std::chrono::steady_clock::now();
  PartialResult executed =
      ExecuteQueryOnSegments(to_query, request.query, &pool_,
                             tracing ? &server_span : nullptr, group_keep);
  executed.status = result.status.ok() ? executed.status : result.status;
  result = std::move(executed);
  read_locks.clear();
  const size_t groups_before_trim = result.receipt.groups;
  const size_t trimmed_groups = result.receipt.trimmed;

  const double execution_millis =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1000.0;
  // Charge execution time to the tenant's bucket (section 4.5).
  quota_.RecordExecution(request.tenant, execution_millis);

  // Receipt: queue wait, group counts, shipped payload, and an estimate of
  // the column bytes decoded (4-byte dict ids per referenced column).
  result.receipt.queue_micros += queue_micros;
  size_t referenced_columns = request.query.group_by.size();
  for (const auto& spec : request.query.aggregations) {
    if (!spec.column.empty()) ++referenced_columns;
  }
  if (!request.query.IsAggregation()) {
    referenced_columns += std::max<size_t>(
        1, request.query.selection_columns.size());
  }
  const uint64_t scan_bytes =
      result.stats.docs_scanned * 4 *
      std::max<size_t>(1, referenced_columns);
  result.receipt.scan_bytes += scan_bytes;
  uint64_t payload_bytes =
      result.groups.ApproxPayloadBytes() +
      result.aggregates.size() * sizeof(AggState);
  for (const auto& row : result.selection_rows) {
    payload_bytes += row.size() * sizeof(Value);
    for (const auto& v : row) {
      if (const auto* s = std::get_if<std::string>(&v)) {
        payload_bytes += s->size();
      }
    }
  }
  result.receipt.payload_bytes += payload_bytes;

  if (tracing) {
    server_span.Annotate("queue_micros", queue_micros);
    server_span.Annotate(
        "exec_micros",
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_start)
            .count());
    if (groups_before_trim > 0) {
      server_span.Label("groupby_groups", std::to_string(groups_before_trim));
      server_span.Label("trimmed", std::to_string(trimmed_groups));
    }
    server_span.Close();
    result.spans.push_back(std::move(server_span));
  }

  const MetricLabels instance_labels = {{"instance", id_}};
  // Per-table rollups alongside the per-instance series, so cost is
  // attributable to tables as well as machines (labels use the logical
  // table: OFFLINE + REALTIME halves of a hybrid table roll up together).
  const MetricLabels table_labels = {
      {"table", LogicalTableName(request.physical_table)}};
  metrics_->GetCounter("server_queries_total", instance_labels)->Increment();
  metrics_->GetCounter("server_queries_total", table_labels)->Increment();
  metrics_->GetCounter("server_segments_queried_total", instance_labels)
      ->Increment(result.stats.segments_queried);
  metrics_->GetCounter("server_segments_queried_total", table_labels)
      ->Increment(result.stats.segments_queried);
  metrics_->GetCounter("server_docs_scanned_total", instance_labels)
      ->Increment(result.stats.docs_scanned);
  metrics_->GetCounter("server_docs_scanned_total", table_labels)
      ->Increment(result.stats.docs_scanned);
  metrics_->GetCounter("server_scan_bytes_total", instance_labels)
      ->Increment(scan_bytes);
  metrics_->GetCounter("server_scan_bytes_total", table_labels)
      ->Increment(scan_bytes);
  metrics_->GetHistogram("server_query_execution_ms", instance_labels)
      ->Observe(execution_millis);
  metrics_->GetHistogram("server_query_execution_ms", table_labels)
      ->Observe(execution_millis);
  if (groups_before_trim > 0) {
    metrics_->GetHistogram("server_groupby_groups", instance_labels)
        ->Observe(static_cast<double>(groups_before_trim));
  }
  metrics_->GetCounter("server_trimmed_rows_total", instance_labels)
      ->Increment(trimmed_groups);
  return result;
}

std::shared_ptr<UpsertTableState> Server::GetOrCreateUpsertState(
    const std::string& table, const TableConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& state = upsert_[table];
  if (state == nullptr) {
    state = std::make_shared<UpsertTableState>(
        table, config.upsert_key_columns, metrics_);
  }
  return state;
}

Status Server::LoadOnlineSegment(const std::string& table,
                                 const std::string& segment) {
  PINOT_ASSIGN_OR_RETURN(
      std::string blob,
      ctx_.object_store->Get(zkpaths::SegmentBlobKey(table, segment)));
  PINOT_ASSIGN_OR_RETURN(std::shared_ptr<ImmutableSegment> loaded,
                         ImmutableSegment::DeserializeFromBlob(blob));
  const MetricLabels labels = {{"instance", id_}};
  metrics_->GetCounter("server_segments_loaded_total", labels)->Increment();
  metrics_->GetCounter("server_segment_bytes_loaded_total", labels)
      ->Increment(blob.size());
  auto config = LoadTableConfig(table);
  if (config.ok() && config->upsert_enabled) {
    // Upsert reload (compaction swap / replica download): docids may be
    // renumbered, so rebuild validity from key ownership. The tracker
    // registry swap and the serving-map publish happen inside one
    // UpsertTableState critical section, so ingest can never invalidate
    // into the new tracker while a query still pairs the old instance
    // with it (see BindLoadedSegment).
    std::shared_ptr<UpsertTableState> ups =
        GetOrCreateUpsertState(table, *config);
    auto tracker = std::make_shared<ValidDocsTracker>();
    loaded->SetValidDocs(tracker);
    return ups->BindLoadedSegment(*loaded, std::move(tracker), [&] {
      std::lock_guard<std::mutex> lock(mutex_);
      segments_[table][segment] = loaded;
    });
  }
  std::lock_guard<std::mutex> lock(mutex_);
  segments_[table][segment] = std::move(loaded);
  return Status::OK();
}

Status Server::StartConsuming(const std::string& table,
                              const std::string& segment) {
  PINOT_ASSIGN_OR_RETURN(TableConfig config, LoadTableConfig(table));
  PINOT_ASSIGN_OR_RETURN(
      std::string encoded,
      ctx_.property_store->Get(zkpaths::SegmentMetadataPath(table, segment)));
  PINOT_ASSIGN_OR_RETURN(SegmentZkMetadata meta,
                         SegmentZkMetadata::Decode(encoded));
  StreamTopic* topic = ctx_.streams->GetTopic(config.realtime.topic);
  if (topic == nullptr) {
    return Status::NotFound("no such topic: " + config.realtime.topic);
  }

  ConsumingState state;
  state.segment = std::make_shared<MutableSegment>(config.schema, table,
                                                   segment, ctx_.clock);
  state.topic = topic;
  state.partition = meta.partition;
  state.offset = meta.start_offset;
  state.flush_threshold_rows = config.realtime.flush_threshold_rows;
  state.flush_threshold_millis = config.realtime.flush_threshold_millis;
  state.consumption_start_millis = ctx_.clock->NowMillis();
  state.seal_config.table_name = table;
  state.seal_config.segment_name = segment;
  state.seal_config.sort_columns = config.sort_columns;
  state.seal_config.inverted_index_columns = config.inverted_index_columns;
  state.seal_config.star_tree = config.star_tree;
  if (!config.partition_column.empty()) {
    state.seal_config.partition_id = meta.partition;
    state.seal_config.partition_column = config.partition_column;
    state.seal_config.num_partitions = config.num_partitions;
  }
  if (config.upsert_enabled) {
    state.upsert = GetOrCreateUpsertState(table, config);
    // The consuming segment and its sealed promotion share one validity
    // tracker, which requires sealing to preserve docids: no sort re-order
    // and no star-tree (star-tree plans are refused on upsert anyway).
    state.segment->SetValidDocs(state.upsert->TrackerFor(segment));
    state.seal_config.sort_columns.clear();
    state.seal_config.star_tree = {};
  }

  std::lock_guard<std::mutex> lock(mutex_);
  segments_[table][segment] = state.segment;
  consuming_[table][segment] = std::move(state);
  return Status::OK();
}

Status Server::PromoteConsuming(const std::string& table,
                                const std::string& segment) {
  // CONSUMING -> ONLINE: use the local sealed copy when the completion
  // protocol told us to KEEP/COMMIT it; otherwise fetch the authoritative
  // copy (DISCARD path).
  std::shared_ptr<ImmutableSegment> sealed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto table_it = consuming_.find(table);
    if (table_it != consuming_.end()) {
      auto it = table_it->second.find(segment);
      if (it != table_it->second.end()) {
        sealed = it->second.sealed;
        table_it->second.erase(it);
      }
    }
  }
  if (sealed != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    segments_[table][segment] = std::move(sealed);
    return Status::OK();
  }
  return LoadOnlineSegment(table, segment);
}

Status Server::OnSegmentStateTransition(const std::string& table,
                                        const std::string& segment,
                                        SegmentState from, SegmentState to) {
  switch (to) {
    case SegmentState::kOnline:
      if (from == SegmentState::kConsuming) {
        return PromoteConsuming(table, segment);
      }
      return LoadOnlineSegment(table, segment);
    case SegmentState::kConsuming:
      return StartConsuming(table, segment);
    case SegmentState::kOffline:
    case SegmentState::kDropped: {
      std::lock_guard<std::mutex> lock(mutex_);
      auto table_it = segments_.find(table);
      if (table_it != segments_.end()) {
        table_it->second.erase(segment);
        if (table_it->second.empty()) segments_.erase(table_it);
      }
      auto consuming_it = consuming_.find(table);
      if (consuming_it != consuming_.end()) {
        consuming_it->second.erase(segment);
        if (consuming_it->second.empty()) consuming_.erase(consuming_it);
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("bad transition target");
}

Status Server::OnUserMessage(const std::string& type,
                             const std::string& payload) {
  if (type == "reload_table") {
    // Live schema addition (section 5.2): default-fill new columns on all
    // hosted immutable segments of the table.
    const std::string& table = payload;
    auto config = LoadTableConfig(table);
    if (!config.ok()) return config.status();
    std::lock_guard<std::mutex> lock(mutex_);
    auto table_it = segments_.find(table);
    if (table_it == segments_.end()) return Status::OK();
    for (auto& [segment_name, segment] : table_it->second) {
      auto immutable = std::dynamic_pointer_cast<ImmutableSegment>(segment);
      if (immutable == nullptr) continue;  // Consuming segments pick the
                                           // schema up at their next seal.
      for (const auto& field : config->schema.fields()) {
        if (immutable->GetColumn(field.name) == nullptr) {
          PINOT_RETURN_NOT_OK(immutable->AddDefaultColumn(field));
        }
      }
    }
    return Status::OK();
  }
  if (type == "create_inverted_index") {
    const size_t newline = payload.find('\n');
    if (newline == std::string::npos) {
      return Status::InvalidArgument("bad create_inverted_index payload");
    }
    const std::string table = payload.substr(0, newline);
    const std::string column = payload.substr(newline + 1);
    std::lock_guard<std::mutex> lock(mutex_);
    auto table_it = segments_.find(table);
    if (table_it == segments_.end()) return Status::OK();
    for (auto& [segment_name, segment] : table_it->second) {
      auto immutable = std::dynamic_pointer_cast<ImmutableSegment>(segment);
      if (immutable == nullptr) continue;
      PINOT_RETURN_NOT_OK(immutable->CreateInvertedIndex(column));
    }
    return Status::OK();
  }
  return Status::NotImplemented("unknown message type: " + type);
}

int Server::TickConsuming(const std::string& table,
                          const std::string& segment, ConsumingState* state) {
  int indexed = 0;
  // End criteria: configured row count or consumption time (section
  // 3.3.6), or an explicit CATCHUP target from the controller.
  auto reached_end = [&]() {
    if (state->catchup_target >= 0) return state->offset >= state->catchup_target;
    if (state->segment->num_docs() >=
        static_cast<uint32_t>(state->flush_threshold_rows)) {
      return true;
    }
    return ctx_.clock->NowMillis() - state->consumption_start_millis >=
           state->flush_threshold_millis;
  };

  while (!reached_end() && indexed < options_.max_fetch_batch) {
    int64_t limit = options_.max_fetch_batch - indexed;
    if (state->catchup_target >= 0) {
      limit = std::min<int64_t>(limit, state->catchup_target - state->offset);
    }
    if (limit <= 0) break;
    auto batch = state->topic->Fetch(state->partition, state->offset,
                                     static_cast<int>(limit));
    if (!batch.ok()) {
      if (batch.status().code() == StatusCode::kOutOfRange) {
        // The consumer fell behind the stream's retention horizon; jump to
        // the earliest retained offset (events in between are lost, as
        // they would be with Kafka).
        const int64_t earliest =
            state->topic->EarliestOffset(state->partition);
        PINOT_LOG_WARN << id_ << " fell behind retention on " << segment
                       << "; resetting offset " << state->offset << " -> "
                       << earliest;
        state->offset = earliest;
        continue;
      }
      PINOT_LOG_ERROR << id_ << " fetch failed for " << segment << ": "
                      << batch.status().ToString();
      break;
    }
    if (batch->empty()) break;  // Caught up with the stream.
    for (const auto& message : *batch) {
      Status st = state->upsert != nullptr
                      ? state->segment->IndexUpsert(message.row,
                                                    state->upsert.get())
                      : state->segment->Index(message.row);
      if (!st.ok()) {
        PINOT_LOG_WARN << id_ << " failed to index event: " << st.ToString();
      }
      state->offset = message.offset + 1;
      ++indexed;
      if (reached_end()) break;
    }
  }

  const MetricLabels table_labels = {{"table", table}};
  if (indexed > 0) {
    metrics_->GetCounter("realtime_rows_indexed_total", table_labels)
        ->Increment(indexed);
  }
  // Consumption lag vs the stream head, per partition so the series
  // survives segment rollover.
  metrics_
      ->GetGauge("realtime_consumption_lag",
                 {{"table", table},
                  {"partition", std::to_string(state->partition)}})
      ->Set(static_cast<double>(std::max<int64_t>(
          0, state->topic->LatestOffset(state->partition) - state->offset)));

  // Seal ("flush") with count + duration accounting, shared by the KEEP
  // and COMMIT paths.
  auto timed_seal = [&]() {
    const auto seal_start = std::chrono::steady_clock::now();
    auto sealed = state->segment->Seal(state->seal_config);
    if (sealed.ok() && state->upsert != nullptr) {
      // Sealing replays rows in doc order (sorting disabled for upsert),
      // so the consuming segment's tracker stays valid for the sealed copy
      // and the key map keeps pointing at the same (segment, doc) pairs.
      (*sealed)->SetValidDocs(state->segment->valid_docs_ptr());
    }
    const double seal_millis =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - seal_start)
            .count() /
        1000.0;
    metrics_->GetCounter("realtime_flush_total", table_labels)->Increment();
    metrics_->GetHistogram("realtime_flush_duration_ms", table_labels)
        ->Observe(seal_millis);
    return sealed;
  };

  if (!reached_end()) return indexed;

  // End criteria reached: run the completion protocol against the leader.
  ControllerApi* leader =
      ctx_.leader_controller ? ctx_.leader_controller() : nullptr;
  if (leader == nullptr) return indexed;
  const CompletionResponse response =
      leader->SegmentConsumedUntil(table, segment, id_, state->offset);
  switch (response.instruction) {
    case CompletionInstruction::kHold:
    case CompletionInstruction::kNotLeader:
      break;  // Poll again next tick.
    case CompletionInstruction::kCatchup:
      state->catchup_target = response.target_offset;
      break;
    case CompletionInstruction::kKeep: {
      auto sealed = timed_seal();
      if (sealed.ok()) state->sealed = *sealed;
      break;
    }
    case CompletionInstruction::kDiscard:
      state->sealed = nullptr;  // Promotion will download the winner.
      break;
    case CompletionInstruction::kCommit: {
      auto sealed = timed_seal();
      if (!sealed.ok()) {
        PINOT_LOG_ERROR << id_ << " seal failed: "
                        << sealed.status().ToString();
        break;
      }
      state->sealed = *sealed;
      const std::string blob = (*sealed)->SerializeToBlob();
      Status st =
          leader->CommitSegment(table, segment, id_, state->offset, blob);
      if (!st.ok()) {
        PINOT_LOG_WARN << id_ << " commit rejected for " << segment << ": "
                       << st.ToString();
        state->sealed = nullptr;  // Resume polling next tick.
      }
      break;
    }
  }
  return indexed;
}

int Server::ProcessRealtimeTick() {
  // Snapshot the consuming set, then tick each under the server lock so
  // ingestion is serialized with queries over mutable segments.
  std::vector<std::pair<std::string, std::string>> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [table, segment_map] : consuming_) {
      for (const auto& [segment, state] : segment_map) {
        targets.emplace_back(table, segment);
      }
    }
  }
  int indexed = 0;
  for (const auto& [table, segment] : targets) {
    // The completion protocol may call back into the controller, which can
    // dispatch CONSUMING->ONLINE transitions back into this server; those
    // re-enter via OnSegmentStateTransition which takes mutex_, so tick
    // outside the lock and re-validate the state each iteration.
    ConsumingState* state = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto table_it = consuming_.find(table);
      if (table_it == consuming_.end()) continue;
      auto it = table_it->second.find(segment);
      if (it == table_it->second.end()) continue;
      state = &it->second;
    }
    indexed += TickConsuming(table, segment, state);
  }
  return indexed;
}

std::vector<std::string> Server::HostedSegments(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  auto it = segments_.find(table);
  if (it == segments_.end()) return out;
  for (const auto& [segment, view] : it->second) out.push_back(segment);
  return out;
}

std::shared_ptr<const RoaringBitmap> Server::UpsertInvalidDocs(
    const std::string& table, const std::string& segment) const {
  std::shared_ptr<SegmentInterface> view;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto table_it = segments_.find(table);
    if (table_it == segments_.end()) return nullptr;
    auto it = table_it->second.find(segment);
    if (it == table_it->second.end()) return nullptr;
    view = it->second;
  }
  const ValidDocsTracker* tracker = view->valid_docs();
  return tracker == nullptr ? nullptr : tracker->InvalidSnapshot();
}

uint64_t Server::UpsertDeadRows(const std::string& table,
                                const std::string& segment) const {
  auto invalid = UpsertInvalidDocs(table, segment);
  return invalid == nullptr ? 0 : invalid->Cardinality();
}

std::shared_ptr<UpsertTableState> Server::upsert_state(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = upsert_.find(table);
  return it == upsert_.end() ? nullptr : it->second;
}

uint64_t Server::HostedDataBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [table, segment_map] : segments_) {
    for (const auto& [segment, view] : segment_map) {
      auto immutable = std::dynamic_pointer_cast<const ImmutableSegment>(view);
      if (immutable != nullptr) total += immutable->SizeInBytes();
    }
  }
  return total;
}

}  // namespace pinot
