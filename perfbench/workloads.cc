#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/random.h"
#include "query/table_executor.h"
#include "workload/workloads.h"

namespace perfbench {

using pinot::PinotCluster;
using pinot::QueryResult;
using pinot::Row;
using pinot::Status;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// Polls count(*) through the broker until the table answers in full with
/// `rows` rows (-1: any count).
void WaitServable(PinotCluster* cluster, const std::string& table,
                  int64_t rows) {
  const std::string pql = "SELECT count(*) FROM " + table;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    QueryResult result = cluster->Execute(pql);
    if (Complete(result) && (rows < 0 || FirstAggregate(result) == rows)) {
      return;
    }
  }
  std::fprintf(stderr, "perfbench: table %s never became servable\n",
               table.c_str());
  std::exit(1);
}

}  // namespace

std::unique_ptr<PinotCluster> MakeCluster(int num_servers) {
  pinot::PinotClusterOptions options;
  options.num_servers = num_servers;
  options.num_brokers = 1;
  options.num_controllers = 1;
  return std::make_unique<PinotCluster>(options);
}

// --- lookup --------------------------------------------------------------------

OfflineSpec MakeLookupSpec(uint64_t seed) {
  pinot::WorkloadOptions options;
  options.num_rows = 200000;
  options.num_queries = 2000;
  options.seed = MixSeed(seed, 1);
  auto wvmp = std::make_shared<pinot::Workload>(MakeWvmpWorkload(options));

  OfflineSpec spec;
  spec.table.name = wvmp->name;
  spec.table.type = pinot::TableType::kOffline;
  spec.table.schema = wvmp->schema;
  spec.table.num_replicas = 2;
  spec.table.routing = pinot::RoutingStrategy::kBalanced;
  spec.table.sort_columns = wvmp->pinot_config.sort_columns;
  spec.build = wvmp->pinot_config;
  spec.num_servers = 2;
  spec.num_segments = 8;
  spec.num_rows = wvmp->rows.size();
  spec.clients = 1;
  spec.setups_before = 5;
  spec.setups_after = 4;

  // Segments take rows round-robin (as daily pushes would), each sorted on
  // vieweeId, so every lookup hits a sorted range in every segment.
  auto per_segment =
      std::make_shared<std::vector<std::vector<Row>>>(spec.num_segments);
  for (size_t i = 0; i < wvmp->rows.size(); ++i) {
    (*per_segment)[i % spec.num_segments].push_back(wvmp->rows[i]);
  }
  spec.probe_rows.assign(wvmp->rows.begin(),
                         wvmp->rows.begin() + kProbeRows);
  spec.rows = [per_segment](int segment, const auto& sink) {
    sink((*per_segment)[segment]);
  };

  // The workload's own mix (count, distinctcount and facet group-by on one
  // vieweeId) plus about a quarter unfiltered count(*), the metadata plan.
  pinot::Random rng(MixSeed(seed, 2));
  const std::string metadata_count = "SELECT count(*) FROM " + wvmp->name;
  for (const std::string& pql : wvmp->queries) {
    while (rng.NextBool(0.25)) {
      spec.queries.push_back(
          MakeQuery(metadata_count, QueryClass::kMetadataCount));
    }
    QueryClass cls = QueryClass::kSortedLeaf;
    if (pql.find("distinctcount") != std::string::npos) {
      cls = QueryClass::kDistinctCount;
    } else if (pql.find("GROUP BY") != std::string::npos) {
      cls = QueryClass::kGroupByLow;
    }
    spec.queries.push_back(MakeQuery(pql, cls));
  }
  return spec;
}

// --- scan ----------------------------------------------------------------------

namespace {

constexpr uint32_t kScanRowsPerSegment = 131072;  // 8 segments: 1,048,576.
constexpr uint32_t kScanChunkRows = 16384;
constexpr int64_t kFirstDay = 17000;  // MakeAnomalyWorkload's day range.
constexpr int kNumDays = 14;

std::vector<Row> AnomalyRows(uint64_t seed, uint32_t rows) {
  pinot::WorkloadOptions options;
  options.num_rows = rows;
  options.num_queries = 0;
  options.seed = seed;
  return MakeAnomalyWorkload(options).rows;
}

}  // namespace

OfflineSpec MakeScanSpec(uint64_t seed) {
  pinot::WorkloadOptions options;
  options.num_rows = 0;
  options.num_queries = 0;
  const pinot::Workload anomaly = MakeAnomalyWorkload(options);

  OfflineSpec spec;
  spec.table.name = anomaly.name;
  spec.table.type = pinot::TableType::kOffline;
  spec.table.schema = anomaly.schema;
  spec.table.num_replicas = 1;
  spec.table.routing = pinot::RoutingStrategy::kBalanced;
  // Inverted indexes on, star-tree off, sorted on day so range filters on
  // the time column take the sorted-range path.
  spec.build.inverted_index_columns =
      anomaly.pinot_config.inverted_index_columns;
  spec.build.sort_columns = {"day"};
  spec.table.inverted_index_columns = spec.build.inverted_index_columns;
  spec.table.sort_columns = spec.build.sort_columns;
  spec.num_servers = 2;
  spec.num_segments = 8;
  spec.num_rows = uint64_t{kScanRowsPerSegment} * spec.num_segments;
  spec.clients = 2;
  spec.setups_before = 2;
  spec.setups_after = 1;
  spec.probe_rows = AnomalyRows(MixSeed(seed, 3), kProbeRows);
  spec.rows = [seed](int segment, const auto& sink) {
    for (uint32_t chunk = 0; chunk < kScanRowsPerSegment / kScanChunkRows;
         ++chunk) {
      sink(AnomalyRows(MixSeed(seed, 1000 + segment * 64 + chunk),
                       kScanChunkRows));
    }
  };

  // The query ladder, fixed weights per period of 15 queries: filtered SUM
  // through an inverted, a scan and a sorted-range leaf (3 each), group-by
  // at ~8 groups (3) and at ~50k groups (1), selection ORDER BY/LIMIT (2).
  // Each class walks its filter values in turn from a seeded start, so the
  // seed reorders the work without changing how much there is: the 12
  // inverted-leaf queries cover the 12 most frequent (Zipf-skewed)
  // countries once each, and the other filter columns are uniform.
  pinot::Random rng(MixSeed(seed, 4));
  std::map<QueryClass, uint64_t> walked;
  auto pick = [&](QueryClass cls, int lo, int n) {
    auto [it, first] = walked.try_emplace(cls, rng.NextUint64(n));
    return std::to_string(lo + static_cast<int>(it->second++ % n));
  };
  const std::vector<QueryClass> period = {
      QueryClass::kInvertedLeaf,     QueryClass::kScanLeaf,
      QueryClass::kSortedLeaf,       QueryClass::kGroupByLow,
      QueryClass::kSelectionOrderBy, QueryClass::kInvertedLeaf,
      QueryClass::kScanLeaf,         QueryClass::kSortedLeaf,
      QueryClass::kGroupByLow,       QueryClass::kGroupByHigh,
      QueryClass::kInvertedLeaf,     QueryClass::kScanLeaf,
      QueryClass::kSortedLeaf,       QueryClass::kGroupByLow,
      QueryClass::kSelectionOrderBy};
  for (int round = 0; round < 4; ++round) {
    for (QueryClass cls : period) {
      std::string pql;
      switch (cls) {
        case QueryClass::kInvertedLeaf:
          pql = "SELECT sum(value), sum(count) FROM anomaly WHERE country = "
                "'country_" + pick(cls, 0, 12) + "'";
          break;
        case QueryClass::kScanLeaf:
          pql = "SELECT sum(value), sum(count) FROM anomaly WHERE browser = "
                "'browser_" + pick(cls, 0, 5) + "'";
          break;
        case QueryClass::kSortedLeaf: {
          const std::string day = pick(cls, kFirstDay, kNumDays - 1);
          pql = "SELECT sum(value), sum(count) FROM anomaly WHERE day "
                "BETWEEN " + day + " AND " + std::to_string(std::stoi(day) + 1);
          break;
        }
        case QueryClass::kGroupByLow:
          pql = "SELECT sum(count) FROM anomaly WHERE platform = 'platform_" +
                pick(cls, 0, 3) + "' GROUP BY pageType TOP 10";
          break;
        case QueryClass::kGroupByHigh: {
          const std::string day = pick(cls, kFirstDay, kNumDays - 6);
          pql = "SELECT sum(count) FROM anomaly WHERE day BETWEEN " + day +
                " AND " + std::to_string(std::stoi(day) + 6) +
                " GROUP BY metricName, country, application, pageType TOP 100";
          break;
        }
        case QueryClass::kSelectionOrderBy:
          pql = "SELECT metricName, country, value FROM anomaly WHERE day "
                "= " + pick(cls, kFirstDay, kNumDays) +
                " ORDER BY value DESC LIMIT 20";
          break;
        default:
          break;
      }
      spec.queries.push_back(MakeQuery(pql, cls));
    }
  }
  return spec;
}

// --- offline set-up ------------------------------------------------------------

namespace {

/// One set-up from a fresh cluster: appends its timings to `out` and
/// returns the servable cluster.
std::unique_ptr<PinotCluster> SetUpOnce(const OfflineSpec& spec,
                                        OfflineTable* out) {
  const std::string physical = spec.table.PhysicalName();
  Stopwatch setup;
  setup.Start();
  std::unique_ptr<PinotCluster> cluster = MakeCluster(spec.num_servers);
  Check(cluster->leader_controller()->AddTable(spec.table), "AddTable");
  setup.Stop();
  Stopwatch push;
  for (int s = 0; s < spec.num_segments; ++s) {
    pinot::SegmentBuildConfig config = spec.build;
    config.table_name = physical;
    config.segment_name = spec.table.name + "_" + std::to_string(s);
    push.Start();
    pinot::SegmentBuilder builder(spec.table.schema, config);
    push.Stop();
    spec.rows(s, [&](const std::vector<Row>& rows) {
      push.Start();
      for (const Row& row : rows) Check(builder.AddRow(row), "AddRow");
      push.Stop();
    });
    push.Start();
    auto segment = builder.Build();
    Check(segment.status(), "Build");
    Check(cluster->leader_controller()->UploadSegment(
              physical, (*segment)->SerializeToBlob()),
          "UploadSegment");
    push.Stop();
  }
  setup.Add(push);
  out->push_rows_per_s.push_back(spec.num_rows / push.seconds());
  setup.Start();
  WaitServable(cluster.get(), spec.table.name,
               static_cast<int64_t>(spec.num_rows));
  setup.Stop();
  out->setup_s.push_back(setup.seconds());
  return cluster;
}

}  // namespace

void RepeatSetUp(const OfflineSpec& spec, int repeats, OfflineTable* table) {
  for (int r = 0; r < repeats; ++r) SetUpOnce(spec, table);
}

OfflineTable SetUpOffline(const OfflineSpec& spec, int repeats) {
  OfflineTable out;
  for (int r = 0; r < repeats; ++r) {
    out.cluster.reset();  // Tear the previous set-up down first.
    out.cluster = SetUpOnce(spec, &out);
    // Read while the heap holds only the inputs and this cluster: memory a
    // torn-down set-up frees but the allocator keeps would be reused by the
    // next one and hide part of its growth.
    if (r == 0) out.resident_mb = ResidentMb();
  }

  // The bench's own copies, and the balanced split: each segment goes to
  // the hosting server with the fewest segments so far.
  const std::string physical = spec.table.PhysicalName();
  StoredSegments stored = LoadStored(out.cluster.get(), physical);
  out.stored_bytes = stored.bytes;
  out.load_ms = stored.load_ms;
  out.shares.resize(spec.num_servers);
  for (int s = 0; s < spec.num_servers; ++s) out.shares[s].server = s;
  std::map<std::string, std::vector<int>> hosts;
  for (int s = 0; s < spec.num_servers; ++s) {
    for (const std::string& name :
         out.cluster->server(s)->HostedSegments(physical)) {
      hosts[name].push_back(s);
    }
  }
  for (const auto& [name, segment] : stored.segments) {
    const auto& candidates = hosts[name];
    if (candidates.empty()) {
      std::fprintf(stderr, "perfbench: segment %s not hosted\n", name.c_str());
      std::exit(1);
    }
    int best = candidates[0];
    for (int s : candidates) {
      if (out.shares[s].names.size() < out.shares[best].names.size()) best = s;
    }
    out.shares[best].names.push_back(name);
    out.shares[best].own.push_back(segment);
  }
  return out;
}

void ComputeExpected(const std::vector<ServerShare>& shares,
                     std::vector<BenchQuery>* queries) {
  std::vector<std::shared_ptr<pinot::SegmentInterface>> all;
  for (const ServerShare& share : shares) {
    all.insert(all.end(), share.own.begin(), share.own.end());
  }
  std::map<std::string, QueryResult> cache;
  for (BenchQuery& query : *queries) {
    auto it = cache.find(query.pql);
    if (it == cache.end()) {
      it = cache
               .emplace(query.pql,
                        ReduceToFinalResult(
                            query.parsed,
                            pinot::ExecuteQueryOnSegments(all, query.parsed)))
               .first;
    }
    query.expected = it->second;
  }
}

// --- ingest --------------------------------------------------------------------

pinot::TableConfig RealtimeTableConfig(const std::string& name,
                                       const pinot::Schema& schema,
                                       std::vector<std::string> inverted) {
  pinot::TableConfig config;
  config.name = name;
  config.type = pinot::TableType::kRealtime;
  config.schema = schema;
  config.num_replicas = 1;
  config.inverted_index_columns = std::move(inverted);
  config.realtime.topic = name;
  config.realtime.num_partitions = 2;
  config.realtime.flush_threshold_rows = kFlushThresholdRows;
  config.realtime.flush_threshold_millis = int64_t{1} << 40;
  return config;
}

int IngestCycles(double seconds) {
  return std::max(1, static_cast<int>(seconds / 4 + 0.5));
}

RealtimeSpec MakeIngestSpec(uint64_t seed, int cycles) {
  pinot::WorkloadOptions options;
  options.num_rows =
      static_cast<uint32_t>(kHistoryRows + (cycles + 1) * kCycleRows);
  options.num_queries = 1500;
  options.seed = MixSeed(seed, 5);
  pinot::Workload anomaly = MakeAnomalyWorkload(options);

  RealtimeSpec spec;
  spec.table = RealtimeTableConfig(anomaly.name, anomaly.schema,
                                   anomaly.pinot_config.inverted_index_columns);
  for (const Row& row : anomaly.rows) {
    spec.sum_count += std::get<int64_t>(row.Get("count"));
  }
  spec.rows = std::move(anomaly.rows);

  // The monitoring mix (per-day series and drill-downs, all low-cardinality
  // group-bys), with a count(*) every fourth query: the freshness check.
  const std::string count = "SELECT count(*) FROM " + anomaly.name;
  for (size_t i = 0; i < anomaly.queries.size(); ++i) {
    if (i % 3 == 0) {
      spec.queries.push_back(MakeQuery(count, QueryClass::kMetadataCount));
    }
    spec.queries.push_back(
        MakeQuery(anomaly.queries[i], QueryClass::kGroupByLow));
  }
  return spec;
}

RealtimeTable SetUpRealtime(const pinot::TableConfig& table,
                            std::vector<Row> rows, int repeats) {
  RealtimeTable out;
  for (int r = 0; r < repeats; ++r) {
    out.cluster.reset();
    Stopwatch setup;
    setup.Start();
    out.cluster = MakeCluster(1);
    setup.Stop();
    pinot::StreamTopic* topic = out.cluster->streams()->GetOrCreateTopic(
        table.realtime.topic, table.realtime.num_partitions);
    if (r + 1 == repeats) {
      for (size_t i = 0; i < rows.size(); ++i) {
        topic->Produce(std::to_string(i), std::move(rows[i]));
      }
    }
    setup.Start();
    Check(out.cluster->leader_controller()->AddTable(table), "AddTable");
    WaitServable(out.cluster.get(), table.name, -1);
    setup.Stop();
    out.setup_s.push_back(setup.seconds());
  }
  return out;
}

StoredSegments LoadStored(PinotCluster* cluster, const std::string& physical) {
  StoredSegments out;
  for (const auto& [segment, states] :
       cluster->cluster_manager()->GetExternalView(physical)) {
    bool online = false;
    for (const auto& [server, state] : states) {
      online = online || state == pinot::SegmentState::kOnline;
    }
    if (!online) continue;
    auto blob = cluster->object_store()->Get(
        pinot::zkpaths::SegmentBlobKey(physical, segment));
    Check(blob.status(), "object store Get");
    const int64_t start = NowNanos();
    auto loaded = pinot::ImmutableSegment::DeserializeFromBlob(*blob);
    out.load_ms.push_back(MicrosSince(start) / 1000.0);
    Check(loaded.status(), "DeserializeFromBlob");
    out.bytes += blob->size();
    out.rows += (*loaded)->num_docs();
    out.segments[segment] = *loaded;
  }
  return out;
}

}  // namespace perfbench
