// Broker row-oracle fuzz: random PQL through PinotCluster::Execute, every
// answer checked against the brute-force row oracle (tests/row_oracle.h)
// over the rows that were ingested. Three tables share one cluster:
//   - "off": offline, segments in four layouts (plain, sorted, inverted,
//     star-tree) on 3 servers x 2 replicas;
//   - "hyb": hybrid, sealed and consuming realtime segments behind an
//     offline side; offline serves t < boundary, realtime t >= boundary;
//   - "ups": upsert, the latest row per d_int wins.
// Faults (failed, delayed and partitioned servers) are injected into
// random queries: an answer not marked partial must equal the oracle, and
// a partial one must name its lost segments in a call span (`covered=`).
// TRACE queries prove every plan, group table and aggregation kernel ran.
// A second test kills and revives the leader controller between ingest
// ticks of a 2-replica, 2-partition realtime table: after a drain no row
// is lost or counted twice.
//
// Every server stays under the 5000-group trim floor, so trimming never
// engages here; groupby_radix_test's trim fuzz covers it.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/pinot_cluster.h"
#include "common/random.h"
#include "query/parser.h"
#include "segment/segment_builder.h"
#include "tests/row_oracle.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

Schema FuzzSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("d_str", DataType::kString),
      FieldSpec::Dimension("d_int", DataType::kLong),
      FieldSpec::Dimension("d_small", DataType::kString),
      FieldSpec::Dimension("d_multi", DataType::kString, false),
      FieldSpec::Dimension("d_dbl", DataType::kDouble),
      FieldSpec::Dimension("uid", DataType::kLong),
      FieldSpec::Dimension("session", DataType::kLong),
      FieldSpec::Metric("m_long", DataType::kLong),
      FieldSpec::Metric("m_double", DataType::kDouble),
      FieldSpec::Time("t", DataType::kLong),
  });
}

constexpr const char* kAllColumns =
    "d_str, d_int, d_small, d_multi, d_dbl, uid, session, m_long, m_double, "
    "t";

// 64 values in four clusters 1e-7 apart: six significant digits would
// render each cluster as one number.
double DoubleDim(Random& rng) {
  return static_cast<double>(1 + rng.NextUint64(4)) +
         static_cast<double>(rng.NextUint64(16)) * 1e-7;
}

Row RandomRow(Random& rng, int64_t t_lo, uint64_t t_span) {
  std::vector<std::string> multi;
  const uint64_t entries = rng.NextUint64(4);  // 0..3.
  for (uint64_t e = 0; e < entries; ++e) {
    multi.push_back("tag" + std::to_string(rng.NextUint64(12)));
  }
  Row row;
  row.SetString("d_str", "v" + std::to_string(rng.NextUint64(40)))
      .SetLong("d_int", static_cast<int64_t>(rng.NextUint64(100)))
      .SetString("d_small", "s" + std::to_string(rng.NextUint64(5)))
      .SetStringArray("d_multi", std::move(multi))
      .SetDouble("d_dbl", DoubleDim(rng))
      .SetLong("uid", static_cast<int64_t>(rng.NextUint64(uint64_t{1} << 40)))
      .SetLong("session",
               static_cast<int64_t>(rng.NextUint64(uint64_t{1} << 40)))
      .SetLong("m_long", static_cast<int64_t>(rng.NextUint64(100000)))
      .SetDouble("m_double", rng.NextDouble() * 100 - 50)
      .SetLong("t", t_lo + static_cast<int64_t>(rng.NextUint64(t_span)));
  return row;
}

std::string DoubleLiteral(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string RandomLiteral(Random& rng, const std::string& column) {
  if (column == "d_str") return "'v" + std::to_string(rng.NextUint64(45)) + "'";
  if (column == "d_int") return std::to_string(rng.NextUint64(110));
  if (column == "d_small") {
    return "'s" + std::to_string(rng.NextUint64(6)) + "'";
  }
  if (column == "d_multi") {
    return "'tag" + std::to_string(rng.NextUint64(14)) + "'";
  }
  if (column == "d_dbl") return DoubleLiteral(DoubleDim(rng));
  return std::to_string(495 + rng.NextUint64(60));  // t
}

std::string RandomPredicate(Random& rng) {
  static const char* kColumns[] = {"d_str", "d_int", "d_small",
                                   "d_multi", "d_dbl", "t"};
  const std::string column = kColumns[rng.NextUint64(6)];
  const bool numeric = column == "d_int" || column == "d_dbl" || column == "t";
  switch (rng.NextUint64(6)) {
    case 0:
      return column + " = " + RandomLiteral(rng, column);
    case 1:
      return column + " != " + RandomLiteral(rng, column);
    case 2:
      return column + " IN (" + RandomLiteral(rng, column) + ", " +
             RandomLiteral(rng, column) + ", " + RandomLiteral(rng, column) +
             ")";
    case 3:
      return column + " NOT IN (" + RandomLiteral(rng, column) + ", " +
             RandomLiteral(rng, column) + ")";
    case 4:
      if (!numeric) return column + " = " + RandomLiteral(rng, column);
      return column + " BETWEEN " + RandomLiteral(rng, column) + " AND " +
             RandomLiteral(rng, column);
    default: {
      static const char* kOps[] = {">", ">=", "<", "<="};
      const std::string range_column = numeric ? column : "t";
      return range_column + " " + kOps[rng.NextUint64(4)] + " " +
             RandomLiteral(rng, range_column);
    }
  }
}

std::string RandomFilter(Random& rng) {
  std::string out;
  const int num_preds = static_cast<int>(rng.NextUint64(4));  // 0..3.
  for (int i = 0; i < num_preds; ++i) {
    out += i == 0 ? " WHERE " : (rng.NextBool(0.7) ? " AND " : " OR ");
    out += RandomPredicate(rng);
  }
  return out;
}

std::string RandomQuery(Random& rng, const std::string& table) {
  if (rng.NextBool(0.3)) {
    static const char* kOrderable[] = {"d_str", "d_int", "d_dbl", "uid",
                                       "m_long", "m_double", "t"};
    static const int kLimits[] = {1, 5, 20, 100};
    std::string pql = std::string("SELECT ") + kAllColumns + " FROM " +
                      table + RandomFilter(rng);
    if (rng.NextBool(0.7)) {
      const int keys = 1 + static_cast<int>(rng.NextUint64(2));
      for (int k = 0; k < keys; ++k) {
        pql += k == 0 ? " ORDER BY " : ", ";
        pql += kOrderable[rng.NextUint64(7)];
        if (rng.NextBool()) pql += " DESC";
      }
    }
    return pql + " LIMIT " + std::to_string(kLimits[rng.NextUint64(4)]);
  }
  static const char* kAggs[] = {
      "count(*)",         "sum(m_long)",          "min(m_double)",
      "max(m_long)",      "avg(m_double)",        "distinctcount(d_int)",
      "sum(m_double)",    "distinctcount(d_str)", "avg(m_long)",
      "max(d_dbl)",       "distinctcount(d_dbl)", "distinctcount(d_multi)",
  };
  std::string pql = "SELECT ";
  const int num_aggs = 1 + static_cast<int>(rng.NextUint64(3));
  for (int i = 0; i < num_aggs; ++i) {
    if (i > 0) pql += ", ";
    pql += kAggs[rng.NextUint64(12)];
  }
  pql += " FROM " + table + RandomFilter(rng);
  if (rng.NextBool(0.45)) {
    static const char* kGroups[] = {"d_str", "d_small", "d_int", "d_multi",
                                    "d_dbl", "t",       "uid",   "session"};
    std::set<std::string> columns;
    const int num_columns = 1 + static_cast<int>(rng.NextUint64(3));
    for (int i = 0; i < num_columns; ++i) {
      columns.insert(kGroups[rng.NextUint64(8)]);
    }
    // A multi-value column exploding per-row unique keys could pass the
    // trim floor; keep group counts below it.
    if (columns.count("uid") > 0 || columns.count("session") > 0) {
      columns.erase("d_multi");
    }
    std::string group_by;
    for (const auto& column : columns) {
      group_by += (group_by.empty() ? "" : ", ") + column;
    }
    static const int kTops[] = {1, 3, 10, 100, 1000};
    pql += " GROUP BY " + group_by + " TOP " +
           std::to_string(kTops[rng.NextUint64(5)]);
  }
  return pql;
}

TableConfig RealtimeTable(const std::string& name, int replicas,
                          int partitions, int64_t flush_rows) {
  TableConfig config;
  config.name = name;
  config.type = TableType::kRealtime;
  config.schema = FuzzSchema();
  config.num_replicas = replicas;
  config.realtime.topic = name + "-events";
  config.realtime.num_partitions = partitions;
  config.realtime.flush_threshold_rows = flush_rows;
  config.realtime.flush_threshold_millis = 1LL << 40;
  return config;
}

// Every `plan`, `group_table` and `kernel` label value in a span tree.
void CollectPathLabels(const TraceSpan& span, std::set<std::string>* out) {
  for (const auto& [key, value] : span.labels) {
    if (key == "plan" || key == "group_table" || key == "kernel") {
      out->insert(key + "=" + value);
    }
  }
  for (const TraceSpan& child : span.children) CollectPathLabels(child, out);
}

class BrokerOracleFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  BrokerOracleFuzzTest() : clock_(1000), rng_(GetParam()) {
    PinotClusterOptions options;
    options.clock = &clock_;
    options.num_servers = 3;
    options.controller_options.completion_max_wait_millis = 0;
    cluster_ = std::make_unique<PinotCluster>(options);
  }

  void UploadOffline(const std::string& physical, const std::string& name,
                     SegmentBuildConfig config, const std::vector<Row>& rows) {
    config.table_name = physical;
    config.segment_name = name;
    SegmentBuilder builder(FuzzSchema(), config);
    for (const Row& row : rows) ASSERT_TRUE(builder.AddRow(row).ok());
    auto segment = builder.Build();
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    ASSERT_TRUE(cluster_->leader_controller()
                    ->UploadSegment(physical, (*segment)->SerializeToBlob())
                    .ok());
  }

  std::vector<Row> MakeRows(int n, int64_t t_lo, uint64_t t_span) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) rows.push_back(RandomRow(rng_, t_lo, t_span));
    return rows;
  }

  void SetUpTables() {
    Controller* leader = cluster_->leader_controller();
    TableConfig offline;
    offline.name = "off";
    offline.type = TableType::kOffline;
    offline.schema = FuzzSchema();
    offline.num_replicas = 2;
    ASSERT_TRUE(leader->AddTable(offline).ok());
    // 700 rows a segment: uid, session, m_double and m_long carry 10 key
    // bits each, so grouping by every single-value column needs 67 bits.
    SegmentBuildConfig plain;
    SegmentBuildConfig sorted;
    sorted.sort_columns = {"d_int", "t"};
    SegmentBuildConfig inverted;
    inverted.inverted_index_columns = {"d_str", "d_int", "d_small",
                                       "d_multi", "d_dbl", "t"};
    SegmentBuildConfig star;
    star.sort_columns = {"d_str"};
    star.star_tree.dimensions = {"d_str", "d_small", "d_int", "t"};
    star.star_tree.metrics = {"m_long", "m_double"};
    star.star_tree.max_leaf_records = 32;
    const SegmentBuildConfig layouts[] = {plain, sorted, inverted, star};
    for (int s = 0; s < 4; ++s) {
      std::vector<Row> rows = MakeRows(700, 500, 30);
      UploadOffline("off_OFFLINE", "off_" + std::to_string(s), layouts[s],
                    rows);
      off_rows_.insert(off_rows_.end(), rows.begin(), rows.end());
    }

    offline.name = "hyb";
    ASSERT_TRUE(leader->AddTable(offline).ok());
    for (int s = 0; s < 2; ++s) {
      std::vector<Row> rows = MakeRows(300, 500, 30);
      UploadOffline("hyb_OFFLINE", "hyb_" + std::to_string(s), layouts[s * 2],
                    rows);
      hyb_offline_rows_.insert(hyb_offline_rows_.end(), rows.begin(),
                               rows.end());
    }
    for (const Row& row : hyb_offline_rows_) {
      boundary_ = std::max(boundary_, std::get<int64_t>(row.Get("t")));
    }
    TableConfig hybrid = RealtimeTable("hyb", 2, 2, 64);
    hybrid.inverted_index_columns = {"d_str"};
    hyb_topic_ = cluster_->streams()->GetOrCreateTopic("hyb-events", 2);
    ASSERT_TRUE(leader->AddTable(hybrid).ok());

    TableConfig upsert = RealtimeTable("ups", 1, 1, 50);
    upsert.upsert_enabled = true;
    upsert.upsert_key_columns = {"d_int"};
    ups_topic_ = cluster_->streams()->GetOrCreateTopic("ups-events", 1);
    ASSERT_TRUE(leader->AddTable(upsert).ok());
  }

  // Produces one round of realtime rows and drains them, so every produced
  // row is queryable (in sealed or consuming segments).
  void IngestRound() {
    for (int i = 0; i < 150; ++i) {
      Row row = RandomRow(rng_, 520, 25);
      hyb_topic_->Produce(ValueToString(row.Get("uid")), row);
      hyb_realtime_rows_.push_back(std::move(row));
    }
    for (int i = 0; i < 100; ++i) {
      Row row = RandomRow(rng_, 500, 30);
      const int64_t key = std::get<int64_t>(row.Get("d_int"));
      ups_topic_->Produce(std::to_string(key), row);
      ups_latest_[key] = std::move(row);
    }
    cluster_->DrainRealtime();
  }

  // The oracle over what `table` serves: the hybrid time boundary applied
  // to each side, and only the latest row per upsert key.
  test::RowOracle OracleFor(const std::string& table, const Query& query) {
    test::RowOracle oracle(query);
    if (table == "off") {
      for (const Row& row : off_rows_) oracle.Add(row);
    } else if (table == "hyb") {
      for (const Row& row : hyb_offline_rows_) {
        if (std::get<int64_t>(row.Get("t")) < boundary_) oracle.Add(row);
      }
      for (const Row& row : hyb_realtime_rows_) {
        if (std::get<int64_t>(row.Get("t")) >= boundary_) oracle.Add(row);
      }
    } else {
      for (const auto& [key, row] : ups_latest_) oracle.Add(row);
    }
    return oracle;
  }

  // Injects one random fault; returns false when the query runs clean.
  bool MaybeInjectFault() {
    if (!rng_.NextBool(0.3)) return false;
    const int server = static_cast<int>(rng_.NextUint64(3));
    switch (rng_.NextUint64(4)) {
      case 0:
        cluster_->server(server)->InjectQueryFailures(
            1 + static_cast<int>(rng_.NextUint64(2)));
        break;
      case 1:
        cluster_->server(server)->InjectQueryDelay(
            1, 2 + static_cast<int64_t>(rng_.NextUint64(20)));
        break;
      case 2:
        cluster_->PartitionServer(server);
        break;
      default:  // Two servers down: some segments lose every replica.
        cluster_->PartitionServer(server);
        cluster_->PartitionServer((server + 1) % 3);
        break;
    }
    return true;
  }

  void ClearFaults() {
    for (int i = 0; i < cluster_->num_servers(); ++i) {
      cluster_->server(i)->InjectQueryFailures(0);
      cluster_->server(i)->InjectQueryDelay(0, 0);
      cluster_->HealServer(i);
    }
  }

  // Runs `pql` on `table` and checks it against the oracle.
  QueryResult RunAndCheck(const std::string& table, const std::string& pql,
                          bool faulted) {
    QueryResult result = cluster_->Execute(pql);
    auto query = ParsePql(pql);
    EXPECT_TRUE(query.ok()) << pql;
    if (!query.ok()) return result;
    if (result.partial) {
      ++partials_;
      EXPECT_TRUE(faulted) << pql << "\n" << result.ToString();
      bool named = false;
      for (const TraceSpan* call : test::CallSpans(result)) {
        if (!call->LabelValue("covered").empty()) named = true;
      }
      EXPECT_TRUE(named) << pql << "\n" << result.ToString();
      return result;
    }
    EXPECT_EQ(OracleFor(table, *query).Check(result, /*exact=*/false), "")
        << "seed=" << GetParam() << "\n  " << pql;
    return result;
  }

  SimulatedClock clock_;
  Random rng_;
  std::unique_ptr<PinotCluster> cluster_;
  StreamTopic* hyb_topic_ = nullptr;
  StreamTopic* ups_topic_ = nullptr;
  std::vector<Row> off_rows_;
  std::vector<Row> hyb_offline_rows_;
  std::vector<Row> hyb_realtime_rows_;
  std::map<int64_t, Row> ups_latest_;
  int64_t boundary_ = INT64_MIN;
  int partials_ = 0;
};

TEST_P(BrokerOracleFuzzTest, AnswersMatchRowOracle) {
  SetUpTables();
  if (HasFatalFailure()) return;

  static const char* kTables[] = {"off", "hyb", "ups"};
  int faulted_queries = 0;
  for (int round = 0; round < 3; ++round) {
    IngestRound();
    for (int q = 0; q < 60; ++q) {
      const std::string table = kTables[rng_.NextUint64(3)];
      std::string pql = RandomQuery(rng_, table);
      if (rng_.NextBool(0.2)) pql = "TRACE " + pql;
      const bool faulted = MaybeInjectFault();
      faulted_queries += faulted;
      RunAndCheck(table, pql, faulted);
      ClearFaults();
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(faulted_queries, 0);
  EXPECT_GT(partials_, 0) << "no fault cost a segment every replica";

  // Tie-heavy selections: ORDER BY a five-value column with a LIMIT inside
  // its first run of ties, so which tied rows survive the segment heaps,
  // the server trims and the broker merge is decided by the rest of the
  // total order alone (some select so few columns that whole rows repeat).
  for (const std::string pql : {
           "SELECT d_small, d_int, d_multi, m_long FROM off ORDER BY "
           "d_small DESC LIMIT 100",
           "SELECT d_small, d_int FROM off ORDER BY d_small LIMIT 300",
           "SELECT d_multi, d_small, d_str FROM off WHERE d_int < 50 ORDER "
           "BY d_small, d_multi DESC LIMIT 40",
           "SELECT d_small, d_str, m_double FROM hyb ORDER BY d_small DESC "
           "LIMIT 60",
           "SELECT d_int, d_small FROM hyb WHERE t >= 520 ORDER BY d_small "
           "LIMIT 25",
           "SELECT d_small, m_long, d_int FROM ups ORDER BY d_small DESC "
           "LIMIT 7",
           "SELECT d_small, d_multi FROM ups ORDER BY d_small LIMIT 12",
       }) {
    const std::string table = pql.substr(pql.find(" FROM ") + 6, 3);
    RunAndCheck(table, pql, /*faulted=*/false);
    if (HasFailure()) return;
  }
  // Both realtime tables served sealed and consuming segments side by side.
  for (const std::string physical : {"hyb_REALTIME", "ups_REALTIME"}) {
    std::set<SegmentState> states;
    for (const auto& [segment, replicas] :
         cluster_->cluster_manager()->GetExternalView(physical)) {
      for (const auto& [instance, state] : replicas) states.insert(state);
    }
    EXPECT_EQ(states.count(SegmentState::kOnline), 1u) << physical;
    EXPECT_EQ(states.count(SegmentState::kConsuming), 1u) << physical;
  }

  // Fault-free TRACE queries that pin every physical path.
  std::set<std::string> labels;
  for (const std::string pql : {
           // Metadata plan on every segment.
           "TRACE SELECT count(*), max(m_long) FROM off",
           // Star-tree on the star-tree segment, dense raw elsewhere.
           "TRACE SELECT sum(m_long), count(*) FROM off WHERE d_str = 'v3' "
           "GROUP BY d_small TOP 10",
           "TRACE SELECT count(*) FROM off WHERE d_int < 50",
           "TRACE SELECT sum(m_double), min(d_dbl) FROM off WHERE t >= 510",
           "TRACE SELECT distinctcount(d_str), avg(m_long) FROM off WHERE "
           "d_small != 's1'",
           // 10 + 10 + 3 key bits: past the dense limit.
           "TRACE SELECT count(*), sum(m_long) FROM off GROUP BY uid, "
           "session, d_small TOP 100",
           "TRACE SELECT count(*), sum(m_double) FROM off GROUP BY d_multi "
           "TOP 100",
           // 64 distinct doubles, 16 per six-digit rendering.
           "TRACE SELECT count(*), sum(m_long) FROM off GROUP BY d_dbl TOP 100",
           "TRACE SELECT count(*) FROM hyb WHERE d_dbl > 2 GROUP BY d_dbl, "
           "d_small TOP 1000",
           "TRACE SELECT count(*), sum(m_long) FROM ups GROUP BY d_dbl TOP "
           "1000",
       }) {
    const std::string table = pql.substr(pql.find(" FROM ") + 6, 3);
    const QueryResult result = RunAndCheck(table, pql, /*faulted=*/false);
    ASSERT_TRUE(result.span.has_value()) << pql;
    CollectPathLabels(*result.span, &labels);
  }
  // A key wider than 64 bits takes the string table: 10 bits each for
  // uid, session, m_double and m_long, plus 6 + 7 + 6 + 5 + 3.
  const QueryResult wide = RunAndCheck(
      "off",
      "TRACE SELECT count(*), sum(m_long) FROM off GROUP BY uid, session, "
      "m_double, m_long, d_dbl, d_int, d_str, t, d_small TOP 100",
      /*faulted=*/false);
  ASSERT_TRUE(wide.span.has_value());
  std::set<std::string> wide_labels;
  CollectPathLabels(*wide.span, &wide_labels);
  EXPECT_EQ(wide_labels.count("group_table=string"), 1u) << wide.ToString();

  for (const char* expected :
       {"plan=metadata", "plan=star-tree", "plan=raw", "group_table=dense",
        "group_table=radix(64)", "group_table=string", "kernel=count-only",
        "kernel=batched", "kernel=per-doc"}) {
    EXPECT_EQ(labels.count(expected), 1u) << expected;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrokerOracleFuzzTest,
                         ::testing::Values(101u, 202u));

// Leader failover during segment completion (paper section 3.3.6): the
// leader controller dies and comes back between ingest ticks of a
// 2-replica, 2-partition realtime table. Commits then run under either
// controller, or under a blank successor FSM; after a drain every group's
// count equals the oracle's, so no row was lost or counted twice.
TEST(BrokerOracleFailoverTest, LeaderFailoverLosesAndDuplicatesNoRow) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    SimulatedClock clock(1000);
    PinotClusterOptions options;
    options.clock = &clock;
    options.num_controllers = 2;
    options.num_servers = 3;
    options.controller_options.completion_max_wait_millis = 0;
    PinotCluster cluster(options);
    StreamTopic* topic = cluster.streams()->GetOrCreateTopic("rt-events", 2);
    ASSERT_TRUE(cluster.leader_controller()
                    ->AddTable(RealtimeTable("rt", 2, 2, 40))
                    .ok());

    Random rng(seed);
    std::vector<Row> rows;
    int failovers = 0;
    for (int round = 0; round < 10; ++round) {
      const int batch = 1 + static_cast<int>(rng.NextUint64(40));
      for (int i = 0; i < batch; ++i) {
        Row row = RandomRow(rng, 500, 30);
        topic->Produce(ValueToString(row.Get("uid")), row);
        rows.push_back(std::move(row));
      }
      cluster.ProcessRealtimeTicks(1);
      if (!rng.NextBool(0.6)) continue;
      const Controller* current = cluster.leader_controller();
      ASSERT_NE(current, nullptr) << "seed=" << seed;
      const int leader = cluster.controller(0) == current ? 0 : 1;
      cluster.KillController(leader);
      cluster.ProcessRealtimeTicks(1 + static_cast<int>(rng.NextUint64(2)));
      cluster.ReviveController(leader);
      ++failovers;
    }
    cluster.DrainRealtime();
    EXPECT_GT(failovers, 0) << "seed=" << seed;
    // Both partitions committed segments across the failovers.
    for (const char* segment : {"rt_REALTIME__0__0", "rt_REALTIME__1__0"}) {
      EXPECT_TRUE(cluster.object_store()->Exists(
          std::string("segments/rt_REALTIME/") + segment))
          << "seed=" << seed << " " << segment;
    }

    for (const std::string pql : {
             "SELECT count(*) FROM rt GROUP BY d_int TOP 1000",
             "SELECT count(*), sum(m_long), distinctcount(uid) FROM rt",
             "SELECT count(*), min(m_double) FROM rt GROUP BY d_small, "
             "d_multi TOP 1000",
         }) {
      const QueryResult result = cluster.Execute(pql);
      auto query = ParsePql(pql);
      ASSERT_TRUE(query.ok());
      EXPECT_EQ(test::CheckAgainstRows(*query, rows, result, /*exact=*/false),
                "")
          << "seed=" << seed << " " << pql;
    }
  }
}

}  // namespace
}  // namespace pinot
