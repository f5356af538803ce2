// Oracle and trimming tests for the high-cardinality group-by engine:
//
//   1. The dense, radix-partitioned and string-key group tables give the
//      row oracle's answer, from 10 to ~64k member ids, bit for bit on one
//      segment, and through the pooled multi-segment combine (two
//      pooled runs bit-identical to each other, and the oracle's answer up
//      to double-sum rounding).
//   2. Server-side ORDER-BY/LIMIT trimming with the production over-fetch
//      never changes the broker-level top-N (byte-identical results under
//      fuzzed group-key-partitioned merges).
//   3. A live cluster with aggressive trim options returns the same rows as
//      an untrimmed one and reports the trim through
//      server_trimmed_rows_total.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/pinot_cluster.h"
#include "common/random.h"
#include "query/parser.h"
#include "query/result.h"
#include "query/table_executor.h"
#include "segment/segment_builder.h"
#include "tests/row_oracle.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

using Segments = std::vector<std::shared_ptr<SegmentInterface>>;

Schema SweepSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Dimension("site", DataType::kString),
      FieldSpec::Metric("m_long", DataType::kLong),
      FieldSpec::Metric("m_double", DataType::kDouble),
      FieldSpec::Time("t", DataType::kLong),
  });
}

std::vector<Row> MakeRows(Random& rng, int n, uint32_t cardinality) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    Row row;
    row.SetLong("memberId", static_cast<int64_t>(rng.NextUint64(cardinality)))
        .SetString("site", "s" + std::to_string(rng.NextUint64(7)))
        .SetLong("m_long", static_cast<int64_t>(rng.NextUint64(1000)))
        .SetDouble("m_double", rng.NextDouble() * 100 - 50)
        .SetLong("t", 500 + static_cast<int64_t>(rng.NextUint64(30)));
    rows.push_back(std::move(row));
  }
  return rows;
}

Segments BuildSplit(const Schema& schema, const std::vector<Row>& rows,
                    int num_segments, const std::string& prefix) {
  Segments segments;
  const size_t per = (rows.size() + num_segments - 1) / num_segments;
  size_t next = 0;
  for (int s = 0; s < num_segments && next < rows.size(); ++s) {
    SegmentBuildConfig config;
    config.table_name = "radix";
    config.segment_name = prefix + "_" + std::to_string(s);
    SegmentBuilder builder(schema, config);
    for (size_t i = 0; i < per && next < rows.size(); ++i, ++next) {
      EXPECT_TRUE(builder.AddRow(rows[next]).ok());
    }
    auto segment = builder.Build();
    EXPECT_TRUE(segment.ok()) << segment.status().ToString();
    segments.push_back(*segment);
  }
  return segments;
}

// Bit-exact comparison: every group of `a` exists in `b` with exactly equal
// (==, not near) aggregation state. Floating-point equality is the point —
// the pooled combine merges in a fixed order.
void ExpectSameGroups(const GroupTable& a, const GroupTable& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.num_aggs(), b.num_aggs()) << what;
  for (uint32_t g = 0; g < a.size(); ++g) {
    const uint32_t h = b.Find(a.EncodedKeyAt(g));
    ASSERT_NE(h, GroupTable::kInvalidGroup)
        << what << ": group missing: " << a.EncodedKeyAt(g);
    for (size_t i = 0; i < a.num_aggs(); ++i) {
      const AggState& sa = a.StatesAt(g)[i];
      const AggState& sb = b.StatesAt(h)[i];
      EXPECT_EQ(sa.sum, sb.sum) << what << " agg " << i;
      EXPECT_EQ(sa.count, sb.count) << what << " agg " << i;
      EXPECT_EQ(sa.min, sb.min) << what << " agg " << i;
      EXPECT_EQ(sa.max, sb.max) << what << " agg " << i;
    }
  }
}

// The group table a traced segment run picked.
std::string GroupTableLabel(const TraceSpan& parent) {
  for (const TraceSpan& segment : parent.children) {
    for (const TraceSpan& phase : segment.children) {
      const std::string table = phase.LabelValue("group_table");
      if (!table.empty()) return table;
    }
  }
  return "";
}

// One query per group table: a memberId key is dense up to 2^20 member ids;
// adding site, t and m_long (3 + 5 + at least 9 bits) takes every
// cardinality past the dense limit; DISTINCTCOUNT needs the string-key
// table.
struct TableCase {
  const char* table;
  const char* pql;
};
constexpr TableCase kTableCases[] = {
    {"dense",
     "SELECT sum(m_double), sum(m_long), count(*), min(m_long), "
     "max(m_double) FROM radix GROUP BY memberId TOP 1000000"},
    {"radix(64)",
     "SELECT sum(m_double), sum(m_long), count(*), min(m_long), "
     "max(m_double) FROM radix GROUP BY memberId, site, t, m_long TOP "
     "1000000"},
    {"string",
     "SELECT sum(m_double), sum(m_long), count(*), min(m_long), "
     "max(m_double), distinctcount(site) FROM radix GROUP BY memberId TOP "
     "1000000"},
};

void ExpectTablesMatchOracle(const Schema& schema, const std::vector<Row>& rows,
                             const std::string& label) {
  const Segments splits[] = {BuildSplit(schema, rows, 1, "seg"),
                             BuildSplit(schema, rows, 3, "seg")};
  ThreadPool pool(4);
  for (const TableCase& c : kTableCases) {
    auto query = ParsePql(c.pql);
    ASSERT_TRUE(query.ok()) << c.pql;
    test::RowOracle oracle(*query);
    for (const Row& row : rows) oracle.Add(row);

    for (const Segments& segments : splits) {
      const size_t num_segments = segments.size();
      const std::string what = label + " " + c.table + " (" +
                               std::to_string(num_segments) + " segments)";
      TraceSpan parent = TraceSpan::Open("combine");
      PartialResult first =
          ExecuteQueryOnSegments(segments, *query, &pool, &parent);
      ASSERT_TRUE(first.status.ok()) << first.status.ToString();
      EXPECT_EQ(GroupTableLabel(parent), c.table) << what;
      if (num_segments > 1) {
        PartialResult second = ExecuteQueryOnSegments(segments, *query, &pool);
        ExpectSameGroups(first.groups, second.groups, what + " rerun");
      }
      // One segment accumulates in doc order, as the oracle does.
      const QueryResult result = ReduceToFinalResult(*query, std::move(first));
      EXPECT_EQ(oracle.Check(result, /*exact=*/num_segments == 1), "")
          << what;
    }
  }
}

TEST(GroupByRadixTest, TablesMatchRowOracleFixedCardinalities) {
  // 65536 is the CI-sized high-cardinality case (every radix shard holds
  // thousands of groups and has grown several times).
  for (uint32_t cardinality : {10u, 1000u, 65536u}) {
    Random rng(7 + cardinality);
    const Schema schema = SweepSchema();
    const int rows =
        static_cast<int>(std::min<uint32_t>(2 * cardinality + 2000, 140000));
    ExpectTablesMatchOracle(schema, MakeRows(rng, rows, cardinality),
                            "cardinality=" + std::to_string(cardinality));
  }
}

class GroupByRadixFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupByRadixFuzzTest, TablesMatchRowOracleAtRandomCardinalities) {
  Random rng(GetParam());
  const Schema schema = SweepSchema();
  const uint32_t cardinality =
      10 + static_cast<uint32_t>(rng.NextUint64(99990));
  const int rows = static_cast<int>(
      std::min<uint32_t>(std::max<uint32_t>(2 * cardinality, 2000), 60000));
  ExpectTablesMatchOracle(schema, MakeRows(rng, rows, cardinality),
                          "seed=" + std::to_string(GetParam()) +
                              " cardinality=" + std::to_string(cardinality));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupByRadixFuzzTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// Canonical rendering for byte-identity checks at the broker level.
std::string Canonical(const QueryResult& result) {
  std::string out;
  for (const auto& row : result.group_rows) {
    out += EncodeGroupKey(row.keys) + "=";
    for (const auto& v : row.values) out += ValueToString(v) + ",";
    out += ";";
  }
  return out;
}

// Server-side trimming with the production over-fetch must not change what
// the broker returns when data is partitioned on the group key (each group's
// full state lives on exactly one server, the realistic partitioned-table
// layout): any global top-N group then ranks at least as high on its home
// server as globally, so it survives a keep >= top_n and both reduces are
// byte-identical. Group-by `site` (7 groups, far below the keep floor)
// rides along as the trim-is-a-no-op sanity case; for groups straddling
// servers the over-fetch is deliberately a heuristic, not exact.
class TrimFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrimFuzzTest, TrimmedReduceIsByteIdentical) {
  Random rng(GetParam());
  const Schema schema = SweepSchema();
  const std::vector<Row> rows = MakeRows(rng, 3000, 900);

  // Partition by memberId into three "servers" of two segments each, so
  // memberId groups never straddle servers (~300 groups per server, well
  // past the keep of 64..100 — trimming genuinely engages).
  std::vector<std::vector<Row>> server_rows(3);
  for (const Row& row : rows) {
    const int64_t member = std::get<int64_t>(row.Get("memberId"));
    server_rows[static_cast<size_t>(member) % 3].push_back(row);
  }
  std::vector<Segments> servers;
  for (int s = 0; s < 3; ++s) {
    servers.push_back(
        BuildSplit(schema, server_rows[s], 2, "srv" + std::to_string(s)));
  }

  static const char* kFirstAggs[] = {"sum(m_long)", "sum(m_double)",
                                     "count(*)", "max(m_long)"};
  for (int q = 0; q < 20; ++q) {
    const int top_n = 1 + static_cast<int>(rng.NextUint64(20));
    const std::string pql = std::string("SELECT ") +
                            kFirstAggs[rng.NextUint64(4)] +
                            ", count(*) FROM radix GROUP BY " +
                            (rng.NextBool() ? "memberId" : "site") + " TOP " +
                            std::to_string(top_n);
    auto query = ParsePql(pql);
    ASSERT_TRUE(query.ok()) << pql;
    const size_t keep =
        std::max<size_t>(static_cast<size_t>(top_n) * 5, 64);

    PartialResult untrimmed;
    PartialResult trimmed;
    size_t groups_dropped = 0;
    for (const Segments& server : servers) {
      // Execution is deterministic, so running twice reproduces the same
      // per-server partial (PartialResult is move-only).
      PartialResult a = ExecuteQueryOnSegments(server, *query);
      ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      untrimmed.Merge(std::move(a));

      PartialResult b = ExecuteQueryOnSegments(server, *query);
      groups_dropped += TrimGroupPartial(*query, keep, &b);
      EXPECT_LE(b.groups.size(), keep) << pql;
      trimmed.Merge(std::move(b));
    }
    const std::string reference =
        Canonical(ReduceToFinalResult(*query, std::move(untrimmed)));
    const std::string with_trim =
        Canonical(ReduceToFinalResult(*query, std::move(trimmed)));
    EXPECT_EQ(with_trim, reference)
        << "seed=" << GetParam() << " keep=" << keep << " dropped="
        << groups_dropped << "\n  " << pql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrimFuzzTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

// End-to-end: a cluster configured to trim aggressively returns the same
// group rows as an untrimmed cluster and surfaces the trim in metrics.
TEST(GroupByRadixTest, ClusterTrimMatchesUntrimmedAndReportsMetric) {
  using test::BuildAnalyticsSegment;

  auto run = [](Server::Options server_options) {
    PinotClusterOptions options;
    options.num_servers = 3;
    options.server_options = std::move(server_options);
    auto cluster = std::make_unique<PinotCluster>(options);
    Controller* leader = cluster->leader_controller();
    TableConfig config;
    config.name = "analytics";
    config.type = TableType::kOffline;
    config.schema = test::AnalyticsSchema();
    config.num_replicas = 1;
    EXPECT_TRUE(leader->AddTable(config).ok());
    // Six identical segments spread across three servers: per-server sums
    // are exact multiples of the global ones, so local trim order equals
    // the global order and TOP 2 must survive even a keep of 2.
    for (int i = 0; i < 6; ++i) {
      SegmentBuildConfig build;
      build.segment_name = "seg" + std::to_string(i);
      build.table_name = "analytics_OFFLINE";
      auto segment = BuildAnalyticsSegment(build);
      EXPECT_TRUE(
          leader->UploadSegment("analytics_OFFLINE",
                                segment->SerializeToBlob())
              .ok());
    }
    QueryResult result = cluster->Execute(
        "SELECT sum(impressions) FROM analytics GROUP BY country TOP 2");
    EXPECT_FALSE(result.partial) << result.error_message;
    return std::make_pair(Canonical(result), cluster->MetricsDump());
  };

  Server::Options trim_hard;
  trim_hard.groupby_trim_factor = 1;
  trim_hard.groupby_trim_min = 2;
  const auto [trimmed, trimmed_metrics] = run(trim_hard);
  const auto [untrimmed, untrimmed_metrics] = run(Server::Options{});

  EXPECT_EQ(trimmed, untrimmed);
  EXPECT_FALSE(trimmed.empty());
  // The aggressive cluster actually trimmed (5 countries -> keep 2) and
  // said so; the default cluster stayed below its 5000-group floor.
  EXPECT_NE(trimmed_metrics.find("server_trimmed_rows_total"),
            std::string::npos);
  bool saw_nonzero_trim = false;
  std::istringstream lines(trimmed_metrics);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("server_trimmed_rows_total", 0) != 0) continue;
    const size_t space = line.rfind(' ');
    if (space != std::string::npos && std::stod(line.substr(space + 1)) > 0) {
      saw_nonzero_trim = true;
    }
  }
  EXPECT_TRUE(saw_nonzero_trim) << trimmed_metrics;
}

}  // namespace
}  // namespace pinot
