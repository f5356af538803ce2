// Top-K end to end: what each layer keeps for TOP n / LIMIT k queries.
//
//   1. The server combine returns the same answer bit for bit whether it
//      runs on a pool or on the calling thread, below the fold threshold
//      and above it (where groups merge hash shard by hash shard), with
//      and without a server keep.
//   2. Selection ORDER BY keeps at most LIMIT rows per segment and per
//      server: a 2-server cluster ships at most 2 x LIMIT rows' worth of
//      payload, and the answer is exactly the row oracle's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/pinot_cluster.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "query/parser.h"
#include "query/result.h"
#include "query/table_executor.h"
#include "segment/segment_builder.h"
#include "tests/row_oracle.h"

namespace pinot {
namespace {

using Segments = std::vector<std::shared_ptr<SegmentInterface>>;

Schema TopKSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Dimension("site", DataType::kString),
      FieldSpec::Metric("m_long", DataType::kLong),
      FieldSpec::Metric("m_double", DataType::kDouble),
  });
}

std::vector<Row> MakeRows(Random& rng, int n, uint32_t members) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    Row row;
    row.SetLong("memberId", static_cast<int64_t>(rng.NextUint64(members)))
        .SetString("site", "site" + std::to_string(rng.NextUint64(7)))
        .SetLong("m_long", static_cast<int64_t>(rng.NextUint64(50)))
        .SetDouble("m_double", rng.NextDouble() * 100 - 50);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::shared_ptr<ImmutableSegment> BuildSegment(const std::vector<Row>& rows,
                                               size_t begin, size_t end,
                                               const std::string& table,
                                               const std::string& name) {
  SegmentBuildConfig config;
  config.table_name = table;
  config.segment_name = name;
  SegmentBuilder builder(TopKSchema(), config);
  for (size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(builder.AddRow(rows[i]).ok());
  }
  auto segment = builder.Build();
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return *segment;
}

Segments Split(const std::vector<Row>& rows, size_t num_segments) {
  Segments segments;
  const size_t per = rows.size() / num_segments;
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t end = s + 1 == num_segments ? rows.size() : (s + 1) * per;
    segments.push_back(BuildSegment(rows, s * per, end, "topk",
                                    "topk_" + std::to_string(s)));
  }
  return segments;
}

// Bit-exact rendering: doubles by their bit pattern.
std::string Bits(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    uint64_t bits;
    std::memcpy(&bits, d, sizeof(bits));
    return "d" + std::to_string(bits);
  }
  return ValueToString(v);
}

std::string Canonical(const QueryResult& result) {
  std::string out = result.partial ? "partial:" + result.error_message : "";
  for (const auto& row : result.group_rows) {
    for (const auto& key : row.keys) out += Bits(key) + "|";
    for (const auto& value : row.values) out += Bits(value) + ",";
    out += ";";
  }
  return out;
}

struct Combined {
  std::string answer;
  uint64_t groups;
  uint64_t trimmed;
};

Combined Combine(const Segments& segments, const Query& query,
                 ThreadPool* pool, size_t keep) {
  PartialResult partial =
      ExecuteQueryOnSegments(segments, query, pool, nullptr, keep);
  EXPECT_TRUE(partial.status.ok()) << partial.status.ToString();
  EXPECT_LE(partial.groups.size(), keep);
  const uint64_t groups = partial.receipt.groups;
  const uint64_t trimmed = partial.receipt.trimmed;
  return {Canonical(ReduceToFinalResult(query, std::move(partial))), groups,
          trimmed};
}

// Pooled and serial combines agree bit for bit on both sides of the fold
// threshold, trimmed or not. Sums over doubles would differ in their last
// bits if any group merged in another order.
TEST(TopKTest, PooledCombineEqualsSerialBitForBit) {
  Random rng(41);
  const std::vector<Row> rows = MakeRows(rng, 120000, 60000);
  const Segments segments = Split(rows, 4);
  ThreadPool pool(4);

  struct Case {
    const char* pql;
    bool sharded;  // Total groups past kShardedCombineMinGroups.
  };
  const Case cases[] = {
      {"SELECT sum(m_double), count(*), min(m_double), max(m_long) FROM "
       "topk GROUP BY memberId, site TOP 1000000",
       true},
      {"SELECT avg(m_double), sum(m_double), distinctcount(site) FROM topk "
       "GROUP BY memberId TOP 1000000",
       true},
      {"SELECT sum(m_double), count(*) FROM topk GROUP BY site TOP 100",
       false},
  };
  for (const Case& c : cases) {
    auto query = ParsePql(c.pql);
    ASSERT_TRUE(query.ok()) << c.pql;
    const Combined serial =
        Combine(segments, *query, nullptr, kKeepAllGroups);
    const Combined pooled = Combine(segments, *query, &pool, kKeepAllGroups);
    EXPECT_EQ(pooled.answer, serial.answer) << c.pql;
    EXPECT_EQ(pooled.groups, serial.groups) << c.pql;
    EXPECT_EQ(pooled.trimmed, 0u) << c.pql;
    if (c.sharded) {
      EXPECT_GE(serial.groups, 50000u) << c.pql;
    } else {
      EXPECT_LT(serial.groups * segments.size(), kShardedCombineMinGroups);
    }

    // With a server keep, every shard trims before the concatenation; the
    // survivors still equal a fold trimmed once.
    const size_t keep = c.sharded ? 5000 : 3;
    const Combined serial_kept = Combine(segments, *query, nullptr, keep);
    const Combined pooled_kept = Combine(segments, *query, &pool, keep);
    EXPECT_EQ(pooled_kept.answer, serial_kept.answer) << c.pql;
    EXPECT_EQ(pooled_kept.groups, serial.groups) << c.pql;
    EXPECT_EQ(serial_kept.groups, serial.groups) << c.pql;
    EXPECT_EQ(pooled_kept.trimmed, serial.groups - keep) << c.pql;
    EXPECT_EQ(serial_kept.trimmed, serial.groups - keep) << c.pql;
  }
}

// A ranked prefix does not depend on how many groups are ranked.
TEST(TopKTest, RankedPrefixIsIndependentOfLimit) {
  Random rng(43);
  const std::vector<Row> rows = MakeRows(rng, 20000, 3000);
  const Segments segments = Split(rows, 2);
  auto query = ParsePql(
      "SELECT sum(m_long), count(*) FROM topk GROUP BY memberId TOP 100000");
  ASSERT_TRUE(query.ok());
  const PartialResult partial = ExecuteQueryOnSegments(segments, *query);
  const GroupTable& table = partial.groups;
  const std::vector<uint32_t> all =
      table.RankedByFirstAgg(AggregationType::kSum, table.size());
  ASSERT_EQ(all.size(), table.size());
  for (size_t limit : {size_t{0}, size_t{1}, size_t{7}, size_t{500}}) {
    const std::vector<uint32_t> prefix =
        table.RankedByFirstAgg(AggregationType::kSum, limit);
    ASSERT_EQ(prefix.size(), limit);
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), all.begin()))
        << "limit " << limit;
  }
}

// Each server keeps at most LIMIT rows, so the broker receives at most
// servers x LIMIT rows for a query matching thousands, and the answer is
// exactly the oracle's under the total order.
TEST(TopKTest, SelectionShipsAtMostLimitRowsPerServer) {
  Random rng(47);
  const std::vector<Row> rows = MakeRows(rng, 12000, 500);
  PinotClusterOptions options;
  options.num_servers = 2;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();
  TableConfig config;
  config.name = "topk";
  config.type = TableType::kOffline;
  config.schema = TopKSchema();
  config.num_replicas = 1;
  ASSERT_TRUE(leader->AddTable(config).ok());
  for (size_t s = 0; s < 6; ++s) {
    auto segment = BuildSegment(rows, s * 2000, (s + 1) * 2000,
                                "topk_OFFLINE", "topk_" + std::to_string(s));
    ASSERT_TRUE(
        leader->UploadSegment("topk_OFFLINE", segment->SerializeToBlob())
            .ok());
  }

  constexpr size_t kLimit = 20;
  // A row's worth: four Values plus the site string ("siteN"); each server
  // partial also counts its empty group table.
  constexpr size_t kRowBytes = 4 * sizeof(Value) + 5;
  const size_t empty_partial = GroupTable().ApproxPayloadBytes();
  for (const std::string pql : {
           "SELECT memberId, site, m_long, m_double FROM topk ORDER BY "
           "m_long DESC LIMIT 20",
           "SELECT site, m_long, memberId, m_double FROM topk WHERE m_long "
           "< 40 ORDER BY site, m_long DESC LIMIT 20",
           "SELECT memberId, site, m_long, m_double FROM topk LIMIT 20",
       }) {
    auto query = ParsePql(pql);
    ASSERT_TRUE(query.ok()) << pql;
    const QueryResult result = cluster.Execute(pql);
    ASSERT_FALSE(result.partial) << result.error_message;
    EXPECT_GE(result.stats.docs_matched, 9000u) << pql;
    EXPECT_LE(result.receipt.payload_bytes,
              2 * (kLimit * kRowBytes + empty_partial))
        << pql;
    EXPECT_EQ(test::CheckAgainstRows(*query, rows, result, /*exact=*/true),
              "")
        << pql;
  }
}

}  // namespace
}  // namespace pinot
