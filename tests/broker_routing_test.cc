#include <gtest/gtest.h>

#include "cluster/pinot_cluster.h"
#include "common/hash.h"
#include "tests/test_util.h"
#include "workload/workloads.h"

namespace pinot {
namespace {

Schema KeyedSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Metric("hits", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
}

// Builds one segment per partition with partition metadata and uploads it.
void UploadPartitionedSegments(PinotCluster& cluster, int num_partitions,
                               int rows_per_partition) {
  Controller* leader = cluster.leader_controller();
  for (int p = 0; p < num_partitions; ++p) {
    SegmentBuildConfig build;
    build.table_name = "keyed_OFFLINE";
    build.segment_name = "part_" + std::to_string(p);
    build.partition_id = p;
    build.partition_column = "memberId";
    build.num_partitions = num_partitions;
    SegmentBuilder builder(KeyedSchema(), build);
    int added = 0;
    // Find member ids hashing to partition p.
    for (int64_t member = 0; added < rows_per_partition; ++member) {
      if (KafkaPartition(std::to_string(member), num_partitions) != p) {
        continue;
      }
      Row row;
      row.SetLong("memberId", member).SetLong("hits", 1).SetLong("day", 1);
      ASSERT_TRUE(builder.AddRow(row).ok());
      ++added;
    }
    auto segment = builder.Build();
    ASSERT_TRUE(segment.ok());
    ASSERT_TRUE(
        leader->UploadSegment("keyed_OFFLINE", (*segment)->SerializeToBlob())
            .ok());
  }
}

TEST(BrokerRoutingTest, PartitionAwareQueriesOnlyRelevantServers) {
  PinotClusterOptions options;
  options.num_servers = 4;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();

  TableConfig config;
  config.name = "keyed";
  config.type = TableType::kOffline;
  config.schema = KeyedSchema();
  config.num_replicas = 1;
  config.routing = RoutingStrategy::kPartitionAware;
  config.partition_column = "memberId";
  config.num_partitions = 4;
  ASSERT_TRUE(leader->AddTable(config).ok());
  UploadPartitionedSegments(cluster, 4, 25);

  // A member-keyed query touches exactly one partition's docs.
  // member 0 hashes to some partition; its EQ query must scan at most that
  // partition's 25 docs (total_docs counts only queried segments).
  auto result = cluster.Execute(
      "SELECT count(*) FROM keyed WHERE memberId = 0");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 1);
  EXPECT_EQ(result.total_docs, 25);  // One partition segment only.

  // An unconstrained query still covers everything.
  result = cluster.Execute("SELECT count(*) FROM keyed");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 100);
  EXPECT_EQ(result.total_docs, 100);

  // IN over two members: at most two partitions.
  result = cluster.Execute(
      "SELECT count(*) FROM keyed WHERE memberId IN (0, 1)");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 2);
  EXPECT_LE(result.total_docs, 50);

  // OR across columns disables pruning (conservative), still correct.
  result = cluster.Execute(
      "SELECT count(*) FROM keyed WHERE memberId = 0 OR day = 99");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 1);
  EXPECT_EQ(result.total_docs, 100);
}

TEST(BrokerRoutingTest, GeneratedRoutingCoversAllSegments) {
  PinotClusterOptions options;
  options.num_servers = 6;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();

  TableConfig config;
  config.name = "keyed";
  config.type = TableType::kOffline;
  config.schema = KeyedSchema();
  config.num_replicas = 2;
  config.routing = RoutingStrategy::kGenerated;
  config.target_servers_per_query = 2;
  config.routing_tables_to_generate = 50;
  config.routing_tables_to_keep = 5;
  ASSERT_TRUE(leader->AddTable(config).ok());

  for (int s = 0; s < 12; ++s) {
    SegmentBuildConfig build;
    build.table_name = "keyed_OFFLINE";
    build.segment_name = "seg_" + std::to_string(s);
    SegmentBuilder builder(KeyedSchema(), build);
    for (int i = 0; i < 10; ++i) {
      Row row;
      row.SetLong("memberId", s * 10 + i).SetLong("hits", 1).SetLong("day", 1);
      ASSERT_TRUE(builder.AddRow(row).ok());
    }
    auto segment = builder.Build();
    ASSERT_TRUE(leader
                    ->UploadSegment("keyed_OFFLINE",
                                    (*segment)->SerializeToBlob())
                    .ok());
  }

  // Every query must still see all 120 docs regardless of which generated
  // routing table the broker picks.
  for (int i = 0; i < 20; ++i) {
    auto result = cluster.Execute("SELECT count(*) FROM keyed");
    ASSERT_FALSE(result.partial) << result.error_message;
    ASSERT_EQ(std::get<int64_t>(result.aggregates[0]), 120);
  }
}

TEST(BrokerRoutingTest, RoutingAdaptsToServerFailure) {
  PinotClusterOptions options;
  options.num_servers = 3;
  PinotCluster cluster(options);
  Controller* leader = cluster.leader_controller();
  TableConfig config;
  config.name = "keyed";
  config.type = TableType::kOffline;
  config.schema = KeyedSchema();
  config.num_replicas = 2;
  ASSERT_TRUE(leader->AddTable(config).ok());
  for (int s = 0; s < 3; ++s) {
    SegmentBuildConfig build;
    build.table_name = "keyed_OFFLINE";
    build.segment_name = "seg_" + std::to_string(s);
    SegmentBuilder builder(KeyedSchema(), build);
    Row row;
    row.SetLong("memberId", s).SetLong("hits", 1).SetLong("day", 1);
    ASSERT_TRUE(builder.AddRow(row).ok());
    auto segment = builder.Build();
    ASSERT_TRUE(leader
                    ->UploadSegment("keyed_OFFLINE",
                                    (*segment)->SerializeToBlob())
                    .ok());
  }
  ASSERT_EQ(std::get<int64_t>(
                cluster.Execute("SELECT count(*) FROM keyed").aggregates[0]),
            3);
  // Kill a server: the external-view watch rebuilds routing over the
  // surviving replicas and results stay complete.
  cluster.KillServer(1);
  for (int i = 0; i < 10; ++i) {
    auto result = cluster.Execute("TRACE SELECT count(*) FROM keyed");
    ASSERT_FALSE(result.partial) << result.error_message;
    ASSERT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
    // The external-view watch already removed the dead server, so the
    // queries route cleanly without needing the in-flight failover path.
    EXPECT_EQ(result.receipt.retries, 0u) << result.ToString();
    const std::vector<const TraceSpan*> calls = test::CallSpans(result);
    EXPECT_FALSE(calls.empty());
    for (const TraceSpan* call : calls) {
      EXPECT_NE(test::CallServer(*call), "server-1");
    }
  }
}

TEST(BrokerRoutingTest, ConsumerResetsAfterRetentionLag) {
  SimulatedClock clock(1000000);
  PinotClusterOptions options;
  options.clock = &clock;
  options.num_servers = 1;
  PinotCluster cluster(options);
  StreamTopic* topic = cluster.streams()->GetOrCreateTopic("keyed", 1);

  // Produce 10 early events, then create the realtime table. Before the
  // consumer ever runs, age the early events past retention and produce
  // fresh ones.
  for (int i = 0; i < 10; ++i) {
    Row row;
    row.SetLong("memberId", i).SetLong("hits", 1).SetLong("day", 1);
    topic->ProduceToPartition(0, "k", row);
  }
  TableConfig config;
  config.name = "keyed";
  config.type = TableType::kRealtime;
  config.schema = KeyedSchema();
  config.realtime.topic = "keyed";
  config.realtime.flush_threshold_rows = 1000;
  ASSERT_TRUE(cluster.leader_controller()->AddTable(config).ok());

  clock.AdvanceMillis(100000);
  for (int i = 0; i < 5; ++i) {
    Row row;
    row.SetLong("memberId", 100 + i).SetLong("hits", 1).SetLong("day", 2);
    topic->ProduceToPartition(0, "k", row);
  }
  topic->EnforceRetention(50000);  // Drops the 10 early events.
  ASSERT_EQ(topic->EarliestOffset(0), 10);

  // The consumer starts at offset 0 (recorded at table creation), hits
  // OutOfRange, resets to the earliest retained offset, and indexes the
  // fresh events.
  cluster.ProcessRealtimeTicks(2);
  auto result = cluster.Execute("SELECT count(*) FROM keyed");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);
}

}  // namespace
}  // namespace pinot
