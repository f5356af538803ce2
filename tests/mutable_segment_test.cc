#include "realtime/mutable_segment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/test_util.h"

namespace pinot {
namespace {

using test::AnalyticsRows;
using test::AnalyticsSchema;
using test::ToRow;

TEST(MutableSegmentTest, IndexAndQueryability) {
  SimulatedClock clock(5000);
  MutableSegment segment(AnalyticsSchema(), "t_REALTIME", "t__0__0", &clock);
  EXPECT_EQ(segment.num_docs(), 0u);
  for (const auto& row : AnalyticsRows()) {
    ASSERT_TRUE(segment.Index(ToRow(row)).ok());
  }
  EXPECT_EQ(segment.num_docs(), 12u);
  EXPECT_EQ(segment.metadata().min_time, 100);
  EXPECT_EQ(segment.metadata().max_time, 103);
  EXPECT_EQ(segment.metadata().creation_time_millis, 5000);

  const ColumnReader* country = segment.GetColumn("country");
  ASSERT_NE(country, nullptr);
  EXPECT_FALSE(country->dictionary().sorted());
  EXPECT_EQ(country->stats().cardinality, 4);
  EXPECT_EQ(country->inverted_index(), nullptr);
  EXPECT_EQ(country->sorted_index(), nullptr);
  // Arrival-order ids: first row's country ("us") got id 0.
  EXPECT_EQ(country->GetDictId(0), 0u);
  EXPECT_EQ(std::get<std::string>(country->dictionary().ValueAt(0)), "us");
}

TEST(MutableSegmentTest, QueriesMatchImmutableExecution) {
  SimulatedClock clock;
  MutableSegment mutable_segment(AnalyticsSchema(), "t", "s", &clock);
  for (const auto& row : AnalyticsRows()) {
    ASSERT_TRUE(mutable_segment.Index(ToRow(row)).ok());
  }
  auto immutable = test::BuildAnalyticsSegment();

  // Wrap the mutable segment in a shared_ptr alias for the executor.
  std::shared_ptr<SegmentInterface> view(&mutable_segment,
                                         [](SegmentInterface*) {});
  for (const char* pql : {
           "SELECT count(*) FROM t WHERE country = 'us'",
           "SELECT sum(impressions) FROM t WHERE day BETWEEN 101 AND 102",
           "SELECT count(*) FROM t WHERE tags = 'a'",
           "SELECT sum(clicks) FROM t GROUP BY browser TOP 10",
           "SELECT distinctcount(memberId) FROM t WHERE browser != 'chrome'",
       }) {
    auto a = test::RunPql({view}, pql);
    auto b = test::RunPql(immutable, pql);
    ASSERT_FALSE(a.partial) << pql << ": " << a.error_message;
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
    for (size_t i = 0; i < a.aggregates.size(); ++i) {
      EXPECT_EQ(ValueToString(a.aggregates[i]), ValueToString(b.aggregates[i]))
          << pql;
    }
    EXPECT_EQ(a.group_rows.size(), b.group_rows.size()) << pql;
  }
}

TEST(MutableSegmentTest, SealProducesIndexedImmutable) {
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t_REALTIME", "t__0__0", &clock);
  for (const auto& row : AnalyticsRows()) {
    ASSERT_TRUE(segment.Index(ToRow(row)).ok());
  }
  SegmentBuildConfig config;
  config.sort_columns = {"memberId"};
  config.inverted_index_columns = {"browser"};
  auto sealed = segment.Seal(config);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_EQ((*sealed)->num_docs(), 12u);
  EXPECT_EQ((*sealed)->metadata().segment_name, "t__0__0");
  EXPECT_EQ((*sealed)->metadata().sorted_column, "memberId");
  EXPECT_NE((*sealed)->GetColumn("memberId")->sorted_index(), nullptr);
  EXPECT_NE((*sealed)->GetColumn("browser")->inverted_index(), nullptr);
  EXPECT_TRUE((*sealed)->GetColumn("country")->dictionary().sorted());

  // Sealed results equal mutable results.
  std::shared_ptr<SegmentInterface> view(&segment, [](SegmentInterface*) {});
  auto a = test::RunPql({view},
                        "SELECT sum(impressions) FROM t GROUP BY country TOP 10");
  auto b = test::RunPql(*sealed,
                        "SELECT sum(impressions) FROM t GROUP BY country TOP 10");
  ASSERT_EQ(a.group_rows.size(), b.group_rows.size());
  for (size_t i = 0; i < a.group_rows.size(); ++i) {
    EXPECT_EQ(ValueToString(a.group_rows[i].keys[0]),
              ValueToString(b.group_rows[i].keys[0]));
    EXPECT_EQ(ValueToString(a.group_rows[i].values[0]),
              ValueToString(b.group_rows[i].values[0]));
  }
}

TEST(MutableSegmentTest, ArityValidation) {
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t", "s", &clock);
  Row bad;
  bad.SetStringArray("country", {"x"});
  EXPECT_FALSE(segment.Index(bad).ok());
  Row bad2;
  bad2.SetString("tags", "not-an-array");
  EXPECT_FALSE(segment.Index(bad2).ok());
}

TEST(MutableSegmentTest, RejectedRowLeavesNoPartialState) {
  // Regression: Index used to append field-by-field, so a row whose FIRST
  // field was valid but whose SECOND field was mis-typed left a torn row:
  // the first column one entry longer than the rest, corrupting every
  // later doc id. Validation must reject the whole row up front.
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t", "s", &clock);
  Row torn;
  torn.SetString("country", "zz");            // Valid first field...
  torn.SetStringArray("browser", {"x", "y"});  // ...then a mis-typed one.
  EXPECT_FALSE(segment.Index(torn).ok());
  EXPECT_EQ(segment.num_docs(), 0u);
  // The valid prefix must not have leaked into the country column.
  EXPECT_EQ(segment.GetColumn("country")->stats().cardinality, 0);

  // The segment stays fully usable: a good row indexes and queries cleanly.
  for (const auto& row : AnalyticsRows()) {
    ASSERT_TRUE(segment.Index(ToRow(row)).ok());
  }
  EXPECT_EQ(segment.num_docs(), 12u);
  std::shared_ptr<SegmentInterface> view(&segment, [](SegmentInterface*) {});
  auto result = test::RunPql({view}, "SELECT count(*) FROM t");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 12);
  result = test::RunPql({view}, "SELECT count(*) FROM t WHERE country = 'zz'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
}

TEST(MutableSegmentTest, TimeColumnKeepsInt64Precision) {
  // Regression: min/max time maintenance used to round-trip the time value
  // through double, which silently loses precision past 2^53 (epoch-nanos
  // timestamps live there).
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t", "s", &clock);
  const int64_t t0 = (int64_t{1} << 53) + 1;  // Not representable as double.
  const int64_t t1 = (int64_t{1} << 53) + 3;
  Row row;
  row.SetString("country", "us").SetLong("day", t0);
  ASSERT_TRUE(segment.Index(row).ok());
  Row row2;
  row2.SetString("country", "us").SetLong("day", t1);
  ASSERT_TRUE(segment.Index(row2).ok());
  EXPECT_EQ(segment.metadata().min_time, t0);
  EXPECT_EQ(segment.metadata().max_time, t1);
}

TEST(MutableSegmentTest, ConcurrentIngestAndQuery) {
  // Single writer indexing while readers execute queries under the
  // segment's shared lock (exactly what Server::ExecuteServerQuery does).
  // Pre-fix this raced MutableColumn::Append's vector reallocation; the
  // sanitizer stages of scripts/check.sh make corruption loud.
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t", "s", &clock);
  constexpr int kRows = 8000;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    const auto rows = AnalyticsRows();
    for (int i = 0; i < kRows; ++i) {
      if (!segment.Index(ToRow(rows[i % rows.size()])).ok()) {
        failures.fetch_add(1);
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::shared_ptr<SegmentInterface> view(&segment,
                                             [](SegmentInterface*) {});
      uint32_t last_count = 0;
      uint64_t iter = 0;
      while (!done.load()) {
        {
          auto lock = segment.AcquireReadLock();
          const uint32_t docs = segment.num_docs();
          if (docs > 0) {
            // Touch the newest row's data: the tail of the value vectors
            // is exactly where a racing reallocation would bite.
            const ColumnReader* country = segment.GetColumn("country");
            (void)country->dictionary().ValueAt(
                static_cast<int>(country->GetDictId(docs - 1)));
          }
          if (iter % 512 == 0) {  // Full executions are pricey; sample.
            auto result = test::RunPql({view}, "SELECT count(*) FROM t");
            const auto count = static_cast<uint32_t>(
                std::get<int64_t>(result.aggregates[0]));
            // Counts are monotone and match the doc count published under
            // the same lock hold.
            if (count < last_count || count != docs) failures.fetch_add(1);
            last_count = count;
          }
        }
        ++iter;
        // Leave the writer a lock window: glibc's rwlock prefers readers,
        // and back-to-back shared holds would starve Index indefinitely.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(segment.num_docs(), static_cast<uint32_t>(kRows));
  std::shared_ptr<SegmentInterface> view(&segment, [](SegmentInterface*) {});
  auto result = test::RunPql({view}, "SELECT count(*) FROM t");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), kRows);
}

TEST(MutableSegmentTest, MissingFieldsUseDefaults) {
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t", "s", &clock);
  ASSERT_TRUE(segment.Index(Row()).ok());
  const ColumnReader* impressions = segment.GetColumn("impressions");
  EXPECT_EQ(impressions->dictionary().Int64At(
                static_cast<int>(impressions->GetDictId(0))),
            0);
}

TEST(MutableSegmentTest, EmptyMultiValueArraysOnly) {
  // Regression: a multi-value column that only ever sees empty arrays must
  // not crash stats maintenance (found by the hybrid integration test).
  SimulatedClock clock;
  MutableSegment segment(AnalyticsSchema(), "t", "s", &clock);
  Row row;
  row.SetStringArray("tags", {});
  ASSERT_TRUE(segment.Index(row).ok());
  ASSERT_TRUE(segment.Index(row).ok());
  EXPECT_EQ(segment.GetColumn("tags")->stats().cardinality, 0);
  std::shared_ptr<SegmentInterface> view(&segment, [](SegmentInterface*) {});
  auto result = test::RunPql({view}, "SELECT count(*) FROM t");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 2);
}

}  // namespace
}  // namespace pinot
