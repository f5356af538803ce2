#include "query/agg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "query/parser.h"
#include "query/result.h"
#include "query/segment_executor.h"
#include "segment/segment_builder.h"

namespace pinot {
namespace {

TEST(AggStateTest, AddDouble) {
  AggState state;
  state.AddDouble(3);
  state.AddDouble(-1);
  state.AddDouble(10);
  EXPECT_DOUBLE_EQ(state.sum, 12);
  EXPECT_DOUBLE_EQ(state.min, -1);
  EXPECT_DOUBLE_EQ(state.max, 10);
  EXPECT_EQ(state.count, 3);
}

TEST(AggStateTest, MergePreservesExtremaAndDistinct) {
  AggState a, b;
  a.AddDouble(1);
  a.MutableDistinct()->AddInt64(1);
  a.MutableDistinct()->AddInt64(2);
  b.AddDouble(5);
  b.MutableDistinct()->AddInt64(2);
  b.MutableDistinct()->AddInt64(3);
  a.Merge(std::move(b));
  EXPECT_DOUBLE_EQ(a.sum, 6);
  EXPECT_DOUBLE_EQ(a.min, 1);
  EXPECT_DOUBLE_EQ(a.max, 5);
  EXPECT_EQ(a.count, 2);
  EXPECT_EQ(a.distinct->size(), 3);
}

TEST(AggStateTest, AddPreaggregated) {
  AggState state;
  state.AddPreaggregated(100, 2, 50, 10);
  state.AddPreaggregated(50, -1, 20, 5);
  EXPECT_DOUBLE_EQ(state.sum, 150);
  EXPECT_DOUBLE_EQ(state.min, -1);
  EXPECT_DOUBLE_EQ(state.max, 50);
  EXPECT_EQ(state.count, 15);
}

TEST(FinalizeAggTest, AllTypes) {
  AggState state;
  state.AddDouble(2);
  state.AddDouble(4);
  EXPECT_EQ(std::get<int64_t>(FinalizeAgg(AggregationType::kCount, state)), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(FinalizeAgg(AggregationType::kSum, state)),
                   6);
  EXPECT_DOUBLE_EQ(std::get<double>(FinalizeAgg(AggregationType::kMin, state)),
                   2);
  EXPECT_DOUBLE_EQ(std::get<double>(FinalizeAgg(AggregationType::kMax, state)),
                   4);
  EXPECT_DOUBLE_EQ(std::get<double>(FinalizeAgg(AggregationType::kAvg, state)),
                   3);
}

TEST(FinalizeAggTest, EmptyStates) {
  AggState empty;
  EXPECT_EQ(std::get<int64_t>(FinalizeAgg(AggregationType::kCount, empty)), 0);
  EXPECT_DOUBLE_EQ(
      std::get<double>(FinalizeAgg(AggregationType::kSum, empty)), 0);
  EXPECT_TRUE(IsNull(FinalizeAgg(AggregationType::kMin, empty)));
  EXPECT_TRUE(IsNull(FinalizeAgg(AggregationType::kAvg, empty)));
  EXPECT_EQ(std::get<int64_t>(
                FinalizeAgg(AggregationType::kDistinctCount, empty)),
            0);
}

TEST(DistinctSetTest, TypeSeparationAndMerge) {
  DistinctSet set;
  set.AddInt64(1);
  set.AddInt64(1);
  set.AddDouble(1.0);  // Distinct from the integer 1 by design.
  set.AddString("1");
  EXPECT_EQ(set.size(), 3);
  DistinctSet other;
  other.AddInt64(1);
  other.AddInt64(2);
  set.Merge(other);
  EXPECT_EQ(set.size(), 4);
}

TEST(PartialResultTest, MergeGroupsByValueKey) {
  PartialResult a, b;
  {
    std::vector<Value> keys = {Value{std::string("us")}};
    std::vector<AggState> states(1);
    states[0].AddDouble(10);
    a.groups.EnsureArity(1, 1);
    a.groups.AddGroup(std::move(keys), std::move(states));
  }
  {
    b.groups.EnsureArity(1, 1);
    std::vector<Value> keys = {Value{std::string("us")}};
    std::vector<AggState> states(1);
    states[0].AddDouble(5);
    b.groups.AddGroup(std::move(keys), std::move(states));
    std::vector<Value> other_keys = {Value{std::string("ca")}};
    std::vector<AggState> other_states(1);
    other_states[0].AddDouble(7);
    b.groups.AddGroup(std::move(other_keys), std::move(other_states));
  }
  a.Merge(std::move(b));
  ASSERT_EQ(a.groups.size(), 2u);
  const uint32_t us =
      a.groups.Find(EncodeGroupKey({Value{std::string("us")}}));
  ASSERT_NE(us, GroupTable::kInvalidGroup);
  EXPECT_DOUBLE_EQ(a.groups.StatesAt(us)[0].sum, 15);
}

TEST(PartialResultTest, MergeKeepsFirstError) {
  PartialResult a, b, c;
  b.status = Status::Timeout("server 1");
  c.status = Status::NotFound("segment");
  a.Merge(std::move(b));
  a.Merge(std::move(c));
  EXPECT_TRUE(a.status.IsTimeout());
}

TEST(EncodeGroupKeyTest, DistinguishesValues) {
  EXPECT_NE(EncodeGroupKey({Value{std::string("a")}, Value{std::string("b")}}),
            EncodeGroupKey({Value{std::string("ab")}}));
  EXPECT_EQ(EncodeGroupKey({Value{int64_t{1}}}),
            EncodeGroupKey({Value{int64_t{1}}}));
}

TEST(EncodeGroupKeyTest, SeparatorBytesInStringsDoNotCollide) {
  // The old separator-based encoding mapped all of these tuples to the
  // same key; the length-prefixed encoding must keep them distinct.
  EXPECT_NE(EncodeGroupKey(
                {Value{std::string("a\x1f")}, Value{std::string("b")}}),
            EncodeGroupKey(
                {Value{std::string("a")}, Value{std::string("\x1f"
                                                            "b")}}));
  EXPECT_NE(EncodeGroupKey({Value{std::string("a")}, Value{std::string("b")}}),
            EncodeGroupKey({Value{std::string("a\x1f"
                                              "b")}}));
  // Same tuple still encodes identically.
  EXPECT_EQ(EncodeGroupKey(
                {Value{std::string("a\x1f")}, Value{std::string("b")}}),
            EncodeGroupKey(
                {Value{std::string("a\x1f")}, Value{std::string("b")}}));
}

TEST(EncodeGroupKeyTest, DoublesEncodeExactly) {
  // Six significant digits would render all three as "1".
  const std::string a = EncodeGroupKey({Value{1.0000001}});
  const std::string b = EncodeGroupKey({Value{1.0000002}});
  const std::string c = EncodeGroupKey({Value{1.0000003}});
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, EncodeGroupKey({Value{1.0000001}}));
}

// Keys stay encoded until the broker returns them, so decoding must give
// back exactly the values (and Value alternatives) that were encoded.
TEST(EncodeGroupKeyTest, DecodeInvertsEncode) {
  const std::vector<Value> keys = {
      Value{},
      Value{int64_t{-9007199254740993}},
      Value{0.1 + 0.2},
      Value{-0.0},
      Value{1e300},
      Value{std::string("a\x1f\0b", 4)},
      Value{std::string()},
      Value{std::vector<int64_t>{3, -4}},
      Value{std::vector<double>{2.5}},
      Value{std::vector<std::string>{"x", "", "yz"}},
      Value{std::vector<std::string>{}},
  };
  const std::vector<Value> decoded = DecodeGroupKey(EncodeGroupKey(keys));
  ASSERT_EQ(decoded.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(decoded[i].index(), keys[i].index()) << i;
    EXPECT_EQ(decoded[i], keys[i]) << i;
  }
  EXPECT_TRUE(std::signbit(std::get<double>(decoded[3])));
  EXPECT_TRUE(DecodeGroupKey("").empty());
}

TEST(EncodeGroupKeyTest, PackedAndStringKeyPathsEncodeDoublesAlike) {
  // The packed group-by renders keys from the dictionary, the string-key
  // path from decoded values; partials from either must merge, so both
  // must produce EncodeGroupKey's bytes for every distinct double.
  auto schema = Schema::Make({FieldSpec::Dimension("d", DataType::kDouble)});
  ASSERT_TRUE(schema.ok());
  SegmentBuildConfig config;
  config.table_name = "t";
  config.segment_name = "t_0";
  SegmentBuilder builder(*schema, config);
  const std::vector<double> values = {1.0, 1.0000001, 1.0000002, 1.0000003};
  for (double d : values) {
    ASSERT_TRUE(builder.AddRow(Row().SetDouble("d", d)).ok());
  }
  auto segment = builder.Build();
  ASSERT_TRUE(segment.ok());
  for (const char* pql :
       {"SELECT count(*) FROM t GROUP BY d TOP 10",
        "SELECT count(*), distinctcount(d) FROM t GROUP BY d TOP 10"}) {
    auto query = ParsePql(pql);
    ASSERT_TRUE(query.ok());
    PartialResult partial;
    ASSERT_TRUE(ExecuteQueryOnSegment(**segment, *query, &partial).ok());
    EXPECT_EQ(partial.groups.size(), values.size()) << pql;
    for (double d : values) {
      EXPECT_NE(partial.groups.Find(EncodeGroupKey({Value{d}})),
                GroupTable::kInvalidGroup)
          << pql << " d=" << d;
    }
  }
}

TEST(PartialResultTest, AggregateCountMismatchIsErrorNotUB) {
  PartialResult a, b;
  a.aggregates.resize(2);
  a.aggregates[0].AddDouble(1);
  a.aggregates[1].AddDouble(2);
  b.aggregates.resize(1);
  b.aggregates[0].AddDouble(5);
  a.Merge(std::move(b));
  EXPECT_FALSE(a.status.ok());
  EXPECT_NE(a.status.ToString().find("aggregate count mismatch"),
            std::string::npos);
  // Our side is preserved untouched.
  ASSERT_EQ(a.aggregates.size(), 2u);
  EXPECT_DOUBLE_EQ(a.aggregates[0].sum, 1);
}

TEST(PartialResultTest, GroupStateCountMismatchIsErrorNotUB) {
  PartialResult a, b;
  {
    a.groups.EnsureArity(1, 2);
    std::vector<Value> keys = {Value{std::string("us")}};
    a.groups.AddGroup(std::move(keys), std::vector<AggState>(2));
  }
  {
    b.groups.EnsureArity(1, 1);  // Peer on an older table config.
    std::vector<Value> keys = {Value{std::string("us")}};
    std::vector<AggState> states(1);
    states[0].AddDouble(5);
    b.groups.AddGroup(std::move(keys), std::move(states));
  }
  a.Merge(std::move(b));
  EXPECT_FALSE(a.status.ok());
  EXPECT_NE(a.status.ToString().find("group arity mismatch"),
            std::string::npos);
  ASSERT_EQ(a.groups.size(), 1u);
  EXPECT_EQ(a.groups.num_aggs(), 2u);
}

}  // namespace
}  // namespace pinot
