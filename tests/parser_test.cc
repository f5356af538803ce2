#include "query/parser.h"

#include <gtest/gtest.h>

namespace pinot {
namespace {

TEST(ParserTest, SimpleAggregation) {
  auto q = ParsePql("SELECT count(*) FROM mytable");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->table, "mytable");
  ASSERT_EQ(q->aggregations.size(), 1u);
  EXPECT_EQ(q->aggregations[0].type, AggregationType::kCount);
  EXPECT_TRUE(q->aggregations[0].column.empty());
  EXPECT_FALSE(q->filter.has_value());
}

TEST(ParserTest, PaperFigure9Query) {
  auto q = ParsePql(
      "select sum(Impressions) from Table where Browser = 'firefox'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregations.size(), 1u);
  EXPECT_EQ(q->aggregations[0].type, AggregationType::kSum);
  EXPECT_EQ(q->aggregations[0].column, "Impressions");
  ASSERT_TRUE(q->filter.has_value());
  EXPECT_EQ(q->filter->kind, FilterNode::Kind::kLeaf);
  EXPECT_EQ(q->filter->predicate.column, "Browser");
  EXPECT_EQ(q->filter->predicate.op, PredicateOp::kEq);
  EXPECT_EQ(std::get<std::string>(q->filter->predicate.values[0]), "firefox");
}

TEST(ParserTest, PaperFigure10QueryWithOrAndGroupBy) {
  auto q = ParsePql(
      "select sum(Impressions) from Table where Browser = 'firefox' or "
      "Browser = 'safari' group by Country");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->filter.has_value());
  EXPECT_EQ(q->filter->kind, FilterNode::Kind::kOr);
  EXPECT_EQ(q->filter->children.size(), 2u);
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"Country"}));
}

TEST(ParserTest, PaperFigure7Query) {
  auto q = ParsePql(
      "SELECT campaignId, sum(click) FROM TableA WHERE accountId = 121011 "
      "AND day >= 15949 GROUP BY campaignId");
  // Mixing a plain column with aggregations is rejected (PQL requires
  // group-by columns to be implied, not projected).
  EXPECT_FALSE(q.ok());
  auto q2 = ParsePql(
      "SELECT sum(click) FROM TableA WHERE accountId = 121011 AND "
      "day >= 15949 GROUP BY campaignId");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->filter->kind, FilterNode::Kind::kAnd);
  const auto& range = q2->filter->children[1].predicate;
  EXPECT_EQ(range.op, PredicateOp::kRange);
  EXPECT_EQ(std::get<int64_t>(*range.lower), 15949);
  EXPECT_TRUE(range.lower_inclusive);
  EXPECT_FALSE(range.upper.has_value());
}

TEST(ParserTest, AllComparisonOperators) {
  for (const auto& [op_text, inclusive, is_lower] :
       std::vector<std::tuple<std::string, bool, bool>>{
           {">", false, true},
           {">=", true, true},
           {"<", false, false},
           {"<=", true, false}}) {
    auto q = ParsePql("SELECT count(*) FROM t WHERE x " + op_text + " 5");
    ASSERT_TRUE(q.ok()) << op_text;
    const auto& pred = q->filter->predicate;
    EXPECT_EQ(pred.op, PredicateOp::kRange);
    if (is_lower) {
      EXPECT_EQ(std::get<int64_t>(*pred.lower), 5);
      EXPECT_EQ(pred.lower_inclusive, inclusive);
    } else {
      EXPECT_EQ(std::get<int64_t>(*pred.upper), 5);
      EXPECT_EQ(pred.upper_inclusive, inclusive);
    }
  }
}

TEST(ParserTest, Between) {
  auto q = ParsePql("SELECT count(*) FROM t WHERE x BETWEEN 3 AND 9");
  ASSERT_TRUE(q.ok());
  const auto& pred = q->filter->predicate;
  EXPECT_EQ(std::get<int64_t>(*pred.lower), 3);
  EXPECT_EQ(std::get<int64_t>(*pred.upper), 9);
  EXPECT_TRUE(pred.lower_inclusive);
  EXPECT_TRUE(pred.upper_inclusive);
}

TEST(ParserTest, InAndNotIn) {
  auto q = ParsePql(
      "SELECT count(*) FROM t WHERE country IN ('us', 'ca') AND browser NOT "
      "IN ('ie')");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->filter->children.size(), 2u);
  EXPECT_EQ(q->filter->children[0].predicate.op, PredicateOp::kIn);
  EXPECT_EQ(q->filter->children[0].predicate.values.size(), 2u);
  EXPECT_EQ(q->filter->children[1].predicate.op, PredicateOp::kNotIn);
}

TEST(ParserTest, NotEqualsBothSpellings) {
  for (const char* pql : {"SELECT count(*) FROM t WHERE a != 1",
                          "SELECT count(*) FROM t WHERE a <> 1"}) {
    auto q = ParsePql(pql);
    ASSERT_TRUE(q.ok()) << pql;
    EXPECT_EQ(q->filter->predicate.op, PredicateOp::kNotEq);
  }
}

TEST(ParserTest, ParenthesesPrecedence) {
  auto q = ParsePql(
      "SELECT count(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->filter->kind, FilterNode::Kind::kAnd);
  EXPECT_EQ(q->filter->children[0].kind, FilterNode::Kind::kOr);
  EXPECT_EQ(q->filter->children[1].kind, FilterNode::Kind::kLeaf);
}

TEST(ParserTest, AndBindsTighterThanOr) {
  auto q = ParsePql("SELECT count(*) FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->filter->kind, FilterNode::Kind::kOr);
  ASSERT_EQ(q->filter->children.size(), 2u);
  EXPECT_EQ(q->filter->children[1].kind, FilterNode::Kind::kAnd);
}

TEST(ParserTest, SelectionWithOrderByAndLimit) {
  auto q = ParsePql(
      "SELECT viewerId, viewTime FROM wvmp ORDER BY viewTime DESC LIMIT 25");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selection_columns,
            (std::vector<std::string>{"viewerId", "viewTime"}));
  ASSERT_EQ(q->order_by.size(), 1u);
  EXPECT_EQ(q->order_by[0].first, "viewTime");
  EXPECT_TRUE(q->order_by[0].second);
  EXPECT_EQ(q->limit, 25);
}

TEST(ParserTest, SelectStar) {
  auto q = ParsePql("SELECT * FROM t LIMIT 5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selection_columns, (std::vector<std::string>{"*"}));
}

TEST(ParserTest, GroupByWithTop) {
  auto q = ParsePql(
      "SELECT sum(views) FROM t GROUP BY country, region TOP 7");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"country", "region"}));
  EXPECT_EQ(q->top_n, 7);
}

TEST(ParserTest, MultipleAggregations) {
  auto q = ParsePql(
      "SELECT sum(clicks), avg(cost), min(bid), max(bid), "
      "distinctcount(viewerId) FROM ads");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->aggregations.size(), 5u);
  EXPECT_EQ(q->aggregations[4].type, AggregationType::kDistinctCount);
}

TEST(ParserTest, NegativeNumbersAndFloats) {
  auto q = ParsePql("SELECT count(*) FROM t WHERE x BETWEEN -5 AND 2.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(std::get<int64_t>(*q->filter->predicate.lower), -5);
  EXPECT_DOUBLE_EQ(std::get<double>(*q->filter->predicate.upper), 2.5);
}

TEST(ParserTest, StringEscapes) {
  auto q = ParsePql("SELECT count(*) FROM t WHERE name = 'O''Brien'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(std::get<std::string>(q->filter->predicate.values[0]), "O'Brien");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParsePql("").ok());
  EXPECT_FALSE(ParsePql("SELECT").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*)").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*) FROM").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*) FROM t WHERE").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*) FROM t WHERE x =").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*) FROM t WHERE x = 'unterminated").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*) FROM t trailing garbage").ok());
  EXPECT_FALSE(ParsePql("SELECT sum(*) FROM t").ok());
  EXPECT_FALSE(ParsePql("SELECT frobnicate(x) FROM t").ok());
  EXPECT_FALSE(ParsePql("SELECT a FROM t GROUP BY a").ok());
  EXPECT_FALSE(ParsePql("SELECT count(*) FROM t LIMIT 'x'").ok());
}

// TOP and LIMIT counts outside [0, 2^31 - 1] are errors: a negative count
// used to return every row or group, and an overflowing one was truncated
// to its low 32 bits.
TEST(ParserTest, RejectsOutOfRangeTopAndLimit) {
  for (const char* pql : {
           "SELECT m FROM t ORDER BY m DESC LIMIT -5",
           "SELECT m FROM t LIMIT 4294967298",
           "SELECT count(*) FROM t GROUP BY d TOP -1",
           "SELECT count(*) FROM t GROUP BY d TOP 4294967297",
           "SELECT m FROM t LIMIT 2147483648",
           "SELECT m FROM t LIMIT 99999999999999999999999",
       }) {
    auto q = ParsePql(pql);
    ASSERT_FALSE(q.ok()) << pql;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << pql;
  }
  auto zero = ParsePql("SELECT count(*) FROM t GROUP BY d TOP 0");
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->top_n, 0);
  auto max = ParsePql("SELECT m FROM t LIMIT 2147483647");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->limit, 2147483647);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  auto q = ParsePql("select COUNT(*) from t where a = 1 GROUP by a top 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->top_n, 3);
}

TEST(ParserTest, TraceAndExplainPrefixes) {
  auto q = ParsePql("TRACE SELECT count(*) FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->trace);
  EXPECT_FALSE(q->explain);

  q = ParsePql("explain select count(*) from t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->explain);
  EXPECT_FALSE(q->trace);

  // Both prefixes compose, in either order.
  for (const char* pql : {"EXPLAIN TRACE SELECT count(*) FROM t",
                          "TRACE EXPLAIN SELECT count(*) FROM t"}) {
    q = ParsePql(pql);
    ASSERT_TRUE(q.ok()) << pql << ": " << q.status().ToString();
    EXPECT_TRUE(q->trace) << pql;
    EXPECT_TRUE(q->explain) << pql;
  }

  // Each prefix is accepted at most once, and SELECT must still follow.
  EXPECT_FALSE(ParsePql("TRACE TRACE SELECT count(*) FROM t").ok());
  EXPECT_FALSE(ParsePql("EXPLAIN EXPLAIN SELECT count(*) FROM t").ok());
  EXPECT_FALSE(ParsePql("TRACE").ok());
  EXPECT_FALSE(ParsePql("EXPLAIN WHERE a = 1").ok());
}

TEST(ParserTest, TraceAndExplainRoundTrip) {
  for (const char* pql :
       {"TRACE SELECT count(*) FROM t",
        "EXPLAIN SELECT sum(a) FROM t WHERE b = 1",
        "EXPLAIN TRACE SELECT count(*) FROM t GROUP BY c TOP 5"}) {
    auto q = ParsePql(pql);
    ASSERT_TRUE(q.ok()) << pql;
    auto q2 = ParsePql(q->ToString());
    ASSERT_TRUE(q2.ok()) << q->ToString() << " -> " << q2.status().ToString();
    EXPECT_EQ(q2->trace, q->trace) << pql;
    EXPECT_EQ(q2->explain, q->explain) << pql;
    EXPECT_EQ(q2->ToString(), q->ToString()) << pql;
  }
}

TEST(ParserTest, RoundTripToString) {
  auto q = ParsePql(
      "SELECT sum(Impressions) FROM T WHERE Browser IN ('firefox', 'safari') "
      "AND Day BETWEEN 10 AND 20 GROUP BY Country TOP 5");
  ASSERT_TRUE(q.ok());
  // ToString output should itself be parseable.
  auto q2 = ParsePql(q->ToString());
  ASSERT_TRUE(q2.ok()) << q->ToString() << " -> " << q2.status().ToString();
  EXPECT_EQ(q2->ToString(), q->ToString());
}

}  // namespace
}  // namespace pinot
