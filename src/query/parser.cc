#include "query/parser.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace pinot {

namespace {

enum class TokenType {
  kIdentifier,
  kNumber,
  kString,
  kSymbol,  // Punctuation / operators.
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;  // Identifier (upper-cased copy in `upper`), literal, or symbol.
  std::string upper;
  double number = 0;
  bool is_integer = false;
  int64_t integer = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    const size_t n = input_.size();
    while (i < n) {
      const char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < n && (std::isalnum(static_cast<unsigned char>(input_[j])) ||
                         input_[j] == '_')) {
          ++j;
        }
        Token token;
        token.type = TokenType::kIdentifier;
        token.text = std::string(input_.substr(i, j - i));
        token.upper = Upper(token.text);
        out->push_back(std::move(token));
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < n &&
           std::isdigit(static_cast<unsigned char>(input_[i + 1])) &&
           NumberAllowedHere(out))) {
        size_t j = i + 1;
        bool has_dot = false;
        while (j < n && (std::isdigit(static_cast<unsigned char>(input_[j])) ||
                         (!has_dot && input_[j] == '.'))) {
          if (input_[j] == '.') has_dot = true;
          ++j;
        }
        Token token;
        token.type = TokenType::kNumber;
        token.text = std::string(input_.substr(i, j - i));
        token.number = std::strtod(token.text.c_str(), nullptr);
        if (!has_dot) {
          token.is_integer = true;
          token.integer = std::strtoll(token.text.c_str(), nullptr, 10);
        }
        out->push_back(std::move(token));
        i = j;
        continue;
      }
      if (c == '\'') {
        std::string literal;
        size_t j = i + 1;
        bool closed = false;
        while (j < n) {
          if (input_[j] == '\'') {
            if (j + 1 < n && input_[j + 1] == '\'') {
              literal += '\'';
              j += 2;
              continue;
            }
            closed = true;
            ++j;
            break;
          }
          literal += input_[j];
          ++j;
        }
        if (!closed) {
          return Status::InvalidArgument("unterminated string literal");
        }
        Token token;
        token.type = TokenType::kString;
        token.text = std::move(literal);
        out->push_back(std::move(token));
        i = j;
        continue;
      }
      // Symbols, including two-char operators.
      static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (input_.substr(i, 2) == op) {
          Token token;
          token.type = TokenType::kSymbol;
          token.text = op;
          out->push_back(std::move(token));
          i += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      if (std::string("()=<>,*").find(c) != std::string::npos) {
        Token token;
        token.type = TokenType::kSymbol;
        token.text = std::string(1, c);
        out->push_back(std::move(token));
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character: ") +
                                     c);
    }
    out->push_back(Token{});  // kEnd sentinel.
    return Status::OK();
  }

 private:
  static std::string Upper(const std::string& s) {
    std::string out = s;
    for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
  }

  // A leading '-' starts a negative number only where a value can appear
  // (after a symbol or keyword), not after an identifier/number.
  static bool NumberAllowedHere(const std::vector<Token>* tokens) {
    if (tokens->empty()) return true;
    const Token& prev = tokens->back();
    if (prev.type == TokenType::kNumber || prev.type == TokenType::kString) {
      return false;
    }
    if (prev.type == TokenType::kIdentifier) {
      // After keywords like AND, IN, BETWEEN a value may appear.
      return prev.upper == "AND" || prev.upper == "OR" ||
             prev.upper == "BETWEEN" || prev.upper == "IN" ||
             prev.upper == "TOP" || prev.upper == "LIMIT";
    }
    return prev.text != ")";
  }

  std::string_view input_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query query;
    // Observability prefixes: EXPLAIN and TRACE may each appear once, in
    // either order, before SELECT. EXPLAIN plans without executing; TRACE
    // executes and attaches the span tree to the result.
    for (;;) {
      if (!query.explain && AcceptKeyword("EXPLAIN")) {
        query.explain = true;
        continue;
      }
      if (!query.trace && AcceptKeyword("TRACE")) {
        query.trace = true;
        continue;
      }
      break;
    }
    PINOT_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    PINOT_RETURN_NOT_OK(ParseSelectList(&query));
    PINOT_RETURN_NOT_OK(ExpectKeyword("FROM"));
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument("expected table name after FROM");
    }
    query.table = Next().text;

    if (AcceptKeyword("WHERE")) {
      FilterNode filter;
      PINOT_RETURN_NOT_OK(ParseOrExpr(&filter));
      query.filter = std::move(filter);
    }
    if (AcceptKeyword("GROUP")) {
      PINOT_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        if (Peek().type != TokenType::kIdentifier) {
          return Status::InvalidArgument("expected column in GROUP BY");
        }
        query.group_by.push_back(Next().text);
      } while (AcceptSymbol(","));
      if (!query.IsAggregation()) {
        return Status::InvalidArgument(
            "GROUP BY requires aggregation functions in SELECT");
      }
    }
    if (AcceptKeyword("TOP")) {
      PINOT_RETURN_NOT_OK(ParseCount("TOP", &query.top_n));
    }
    if (AcceptKeyword("ORDER")) {
      PINOT_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        if (Peek().type != TokenType::kIdentifier) {
          return Status::InvalidArgument("expected column in ORDER BY");
        }
        std::string column = Next().text;
        bool desc = false;
        if (AcceptKeyword("DESC")) {
          desc = true;
        } else {
          AcceptKeyword("ASC");
        }
        query.order_by.emplace_back(std::move(column), desc);
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("LIMIT")) {
      PINOT_RETURN_NOT_OK(ParseCount("LIMIT", &query.limit));
    }
    if (Peek().type != TokenType::kEnd) {
      return Status::InvalidArgument("unexpected trailing token: " +
                                     Peek().text);
    }
    return query;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }

  // A TOP / LIMIT count: an integer in [0, 2^31 - 1]. The lexer reads a
  // '-' here as a sign and saturates overflow, so both reach this check.
  Status ParseCount(const std::string& keyword, int* out) {
    const Token& token = Peek();
    if (token.type != TokenType::kNumber || !token.is_integer) {
      return Status::InvalidArgument("expected integer after " + keyword);
    }
    if (token.integer < 0 ||
        token.integer > std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument(keyword + " out of range [0, " +
                                     std::to_string(std::numeric_limits<
                                                    int32_t>::max()) +
                                     "]: " + token.text);
    }
    *out = static_cast<int>(Next().integer);
    return Status::OK();
  }

  bool AcceptKeyword(const std::string& keyword) {
    if (Peek().type == TokenType::kIdentifier && Peek().upper == keyword) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& keyword) {
    if (!AcceptKeyword(keyword)) {
      return Status::InvalidArgument("expected " + keyword + " near '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }
  bool AcceptSymbol(const std::string& symbol) {
    if (Peek().type == TokenType::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& symbol) {
    if (!AcceptSymbol(symbol)) {
      return Status::InvalidArgument("expected '" + symbol + "' near '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }

  static Result<AggregationType> AggTypeFromName(const std::string& upper) {
    if (upper == "COUNT") return AggregationType::kCount;
    if (upper == "SUM") return AggregationType::kSum;
    if (upper == "MIN") return AggregationType::kMin;
    if (upper == "MAX") return AggregationType::kMax;
    if (upper == "AVG") return AggregationType::kAvg;
    if (upper == "DISTINCTCOUNT") return AggregationType::kDistinctCount;
    return Status::InvalidArgument("unknown aggregation function: " + upper);
  }

  static bool IsAggName(const std::string& upper) {
    return upper == "COUNT" || upper == "SUM" || upper == "MIN" ||
           upper == "MAX" || upper == "AVG" || upper == "DISTINCTCOUNT";
  }

  Status ParseSelectList(Query* query) {
    if (AcceptSymbol("*")) {
      query->selection_columns.push_back("*");
      return Status::OK();
    }
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return Status::InvalidArgument("expected column or aggregation in SELECT");
      }
      if (IsAggName(Peek().upper) && Peek(1).type == TokenType::kSymbol &&
          Peek(1).text == "(") {
        const Token func = Next();
        PINOT_RETURN_NOT_OK(ExpectSymbol("("));
        AggregationSpec spec;
        PINOT_ASSIGN_OR_RETURN(spec.type, AggTypeFromName(func.upper));
        if (AcceptSymbol("*")) {
          if (spec.type != AggregationType::kCount) {
            return Status::InvalidArgument("only COUNT accepts *");
          }
        } else {
          if (Peek().type != TokenType::kIdentifier) {
            return Status::InvalidArgument("expected column inside " +
                                           func.text + "()");
          }
          spec.column = Next().text;
        }
        PINOT_RETURN_NOT_OK(ExpectSymbol(")"));
        query->aggregations.push_back(std::move(spec));
      } else {
        query->selection_columns.push_back(Next().text);
      }
    } while (AcceptSymbol(","));
    if (!query->aggregations.empty() && !query->selection_columns.empty()) {
      return Status::InvalidArgument(
          "cannot mix aggregations and plain columns in SELECT");
    }
    return Status::OK();
  }

  Status ParseOrExpr(FilterNode* out) {
    FilterNode left;
    PINOT_RETURN_NOT_OK(ParseAndExpr(&left));
    if (!(Peek().type == TokenType::kIdentifier && Peek().upper == "OR")) {
      *out = std::move(left);
      return Status::OK();
    }
    std::vector<FilterNode> children;
    children.push_back(std::move(left));
    while (AcceptKeyword("OR")) {
      FilterNode child;
      PINOT_RETURN_NOT_OK(ParseAndExpr(&child));
      children.push_back(std::move(child));
    }
    *out = FilterNode::Or(std::move(children));
    return Status::OK();
  }

  Status ParseAndExpr(FilterNode* out) {
    FilterNode left;
    PINOT_RETURN_NOT_OK(ParsePrimary(&left));
    if (!(Peek().type == TokenType::kIdentifier && Peek().upper == "AND")) {
      *out = std::move(left);
      return Status::OK();
    }
    std::vector<FilterNode> children;
    children.push_back(std::move(left));
    while (AcceptKeyword("AND")) {
      FilterNode child;
      PINOT_RETURN_NOT_OK(ParsePrimary(&child));
      children.push_back(std::move(child));
    }
    *out = FilterNode::And(std::move(children));
    return Status::OK();
  }

  Status ParsePrimary(FilterNode* out) {
    if (AcceptSymbol("(")) {
      PINOT_RETURN_NOT_OK(ParseOrExpr(out));
      return ExpectSymbol(")");
    }
    return ParsePredicate(out);
  }

  Result<Value> ParseLiteral() {
    const Token& token = Peek();
    if (token.type == TokenType::kNumber) {
      Next();
      if (token.is_integer) return Value{token.integer};
      return Value{token.number};
    }
    if (token.type == TokenType::kString) {
      Next();
      return Value{token.text};
    }
    return Status::InvalidArgument("expected literal near '" + token.text +
                                   "'");
  }

  Status ParsePredicate(FilterNode* out) {
    if (Peek().type != TokenType::kIdentifier &&
        Peek().type != TokenType::kString) {
      return Status::InvalidArgument("expected column name near '" +
                                     Peek().text + "'");
    }
    Predicate pred;
    pred.column = Next().text;

    if (AcceptSymbol("=")) {
      pred.op = PredicateOp::kEq;
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      pred.values.push_back(std::move(v));
    } else if (AcceptSymbol("!=") || AcceptSymbol("<>")) {
      pred.op = PredicateOp::kNotEq;
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      pred.values.push_back(std::move(v));
    } else if (AcceptSymbol("<=")) {
      pred.op = PredicateOp::kRange;
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      pred.upper = std::move(v);
      pred.upper_inclusive = true;
    } else if (AcceptSymbol("<")) {
      pred.op = PredicateOp::kRange;
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      pred.upper = std::move(v);
      pred.upper_inclusive = false;
    } else if (AcceptSymbol(">=")) {
      pred.op = PredicateOp::kRange;
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      pred.lower = std::move(v);
      pred.lower_inclusive = true;
    } else if (AcceptSymbol(">")) {
      pred.op = PredicateOp::kRange;
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      pred.lower = std::move(v);
      pred.lower_inclusive = false;
    } else if (AcceptKeyword("BETWEEN")) {
      pred.op = PredicateOp::kRange;
      PINOT_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      PINOT_RETURN_NOT_OK(ExpectKeyword("AND"));
      PINOT_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      pred.lower = std::move(lo);
      pred.upper = std::move(hi);
      pred.lower_inclusive = true;
      pred.upper_inclusive = true;
    } else if (AcceptKeyword("IN")) {
      pred.op = PredicateOp::kIn;
      PINOT_RETURN_NOT_OK(ParseValueList(&pred.values));
    } else if (AcceptKeyword("NOT")) {
      PINOT_RETURN_NOT_OK(ExpectKeyword("IN"));
      pred.op = PredicateOp::kNotIn;
      PINOT_RETURN_NOT_OK(ParseValueList(&pred.values));
    } else {
      return Status::InvalidArgument("expected comparison operator near '" +
                                     Peek().text + "'");
    }
    *out = FilterNode::Leaf(std::move(pred));
    return Status::OK();
  }

  Status ParseValueList(std::vector<Value>* values) {
    PINOT_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      PINOT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      values->push_back(std::move(v));
    } while (AcceptSymbol(","));
    return ExpectSymbol(")");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParsePql(std::string_view pql) {
  std::vector<Token> tokens;
  Lexer lexer(pql);
  PINOT_RETURN_NOT_OK(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace pinot
