#include "query/parser.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

namespace horus::query {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : tokens_(tokenize(text)) {}

  Query parse() {
    Query q;
    while (!at_end()) {
      q.clauses.push_back(parse_clause());
    }
    if (q.clauses.empty()) fail("empty query");
    return q;
  }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw QueryError("query parse error at byte " +
                     std::to_string(peek().offset) + ": " + what);
  }

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  const Token& next() {
    const Token& t = peek();
    if (t.kind != TokenKind::kEnd) ++pos_;
    return t;
  }

  [[nodiscard]] bool at_end() const {
    return peek().kind == TokenKind::kEnd;
  }

  bool accept(TokenKind kind) {
    if (peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool accept_keyword(std::string_view kw) {
    if (peek().kind == TokenKind::kKeyword && peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool peek_keyword(std::string_view kw,
                                  std::size_t ahead = 0) const {
    return peek(ahead).kind == TokenKind::kKeyword && peek(ahead).text == kw;
  }

  void expect(TokenKind kind, const char* what) {
    if (!accept(kind)) fail(std::string("expected ") + what);
  }

  std::string expect_ident(const char* what) {
    if (peek().kind != TokenKind::kIdent) {
      fail(std::string("expected ") + what);
    }
    return next().text;
  }

  // ---- clauses -------------------------------------------------------------

  Clause parse_clause() {
    if (accept_keyword("MATCH")) return parse_match();
    if (accept_keyword("WHERE")) return parse_where();
    if (accept_keyword("WITH")) return parse_projection(Clause::Kind::kWith);
    if (accept_keyword("RETURN")) {
      return parse_projection(Clause::Kind::kReturn);
    }
    if (accept_keyword("UNWIND")) return parse_unwind();
    if (accept_keyword("CALL")) return parse_call();
    fail("expected a clause (MATCH, WHERE, WITH, UNWIND, CALL, RETURN)");
  }

  Clause parse_match() {
    Clause c;
    c.kind = Clause::Kind::kMatch;
    c.patterns.push_back(parse_path_pattern());
    while (accept(TokenKind::kComma)) {
      c.patterns.push_back(parse_path_pattern());
    }
    return c;
  }

  Clause parse_where() {
    Clause c;
    c.kind = Clause::Kind::kWhere;
    c.predicate = parse_expr();
    // Cypher-style implicit AND across comma/newline-separated predicates is
    // not standard; the paper's Fig. 4a relies on consecutive predicates, so
    // accept AND-chaining only (parse_expr already handles AND/OR).
    return c;
  }

  Clause parse_projection(Clause::Kind kind) {
    Clause c;
    c.kind = kind;
    c.distinct = accept_keyword("DISTINCT");
    c.projections.push_back(parse_projection_item());
    while (accept(TokenKind::kComma)) {
      c.projections.push_back(parse_projection_item());
    }
    if (accept_keyword("ORDER")) {
      if (!accept_keyword("BY")) fail("expected BY after ORDER");
      do {
        SortItem item;
        item.expr = parse_expr();
        if (accept_keyword("DESC")) {
          item.ascending = false;
        } else {
          accept_keyword("ASC");
        }
        c.order_by.push_back(std::move(item));
      } while (accept(TokenKind::kComma));
    }
    if (accept_keyword("LIMIT")) {
      if (peek().kind != TokenKind::kInteger) fail("expected LIMIT count");
      c.limit = integer(next());
    }
    return c;
  }

  ProjectionItem parse_projection_item() {
    ProjectionItem item;
    const std::size_t start_tok = pos_;
    item.expr = parse_expr();
    if (accept_keyword("AS")) {
      item.alias = expect_ident("alias after AS");
    } else {
      // Default alias: the source token span, concatenated.
      std::string alias;
      for (std::size_t i = start_tok; i < pos_; ++i) {
        switch (tokens_[i].kind) {
          case TokenKind::kIdent:
          case TokenKind::kKeyword: alias += tokens_[i].text; break;
          case TokenKind::kDot: alias += '.'; break;
          case TokenKind::kStar: alias += '*'; break;
          case TokenKind::kLParen: alias += '('; break;
          case TokenKind::kRParen: alias += ')'; break;
          case TokenKind::kString: alias += tokens_[i].text; break;
          case TokenKind::kInteger:
            alias += std::to_string(tokens_[i].int_value);
            break;
          default: break;
        }
      }
      item.alias = std::move(alias);
    }
    return item;
  }

  Clause parse_unwind() {
    Clause c;
    c.kind = Clause::Kind::kUnwind;
    c.unwind_expr = parse_expr();
    if (!accept_keyword("AS")) fail("expected AS in UNWIND");
    c.unwind_alias = expect_ident("UNWIND alias");
    return c;
  }

  Clause parse_call() {
    Clause c;
    c.kind = Clause::Kind::kCall;
    // Dotted procedure name: ident (DOT ident)*
    std::string name = expect_ident("procedure name");
    while (accept(TokenKind::kDot)) {
      name += '.';
      name += expect_ident("procedure name part");
    }
    c.call_procedure = std::move(name);
    expect(TokenKind::kLParen, "'(' after procedure name");
    if (peek().kind != TokenKind::kRParen) {
      c.call_args.push_back(parse_expr());
      while (accept(TokenKind::kComma)) {
        c.call_args.push_back(parse_expr());
      }
    }
    expect(TokenKind::kRParen, "')' after procedure arguments");
    if (accept_keyword("YIELD")) {
      c.yield_names.push_back(expect_ident("YIELD column"));
      while (accept(TokenKind::kComma)) {
        c.yield_names.push_back(expect_ident("YIELD column"));
      }
    }
    return c;
  }

  // ---- patterns ------------------------------------------------------------

  PathPattern parse_path_pattern() {
    PathPattern p;
    p.head = parse_node_pattern();
    while (true) {
      PatternStep step;
      if (accept(TokenKind::kArrowRight)) {
        step.direction = PatternStep::Direction::kRight;
      } else if (accept(TokenKind::kArrowLeft)) {
        step.direction = PatternStep::Direction::kLeft;
      } else if (peek().kind == TokenKind::kDash ||
                 peek().kind == TokenKind::kLt) {
        step = parse_detailed_edge();
      } else {
        break;
      }
      step.node = parse_node_pattern();
      p.steps.push_back(std::move(step));
    }
    return p;
  }

  /// Parses -[:TYPE]->, <-[:TYPE]-, and the variable-length forms
  /// -[*]->, -[:TYPE*]->, -[*2..4]->, -[*..3]->, -[*2..]->.
  PatternStep parse_detailed_edge() {
    PatternStep step;
    bool left = false;
    if (accept(TokenKind::kLt)) {
      left = true;
      if (!accept(TokenKind::kDash)) fail("expected '-' after '<'");
    } else {
      expect(TokenKind::kDash, "'-'");
    }
    if (accept(TokenKind::kLBracket)) {
      if (accept(TokenKind::kColon)) {
        step.edge_type = expect_ident("edge type");
      }
      if (accept(TokenKind::kStar)) {
        step.min_hops = 1;
        step.max_hops = 0;  // unbounded unless a range follows
        if (peek().kind == TokenKind::kInteger) {
          step.min_hops = hop_bound("lower");
          step.max_hops = step.min_hops;  // -[*N]-> is exactly N hops
        }
        if (accept(TokenKind::kDotDot)) {
          step.max_hops = 0;
          if (peek().kind == TokenKind::kInteger) {
            step.max_hops = hop_bound("upper");
          }
        }
        if (step.max_hops != 0 && step.max_hops < step.min_hops) {
          fail("relationship hop range is empty");
        }
      }
      // Optional variable name before ':' is not supported; anonymous only.
      expect(TokenKind::kRBracket, "']' in relationship");
    }
    expect(TokenKind::kDash, "'-' after relationship detail");
    if (!left) {
      if (!accept(TokenKind::kGt)) fail("expected '>' in relationship");
      step.direction = PatternStep::Direction::kRight;
    } else {
      step.direction = PatternStep::Direction::kLeft;
    }
    return step;
  }

  NodePattern parse_node_pattern() {
    NodePattern node;
    expect(TokenKind::kLParen, "'(' starting node pattern");
    if (peek().kind == TokenKind::kIdent) {
      node.variable = next().text;
    }
    if (accept(TokenKind::kColon)) {
      node.label = expect_ident("node label");
    }
    if (accept(TokenKind::kLBrace)) {
      if (peek().kind != TokenKind::kRBrace) {
        do {
          std::string key = expect_ident("property key");
          expect(TokenKind::kColon, "':' in property map");
          node.properties.emplace_back(std::move(key), parse_expr());
        } while (accept(TokenKind::kComma));
      }
      expect(TokenKind::kRBrace, "'}' closing property map");
    }
    expect(TokenKind::kRParen, "')' closing node pattern");
    return node;
  }

  /// A relationship hop bound: the next integer token, which must fit in
  /// 32 bits. `which` names the bound in the error.
  std::uint32_t hop_bound(const char* which) {
    const std::int64_t v = integer(peek());
    if (v < 0 || v > std::int64_t{std::numeric_limits<std::uint32_t>::max()}) {
      fail(std::string("relationship hop ") + which + " bound " +
           std::to_string(v) + " is out of range (at most " +
           std::to_string(std::numeric_limits<std::uint32_t>::max()) + ")");
    }
    next();
    return static_cast<std::uint32_t>(v);
  }

  /// The value of an integer token that is not negated: 2^63 has no
  /// int64 value of its own.
  std::int64_t integer(const Token& t) {
    if (t.text == kInt64MinMagnitude) {
      fail("integer literal " + t.text + " out of range");
    }
    return t.int_value;
  }

  Value parse_literal() {
    const Token& t = next();
    switch (t.kind) {
      case TokenKind::kInteger: return Value(integer(t));
      case TokenKind::kFloat: return Value(t.float_value);
      case TokenKind::kString: return Value(t.text);
      case TokenKind::kKeyword:
        if (t.text == "TRUE") return Value(true);
        if (t.text == "FALSE") return Value(false);
        if (t.text == "NULL") return Value();
        break;
      default: break;
    }
    fail("expected literal");
  }

  // ---- expressions -----------------------------------------------------------

  // Expression parsing is recursive descent; nested parens, lists, function
  // arguments, and NOT chains all deepen the C++ call stack. Adversarial
  // input (e.g. 100k '(' bytes) would otherwise overflow it, so nesting is
  // bounded and over-deep queries fail with a QueryError like any other
  // malformed input. Every recursion cycle passes through parse_not(), which
  // is where the guard lives.
  static constexpr std::size_t kMaxExprDepth = 512;

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxExprDepth) {
        parser.fail("expression nesting too deep");
      }
    }
    ~DepthGuard() { --parser.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser;
  };

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->binary_op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (accept_keyword("OR")) {
      lhs = make_binary(BinaryOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (accept_keyword("AND")) {
      lhs = make_binary(BinaryOp::kAnd, std::move(lhs), parse_not());
    }
    return lhs;
  }

  ExprPtr parse_not() {
    const DepthGuard guard(*this);
    if (accept_keyword("NOT")) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->unary_op = UnaryOp::kNot;
      e->lhs = parse_not();
      return e;
    }
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_additive();
    while (true) {
      BinaryOp op;
      if (accept(TokenKind::kEq)) {
        op = BinaryOp::kEq;
      } else if (accept(TokenKind::kNeq)) {
        op = BinaryOp::kNeq;
      } else if (accept(TokenKind::kLt)) {
        op = BinaryOp::kLt;
      } else if (accept(TokenKind::kLe)) {
        op = BinaryOp::kLe;
      } else if (accept(TokenKind::kGt)) {
        op = BinaryOp::kGt;
      } else if (accept(TokenKind::kGe)) {
        op = BinaryOp::kGe;
      } else if (accept_keyword("CONTAINS")) {
        op = BinaryOp::kContains;
      } else if (accept_keyword("IN")) {
        op = BinaryOp::kIn;
      } else if (peek_keyword("STARTS")) {
        ++pos_;
        if (!accept_keyword("WITH")) fail("expected WITH after STARTS");
        op = BinaryOp::kStartsWith;
      } else if (peek_keyword("ENDS")) {
        ++pos_;
        if (!accept_keyword("WITH")) fail("expected WITH after ENDS");
        op = BinaryOp::kEndsWith;
      } else {
        return lhs;
      }
      lhs = make_binary(op, std::move(lhs), parse_additive());
    }
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (true) {
      if (accept(TokenKind::kPlus)) {
        lhs = make_binary(BinaryOp::kAdd, std::move(lhs),
                          parse_multiplicative());
      } else if (accept(TokenKind::kDash)) {
        lhs = make_binary(BinaryOp::kSub, std::move(lhs),
                          parse_multiplicative());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_primary();
    while (true) {
      // `*` only acts as multiplication with an operand on both sides; a
      // bare `*` primary (count(*), RETURN *) never reaches here followed
      // by another primary in valid queries.
      if (peek().kind == TokenKind::kStar &&
          peek(1).kind != TokenKind::kComma &&
          peek(1).kind != TokenKind::kRParen &&
          peek(1).kind != TokenKind::kEnd &&
          peek(1).kind != TokenKind::kKeyword) {
        ++pos_;
        lhs = make_binary(BinaryOp::kMul, std::move(lhs), parse_primary());
      } else if (accept(TokenKind::kSlash)) {
        lhs = make_binary(BinaryOp::kDiv, std::move(lhs), parse_primary());
      } else if (accept(TokenKind::kPercent)) {
        lhs = make_binary(BinaryOp::kMod, std::move(lhs), parse_primary());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_primary() {
    ExprPtr base;
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInteger:
      case TokenKind::kFloat:
      case TokenKind::kString: {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kLiteral;
        e->literal = parse_literal();
        base = std::move(e);
        break;
      }
      case TokenKind::kKeyword: {
        if (t.text == "TRUE" || t.text == "FALSE" || t.text == "NULL") {
          auto e = std::make_unique<Expr>();
          e->kind = Expr::Kind::kLiteral;
          e->literal = parse_literal();
          base = std::move(e);
          break;
        }
        fail("unexpected keyword '" + t.text + "' in expression");
      }
      case TokenKind::kStar: {
        ++pos_;
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kStar;
        base = std::move(e);
        break;
      }
      case TokenKind::kParam: {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kParameter;
        e->name = next().text;
        base = std::move(e);
        break;
      }
      case TokenKind::kLParen: {
        ++pos_;
        base = parse_expr();
        expect(TokenKind::kRParen, "')'");
        break;
      }
      case TokenKind::kDash: {
        // Unary minus: a negative literal, or the negation of a
        // parenthesized expression. -9223372036854775808 is INT64_MIN.
        ++pos_;
        const Token& operand = peek();
        auto e = std::make_unique<Expr>();
        if (operand.kind == TokenKind::kInteger) {
          ++pos_;
          e->kind = Expr::Kind::kLiteral;
          e->literal = Value(operand.text == kInt64MinMagnitude
                                 ? operand.int_value
                                 : -operand.int_value);
        } else if (operand.kind == TokenKind::kFloat) {
          ++pos_;
          e->kind = Expr::Kind::kLiteral;
          e->literal = Value(-operand.float_value);
        } else if (operand.kind == TokenKind::kLParen) {
          ++pos_;
          e->kind = Expr::Kind::kUnary;
          e->unary_op = UnaryOp::kNeg;
          e->lhs = parse_expr();
          expect(TokenKind::kRParen, "')'");
        } else {
          fail("expected a number or '(' after unary '-'");
        }
        base = std::move(e);
        break;
      }
      case TokenKind::kLBracket: {
        ++pos_;
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kList;
        if (peek().kind != TokenKind::kRBracket) {
          e->args.push_back(parse_expr());
          while (accept(TokenKind::kComma)) e->args.push_back(parse_expr());
        }
        expect(TokenKind::kRBracket, "']'");
        base = std::move(e);
        break;
      }
      case TokenKind::kIdent: {
        std::string name = next().text;
        if (peek().kind == TokenKind::kLParen) {
          // function call
          ++pos_;
          auto e = std::make_unique<Expr>();
          e->kind = Expr::Kind::kFunction;
          e->name = std::move(name);
          e->distinct = accept_keyword("DISTINCT");
          if (peek().kind != TokenKind::kRParen) {
            e->args.push_back(parse_expr());
            while (accept(TokenKind::kComma)) {
              e->args.push_back(parse_expr());
            }
          }
          expect(TokenKind::kRParen, "')' after function arguments");
          base = std::move(e);
        } else {
          auto e = std::make_unique<Expr>();
          e->kind = Expr::Kind::kVariable;
          e->name = std::move(name);
          base = std::move(e);
        }
        break;
      }
      default:
        fail("unexpected token in expression");
    }

    // Property access chains: a.b.c
    while (peek().kind == TokenKind::kDot) {
      ++pos_;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kProperty;
      e->name = expect_ident("property name");
      e->lhs = std::move(base);
      base = std::move(e);
    }
    return base;
  }
};

}  // namespace

Query parse_query(std::string_view text) { return Parser(text).parse(); }

}  // namespace horus::query
