// Internal row/expression machinery shared by the tuple-at-a-time evaluator
// (evaluator.cpp) and the planned batch executor (exec.cpp). Not part of the
// public query API — include only from src/query translation units.
//
// The Evaluator here is the legacy clause pipeline, unchanged in semantics:
// the planner's differential oracle suite (tests/plan_differential_test.cpp)
// holds the batch executor to row-for-row equality against it. The one
// shared hot-path improvement lives in eval_binary(): comparisons whose
// operands are property accesses no longer materialize a temporary Value
// per row — stored properties are compared in place, and interned columns
// compare pooled u32 ids with no string access at all (see
// try_compare_fast). Both engines rely on it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "query/evaluator.h"
#include "query/parser.h"

namespace horus::query::internal {

// ---------------------------------------------------------------------------
// Row machinery
// ---------------------------------------------------------------------------

struct RowSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  [[nodiscard]] int column_index(std::string_view name) const {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

[[nodiscard]] inline bool is_aggregate_function(std::string_view name) {
  const std::string lower = to_lower(name);
  return lower == "count" || lower == "collect" || lower == "min" ||
         lower == "max" || lower == "sum" || lower == "avg";
}

[[nodiscard]] inline bool contains_aggregate(const Expr& e) {
  if (e.kind == Expr::Kind::kFunction && is_aggregate_function(e.name)) {
    return true;
  }
  if (e.lhs && contains_aggregate(*e.lhs)) return true;
  if (e.rhs && contains_aggregate(*e.rhs)) return true;
  for (const auto& a : e.args) {
    if (a && contains_aggregate(*a)) return true;
  }
  return false;
}

/// compare_values semantics against a stored property, without copying the
/// property into a temporary Value (strings are compared in place).
[[nodiscard]] inline int compare_property_value(const graph::PropertyValue& p,
                                                const Value& b) {
  if (const auto* i = std::get_if<std::int64_t>(&p)) {
    if (!b.is_number()) return -2;
    const double x = static_cast<double>(*i);
    const double y = b.as_number();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (const auto* d = std::get_if<double>(&p)) {
    if (!b.is_number()) return -2;
    const double y = b.as_number();
    return *d < y ? -1 : (*d > y ? 1 : 0);
  }
  if (const auto* s = std::get_if<std::string>(&p)) {
    if (!b.is_string()) return -2;
    const int c = s->compare(b.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (const auto* bo = std::get_if<bool>(&p)) {
    if (!b.is_bool()) return -2;
    return static_cast<int>(*bo) - static_cast<int>(b.as_bool());
  }
  return b.is_null() ? 0 : -2;  // stored null (absent property)
}

[[nodiscard]] inline bool is_comparison_op(BinaryOp op) noexcept {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Maps a three-way comparison (-1/0/1, -2 incomparable) onto a comparison
/// operator's boolean result — the single definition both engines share.
[[nodiscard]] inline Value compare_verdict(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return Value(c == 0);
    case BinaryOp::kNeq: return Value(c != 0 && c != -2);
    case BinaryOp::kLt: return Value(c == -1);
    case BinaryOp::kLe: return Value(c == -1 || c == 0);
    case BinaryOp::kGt: return Value(c == 1);
    case BinaryOp::kGe: return Value(c == 1 || c == 0);
    default: return Value();
  }
}

// ---------------------------------------------------------------------------
// Expression evaluation + legacy clause pipeline
// ---------------------------------------------------------------------------

class Evaluator {
 public:
  Evaluator(const ExecutionGraph& graph,
            const std::map<std::string, ProcedureDef, std::less<>>& procedures,
            const QueryParams& params, const QueryOptions& options)
      : graph_(graph),
        procedures_(procedures),
        params_(params),
        options_(options) {}

  [[nodiscard]] RowSet run(const Query& query) const {
    RowSet rows;
    rows.rows.push_back({});  // one empty row bootstraps the pipeline
    return run_from(query, 0, std::move(rows));
  }

  /// Runs the clause pipeline starting at clause `first` over an existing
  /// RowSet — the planned executor's hand-off point: the plan covers
  /// [0, first), the legacy pipeline finishes [first, end).
  [[nodiscard]] RowSet run_from(const Query& query, std::size_t first,
                                RowSet rows) const {
    QueryGuard* guard = options_.guard;
    for (std::size_t ci = first; ci < query.clauses.size(); ++ci) {
      const Clause& clause = query.clauses[ci];
      // Tripped guard: stop the pipeline at a clause boundary and hand the
      // rows accumulated so far back as the partial result.
      if (guard != nullptr) {
        if (guard->stopped()) break;
        // max_rows bounds each clause's materialized working set, not the
        // sum of all intermediate sets.
        guard->begin_rows_section();
      }
      const std::uint64_t rows_in = rows.rows.size();
      const auto clause_start = std::chrono::steady_clock::now();
      switch (clause.kind) {
        case Clause::Kind::kMatch: rows = eval_match(clause, rows); break;
        case Clause::Kind::kWhere: rows = eval_where(clause, rows); break;
        case Clause::Kind::kWith:
        case Clause::Kind::kReturn:
          rows = eval_projection(clause, rows);
          break;
        case Clause::Kind::kUnwind: rows = eval_unwind(clause, rows); break;
        case Clause::Kind::kCall: rows = eval_call(clause, rows); break;
      }
      if (options_.profile != nullptr) {
        obs::QueryProfile::ClauseStats stats;
        stats.clause = clause_display_name(clause);
        stats.rows_in = rows_in;
        stats.rows_out = rows.rows.size();
        stats.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - clause_start)
                            .count();
        options_.profile->add_clause(std::move(stats));
      }
    }
    return rows;
  }

  [[nodiscard]] static std::string clause_display_name(const Clause& clause) {
    switch (clause.kind) {
      case Clause::Kind::kMatch: return "MATCH";
      case Clause::Kind::kWhere: return "WHERE";
      case Clause::Kind::kWith: return "WITH";
      case Clause::Kind::kReturn: return "RETURN";
      case Clause::Kind::kUnwind: return "UNWIND";
      case Clause::Kind::kCall: return "CALL " + clause.call_procedure;
    }
    return "?";
  }

  const ExecutionGraph& graph_;
  const std::map<std::string, ProcedureDef, std::less<>>& procedures_;
  const QueryParams& params_;
  const QueryOptions& options_;
  /// Property names resolved to store key ids once per statement (the
  /// Evaluator lives for one statement); rows after the first pay a pointer
  /// hash instead of a string hash per access. Guarded by a mutex because
  /// parallel clause fan-out evaluates expressions from several threads.
  mutable std::unordered_map<const Expr*, graph::PropKeyId> prop_key_cache_;
  /// Interned-column views resolved once per property expression, so the
  /// comparison fast path pays a pointer hash (not a store lock) per row.
  mutable std::unordered_map<const Expr*, graph::InternedColumnView>
      interned_view_cache_;
  mutable std::mutex prop_key_mutex_;

  [[noreturn]] static void fail(const std::string& what) {
    throw QueryError("query evaluation error: " + what);
  }

  [[nodiscard]] graph::PropKeyId resolve_prop_key(const Expr& e) const {
    const std::lock_guard lock(prop_key_mutex_);
    auto [it, inserted] = prop_key_cache_.try_emplace(&e, graph::kNoPropKey);
    if (inserted) it->second = graph_.store().prop_key_id(e.name);
    return it->second;
  }

  /// Cached interned-column view for a property expression (invalid view
  /// when the key is not an interned column). Same quiesced-read contract
  /// as the typed property() reference the generic path uses.
  [[nodiscard]] graph::InternedColumnView interned_view(const Expr& e) const {
    const graph::PropKeyId key = resolve_prop_key(e);
    const std::lock_guard lock(prop_key_mutex_);
    auto it = interned_view_cache_.find(&e);
    if (it != interned_view_cache_.end()) return it->second;
    graph::InternedColumnView view;
    if (key != graph::kNoPropKey) view = graph_.store().interned_column(key);
    interned_view_cache_.emplace(&e, view);
    return view;
  }

  /// True when clause fan-out over `rows` input rows should use the pool.
  [[nodiscard]] bool fan_out(std::size_t rows) const {
    return options_.effective_threads() > 1 && rows >= 2 &&
           rows >= options_.min_parallel_items;
  }

  /// Row chunk size for clause fan-out: small enough to balance, large
  /// enough to amortize dispatch. Chunk boundaries (not scheduling) are what
  /// result ordering depends on, and they are fixed by this value.
  [[nodiscard]] std::size_t fan_out_grain(std::size_t rows) const {
    const std::size_t target =
        static_cast<std::size_t>(options_.effective_threads()) * 8;
    return std::max<std::size_t>(1, rows / std::max<std::size_t>(target, 1));
  }

  // ---- expressions ----------------------------------------------------------

  [[nodiscard]] Value eval_expr(const Expr& e, const RowSet& rows,
                                const std::vector<Value>& row) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral: return e.literal;
      case Expr::Kind::kVariable: {
        const int idx = rows.column_index(e.name);
        if (idx < 0) fail("unbound variable '" + e.name + "'");
        return row[static_cast<std::size_t>(idx)];
      }
      case Expr::Kind::kProperty: {
        const Value base = eval_expr(*e.lhs, rows, row);
        if (base.is_null()) return Value();
        if (!base.is_node()) fail("property access on non-node value");
        // Typed lookup returns a reference into the store — no intermediate
        // PropertyValue copy per row.
        return Value::from_property(
            graph_.store().property(base.as_node().id, resolve_prop_key(e)));
      }
      case Expr::Kind::kBinary: return eval_binary(e, rows, row);
      case Expr::Kind::kUnary: {
        const Value v = eval_expr(*e.lhs, rows, row);
        if (e.unary_op == UnaryOp::kNot) return Value(!v.truthy());
        if (!v.is_number()) fail("negation of non-number");
        if (v.is_int()) {
          if (v.as_int() == std::numeric_limits<std::int64_t>::min()) {
            fail("integer overflow in negation");
          }
          return Value(-v.as_int());
        }
        return Value(-v.as_number());
      }
      case Expr::Kind::kFunction: return eval_scalar_function(e, rows, row);
      case Expr::Kind::kList: {
        ValueList list;
        list.reserve(e.args.size());
        for (const auto& a : e.args) {
          list.push_back(eval_expr(*a, rows, row));
        }
        return Value(std::move(list));
      }
      case Expr::Kind::kStar:
        fail("'*' is only valid inside count(*) or as RETURN *");
      case Expr::Kind::kParameter: {
        auto it = params_.find(e.name);
        if (it == params_.end()) {
          fail("missing query parameter '$" + e.name + "'");
        }
        return it->second;
      }
    }
    return Value();
  }

  /// The property expression `var.key` when `x` has exactly that shape
  /// (a property access whose object is a plain variable), else nullptr.
  [[nodiscard]] static const Expr* prop_on_variable(const Expr& x) noexcept {
    if (x.kind != Expr::Kind::kProperty || !x.lhs ||
        x.lhs->kind != Expr::Kind::kVariable) {
      return nullptr;
    }
    return &x;
  }

  /// Row-independent operand: a literal, or a bound parameter. Returns a
  /// pointer into the AST/params (no copy), or nullptr.
  [[nodiscard]] const Value* constant_operand(const Expr& x) const {
    if (x.kind == Expr::Kind::kLiteral) return &x.literal;
    if (x.kind == Expr::Kind::kParameter) {
      auto it = params_.find(x.name);
      if (it != params_.end()) return &it->second;
    }
    return nullptr;
  }

  /// Comparison fast path: `var.key <op> constant` (either side) compares
  /// the stored property in place — no temporary Value, no string copy per
  /// row — and `a.key <op> b.key` over one interned column compares pooled
  /// u32 ids. Returns false (c untouched) when the shape doesn't apply or a
  /// corner case needs the generic path; never changes semantics.
  [[nodiscard]] bool try_compare_fast(const Expr& e, const RowSet& rows,
                                      const std::vector<Value>& row,
                                      int& c) const {
    const Expr* lp = prop_on_variable(*e.lhs);
    const Expr* rp = prop_on_variable(*e.rhs);
    if (lp != nullptr) {
      const int idx = rows.column_index(lp->lhs->name);
      if (idx < 0) return false;  // unbound: generic path reports the error
      const Value& base = row[static_cast<std::size_t>(idx)];
      if (!base.is_node()) return false;
      const graph::NodeId node = base.as_node().id;
      if (rp != nullptr) {
        // Both sides are property accesses. When both hit the same interned
        // column, distinct pool ids mean distinct strings: eq/neq never
        // touch the pool, ordering compares the pooled strings in place.
        const int ridx = rows.column_index(rp->lhs->name);
        if (ridx < 0) return false;
        const Value& rbase = row[static_cast<std::size_t>(ridx)];
        if (!rbase.is_node()) return false;
        if (resolve_prop_key(*lp) != resolve_prop_key(*rp)) return false;
        const graph::InternedColumnView col = interned_view(*lp);
        if (!col.valid()) return false;
        const std::uint32_t a = col.id_of(node);
        const std::uint32_t b = col.id_of(rbase.as_node().id);
        if (a == b) {  // same string — or both absent (null == null)
          c = 0;
          return true;
        }
        if (a == graph::InternedColumnView::kAbsent ||
            b == graph::InternedColumnView::kAbsent) {
          c = -2;
          return true;
        }
        if (e.binary_op == BinaryOp::kEq || e.binary_op == BinaryOp::kNeq) {
          c = 1;  // distinct ids: "differs" is all eq/neq need
          return true;
        }
        c = col.name(a).compare(col.name(b)) < 0 ? -1 : 1;
        return true;
      }
      const Value* rv = constant_operand(*e.rhs);
      if (rv == nullptr) return false;
      c = compare_property_value(
          graph_.store().property(node, resolve_prop_key(*lp)), *rv);
      return true;
    }
    if (rp != nullptr) {
      // constant <op> var.key — compare flipped, then negate.
      const Value* lv = constant_operand(*e.lhs);
      if (lv == nullptr) return false;
      const int ridx = rows.column_index(rp->lhs->name);
      if (ridx < 0) return false;
      const Value& rbase = row[static_cast<std::size_t>(ridx)];
      if (!rbase.is_node()) return false;
      const int inner = compare_property_value(
          graph_.store().property(rbase.as_node().id, resolve_prop_key(*rp)),
          *lv);
      c = inner == -2 ? -2 : -inner;
      return true;
    }
    return false;
  }

  [[nodiscard]] Value eval_binary(const Expr& e, const RowSet& rows,
                                  const std::vector<Value>& row) const {
    // Short-circuit logic first.
    if (e.binary_op == BinaryOp::kAnd) {
      if (!eval_expr(*e.lhs, rows, row).truthy()) return Value(false);
      return Value(eval_expr(*e.rhs, rows, row).truthy());
    }
    if (e.binary_op == BinaryOp::kOr) {
      if (eval_expr(*e.lhs, rows, row).truthy()) return Value(true);
      return Value(eval_expr(*e.rhs, rows, row).truthy());
    }

    if (is_comparison_op(e.binary_op)) {
      int c = -2;
      if (try_compare_fast(e, rows, row, c)) {
        return compare_verdict(e.binary_op, c);
      }
      const Value a = eval_expr(*e.lhs, rows, row);
      const Value b = eval_expr(*e.rhs, rows, row);
      return compare_verdict(e.binary_op, compare_values(a, b));
    }

    const Value a = eval_expr(*e.lhs, rows, row);
    const Value b = eval_expr(*e.rhs, rows, row);
    switch (e.binary_op) {
      case BinaryOp::kContains:
        if (!a.is_string() || !b.is_string()) return Value(false);
        return Value(contains(a.as_string(), b.as_string()));
      case BinaryOp::kStartsWith:
        if (!a.is_string() || !b.is_string()) return Value(false);
        return Value(starts_with(a.as_string(), b.as_string()));
      case BinaryOp::kEndsWith:
        if (!a.is_string() || !b.is_string()) return Value(false);
        return Value(ends_with(a.as_string(), b.as_string()));
      case BinaryOp::kIn: {
        if (!b.is_list()) return Value(false);
        for (const Value& v : b.as_list()) {
          if (compare_values(a, v) == 0) return Value(true);
        }
        return Value(false);
      }
      case BinaryOp::kAdd:
        if (a.is_string() || b.is_string()) {
          return Value(a.to_display_string() + b.to_display_string());
        }
        if (a.is_int() && b.is_int()) return Value(a.as_int() + b.as_int());
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() + b.as_number());
        }
        fail("'+' on incompatible types");
      case BinaryOp::kSub:
        if (a.is_int() && b.is_int()) return Value(a.as_int() - b.as_int());
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() - b.as_number());
        }
        fail("'-' on non-numbers");
      case BinaryOp::kMul:
        if (a.is_int() && b.is_int()) return Value(a.as_int() * b.as_int());
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() * b.as_number());
        }
        fail("'*' on non-numbers");
      case BinaryOp::kDiv:
        if (a.is_int() && b.is_int()) {
          if (b.as_int() == 0) fail("division by zero");
          return Value(a.as_int() / b.as_int());
        }
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() / b.as_number());
        }
        fail("'/' on non-numbers");
      case BinaryOp::kMod:
        if (a.is_int() && b.is_int()) {
          if (b.as_int() == 0) fail("modulo by zero");
          return Value(a.as_int() % b.as_int());
        }
        fail("'%' on non-integers");
      default:
        break;  // logic/comparisons handled above
    }
    return Value();
  }

  [[nodiscard]] Value eval_scalar_function(const Expr& e, const RowSet& rows,
                                           const std::vector<Value>& row) const {
    const std::string name = to_lower(e.name);
    if (is_aggregate_function(name)) {
      fail("aggregate function '" + e.name +
           "' outside of WITH/RETURN projection");
    }
    auto arg = [&](std::size_t i) { return eval_expr(*e.args.at(i), rows, row); };
    if (name == "size") {
      const Value v = arg(0);
      if (v.is_list()) {
        return Value(static_cast<std::int64_t>(v.as_list().size()));
      }
      if (v.is_string()) {
        return Value(static_cast<std::int64_t>(v.as_string().size()));
      }
      return Value();
    }
    if (name == "head") {
      const Value v = arg(0);
      if (v.is_list() && !v.as_list().empty()) return v.as_list().front();
      return Value();
    }
    if (name == "last") {
      const Value v = arg(0);
      if (v.is_list() && !v.as_list().empty()) return v.as_list().back();
      return Value();
    }
    if (name == "tostring") return Value(arg(0).to_display_string());
    if (name == "id") {
      const Value v = arg(0);
      if (v.is_node()) return Value(static_cast<std::int64_t>(v.as_node().id));
      return Value();
    }
    if (name == "label" || name == "type") {
      const Value v = arg(0);
      if (v.is_node()) return Value(graph_.store().node_label(v.as_node().id));
      return Value();
    }
    if (name == "toupper") {
      const Value v = arg(0);
      if (!v.is_string()) return Value();
      std::string out = v.as_string();
      for (char& c : out) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      return Value(std::move(out));
    }
    if (name == "tolower") {
      const Value v = arg(0);
      if (!v.is_string()) return Value();
      return Value(to_lower(v.as_string()));
    }
    if (name == "substring") {
      const Value v = arg(0);
      if (!v.is_string()) return Value();
      const auto start = static_cast<std::size_t>(
          std::max<std::int64_t>(0, arg(1).as_int()));
      const std::string& str = v.as_string();
      if (start >= str.size()) return Value(std::string{});
      if (e.args.size() >= 3) {
        const auto len = static_cast<std::size_t>(
            std::max<std::int64_t>(0, arg(2).as_int()));
        return Value(str.substr(start, len));
      }
      return Value(str.substr(start));
    }
    if (name == "split") {
      const Value v = arg(0);
      const Value d = arg(1);
      if (!v.is_string() || !d.is_string() || d.as_string().empty()) {
        return Value();
      }
      ValueList parts;
      const std::string& str = v.as_string();
      const std::string& delim = d.as_string();
      std::size_t pos = 0;
      while (true) {
        const std::size_t hit = str.find(delim, pos);
        if (hit == std::string::npos) {
          parts.emplace_back(str.substr(pos));
          break;
        }
        parts.emplace_back(str.substr(pos, hit - pos));
        pos = hit + delim.size();
      }
      return Value(std::move(parts));
    }
    if (name == "replace") {
      const Value v = arg(0);
      const Value from = arg(1);
      const Value to = arg(2);
      if (!v.is_string() || !from.is_string() || !to.is_string() ||
          from.as_string().empty()) {
        return Value();
      }
      std::string out = v.as_string();
      std::size_t pos = 0;
      while ((pos = out.find(from.as_string(), pos)) != std::string::npos) {
        out.replace(pos, from.as_string().size(), to.as_string());
        pos += to.as_string().size();
      }
      return Value(std::move(out));
    }
    if (name == "trim") {
      const Value v = arg(0);
      if (!v.is_string()) return Value();
      return Value(std::string(horus::trim(v.as_string())));
    }
    if (name == "abs") {
      const Value v = arg(0);
      if (v.is_int()) return Value(v.as_int() < 0 ? -v.as_int() : v.as_int());
      if (v.is_number()) {
        return Value(v.as_number() < 0 ? -v.as_number() : v.as_number());
      }
      return Value();
    }
    if (name == "tointeger") {
      const Value v = arg(0);
      if (v.is_int()) return v;
      if (v.is_number()) return Value(static_cast<std::int64_t>(v.as_number()));
      if (v.is_string()) {
        try {
          return Value(static_cast<std::int64_t>(std::stoll(v.as_string())));
        } catch (...) {
          return Value();
        }
      }
      return Value();
    }
    if (name == "coalesce") {
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        Value v = arg(i);
        if (!v.is_null()) return v;
      }
      return Value();
    }
    fail("unknown function '" + e.name + "'");
  }

  // ---- MATCH ----------------------------------------------------------------

  /// Inline pattern properties, evaluated against the incoming row. Keys
  /// are resolved to store ids here — candidate filtering below never hashes
  /// a key string per node.
  using EvaluatedProps = std::vector<std::pair<graph::PropKeyId, Value>>;

  [[nodiscard]] EvaluatedProps eval_pattern_props(
      const NodePattern& pattern, const RowSet& rows,
      const std::vector<Value>& row) const {
    const graph::GraphStore& store = graph_.store();
    EvaluatedProps out;
    out.reserve(pattern.properties.size());
    for (const auto& [key, expr] : pattern.properties) {
      out.emplace_back(store.prop_key_id(key), eval_expr(*expr, rows, row));
    }
    return out;
  }

  [[nodiscard]] bool node_matches(graph::NodeId node,
                                  const NodePattern& pattern,
                                  const EvaluatedProps& props) const {
    const graph::GraphStore& store = graph_.store();
    if (!pattern.label.empty() && pattern.label != "EVENT" &&
        store.node_label(node) != pattern.label) {
      return false;
    }
    for (const auto& [key, want] : props) {
      // Typed lookup: reference into the store, compared in place — no
      // PropertyValue or Value copy per candidate row.
      if (compare_property_value(store.property(node, key), want) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Candidate nodes for a pattern head: narrowest available index.
  [[nodiscard]] std::vector<graph::NodeId> candidates(
      const NodePattern& pattern, const EvaluatedProps& props) const {
    const graph::GraphStore& store = graph_.store();
    // Prefer an indexed property lookup.
    for (const auto& [key, want] : props) {
      graph::PropertyValue pv;
      if (want.is_bool()) {
        pv = want.as_bool();
      } else if (want.is_int()) {
        pv = want.as_int();
      } else if (want.is_double()) {
        pv = want.as_number();
      } else if (want.is_string()) {
        pv = want.as_string();
      } else {
        continue;
      }
      // find_nodes falls back to a scan if unindexed; only use it when an
      // index exists so we do not scan repeatedly per property.
      std::vector<graph::NodeId> found = store.find_nodes(key, pv);
      std::erase_if(found, [&](graph::NodeId n) {
        return !node_matches(n, pattern, props);
      });
      return found;
    }
    if (!pattern.label.empty() && pattern.label != "EVENT") {
      std::vector<graph::NodeId> found = store.nodes_with_label(pattern.label);
      std::erase_if(found, [&](graph::NodeId n) {
        return !node_matches(n, pattern, props);
      });
      return found;
    }
    std::vector<graph::NodeId> found = store.all_nodes();
    std::erase_if(found, [&](graph::NodeId n) {
      return !node_matches(n, pattern, props);
    });
    return found;
  }

  /// Nodes reachable from `from` within [min_hops, max_hops] hops along
  /// edges of the requested type/direction (max_hops == 0 = unbounded).
  /// BFS over (node, depth) states — polynomial even on diamond-rich
  /// happens-before graphs.
  [[nodiscard]] std::vector<graph::NodeId> var_length_endpoints(
      graph::NodeId from, const PatternStep& step,
      std::optional<graph::EdgeTypeId> want_type, bool right) const {
    const graph::GraphStore& store = graph_.store();
    const std::uint32_t max_hops =
        step.max_hops == 0 ? std::numeric_limits<std::uint32_t>::max()
                           : step.max_hops;

    std::vector<graph::NodeId> result;
    if (step.min_hops <= 1 && step.max_hops == 0) {
      // Common fast path: plain reachability flood (any depth >= 1).
      std::vector<bool> seen(store.node_count(), false);
      std::vector<graph::NodeId> stack;
      auto expand = [&](graph::NodeId v) {
        const auto edges = right ? store.out_edges(v) : store.in_edges(v);
        for (const graph::Edge& e : edges) {
          if (want_type && e.type != *want_type) continue;
          if (!seen[e.to]) {
            seen[e.to] = true;
            result.push_back(e.to);
            stack.push_back(e.to);
          }
        }
      };
      expand(from);
      while (!stack.empty()) {
        const graph::NodeId v = stack.back();
        stack.pop_back();
        expand(v);
      }
      return result;
    }

    // General case: BFS over (node, depth) states up to max_hops.
    std::set<std::pair<graph::NodeId, std::uint32_t>> visited;
    std::set<graph::NodeId> endpoints;
    std::vector<std::pair<graph::NodeId, std::uint32_t>> frontier{{from, 0}};
    while (!frontier.empty()) {
      const auto [v, depth] = frontier.back();
      frontier.pop_back();
      if (depth >= max_hops) continue;
      const auto edges = right ? store.out_edges(v) : store.in_edges(v);
      for (const graph::Edge& e : edges) {
        if (want_type && e.type != *want_type) continue;
        const std::uint32_t next_depth = depth + 1;
        if (next_depth >= step.min_hops) endpoints.insert(e.to);
        if (visited.emplace(e.to, next_depth).second) {
          frontier.emplace_back(e.to, next_depth);
        }
      }
    }
    result.assign(endpoints.begin(), endpoints.end());
    return result;
  }

  /// Extends bindings with one path pattern; appends complete rows to out.
  void match_path(const PathPattern& path, const RowSet& schema,
                  std::vector<Value> row,
                  std::vector<std::string>& new_columns,
                  std::vector<std::vector<Value>>& out) const {
    // Binding map: variable -> column (existing schema or appended).
    // We evaluate the head, then steps left-to-right.
    auto bound_node = [&](const std::string& var,
                          const std::vector<Value>& current)
        -> std::optional<graph::NodeId> {
      if (var.empty()) return std::nullopt;
      const int idx = schema.column_index(var);
      if (idx >= 0) {
        const Value& v = current[static_cast<std::size_t>(idx)];
        if (v.is_node()) return v.as_node().id;
        if (!v.is_null()) fail("variable '" + var + "' is not a node");
      }
      // Check newly bound columns in this pattern.
      for (std::size_t i = schema.columns.size(); i < current.size(); ++i) {
        const std::size_t nc = i - schema.columns.size();
        if (nc < new_columns.size() && new_columns[nc] == var &&
            current[i].is_node()) {
          return current[i].as_node().id;
        }
      }
      return std::nullopt;
    };

    auto bind = [&](const std::string& var, graph::NodeId node,
                    std::vector<Value>& current) {
      if (var.empty()) return;
      if (bound_node(var, current)) return;  // already bound (checked equal)
      // Append as a new column if not yet present.
      std::size_t col = std::string::npos;
      for (std::size_t i = 0; i < new_columns.size(); ++i) {
        if (new_columns[i] == var) col = i;
      }
      if (col == std::string::npos) {
        new_columns.push_back(var);
        col = new_columns.size() - 1;
      }
      const std::size_t abs = schema.columns.size() + col;
      if (current.size() <= abs) current.resize(abs + 1);
      current[abs] = Value(NodeRef{node});
    };

    const graph::GraphStore& store = graph_.store();

    // Pattern property expressions are evaluated once per incoming row (they
    // may reference variables from earlier clauses, not pattern-local ones).
    const EvaluatedProps head_props = eval_pattern_props(path.head, schema, row);
    std::vector<EvaluatedProps> step_props;
    step_props.reserve(path.steps.size());
    for (const PatternStep& step : path.steps) {
      step_props.push_back(eval_pattern_props(step.node, schema, row));
    }

    // Recursive step matcher.
    std::function<void(std::size_t, graph::NodeId, std::vector<Value>&)>
        match_steps = [&](std::size_t step_index, graph::NodeId prev,
                          std::vector<Value>& current) {
          if (step_index == path.steps.size()) {
            out.push_back(current);
            return;
          }
          const PatternStep& step = path.steps[step_index];
          const bool right = step.direction == PatternStep::Direction::kRight;
          const auto want_type = step.edge_type.empty()
                                     ? std::nullopt
                                     : store.edge_type_id(step.edge_type);
          if (!step.edge_type.empty() && !want_type) return;  // no such type

          const auto pre_bound = bound_node(step.node.variable, current);
          auto try_endpoint = [&](graph::NodeId next) {
            if (pre_bound && *pre_bound != next) return;
            if (!node_matches(next, step.node, step_props[step_index])) {
              return;
            }
            std::vector<Value> extended = current;
            bind(step.node.variable, next, extended);
            match_steps(step_index + 1, next, extended);
          };

          if (step.min_hops == 1 && step.max_hops == 1) {
            const auto edges =
                right ? store.out_edges(prev) : store.in_edges(prev);
            for (const graph::Edge& edge : edges) {
              if (want_type && edge.type != *want_type) continue;
              try_endpoint(edge.to);
            }
            return;
          }

          // Variable-length relationship: endpoints reachable within the
          // hop bounds. Dialect note: one row per *distinct endpoint* (not
          // per path, as full Cypher would enumerate).
          for (const graph::NodeId endpoint :
               var_length_endpoints(prev, step, want_type, right)) {
            try_endpoint(endpoint);
          }
        };

    // Head candidates: reuse a prior binding when available.
    const auto head_bound = bound_node(path.head.variable, row);
    std::vector<graph::NodeId> heads;
    if (head_bound) {
      if (node_matches(*head_bound, path.head, head_props)) {
        heads.push_back(*head_bound);
      }
    } else {
      heads = candidates(path.head, head_props);
    }
    for (const graph::NodeId head : heads) {
      std::vector<Value> current = row;
      bind(path.head.variable, head, current);
      match_steps(0, head, current);
    }
  }

  [[nodiscard]] RowSet eval_match(const Clause& clause,
                                  const RowSet& input) const {
    QueryGuard* guard = options_.guard;
    RowSet current = input;
    for (const PathPattern& path : clause.patterns) {
      if (guard != nullptr && guard->stopped()) break;
      RowSet next;
      next.columns = current.columns;
      std::vector<std::string> new_columns;
      if (!fan_out(current.rows.size())) {
        for (const auto& row : current.rows) {
          const std::size_t before = next.rows.size();
          match_path(path, current, row, new_columns, next.rows);
          if (guard != nullptr &&
              !guard->admit_rows(next.rows.size() - before)) {
            break;
          }
        }
      } else {
        match_path_parallel(path, current, new_columns, next.rows);
      }
      for (const std::string& c : new_columns) next.columns.push_back(c);
      // Normalize row widths (rows bound before later columns existed).
      for (auto& row : next.rows) row.resize(next.columns.size());
      current = std::move(next);
    }
    return current;
  }

  /// Parallel MATCH fan-out: each fixed chunk of input rows expands into a
  /// chunk-local (new_columns, rows) pair; chunks are then merged in chunk
  /// order. A pattern variable's merged column position is determined by
  /// the first row (in input order) that binds it — exactly the sequential
  /// accumulation order — so the merged RowSet is identical to the
  /// sequential one for any thread count.
  void match_path_parallel(const PathPattern& path, const RowSet& current,
                           std::vector<std::string>& new_columns,
                           std::vector<std::vector<Value>>& out) const {
    struct ChunkOut {
      std::vector<std::string> new_columns;
      std::vector<std::vector<Value>> rows;
    };
    QueryGuard* guard = options_.guard;
    const std::size_t n = current.rows.size();
    const std::size_t grain = fan_out_grain(n);
    std::vector<ChunkOut> chunks(ThreadPool::chunk_count(n, grain));
    options_.effective_pool().parallel_for(
        n, grain, options_.effective_threads(),
        [&](ThreadPool::ChunkRange chunk) {
          ChunkOut& local = chunks[chunk.index];
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            const std::size_t before = local.rows.size();
            match_path(path, current, current.rows[i], local.new_columns,
                       local.rows);
            if (guard != nullptr &&
                !guard->admit_rows(local.rows.size() - before)) {
              return;
            }
          }
        });

    // Merged column order: first-seen across chunks in chunk order. A
    // column's first-seen chunk is the chunk holding the first row that
    // binds it, and within a chunk discovery follows row order, so this is
    // the sequential discovery order.
    for (const ChunkOut& chunk : chunks) {
      for (const std::string& c : chunk.new_columns) {
        if (std::find(new_columns.begin(), new_columns.end(), c) ==
            new_columns.end()) {
          new_columns.push_back(c);
        }
      }
    }
    const std::size_t base = current.columns.size();
    for (ChunkOut& chunk : chunks) {
      // Local column j lands at merged position mapping[j].
      std::vector<std::size_t> mapping(chunk.new_columns.size());
      bool identity = true;
      for (std::size_t j = 0; j < chunk.new_columns.size(); ++j) {
        const auto it = std::find(new_columns.begin(), new_columns.end(),
                                  chunk.new_columns[j]);
        mapping[j] = static_cast<std::size_t>(it - new_columns.begin());
        identity = identity && mapping[j] == j;
      }
      if (identity) {
        for (auto& row : chunk.rows) out.push_back(std::move(row));
        continue;
      }
      for (auto& row : chunk.rows) {
        std::vector<Value> remapped(base + new_columns.size());
        for (std::size_t c = 0; c < base && c < row.size(); ++c) {
          remapped[c] = std::move(row[c]);
        }
        for (std::size_t j = 0; j < mapping.size(); ++j) {
          if (base + j < row.size()) {
            remapped[base + mapping[j]] = std::move(row[base + j]);
          }
        }
        out.push_back(std::move(remapped));
      }
    }
  }

  // ---- WHERE ----------------------------------------------------------------

  [[nodiscard]] RowSet eval_where(const Clause& clause,
                                  const RowSet& input) const {
    QueryGuard* guard = options_.guard;
    RowSet out;
    out.columns = input.columns;
    if (!fan_out(input.rows.size())) {
      for (const auto& row : input.rows) {
        if (guard != nullptr && !guard->keep_going()) break;
        if (eval_expr(*clause.predicate, input, row).truthy()) {
          out.rows.push_back(row);
        }
      }
      return out;
    }
    // Chunked filter; per-chunk survivors concatenate in chunk order, so
    // row order matches the sequential filter.
    const std::size_t n = input.rows.size();
    const std::size_t grain = fan_out_grain(n);
    std::vector<std::vector<std::vector<Value>>> chunks(
        ThreadPool::chunk_count(n, grain));
    options_.effective_pool().parallel_for(
        n, grain, options_.effective_threads(),
        [&](ThreadPool::ChunkRange chunk) {
          auto& local = chunks[chunk.index];
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            if (guard != nullptr && !guard->keep_going()) return;
            if (eval_expr(*clause.predicate, input, input.rows[i]).truthy()) {
              local.push_back(input.rows[i]);
            }
          }
        });
    for (auto& local : chunks) {
      for (auto& row : local) out.rows.push_back(std::move(row));
    }
    return out;
  }

  // ---- WITH / RETURN ---------------------------------------------------------

  struct AggState {
    std::int64_t count = 0;
    ValueList collected;
    Value min_value;
    Value max_value;
    double sum = 0;
    std::int64_t sum_int = 0;
    bool all_int = true;
    std::set<std::string> seen;  // for DISTINCT aggregates
  };

  /// Evaluates expression `e` in aggregate context for one input row,
  /// folding into per-aggregate state. Returns nothing; finalization happens
  /// in finalize_aggregate.
  void fold_aggregate(const Expr& e, const RowSet& rows,
                      const std::vector<Value>& row, AggState& state) const {
    const std::string name = to_lower(e.name);
    Value v;
    const bool star = !e.args.empty() && e.args[0]->kind == Expr::Kind::kStar;
    if (!star && !e.args.empty()) v = eval_expr(*e.args[0], rows, row);
    if (name == "count") {
      if (star) {
        ++state.count;
        return;
      }
      if (v.is_null()) return;
      if (e.distinct) {
        const std::string key = v.to_display_string();
        if (!state.seen.insert(key).second) return;
      }
      ++state.count;
      return;
    }
    if (v.is_null()) return;
    if (e.distinct) {
      const std::string key = v.to_display_string();
      if (!state.seen.insert(key).second) return;
    }
    if (name == "collect") {
      state.collected.push_back(v);
    } else if (name == "min") {
      if (state.min_value.is_null() || compare_values(v, state.min_value) == -1) {
        state.min_value = v;
      }
    } else if (name == "max") {
      if (state.max_value.is_null() || compare_values(v, state.max_value) == 1) {
        state.max_value = v;
      }
    } else if (name == "sum" || name == "avg") {
      if (!v.is_number()) fail("sum/avg of non-number");
      ++state.count;
      state.sum += v.as_number();
      if (v.is_int()) {
        state.sum_int += v.as_int();
      } else {
        state.all_int = false;
      }
    }
  }

  [[nodiscard]] Value finalize_aggregate(const Expr& e,
                                         const AggState& state) const {
    const std::string name = to_lower(e.name);
    if (name == "count") return Value(state.count);
    if (name == "collect") return Value(state.collected);
    if (name == "min") return state.min_value;
    if (name == "max") return state.max_value;
    if (name == "sum") {
      return state.all_int ? Value(state.sum_int) : Value(state.sum);
    }
    if (name == "avg") {
      return state.count == 0 ? Value() : Value(state.sum / double(state.count));
    }
    fail("unknown aggregate '" + e.name + "'");
  }

  /// Evaluates a projection expression *after* grouping, substituting each
  /// aggregate sub-expression with its finalized value.
  [[nodiscard]] Value eval_with_aggregates(
      const Expr& e, const RowSet& rows, const std::vector<Value>& sample_row,
      const std::vector<std::pair<const Expr*, Value>>& finalized) const {
    for (const auto& [agg_expr, value] : finalized) {
      if (agg_expr == &e) return value;
    }
    if (e.kind == Expr::Kind::kBinary) {
      // Rebuild binary ops over substituted children.
      const Value a = eval_with_aggregates(*e.lhs, rows, sample_row, finalized);
      const Value b = eval_with_aggregates(*e.rhs, rows, sample_row, finalized);
      Expr lit_a;
      lit_a.kind = Expr::Kind::kLiteral;
      lit_a.literal = a;
      Expr lit_b;
      lit_b.kind = Expr::Kind::kLiteral;
      lit_b.literal = b;
      Expr combined;
      combined.kind = Expr::Kind::kBinary;
      combined.binary_op = e.binary_op;
      combined.lhs = std::make_unique<Expr>(std::move(lit_a));
      combined.rhs = std::make_unique<Expr>(std::move(lit_b));
      return eval_binary(combined, rows, sample_row);
    }
    return eval_expr(e, rows, sample_row);
  }

  /// Collects pointers to all aggregate calls within an expression.
  static void collect_aggregates(const Expr& e,
                                 std::vector<const Expr*>& out) {
    if (e.kind == Expr::Kind::kFunction && is_aggregate_function(e.name)) {
      out.push_back(&e);
      return;  // aggregates do not nest
    }
    if (e.lhs) collect_aggregates(*e.lhs, out);
    if (e.rhs) collect_aggregates(*e.rhs, out);
    for (const auto& a : e.args) {
      if (a) collect_aggregates(*a, out);
    }
  }

  [[nodiscard]] RowSet eval_projection(const Clause& clause,
                                       const RowSet& input) const {
    // RETURN * / WITH *: pass all current columns through (optionally
    // alongside further explicit items, Cypher-style "WITH *, expr AS x").
    Clause expanded;
    const Clause* effective = &clause;
    bool has_star = false;
    for (const auto& item : clause.projections) {
      if (item.expr->kind == Expr::Kind::kStar) has_star = true;
    }
    if (has_star) {
      expanded.kind = clause.kind;
      expanded.distinct = clause.distinct;
      for (const auto& column : input.columns) {
        ProjectionItem item;
        item.expr = std::make_unique<Expr>();
        item.expr->kind = Expr::Kind::kVariable;
        item.expr->name = column;
        item.alias = column;
        expanded.projections.push_back(std::move(item));
      }
      for (const auto& item : clause.projections) {
        if (item.expr->kind == Expr::Kind::kStar) continue;
        ProjectionItem copy;
        copy.expr = clone_expr(*item.expr);
        copy.alias = item.alias;
        expanded.projections.push_back(std::move(copy));
      }
      for (const auto& sort_item : clause.order_by) {
        SortItem copy;
        copy.expr = clone_expr(*sort_item.expr);
        copy.ascending = sort_item.ascending;
        expanded.order_by.push_back(std::move(copy));
      }
      expanded.limit = clause.limit;
      effective = &expanded;
    }
    return eval_projection_expanded(*effective, input);
  }

  /// Deep copy of an expression tree (used by RETURN * expansion).
  static ExprPtr clone_expr(const Expr& e) {
    auto out = std::make_unique<Expr>();
    out->kind = e.kind;
    out->literal = e.literal;
    out->name = e.name;
    out->binary_op = e.binary_op;
    out->unary_op = e.unary_op;
    out->distinct = e.distinct;
    if (e.lhs) out->lhs = clone_expr(*e.lhs);
    if (e.rhs) out->rhs = clone_expr(*e.rhs);
    for (const auto& a : e.args) {
      out->args.push_back(a ? clone_expr(*a) : nullptr);
    }
    return out;
  }

  [[nodiscard]] RowSet eval_projection_expanded(const Clause& clause,
                                                const RowSet& input) const {
    RowSet out;
    for (const auto& item : clause.projections) {
      out.columns.push_back(item.alias);
    }

    bool any_aggregate = false;
    for (const auto& item : clause.projections) {
      if (contains_aggregate(*item.expr)) any_aggregate = true;
    }

    // ORDER BY may reference projection aliases *or* pre-projection
    // variables (Cypher semantics), so sort keys are evaluated in a combined
    // context: input columns followed by output columns.
    RowSet sort_ctx;
    sort_ctx.columns = input.columns;
    for (const auto& c : out.columns) sort_ctx.columns.push_back(c);
    std::vector<std::vector<Value>> sort_keys;
    auto record_sort_keys = [&](const std::vector<Value>& source_row,
                                const std::vector<Value>& projected) {
      if (clause.order_by.empty()) return;
      std::vector<Value> ctx_row = source_row;
      ctx_row.insert(ctx_row.end(), projected.begin(), projected.end());
      std::vector<Value> keys;
      keys.reserve(clause.order_by.size());
      for (const SortItem& item : clause.order_by) {
        keys.push_back(eval_expr(*item.expr, sort_ctx, ctx_row));
      }
      sort_keys.push_back(std::move(keys));
    };

    QueryGuard* guard = options_.guard;
    if (!any_aggregate) {
      for (const auto& row : input.rows) {
        if (guard != nullptr && !guard->admit_rows()) break;
        std::vector<Value> projected;
        projected.reserve(clause.projections.size());
        for (const auto& item : clause.projections) {
          projected.push_back(eval_expr(*item.expr, input, row));
        }
        record_sort_keys(row, projected);
        out.rows.push_back(std::move(projected));
      }
    } else {
      // Group by the values of non-aggregate projections.
      struct Group {
        std::vector<Value> keys;             // per non-aggregate projection
        std::vector<Value> sample_row;       // representative input row
        std::vector<AggState> agg_states;    // per aggregate expression
      };
      std::vector<const Expr*> aggregates;
      for (const auto& item : clause.projections) {
        collect_aggregates(*item.expr, aggregates);
      }
      std::vector<std::size_t> key_items;  // projections with no aggregate
      for (std::size_t i = 0; i < clause.projections.size(); ++i) {
        if (!contains_aggregate(*clause.projections[i].expr)) {
          key_items.push_back(i);
        }
      }

      std::map<std::string, Group> groups;  // key-string -> group
      for (const auto& row : input.rows) {
        if (guard != nullptr && !guard->keep_going()) break;
        std::vector<Value> keys;
        std::string key_str;
        for (const std::size_t i : key_items) {
          Value v = eval_expr(*clause.projections[i].expr, input, row);
          key_str += v.to_display_string();
          key_str += '\x1f';
          keys.push_back(std::move(v));
        }
        auto [it, inserted] = groups.try_emplace(key_str);
        Group& g = it->second;
        if (inserted) {
          g.keys = std::move(keys);
          g.sample_row = row;
          g.agg_states.resize(aggregates.size());
        }
        for (std::size_t a = 0; a < aggregates.size(); ++a) {
          fold_aggregate(*aggregates[a], input, row, g.agg_states[a]);
        }
      }

      for (auto& [key, group] : groups) {
        std::vector<std::pair<const Expr*, Value>> finalized;
        finalized.reserve(aggregates.size());
        for (std::size_t a = 0; a < aggregates.size(); ++a) {
          finalized.emplace_back(aggregates[a],
                                 finalize_aggregate(*aggregates[a],
                                                    group.agg_states[a]));
        }
        std::vector<Value> projected;
        std::size_t key_cursor = 0;
        for (std::size_t i = 0; i < clause.projections.size(); ++i) {
          if (!contains_aggregate(*clause.projections[i].expr)) {
            projected.push_back(group.keys[key_cursor++]);
          } else {
            projected.push_back(eval_with_aggregates(
                *clause.projections[i].expr, input, group.sample_row,
                finalized));
          }
        }
        record_sort_keys(group.sample_row, projected);
        out.rows.push_back(std::move(projected));
      }
    }

    if (clause.distinct) {
      std::set<std::string> seen;
      std::vector<std::vector<Value>> unique;
      std::vector<std::vector<Value>> unique_keys;
      for (std::size_t i = 0; i < out.rows.size(); ++i) {
        std::string key;
        for (const Value& v : out.rows[i]) {
          key += v.to_display_string();
          key += '\x1f';
        }
        if (seen.insert(key).second) {
          unique.push_back(std::move(out.rows[i]));
          if (!sort_keys.empty()) unique_keys.push_back(std::move(sort_keys[i]));
        }
      }
      out.rows = std::move(unique);
      sort_keys = std::move(unique_keys);
    }

    if (!clause.order_by.empty()) {
      std::vector<std::size_t> order(out.rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         for (std::size_t k = 0; k < clause.order_by.size();
                              ++k) {
                           const int c = compare_values(sort_keys[a][k],
                                                        sort_keys[b][k]);
                           if (c == -1) return clause.order_by[k].ascending;
                           if (c == 1) return !clause.order_by[k].ascending;
                         }
                         return false;
                       });
      std::vector<std::vector<Value>> sorted;
      sorted.reserve(out.rows.size());
      for (const std::size_t i : order) sorted.push_back(std::move(out.rows[i]));
      out.rows = std::move(sorted);
    }

    if (clause.limit && out.rows.size() >
                            static_cast<std::size_t>(*clause.limit)) {
      out.rows.resize(static_cast<std::size_t>(*clause.limit));
    }
    return out;
  }

  // ---- UNWIND ---------------------------------------------------------------

  [[nodiscard]] RowSet eval_unwind(const Clause& clause,
                                   const RowSet& input) const {
    QueryGuard* guard = options_.guard;
    RowSet out;
    out.columns = input.columns;
    out.columns.push_back(clause.unwind_alias);
    for (const auto& row : input.rows) {
      if (guard != nullptr && guard->stopped()) break;
      const Value v = eval_expr(*clause.unwind_expr, input, row);
      if (v.is_null()) continue;
      if (v.is_list()) {
        for (const Value& item : v.as_list()) {
          if (guard != nullptr && !guard->admit_rows()) break;
          auto extended = row;
          extended.push_back(item);
          out.rows.push_back(std::move(extended));
        }
      } else {
        if (guard != nullptr && !guard->admit_rows()) break;
        auto extended = row;
        extended.push_back(v);
        out.rows.push_back(std::move(extended));
      }
    }
    return out;
  }

  // ---- CALL -----------------------------------------------------------------

  [[nodiscard]] RowSet eval_call(const Clause& clause,
                                 const RowSet& input) const {
    auto pit = procedures_.find(clause.call_procedure);
    if (pit == procedures_.end()) {
      fail("unknown procedure '" + clause.call_procedure + "'");
    }
    const ProcedureDef& proc = pit->second;

    // Which yield columns (and their order).
    std::vector<std::size_t> selected;
    const auto& names = clause.yield_names.empty() ? proc.yield_columns
                                                   : clause.yield_names;
    for (const std::string& name : names) {
      bool found = false;
      for (std::size_t i = 0; i < proc.yield_columns.size(); ++i) {
        if (proc.yield_columns[i] == name) {
          selected.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) {
        fail("procedure '" + clause.call_procedure + "' does not yield '" +
             name + "'");
      }
    }

    RowSet out;
    out.columns = input.columns;
    for (const std::string& name : names) out.columns.push_back(name);

    auto call_row = [&](const std::vector<Value>& row,
                        std::vector<std::vector<Value>>& sink) {
      std::vector<Value> args;
      args.reserve(clause.call_args.size());
      for (const auto& a : clause.call_args) {
        args.push_back(eval_expr(*a, input, row));
      }
      for (const auto& yielded : proc.fn(args)) {
        auto extended = row;
        for (const std::size_t i : selected) {
          extended.push_back(yielded.at(i));
        }
        sink.push_back(std::move(extended));
      }
    };

    QueryGuard* guard = options_.guard;
    if (!fan_out(input.rows.size())) {
      for (const auto& row : input.rows) {
        const std::size_t before = out.rows.size();
        call_row(row, out.rows);
        if (guard != nullptr && !guard->admit_rows(out.rows.size() - before)) {
          break;
        }
      }
      return out;
    }
    // Independent per-row procedure calls dispatched to the pool; yielded
    // rows concatenate in chunk order, matching the sequential loop.
    const std::size_t n = input.rows.size();
    const std::size_t grain = fan_out_grain(n);
    std::vector<std::vector<std::vector<Value>>> chunks(
        ThreadPool::chunk_count(n, grain));
    options_.effective_pool().parallel_for(
        n, grain, options_.effective_threads(),
        [&](ThreadPool::ChunkRange chunk) {
          auto& local = chunks[chunk.index];
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            const std::size_t before = local.size();
            call_row(input.rows[i], local);
            if (guard != nullptr &&
                !guard->admit_rows(local.size() - before)) {
              return;
            }
          }
        });
    for (auto& local : chunks) {
      for (auto& row : local) out.rows.push_back(std::move(row));
    }
    return out;
  }
};

}  // namespace horus::query::internal
