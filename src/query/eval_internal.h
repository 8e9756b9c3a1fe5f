// Internal row/expression machinery shared by the clause pipeline
// (evaluator.cpp) and the MATCH front end (exec.cpp). Not part of the
// public query API — include only from src/query translation units and
// the reference evaluator of the tests.
//
// The Evaluator here runs the clause pipeline: WHERE, WITH/RETURN, UNWIND
// and CALL, and hands MATCH to match_clause() (exec.cpp), which plans each
// pattern node (src/query/planner.h). Every clause reads the store the
// same way (DESIGN.md §12): it resolves the `var.key` accesses of its
// expressions once (PropBatch) and copies what a batch of up to kReadBatch
// rows needs under one store lock (GraphStore::copy_nodes). No clause holds
// a pointer into the store once the lock is released, so queries are safe
// while writers append.
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
#include <span>
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

/// Row-independent operand: a literal, or a parameter bound in `params`.
/// Returns a pointer into the AST/params (no copy), or nullptr.
[[nodiscard]] inline const Value* constant_operand(const Expr& x,
                                                   const QueryParams& params) {
  if (x.kind == Expr::Kind::kLiteral) return &x.literal;
  if (x.kind == Expr::Kind::kParameter) {
    auto it = params.find(x.name);
    if (it != params.end()) return &it->second;
  }
  return nullptr;
}

/// The stored form of a scalar constant, the key of an index probe;
/// nullopt for null, nodes and lists.
[[nodiscard]] inline std::optional<graph::PropertyValue> to_property(
    const Value& v) {
  if (v.is_bool()) return graph::PropertyValue(v.as_bool());
  if (v.is_int()) return graph::PropertyValue(v.as_int());
  if (v.is_double()) return graph::PropertyValue(v.as_number());
  if (v.is_string()) return graph::PropertyValue(v.as_string());
  return std::nullopt;
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
// Batched store reads
// ---------------------------------------------------------------------------

/// Most rows, or candidate nodes, whose store reads share one lock.
inline constexpr std::size_t kReadBatch = 1024;

/// The store reads of one clause. Each `var.key` access in the clause's
/// expressions is resolved once, to its variable's column and the store
/// key; fetch() then copies what a batch of rows needs with one
/// GraphStore::copy_nodes call per variable. A copy of a registered
/// PropBatch shares its resolution and owns its own buffers (one per thread
/// of a parallel clause).
class PropBatch {
 public:
  /// Registers each `var.key` access in `e` (nested ones and aggregate
  /// arguments included) whose variable `schema` binds. `key_of` maps an
  /// access to its store key.
  template <typename KeyOf>
  void add(const Expr& e, const RowSet& schema, const KeyOf& key_of) {
    if (e.kind == Expr::Kind::kProperty && e.lhs &&
        e.lhs->kind == Expr::Kind::kVariable) {
      const int slot = schema.column_index(e.lhs->name);
      if (slot >= 0 && access(e) == nullptr) {
        const std::size_t g = group(static_cast<std::size_t>(slot));
        accesses_.push_back(
            {&e, g, column(groups_[g].spec_values, key_of(e))});
      }
      return;
    }
    if (e.lhs) add(*e.lhs, schema, key_of);
    if (e.rhs) add(*e.rhs, schema, key_of);
    for (const auto& a : e.args) {
      if (a) add(*a, schema, key_of);
    }
  }

  /// Reads the label ids, the pool ids of interned column `key`, or the
  /// values of `key` of the nodes column `slot` binds; the returned column
  /// indexes copy(slot).ids / copy(slot).values.
  void add_labels(std::size_t slot) { group(slot); }
  std::size_t add_ids(std::size_t slot, graph::PropKeyId key) {
    return column(groups_[group(slot)].spec_ids, key);
  }
  std::size_t add_values(std::size_t slot, graph::PropKeyId key) {
    return column(groups_[group(slot)].spec_values, key);
  }

  /// Reads rows [begin, end) of `rows`, one copy_nodes call per variable;
  /// row i is the batch's row i - begin. No-op when nothing is registered.
  void fetch(const graph::GraphStore& store,
             const std::vector<std::vector<Value>>& rows, std::size_t begin,
             std::size_t end) {
    for (Group& g : groups_) {
      g.nodes.clear();
      g.pos.assign(end - begin, kNotNode);
      for (std::size_t r = begin; r < end; ++r) {
        const std::vector<Value>& row = rows[r];
        if (g.slot < row.size() && row[g.slot].is_node()) {
          g.pos[r - begin] = static_cast<std::uint32_t>(g.nodes.size());
          g.nodes.push_back(row[g.slot].as_node().id);
        }
      }
      read(store, g);
    }
  }

  /// Reads `nodes` as the batch's rows, each binding them in column 0 (the
  /// planned executor's one variable).
  void fetch(const graph::GraphStore& store,
             std::span<const graph::NodeId> nodes) {
    for (Group& g : groups_) {
      g.nodes.assign(nodes.begin(), nodes.end());
      g.pos.clear();
      read(store, g);
    }
  }

  /// The fetched value of access `e` in the batch's row `at`, or nullptr
  /// when `e` is not registered or that row's variable holds no node.
  [[nodiscard]] const graph::PropertyValue* value(const Expr& e,
                                                  std::size_t at) const {
    const Access* a = access(e);
    if (a == nullptr) return nullptr;
    const Group& g = groups_[a->group];
    const std::uint32_t i =
        g.pos.empty() ? static_cast<std::uint32_t>(at) : g.pos[at];
    return i == kNotNode ? nullptr : &g.copy.values[a->column][i];
  }

  /// The batch's copy for column `slot` after a node-list fetch (row i is
  /// node i).
  [[nodiscard]] const graph::NodeCopy& copy(std::size_t slot) const {
    for (const Group& g : groups_) {
      if (g.slot == slot) return g.copy;
    }
    return empty_;
  }

 private:
  static constexpr std::uint32_t kNotNode = ~std::uint32_t{0};

  struct Group {
    std::size_t slot = 0;
    std::vector<graph::PropKeyId> spec_ids{};
    std::vector<graph::PropKeyId> spec_values{};
    std::vector<graph::NodeId> nodes{};  // the batch's nodes
    std::vector<std::uint32_t> pos{};    // batch row -> index in nodes
    graph::NodeCopy copy{};
  };
  struct Access {
    const Expr* expr = nullptr;
    std::size_t group = 0;
    std::size_t column = 0;
  };

  [[nodiscard]] const Access* access(const Expr& e) const {
    for (const Access& a : accesses_) {
      if (a.expr == &e) return &a;
    }
    return nullptr;
  }
  std::size_t group(std::size_t slot) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].slot == slot) return g;
    }
    groups_.push_back(Group{.slot = slot});
    return groups_.size() - 1;
  }
  static std::size_t column(std::vector<graph::PropKeyId>& keys,
                            graph::PropKeyId key) {
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it != keys.end()) return static_cast<std::size_t>(it - keys.begin());
    keys.push_back(key);
    return keys.size() - 1;
  }
  static void read(const graph::GraphStore& store, Group& g) {
    if (g.nodes.empty()) return;
    store.copy_nodes(g.nodes, {.ids = g.spec_ids, .values = g.spec_values},
                     g.copy);
  }

  std::vector<Group> groups_;
  std::vector<Access> accesses_;
  inline static const graph::NodeCopy empty_{};
};

// ---------------------------------------------------------------------------
// Expression evaluation + clause pipeline
// ---------------------------------------------------------------------------

class Evaluator;

/// Runs a MATCH clause over `rows` (exec.cpp): each pattern's head is a
/// planned scan, or a bound node, and every pattern node passes one
/// compiled filter of its label and inline properties.
[[nodiscard]] RowSet match_clause(const Evaluator& ev, const Clause& clause,
                                  RowSet rows);

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
  /// [0, first), the pipeline finishes [first, end).
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
        case Clause::Kind::kMatch:
          rows = match_clause(*this, clause, std::move(rows));
          break;
        case Clause::Kind::kWhere:
          rows = eval_where(clause, std::move(rows));
          break;
        case Clause::Kind::kWith:
        case Clause::Kind::kReturn:
          rows = eval_projection(clause, std::move(rows));
          break;
        case Clause::Kind::kUnwind:
          rows = eval_unwind(clause, std::move(rows));
          break;
        case Clause::Kind::kCall:
          rows = eval_call(clause, std::move(rows));
          break;
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
  /// Evaluator lives for one statement). Guarded by a mutex because
  /// parallel clause fan-out evaluates expressions from several threads.
  mutable std::unordered_map<const Expr*, graph::PropKeyId> prop_key_cache_;
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

  /// Registers the `var.key` accesses of `e` over `schema` in `props`.
  void add_reads(PropBatch& props, const Expr& e, const RowSet& schema) const {
    props.add(e, schema,
              [this](const Expr& access) { return resolve_prop_key(access); });
  }

  /// Calls fn(i, at) for rows [begin, end) of `rows`, after fetching
  /// `props` for each batch of up to kReadBatch rows (`at` is row i's place
  /// in its batch). Stops when fn returns false.
  template <typename Fn>
  void for_each_batched(PropBatch& props, const RowSet& rows,
                        std::size_t begin, std::size_t end, Fn&& fn) const {
    for (std::size_t b = begin; b < end; b += kReadBatch) {
      const std::size_t e = std::min(end, b + kReadBatch);
      props.fetch(graph_.store(), rows.rows, b, e);
      for (std::size_t i = b; i < e; ++i) {
        if (!fn(i, i - b)) return;
      }
    }
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

  /// Evaluates `e` for `row` of `rows`. `props`, when given, holds the
  /// fetched `var.key` values of the row's batch (the row is its row `at`);
  /// an access it does not hold is read with one locked copy.
  [[nodiscard]] Value eval_expr(const Expr& e, const RowSet& rows,
                                const std::vector<Value>& row,
                                const PropBatch* props = nullptr,
                                std::size_t at = 0) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral: return e.literal;
      case Expr::Kind::kVariable: {
        const int idx = rows.column_index(e.name);
        if (idx < 0) fail("unbound variable '" + e.name + "'");
        return row[static_cast<std::size_t>(idx)];
      }
      case Expr::Kind::kProperty: {
        if (props != nullptr) {
          if (const graph::PropertyValue* p = props->value(e, at)) {
            return Value::from_property(*p);
          }
        }
        const Value base = eval_expr(*e.lhs, rows, row, props, at);
        if (base.is_null()) return Value();
        if (!base.is_node()) fail("property access on non-node value");
        return Value::from_property(graph_.store().property_snapshot(
            base.as_node().id, resolve_prop_key(e)));
      }
      case Expr::Kind::kBinary: return eval_binary(e, rows, row, props, at);
      case Expr::Kind::kUnary: {
        const Value v = eval_expr(*e.lhs, rows, row, props, at);
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
      case Expr::Kind::kFunction:
        return eval_scalar_function(e, rows, row, props, at);
      case Expr::Kind::kList: {
        ValueList list;
        list.reserve(e.args.size());
        for (const auto& a : e.args) {
          list.push_back(eval_expr(*a, rows, row, props, at));
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

  /// Comparison fast path over the batch's fetched values: `var.key <op>
  /// constant` (either side) compares the fetched property in place, with no
  /// temporary Value. Returns false (c untouched) when the shape does not
  /// apply; never changes semantics.
  [[nodiscard]] bool try_compare_fast(const Expr& e, const PropBatch* props,
                                      std::size_t at, int& c) const {
    if (props == nullptr) return false;
    const graph::PropertyValue* l = props->value(*e.lhs, at);
    const graph::PropertyValue* r = props->value(*e.rhs, at);
    if (l != nullptr) {
      const Value* rv = constant_operand(*e.rhs, params_);
      if (rv == nullptr) return false;
      c = compare_property_value(*l, *rv);
      return true;
    }
    if (r != nullptr) {
      // constant <op> var.key — compare flipped, then negate.
      const Value* lv = constant_operand(*e.lhs, params_);
      if (lv == nullptr) return false;
      const int inner = compare_property_value(*r, *lv);
      c = inner == -2 ? -2 : -inner;
      return true;
    }
    return false;
  }

  [[nodiscard]] Value eval_binary(const Expr& e, const RowSet& rows,
                                  const std::vector<Value>& row,
                                  const PropBatch* props = nullptr,
                                  std::size_t at = 0) const {
    // Short-circuit logic first.
    if (e.binary_op == BinaryOp::kAnd) {
      if (!eval_expr(*e.lhs, rows, row, props, at).truthy()) {
        return Value(false);
      }
      return Value(eval_expr(*e.rhs, rows, row, props, at).truthy());
    }
    if (e.binary_op == BinaryOp::kOr) {
      if (eval_expr(*e.lhs, rows, row, props, at).truthy()) return Value(true);
      return Value(eval_expr(*e.rhs, rows, row, props, at).truthy());
    }

    if (is_comparison_op(e.binary_op)) {
      int c = -2;
      if (try_compare_fast(e, props, at, c)) {
        return compare_verdict(e.binary_op, c);
      }
      const Value a = eval_expr(*e.lhs, rows, row, props, at);
      const Value b = eval_expr(*e.rhs, rows, row, props, at);
      return compare_verdict(e.binary_op, compare_values(a, b));
    }

    const Value a = eval_expr(*e.lhs, rows, row, props, at);
    const Value b = eval_expr(*e.rhs, rows, row, props, at);
    // Integer arithmetic fails typed where the result does not fit in 64
    // bits (INT64_MIN / -1 and INT64_MIN % -1 would trap).
    std::int64_t r = 0;
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
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
        if (a.is_int() && b.is_int()) {
          if (__builtin_add_overflow(a.as_int(), b.as_int(), &r)) {
            fail("integer overflow in '+'");
          }
          return Value(r);
        }
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() + b.as_number());
        }
        fail("'+' on incompatible types");
      case BinaryOp::kSub:
        if (a.is_int() && b.is_int()) {
          if (__builtin_sub_overflow(a.as_int(), b.as_int(), &r)) {
            fail("integer overflow in '-'");
          }
          return Value(r);
        }
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() - b.as_number());
        }
        fail("'-' on non-numbers");
      case BinaryOp::kMul:
        if (a.is_int() && b.is_int()) {
          if (__builtin_mul_overflow(a.as_int(), b.as_int(), &r)) {
            fail("integer overflow in '*'");
          }
          return Value(r);
        }
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() * b.as_number());
        }
        fail("'*' on non-numbers");
      case BinaryOp::kDiv:
        if (a.is_int() && b.is_int()) {
          if (b.as_int() == 0) fail("division by zero");
          if (a.as_int() == kMin && b.as_int() == -1) {
            fail("integer overflow in '/'");
          }
          return Value(a.as_int() / b.as_int());
        }
        if (a.is_number() && b.is_number()) {
          return Value(a.as_number() / b.as_number());
        }
        fail("'/' on non-numbers");
      case BinaryOp::kMod:
        if (a.is_int() && b.is_int()) {
          if (b.as_int() == 0) fail("modulo by zero");
          if (a.as_int() == kMin && b.as_int() == -1) {
            fail("integer overflow in '%'");
          }
          return Value(a.as_int() % b.as_int());
        }
        fail("'%' on non-integers");
      default:
        break;  // logic/comparisons handled above
    }
    return Value();
  }

  [[nodiscard]] Value eval_scalar_function(const Expr& e, const RowSet& rows,
                                           const std::vector<Value>& row,
                                           const PropBatch* props,
                                           std::size_t at) const {
    const std::string name = to_lower(e.name);
    if (is_aggregate_function(name)) {
      fail("aggregate function '" + e.name +
           "' outside of WITH/RETURN projection");
    }
    auto arg = [&](std::size_t i) {
      return eval_expr(*e.args.at(i), rows, row, props, at);
    };
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
      if (v.is_int()) {
        if (v.as_int() == std::numeric_limits<std::int64_t>::min()) {
          fail("integer overflow in abs");
        }
        return Value(v.as_int() < 0 ? -v.as_int() : v.as_int());
      }
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

  // ---- WHERE ----------------------------------------------------------------

  [[nodiscard]] RowSet eval_where(const Clause& clause, RowSet input) const {
    QueryGuard* guard = options_.guard;
    PropBatch props;
    add_reads(props, *clause.predicate, input);
    // Keeps the survivors of rows [begin, end), moved out of the input.
    const auto filter = [&](PropBatch& batch, std::size_t begin,
                            std::size_t end,
                            std::vector<std::vector<Value>>& sink) {
      for_each_batched(batch, input, begin, end,
                       [&](std::size_t i, std::size_t at) {
                         if (guard != nullptr && !guard->keep_going()) {
                           return false;
                         }
                         if (eval_expr(*clause.predicate, input, input.rows[i],
                                       &batch, at)
                                 .truthy()) {
                           sink.push_back(std::move(input.rows[i]));
                         }
                         return true;
                       });
    };
    RowSet out;
    out.columns = input.columns;
    const std::size_t n = input.rows.size();
    if (!fan_out(n)) {
      filter(props, 0, n, out.rows);
      return out;
    }
    // Chunked filter; per-chunk survivors concatenate in chunk order, so
    // row order matches the sequential filter.
    const std::size_t grain = fan_out_grain(n);
    std::vector<std::vector<std::vector<Value>>> chunks(
        ThreadPool::chunk_count(n, grain));
    options_.effective_pool().parallel_for(
        n, grain, options_.effective_threads(),
        [&](ThreadPool::ChunkRange chunk) {
          PropBatch local = props;
          filter(local, chunk.begin, chunk.end, chunks[chunk.index]);
        });
    for (auto& local : chunks) {
      for (auto& row : local) out.rows.push_back(std::move(row));
    }
    return out;
  }

  // ---- WITH / RETURN ---------------------------------------------------------

  enum class AggKind { kCount, kCollect, kMin, kMax, kSum, kAvg };

  /// An aggregate call, resolved once per clause.
  struct Aggregate {
    const Expr* expr = nullptr;
    AggKind kind = AggKind::kCount;
    bool star = false;          // count(*)
    const Expr* arg = nullptr;  // the argument; nullptr for * or none
  };

  struct AggState {
    std::int64_t count = 0;
    ValueList collected;
    Value min_value;
    Value max_value;
    double sum = 0;
    std::int64_t sum_int = 0;
    bool all_int = true;
    bool int_overflow = false;  // sum_int left the int64 range
    std::set<std::string> seen;  // for DISTINCT aggregates
  };

  [[nodiscard]] static Aggregate resolve_aggregate(const Expr& e) {
    Aggregate a;
    a.expr = &e;
    const std::string name = to_lower(e.name);
    if (name == "collect") a.kind = AggKind::kCollect;
    if (name == "min") a.kind = AggKind::kMin;
    if (name == "max") a.kind = AggKind::kMax;
    if (name == "sum") a.kind = AggKind::kSum;
    if (name == "avg") a.kind = AggKind::kAvg;
    a.star = !e.args.empty() && e.args[0]->kind == Expr::Kind::kStar;
    if (!a.star && !e.args.empty()) a.arg = e.args[0].get();
    return a;
  }

  /// Folds one input row's argument value `v` into the aggregate's state.
  void fold_aggregate(const Aggregate& a, Value v, AggState& state) const {
    if (a.kind == AggKind::kCount && a.star) {
      ++state.count;
      return;
    }
    if (v.is_null()) return;
    if (a.expr->distinct && !state.seen.insert(v.to_display_string()).second) {
      return;
    }
    switch (a.kind) {
      case AggKind::kCount:
        ++state.count;
        return;
      case AggKind::kCollect:
        state.collected.push_back(std::move(v));
        return;
      case AggKind::kMin:
        if (state.min_value.is_null() ||
            compare_values(v, state.min_value) == -1) {
          state.min_value = std::move(v);
        }
        return;
      case AggKind::kMax:
        if (state.max_value.is_null() ||
            compare_values(v, state.max_value) == 1) {
          state.max_value = std::move(v);
        }
        return;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (!v.is_number()) fail("sum/avg of non-number");
        ++state.count;
        state.sum += v.as_number();
        if (v.is_int()) {
          state.int_overflow |=
              __builtin_add_overflow(state.sum_int, v.as_int(), &state.sum_int);
        } else {
          state.all_int = false;
        }
        return;
    }
  }

  [[nodiscard]] static Value finalize_aggregate(const Aggregate& a,
                                                AggState& state) {
    switch (a.kind) {
      case AggKind::kCount: return Value(state.count);
      case AggKind::kCollect: return Value(std::move(state.collected));
      case AggKind::kMin: return std::move(state.min_value);
      case AggKind::kMax: return std::move(state.max_value);
      case AggKind::kSum:
        // An all-integer sum is an integer and must fit; any double makes
        // it a double sum, which the integer partial sum does not affect.
        if (!state.all_int) return Value(state.sum);
        if (state.int_overflow) fail("integer overflow in sum");
        return Value(state.sum_int);
      case AggKind::kAvg:
        return state.count == 0 ? Value()
                                : Value(state.sum / double(state.count));
    }
    return Value();
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

  /// True when `e` reads a variable, other than one of `aliases`, outside
  /// its aggregate calls.
  [[nodiscard]] static bool reads_variable(
      const Expr& e, std::span<const std::string> aliases) {
    if (e.kind == Expr::Kind::kFunction && is_aggregate_function(e.name)) {
      return false;
    }
    if (e.kind == Expr::Kind::kVariable) {
      return std::find(aliases.begin(), aliases.end(), e.name) ==
             aliases.end();
    }
    if (e.lhs && reads_variable(*e.lhs, aliases)) return true;
    if (e.rhs && reads_variable(*e.rhs, aliases)) return true;
    return std::any_of(e.args.begin(), e.args.end(), [&](const ExprPtr& a) {
      return a && reads_variable(*a, aliases);
    });
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
                                       RowSet input) const {
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
    return eval_projection_expanded(*effective, std::move(input));
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
                                                RowSet input) const {
    RowSet out;
    for (const auto& item : clause.projections) {
      out.columns.push_back(item.alias);
    }
    const std::size_t items = clause.projections.size();

    // Resolved once per clause: each item's column when it is a plain
    // variable, whether it holds an aggregate, and the aggregates
    // themselves. Every `var.key` an item or an aggregate argument reads is
    // fetched for a batch of rows at a time.
    std::vector<int> slots(items, -1);
    std::vector<bool> aggregated(items, false);
    bool any_aggregate = false;
    PropBatch props;
    for (std::size_t i = 0; i < items; ++i) {
      const Expr& e = *clause.projections[i].expr;
      aggregated[i] = contains_aggregate(e);
      any_aggregate = any_aggregate || aggregated[i];
      if (e.kind == Expr::Kind::kVariable) {
        slots[i] = input.column_index(e.name);
      }
      if (!aggregated[i]) add_reads(props, e, input);
    }
    const auto project = [&](std::size_t i, const std::vector<Value>& row,
                             std::size_t at) -> Value {
      if (slots[i] >= 0) return row[static_cast<std::size_t>(slots[i])];
      return eval_expr(*clause.projections[i].expr, input, row, &props, at);
    };

    // The input row each output row came from, for ORDER BY.
    std::vector<std::vector<Value>> sources;
    const bool keep_sources = !clause.order_by.empty();
    QueryGuard* guard = options_.guard;
    const std::size_t n = input.rows.size();
    if (!any_aggregate) {
      for_each_batched(props, input, 0, n, [&](std::size_t r,
                                               std::size_t at) {
        if (guard != nullptr && !guard->admit_rows()) return false;
        std::vector<Value> projected;
        projected.reserve(items);
        for (std::size_t i = 0; i < items; ++i) {
          projected.push_back(project(i, input.rows[r], at));
        }
        out.rows.push_back(std::move(projected));
        if (keep_sources) sources.push_back(std::move(input.rows[r]));
        return true;
      });
    } else {
      // Group by the values of non-aggregate projections.
      struct Group {
        std::vector<Value> keys;           // per non-aggregate projection
        std::vector<Value> sample_row;     // representative input row
        std::vector<AggState> agg_states;  // per aggregate expression
      };
      std::vector<const Expr*> aggregate_exprs;
      for (const auto& item : clause.projections) {
        collect_aggregates(*item.expr, aggregate_exprs);
      }
      std::vector<Aggregate> aggregates;
      std::vector<int> arg_slots;
      for (const Expr* e : aggregate_exprs) {
        aggregates.push_back(resolve_aggregate(*e));
        const Expr* arg = aggregates.back().arg;
        arg_slots.push_back(arg != nullptr && arg->kind == Expr::Kind::kVariable
                                ? input.column_index(arg->name)
                                : -1);
        if (arg != nullptr) add_reads(props, *arg, input);
      }
      const auto fold = [&](Group& g, const std::vector<Value>& row,
                            std::size_t at) {
        for (std::size_t a = 0; a < aggregates.size(); ++a) {
          Value v;
          if (arg_slots[a] >= 0) {
            v = row[static_cast<std::size_t>(arg_slots[a])];
          } else if (aggregates[a].arg != nullptr) {
            v = eval_expr(*aggregates[a].arg, input, row, &props, at);
          }
          fold_aggregate(aggregates[a], std::move(v), g.agg_states[a]);
        }
      };

      // Groups in output order. When every item aggregates, one group —
      // over no rows too (count() and sum() give 0, collect() [] and min(),
      // max() and avg() null), unless an item, or a sort key other than an
      // alias, reads a variable outside its aggregates, which no row binds.
      // Else the key map's order (the display strings of the key values),
      // and no group without a row.
      const bool grouped = std::find(aggregated.begin(), aggregated.end(),
                                     false) != aggregated.end();
      const auto reads_row = [&] {
        return std::any_of(clause.projections.begin(),
                           clause.projections.end(),
                           [&](const ProjectionItem& item) {
                             return reads_variable(*item.expr, {});
                           }) ||
               std::any_of(clause.order_by.begin(), clause.order_by.end(),
                           [&](const SortItem& item) {
                             return reads_variable(*item.expr, out.columns);
                           });
      };
      std::vector<Group> groups;
      if (!grouped && (n > 0 || !reads_row())) {
        Group& all = groups.emplace_back();
        all.agg_states.resize(aggregates.size());
        all.sample_row.resize(input.columns.size());
        for_each_batched(props, input, 0, n, [&](std::size_t r,
                                                 std::size_t at) {
          if (guard != nullptr && !guard->keep_going()) return false;
          fold(all, input.rows[r], at);
          if (r == 0) all.sample_row = std::move(input.rows[r]);
          return true;
        });
      } else if (grouped) {
        std::map<std::string, Group> keyed;
        for_each_batched(props, input, 0, n, [&](std::size_t r,
                                                 std::size_t at) {
          if (guard != nullptr && !guard->keep_going()) return false;
          std::vector<Value> keys;
          std::string key_str;
          for (std::size_t i = 0; i < items; ++i) {
            if (aggregated[i]) continue;
            Value v = project(i, input.rows[r], at);
            key_str += v.to_display_string();
            key_str += '\x1f';
            keys.push_back(std::move(v));
          }
          auto [it, inserted] = keyed.try_emplace(std::move(key_str));
          Group& g = it->second;
          if (inserted) {
            g.keys = std::move(keys);
            g.agg_states.resize(aggregates.size());
          }
          fold(g, input.rows[r], at);
          if (inserted) g.sample_row = std::move(input.rows[r]);
          return true;
        });
        groups.reserve(keyed.size());
        for (auto& [key, group] : keyed) groups.push_back(std::move(group));
      }

      for (Group& group : groups) {
        std::vector<std::pair<const Expr*, Value>> finalized;
        finalized.reserve(aggregates.size());
        for (std::size_t a = 0; a < aggregates.size(); ++a) {
          finalized.emplace_back(
              aggregates[a].expr,
              finalize_aggregate(aggregates[a], group.agg_states[a]));
        }
        std::vector<Value> projected;
        projected.reserve(items);
        std::size_t key_cursor = 0;
        for (std::size_t i = 0; i < items; ++i) {
          const Expr& e = *clause.projections[i].expr;
          if (!aggregated[i]) {
            projected.push_back(std::move(group.keys[key_cursor++]));
            continue;
          }
          const auto direct = std::find_if(
              finalized.begin(), finalized.end(),
              [&](const auto& f) { return f.first == &e; });
          projected.push_back(
              direct != finalized.end()
                  ? std::move(direct->second)
                  : eval_with_aggregates(e, input, group.sample_row,
                                         finalized));
        }
        out.rows.push_back(std::move(projected));
        if (keep_sources) sources.push_back(std::move(group.sample_row));
      }
    }

    // ORDER BY may reference projection aliases *or* pre-projection
    // variables (Cypher semantics), so sort keys are evaluated in a combined
    // context: input columns followed by output columns.
    std::vector<std::vector<Value>> sort_keys;
    if (keep_sources) {
      RowSet ctx;
      ctx.columns = input.columns;
      for (const auto& c : out.columns) ctx.columns.push_back(c);
      ctx.rows = std::move(sources);
      for (std::size_t r = 0; r < ctx.rows.size(); ++r) {
        ctx.rows[r].resize(input.columns.size());
        ctx.rows[r].insert(ctx.rows[r].end(), out.rows[r].begin(),
                           out.rows[r].end());
      }
      PropBatch sort_props;
      std::vector<int> sort_slots;
      for (const SortItem& item : clause.order_by) {
        add_reads(sort_props, *item.expr, ctx);
        sort_slots.push_back(item.expr->kind == Expr::Kind::kVariable
                                 ? ctx.column_index(item.expr->name)
                                 : -1);
      }
      sort_keys.resize(ctx.rows.size());
      for_each_batched(
          sort_props, ctx, 0, ctx.rows.size(),
          [&](std::size_t r, std::size_t at) {
            std::vector<Value>& keys = sort_keys[r];
            keys.reserve(clause.order_by.size());
            for (std::size_t k = 0; k < clause.order_by.size(); ++k) {
              keys.push_back(
                  sort_slots[k] >= 0
                      ? ctx.rows[r][static_cast<std::size_t>(sort_slots[k])]
                      : eval_expr(*clause.order_by[k].expr, ctx, ctx.rows[r],
                                  &sort_props, at));
            }
            return true;
          });
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

  [[nodiscard]] RowSet eval_unwind(const Clause& clause, RowSet input) const {
    QueryGuard* guard = options_.guard;
    RowSet out;
    out.columns = input.columns;
    out.columns.push_back(clause.unwind_alias);
    PropBatch props;
    add_reads(props, *clause.unwind_expr, input);
    const auto extend = [&](std::vector<Value> row, Value item) {
      row.push_back(std::move(item));
      out.rows.push_back(std::move(row));
    };
    for_each_batched(
        props, input, 0, input.rows.size(), [&](std::size_t r, std::size_t at) {
          if (guard != nullptr && guard->stopped()) return false;
          std::vector<Value>& row = input.rows[r];
          Value v = eval_expr(*clause.unwind_expr, input, row, &props, at);
          if (v.is_null()) return true;
          if (v.is_list()) {
            for (const Value& item : v.as_list()) {
              if (guard != nullptr && !guard->admit_rows()) break;
              extend(row, item);
            }
          } else {
            if (guard != nullptr && !guard->admit_rows()) return false;
            extend(std::move(row), std::move(v));
          }
          return true;
        });
    return out;
  }

  // ---- CALL -----------------------------------------------------------------

  [[nodiscard]] RowSet eval_call(const Clause& clause, RowSet input) const {
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

    PropBatch props;
    for (const auto& a : clause.call_args) add_reads(props, *a, input);
    // Calls the procedure for rows [begin, end); each input row is moved
    // into its last yielded row and copied into the others.
    QueryGuard* guard = options_.guard;
    const auto call_rows = [&](PropBatch& batch, std::size_t begin,
                               std::size_t end,
                               std::vector<std::vector<Value>>& sink) {
      for_each_batched(batch, input, begin, end, [&](std::size_t r,
                                                     std::size_t at) {
        std::vector<Value>& row = input.rows[r];
        std::vector<Value> args;
        args.reserve(clause.call_args.size());
        for (const auto& a : clause.call_args) {
          args.push_back(eval_expr(*a, input, row, &batch, at));
        }
        const std::size_t before = sink.size();
        std::vector<std::vector<Value>> yielded = proc.fn(args);
        const std::size_t width = row.size() + selected.size();
        for (std::size_t y = 0; y < yielded.size(); ++y) {
          std::vector<Value> extended;
          if (y + 1 == yielded.size()) {
            extended = std::move(row);
            extended.reserve(width);
          } else {
            extended.reserve(width);
            extended.assign(row.begin(), row.end());
          }
          for (const std::size_t i : selected) {
            extended.push_back(yielded[y].at(i));
          }
          sink.push_back(std::move(extended));
        }
        return guard == nullptr || guard->admit_rows(sink.size() - before);
      });
    };

    const std::size_t n = input.rows.size();
    if (!fan_out(n)) {
      call_rows(props, 0, n, out.rows);
      return out;
    }
    // Independent per-row procedure calls dispatched to the pool; yielded
    // rows concatenate in chunk order, matching the sequential loop.
    const std::size_t grain = fan_out_grain(n);
    std::vector<std::vector<std::vector<Value>>> chunks(
        ThreadPool::chunk_count(n, grain));
    options_.effective_pool().parallel_for(
        n, grain, options_.effective_threads(),
        [&](ThreadPool::ChunkRange chunk) {
          PropBatch local = props;
          call_rows(local, chunk.begin, chunk.end, chunks[chunk.index]);
        });
    for (auto& local : chunks) {
      for (auto& row : local) out.rows.push_back(std::move(row));
    }
    return out;
  }
};

}  // namespace horus::query::internal
