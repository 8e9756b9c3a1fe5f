#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "graph/segment.h"
#include "query/eval_internal.h"

namespace horus::query {

namespace {

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

[[nodiscard]] std::string value_to_text(const Value& v) {
  if (v.is_string()) return '"' + v.as_string() + '"';
  return v.to_display_string();
}

[[nodiscard]] std::string_view binary_op_symbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNeq: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kContains: return "CONTAINS";
    case BinaryOp::kStartsWith: return "STARTS WITH";
    case BinaryOp::kEndsWith: return "ENDS WITH";
    case BinaryOp::kIn: return "IN";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
  }
  return "?";
}

/// a <op> b written as b <op'> a.
[[nodiscard]] BinaryOp flip_comparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // eq/neq are symmetric
  }
}

/// Splits a conjunction into its conjuncts, left-to-right — the order the
/// legacy evaluator would reach them under short-circuit AND.
void flatten_and(const Expr* e, std::vector<const Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kBinary && e->binary_op == BinaryOp::kAnd) {
    flatten_and(e->lhs.get(), out);
    flatten_and(e->rhs.get(), out);
    return;
  }
  out.push_back(e);
}

/// True when evaluating `e` over a row binding only `head_var` (to a node)
/// can neither throw nor depend on anything but that node — the condition
/// for moving the conjunct ahead of its source position. Arithmetic,
/// negation, functions and missing parameters all stay pinned: they can
/// raise errors, and reordering would change *which rows* raise them.
[[nodiscard]] bool is_safe_expr(const Expr& e, const std::string& head_var,
                                const QueryParams& params) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return true;
    case Expr::Kind::kParameter:
      return params.find(e.name) != params.end();
    case Expr::Kind::kVariable:
      return e.name == head_var;
    case Expr::Kind::kProperty:
      return e.lhs != nullptr && e.lhs->kind == Expr::Kind::kVariable &&
             e.lhs->name == head_var;
    case Expr::Kind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kEq:
        case BinaryOp::kNeq:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kContains:
        case BinaryOp::kStartsWith:
        case BinaryOp::kEndsWith:
        case BinaryOp::kIn:
          return is_safe_expr(*e.lhs, head_var, params) &&
                 is_safe_expr(*e.rhs, head_var, params);
        default:
          return false;  // arithmetic can throw
      }
    case Expr::Kind::kUnary:
      return e.unary_op == UnaryOp::kNot &&
             is_safe_expr(*e.lhs, head_var, params);
    case Expr::Kind::kList:
      return std::all_of(e.args.begin(), e.args.end(), [&](const ExprPtr& a) {
        return a != nullptr && is_safe_expr(*a, head_var, params);
      });
    default:
      return false;  // functions, '*'
  }
}

/// `head.key <cmp> constant` (either side), normalized so the property is
/// on the left. `flipped` records that the source had the constant first;
/// `op` is already flipped to match the normalized orientation. The key name
/// and the constant point into the query, its parameters or the inline
/// property values.
struct CmpShape {
  graph::PropKeyId key = graph::kNoPropKey;
  std::string_view key_name;
  BinaryOp op = BinaryOp::kEq;
  const Value* constant = nullptr;
  bool flipped = false;
};

[[nodiscard]] std::optional<CmpShape> comparison_shape(
    const Expr& e, const std::string& head_var, const QueryParams& params,
    const graph::GraphStore& store) {
  if (e.kind != Expr::Kind::kBinary ||
      !internal::is_comparison_op(e.binary_op)) {
    return std::nullopt;
  }
  auto head_prop = [&](const Expr& x) -> const Expr* {
    if (x.kind == Expr::Kind::kProperty && x.lhs != nullptr &&
        x.lhs->kind == Expr::Kind::kVariable && x.lhs->name == head_var) {
      return &x;
    }
    return nullptr;
  };
  CmpShape shape;
  const Expr* prop = head_prop(*e.lhs);
  if (prop != nullptr) {
    shape.op = e.binary_op;
    shape.constant = internal::constant_operand(*e.rhs, params);
  } else if ((prop = head_prop(*e.rhs)) != nullptr) {
    shape.op = flip_comparison(e.binary_op);
    shape.constant = internal::constant_operand(*e.lhs, params);
    shape.flipped = true;
  }
  if (shape.constant == nullptr) return std::nullopt;
  shape.key_name = prop->name;
  shape.key = store.prop_key_id(shape.key_name);
  return shape;
}

/// Integer window accumulated from range conjuncts on one key.
struct Bounds {
  std::int64_t lo = kInt64Min;
  std::int64_t hi = kInt64Max;
  bool constrained = false;  // at least one conjunct tightened a bound
  bool empty = false;

  void tighten_lo(std::int64_t v) {
    lo = std::max(lo, v);
    constrained = true;
    if (lo > hi) empty = true;
  }
  void tighten_hi(std::int64_t v) {
    hi = std::min(hi, v);
    constrained = true;
    if (lo > hi) empty = true;
  }
};

[[nodiscard]] std::int64_t clamp_to_int64(double v) {
  if (v <= static_cast<double>(kInt64Min)) return kInt64Min;
  if (v >= static_cast<double>(kInt64Max)) return kInt64Max;
  return static_cast<std::int64_t>(v);
}

/// Folds one numeric comparison into the window. Exact for int64 stored
/// values: fractional bounds round inward, fractional equality empties.
/// Returns false when the constant is not numeric (bounds untouched).
[[nodiscard]] bool apply_bound(Bounds& b, BinaryOp op, const Value& constant) {
  if (!constant.is_number()) return false;
  if (constant.is_int()) {
    const std::int64_t k = constant.as_int();
    switch (op) {
      case BinaryOp::kEq: b.tighten_lo(k); b.tighten_hi(k); return true;
      case BinaryOp::kGe: b.tighten_lo(k); return true;
      case BinaryOp::kGt:
        if (k == kInt64Max) { b.tighten_lo(k); b.empty = true; }
        else b.tighten_lo(k + 1);
        return true;
      case BinaryOp::kLe: b.tighten_hi(k); return true;
      case BinaryOp::kLt:
        if (k == kInt64Min) { b.tighten_hi(k); b.empty = true; }
        else b.tighten_hi(k - 1);
        return true;
      default: return false;  // <> does not bound a window
    }
  }
  const double c = constant.as_number();
  const bool integral = std::floor(c) == c;
  switch (op) {
    case BinaryOp::kEq:
      if (!integral) { b.constrained = true; b.empty = true; return true; }
      b.tighten_lo(clamp_to_int64(c));
      b.tighten_hi(clamp_to_int64(c));
      return true;
    case BinaryOp::kGe: b.tighten_lo(clamp_to_int64(std::ceil(c))); return true;
    case BinaryOp::kGt:
      b.tighten_lo(clamp_to_int64(std::floor(c) + 1.0));
      return true;
    case BinaryOp::kLe: b.tighten_hi(clamp_to_int64(std::floor(c))); return true;
    case BinaryOp::kLt:
      b.tighten_hi(clamp_to_int64(std::ceil(c) - 1.0));
      return true;
    default: return false;
  }
}

[[nodiscard]] std::string bounds_to_text(std::int64_t lo, std::int64_t hi) {
  std::string out = "[";
  out += lo == kInt64Min ? std::string("-inf") : std::to_string(lo);
  out += ", ";
  out += hi == kInt64Max ? std::string("+inf") : std::to_string(hi);
  out += ']';
  return out;
}

[[nodiscard]] std::string format_rows(double v) {
  if (v < 0) return "?";
  if (v == std::floor(v) && v < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

}  // namespace

std::string_view scan_kind_name(ScanKind kind) noexcept {
  switch (kind) {
    case ScanKind::kAllNodes: return "all-nodes";
    case ScanKind::kLabel: return "label";
    case ScanKind::kIndexEq: return "index-eq";
    case ScanKind::kRange: return "range";
    case ScanKind::kSegmentSkip: return "segment-skip";
  }
  return "?";
}

std::string expr_to_string(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return value_to_text(e.literal);
    case Expr::Kind::kVariable:
      return e.name;
    case Expr::Kind::kProperty:
      return expr_to_string(*e.lhs) + "." + e.name;
    case Expr::Kind::kBinary:
      return "(" + expr_to_string(*e.lhs) + " " +
             std::string(binary_op_symbol(e.binary_op)) + " " +
             expr_to_string(*e.rhs) + ")";
    case Expr::Kind::kUnary:
      if (e.unary_op == UnaryOp::kNot) return "NOT " + expr_to_string(*e.lhs);
      return "-" + expr_to_string(*e.lhs);
    case Expr::Kind::kFunction: {
      std::string out = e.name + "(";
      if (e.distinct) out += "DISTINCT ";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += e.args[i] ? expr_to_string(*e.args[i]) : "?";
      }
      out += ')';
      return out;
    }
    case Expr::Kind::kList: {
      std::string out = "[";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += e.args[i] ? expr_to_string(*e.args[i]) : "?";
      }
      out += ']';
      return out;
    }
    case Expr::Kind::kStar:
      return "*";
    case Expr::Kind::kParameter:
      return "$" + e.name;
  }
  return "?";
}

Plan Planner::plan(const Query& query) const {
  Plan p;
  p.query = &query;

  auto fallback = [&](std::string reason) {
    p.planned = false;
    p.fallback_reason = std::move(reason);
    return std::move(p);
  };

  if (query.clauses.empty()) return fallback("empty query");
  const Clause& first = query.clauses.front();
  if (first.kind != Clause::Kind::kMatch) {
    return fallback("first clause is not MATCH");
  }
  if (first.patterns.size() != 1) {
    return fallback("multiple MATCH patterns");
  }
  const PathPattern& path = first.patterns.front();
  if (!path.steps.empty()) {
    return fallback("relationship pattern (path steps)");
  }
  if (path.head.variable.empty()) {
    return fallback("anonymous pattern head");
  }

  // Inline pattern properties must be row-independent constants here; any
  // other (a function call, a missing parameter) is evaluated, in clause
  // order, by the pipeline's MATCH.
  std::vector<Value> props;
  for (const auto& [key, expr] : path.head.properties) {
    const Value* c = expr != nullptr
                         ? internal::constant_operand(*expr, params_)
                         : nullptr;
    if (c == nullptr) {
      return fallback("non-constant inline property '" + key + "'");
    }
    props.push_back(*c);
  }
  // The WHERE prefix's conjuncts, in evaluation order, after the inline
  // equalities.
  std::vector<const Expr*> where;
  std::size_t ci = 1;
  while (ci < query.clauses.size() &&
         query.clauses[ci].kind == Clause::Kind::kWhere) {
    flatten_and(query.clauses[ci].predicate.get(), where);
    ++ci;
  }
  p.tail_begin = ci;
  plan_filter(p, path.head, props, where, /*scan=*/true);

  // ---- projection / limit pushdown ------------------------------------------

  if (p.tail_begin + 1 == query.clauses.size()) {
    const Clause& tail = query.clauses[p.tail_begin];
    bool simple = tail.kind == Clause::Kind::kReturn && !tail.distinct &&
                  tail.order_by.empty();
    for (const auto& item : tail.projections) {
      if (!simple) break;
      simple = item.expr != nullptr &&
               item.expr->kind != Expr::Kind::kStar &&
               is_safe_expr(*item.expr, p.variable, params_);
    }
    if (simple && !tail.projections.empty()) {
      p.projection = &tail;
      p.limit = tail.limit;
      p.tail_begin = query.clauses.size();
    }
  }

  p.planned = true;
  return p;
}

Plan Planner::plan_node(const NodePattern& node, std::span<const Value> props,
                        bool scan) const {
  Plan p;
  plan_filter(p, node, props, {}, scan);
  p.planned = true;
  return p;
}

void Planner::plan_filter(Plan& p, const NodePattern& node,
                          std::span<const Value> props,
                          std::span<const Expr* const> where,
                          bool scan) const {
  const graph::GraphStore& store = graph_.store();
  p.variable = node.variable;
  p.label = node.label;

  // Conjunct i < props.size() is the inline equality `var.key = props[i]`
  // (no expression); the rest are the WHERE conjuncts. Conjuncts up to the
  // first unsafe one may be reordered and pushed into the scan; the unsafe
  // conjunct and everything after it keep their source order so the same
  // rows reach them as under clause-by-clause evaluation (a throwing
  // conjunct must see exactly that survivor set).
  const std::size_t count = props.size() + where.size();
  const auto expr_of = [&](std::size_t i) -> const Expr* {
    return i < props.size() ? nullptr : where[i - props.size()];
  };
  std::size_t first_unsafe = count;
  for (std::size_t i = props.size(); i < count; ++i) {
    if (!is_safe_expr(*expr_of(i), p.variable, params_)) {
      first_unsafe = i;
      break;
    }
  }

  std::vector<std::optional<CmpShape>> shapes(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i < props.size()) {
      const std::string& key = node.properties[i].first;
      shapes[i] = CmpShape{.key = store.prop_key_id(key),
                           .key_name = key,
                           .op = BinaryOp::kEq,
                           .constant = &props[i],
                           .flipped = false};
    } else {
      shapes[i] = comparison_shape(*expr_of(i), p.variable, params_, store);
    }
  }

  const auto node_count = static_cast<double>(store.node_count());
  const bool real_label = !p.label.empty() && p.label != "EVENT";

  // ---- scan selection -------------------------------------------------------

  // The cheapest access path seen so far; the full scan until another is
  // cheaper, or as cheap with a lower precedence.
  struct ScanChoice {
    ScanKind kind = ScanKind::kAllNodes;
    int precedence = 5;  // tie-break: lower wins at equal estimate
    graph::PropKeyId key = graph::kNoPropKey;
    std::string_view key_name;
    const Value* eq = nullptr;
    std::int64_t lo = kInt64Min;
    std::int64_t hi = kInt64Max;
    double estimate = 0.0;
    std::optional<std::size_t> consumed;  // conjunct folded into the scan
    std::size_t pushed = 0;               // conjuncts that shaped the scan
  };
  ScanChoice best;
  best.estimate = node_count;
  const auto consider = [&best](const ScanChoice& c) {
    if (c.estimate < best.estimate ||
        (c.estimate == best.estimate && c.precedence < best.precedence)) {
      best = c;
    }
  };

  if (scan) {
    // Hash-index equality: one conjunct becomes the whole scan. The index
    // hashes and compares numbers by value (5 and 5.0 share a bucket), as
    // the WHERE comparison does, so one bucket is exactly the conjunct's
    // rows.
    for (std::size_t i = 0; i < first_unsafe; ++i) {
      if (!shapes[i] || shapes[i]->op != BinaryOp::kEq) continue;
      const CmpShape& s = *shapes[i];
      if (s.key == graph::kNoPropKey) continue;
      // Null, node and list equality never uses the index.
      const auto probe = internal::to_property(*s.constant);
      if (!probe) continue;
      const auto bucket = store.index_count(s.key, *probe);
      if (!bucket) continue;  // no hash index on the key
      ScanChoice c;
      c.kind = ScanKind::kIndexEq;
      c.precedence = 1;
      c.key = s.key;
      c.key_name = s.key_name;
      c.eq = s.constant;
      c.estimate = static_cast<double>(*bucket);
      c.consumed = i;
      c.pushed = 1;
      consider(c);
    }

    // Ordered-index range scan: intersect every range conjunct on the key
    // into one [lo, hi] window. The conjuncts stay in the residual filter —
    // the index is the candidate source, the filter remains the authority
    // (see DESIGN.md §12 for the int64-typed-key assumption).
    struct Window {
      graph::PropKeyId key = graph::kNoPropKey;
      std::string_view name;
      Bounds bounds;
      std::size_t contributors = 0;
    };
    std::vector<Window> windows;  // in key order
    for (std::size_t i = 0; i < first_unsafe; ++i) {
      if (!shapes[i]) continue;
      const CmpShape& s = *shapes[i];
      if (s.key == graph::kNoPropKey || !s.constant->is_number()) continue;
      auto w = std::find_if(windows.begin(), windows.end(),
                            [&](const Window& x) { return x.key >= s.key; });
      if (w == windows.end() || w->key != s.key) {
        w = windows.insert(w, Window{s.key, {}, Bounds{}, 0});
      }
      if (apply_bound(w->bounds, s.op, *s.constant)) {
        ++w->contributors;
        w->name = s.key_name;
      }
    }
    for (const auto& [key, name, bounds, contributors] : windows) {
      if (!bounds.constrained) continue;
      ScanChoice c;
      c.key = key;
      c.key_name = name;
      c.lo = bounds.empty ? std::int64_t{1} : bounds.lo;
      c.hi = bounds.empty ? std::int64_t{0} : bounds.hi;
      c.pushed = contributors;
      // nullopt: no ordered index on the key, or an empty one.
      const auto stats = store.ordered_index_stats(key);
      if (stats || store.has_ordered_index(key)) {
        c.kind = ScanKind::kRange;
        c.precedence = 2;
        c.estimate = 0.0;  // an empty window or index
        if (stats && !bounds.empty) {
          const double span_lo = std::max(
              static_cast<double>(c.lo), static_cast<double>(stats->min_value));
          const double span_hi = std::min(
              static_cast<double>(c.hi), static_cast<double>(stats->max_value));
          const double index_span = static_cast<double>(stats->max_value) -
                                    static_cast<double>(stats->min_value) +
                                    1.0;
          if (span_lo <= span_hi) {
            c.estimate = std::min(
                node_count,
                node_count * ((span_hi - span_lo + 1.0) / index_span));
          }
        }
        consider(c);
      }
      if (graph::SegmentManager* segments = store.segments()) {
        const auto& opts = segments->options();
        if (key == opts.lamport_key || key == opts.timestamp_key) {
          c.kind = ScanKind::kSegmentSkip;
          c.precedence = 3;
          c.estimate = 0.0;
          for (const auto& [begin, end] : segments->scan_ranges(key, c.lo, c.hi)) {
            c.estimate += static_cast<double>(end - begin);
          }
          consider(c);
        }
      }
    }

    if (real_label) {
      ScanChoice c;
      c.kind = ScanKind::kLabel;
      c.precedence = 4;
      c.estimate = static_cast<double>(store.label_count(p.label));
      consider(c);
    }
  }

  p.scan = best.kind;
  p.scan_key = best.key;
  p.scan_key_name = best.key_name;
  if (best.eq != nullptr) p.scan_eq = *best.eq;
  p.range_lo = best.lo;
  p.range_hi = best.hi;
  p.scan_estimate = best.estimate;
  p.predicates_pushed = best.pushed;
  p.check_label = real_label && p.scan != ScanKind::kLabel;

  // ---- residual filter ------------------------------------------------------

  std::vector<PlannedPredicate> reorderable;
  std::vector<PlannedPredicate> pinned;
  for (std::size_t i = 0; i < count; ++i) {
    if (best.consumed && *best.consumed == i) continue;
    PlannedPredicate pp;
    pp.expr = expr_of(i);
    pp.source_order = i;
    pp.reorderable = i < first_unsafe;
    if (shapes[i]) {
      const CmpShape& s = *shapes[i];
      const std::size_t distinct =
          (s.op == BinaryOp::kEq || s.op == BinaryOp::kNeq) &&
                  s.constant->is_string() && s.key != graph::kNoPropKey
              ? store.interned_distinct(s.key)
              : 0;
      pp.key = s.key;
      pp.key_name = s.key_name;
      pp.op = s.op;
      pp.constant = *s.constant;
      pp.flipped = s.flipped;
      if (distinct > 0) {
        pp.kind = PlannedPredicate::Kind::kInternedEq;
        const double eq_frac = 1.0 / static_cast<double>(distinct);
        pp.selectivity = s.op == BinaryOp::kEq ? eq_frac : 1.0 - eq_frac;
      } else {
        pp.kind = PlannedPredicate::Kind::kPropCompare;
        switch (s.op) {
          case BinaryOp::kEq: {
            pp.selectivity = 0.10;
            if (s.key != graph::kNoPropKey && node_count > 0 &&
                s.constant->is_string()) {
              if (const auto bucket = store.index_count(
                      s.key, graph::PropertyValue(s.constant->as_string()))) {
                pp.selectivity = static_cast<double>(*bucket) / node_count;
              }
            }
            break;
          }
          case BinaryOp::kNeq: pp.selectivity = 0.90; break;
          default: pp.selectivity = 0.33; break;
        }
      }
    } else {
      pp.kind = PlannedPredicate::Kind::kGeneric;
      pp.selectivity = pp.reorderable ? 0.60 : 1.0;
    }
    (pp.reorderable ? reorderable : pinned).push_back(std::move(pp));
  }
  std::stable_sort(reorderable.begin(), reorderable.end(),
                   [](const PlannedPredicate& a, const PlannedPredicate& b) {
                     if (a.selectivity != b.selectivity) {
                       return a.selectivity < b.selectivity;
                     }
                     return a.source_order < b.source_order;
                   });
  p.predicates = std::move(reorderable);
  for (auto& pp : pinned) p.predicates.push_back(std::move(pp));

  p.estimated_rows = p.scan_estimate;
  for (const PlannedPredicate& pp : p.predicates) {
    p.estimated_rows *= pp.selectivity;
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

PlanReport describe_plan(const Plan& plan) {
  PlanReport report;
  report.planned = plan.planned;
  report.fallback_reason = plan.fallback_reason;
  if (!plan.planned) return report;

  PlanOpReport scan;
  scan.op = "scan";
  std::string detail(scan_kind_name(plan.scan));
  switch (plan.scan) {
    case ScanKind::kLabel:
      detail += " " + plan.label;
      break;
    case ScanKind::kIndexEq:
      detail += " " + plan.scan_key_name + " = " + value_to_text(plan.scan_eq);
      break;
    case ScanKind::kRange:
    case ScanKind::kSegmentSkip:
      detail += " " + plan.scan_key_name + " in " +
                bounds_to_text(plan.range_lo, plan.range_hi);
      break;
    case ScanKind::kAllNodes:
      break;
  }
  if (plan.check_label) detail += " + label-check :" + plan.label;
  if (plan.predicates_pushed > 0) {
    detail += " (" + std::to_string(plan.predicates_pushed) +
              " predicate" + (plan.predicates_pushed == 1 ? "" : "s") +
              " pushed)";
  }
  scan.detail = std::move(detail);
  scan.estimated_rows = plan.scan_estimate;
  report.ops.push_back(std::move(scan));

  double running = plan.scan_estimate;
  for (const PlannedPredicate& pp : plan.predicates) {
    running *= pp.selectivity;
    PlanOpReport op;
    op.op = "filter";
    std::string kind;
    switch (pp.kind) {
      case PlannedPredicate::Kind::kInternedEq: kind = "interned-eq"; break;
      case PlannedPredicate::Kind::kPropCompare: kind = "in-place"; break;
      case PlannedPredicate::Kind::kGeneric: kind = "generic"; break;
    }
    if (!pp.reorderable) kind += ", pinned";
    // An inline property prints as the WHERE equality it means.
    op.detail = pp.expr != nullptr
                    ? expr_to_string(*pp.expr)
                    : "(" + plan.variable + "." + pp.key_name + " = " +
                          value_to_text(pp.constant) + ")";
    op.detail += "  [" + kind + "]";
    op.estimated_rows = running;
    report.ops.push_back(std::move(op));
  }

  if (plan.projection != nullptr) {
    PlanOpReport op;
    op.op = "project";
    std::string d = "RETURN ";
    for (std::size_t i = 0; i < plan.projection->projections.size(); ++i) {
      if (i > 0) d += ", ";
      d += plan.projection->projections[i].alias;
    }
    if (plan.limit) d += " LIMIT " + std::to_string(*plan.limit);
    op.detail = std::move(d);
    op.estimated_rows = running;
    report.ops.push_back(std::move(op));
  }

  if (plan.query != nullptr && plan.tail_begin < plan.query->clauses.size()) {
    PlanOpReport op;
    op.op = "tail";
    std::string d = "legacy:";
    for (std::size_t i = plan.tail_begin; i < plan.query->clauses.size(); ++i) {
      d += " " +
           internal::Evaluator::clause_display_name(plan.query->clauses[i]);
    }
    op.detail = std::move(d);
    report.ops.push_back(std::move(op));
  }
  return report;
}

std::string PlanReport::to_text(bool include_timing) const {
  if (!planned) {
    return "plan: fallback — " + fallback_reason + " (legacy pipeline)\n";
  }
  std::string out = "plan:\n";
  for (const PlanOpReport& op : ops) {
    out += "  " + op.op + "[" + op.detail + "]";
    if (op.estimated_rows >= 0) out += " est=" + format_rows(op.estimated_rows);
    if (op.actual_rows >= 0) out += " act=" + format_rows(op.actual_rows);
    if (include_timing && op.seconds >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " t=%.3fms", op.seconds * 1e3);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace horus::query
