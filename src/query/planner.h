// Query planner: the front end of every MATCH. Each pattern node is planned
// as a scan and a filter: its label, and its inline properties as the
// equality conjuncts `var.key = value` they mean. A query whose first clause
// is a single-node MATCH is lowered whole into a typed logical plan — scan →
// filter → (project → limit) — over its inline properties and WHERE prefix,
// which the batch executor (src/query/exec.h) runs a read batch at a time;
// any other query runs on the clause pipeline (Plan::planned == false names
// why), whose MATCH plans each pattern node with plan_node().
// tests/plan_differential_test.cpp holds both to row-for-row equality with
// a brute-force reference (tests/query_reference.h).
//
// What the planner does:
//  * Scan selection — picks the cheapest access path for a pattern head by
//    estimated candidate count: hash-index equality lookup, ordered-index
//    range scan, segment-summary range pruning, label scan, or full scan.
//    Index-backed scans re-sort candidates into ascending node-id order, the
//    order of the full scan they replace.
//  * Predicate pushdown — equality and range conjuncts on indexed keys move
//    out of the filter and into the scan; range conjuncts on the same key
//    intersect into one [lo, hi] window.
//  * Conjunct reordering — remaining WHERE conjuncts are ranked by estimated
//    selectivity (cheap per-column stats: index bucket sizes, interned-pool
//    cardinality) so the cheapest, most selective filters run first.
//    Conjuncts that can throw (unknown functions, missing parameters,
//    arithmetic) are never moved ahead of their source position, so the
//    same rows reach them as under plain clause-by-clause evaluation.
//  * Limit/projection pushdown — a trailing plain RETURN (no aggregates, no
//    ORDER BY, no DISTINCT) folds into the executor so a LIMIT stops the
//    scan early.
//
// A Plan borrows the Query AST and the parameter map: both must outlive it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/causal_query.h"
#include "query/ast.h"
#include "query/value.h"

namespace horus::query {

/// Access path for a pattern head's candidate stream.
enum class ScanKind {
  kAllNodes,     // full scan, ascending node id
  kLabel,        // label index (insertion order == ascending id)
  kIndexEq,      // hash index equality bucket, re-sorted ascending
  kRange,        // ordered index [lo, hi], re-sorted ascending
  kSegmentSkip,  // full scan minus segments excluded by range summaries
};

[[nodiscard]] std::string_view scan_kind_name(ScanKind kind) noexcept;

/// One WHERE conjunct after planning, in execution order.
struct PlannedPredicate {
  enum class Kind {
    kInternedEq,   // prop ==/<> string constant over an interned column
    kPropCompare,  // prop <cmp> constant, compared in place
    kGeneric,      // anything else: full expression evaluation per row
  };
  Kind kind = Kind::kGeneric;
  /// The WHERE conjunct (borrowed from the AST); nullptr for an inline
  /// property, the equality `key_name = constant` (never kGeneric).
  const Expr* expr = nullptr;
  graph::PropKeyId key = graph::kNoPropKey;  // kInternedEq / kPropCompare
  std::string key_name;
  BinaryOp op = BinaryOp::kEq;      // kPropCompare: comparison operator
  Value constant;                   // kInternedEq / kPropCompare: rhs value
  bool flipped = false;             // constant was on the left
  double selectivity = 1.0;         // estimated survivor fraction
  bool reorderable = true;          // false: must keep source order
  std::size_t source_order = 0;     // position among the original conjuncts
};

/// Typed logical plan of one pattern node — and, from Planner::plan(), of
/// a query's MATCH/WHERE prefix.
struct Plan {
  bool planned = false;
  std::string fallback_reason;  // set when !planned

  // Scan.
  ScanKind scan = ScanKind::kAllNodes;
  std::string variable;              // pattern node variable
  std::string label;                 // pattern label ("" or "EVENT" = any)
  graph::PropKeyId scan_key = graph::kNoPropKey;
  std::string scan_key_name;
  Value scan_eq;                     // kIndexEq: the equality constant
  std::int64_t range_lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t range_hi = std::numeric_limits<std::int64_t>::max();
  double scan_estimate = 0.0;        // estimated candidate count
  /// True when the scan does not itself guarantee the pattern label and a
  /// residual integer label-id check is required per candidate.
  bool check_label = false;

  // Filter.
  /// Execution order. In source order the inline properties come first, as
  /// `var.key = value` equalities, ahead of the WHERE conjuncts.
  std::vector<PlannedPredicate> predicates;
  std::size_t predicates_pushed = 0;  // conjuncts consumed by the scan

  // Tail hand-off: clauses [tail_begin, end) run on the clause pipeline.
  std::size_t tail_begin = 0;
  const Query* query = nullptr;  // the planned statement (borrowed)

  // Projection/limit pushdown (only when the tail is one plain RETURN).
  const Clause* projection = nullptr;
  std::optional<std::int64_t> limit;

  /// Scan estimate times the product of residual selectivities — the
  /// service layer compares this against its admission threshold when
  /// degraded.
  double estimated_rows = 0.0;
};

/// One operator line of an EXPLAIN report.
struct PlanOpReport {
  std::string op;       // e.g. "scan", "filter", "project"
  std::string detail;   // e.g. "index-eq eventId = \"E17\""
  double estimated_rows = -1.0;  // < 0: no estimate
  double actual_rows = -1.0;     // < 0: not executed
  double seconds = -1.0;         // < 0: not timed
};

/// EXPLAIN output: the chosen plan (or the fallback reason), one line per
/// operator, with estimated and — after execution — actual row counts.
struct PlanReport {
  bool planned = false;
  std::string fallback_reason;
  std::vector<PlanOpReport> ops;

  /// Renders the report. Without timings the text is deterministic for a
  /// given graph + query — the golden-plan snapshot tests rely on that.
  [[nodiscard]] std::string to_text(bool include_timing = false) const;
};

/// Builds the skeleton report (estimates only) for a plan.
[[nodiscard]] PlanReport describe_plan(const Plan& plan);

/// Renders an expression as query text (best effort, for EXPLAIN details).
[[nodiscard]] std::string expr_to_string(const Expr& e);

class Planner {
 public:
  /// Plans against a concrete graph and parameter set; parameters are
  /// treated as constants, so planning happens per execution, not per parse.
  Planner(const ExecutionGraph& graph, const QueryParams& params)
      : graph_(graph), params_(params) {}

  /// Never throws: queries the batch executor does not run whole come back
  /// with planned == false and a human-readable fallback_reason.
  [[nodiscard]] Plan plan(const Query& query) const;

  /// One MATCH pattern node whose inline properties evaluated to `props`
  /// (in pattern order). With `scan`, the plan sources the node's
  /// candidates and filters them; without, it is the filter alone — label
  /// and every property — for nodes found another way (a head bound by an
  /// earlier clause, a relationship step's endpoints).
  [[nodiscard]] Plan plan_node(const NodePattern& node,
                               std::span<const Value> props, bool scan) const;

 private:
  /// Scan selection (when `scan`) and the residual filter of `node`, whose
  /// inline properties evaluated to `props`: their equalities, then the
  /// `where` conjuncts, in evaluation order.
  void plan_filter(Plan& p, const NodePattern& node,
                   std::span<const Value> props,
                   std::span<const Expr* const> where, bool scan) const;

  const ExecutionGraph& graph_;
  const QueryParams& params_;
};

}  // namespace horus::query
