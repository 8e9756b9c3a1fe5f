// Query planner: lowers a MATCH/WHERE query prefix into a typed logical
// plan — scan → filter → (project → limit) — that the batch executor
// (src/query/exec.h) runs column-at-a-time. Planning is deliberately
// conservative: any shape the planner cannot prove row-identical to the
// tuple-at-a-time evaluator becomes a fallback (Plan::planned == false) and
// the legacy pipeline runs instead. tests/plan_differential_test.cpp holds
// planned execution to row-for-row equality with the legacy path.
//
// What the planner does:
//  * Scan selection — picks the cheapest access path for the MATCH head by
//    estimated candidate count: hash-index equality lookup, ordered-index
//    range scan, segment-summary range pruning, label scan, or full scan.
//    Index-backed scans re-sort candidates into ascending node-id order so
//    downstream rows match the legacy full-scan order exactly.
//  * Predicate pushdown — equality and range conjuncts on indexed keys move
//    out of the WHERE filter and into the scan; range conjuncts on the same
//    key intersect into one [lo, hi] window.
//  * Conjunct reordering — remaining WHERE conjuncts are ranked by estimated
//    selectivity (cheap per-column stats: index bucket sizes, interned-pool
//    cardinality) so the cheapest, most selective filters run first.
//    Conjuncts that can throw (unknown functions, missing parameters,
//    arithmetic) are never moved ahead of their source position, preserving
//    the legacy engine's error behavior.
//  * Limit/projection pushdown — a trailing plain RETURN (no aggregates, no
//    ORDER BY, no DISTINCT) folds into the executor so a LIMIT stops the
//    scan early.
//
// A Plan borrows the Query AST and the parameter map: both must outlive it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/causal_query.h"
#include "query/ast.h"
#include "query/value.h"

namespace horus::query {

/// Access path for the MATCH head's candidate stream.
enum class ScanKind {
  kAllNodes,      // full scan, ascending node id
  kLabel,         // label index (insertion order == ascending id)
  kIndexEq,       // hash index equality bucket, re-sorted ascending
  kRange,         // ordered index [lo, hi], re-sorted ascending
  kSegmentSkip,   // full scan minus segments excluded by range summaries
  kPatternProps,  // inline pattern properties via the legacy candidates()
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
  const Expr* expr = nullptr;       // the conjunct (borrowed from the AST)
  graph::PropKeyId key = graph::kNoPropKey;  // kInternedEq / kPropCompare
  std::string key_name;             // for EXPLAIN
  BinaryOp op = BinaryOp::kEq;      // kPropCompare: comparison operator
  Value constant;                   // kInternedEq / kPropCompare: rhs value
  bool flipped = false;             // constant was on the left
  double selectivity = 1.0;         // estimated survivor fraction
  bool reorderable = true;          // false: must keep source order
  std::size_t source_order = 0;     // position among the original conjuncts
};

/// Typed logical plan for a query's MATCH/WHERE prefix.
struct Plan {
  bool planned = false;
  std::string fallback_reason;  // set when !planned

  // Scan.
  ScanKind scan = ScanKind::kAllNodes;
  std::string variable;              // MATCH head variable
  std::string label;                 // pattern label ("" or "EVENT" = any)
  const PathPattern* head = nullptr;       // kPatternProps: legacy candidates
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
  std::vector<PlannedPredicate> predicates;  // execution order
  std::size_t predicates_pushed = 0;  // conjuncts consumed by the scan

  // Tail hand-off: clauses [tail_begin, end) run on the legacy pipeline.
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

  /// Never throws: unplannable queries come back with planned == false and
  /// a human-readable fallback_reason.
  [[nodiscard]] Plan plan(const Query& query) const;

 private:
  const ExecutionGraph& graph_;
  const QueryParams& params_;
};

}  // namespace horus::query
