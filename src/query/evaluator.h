// Query evaluator: executes a parsed query as a Cypher-style row pipeline
// over an ExecutionGraph.
//
// Each clause transforms a RowSet (named columns x rows of Values):
//   MATCH   expands rows with all pattern assignments (each head a planned
//           scan, each pattern node through one compiled filter, steps
//           over adjacency; src/query/exec.h)
//   WHERE   filters rows
//   WITH    projects (with grouping when aggregates are present)
//   UNWIND  explodes a list column
//   CALL    invokes a registered procedure per row, appending YIELD columns
//   RETURN  terminal projection (same machinery as WITH)
//
// Deviations from full Cypher, chosen to keep the engine small while
// supporting the paper's queries: boolean logic is two-valued (null is
// falsy), relationship variables are not bindable, and variable-length
// patterns (`-[*]->`, `-[*1..3]->`) bind one row per *distinct endpoint*
// rather than one row per path (path enumeration is exactly the baseline
// inefficiency the horus.* procedures replace).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/causal_query.h"
#include "core/execution_graph.h"
#include "query/ast.h"
#include "query/lexer.h"
#include "query/planner.h"
#include "query/value.h"

namespace horus::query {

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  /// True when QueryOptions::guard tripped mid-execution: rows are a
  /// well-formed partial answer, cut short for `truncated_reason`
  /// ("deadline", "max_rows", "max_visited_nodes" or "cancelled").
  bool truncated = false;
  std::string truncated_reason;

  /// Plain-text table rendering for console output.
  [[nodiscard]] std::string to_table() const;
};

/// A procedure takes evaluated arguments and returns rows of its declared
/// yield columns.
struct ProcedureDef {
  std::vector<std::string> yield_columns;
  std::function<std::vector<std::vector<Value>>(const std::vector<Value>&)> fn;
};

/// EXPLAIN output: the plan report (estimates, and actual per-operator row
/// counts) together with the query result.
struct ExplainResult {
  PlanReport report;
  QueryResult result;

  /// The plan rendered as text; `include_timing` adds per-operator wall
  /// times (timed output is non-deterministic — goldens use the default).
  [[nodiscard]] std::string plan_text(bool include_timing = false) const {
    return report.to_text(include_timing);
  }
};

class QueryEngine {
 public:
  /// @param options parallelism knob: with threads > 1 the row-at-a-time
  ///        clauses (MATCH pattern expansion, WHERE filtering, CALL
  ///        procedure fan-out) dispatch independent sub-queries — fixed
  ///        row chunks — to the thread pool and merge the per-chunk
  ///        results in chunk order, so output ordering is unchanged.
  ///        Registered procedures must be thread-safe when threads > 1
  ///        (the built-in horus.* procedures are).
  explicit QueryEngine(const ExecutionGraph& graph, QueryOptions options = {})
      : graph_(graph), options_(options) {}

  /// Registers (or replaces) a callable procedure, e.g.
  /// "horus.getCausalGraph".
  void register_procedure(std::string name, ProcedureDef def);

  /// Parses and runs a query.
  [[nodiscard]] QueryResult run(std::string_view text,
                                const QueryParams& params = {}) const;

  /// Runs a pre-parsed query.
  [[nodiscard]] QueryResult run(const Query& query,
                                const QueryParams& params = {}) const;

  /// EXPLAIN: plans the query and runs it, returning the chosen plan (with
  /// per-operator estimated vs actual rows) alongside the result. When the
  /// query is not lowered whole into a plan, the report carries the reason
  /// and the clause pipeline produces the rows.
  [[nodiscard]] ExplainResult explain(std::string_view text,
                                      const QueryParams& params = {}) const;

  [[nodiscard]] const ExecutionGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const QueryOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::map<std::string, ProcedureDef, std::less<>>&
  procedures() const noexcept {
    return procedures_;
  }

 private:
  [[nodiscard]] QueryResult run_impl(const Query& query,
                                     const QueryParams& params,
                                     PlanReport* report) const;

  const ExecutionGraph& graph_;
  QueryOptions options_;
  std::map<std::string, ProcedureDef, std::less<>> procedures_;
};

}  // namespace horus::query
