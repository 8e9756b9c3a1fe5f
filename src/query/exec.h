// The MATCH front end (src/query/planner.h plans, this file runs): the
// batch executor of a planned query's scan → filter → (project → limit)
// prefix, and the pipeline's MATCH clause (internal::match_clause). Both
// gather a pattern head's candidates from its planned scan and pass every
// pattern node through one compiled filter, a read batch at a time (one
// GraphStore::copy_nodes per batch of candidates). Remaining clauses run on
// the pipeline via Evaluator::run_from. tests/plan_differential_test.cpp
// holds both to row-for-row equality with a brute-force reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/eval_internal.h"
#include "query/planner.h"

namespace horus::query {

/// Counters the engine folds into the obs registry after execution.
struct ExecCounters {
  std::uint64_t segments_pruned = 0;
};

/// Executes the planned prefix. `plan.planned` must be true. When `report`
/// is non-null, fills in actual row counts and per-operator timings on the
/// ops produced by describe_plan (same op order). The returned RowSet is
/// the planned prefix's output: the final result when the plan absorbed the
/// projection, otherwise the MATCH/WHERE row stream for
/// Evaluator::run_from(query, plan.tail_begin, ...).
[[nodiscard]] internal::RowSet execute_plan(const internal::Evaluator& ev,
                                            const Plan& plan,
                                            PlanReport* report,
                                            ExecCounters* counters);

}  // namespace horus::query
