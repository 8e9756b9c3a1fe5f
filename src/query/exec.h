// Batch executor for planned queries (src/query/planner.h): runs the
// scan → filter → (project → limit) prefix of a Plan a read batch at a time
// (one GraphStore::copy_nodes per batch of candidates) and hands any
// remaining clauses back to the legacy pipeline via Evaluator::run_from.
// Row-for-row identical to the tuple-at-a-time evaluator —
// tests/plan_differential_test.cpp is the oracle.
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
