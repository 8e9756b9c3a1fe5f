#include "query/exec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

#include "graph/segment.h"

namespace horus::query {

namespace {

using internal::Evaluator;
using internal::kReadBatch;
using internal::PropBatch;
using internal::RowSet;

/// Per-predicate state resolved once per execution: the column of the
/// batch's copy it reads, and for kInternedEq the constant's pool id. The
/// per-row cost is then an integer compare (interned columns), an in-place
/// typed compare (copied values), or — only for kGeneric — one expression
/// evaluation over a reused scratch row.
struct CompiledPredicate {
  const PlannedPredicate* pp = nullptr;
  std::size_t column = 0;  // kInternedEq: ids column; kPropCompare: values
  std::uint32_t pool_id = graph::kNoPoolId;
  bool pool_present = false;
};

/// The filter's reads, all of the head variable (column 0): label ids for
/// the label check, pool ids for kInternedEq, values for kPropCompare and
/// the `var.key` accesses of kGeneric conjuncts — one copy per batch.
struct Filter {
  PropBatch reads;
  std::vector<CompiledPredicate> preds;
};

[[nodiscard]] Filter compile_filter(const Evaluator& ev, const Plan& plan,
                                    const RowSet& scratch) {
  const graph::GraphStore& store = ev.graph_.store();
  Filter out;
  if (plan.check_label) out.reads.add_labels(0);
  out.preds.reserve(plan.predicates.size());
  for (const PlannedPredicate& pp : plan.predicates) {
    CompiledPredicate c;
    c.pp = &pp;
    switch (pp.kind) {
      case PlannedPredicate::Kind::kInternedEq:
        c.column = out.reads.add_ids(0, pp.key);
        if (const auto id =
                store.interned_value_id(pp.key, pp.constant.as_string())) {
          c.pool_id = *id;
          c.pool_present = true;
        }
        break;
      case PlannedPredicate::Kind::kPropCompare:
        c.column = out.reads.add_values(0, pp.key);
        break;
      case PlannedPredicate::Kind::kGeneric:
        ev.add_reads(out.reads, *pp.expr, scratch);
        break;
    }
    out.preds.push_back(c);
  }
  return out;
}

/// One predicate against the batch's node `at`. `scratch`/`row` form a
/// reusable single-row binding of the head variable for kGeneric conjuncts
/// — the node slot is overwritten in place, no per-row allocation.
[[nodiscard]] bool predicate_matches(const Evaluator& ev,
                                     const CompiledPredicate& c,
                                     const PropBatch& reads, std::size_t at,
                                     graph::NodeId node, RowSet& scratch,
                                     std::vector<Value>& row) {
  const PlannedPredicate& pp = *c.pp;
  switch (pp.kind) {
    case PlannedPredicate::Kind::kInternedEq: {
      const std::uint32_t id = reads.copy(0).ids[c.column][at];
      if (pp.op == BinaryOp::kEq) return c.pool_present && id == c.pool_id;
      // <>: absent compares incomparable to a string (null-ish), so only
      // present-and-different survives — same verdict the legacy
      // compare_values path produces.
      return id != graph::kNoPoolId && (!c.pool_present || id != c.pool_id);
    }
    case PlannedPredicate::Kind::kPropCompare:
      // pp.op is already normalized to property-on-the-left orientation.
      return internal::compare_verdict(
                 pp.op, internal::compare_property_value(
                            reads.copy(0).values[c.column][at], pp.constant))
          .truthy();
    case PlannedPredicate::Kind::kGeneric:
      row[0] = Value(NodeRef{node});
      return ev.eval_expr(*pp.expr, scratch, row, &reads, at).truthy();
  }
  return false;
}

/// Filters `candidates` a read batch at a time: one copy of the
/// batch's reads, then the label check and each predicate compact the
/// batch in turn — the cheapest (most selective) predicates run first, so
/// later ones see shrinking batches. Appends survivors to `out` until it
/// holds `limit` or the guard stops it, counting each predicate's
/// survivors.
void filter_range(const Evaluator& ev, const Plan& plan,
                  std::span<const graph::NodeId> candidates,
                  std::optional<std::uint32_t> label_id, Filter& filter,
                  std::uint64_t limit, std::vector<graph::NodeId>& out,
                  std::vector<std::uint64_t>& pred_survivors) {
  QueryGuard* guard = ev.options_.guard;
  if (plan.check_label && !label_id) return;  // no node has the label
  RowSet scratch;
  scratch.columns.push_back(plan.variable);
  std::vector<Value> srow(1);
  std::vector<std::uint32_t> alive(kReadBatch);  // batch positions
  for (std::size_t base = 0; base < candidates.size(); base += kReadBatch) {
    if (guard != nullptr && !guard->keep_going()) return;
    const auto batch = candidates.subspan(
        base, std::min(kReadBatch, candidates.size() - base));
    filter.reads.fetch(ev.graph_.store(), batch);
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      if (!plan.check_label || filter.reads.copy(0).labels[i] == *label_id) {
        alive[n++] = i;
      }
    }
    for (std::size_t p = 0; p < filter.preds.size() && n > 0; ++p) {
      std::size_t m = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (predicate_matches(ev, filter.preds[p], filter.reads, alive[j],
                              batch[alive[j]], scratch, srow)) {
          alive[m++] = alive[j];
        }
      }
      n = m;
      pred_survivors[p] += m;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (out.size() >= limit) return;
      // Admit before pushing so a tripped max_rows yields exactly the
      // admitted prefix as the partial result.
      if (guard != nullptr && !guard->admit_rows()) return;
      out.push_back(batch[alive[j]]);
    }
  }
}

/// Candidate node stream for the plan's scan, in exactly the order the
/// legacy pipeline would emit MATCH rows (ascending node id for the
/// index-backed scans — matching the full scan they replace — and the
/// index's own order where legacy used that same index).
[[nodiscard]] std::vector<graph::NodeId> gather_candidates(
    const Evaluator& ev, const Plan& plan, ExecCounters* counters) {
  const graph::GraphStore& store = ev.graph_.store();
  switch (plan.scan) {
    case ScanKind::kAllNodes:
      return store.all_nodes();
    case ScanKind::kLabel:
      return store.nodes_with_label(plan.label);
    case ScanKind::kIndexEq: {
      // Probe every bucket whose stored type can compare equal to the
      // constant: exact-typed plus the cross-typed numeric bucket (the
      // WHERE compare is numeric, the hash index is typed).
      std::vector<graph::NodeId> found;
      auto probe = [&](const graph::PropertyValue& pv) {
        auto bucket = store.find_nodes(plan.scan_key, pv);
        found.insert(found.end(), bucket.begin(), bucket.end());
      };
      const Value& v = plan.scan_eq;
      if (v.is_bool()) {
        probe(graph::PropertyValue(v.as_bool()));
      } else if (v.is_string()) {
        probe(graph::PropertyValue(v.as_string()));
      } else if (v.is_number()) {
        const double d = v.as_number();
        probe(graph::PropertyValue(d));
        if (std::floor(d) == d &&
            d >= static_cast<double>(std::numeric_limits<std::int64_t>::min()) &&
            d <= static_cast<double>(std::numeric_limits<std::int64_t>::max())) {
          probe(graph::PropertyValue(static_cast<std::int64_t>(d)));
        }
      }
      std::sort(found.begin(), found.end());
      found.erase(std::unique(found.begin(), found.end()), found.end());
      return found;
    }
    case ScanKind::kRange: {
      if (plan.range_lo > plan.range_hi) return {};
      auto found = store.range_scan(plan.scan_key, plan.range_lo, plan.range_hi);
      std::sort(found.begin(), found.end());
      return found;
    }
    case ScanKind::kSegmentSkip: {
      graph::SegmentManager* segments = store.segments();
      if (segments == nullptr) return store.all_nodes();
      std::size_t skipped = 0;
      const auto ranges =
          segments->scan_ranges(plan.scan_key, plan.range_lo, plan.range_hi,
                                &skipped);
      if (counters != nullptr) counters->segments_pruned += skipped;
      std::size_t total = 0;
      for (const auto& [begin, end] : ranges) total += end - begin;
      std::vector<graph::NodeId> found;
      found.reserve(total);
      for (const auto& [begin, end] : ranges) {
        for (graph::NodeId n = begin; n < end; ++n) found.push_back(n);
      }
      return found;
    }
    case ScanKind::kPatternProps: {
      RowSet bootstrap;
      bootstrap.rows.push_back({});
      const auto props = ev.eval_pattern_props(plan.head->head, bootstrap,
                                               bootstrap.rows.front());
      return ev.candidates(plan.head->head, props);
    }
  }
  return {};
}

}  // namespace

RowSet execute_plan(const Evaluator& ev, const Plan& plan, PlanReport* report,
                    ExecCounters* counters) {
  const graph::GraphStore& store = ev.graph_.store();
  QueryGuard* guard = ev.options_.guard;
  const auto t_start = std::chrono::steady_clock::now();

  if (guard != nullptr && guard->stopped()) {
    RowSet rows;  // legacy run(): guard tripped before the first clause
    rows.rows.push_back({});
    return rows;
  }

  // ---- scan -----------------------------------------------------------------

  std::vector<graph::NodeId> candidates =
      gather_candidates(ev, plan, counters);
  const auto t_scan = std::chrono::steady_clock::now();

  // ---- filter ---------------------------------------------------------------

  std::optional<std::uint32_t> label_id;
  if (plan.check_label) label_id = store.label_id(plan.label);
  RowSet scratch;
  scratch.columns.push_back(plan.variable);
  Filter filter = compile_filter(ev, plan, scratch);
  const std::size_t pred_count = filter.preds.size();
  std::vector<std::uint64_t> pred_survivors(pred_count, 0);

  // LIMIT folds into the filter only when the projection did too (then the
  // plan's rows map 1:1 onto result rows). A negative literal matches the
  // legacy size_t-cast behavior: no truncation.
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  if (plan.projection != nullptr && plan.limit && *plan.limit >= 0) {
    limit = static_cast<std::uint64_t>(*plan.limit);
  }

  if (guard != nullptr) guard->begin_rows_section();

  std::vector<graph::NodeId> survivors;
  if (!ev.fan_out(candidates.size())) {
    filter_range(ev, plan, candidates, label_id, filter, limit, survivors,
                 pred_survivors);
  } else {
    // Chunk-order-deterministic fan-out, same shape as the legacy WHERE:
    // per-chunk survivor lists concatenate in chunk order, so the row
    // stream is identical to the sequential loop for any thread count.
    const std::size_t n = candidates.size();
    const std::size_t grain = ev.fan_out_grain(n);
    struct ChunkOut {
      std::vector<graph::NodeId> survivors;
      std::vector<std::uint64_t> pred_survivors;
    };
    std::vector<ChunkOut> chunks(ThreadPool::chunk_count(n, grain));
    ev.options_.effective_pool().parallel_for(
        n, grain, ev.options_.effective_threads(),
        [&](ThreadPool::ChunkRange chunk) {
          ChunkOut& local = chunks[chunk.index];
          local.pred_survivors.assign(pred_count, 0);
          Filter local_filter = filter;
          filter_range(ev, plan,
                       std::span(candidates)
                           .subspan(chunk.begin, chunk.end - chunk.begin),
                       label_id, local_filter,
                       std::numeric_limits<std::uint64_t>::max(),
                       local.survivors, local.pred_survivors);
        });
    for (const ChunkOut& chunk : chunks) {
      survivors.insert(survivors.end(), chunk.survivors.begin(),
                       chunk.survivors.end());
      for (std::size_t p = 0; p < chunk.pred_survivors.size(); ++p) {
        pred_survivors[p] += chunk.pred_survivors[p];
      }
    }
    if (survivors.size() > limit) {
      survivors.resize(static_cast<std::size_t>(limit));
    }
  }
  const auto t_filter = std::chrono::steady_clock::now();

  // ---- output / projection --------------------------------------------------

  RowSet out;
  if (plan.projection != nullptr) {
    // Survivors were already admitted through the guard one-for-one in the
    // filter stage (plan rows map 1:1 onto result rows here), so the
    // projection only materializes them — re-admitting would double-count
    // and empty out a partial result after a tripped max_rows. Each batch's
    // `var.key` items are read with one copy.
    PropBatch reads;
    for (const auto& item : plan.projection->projections) {
      out.columns.push_back(item.alias);
      ev.add_reads(reads, *item.expr, scratch);
    }
    std::vector<Value> srow(1);
    const auto rows = static_cast<std::size_t>(
        std::min<std::uint64_t>(survivors.size(), limit));
    out.rows.reserve(rows);
    for (std::size_t base = 0; base < rows; base += kReadBatch) {
      const auto batch =
          std::span(survivors).subspan(base, std::min(kReadBatch, rows - base));
      reads.fetch(store, batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        srow[0] = Value(NodeRef{batch[i]});
        std::vector<Value> projected;
        projected.reserve(plan.projection->projections.size());
        for (const auto& item : plan.projection->projections) {
          projected.push_back(
              ev.eval_expr(*item.expr, scratch, srow, &reads, i));
        }
        out.rows.push_back(std::move(projected));
      }
    }
  } else if (!survivors.empty()) {
    out.columns.push_back(plan.variable);
    out.rows.reserve(survivors.size());
    for (const graph::NodeId node : survivors) {
      out.rows.emplace_back(1, Value(NodeRef{node}));
    }
  }
  // No survivors and no projection: the legacy MATCH never bound the
  // variable, so the hand-off RowSet has no columns either (RETURN * parity).
  const auto t_end = std::chrono::steady_clock::now();

  // ---- instrumentation ------------------------------------------------------

  auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  if (report != nullptr && !report->ops.empty()) {
    std::size_t idx = 0;
    report->ops[idx].actual_rows = static_cast<double>(candidates.size());
    report->ops[idx].seconds = secs(t_start, t_scan);
    ++idx;
    for (std::size_t p = 0; p < pred_count && idx < report->ops.size();
         ++p, ++idx) {
      report->ops[idx].actual_rows = static_cast<double>(pred_survivors[p]);
      if (p == 0) report->ops[idx].seconds = secs(t_scan, t_filter);
    }
    if (plan.projection != nullptr && idx < report->ops.size()) {
      report->ops[idx].actual_rows = static_cast<double>(out.rows.size());
      report->ops[idx].seconds = secs(t_filter, t_end);
    }
  }
  if (obs::QueryProfile* profile = ev.options_.profile) {
    obs::QueryProfile::ClauseStats scan_stats;
    scan_stats.clause =
        "plan:scan[" + std::string(scan_kind_name(plan.scan)) + "]";
    scan_stats.rows_in = 0;
    scan_stats.rows_out = candidates.size();
    scan_stats.seconds = secs(t_start, t_scan);
    profile->add_clause(std::move(scan_stats));
    if (pred_count > 0 || plan.check_label) {
      obs::QueryProfile::ClauseStats filter_stats;
      filter_stats.clause = "plan:filter";
      filter_stats.rows_in = candidates.size();
      filter_stats.rows_out = survivors.size();
      filter_stats.seconds = secs(t_scan, t_filter);
      profile->add_clause(std::move(filter_stats));
    }
    if (plan.projection != nullptr) {
      obs::QueryProfile::ClauseStats project_stats;
      project_stats.clause = "plan:project";
      project_stats.rows_in = survivors.size();
      project_stats.rows_out = out.rows.size();
      project_stats.seconds = secs(t_filter, t_end);
      profile->add_clause(std::move(project_stats));
    }
  }
  return out;
}

}  // namespace horus::query
