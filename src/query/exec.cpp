#include "query/exec.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <set>
#include <span>

#include "graph/segment.h"

namespace horus::query {

namespace internal {

namespace {

using graph::NodeId;

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

/// Per-predicate state resolved once per filter: the column of the batch's
/// copy it reads, and for kInternedEq the constant's pool id. The per-row
/// cost is then an integer compare (interned columns), an in-place typed
/// compare (copied values), or — only for kGeneric — one expression
/// evaluation over a reused scratch row.
struct CompiledPredicate {
  const PlannedPredicate* pp = nullptr;
  std::size_t column = 0;  // kInternedEq: ids column; kPropCompare: values
  std::uint32_t pool_id = graph::kNoPoolId;
  bool pool_present = false;
};

/// A plan's label check and predicates, compiled: the one node filter of
/// MATCH (planned scans, bound heads and relationship steps' endpoints).
/// Its reads are all of the plan's variable (column 0): label ids for the
/// label check, pool ids for kInternedEq, values for kPropCompare and the
/// `var.key` accesses of kGeneric conjuncts — one copy per batch. It points
/// into its plan, which must outlive it. A copy shares the compilation and
/// owns its buffers (one per thread of a parallel filter).
struct Filter {
  bool check_label = false;
  std::optional<std::uint32_t> label_id;  // nullopt: no node has the label
  PropBatch reads;
  std::vector<CompiledPredicate> preds;
  std::vector<std::uint64_t> survivors;  // per predicate, for EXPLAIN
  RowSet scratch;                        // binds the variable, for kGeneric
  std::vector<Value> row = std::vector<Value>(1);
  std::vector<std::uint32_t> alive;  // batch positions still passing
};

[[nodiscard]] Filter compile_filter(const Evaluator& ev, const Plan& plan) {
  const graph::GraphStore& store = ev.graph_.store();
  Filter out;
  out.scratch.columns.push_back(plan.variable);
  out.check_label = plan.check_label;
  if (plan.check_label) {
    out.label_id = store.label_id(plan.label);
    out.reads.add_labels(0);
  }
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
        ev.add_reads(out.reads, *pp.expr, out.scratch);
        break;
    }
    out.preds.push_back(c);
  }
  out.survivors.assign(out.preds.size(), 0);
  return out;
}

/// One predicate against the batch's node `at`. For kGeneric conjuncts the
/// filter's one-row binding of the variable is overwritten in place, no
/// per-row allocation.
[[nodiscard]] bool predicate_matches(const Evaluator& ev,
                                     const CompiledPredicate& c, Filter& f,
                                     std::size_t at, NodeId node) {
  const PlannedPredicate& pp = *c.pp;
  switch (pp.kind) {
    case PlannedPredicate::Kind::kInternedEq: {
      const std::uint32_t id = f.reads.copy(0).ids[c.column][at];
      if (pp.op == BinaryOp::kEq) return c.pool_present && id == c.pool_id;
      // <>: absent compares incomparable to a string (null-ish), so only
      // present-and-different survives — the compare_values verdict.
      return id != graph::kNoPoolId && (!c.pool_present || id != c.pool_id);
    }
    case PlannedPredicate::Kind::kPropCompare:
      // pp.op is already normalized to property-on-the-left orientation.
      return compare_verdict(pp.op,
                             compare_property_value(
                                 f.reads.copy(0).values[c.column][at],
                                 pp.constant))
          .truthy();
    case PlannedPredicate::Kind::kGeneric:
      f.row[0] = Value(NodeRef{node});
      return ev.eval_expr(*pp.expr, f.scratch, f.row, &f.reads, at).truthy();
  }
  return false;
}

/// Passes `candidates` through `filter` a read batch at a time: one copy of
/// the batch's reads, then the label check and each predicate compact the
/// batch in turn — the cheapest (most selective) predicates run first, so
/// later ones see shrinking batches. Appends survivors to `out` until it
/// holds `limit` or the guard stops it. With `admit`, each survivor is
/// admitted as a row first (the planned prefix, whose nodes are its rows),
/// so a tripped max_rows yields exactly the admitted prefix.
void filter_range(const Evaluator& ev, std::span<const NodeId> candidates,
                  Filter& filter, std::uint64_t limit, bool admit,
                  std::vector<NodeId>& out) {
  QueryGuard* guard = ev.options_.guard;
  if (filter.check_label && !filter.label_id) return;
  filter.alive.resize(std::min(kReadBatch, candidates.size()));
  for (std::size_t base = 0; base < candidates.size(); base += kReadBatch) {
    if (guard != nullptr && !guard->keep_going()) return;
    const auto batch = candidates.subspan(
        base, std::min(kReadBatch, candidates.size() - base));
    filter.reads.fetch(ev.graph_.store(), batch);
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      if (!filter.check_label ||
          filter.reads.copy(0).labels[i] == *filter.label_id) {
        filter.alive[n++] = i;
      }
    }
    for (std::size_t p = 0; p < filter.preds.size() && n > 0; ++p) {
      std::size_t m = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t at = filter.alive[j];
        if (predicate_matches(ev, filter.preds[p], filter, at, batch[at])) {
          filter.alive[m++] = at;
        }
      }
      n = m;
      filter.survivors[p] += m;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (out.size() >= limit) return;
      if (admit && guard != nullptr && !guard->admit_rows()) return;
      out.push_back(batch[filter.alive[j]]);
    }
  }
}

/// filter_range over all of `candidates`, fanned out over the pool when
/// they are many: per-chunk survivors concatenate in chunk order, so the
/// node stream is the sequential loop's for any thread count.
[[nodiscard]] std::vector<NodeId> filter_nodes(
    const Evaluator& ev, std::span<const NodeId> candidates, Filter& filter,
    std::uint64_t limit, bool admit) {
  std::vector<NodeId> survivors;
  if (!ev.fan_out(candidates.size())) {
    filter_range(ev, candidates, filter, limit, admit, survivors);
    return survivors;
  }
  const std::size_t n = candidates.size();
  const std::size_t grain = ev.fan_out_grain(n);
  struct ChunkOut {
    std::vector<NodeId> survivors;
    std::vector<std::uint64_t> pred_survivors;
  };
  std::vector<ChunkOut> chunks(ThreadPool::chunk_count(n, grain));
  ev.options_.effective_pool().parallel_for(
      n, grain, ev.options_.effective_threads(),
      [&](ThreadPool::ChunkRange chunk) {
        Filter local = filter;
        local.survivors.assign(local.preds.size(), 0);
        filter_range(ev,
                     candidates.subspan(chunk.begin, chunk.end - chunk.begin),
                     local, kNoLimit, admit, chunks[chunk.index].survivors);
        chunks[chunk.index].pred_survivors = std::move(local.survivors);
      });
  for (const ChunkOut& chunk : chunks) {
    survivors.insert(survivors.end(), chunk.survivors.begin(),
                     chunk.survivors.end());
    for (std::size_t p = 0; p < chunk.pred_survivors.size(); ++p) {
      filter.survivors[p] += chunk.pred_survivors[p];
    }
  }
  if (survivors.size() > limit) {
    survivors.resize(static_cast<std::size_t>(limit));
  }
  return survivors;
}

/// `nodes` in ascending order (an index bucket usually is already).
[[nodiscard]] std::vector<NodeId> ascending(std::vector<NodeId> nodes) {
  if (!std::is_sorted(nodes.begin(), nodes.end())) {
    std::sort(nodes.begin(), nodes.end());
  }
  return nodes;
}

/// Candidate node stream for the plan's scan, in ascending node id: the
/// index-backed scans re-sort into the order of the full scan they replace.
[[nodiscard]] std::vector<NodeId> gather_candidates(const Evaluator& ev,
                                                    const Plan& plan,
                                                    ExecCounters* counters) {
  const graph::GraphStore& store = ev.graph_.store();
  switch (plan.scan) {
    case ScanKind::kAllNodes:
      return store.all_nodes();
    case ScanKind::kLabel:
      return store.nodes_with_label(plan.label);
    case ScanKind::kIndexEq: {
      // One bucket: the index hashes and compares numbers by value, as the
      // WHERE equality does.
      const auto probe = to_property(plan.scan_eq);
      if (!probe) return {};
      return ascending(store.find_nodes(plan.scan_key, *probe));
    }
    case ScanKind::kRange:
      if (plan.range_lo > plan.range_hi) return {};
      return ascending(
          store.range_scan(plan.scan_key, plan.range_lo, plan.range_hi));
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
      std::vector<NodeId> found;
      found.reserve(total);
      for (const auto& [begin, end] : ranges) {
        for (NodeId n = begin; n < end; ++n) found.push_back(n);
      }
      return found;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// MATCH
// ---------------------------------------------------------------------------

/// A pattern node's plan with its compiled filter.
struct NodeMatch {
  Plan plan;
  Filter filter;
};

[[nodiscard]] NodeMatch node_match(const Evaluator& ev,
                                   const NodePattern& node,
                                   std::span<const Value> props, bool scan) {
  NodeMatch m;
  m.plan = Planner(ev.graph_, ev.params_).plan_node(node, props, scan);
  m.filter = compile_filter(ev, m.plan);
  return m;
}

/// Keeps, in order, the nodes of `nodes` that pass `m`'s filter.
void keep_matching(const Evaluator& ev, NodeMatch& m,
                   std::vector<NodeId>& nodes) {
  if (!m.filter.check_label && m.filter.preds.empty()) return;
  std::vector<NodeId> kept;
  filter_range(ev, nodes, m.filter, kNoLimit, /*admit=*/false, kept);
  nodes = std::move(kept);
}

/// The nodes of `head`'s planned scan whose inline properties are `props`.
[[nodiscard]] std::vector<NodeId> scan_heads(const Evaluator& ev,
                                             const NodePattern& head,
                                             std::span<const Value> props) {
  NodeMatch scan = node_match(ev, head, props, /*scan=*/true);
  return filter_nodes(ev, gather_candidates(ev, scan.plan, nullptr),
                      scan.filter, kNoLimit, /*admit=*/false);
}

/// The inline property values of `node` for `row`.
[[nodiscard]] std::vector<Value> node_props(const Evaluator& ev,
                                            const NodePattern& node,
                                            const RowSet& schema,
                                            const std::vector<Value>& row) {
  std::vector<Value> out;
  out.reserve(node.properties.size());
  for (const auto& [key, expr] : node.properties) {
    out.push_back(ev.eval_expr(*expr, schema, row));
  }
  return out;
}

/// A path pattern resolved for one row: the head's inline property values,
/// and each step's edge type and endpoint filter.
struct PathMatch {
  std::vector<Value> head_props;
  std::vector<NodeMatch> steps;
  std::vector<std::optional<graph::EdgeTypeId>> types;
  bool missing_type = false;  // a step names an edge type never stored
};

[[nodiscard]] PathMatch path_match(const Evaluator& ev,
                                   const PathPattern& path,
                                   const RowSet& schema,
                                   const std::vector<Value>& row) {
  const graph::GraphStore& store = ev.graph_.store();
  PathMatch m;
  m.head_props = node_props(ev, path.head, schema, row);
  m.steps.reserve(path.steps.size());
  for (const PatternStep& step : path.steps) {
    m.steps.push_back(node_match(ev, step.node,
                                 node_props(ev, step.node, schema, row),
                                 /*scan=*/false));
    m.types.push_back(step.edge_type.empty()
                          ? std::nullopt
                          : store.edge_type_id(step.edge_type));
    m.missing_type =
        m.missing_type || (!step.edge_type.empty() && !m.types.back());
  }
  return m;
}

/// Nodes reachable from `from` within [min_hops, max_hops] hops along
/// edges of the requested type/direction (max_hops == 0 = unbounded).
/// BFS over (node, depth) states — polynomial even on diamond-rich
/// happens-before graphs. Each visited node's adjacency is copied.
[[nodiscard]] std::vector<NodeId> var_length_endpoints(
    const graph::GraphStore& store, NodeId from, const PatternStep& step,
    std::optional<graph::EdgeTypeId> want_type, bool right) {
  const std::uint32_t max_hops =
      step.max_hops == 0 ? std::numeric_limits<std::uint32_t>::max()
                         : step.max_hops;
  const graph::NodeReadSpec spec{.edges = right ? graph::EdgeDirection::kOut
                                                : graph::EdgeDirection::kIn};
  graph::NodeCopy adjacency;
  const auto edges_of = [&](NodeId v) {
    const NodeId one[] = {v};
    store.copy_nodes(one, spec, adjacency);
    return adjacency.of(0);
  };

  std::vector<NodeId> result;
  if (step.min_hops <= 1 && step.max_hops == 0) {
    // Common fast path: plain reachability flood (any depth >= 1).
    std::vector<bool> seen(store.node_count(), false);
    std::vector<NodeId> stack;
    auto expand = [&](NodeId v) {
      for (const graph::Edge& e : edges_of(v)) {
        if (want_type && e.type != *want_type) continue;
        // A writer may have appended the node since node_count().
        if (e.to >= seen.size()) seen.resize(e.to + 1, false);
        if (!seen[e.to]) {
          seen[e.to] = true;
          result.push_back(e.to);
          stack.push_back(e.to);
        }
      }
    };
    expand(from);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      expand(v);
    }
    return result;
  }

  // General case: BFS over (node, depth) states up to max_hops.
  std::set<std::pair<NodeId, std::uint32_t>> visited;
  std::set<NodeId> endpoints;
  std::vector<std::pair<NodeId, std::uint32_t>> frontier{{from, 0}};
  while (!frontier.empty()) {
    const auto [v, depth] = frontier.back();
    frontier.pop_back();
    if (depth >= max_hops) continue;
    for (const graph::Edge& e : edges_of(v)) {
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

/// Extends `row` with one path pattern, resolved for this row; appends
/// complete rows to `out`.
void match_path(const Evaluator& ev, const PathPattern& path,
                const RowSet& schema, const std::vector<Value>& row,
                std::vector<std::string>& new_columns,
                std::vector<std::vector<Value>>& out) {
  // Binding map: variable -> column (existing schema or appended).
  auto bound_node = [&](const std::string& var,
                        const std::vector<Value>& current)
      -> std::optional<NodeId> {
    if (var.empty()) return std::nullopt;
    const int idx = schema.column_index(var);
    if (idx >= 0) {
      const Value& v = current[static_cast<std::size_t>(idx)];
      if (v.is_node()) return v.as_node().id;
      if (!v.is_null()) Evaluator::fail("variable '" + var + "' is not a node");
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

  auto bind = [&](const std::string& var, NodeId node,
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

  const graph::GraphStore& store = ev.graph_.store();
  PathMatch m = path_match(ev, path, schema, row);

  // Recursive step matcher. Each step copies the previous node's adjacency
  // (never a span into the store) and keeps the endpoints its node filter
  // passes, in edge order.
  graph::NodeCopy adjacency;
  std::function<void(std::size_t, NodeId, std::vector<Value>&)> match_steps =
      [&](std::size_t step_index, NodeId prev, std::vector<Value>& current) {
        if (step_index == path.steps.size()) {
          out.push_back(current);
          return;
        }
        const PatternStep& step = path.steps[step_index];
        const bool right = step.direction == PatternStep::Direction::kRight;
        const auto want_type = m.types[step_index];
        const auto pre_bound = bound_node(step.node.variable, current);

        std::vector<NodeId> next;
        if (step.min_hops == 1 && step.max_hops == 1) {
          const NodeId one[] = {prev};
          store.copy_nodes(one,
                           {.edges = right ? graph::EdgeDirection::kOut
                                           : graph::EdgeDirection::kIn},
                           adjacency);
          for (const graph::Edge& edge : adjacency.of(0)) {
            if (want_type && edge.type != *want_type) continue;
            if (pre_bound && *pre_bound != edge.to) continue;
            next.push_back(edge.to);
          }
        } else {
          // Variable-length relationship: endpoints reachable within the
          // hop bounds. Dialect note: one row per *distinct endpoint* (not
          // per path, as full Cypher would enumerate).
          for (const NodeId endpoint :
               var_length_endpoints(store, prev, step, want_type, right)) {
            if (pre_bound && *pre_bound != endpoint) continue;
            next.push_back(endpoint);
          }
        }
        keep_matching(ev, m.steps[step_index], next);
        for (const NodeId node : next) {
          std::vector<Value> extended = current;
          bind(step.node.variable, node, extended);
          match_steps(step_index + 1, node, extended);
        }
      };

  // Head candidates: a prior binding when available, else the head scan.
  std::vector<NodeId> heads;
  if (const auto head_bound = bound_node(path.head.variable, row)) {
    heads.push_back(*head_bound);
    NodeMatch head = node_match(ev, path.head, m.head_props, /*scan=*/false);
    keep_matching(ev, head, heads);
  } else {
    heads = scan_heads(ev, path.head, m.head_props);
  }
  if (m.missing_type) return;
  for (const NodeId head : heads) {
    std::vector<Value> current = row;
    bind(path.head.variable, head, current);
    match_steps(0, head, current);
  }
}

/// Matches `path` for rows [begin, end) of `current`, resolving the
/// pattern once per row. Stops once the guard refuses a row's output.
void match_rows(const Evaluator& ev, const PathPattern& path,
                const RowSet& current, std::size_t begin, std::size_t end,
                std::vector<std::string>& new_columns,
                std::vector<std::vector<Value>>& out) {
  QueryGuard* guard = ev.options_.guard;
  for (std::size_t i = begin; i < end; ++i) {
    const std::vector<Value>& row = current.rows[i];
    const std::size_t before = out.size();
    match_path(ev, path, current, row, new_columns, out);
    if (guard != nullptr && !guard->admit_rows(out.size() - before)) return;
  }
}

/// Parallel MATCH fan-out: each fixed chunk of input rows expands into a
/// chunk-local (new_columns, rows) pair; chunks are then merged in chunk
/// order. A pattern variable's merged column position is determined by the
/// first row (in input order) that binds it — exactly the sequential
/// accumulation order — so the merged RowSet is identical to the sequential
/// one for any thread count.
void match_rows_parallel(const Evaluator& ev, const PathPattern& path,
                         const RowSet& current,
                         std::vector<std::string>& new_columns,
                         std::vector<std::vector<Value>>& out) {
  struct ChunkOut {
    std::vector<std::string> new_columns;
    std::vector<std::vector<Value>> rows;
  };
  const std::size_t n = current.rows.size();
  const std::size_t grain = ev.fan_out_grain(n);
  std::vector<ChunkOut> chunks(ThreadPool::chunk_count(n, grain));
  ev.options_.effective_pool().parallel_for(
      n, grain, ev.options_.effective_threads(),
      [&](ThreadPool::ChunkRange chunk) {
        ChunkOut& local = chunks[chunk.index];
        match_rows(ev, path, current, chunk.begin, chunk.end,
                   local.new_columns, local.rows);
      });

  // Merged column order: first-seen across chunks in chunk order. A
  // column's first-seen chunk is the chunk holding the first row that binds
  // it, and within a chunk discovery follows row order, so this is the
  // sequential discovery order.
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

}  // namespace

RowSet match_clause(const Evaluator& ev, const Clause& clause,
                    RowSet current) {
  QueryGuard* guard = ev.options_.guard;
  for (const PathPattern& path : clause.patterns) {
    if (guard != nullptr && guard->stopped()) break;
    RowSet next;
    next.columns = current.columns;
    std::vector<std::string> new_columns;
    if (!ev.fan_out(current.rows.size())) {
      match_rows(ev, path, current, 0, current.rows.size(), new_columns,
                 next.rows);
    } else {
      match_rows_parallel(ev, path, current, new_columns, next.rows);
    }
    for (const std::string& c : new_columns) next.columns.push_back(c);
    // Normalize row widths (rows bound before later columns existed).
    for (auto& row : next.rows) row.resize(next.columns.size());
    current = std::move(next);
  }
  return current;
}

}  // namespace internal

using internal::PropBatch;
using internal::RowSet;

RowSet execute_plan(const internal::Evaluator& ev, const Plan& plan,
                    PlanReport* report, ExecCounters* counters) {
  using internal::kNoLimit;
  const graph::GraphStore& store = ev.graph_.store();
  QueryGuard* guard = ev.options_.guard;
  const auto t_start = std::chrono::steady_clock::now();

  if (guard != nullptr && guard->stopped()) {
    RowSet rows;  // run(): guard tripped before the first clause
    rows.rows.push_back({});
    return rows;
  }

  // ---- scan -----------------------------------------------------------------

  const std::vector<graph::NodeId> candidates =
      internal::gather_candidates(ev, plan, counters);
  const auto t_scan = std::chrono::steady_clock::now();

  // ---- filter ---------------------------------------------------------------

  internal::Filter filter = internal::compile_filter(ev, plan);
  // LIMIT folds into the filter only when the projection did too (then the
  // plan's rows map 1:1 onto result rows). A negative literal matches the
  // pipeline's size_t-cast behavior: no truncation.
  std::uint64_t limit = kNoLimit;
  if (plan.projection != nullptr && plan.limit && *plan.limit >= 0) {
    limit = static_cast<std::uint64_t>(*plan.limit);
  }
  if (guard != nullptr) guard->begin_rows_section();
  const std::vector<graph::NodeId> survivors =
      internal::filter_nodes(ev, candidates, filter, limit, /*admit=*/true);
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
      ev.add_reads(reads, *item.expr, filter.scratch);
    }
    std::vector<Value> srow(1);
    const std::size_t rows = survivors.size();
    out.rows.reserve(rows);
    for (std::size_t base = 0; base < rows; base += internal::kReadBatch) {
      const auto batch = std::span(survivors).subspan(
          base, std::min(internal::kReadBatch, rows - base));
      reads.fetch(store, batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        srow[0] = Value(NodeRef{batch[i]});
        std::vector<Value> projected;
        projected.reserve(plan.projection->projections.size());
        for (const auto& item : plan.projection->projections) {
          projected.push_back(
              ev.eval_expr(*item.expr, filter.scratch, srow, &reads, i));
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
  // No survivors and no projection: MATCH bound no row, so the hand-off
  // RowSet has no columns either (what RETURN * sees).
  const auto t_end = std::chrono::steady_clock::now();

  // ---- instrumentation ------------------------------------------------------

  const std::size_t pred_count = filter.preds.size();
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
      report->ops[idx].actual_rows = static_cast<double>(filter.survivors[p]);
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
