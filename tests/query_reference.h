// The reference evaluator of the query differential suites: MATCH by brute
// force, every other clause by the engine's clause pipeline. A pattern head
// walks every node id in ascending order; every pattern node, head or step
// endpoint, is checked one node at a time — its label by name, each inline
// property with property_snapshot and compare_values — and relationship
// steps follow out_edges_snapshot / in_edges_snapshot. It plans nothing and
// shares no scan or filter with the engine's MATCH (src/query/exec.cpp), so
// a defect there shows as a row difference. WHERE and the tail clauses run
// on internal::Evaluator::run_from, which query_tail_oracle_test checks
// against values read from the store.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "query/eval_internal.h"
#include "query/evaluator.h"
#include "query/parser.h"

namespace horus::query::reference {

using graph::NodeId;
using internal::RowSet;

/// True when node `v` has `node`'s label and inline property values.
inline bool node_matches(const graph::GraphStore& store, NodeId v,
                         const NodePattern& node,
                         const std::vector<Value>& props) {
  if (!node.label.empty() && node.label != "EVENT" &&
      store.node_label(v) != node.label) {
    return false;
  }
  for (std::size_t i = 0; i < props.size(); ++i) {
    const Value have = Value::from_property(store.property_snapshot(
        v, store.prop_key_id(node.properties[i].first)));
    if (compare_values(have, props[i]) != 0) return false;
  }
  return true;
}

/// The endpoints a relationship step reaches from `from`, in the dialect's
/// order: edge order for one hop; for an unbounded `[*]`, the discovery
/// order of a depth-first flood; for any other range, ascending node id —
/// one entry per distinct endpoint.
inline std::vector<NodeId> step_endpoints(const graph::GraphStore& store,
                                          NodeId from,
                                          const PatternStep& step) {
  const bool right = step.direction == PatternStep::Direction::kRight;
  const auto edges_of = [&](NodeId v) {
    std::vector<graph::Edge> edges =
        right ? store.out_edges_snapshot(v) : store.in_edges_snapshot(v);
    std::erase_if(edges, [&](const graph::Edge& e) {
      return !step.edge_type.empty() &&
             store.edge_type_name(e.type) != step.edge_type;
    });
    return edges;
  };
  std::vector<NodeId> out;
  if (step.min_hops == 1 && step.max_hops == 1) {
    for (const graph::Edge& e : edges_of(from)) out.push_back(e.to);
    return out;
  }
  if (step.min_hops <= 1 && step.max_hops == 0) {
    std::set<NodeId> seen;
    std::vector<NodeId> stack{from};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const graph::Edge& e : edges_of(v)) {
        if (seen.insert(e.to).second) {
          out.push_back(e.to);
          stack.push_back(e.to);
        }
      }
    }
    return out;
  }
  const std::uint32_t max_hops = step.max_hops == 0 ? ~std::uint32_t{0}
                                                    : step.max_hops;
  std::set<std::pair<NodeId, std::uint32_t>> visited;
  std::set<NodeId> endpoints;
  std::vector<std::pair<NodeId, std::uint32_t>> frontier{{from, 0}};
  while (!frontier.empty()) {
    const auto [v, depth] = frontier.back();
    frontier.pop_back();
    if (depth >= max_hops) continue;
    for (const graph::Edge& e : edges_of(v)) {
      if (depth + 1 >= step.min_hops) endpoints.insert(e.to);
      if (visited.emplace(e.to, depth + 1).second) {
        frontier.emplace_back(e.to, depth + 1);
      }
    }
  }
  return {endpoints.begin(), endpoints.end()};
}

/// One path pattern over one input row: appends its rows to `out` and the
/// variables it binds first to `added` (the dialect's binding rules: a
/// variable holding a node is bound and must match; a null one is not).
inline void match_path(const internal::Evaluator& ev, const PathPattern& path,
                       const RowSet& schema, const std::vector<Value>& row,
                       std::vector<std::string>& added,
                       std::vector<std::vector<Value>>& out) {
  const graph::GraphStore& store = ev.graph_.store();
  const auto props_of = [&](const NodePattern& node) {
    std::vector<Value> values;
    for (const auto& [key, expr] : node.properties) {
      values.push_back(ev.eval_expr(*expr, schema, row));
    }
    return values;
  };
  const std::vector<Value> head_props = props_of(path.head);
  std::vector<std::vector<Value>> step_props;
  for (const PatternStep& step : path.steps) {
    step_props.push_back(props_of(step.node));
  }

  const auto bound = [&](const std::string& var,
                         const std::vector<Value>& current)
      -> std::optional<NodeId> {
    if (var.empty()) return std::nullopt;
    const int idx = schema.column_index(var);
    if (idx >= 0) {
      const Value& v = current[static_cast<std::size_t>(idx)];
      if (v.is_node()) return v.as_node().id;
      if (!v.is_null()) {
        throw QueryError("query evaluation error: variable '" + var +
                         "' is not a node");
      }
    }
    for (std::size_t i = schema.columns.size(); i < current.size(); ++i) {
      const std::size_t a = i - schema.columns.size();
      if (a < added.size() && added[a] == var && current[i].is_node()) {
        return current[i].as_node().id;
      }
    }
    return std::nullopt;
  };
  const auto bind = [&](const std::string& var, NodeId v,
                        std::vector<Value>& current) {
    if (var.empty() || bound(var, current)) return;
    std::size_t a = 0;
    while (a < added.size() && added[a] != var) ++a;
    if (a == added.size()) added.push_back(var);
    const std::size_t at = schema.columns.size() + a;
    if (current.size() <= at) current.resize(at + 1);
    current[at] = Value(NodeRef{v});
  };

  std::function<void(std::size_t, NodeId, std::vector<Value>&)> steps =
      [&](std::size_t s, NodeId prev, std::vector<Value>& current) {
        if (s == path.steps.size()) {
          out.push_back(current);
          return;
        }
        const PatternStep& step = path.steps[s];
        const auto pre = bound(step.node.variable, current);
        for (const NodeId v : step_endpoints(store, prev, step)) {
          if ((pre && *pre != v) ||
              !node_matches(store, v, step.node, step_props[s])) {
            continue;
          }
          std::vector<Value> extended = current;
          bind(step.node.variable, v, extended);
          steps(s + 1, v, extended);
        }
      };

  std::vector<NodeId> heads;
  if (const auto b = bound(path.head.variable, row)) {
    heads.push_back(*b);
  } else {
    for (NodeId v = 0; v < store.node_count(); ++v) heads.push_back(v);
  }
  for (const NodeId v : heads) {
    if (!node_matches(store, v, path.head, head_props)) continue;
    std::vector<Value> current = row;
    bind(path.head.variable, v, current);
    steps(0, v, current);
  }
}

inline RowSet match(const internal::Evaluator& ev, const Clause& clause,
                    RowSet current) {
  QueryGuard* guard = ev.options_.guard;
  for (const PathPattern& path : clause.patterns) {
    if (guard != nullptr && guard->stopped()) break;
    RowSet next;
    next.columns = current.columns;
    std::vector<std::string> added;
    for (const std::vector<Value>& row : current.rows) {
      const std::size_t before = next.rows.size();
      match_path(ev, path, current, row, added, next.rows);
      if (guard != nullptr && !guard->admit_rows(next.rows.size() - before)) {
        break;
      }
    }
    for (const std::string& c : added) next.columns.push_back(c);
    for (auto& row : next.rows) row.resize(next.columns.size());
    current = std::move(next);
  }
  return current;
}

/// Runs `text` as `engine.run(text, params)` would answer it, on the
/// engine's graph, procedures and options: MATCH clauses by brute force,
/// each run of other clauses by Evaluator::run_from.
inline QueryResult run(const QueryEngine& engine, std::string_view text,
                       const QueryParams& params = {}) {
  Query query = parse_query(text);
  const internal::Evaluator ev(engine.graph(), engine.procedures(), params,
                               engine.options());
  QueryGuard* guard = engine.options().guard;
  RowSet rows;
  rows.rows.push_back({});
  for (std::size_t ci = 0; ci < query.clauses.size();) {
    if (guard != nullptr && guard->stopped()) break;
    if (query.clauses[ci].kind == Clause::Kind::kMatch) {
      if (guard != nullptr) guard->begin_rows_section();
      rows = match(ev, query.clauses[ci], std::move(rows));
      ++ci;
      continue;
    }
    Query tail;
    while (ci < query.clauses.size() &&
           query.clauses[ci].kind != Clause::Kind::kMatch) {
      tail.clauses.push_back(std::move(query.clauses[ci++]));
    }
    rows = ev.run_from(tail, 0, std::move(rows));
  }
  QueryResult result;
  result.columns = std::move(rows.columns);
  result.rows = std::move(rows.rows);
  if (guard != nullptr && guard->stopped()) {
    result.truncated = true;
    result.truncated_reason = guard->reason();
    if (result.columns.empty()) result.rows.clear();
  }
  return result;
}

}  // namespace horus::query::reference
