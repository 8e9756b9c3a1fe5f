#include "query/procedures.h"

#include <cstdint>
#include <string>

namespace horus::query {

namespace {

/// A node argument, or an integer node id in [0, kNoNode): a wider integer
/// would wrap to some other node's id.
graph::NodeId node_arg(const Value& v, const char* proc) {
  if (v.is_node()) return v.as_node().id;
  if (v.is_int()) {
    const std::int64_t id = v.as_int();
    if (id < 0 || id >= static_cast<std::int64_t>(graph::kNoNode)) {
      throw QueryError(std::string(proc) + ": node id " + std::to_string(id) +
                       " is out of range");
    }
    return static_cast<graph::NodeId>(id);
  }
  throw QueryError(std::string(proc) + ": argument must be a node");
}

/// True once the shared guard has tripped — procedures invoked per input row
/// then yield nothing instead of running the engine again.
bool guard_stopped(const QueryOptions& options) {
  return options.guard != nullptr && options.guard->stopped();
}

}  // namespace

void register_horus_procedures(QueryEngine& engine, const ExecutionGraph& graph,
                               const ClockTable& clocks,
                               QueryOptions options) {
  engine.register_procedure(
      "horus.happensBefore",
      ProcedureDef{
          {"result"},
          [&graph, &clocks, options](const std::vector<Value>& args) {
            if (args.size() != 2) {
              throw QueryError("horus.happensBefore expects (a, b)");
            }
            if (guard_stopped(options)) {
              return std::vector<std::vector<Value>>{};
            }
            const CausalQueryEngine q(graph, clocks, options);
            if (options.profile != nullptr) {
              options.profile->add_vc_comparisons(1);
            }
            const bool hb = q.happens_before(
                node_arg(args[0], "horus.happensBefore"),
                node_arg(args[1], "horus.happensBefore"));
            return std::vector<std::vector<Value>>{{Value(hb)}};
          }});

  engine.register_procedure(
      "horus.getCausalEdges",
      ProcedureDef{
          {"from", "to"},
          [&graph, &clocks, options](const std::vector<Value>& args) {
            if (args.size() != 2) {
              throw QueryError("horus.getCausalEdges expects (a, b)");
            }
            if (guard_stopped(options)) {
              return std::vector<std::vector<Value>>{};
            }
            const CausalQueryEngine q(graph, clocks, options);
            const CausalGraphResult result = q.get_causal_graph(
                node_arg(args[0], "horus.getCausalEdges"),
                node_arg(args[1], "horus.getCausalEdges"));
            std::vector<std::vector<Value>> rows;
            rows.reserve(result.edges.size());
            for (const auto& [from, to] : result.edges) {
              rows.push_back({Value(NodeRef{from}), Value(NodeRef{to})});
            }
            return rows;
          }});

  engine.register_procedure(
      "horus.getCausalGraph",
      ProcedureDef{
          {"node"},
          [&graph, &clocks, options](const std::vector<Value>& args) {
            if (args.size() < 2 || args.size() > 3) {
              throw QueryError(
                  "horus.getCausalGraph expects (a, b[, onlyLogs])");
            }
            const bool only_logs =
                args.size() == 3 && args[2].is_bool() && args[2].as_bool();
            if (guard_stopped(options)) {
              return std::vector<std::vector<Value>>{};
            }
            const CausalQueryEngine q(graph, clocks, options);
            const CausalGraphResult result = q.get_causal_graph(
                node_arg(args[0], "horus.getCausalGraph"),
                node_arg(args[1], "horus.getCausalGraph"), only_logs);
            std::vector<std::vector<Value>> rows;
            rows.reserve(result.nodes.size());
            for (const graph::NodeId node : result.nodes) {
              rows.push_back({Value(NodeRef{node})});
            }
            return rows;
          }});
}

}  // namespace horus::query
