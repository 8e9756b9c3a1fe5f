#include "shiviz/shiviz_export.h"

#include <algorithm>
#include <unordered_map>

#include "common/json.h"

namespace horus::shiviz {

namespace {

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '/' || c == '.' || c == ' ' || c == ':') c = '_';
  }
  return s;
}

std::string property_string(const graph::GraphStore& store, graph::NodeId node,
                            graph::PropKeyId key) {
  const auto& v = store.property(node, key);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  return {};
}

}  // namespace

std::string export_events(const ExecutionGraph& graph, const ClockTable& clocks,
                          const std::vector<graph::NodeId>& nodes,
                          const ExportOptions& options) {
  const graph::GraphStore& store = graph.store();
  const ExecutionGraphKeys& keys = graph.keys();

  std::vector<graph::NodeId> ordered = nodes;
  std::sort(ordered.begin(), ordered.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              const auto la = clocks.lamport(a);
              const auto lb = clocks.lamport(b);
              if (la != lb) return la < lb;
              return a < b;
            });

  // Lane name per timeline index. Precomputed over the whole store (not just
  // the exported subset) so that clock components referencing non-exported
  // timelines still resolve to consistent lane names.
  std::unordered_map<std::int32_t, std::string> lanes;
  for (graph::NodeId node = 0; node < store.node_count(); ++node) {
    const std::int32_t t = clocks.timeline_of(node);
    if (t < 0 || lanes.contains(t)) continue;
    const std::string service = property_string(store, node, keys.host);
    const std::string timeline = property_string(store, node, keys.timeline);
    lanes.emplace(t, sanitize(service + "_" + timeline));
  }
  auto lane_of = [&](graph::NodeId node) -> const std::string& {
    return lanes.at(clocks.timeline_of(node));
  };

  std::string out;
  for (const graph::NodeId node : ordered) {
    if (!clocks.assigned(node)) continue;
    const std::string& label = store.node_label(node);
    if (options.only_logs && label != "LOG") continue;

    // Clock line: lane + nonzero VC components keyed by lane names. Lanes
    // for components must be resolvable even if no exported event shows
    // them; fall back to the stored timeline name.
    Json clock = Json::object();
    const auto vc = clocks.vc_span(node);
    for (std::size_t i = 0; i < vc.size(); ++i) {
      if (vc[i] == 0) continue;
      auto it = lanes.find(static_cast<std::int32_t>(i));
      const std::string name =
          it != lanes.end()
              ? it->second
              : sanitize(clocks.timeline_name(static_cast<std::int32_t>(i)));
      clock[name] = static_cast<std::int64_t>(vc[i]);
    }

    std::string text = property_string(store, node, keys.message);
    if (text.empty()) {
      text = label + " " + property_string(store, node, keys.thread);
    }
    // ShiViz events are single-line.
    std::replace(text.begin(), text.end(), '\n', ' ');

    out += lane_of(node);
    out += ' ';
    out += clock.dump();
    out += '\n';
    out += text;
    out += '\n';
  }
  return out;
}

std::string export_all(const ExecutionGraph& graph, const ClockTable& clocks,
                       const ExportOptions& options) {
  return export_events(graph, clocks, graph.store().all_nodes(), options);
}

}  // namespace horus::shiviz
