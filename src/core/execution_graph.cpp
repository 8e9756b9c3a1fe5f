#include "core/execution_graph.h"

#include <stdexcept>

#include "graph/graph_io.h"

namespace horus {

graph::PropertyMap event_to_properties(const Event& event) {
  graph::PropertyMap props;
  props.emplace(std::string(kPropEventId),
                static_cast<std::int64_t>(value_of(event.id)));
  props.emplace(std::string(kPropHost), event.service);
  props.emplace(std::string(kPropThread), event.thread.to_string());
  props.emplace(std::string(kPropTimestamp), event.timestamp);
  props.emplace(std::string(kPropEventType), std::string(to_string(event.type)));
  if (const auto* l = event.log()) {
    props.emplace(std::string(kPropMessage), l->message);
    props.emplace("logger", l->logger);
  } else if (const auto* n = event.net()) {
    props.emplace("src", n->channel.src.to_string());
    props.emplace("dst", n->channel.dst.to_string());
    props.emplace("offset", static_cast<std::int64_t>(n->offset));
    props.emplace("size", static_cast<std::int64_t>(n->size));
  } else if (const auto* c = event.child()) {
    props.emplace("childThread", c->child.to_string());
  } else if (const auto* f = event.fsync()) {
    props.emplace("path", f->path);
  }
  return props;
}

graph::PropertyList ExecutionGraph::event_to_property_list(
    const Event& event) const {
  graph::PropertyList props;
  props.reserve(8);
  props.emplace_back(keys_.event_id,
                     static_cast<std::int64_t>(value_of(event.id)));
  props.emplace_back(keys_.host, event.service);
  props.emplace_back(keys_.thread, event.thread.to_string());
  props.emplace_back(keys_.timestamp, event.timestamp);
  props.emplace_back(keys_.event_type, std::string(to_string(event.type)));
  if (const auto* l = event.log()) {
    props.emplace_back(keys_.message, l->message);
    props.emplace_back(keys_.logger, l->logger);
  } else if (const auto* n = event.net()) {
    props.emplace_back(keys_.src, n->channel.src.to_string());
    props.emplace_back(keys_.dst, n->channel.dst.to_string());
    props.emplace_back(keys_.offset, static_cast<std::int64_t>(n->offset));
    props.emplace_back(keys_.size, static_cast<std::int64_t>(n->size));
  } else if (const auto* c = event.child()) {
    props.emplace_back(keys_.child_thread, c->child.to_string());
  } else if (const auto* f = event.fsync()) {
    props.emplace_back(keys_.path, f->path);
  }
  return props;
}

ExecutionGraph::ExecutionGraph() {
  // Schema keys are interned once; hot numeric keys (clock, timestamp, event
  // id) live in dense direct columns and hot low-cardinality strings
  // (timeline, event type, host) in interned columns, so the Fig. 7/8 query
  // paths read flat vectors instead of per-node maps.
  keys_.lamport = store_.declare_column(kPropLamport);
  keys_.timestamp = store_.declare_column(kPropTimestamp);
  keys_.event_id = store_.declare_column(kPropEventId);
  keys_.timeline = store_.declare_interned_column(kPropTimeline);
  keys_.event_type = store_.declare_interned_column(kPropEventType);
  keys_.host = store_.declare_interned_column(kPropHost);
  keys_.thread = store_.intern_prop_key(kPropThread);
  keys_.message = store_.intern_prop_key(kPropMessage);
  keys_.logger = store_.intern_prop_key("logger");
  keys_.src = store_.intern_prop_key("src");
  keys_.dst = store_.intern_prop_key("dst");
  keys_.offset = store_.intern_prop_key("offset");
  keys_.size = store_.intern_prop_key("size");
  keys_.child_thread = store_.intern_prop_key("childThread");
  keys_.path = store_.intern_prop_key("path");

  // The Horus query strategy needs: an ordered index on the Lamport clock
  // (LC range bounding), a hash index on eventId (node lookup by id) and on
  // host (the case-study query's anchor filters).
  store_.create_ordered_index(keys_.lamport);
  store_.create_index(keys_.event_id);
  store_.create_index(keys_.host);
}

std::string timeline_key(const Event& event, TimelineGranularity granularity) {
  if (granularity == TimelineGranularity::kThread) {
    return event.thread.to_string();
  }
  return event.thread.host + "/" + std::to_string(event.thread.pid);
}

graph::NodeId ExecutionGraph::add_event(const Event& event,
                                        const std::string& timeline,
                                        std::optional<EventId> after) {
  std::optional<graph::NodeId> existing;
  std::optional<graph::NodeId> pred;
  {
    const std::lock_guard lock(mutex_);
    if (auto it = node_by_event_.find(event.id); it != node_by_event_.end()) {
      existing = it->second;
    }
    if (after) {
      auto it = node_by_event_.find(*after);
      if (it == node_by_event_.end()) {
        throw std::logic_error("execution graph: intra edge on unknown event");
      }
      pred = it->second;
    }
  }
  if (existing) {
    // A replayed event: the node is stored, and the edge write is
    // idempotent.
    if (after) add_intra_edge(*after, event.id);
    return *existing;
  }
  graph::PropertyList props = event_to_property_list(event);
  props.emplace_back(keys_.timeline, timeline);
  const graph::NodeId node =
      pred ? store_.add_node_after(*pred, kIntraEdgeType,
                                   to_string(event.type), std::move(props))
           : store_.add_node_typed(to_string(event.type), std::move(props));
  const std::lock_guard lock(mutex_);
  node_by_event_.emplace(event.id, node);
  auto [tail_it, inserted] = tails_.try_emplace(
      timeline, TimelineTail{event.id, event.timestamp});
  if (!inserted && (event.timestamp > tail_it->second.timestamp ||
                    (event.timestamp == tail_it->second.timestamp &&
                     event.id > tail_it->second.id))) {
    tail_it->second = TimelineTail{event.id, event.timestamp};
  }
  return node;
}

std::optional<ExecutionGraph::TimelineTail> ExecutionGraph::timeline_tail(
    const std::string& timeline) const {
  const std::lock_guard lock(mutex_);
  auto it = tails_.find(timeline);
  if (it == tails_.end()) return std::nullopt;
  return it->second;
}

void ExecutionGraph::add_intra_edge(EventId from, EventId to) {
  const auto a = node_of(from);
  const auto b = node_of(to);
  if (!a || !b) {
    throw std::logic_error("execution graph: intra edge on unknown event");
  }
  store_.add_edge_if_absent(*a, *b, kIntraEdgeType);
}

void ExecutionGraph::add_inter_edge(EventId from, EventId to) {
  const auto a = node_of(from);
  const auto b = node_of(to);
  if (!a || !b) {
    throw std::logic_error("execution graph: inter edge on unknown event");
  }
  store_.add_edge_if_absent(*a, *b, kInterEdgeType);
}

std::optional<graph::NodeId> ExecutionGraph::node_of(EventId id) const {
  const std::lock_guard lock(mutex_);
  auto it = node_by_event_.find(id);
  if (it == node_by_event_.end()) return std::nullopt;
  return it->second;
}

EventId ExecutionGraph::event_of(graph::NodeId node) const {
  const graph::PropertyValue v = store_.property_snapshot(node, keys_.event_id);
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<EventId>(static_cast<std::uint64_t>(*i));
  }
  throw std::logic_error("execution graph: node without eventId");
}

std::size_t ExecutionGraph::event_count() const {
  const std::lock_guard lock(mutex_);
  return node_by_event_.size();
}

void ExecutionGraph::save(const std::string& path) const {
  graph::save_graph_file(store_, path);
}

void ExecutionGraph::load(const std::string& path) {
  graph::load_graph_file(store_, path);
  reindex_loaded_store();
}

void ExecutionGraph::reindex_loaded_store() {
  const std::lock_guard lock(mutex_);
  // The eventId, timestamp and timeline of every node, read in batches
  // through GraphStore::copy_nodes. Tails are kept per timeline pool id and
  // named once.
  constexpr std::size_t kBatch = 4096;
  const graph::PropKeyId value_keys[] = {keys_.event_id, keys_.timestamp};
  const graph::NodeReadSpec spec{.ids = std::span(&keys_.timeline, 1),
                                 .values = value_keys};
  const auto n = static_cast<graph::NodeId>(store_.node_count());
  node_by_event_.reserve(node_by_event_.size() + n);
  std::vector<std::optional<TimelineTail>> tails(
      store_.interned_distinct(keys_.timeline));
  std::vector<graph::NodeId> batch;
  graph::NodeCopy copy;
  for (graph::NodeId first = 0; first < n; first += kBatch) {
    batch.resize(std::min<std::size_t>(kBatch, n - first));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = first + static_cast<graph::NodeId>(i);
    }
    store_.copy_nodes(batch, spec, copy);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto* id = std::get_if<std::int64_t>(&copy.values[0][i]);
      if (id == nullptr) continue;
      const auto event_id =
          static_cast<EventId>(static_cast<std::uint64_t>(*id));
      node_by_event_.emplace(event_id, batch[i]);

      const std::uint32_t timeline = copy.ids[0][i];
      const auto* time = std::get_if<std::int64_t>(&copy.values[1][i]);
      if (timeline == graph::kNoPoolId || time == nullptr) continue;
      if (timeline >= tails.size()) tails.resize(timeline + 1);
      std::optional<TimelineTail>& tail = tails[timeline];
      if (!tail || *time > tail->timestamp ||
          (*time == tail->timestamp && event_id > tail->id)) {
        tail = TimelineTail{event_id, *time};
      }
    }
  }
  tails_.reserve(tails_.size() + tails.size());
  for (std::uint32_t timeline = 0; timeline < tails.size(); ++timeline) {
    if (tails[timeline]) {
      tails_.try_emplace(store_.interned_name(keys_.timeline, timeline),
                         *tails[timeline]);
    }
  }
}

}  // namespace horus
