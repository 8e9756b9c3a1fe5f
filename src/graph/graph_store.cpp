#include "graph/graph_store.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "graph/record_io.h"
#include "graph/segment.h"

namespace horus::graph {

namespace {
[[noreturn]] void bad_node(NodeId node) {
  throw std::out_of_range("graph: invalid node id " + std::to_string(node));
}

const PropertyValue kNullValue{};

/// Sorted-bag lookup by key id.
PropertyList::const_iterator bag_find(const PropertyList& bag, PropKeyId key) {
  auto it = std::lower_bound(
      bag.begin(), bag.end(), key,
      [](const auto& entry, PropKeyId k) { return entry.first < k; });
  if (it != bag.end() && it->first == key) return it;
  return bag.end();
}

PropertyList::iterator bag_lower_bound(PropertyList& bag, PropKeyId key) {
  return std::lower_bound(
      bag.begin(), bag.end(), key,
      [](const auto& entry, PropKeyId k) { return entry.first < k; });
}

/// Grows `v`'s capacity to at least `n`, doubling at the least, so repeated
/// calls (one per segment file of a restore) stay amortised.
template <typename T>
void reserve_at_least(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
}

/// Adds (value, node) entries to an ordered index. The entries are sorted
/// by value first, stably, so each value's nodes keep their order, as one
/// insert per node would leave them; each new value is then placed with
/// the previous one's successor as hint, a search only when a stored value
/// lies between.
void insert_ordered(std::map<std::int64_t, std::vector<NodeId>>& index,
                    std::vector<std::pair<std::int64_t, NodeId>>& entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  auto at = index.end();  // the previous value's entry
  for (const auto& [value, node] : entries) {
    if (at == index.end() || at->first != value) {
      auto next = at == index.end() ? index.lower_bound(value) : std::next(at);
      if (next != index.end() && next->first < value) {
        next = index.lower_bound(value);
      }
      at = next != index.end() && next->first == value
               ? next
               : index.emplace_hint(next, value, std::vector<NodeId>{});
    }
    at->second.push_back(node);
  }
}
}  // namespace

// Out of line: SegmentManager is an incomplete type in the header.
GraphStore::GraphStore() = default;
GraphStore::~GraphStore() = default;

// ---------------------------------------------------------------------------
// segmentation
// ---------------------------------------------------------------------------

SegmentManager& GraphStore::enable_segments(const SegmentOptions& options) {
  const std::unique_lock lock(mutex_);
  if (segments_ != nullptr) {
    throw std::logic_error("graph: segments already enabled on this store");
  }
  segments_.reset(new SegmentManager(*this, options));
  return *segments_;
}

bool GraphStore::payload_resident_locked(NodeId node) const {
  return segments_ == nullptr || segments_->resident_for_locked(node);
}

void GraphStore::ensure_payload_resident(NodeId node) const {
  if (segments_ == nullptr) return;
  const std::unique_lock lock(mutex_);
  if (node >= nodes_.size()) return;
  segments_->ensure_resident_locked(node);
}

/// Shared-lock read helper with transparent fault-in: runs `fn` under a
/// shared lock once `node`'s payload is resident. `column_key` short-circuits
/// the residency check for reads satisfied by a dense column (columns never
/// evict) so pruned query paths touching only clock columns do not fault
/// evicted segments back in.
template <typename Fn>
decltype(auto) GraphStore::with_payload_locked(NodeId node,
                                               PropKeyId column_key,
                                               Fn&& fn) const {
  for (;;) {
    {
      const std::shared_lock lock(mutex_);
      if (node >= nodes_.size()) bad_node(node);
      if (segments_ == nullptr ||
          (column_key != kNoPropKey && columns_.contains(column_key)) ||
          payload_resident_locked(node)) {
        return fn();
      }
    }
    // Evicted: upgrade to a unique lock, fault the segment in, retry (a
    // concurrent evictor may race the re-acquisition).
    ensure_payload_resident(node);
  }
}

// ---------------------------------------------------------------------------
// interning
// ---------------------------------------------------------------------------

std::uint32_t GraphStore::intern_label(std::string_view label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(std::string(label), id);
  return id;
}

EdgeTypeId GraphStore::intern_edge_type_locked(std::string_view type) {
  auto it = edge_type_ids_.find(type);
  if (it != edge_type_ids_.end()) return it->second;
  const auto id = static_cast<EdgeTypeId>(edge_types_.size());
  edge_types_.emplace_back(type);
  edge_type_ids_.emplace(std::string(type), id);
  return id;
}

PropKeyId GraphStore::intern_prop_key_locked(std::string_view key) {
  auto it = prop_key_ids_.find(key);
  if (it != prop_key_ids_.end()) return it->second;
  const auto id = static_cast<PropKeyId>(prop_keys_.size());
  prop_keys_.emplace_back(key);
  prop_key_ids_.emplace(std::string(key), id);
  return id;
}

std::uint32_t GraphStore::intern_pool_value(DenseColumn& col,
                                            std::string_view value) {
  if (auto pit = col.pool_ids.find(value); pit != col.pool_ids.end()) {
    return pit->second;
  }
  const auto pool_id = static_cast<std::uint32_t>(col.pool.size());
  col.pool.emplace_back(value);
  col.pool_values.emplace_back(std::string(value));
  col.pool_ids.emplace(std::string(value), pool_id);
  return pool_id;
}

PropKeyId GraphStore::intern_prop_key(std::string_view key) {
  const std::unique_lock lock(mutex_);
  return intern_prop_key_locked(key);
}

PropKeyId GraphStore::prop_key_id(std::string_view key) const {
  const std::shared_lock lock(mutex_);
  auto it = prop_key_ids_.find(key);
  if (it == prop_key_ids_.end()) return kNoPropKey;
  return it->second;
}

const std::string& GraphStore::prop_key_name(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  return prop_keys_.at(key);
}

std::size_t GraphStore::prop_key_count() const {
  const std::shared_lock lock(mutex_);
  return prop_keys_.size();
}

// ---------------------------------------------------------------------------
// column promotion
// ---------------------------------------------------------------------------

PropKeyId GraphStore::declare_column(std::string_view key) {
  const std::unique_lock lock(mutex_);
  const PropKeyId id = intern_prop_key_locked(key);
  auto [cit, inserted] = columns_.try_emplace(id);
  if (!inserted) {
    if (cit->second.interned) {
      throw std::logic_error("graph: key '" + std::string(key) +
                             "' already declared as an interned column");
    }
    return id;
  }
  DenseColumn& col = cit->second;
  col.interned = false;
  // Migrate existing bag values into the column.
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    auto& bag = nodes_[node].properties;
    auto it = bag_lower_bound(bag, id);
    if (it == bag.end() || it->first != id) continue;
    if (col.values.size() <= node) col.values.resize(node + 1);
    col.values[node] = std::move(it->second);
    bag.erase(it);
  }
  return id;
}

PropKeyId GraphStore::declare_interned_column(std::string_view key) {
  const std::unique_lock lock(mutex_);
  const PropKeyId id = intern_prop_key_locked(key);
  auto [cit, inserted] = columns_.try_emplace(id);
  if (!inserted) {
    if (!cit->second.interned) {
      throw std::logic_error("graph: key '" + std::string(key) +
                             "' already declared as a direct column");
    }
    return id;
  }
  DenseColumn& col = cit->second;
  col.interned = true;
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    auto& bag = nodes_[node].properties;
    auto it = bag_lower_bound(bag, id);
    if (it == bag.end() || it->first != id) continue;
    const auto* s = std::get_if<std::string>(&it->second);
    if (s == nullptr) {
      columns_.erase(id);
      throw std::logic_error("graph: key '" + std::string(key) +
                             "' holds non-string values; cannot intern");
    }
    if (col.ids.size() <= node) {
      col.ids.resize(node + 1, kNoPoolId);
    }
    col.ids[node] = intern_pool_value(col, *s);
    bag.erase(it);
  }
  return id;
}

// ---------------------------------------------------------------------------
// property plumbing (lock held)
// ---------------------------------------------------------------------------

const PropertyValue* GraphStore::find_property_locked(NodeId node,
                                                      PropKeyId key) const {
  if (key >= prop_keys_.size()) return nullptr;
  if (auto cit = columns_.find(key); cit != columns_.end()) {
    return column_value(cit->second, node);
  }
  const auto& bag = nodes_[node].properties;
  auto it = bag_find(bag, key);
  if (it == bag.end()) return nullptr;
  return &it->second;
}

void GraphStore::index_insert_locked(NodeId node, PropKeyId key,
                                     const PropertyValue& value) {
  if (auto hit = hash_indexes_.find(key); hit != hash_indexes_.end()) {
    hit->second[value].push_back(node);
  }
  if (auto oit = ordered_indexes_.find(key); oit != ordered_indexes_.end()) {
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      oit->second[*i].push_back(node);
    }
  }
}

void GraphStore::index_erase_locked(NodeId node, PropKeyId key,
                                    const PropertyValue& value) {
  if (auto hit = hash_indexes_.find(key); hit != hash_indexes_.end()) {
    if (auto vit = hit->second.find(value); vit != hit->second.end()) {
      std::erase(vit->second, node);
    }
  }
  if (auto oit = ordered_indexes_.find(key); oit != ordered_indexes_.end()) {
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      if (auto vit = oit->second.find(*i); vit != oit->second.end()) {
        std::erase(vit->second, node);
        if (vit->second.empty()) oit->second.erase(vit);
      }
    }
  }
}

const PropertyValue* GraphStore::write_column_locked(DenseColumn& col,
                                                    PropKeyId key, NodeId node,
                                                    PropertyValue value) {
  if (col.interned) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      if (col.ids.size() <= node) {
        col.ids.resize(node + 1, kNoPoolId);
      }
      const std::uint32_t pool_id = intern_pool_value(col, *s);
      col.ids[node] = pool_id;
      return &col.pool_values[pool_id];
    }
    if (std::holds_alternative<std::monostate>(value)) {
      if (node < col.ids.size()) col.ids[node] = kNoPoolId;
      return nullptr;
    }
    throw std::logic_error("graph: interned column '" + prop_keys_[key] +
                           "' only stores strings");
  }
  if (col.values.size() <= node) col.values.resize(node + 1);
  col.values[node] = std::move(value);
  return column_value(col, node);
}

const PropertyValue* GraphStore::store_value_locked(NodeId node, PropKeyId key,
                                                    PropertyValue value) {
  if (auto cit = columns_.find(key); cit != columns_.end()) {
    return write_column_locked(cit->second, key, node, std::move(value));
  }
  auto& bag = nodes_[node].properties;
  auto it = bag_lower_bound(bag, key);
  if (it != bag.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    it = bag.emplace(it, key, std::move(value));
  }
  return &it->second;
}

void GraphStore::set_property_locked(NodeId node, PropKeyId key,
                                     PropertyValue value) {
  if (const PropertyValue* old = find_property_locked(node, key)) {
    index_erase_locked(node, key, *old);
  }
  if (const PropertyValue* stored =
          store_value_locked(node, key, std::move(value))) {
    index_insert_locked(node, key, *stored);
  }
}

const PropertyValue* GraphStore::column_value(const DenseColumn& col,
                                              NodeId node) {
  if (col.interned) {
    if (node >= col.ids.size()) return nullptr;
    const std::uint32_t id = col.ids[node];
    return id == kNoPoolId ? nullptr : &col.pool_values[id];
  }
  if (node >= col.values.size()) return nullptr;
  const PropertyValue& v = col.values[node];
  return std::holds_alternative<std::monostate>(v) ? nullptr : &v;
}

PropertyList GraphStore::collect_properties_locked(NodeId node) const {
  PropertyList out = nodes_[node].properties;
  for (const auto& [key, col] : columns_) {
    if (const PropertyValue* v = column_value(col, node)) {
      out.emplace_back(key, *v);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

PropertyList GraphStore::intern_map_locked(PropertyMap properties) {
  PropertyList list;
  list.reserve(properties.size());
  for (auto& [key, value] : properties) {
    list.emplace_back(intern_prop_key_locked(key), std::move(value));
  }
  return list;
}

// ---------------------------------------------------------------------------
// writes
// ---------------------------------------------------------------------------

NodeId GraphStore::push_node_locked(std::string_view label,
                                    PropertyList properties) {
  const auto id = static_cast<NodeId>(nodes_.size());
  const std::uint32_t label_id = intern_label(label);
  label_index_[label_id].push_back(id);
  nodes_.emplace_back();
  node_labels_.push_back(label_id);
  for (auto& [key, value] : properties) {
    set_property_locked(id, key, std::move(value));
  }
  return id;
}

NodeId GraphStore::add_node_locked(std::string_view label,
                                   PropertyList properties) {
  const NodeId id = push_node_locked(label, std::move(properties));
  // After the property loop: sealing (and a possible budget eviction) must
  // only ever see fully-written nodes.
  if (segments_ != nullptr) segments_->on_node_added_locked(id);
  return id;
}

NodeId GraphStore::add_node(std::string_view label, PropertyMap properties) {
  const std::unique_lock lock(mutex_);
  return add_node_locked(label, intern_map_locked(std::move(properties)));
}

void GraphStore::check_prop_keys_locked(const PropertyList& properties) const {
  for (const auto& [key, value] : properties) {
    if (key >= prop_keys_.size()) {
      throw std::out_of_range("graph: unknown property key id " +
                              std::to_string(key));
    }
  }
}

NodeId GraphStore::add_node_typed(std::string_view label,
                                  PropertyList properties) {
  const std::unique_lock lock(mutex_);
  check_prop_keys_locked(properties);
  return add_node_locked(label, std::move(properties));
}

void GraphStore::add_edge_locked(NodeId from, NodeId to, EdgeTypeId type) {
  nodes_[from].out.push_back(Edge{to, type});
  nodes_[to].in.push_back(Edge{from, type});
  ++edge_count_;
  if (segments_ != nullptr) segments_->on_edge_added_locked(from, to);
  if (edge_log_attached_ && !edge_log_overflowed_) {
    if (edge_log_.size() < kEdgeLogCapacity) {
      edge_log_.push_back(EdgeEnds{from, to});
    } else {
      edge_log_overflowed_ = true;
      std::vector<EdgeEnds>().swap(edge_log_);
    }
  }
}

void GraphStore::check_edge_ends_locked(NodeId from, NodeId to) {
  if (from >= nodes_.size()) bad_node(from);
  if (to >= nodes_.size()) bad_node(to);
  if (segments_ != nullptr) {
    // Both adjacency lists must be in memory before appending.
    segments_->ensure_resident_locked(from);
    segments_->ensure_resident_locked(to);
  }
}

void GraphStore::add_edge(NodeId from, NodeId to, std::string_view type) {
  const std::unique_lock lock(mutex_);
  check_edge_ends_locked(from, to);
  add_edge_locked(from, to, intern_edge_type_locked(type));
}

bool GraphStore::add_edge_if_absent(NodeId from, NodeId to,
                                    std::string_view type) {
  const std::unique_lock lock(mutex_);
  check_edge_ends_locked(from, to);
  const Edge edge{to, intern_edge_type_locked(type)};
  if (std::find(nodes_[from].out.begin(), nodes_[from].out.end(), edge) !=
      nodes_[from].out.end()) {
    return false;
  }
  add_edge_locked(from, to, edge.type);
  return true;
}

NodeId GraphStore::add_node_after(NodeId from, std::string_view edge_type,
                                  std::string_view label,
                                  PropertyList properties) {
  const std::unique_lock lock(mutex_);
  if (from >= nodes_.size()) bad_node(from);
  check_prop_keys_locked(properties);
  if (segments_ != nullptr) segments_->ensure_resident_locked(from);
  const EdgeTypeId type = intern_edge_type_locked(edge_type);
  const NodeId id = push_node_locked(label, std::move(properties));
  add_edge_locked(from, id, type);
  // Last, as in add_node_locked: a seal sees the node with its edge.
  if (segments_ != nullptr) segments_->on_node_added_locked(id);
  return id;
}

void GraphStore::attach_edge_log() {
  const std::unique_lock lock(mutex_);
  edge_log_attached_ = true;
}

void GraphStore::detach_edge_log() {
  const std::unique_lock lock(mutex_);
  edge_log_attached_ = false;
  edge_log_overflowed_ = false;
  std::vector<EdgeEnds>().swap(edge_log_);
}

bool GraphStore::drain_edge_log(std::vector<EdgeEnds>& out) {
  out.clear();
  const std::unique_lock lock(mutex_);
  out.swap(edge_log_);
  const bool complete = !edge_log_overflowed_;
  edge_log_overflowed_ = false;
  return complete;
}

void GraphStore::clear_edge_log() {
  const std::unique_lock lock(mutex_);
  edge_log_overflowed_ = false;
  std::vector<EdgeEnds>().swap(edge_log_);
}

void GraphStore::set_property(NodeId node, std::string_view key,
                              PropertyValue value) {
  const std::unique_lock lock(mutex_);
  if (node >= nodes_.size()) bad_node(node);
  const PropKeyId id = intern_prop_key_locked(key);
  if (segments_ != nullptr) {
    segments_->ensure_resident_locked(node);
    segments_->on_property_write_locked(node, id, value);
  }
  set_property_locked(node, id, std::move(value));
}

void GraphStore::set_property(NodeId node, PropKeyId key, PropertyValue value) {
  const std::unique_lock lock(mutex_);
  if (node >= nodes_.size()) bad_node(node);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  if (segments_ != nullptr) {
    segments_->ensure_resident_locked(node);
    segments_->on_property_write_locked(node, key, value);
  }
  set_property_locked(node, key, std::move(value));
}

// ---------------------------------------------------------------------------
// indexes
// ---------------------------------------------------------------------------

void GraphStore::create_index(std::string_view key) {
  create_index(intern_prop_key(key));
}

void GraphStore::create_index(PropKeyId key) {
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  auto [it, inserted] = hash_indexes_.try_emplace(key);
  if (!inserted) return;
  // Backfill scans every bag; evicted segments must come back first.
  if (segments_ != nullptr && !columns_.contains(key)) {
    segments_->reload_all_locked();
  }
  backfill_index_locked(key, it->second);
}

void GraphStore::create_ordered_index(std::string_view key) {
  create_ordered_index(intern_prop_key(key));
}

void GraphStore::create_ordered_index(PropKeyId key) {
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  auto [it, inserted] = ordered_indexes_.try_emplace(key);
  if (!inserted) return;
  if (segments_ != nullptr && !columns_.contains(key)) {
    segments_->reload_all_locked();
  }
  backfill_ordered_index_locked(key, it->second);
}

template <typename Fn>
void GraphStore::for_each_value_locked(PropKeyId key, Fn&& fn) const {
  if (auto cit = columns_.find(key); cit != columns_.end()) {
    const DenseColumn& col = cit->second;
    const std::size_t slots = col.interned ? col.ids.size() : col.values.size();
    for (NodeId node = 0; node < slots; ++node) {
      if (const PropertyValue* v = column_value(col, node)) fn(node, *v);
    }
    return;
  }
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    const PropertyList& bag = nodes_[node].properties;
    if (auto it = bag_find(bag, key); it != bag.end()) fn(node, it->second);
  }
}

void GraphStore::backfill_index_locked(PropKeyId key, HashIndex& index) const {
  if (auto cit = columns_.find(key);
      cit != columns_.end() && cit->second.interned) {
    // One bucket per pool value, found once: no hashing per node.
    const DenseColumn& col = cit->second;
    std::vector<std::vector<NodeId>*> buckets(col.pool.size(), nullptr);
    for (NodeId node = 0; node < col.ids.size(); ++node) {
      const std::uint32_t id = col.ids[node];
      if (id == kNoPoolId) continue;
      if (buckets[id] == nullptr) buckets[id] = &index[col.pool_values[id]];
      buckets[id]->push_back(node);
    }
    return;
  }
  for_each_value_locked(key, [&](NodeId node, const PropertyValue& v) {
    index[v].push_back(node);
  });
}

void GraphStore::backfill_ordered_index_locked(PropKeyId key,
                                               OrderedIndex& index) const {
  std::vector<std::pair<std::int64_t, NodeId>> entries;
  for_each_value_locked(key, [&](NodeId node, const PropertyValue& v) {
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      entries.emplace_back(*i, node);
    }
  });
  insert_ordered(index, entries);
}

void GraphStore::set_int64_batch(
    PropKeyId key, std::span<const std::pair<NodeId, std::int64_t>> values) {
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  for (const auto& [node, value] : values) {
    if (node >= nodes_.size()) bad_node(node);
  }
  const auto oit = ordered_indexes_.find(key);
  const auto hit = hash_indexes_.find(key);
  std::vector<std::pair<std::int64_t, NodeId>> ordered;
  if (oit != ordered_indexes_.end()) ordered.reserve(values.size());
  for (const auto& [node, value] : values) {
    if (segments_ != nullptr) segments_->ensure_resident_locked(node);
    if (const PropertyValue* old = find_property_locked(node, key)) {
      if (const auto* i = std::get_if<std::int64_t>(old);
          i != nullptr && *i == value) {
        continue;
      }
      index_erase_locked(node, key, *old);
    }
    if (segments_ != nullptr) {
      segments_->on_property_write_locked(node, key, value);
    }
    const PropertyValue* stored = store_value_locked(node, key, value);
    if (hit != hash_indexes_.end()) hit->second[*stored].push_back(node);
    if (oit != ordered_indexes_.end()) ordered.emplace_back(value, node);
  }
  if (oit != ordered_indexes_.end()) insert_ordered(oit->second, ordered);
}

// ---------------------------------------------------------------------------
// bulk install
// ---------------------------------------------------------------------------

std::vector<GraphStore::KeyRoute> GraphStore::route_keys_locked(
    const std::vector<std::string>& keys) {
  std::vector<KeyRoute> routes;
  routes.reserve(keys.size());
  for (const std::string& name : keys) {
    KeyRoute route;
    route.key = intern_prop_key_locked(name);
    if (auto cit = columns_.find(route.key); cit != columns_.end()) {
      route.column = &cit->second;
    }
    routes.push_back(route);
  }
  return routes;
}

std::vector<EdgeTypeId> GraphStore::map_edge_types_locked(
    const std::vector<std::string>& types) {
  std::vector<EdgeTypeId> ids;
  ids.reserve(types.size());
  for (const std::string& name : types) {
    ids.push_back(intern_edge_type_locked(name));
  }
  return ids;
}

void GraphStore::install_properties_locked(NodeId node, PropertyList& props,
                                           std::span<const KeyRoute> routes,
                                           bool with_columns) {
  std::size_t bag_size = 0;
  for (const auto& [index, value] : props) {
    bag_size += routes[index].column == nullptr ? 1 : 0;
  }
  PropertyList& bag = nodes_[node].properties;
  bag.clear();
  bag.reserve(bag_size);
  bool sorted = true;  // strictly increasing keys: sorted and no repeats
  for (auto& [index, value] : props) {
    const KeyRoute& route = routes[index];
    if (route.column == nullptr) {
      sorted = sorted && (bag.empty() || bag.back().first < route.key);
      bag.emplace_back(route.key, std::move(value));
    } else if (with_columns) {
      (void)write_column_locked(*route.column, route.key, node,
                                std::move(value));
    }
  }
  if (sorted) return;
  std::stable_sort(bag.begin(), bag.end(), [](const auto& x, const auto& y) {
    return x.first < y.first;
  });
  // A key named twice keeps its last value, as writing the properties one
  // by one would.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < bag.size(); ++i) {
    if (kept > 0 && bag[kept - 1].first == bag[i].first) {
      bag[kept - 1].second = std::move(bag[i].second);
    } else {
      if (kept != i) bag[kept] = std::move(bag[i]);
      ++kept;
    }
  }
  bag.resize(kept);
}

void GraphStore::install_edges(std::vector<Edge>& dst,
                               std::span<const FileEdge> src,
                               std::span<const EdgeTypeId> types) {
  dst.clear();
  dst.reserve(src.size());
  for (const FileEdge& e : src) dst.push_back(Edge{e.peer, types[e.type]});
}

GraphStore::Install::Install(GraphStore& store)
    : store_(store), lock_(store.mutex_) {
  if (!store_.nodes_.empty() || store_.segments_ != nullptr) {
    throw std::logic_error(
        "graph: install target must be empty and without segments");
  }
}

void GraphStore::Install::file(GraphFileReader& reader) {
  GraphStore& s = store_;
  const GraphFileTables& tables = reader.tables();
  const std::vector<KeyRoute> routes = s.route_keys_locked(tables.keys);
  const std::vector<EdgeTypeId> types = s.map_edge_types_locked(tables.edge_types);
  std::vector<std::uint32_t> labels;
  labels.reserve(tables.labels.size());
  for (const std::string& name : tables.labels) {
    labels.push_back(s.intern_label(name));
  }

  const auto base = static_cast<NodeId>(s.nodes_.size());
  const std::size_t count = reader.header().count;
  // Pre-size only for what the file's bytes can hold (reservable_nodes);
  // past that, the vectors grow as records arrive.
  const std::size_t end = base + reader.reservable_nodes();
  reserve_at_least(s.nodes_, end);
  reserve_at_least(s.node_labels_, end);
  for (auto& [key, col] : s.columns_) {
    if (col.interned) {
      reserve_at_least(col.ids, end);
    } else {
      reserve_at_least(col.values, end);
    }
  }

  std::uint32_t label = 0;
  PropertyList props;
  for (std::size_t i = 0; i < count; ++i) {
    reader.next_node(label, props);
    const auto id = static_cast<NodeId>(base + i);
    s.nodes_.emplace_back();
    s.node_labels_.push_back(labels[label]);
    try {
      s.install_properties_locked(id, props, routes, /*with_columns=*/true);
    } catch (const std::logic_error& e) {
      reader.fail(std::string("node rejected by the store (") + e.what() +
                  ")");
    }
  }
  // A segment file's in-lists are read and dropped: finish() derives every
  // in-list from the out-lists, the same normalization for every file kind.
  std::vector<FileEdge> out;
  std::vector<FileEdge> in;
  std::vector<FileEdge>* in_lists = reader.header().in_lists ? &in : nullptr;
  for (std::size_t i = 0; i < count; ++i) {
    reader.next_adjacency(out, in_lists);
    install_edges(s.nodes_[base + i].out, out, types);
  }
  reader.finish();
}

void GraphStore::Install::finish() {
  GraphStore& s = store_;
  const std::size_t n = s.nodes_.size();
  std::vector<std::uint32_t> in_degree(n, 0);
  std::size_t edges = 0;
  for (const NodeRecord& rec : s.nodes_) {
    for (const Edge& e : rec.out) {
      if (e.to >= n) {
        throw HorusError("graph: edge endpoint " + std::to_string(e.to) +
                         " out of range (" + std::to_string(n) + " nodes)");
      }
      ++in_degree[e.to];
    }
    edges += rec.out.size();
  }
  for (NodeId v = 0; v < n; ++v) s.nodes_[v].in.reserve(in_degree[v]);
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : s.nodes_[v].out) {
      s.nodes_[e.to].in.push_back(Edge{v, e.type});
    }
  }
  s.edge_count_ = edges;
  // The log keeps none of the installed edges: a consumer attached to it
  // must treat every stored edge as new.
  if (s.edge_log_attached_ && edges > 0) {
    s.edge_log_overflowed_ = true;
    std::vector<EdgeEnds>().swap(s.edge_log_);
  }

  std::vector<std::size_t> per_label(s.labels_.size(), 0);
  for (const std::uint32_t label : s.node_labels_) ++per_label[label];
  std::vector<std::vector<NodeId>*> label_lists(s.labels_.size(), nullptr);
  for (std::uint32_t label = 0; label < per_label.size(); ++label) {
    if (per_label[label] == 0) continue;
    label_lists[label] = &s.label_index_[label];
    label_lists[label]->reserve(per_label[label]);
  }
  for (NodeId v = 0; v < n; ++v) {
    label_lists[s.node_labels_[v]]->push_back(v);
  }
  for (auto& [key, index] : s.hash_indexes_) {
    s.backfill_index_locked(key, index);
  }
  for (auto& [key, index] : s.ordered_indexes_) {
    s.backfill_ordered_index_locked(key, index);
  }
  lock_.unlock();
}

// ---------------------------------------------------------------------------
// graph-file writes
// ---------------------------------------------------------------------------

void GraphStore::write_snapshot(std::ostream& out) const {
  for (;;) {
    {
      const std::shared_lock lock(mutex_);
      if (segments_ == nullptr || segments_->all_resident_locked()) {
        GraphFileHeader header;
        header.kind = GraphFileKind::kSnapshot;
        header.count = static_cast<std::uint32_t>(nodes_.size());
        write_file_locked(out, header);
        return;
      }
    }
    // Bags and out-lists of evicted segments come back first; a concurrent
    // evictor may race the re-acquisition.
    const std::unique_lock lock(mutex_);
    segments_->reload_all_locked();
  }
}

void GraphStore::write_file_locked(std::ostream& out,
                                   GraphFileHeader header) const {
  const NodeId end = header.first + header.count;
  header.edges = 0;
  for (NodeId v = header.first; v < end; ++v) {
    header.edges += nodes_[v].out.size();
  }
  // Columns in key order, merged with each node's key-sorted bag: the
  // record lists a node's properties in key order without a copy.
  std::vector<std::pair<PropKeyId, const DenseColumn*>> columns;
  columns.reserve(columns_.size());
  for (const auto& [key, col] : columns_) columns.emplace_back(key, &col);
  std::sort(columns.begin(), columns.end());

  GraphFileWriter writer(out, header,
                         GraphFileTables{prop_keys_, labels_, edge_types_});
  for (NodeId v = header.first; v < end; ++v) {
    const PropertyList& bag = nodes_[v].properties;
    std::size_t count = bag.size();
    for (const auto& [key, col] : columns) {
      count += column_value(*col, v) != nullptr ? 1 : 0;
    }
    writer.begin_node(node_labels_[v], count);
    auto it = bag.begin();
    for (const auto& [key, col] : columns) {
      for (; it != bag.end() && it->first < key; ++it) {
        writer.property(it->first, it->second);
      }
      if (const PropertyValue* value = column_value(*col, v)) {
        writer.property(key, *value);
      }
    }
    for (; it != bag.end(); ++it) writer.property(it->first, it->second);
    writer.end_node();
  }
  for (NodeId v = header.first; v < end; ++v) {
    writer.adjacency(nodes_[v].out, nodes_[v].in);
  }
  writer.finish();
}

// ---------------------------------------------------------------------------
// reads
// ---------------------------------------------------------------------------

std::size_t GraphStore::node_count() const {
  const std::shared_lock lock(mutex_);
  return nodes_.size();
}

std::size_t GraphStore::edge_count() const {
  const std::shared_lock lock(mutex_);
  return edge_count_;
}

std::string GraphStore::node_label(NodeId node) const {
  const std::shared_lock lock(mutex_);
  if (node >= nodes_.size()) bad_node(node);
  return labels_[node_labels_[node]];
}

PropertyMap GraphStore::node_properties(NodeId node) const {
  return with_payload_locked(node, kNoPropKey, [&] {
    PropertyMap out;
    for (auto& [key, value] : collect_properties_locked(node)) {
      out.emplace(prop_keys_[key], std::move(value));
    }
    return out;
  });
}

PropertyList GraphStore::node_property_list(NodeId node) const {
  return with_payload_locked(
      node, kNoPropKey, [&] { return collect_properties_locked(node); });
}

PropertyValue GraphStore::property(NodeId node, std::string_view key) const {
  PropKeyId id = kNoPropKey;
  {
    const std::shared_lock lock(mutex_);
    auto it = prop_key_ids_.find(key);
    if (it == prop_key_ids_.end()) {
      if (node >= nodes_.size()) bad_node(node);
      return std::monostate{};
    }
    id = it->second;
  }
  return with_payload_locked(node, id, [&]() -> PropertyValue {
    if (const PropertyValue* v = find_property_locked(node, id)) return *v;
    return std::monostate{};
  });
}

const PropertyValue& GraphStore::property(NodeId node, PropKeyId key) const {
  return with_payload_locked(node, key, [&]() -> const PropertyValue& {
    if (const PropertyValue* v = find_property_locked(node, key)) return *v;
    return kNullValue;
  });
}

PropertyValue GraphStore::property_snapshot(NodeId node, PropKeyId key) const {
  return with_payload_locked(node, key, [&]() -> PropertyValue {
    if (const PropertyValue* v = find_property_locked(node, key)) return *v;
    return std::monostate{};
  });
}

std::uint32_t GraphStore::interned_id(NodeId node, PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) {
    return kNoPoolId;
  }
  const DenseColumn& col = cit->second;
  if (node >= col.ids.size()) return kNoPoolId;
  return col.ids[node];
}

std::string GraphStore::interned_name(PropKeyId key,
                                      std::uint32_t pool_id) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) {
    throw std::logic_error("graph: key id " + std::to_string(key) +
                           " is not an interned column");
  }
  return cit->second.pool.at(pool_id);
}

std::span<const Edge> GraphStore::out_edges(NodeId node) const {
  // Adjacency vectors are append-only and nodes_ never shrinks; the span
  // stays valid as long as no concurrent writer reallocates or evicts the
  // node's segment: the quiesced read path only (copy_nodes otherwise).
  return with_payload_locked(node, kNoPropKey, [&]() -> std::span<const Edge> {
    return nodes_[node].out;
  });
}

std::span<const Edge> GraphStore::in_edges(NodeId node) const {
  return with_payload_locked(node, kNoPropKey, [&]() -> std::span<const Edge> {
    return nodes_[node].in;
  });
}

std::vector<Edge> GraphStore::out_edges_snapshot(NodeId node) const {
  return with_payload_locked(node, kNoPropKey,
                             [&]() -> std::vector<Edge> {
                               return nodes_[node].out;
                             });
}

std::vector<Edge> GraphStore::in_edges_snapshot(NodeId node) const {
  return with_payload_locked(node, kNoPropKey,
                             [&]() -> std::vector<Edge> {
                               return nodes_[node].in;
                             });
}

void GraphStore::copy_nodes(std::span<const NodeId> nodes,
                            const NodeReadSpec& spec, NodeCopy& out) const {
  for (;;) {
    {
      const std::shared_lock lock(mutex_);
      // Labels and columns stay resident when a segment is evicted;
      // adjacency and bag values do not.
      bool payload = spec.edges.has_value();
      for (const PropKeyId key : spec.values) {
        payload =
            payload || (key < prop_keys_.size() && !columns_.contains(key));
      }
      bool resident = true;
      for (const NodeId v : nodes) {
        if (v >= nodes_.size()) bad_node(v);
        resident = resident && (!payload || payload_resident_locked(v));
      }
      if (resident) {
        copy_nodes_locked(nodes, spec, out);
        return;
      }
    }
    // Evicted: fault the segments in under a unique lock, then retry (a
    // concurrent evictor may race the re-acquisition).
    const std::unique_lock lock(mutex_);
    for (const NodeId v : nodes) segments_->ensure_resident_locked(v);
  }
}

void GraphStore::copy_nodes_locked(std::span<const NodeId> nodes,
                                   const NodeReadSpec& spec,
                                   NodeCopy& out) const {
  const std::size_t n = nodes.size();
  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.labels[i] = node_labels_[nodes[i]];

  out.begin.clear();
  out.edges.clear();
  if (spec.edges) {
    const auto list = [&](NodeId v) -> const std::vector<Edge>& {
      return *spec.edges == EdgeDirection::kOut ? nodes_[v].out : nodes_[v].in;
    };
    out.begin.resize(n + 1);
    out.begin[0] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.begin[i + 1] =
          out.begin[i] + static_cast<std::uint32_t>(list(nodes[i]).size());
    }
    out.edges.resize(out.begin.back());
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<Edge>& edges = list(nodes[i]);
      std::copy(edges.begin(), edges.end(), out.edges.begin() + out.begin[i]);
    }
  }

  const auto column_of = [&](PropKeyId key) -> const DenseColumn* {
    const auto cit = columns_.find(key);
    return cit == columns_.end() ? nullptr : &cit->second;
  };
  out.ids.resize(spec.ids.size());
  for (std::size_t k = 0; k < spec.ids.size(); ++k) {
    const DenseColumn* col = column_of(spec.ids[k]);
    if (col != nullptr && !col->interned) col = nullptr;
    std::vector<std::uint32_t>& ids = out.ids[k];
    ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId v = nodes[i];
      ids[i] = col != nullptr && v < col->ids.size() ? col->ids[v] : kNoPoolId;
    }
  }
  out.values.resize(spec.values.size());
  for (std::size_t k = 0; k < spec.values.size(); ++k) {
    const PropKeyId key = spec.values[k];
    const bool known = key < prop_keys_.size();
    const DenseColumn* col = known ? column_of(key) : nullptr;
    std::vector<PropertyValue>& values = out.values[k];
    values.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId v = nodes[i];
      const PropertyValue* p = nullptr;
      if (col != nullptr) {
        p = column_value(*col, v);
      } else if (known) {
        const auto& bag = nodes_[v].properties;
        const auto it = bag_find(bag, key);
        if (it != bag.end()) p = &it->second;
      }
      if (p != nullptr) {
        values[i] = *p;
      } else {
        values[i] = std::monostate{};
      }
    }
  }
}

const std::string& GraphStore::edge_type_name(EdgeTypeId type) const {
  const std::shared_lock lock(mutex_);
  return edge_types_.at(type);
}

EdgeTypeId GraphStore::intern_edge_type(std::string_view type) {
  const std::unique_lock lock(mutex_);
  return intern_edge_type_locked(type);
}

std::optional<EdgeTypeId> GraphStore::edge_type_id(
    std::string_view type) const {
  const std::shared_lock lock(mutex_);
  auto it = edge_type_ids_.find(type);
  if (it == edge_type_ids_.end()) return std::nullopt;
  return it->second;
}

std::vector<NodeId> GraphStore::nodes_with_label(std::string_view label) const {
  const std::shared_lock lock(mutex_);
  auto lit = label_ids_.find(label);
  if (lit == label_ids_.end()) return {};
  auto iit = label_index_.find(lit->second);
  if (iit == label_index_.end()) return {};
  return iit->second;
}

std::vector<NodeId> GraphStore::all_nodes() const {
  const std::shared_lock lock(mutex_);
  std::vector<NodeId> out(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) out[id] = id;
  return out;
}

std::vector<NodeId> GraphStore::find_nodes(std::string_view key,
                                           const PropertyValue& value) const {
  PropKeyId id = kNoPropKey;
  {
    const std::shared_lock lock(mutex_);
    auto kit = prop_key_ids_.find(key);
    if (kit == prop_key_ids_.end()) return {};
    id = kit->second;
  }
  return find_nodes(id, value);
}

std::vector<NodeId> GraphStore::find_nodes(PropKeyId key,
                                           const PropertyValue& value) const {
  {
    const std::shared_lock lock(mutex_);
    if (key >= prop_keys_.size()) return {};
    // Indexed lookups and column scans never touch evicted payloads.
    if (segments_ == nullptr || hash_indexes_.contains(key) ||
        columns_.contains(key)) {
      return find_nodes_locked(key, value);
    }
  }
  // Unindexed bag scan: every segment's bags must be in memory.
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) return {};
  if (segments_ != nullptr && !hash_indexes_.contains(key) &&
      !columns_.contains(key)) {
    segments_->reload_all_locked();
  }
  return find_nodes_locked(key, value);
}

std::vector<NodeId> GraphStore::find_nodes_locked(
    PropKeyId key, const PropertyValue& value) const {
  auto hit = hash_indexes_.find(key);
  if (hit != hash_indexes_.end()) {
    auto vit = hit->second.find(value);
    if (vit == hit->second.end()) return {};
    return vit->second;
  }
  // No index: full scan, like a database query planner falling back.
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const PropertyValue* v = find_property_locked(id, key);
    if (v != nullptr && property_equals(*v, value)) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> GraphStore::range_scan(std::string_view key,
                                           std::int64_t lo,
                                           std::int64_t hi) const {
  const std::shared_lock lock(mutex_);
  auto kit = prop_key_ids_.find(key);
  if (kit == prop_key_ids_.end()) {
    throw std::logic_error("graph: no ordered index on '" + std::string(key) +
                           "'");
  }
  return range_scan_locked(kit->second, lo, hi, key);
}

std::vector<NodeId> GraphStore::range_scan(PropKeyId key, std::int64_t lo,
                                           std::int64_t hi) const {
  const std::shared_lock lock(mutex_);
  const std::string_view name =
      key < prop_keys_.size() ? std::string_view(prop_keys_[key])
                              : std::string_view("<unknown key>");
  return range_scan_locked(key, lo, hi, name);
}

std::vector<NodeId> GraphStore::range_scan_locked(PropKeyId key,
                                                  std::int64_t lo,
                                                  std::int64_t hi,
                                                  std::string_view name) const {
  auto oit = ordered_indexes_.find(key);
  if (oit == ordered_indexes_.end()) {
    throw std::logic_error("graph: no ordered index on '" + std::string(name) +
                           "'");
  }
  std::vector<NodeId> out;
  for (auto it = oit->second.lower_bound(lo);
       it != oit->second.end() && it->first <= hi; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

bool GraphStore::has_ordered_index(std::string_view key) const {
  const std::shared_lock lock(mutex_);
  auto kit = prop_key_ids_.find(key);
  if (kit == prop_key_ids_.end()) return false;
  return ordered_indexes_.contains(kit->second);
}

bool GraphStore::has_ordered_index(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  return ordered_indexes_.contains(key);
}

std::optional<std::uint32_t> GraphStore::label_id(
    std::string_view label) const {
  const std::shared_lock lock(mutex_);
  auto lit = label_ids_.find(label);
  if (lit == label_ids_.end()) return std::nullopt;
  return lit->second;
}

std::size_t GraphStore::label_count(std::string_view label) const {
  const std::shared_lock lock(mutex_);
  auto lit = label_ids_.find(label);
  if (lit == label_ids_.end()) return 0;
  auto iit = label_index_.find(lit->second);
  return iit == label_index_.end() ? 0 : iit->second.size();
}

bool GraphStore::has_index(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  return hash_indexes_.contains(key);
}

std::optional<std::size_t> GraphStore::index_count(
    PropKeyId key, const PropertyValue& value) const {
  const std::shared_lock lock(mutex_);
  auto hit = hash_indexes_.find(key);
  if (hit == hash_indexes_.end()) return std::nullopt;
  auto vit = hit->second.find(value);
  return vit == hit->second.end() ? 0 : vit->second.size();
}

std::optional<GraphStore::OrderedIndexStats> GraphStore::ordered_index_stats(
    PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto oit = ordered_indexes_.find(key);
  if (oit == ordered_indexes_.end() || oit->second.empty()) {
    return std::nullopt;
  }
  OrderedIndexStats stats;
  stats.min_value = oit->second.begin()->first;
  stats.max_value = oit->second.rbegin()->first;
  stats.distinct_keys = oit->second.size();
  return stats;
}

std::optional<std::uint32_t> GraphStore::interned_value_id(
    PropKeyId key, std::string_view value) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) return std::nullopt;
  auto pit = cit->second.pool_ids.find(value);
  if (pit == cit->second.pool_ids.end()) return std::nullopt;
  return pit->second;
}

std::size_t GraphStore::interned_distinct(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) return 0;
  return cit->second.pool.size();
}

}  // namespace horus::graph
