// Embedded property-graph store — the repository's Neo4j stand-in.
//
// Feature set (deliberately matching what the Horus paper uses from Neo4j):
//  - labelled nodes with property bags;
//  - typed directed edges;
//  - a label index (all nodes with label L);
//  - hash indexes on (property key, value) for exact-match lookups;
//  - ordered indexes on integer properties for range scans — this is what
//    makes the logical-clock bounding of Section V an index operation
//    instead of a full scan;
//  - batched writes (the encoders flush events/edges in periodic batches).
//
// Storage layout: property keys are interned store-wide into dense PropKeyIds,
// and a handful of hot keys (logical clocks, timestamps, timelines) can be
// promoted to dense per-node columns so the query paths of Fig. 7/8 touch
// flat vectors instead of per-node maps. Cold keys live in a per-node sorted
// (PropKeyId, value) bag. The string-view API survives as a thin interning
// shim; hot paths resolve a key once and use the typed overloads.
//
// A std::shared_mutex allows concurrent readers (queries) with exclusive
// writers (pipeline flushes), mirroring a database's snapshot-ish behaviour
// at the granularity Horus needs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/property.h"

namespace horus::graph {

class SegmentManager;
struct SegmentOptions;
class GraphFileReader;
struct GraphFileHeader;
struct FileEdge;

/// Dense node identifier. Nodes are never deleted (an execution trace is
/// append-only), so ids are stable.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = ~NodeId{0};

/// Interned edge-type identifier.
using EdgeTypeId = std::uint16_t;

struct Edge {
  NodeId to = kNoNode;
  EdgeTypeId type = 0;

  [[nodiscard]] bool operator==(const Edge&) const = default;
};

/// Both endpoints of one stored edge: an entry of the edge log.
struct EdgeEnds {
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  [[nodiscard]] bool operator==(const EdgeEnds&) const = default;
};

/// Which adjacency list a read copies.
enum class EdgeDirection { kOut, kIn };

/// Pool id of "no value" in an interned column's id reads.
inline constexpr std::uint32_t kNoPoolId = ~std::uint32_t{0};

/// What GraphStore::copy_nodes copies of each node besides its label id.
struct NodeReadSpec {
  /// The adjacency list to copy, if any.
  std::optional<EdgeDirection> edges{};
  /// Interned columns whose pool ids are copied: kNoPoolId where a node has
  /// no value, and everywhere for a key that is not an interned column.
  std::span<const PropKeyId> ids{};
  /// Keys whose values are copied, columns and bags alike: null where a
  /// node has no value.
  std::span<const PropKeyId> values{};
};

/// Label ids, and what a NodeReadSpec asked for, of a list of nodes, copied
/// under one shared lock (GraphStore::copy_nodes). Safe to read while
/// writers append: nothing here points into the store. A copy reused across
/// calls reuses its buffers.
struct NodeCopy {
  std::vector<std::uint32_t> labels;  ///< interned label id per node
  /// With NodeReadSpec::edges: node i's edges are
  /// edges[begin[i], begin[i + 1]).
  std::vector<std::uint32_t> begin;
  /// Out-edges (to = target) or in-edges (to = source), node by node.
  std::vector<Edge> edges;
  /// ids[k][i]: node i's pool id under NodeReadSpec::ids[k].
  std::vector<std::vector<std::uint32_t>> ids;
  /// values[k][i]: node i's value of NodeReadSpec::values[k].
  std::vector<std::vector<PropertyValue>> values;

  [[nodiscard]] std::span<const Edge> of(std::size_t i) const noexcept {
    return {edges.data() + begin[i], begin[i + 1] - begin[i]};
  }
};

class GraphStore {
 public:
  // Both out of line: SegmentManager is incomplete here and the defaulted
  // bodies would instantiate its deleter.
  GraphStore();
  ~GraphStore();

  // Non-copyable, non-movable: the store can be large, holds index state,
  // and is back-referenced by its SegmentManager.
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;
  GraphStore(GraphStore&&) = delete;
  GraphStore& operator=(GraphStore&&) = delete;

  // ---- segmentation --------------------------------------------------------

  /// Turns on segmented storage management (sealing, range summaries, LRU
  /// eviction — see graph/segment.h). Idempotent-hostile by design: call at
  /// most once, before or after loading a snapshot; existing nodes are
  /// carved into sealed segments plus an active tail.
  SegmentManager& enable_segments(const SegmentOptions& options);

  /// The manager, or nullptr when enable_segments was never called. Query
  /// paths treat nullptr as "monolithic store, nothing to prune or evict".
  [[nodiscard]] SegmentManager* segments() const noexcept {
    return segments_.get();
  }

  // ---- property-key interning ---------------------------------------------

  /// Interns `key`, returning its store-wide id (idempotent).
  PropKeyId intern_prop_key(std::string_view key);

  /// Id of an already-interned key, or kNoPropKey if never seen. Lookups
  /// with kNoPropKey behave as "property absent everywhere".
  [[nodiscard]] PropKeyId prop_key_id(std::string_view key) const;

  [[nodiscard]] const std::string& prop_key_name(PropKeyId key) const;
  [[nodiscard]] std::size_t prop_key_count() const;

  // ---- column promotion ----------------------------------------------------

  /// Promotes `key` to a dense direct column (flat vector<PropertyValue>
  /// indexed by NodeId). Idempotent; existing bag values are migrated. Use
  /// for hot numeric keys (logical clocks, timestamps).
  PropKeyId declare_column(std::string_view key);

  /// Promotes `key` to a dense interned column: per-node u32 ids into a
  /// value pool. Only string (or null) values may be stored under such a
  /// key. Use for hot low-cardinality keys (timeline, eventType, host).
  PropKeyId declare_interned_column(std::string_view key);

  // ---- writes ------------------------------------------------------------

  /// Adds a node; returns its id. O(properties) plus index maintenance.
  NodeId add_node(std::string_view label, PropertyMap properties);

  /// Typed insert: properties arrive already keyed by PropKeyId (from
  /// intern_prop_key). The hot write path for the encoders.
  NodeId add_node_typed(std::string_view label, PropertyList properties);

  /// Adds a directed typed edge.
  void add_edge(NodeId from, NodeId to, std::string_view type);

  /// Adds `from -> to` of `type` unless `from`'s out-list already holds
  /// that edge, checked and written under one write lock; returns whether
  /// it was added. The idempotent edge write of crash replay: an encoder
  /// replaying a window of the queue re-derives edges it already stored.
  bool add_edge_if_absent(NodeId from, NodeId to, std::string_view type);

  /// Typed insert of a node together with its one in-edge `from -> node`
  /// of `edge_type`, under one write lock: no reader ever sees the node
  /// without that edge. The intra encoder writes each event with its
  /// program-order edge this way, so clock assignment, which places a node
  /// on its timeline by that edge, never sees a timeline half chained.
  NodeId add_node_after(NodeId from, std::string_view edge_type,
                        std::string_view label, PropertyList properties);

  /// Sets (or overwrites) one property, maintaining any indexes on its key.
  void set_property(NodeId node, std::string_view key, PropertyValue value);
  void set_property(NodeId node, PropKeyId key, PropertyValue value);

  /// Writes int64 values of `key` for many nodes under one write lock: the
  /// batched set_property of a pass that computes a whole column (the clock
  /// assigner's Lamport values). Indexes move as set_property moves them,
  /// the ordered index's entries inserted in value order with hints; a
  /// value equal to the stored one is left alone. Throws std::out_of_range
  /// on an unknown node or key before writing anything.
  void set_int64_batch(PropKeyId key,
                       std::span<const std::pair<NodeId, std::int64_t>> values);

  // ---- bulk install --------------------------------------------------------

  /// The one path by which decoded graph files (graph/record_io.h) become
  /// store state: snapshot loads (graph_io.h) and segmented checkpoint
  /// restores. The target holds no nodes and has no segment manager; the
  /// keys, labels, edge types, columns and indexes it has are kept. One
  /// write lock is held from construction to finish(). Node records go
  /// straight into pre-sized columns and exactly reserved, key-sorted bags
  /// (a key named twice keeps its last value), and adjacency records into
  /// exactly sized out-lists. finish() derives every in-list from the
  /// out-lists in node order and backfills each index once. After an
  /// exception the store is partly installed and is to be discarded.
  class Install {
   public:
    /// Throws std::logic_error unless the store is empty and unsegmented.
    explicit Install(GraphStore& store);
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

    /// Decodes every record of `reader`, trailer included; its nodes take
    /// the next ids. A value the store refuses (a number under an interned
    /// column) fails through reader.fail(), naming the byte offset.
    void file(GraphFileReader& reader);

    /// Checks every edge endpoint (HorusError past the last node), derives
    /// the in-lists, backfills the indexes and releases the lock.
    void finish();

   private:
    GraphStore& store_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  /// Writes the whole store as one snapshot graph file (graph/record_io.h)
  /// under one shared lock, after faulting in any evicted segment: each
  /// node record is emitted from its stored values (bag and columns merged
  /// in key order) without copying them.
  void write_snapshot(std::ostream& out) const;

  // ---- edge log ------------------------------------------------------------

  /// Most edges the log holds between two drains; past it the log drops
  /// its entries and reports an overflow (a bound on its memory).
  static constexpr std::size_t kEdgeLogCapacity = std::size_t{1} << 20;

  /// While attached, every added edge is appended to the edge log, so a
  /// consumer that keeps state derived from the edges (the clock daemon's
  /// audit) can visit only the new ones. Detached, edge writes pay nothing
  /// (offline loads). One consumer at a time attaches and drains the log.
  void attach_edge_log();
  void detach_edge_log();

  /// Moves the edges logged since the previous drain into `out` (replacing
  /// its contents), in write order. Returns false when more than
  /// kEdgeLogCapacity edges landed in between: the log kept none of them,
  /// and the caller must treat every stored edge as new.
  [[nodiscard]] bool drain_edge_log(std::vector<EdgeEnds>& out);

  /// Empties the log and forgets an overflow.
  void clear_edge_log();

  // ---- index management ----------------------------------------------------

  /// Creates an exact-match index on `key` (idempotent). Existing nodes are
  /// back-filled.
  void create_index(std::string_view key);
  void create_index(PropKeyId key);

  /// Creates a range index on integer values of `key` (idempotent).
  void create_ordered_index(std::string_view key);
  void create_ordered_index(PropKeyId key);

  // ---- reads ---------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::size_t edge_count() const;

  /// Copy of the node's label name.
  [[nodiscard]] std::string node_label(NodeId node) const;

  /// Materialised name-keyed view of a node's bag (cold path: serialisation,
  /// debugging). Built on demand — hot paths use property(NodeId, PropKeyId).
  [[nodiscard]] PropertyMap node_properties(NodeId node) const;

  /// Typed view of a node's bag, sorted by PropKeyId. Includes column-stored
  /// values.
  [[nodiscard]] PropertyList node_property_list(NodeId node) const;

  /// Value of a property, or null PropertyValue when absent.
  [[nodiscard]] PropertyValue property(NodeId node, std::string_view key) const;

  /// Typed lookup returning a reference into the store (no copy). The
  /// reference is stable on the quiesced read path only (same contract as
  /// out_edges); concurrent readers racing writers must copy under
  /// property_snapshot. Returns a shared null value when absent.
  [[nodiscard]] const PropertyValue& property(NodeId node, PropKeyId key) const;

  /// Copying typed lookup, safe under concurrent writes.
  [[nodiscard]] PropertyValue property_snapshot(NodeId node,
                                                PropKeyId key) const;

  /// Locked scalar reads on interned columns, safe under concurrent writes:
  /// the pool id of a node's value (kNoPoolId when absent), and a copy of
  /// the pool string for a previously observed id.
  [[nodiscard]] std::uint32_t interned_id(NodeId node, PropKeyId key) const;
  [[nodiscard]] std::string interned_name(PropKeyId key,
                                          std::uint32_t pool_id) const;

  /// Adjacency views. The spans point into the store's internal vectors:
  /// they are only safe while no concurrent writer appends edges to this
  /// node (the quiesced read path — queries over a sealed graph). Readers
  /// racing with writers must use the *_snapshot variants or copy_nodes.
  [[nodiscard]] std::span<const Edge> out_edges(NodeId node) const;
  [[nodiscard]] std::span<const Edge> in_edges(NodeId node) const;

  /// Copying adjacency accessors, safe under concurrent writes.
  [[nodiscard]] std::vector<Edge> out_edges_snapshot(NodeId node) const;
  [[nodiscard]] std::vector<Edge> in_edges_snapshot(NodeId node) const;

  /// The batched read: copies the label id of every node in `nodes` and
  /// what `spec` asks for into `out`, under one shared lock. Evicted
  /// segments among them are faulted in first when the copy needs their
  /// payload (adjacency, or values of keys that are not columns). Safe
  /// under concurrent writes; clock assignment, Q2's induced edges and
  /// every per-node read of the query engine go through it. Throws
  /// std::out_of_range on an invalid node.
  void copy_nodes(std::span<const NodeId> nodes, const NodeReadSpec& spec,
                  NodeCopy& out) const;

  [[nodiscard]] const std::string& edge_type_name(EdgeTypeId type) const;
  /// Interned id of a type name, or nullopt if never seen.
  [[nodiscard]] std::optional<EdgeTypeId> edge_type_id(
      std::string_view type) const;
  /// Interns an edge type name, returning its id (idempotent).
  EdgeTypeId intern_edge_type(std::string_view type);

  /// All nodes carrying `label` (insertion order).
  [[nodiscard]] std::vector<NodeId> nodes_with_label(
      std::string_view label) const;

  /// All node ids, 0..node_count() — convenience for full scans.
  [[nodiscard]] std::vector<NodeId> all_nodes() const;

  /// Exact-match lookup via hash index; falls back to a full scan when no
  /// index exists on `key` (like a database without an index would).
  [[nodiscard]] std::vector<NodeId> find_nodes(std::string_view key,
                                               const PropertyValue& value) const;
  [[nodiscard]] std::vector<NodeId> find_nodes(PropKeyId key,
                                               const PropertyValue& value) const;

  /// Range scan [lo, hi] over an ordered integer index. Requires
  /// create_ordered_index(key) to have been called; throws otherwise.
  [[nodiscard]] std::vector<NodeId> range_scan(std::string_view key,
                                               std::int64_t lo,
                                               std::int64_t hi) const;
  [[nodiscard]] std::vector<NodeId> range_scan(PropKeyId key, std::int64_t lo,
                                               std::int64_t hi) const;

  /// True if an ordered index exists on `key`.
  [[nodiscard]] bool has_ordered_index(std::string_view key) const;
  [[nodiscard]] bool has_ordered_index(PropKeyId key) const;

  // ---- column statistics (query planner) -----------------------------------

  /// Interned id of a label name, or nullopt when no node ever carried it.
  [[nodiscard]] std::optional<std::uint32_t> label_id(
      std::string_view label) const;


  /// Number of nodes carrying `label` (0 when unknown).
  [[nodiscard]] std::size_t label_count(std::string_view label) const;

  /// True if a hash index exists on `key`.
  [[nodiscard]] bool has_index(PropKeyId key) const;

  /// Exact size of the hash-index bucket for (key, value) — the planner's
  /// cardinality estimate for an equality scan. nullopt when `key` has no
  /// hash index.
  [[nodiscard]] std::optional<std::size_t> index_count(
      PropKeyId key, const PropertyValue& value) const;

  /// O(1) summary of an ordered index, for range-selectivity estimation.
  struct OrderedIndexStats {
    std::int64_t min_value = 0;
    std::int64_t max_value = 0;
    std::size_t distinct_keys = 0;
  };
  /// Stats of the ordered index on `key`; nullopt when there is no ordered
  /// index or it is empty.
  [[nodiscard]] std::optional<OrderedIndexStats> ordered_index_stats(
      PropKeyId key) const;

  /// Pool id of `value` in an interned column, or nullopt when `key` is not
  /// an interned column or the value was never stored under it. Batch
  /// equality against the constant is then an integer compare per node
  /// (copy_nodes' pool ids), with no string access at all.
  [[nodiscard]] std::optional<std::uint32_t> interned_value_id(
      PropKeyId key, std::string_view value) const;

  /// Distinct-value count of an interned column (0 when not interned) —
  /// the planner's 1/distinct equality selectivity.
  [[nodiscard]] std::size_t interned_distinct(PropKeyId key) const;

 private:
  friend class SegmentManager;

  struct NodeRecord {
    PropertyList properties;  // cold keys only, sorted by PropKeyId
    std::vector<Edge> out;
    std::vector<Edge> in;
  };

  /// A promoted (dense) column. Direct columns store PropertyValue slots
  /// (monostate = absent); interned columns store u32 ids into a string pool.
  struct DenseColumn {
    bool interned = false;
    std::vector<PropertyValue> values;  // direct
    std::vector<std::uint32_t> ids;     // interned
    std::vector<std::string> pool;      // interned: distinct values
    // PropertyValue copies of pool entries, maintained on the write path so
    // the typed property() lookup can return a reference without allocating.
    std::vector<PropertyValue> pool_values;
    std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
        pool_ids;
  };

  using HashIndex =
      std::unordered_map<PropertyValue, std::vector<NodeId>, PropertyValueHash,
                         PropertyValueEq>;
  using OrderedIndex = std::map<std::int64_t, std::vector<NodeId>>;

  /// Where a graph file's property key goes in this store: its id, and its
  /// column when the key is one (else the bag).
  struct KeyRoute {
    PropKeyId key = kNoPropKey;
    DenseColumn* column = nullptr;
  };

  // Must be called with lock held.
  std::uint32_t intern_label(std::string_view label);
  EdgeTypeId intern_edge_type_locked(std::string_view type);
  PropKeyId intern_prop_key_locked(std::string_view key);
  /// Pool id of `value` in an interned column, adding it on first sight.
  static std::uint32_t intern_pool_value(DenseColumn& col,
                                         std::string_view value);
  /// Routes (interning) and edge-type ids for a graph file's tables.
  std::vector<KeyRoute> route_keys_locked(const std::vector<std::string>& keys);
  std::vector<EdgeTypeId> map_edge_types_locked(
      const std::vector<std::string>& types);
  /// Moves a decoded record's properties (keyed by file index, mapped
  /// through `routes`) into `node`: bag entries key-sorted into an exactly
  /// reserved bag, a repeated key keeping its last value; column values
  /// into their columns when `with_columns`, else dropped (an evicted
  /// segment's columns stayed resident). No index is touched. Throws
  /// std::logic_error on a value a column refuses.
  void install_properties_locked(NodeId node, PropertyList& props,
                                 std::span<const KeyRoute> routes,
                                 bool with_columns);
  /// Replaces `dst` with the decoded edges, types mapped, exactly sized.
  static void install_edges(std::vector<Edge>& dst,
                            std::span<const FileEdge> src,
                            std::span<const EdgeTypeId> types);
  /// Stores `value` in column `col` at `node`; returns the stored value
  /// (the pool entry for interned columns), or nullptr when `value` is
  /// null. Throws std::logic_error on a non-string for an interned column.
  const PropertyValue* write_column_locked(DenseColumn& col, PropKeyId key,
                                           NodeId node, PropertyValue value);
  /// Stores `value` (column or bag) without index maintenance; returns the
  /// stored value, or nullptr when it is absent afterwards.
  const PropertyValue* store_value_locked(NodeId node, PropKeyId key,
                                          PropertyValue value);
  void index_insert_locked(NodeId node, PropKeyId key,
                           const PropertyValue& value);
  void index_erase_locked(NodeId node, PropKeyId key,
                          const PropertyValue& value);
  /// Adds every stored value of `key` to an index, in node order.
  void backfill_index_locked(PropKeyId key, HashIndex& index) const;
  void backfill_ordered_index_locked(PropKeyId key, OrderedIndex& index) const;
  /// Calls fn(node, value) for every node holding a value of `key`, in
  /// node order.
  template <typename Fn>
  void for_each_value_locked(PropKeyId key, Fn&& fn) const;
  /// Writes nodes [header.first, header.first + header.count) as one graph
  /// file; the edge total and the tables are filled in from the store.
  void write_file_locked(std::ostream& out, GraphFileHeader header) const;
  /// Appends the node record and its properties, without the segment
  /// callback (callers run on_node_added_locked once the node is complete).
  NodeId push_node_locked(std::string_view label, PropertyList properties);
  NodeId add_node_locked(std::string_view label, PropertyList properties);
  void add_edge_locked(NodeId from, NodeId to, EdgeTypeId type);
  /// Checks both ends and faults them in before an edge write.
  void check_edge_ends_locked(NodeId from, NodeId to);
  /// Throws std::out_of_range on a key id this store never interned.
  void check_prop_keys_locked(const PropertyList& properties) const;
  void set_property_locked(NodeId node, PropKeyId key, PropertyValue value);
  /// copy_nodes' copy, with the lock held and the payload resident.
  void copy_nodes_locked(std::span<const NodeId> nodes,
                         const NodeReadSpec& spec, NodeCopy& out) const;
  /// Pointer to the node's value for `key` (column or bag), or nullptr.
  /// For interned columns the returned pointer aliases the pool entry.
  [[nodiscard]] const PropertyValue* find_property_locked(NodeId node,
                                                          PropKeyId key) const;
  /// Collects (key, value) pairs for a node, columns included, sorted by id.
  [[nodiscard]] PropertyList collect_properties_locked(NodeId node) const;
  /// The node's value in a column, or nullptr when absent.
  [[nodiscard]] static const PropertyValue* column_value(const DenseColumn& col,
                                                         NodeId node);
  PropertyList intern_map_locked(PropertyMap properties);
  [[nodiscard]] std::vector<NodeId> find_nodes_locked(
      PropKeyId key, const PropertyValue& value) const;
  [[nodiscard]] std::vector<NodeId> range_scan_locked(
      PropKeyId key, std::int64_t lo, std::int64_t hi,
      std::string_view name) const;

  mutable std::shared_mutex mutex_;

  std::vector<NodeRecord> nodes_;
  /// Interned label id per node, dense beside nodes_: a batch's label check
  /// reads 4 bytes a node, not a node record.
  std::vector<std::uint32_t> node_labels_;
  std::size_t edge_count_ = 0;

  /// Edge log (see attach_edge_log), guarded by mutex_.
  bool edge_log_attached_ = false;
  bool edge_log_overflowed_ = false;
  std::vector<EdgeEnds> edge_log_;

  std::vector<std::string> labels_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      label_ids_;
  std::unordered_map<std::uint32_t, std::vector<NodeId>> label_index_;

  std::vector<std::string> edge_types_;
  std::unordered_map<std::string, EdgeTypeId, StringHash, std::equal_to<>>
      edge_type_ids_;

  std::vector<std::string> prop_keys_;
  std::unordered_map<std::string, PropKeyId, StringHash, std::equal_to<>>
      prop_key_ids_;

  /// Keyed by PropKeyId; only promoted keys have entries. Values are
  /// unique_ptr-free stable maps: node ids index into the column vectors.
  std::unordered_map<PropKeyId, DenseColumn> columns_;

  std::unordered_map<PropKeyId, HashIndex> hash_indexes_;
  std::unordered_map<PropKeyId, OrderedIndex> ordered_indexes_;

  /// Present only after enable_segments(). The manager shares mutex_ and
  /// receives write-path callbacks (node added, property write, edge added)
  /// with the lock already held; read accessors fault evicted segments back
  /// in before dereferencing node payloads.
  std::unique_ptr<SegmentManager> segments_;

  /// Shared-lock read helper: true when `node`'s payload is resident (or
  /// segmentation is off). Readers seeing false must upgrade to a unique
  /// lock and fault the segment in.
  [[nodiscard]] bool payload_resident_locked(NodeId node) const;
  /// Unique-lock fault-in of the segment owning `node` (no-op when off).
  void ensure_payload_resident(NodeId node) const;
  /// Runs `fn` under a shared lock with `node`'s payload guaranteed
  /// resident, faulting its segment in first when needed. `column_key`
  /// (when a declared column) bypasses the residency requirement.
  template <typename Fn>
  decltype(auto) with_payload_locked(NodeId node, PropKeyId column_key,
                                     Fn&& fn) const;
};

}  // namespace horus::graph
