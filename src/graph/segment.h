// Sharded, epoch-segmented storage management for GraphStore.
//
// A long-running Horus deployment ingests executions forever; one monolithic
// in-memory graph grows without bound. The SegmentManager partitions the
// append-only NodeId space into contiguous *segments*: a single mutable
// active segment at the tail, sealed into immutable segments on size
// boundaries (`nodes_per_segment`) or explicit epoch boundaries
// (`seal_active()`, called by the service checkpoint loop). Segments are
// attributed round-robin to *shards* (aligned with the queue partition count
// in service mode) so diagnostics and eviction fairness can name the shard.
//
// Each sealed segment carries a **range summary**: the min/max of its
// nodes' lamportLogicalTime and timestamp values. The graph layer keeps it
// current itself — computed when a segment is sealed, carved or adopted, and
// widened by every property write into a sealed segment under the lock the
// write already holds — so a summary is always a superset of its segment's
// values and never goes stale. MATCH range scans on either key (the
// planner's segment-skip scan, scan_ranges()) drop sealed segments whose
// range excludes the predicate. Q1 and Q2 consult no summary: the clock
// table is always resident and answers them exactly in O(1) per node.
//
// Sealed segments are **LRU-evictable** to spill files and transparently
// reloaded on access. A spill file (and a per-segment checkpoint file, the
// same bytes) is a graph file of the binary record codec in
// graph/record_io.h, the format monolithic snapshots use too: a header
// naming the segment and its node range, the store's tables, one record per
// node with every property (columns included), and both adjacency lists,
// in CRC-32-checked frames. Evicting frees the per-node property bags and
// adjacency vectors while labels, dense columns and all indexes stay
// resident, so index lookups and column scans never fault. The residency
// state machine is
//
//      active --seal--> resident <--> evicted
//                          |  ^
//                        pin  | (pin_count > 0 blocks eviction)
//
// and a resident-byte budget (`resident_budget_bytes`) drives LRU eviction
// from the write path and from `evict_to_budget()` (called by the service
// supervisor, which also feeds resident bytes into the overload
// controller). Reload decodes and verifies the whole file before it
// touches the store, so a corrupted spill file fails with a typed
// SegmentCorruptError naming the byte offset — never a crash, never a
// silently short segment.
//
// Thread safety: the manager shares the owning GraphStore's shared_mutex;
// public methods take it themselves, `*_locked` internals are called from
// GraphStore's write path with the lock already held.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "graph/graph_store.h"
#include "graph/record_io.h"

namespace horus::obs {
class Counter;
class Gauge;
}  // namespace horus::obs

namespace horus::graph {

/// Raised when a segment spill/checkpoint file fails CRC verification or
/// structural validation at reload. Derives HorusError so existing
/// "your data is bad" catch sites handle it.
class SegmentCorruptError : public HorusError {
 public:
  using HorusError::HorusError;
};

using SegmentId = std::uint32_t;
inline constexpr SegmentId kNoSegment = ~SegmentId{0};

struct SegmentOptions {
  /// Size boundary: the active segment seals once it reaches this many
  /// nodes. Epoch boundaries (seal_active()) can seal it earlier.
  std::size_t nodes_per_segment = 4096;
  /// Shards for diagnostics/eviction fairness; align with the queue
  /// partition count in service mode. Segments are attributed round-robin.
  std::size_t shard_count = 4;
  /// Directory for eviction spill files (seg-<id>.hseg). Empty disables
  /// eviction (segments still seal and carry range summaries).
  std::string spill_dir;
  /// Evict sealed segments (LRU) once their resident payload exceeds this.
  /// 0 = unbounded (no automatic eviction).
  std::size_t resident_budget_bytes = 0;
  /// Enforce the budget from the write path (on seal). evict_to_budget()
  /// works regardless.
  bool auto_evict = true;
  /// Store key ids of the summarised integer keys. kNoPropKey disables the
  /// corresponding range summary (scan_ranges then never skips on it).
  PropKeyId lamport_key = kNoPropKey;
  PropKeyId timestamp_key = kNoPropKey;
  /// Carve pre-existing nodes into sealed full-size segments on enable
  /// (the right thing for a loaded snapshot). A segmented-checkpoint
  /// restore sets this false — everything lands in one active segment —
  /// and then adopt_sealed() imposes the checkpointed boundaries exactly.
  bool carve_existing = true;
};

/// Point-in-time view of one segment (diagnostics, tests, CLI).
struct SegmentInfo {
  SegmentId id = kNoSegment;
  NodeId first = 0;
  std::uint32_t count = 0;
  std::size_t shard = 0;
  bool sealed = false;
  bool resident = true;
  bool spill_clean = false;
  int pins = 0;
  std::size_t payload_bytes = 0;
};

/// Per-shard rollup for Pipeline::drain() diagnostics and `horus stats`.
struct ShardCounts {
  std::size_t shard = 0;
  std::size_t sealed = 0;
  std::size_t resident = 0;
  std::size_t evicted = 0;
  std::size_t active_nodes = 0;  ///< unsealed tail nodes owned by this shard
  std::size_t resident_bytes = 0;
};

/// One node of a parsed segment file. Property keys index the file's own
/// key table; edge types index its edge_types table — the consumer maps
/// both onto the target store's interned ids.
struct ParsedSegmentNode {
  NodeId id = kNoNode;
  std::string label;
  PropertyList props;        ///< keyed by file key index
  std::vector<FileEdge> out;  ///< (to, type index)
  std::vector<FileEdge> in;   ///< (from, type index)
};

/// A fully parsed, CRC-verified segment file. Nothing is applied to any
/// store until parsing succeeds end to end — a corrupted file raises
/// SegmentCorruptError before a single node is touched.
struct ParsedSegmentFile {
  SegmentId segment = kNoSegment;
  NodeId first = 0;
  std::uint32_t count = 0;
  std::size_t edges = 0;  ///< total out-edge entries
  std::vector<std::string> keys;
  std::vector<std::string> edge_types;
  std::vector<ParsedSegmentNode> nodes;
};

/// Reads and validates a whole segment file (frame CRCs, structure, ranges,
/// trailer). `what` names the source in error messages. Throws
/// SegmentCorruptError.
[[nodiscard]] ParsedSegmentFile read_segment_stream(std::istream& in,
                                                    const std::string& what);
[[nodiscard]] ParsedSegmentFile read_segment_file(const std::string& path);

class SegmentManager {
 public:
  SegmentManager(const SegmentManager&) = delete;
  SegmentManager& operator=(const SegmentManager&) = delete;
  ~SegmentManager();

  [[nodiscard]] const SegmentOptions& options() const noexcept {
    return options_;
  }

  // ---- introspection -------------------------------------------------------

  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] std::size_t sealed_count() const;
  [[nodiscard]] std::size_t evicted_count() const;
  [[nodiscard]] SegmentId segment_of(NodeId node) const;
  [[nodiscard]] SegmentInfo info(SegmentId seg) const;
  [[nodiscard]] std::vector<SegmentInfo> list() const;
  [[nodiscard]] std::vector<ShardCounts> shard_counts() const;
  /// One-line-per-shard text block ("shard 0: 3 sealed (1 evicted) ...")
  /// appended to stuck-drain diagnostics and `horus stats`.
  [[nodiscard]] std::string shard_report() const;
  /// Tracked resident payload bytes (bags + adjacency of sealed segments).
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] bool is_resident(SegmentId seg) const;

  // ---- sealing / residency state machine -----------------------------------

  /// Seals the active tail segment (epoch boundary); no-op when empty.
  void seal_active();

  /// Pins keep a segment resident (and fault it in if evicted).
  void pin(SegmentId seg);
  void unpin(SegmentId seg);

  /// Evicts one sealed segment to its spill file. Returns payload bytes
  /// released; 0 when the segment is not evictable (unsealed, pinned,
  /// already evicted, or no spill_dir configured).
  std::size_t evict(SegmentId seg);
  /// LRU-evicts sealed segments until resident payload <= the budget (no-op
  /// when budget is 0). Returns bytes released.
  std::size_t evict_to_budget();
  /// Evicts every evictable sealed segment (tests, benches).
  std::size_t evict_all();
  /// Faults a segment back in (idempotent). Throws SegmentCorruptError when
  /// the spill file fails CRC or structural validation.
  void reload(SegmentId seg);

  // ---- range summaries ----------------------------------------------------

  /// Node-id ranges [begin, end) a scan constrained to `lo <= key <= hi`
  /// must visit: sealed segments whose summarised value range misses
  /// [lo, hi] entirely are dropped and the survivors merged (ascending id
  /// order, so scanning the ranges matches a plain full scan's output
  /// order). A sealed segment where no node carries the key is always
  /// dropped; the unsealed tail is always visited. Returns the full range
  /// when `key` is not summarised. `skipped_out`, when non-null, receives
  /// the number of segments skipped (the query planner's segments-pruned
  /// counter).
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> scan_ranges(
      PropKeyId key, std::int64_t lo, std::int64_t hi,
      std::size_t* skipped_out = nullptr) const;

  // ---- checkpoint support --------------------------------------------------

  /// Writes one segment (sealed or the active tail) to `path` in the
  /// segment file format. Reuses the clean spill file via a byte copy when
  /// possible; otherwise serializes from the resident data.
  void write_segment_file(SegmentId seg, const std::string& path);

  /// Adopts sealed-segment boundaries after a segmented checkpoint restore:
  /// `sealed` lists (first, count) in id order and must exactly tile
  /// [0, store.node_count() - tail). Any remaining tail nodes become the
  /// active segment. The store must currently hold exactly one (active)
  /// segment layout, i.e. call right after restore into a fresh store.
  void adopt_sealed(const std::vector<std::pair<NodeId, std::uint32_t>>& sealed);

 private:
  friend class GraphStore;

  /// Min/max of one summarised integer key over a sealed segment's nodes.
  /// `has` is false while no node of the segment carries an int64 value.
  struct ValueRange {
    bool has = false;
    std::int64_t min = 0;
    std::int64_t max = 0;

    /// Extends the range to cover `value` when it is an int64 (null and
    /// other types are ignored).
    void widen(const PropertyValue* value) noexcept {
      const auto* v =
          value != nullptr ? std::get_if<std::int64_t>(value) : nullptr;
      if (v == nullptr) return;
      min = has ? std::min(min, *v) : *v;
      max = has ? std::max(max, *v) : *v;
      has = true;
    }
  };

  struct Segment {
    NodeId first = 0;
    std::uint32_t count = 0;
    bool sealed = false;
    bool resident = true;
    bool spill_clean = false;
    int pins = 0;
    std::uint64_t touch = 0;  ///< LRU stamp (seal / reload)
    std::size_t payload_bytes = 0;
    ValueRange lamport;    ///< over options_.lamport_key (sealed only)
    ValueRange timestamp;  ///< over options_.timestamp_key (sealed only)
  };

  SegmentManager(GraphStore& store, SegmentOptions options);

  [[nodiscard]] std::string spill_path(SegmentId seg) const;
  [[nodiscard]] std::size_t shard_of(SegmentId seg) const noexcept {
    return options_.shard_count == 0 ? 0 : seg % options_.shard_count;
  }

  // All *_locked methods require store_.mutex_ held (unique unless noted).
  [[nodiscard]] SegmentId segment_of_locked(NodeId node) const;  // shared ok
  [[nodiscard]] bool resident_for_locked(NodeId node) const;     // shared ok
  [[nodiscard]] bool all_resident_locked() const;                // shared ok
  void on_node_added_locked(NodeId node);
  void on_property_write_locked(NodeId node, PropKeyId key,
                                const PropertyValue& value);
  void on_edge_added_locked(NodeId from, NodeId to);
  void seal_active_locked();
  void ensure_resident_locked(NodeId node);
  void reload_locked(SegmentId seg);
  std::size_t evict_locked(SegmentId seg);
  std::size_t evict_to_budget_locked();
  void reload_all_locked();  ///< index (re)builds need every bag resident
  void write_spill_locked(SegmentId seg);
  /// Writes the segment file to `path` through a temp file and a rename.
  void write_segment_locked(SegmentId seg, const std::string& path) const;
  [[nodiscard]] std::size_t payload_bytes_locked(SegmentId seg) const;
  [[nodiscard]] SegmentInfo info_locked(SegmentId seg) const;
  /// Marks a segment sealed (LRU stamp, payload bytes, range summaries from
  /// its current values); metrics are the caller's.
  void seal_segment_locked(SegmentId seg);

  GraphStore& store_;
  SegmentOptions options_;
  std::vector<Segment> segments_;  ///< last entry is the active tail
  std::uint64_t touch_clock_ = 0;
  std::size_t resident_bytes_ = 0;  ///< sealed-segment payload currently in RAM

  // Process-wide metrics; gauges are updated by delta (add/sub) so several
  // stores aggregate instead of overwriting each other, and the destructor
  // rolls this manager's contribution back out.
  obs::Gauge* segments_sealed_gauge_ = nullptr;
  obs::Gauge* segments_evicted_gauge_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
  obs::Counter* seals_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* reloads_total_ = nullptr;
  obs::Counter* scan_skips_ = nullptr;
};

}  // namespace horus::graph
