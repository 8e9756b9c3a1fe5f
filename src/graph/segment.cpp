#include "graph/segment.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#include "graph/record_io.h"
#include "obs/metrics.h"

namespace horus::graph {

namespace fs = std::filesystem;

namespace {

/// Rough resident size of one node's evictable payload: the property bag
/// (entries + string storage) and both adjacency vectors. An estimate — the
/// budget bounds heap growth, it is not an allocator audit.
std::size_t record_payload_bytes(const PropertyList& bag,
                                 const std::vector<Edge>& out,
                                 const std::vector<Edge>& in) {
  std::size_t bytes = out.capacity() * sizeof(Edge) +
                      in.capacity() * sizeof(Edge) +
                      bag.capacity() * sizeof(PropertyList::value_type);
  for (const auto& [key, value] : bag) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      bytes += s->capacity();
    }
  }
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// segment file format
// ---------------------------------------------------------------------------

ParsedSegmentFile read_segment_stream(std::istream& in,
                                      const std::string& what) {
  // Every frame is CRC-checked and decoded here, before any store is
  // touched: a corrupt file raises SegmentCorruptError with nothing applied.
  GraphFileReader reader(in, what, GraphFileKind::kSegment);
  const GraphFileHeader& header = reader.header();
  ParsedSegmentFile out;
  out.segment = header.segment;
  out.first = header.first;
  out.count = header.count;
  out.edges = header.edges;
  out.keys = reader.tables().keys;
  out.edge_types = reader.tables().edge_types;
  std::uint32_t label = 0;
  for (std::uint32_t i = 0; i < header.count; ++i) {
    ParsedSegmentNode node;
    node.id = header.first + i;
    reader.next_node(label, node.props);
    node.label = reader.tables().labels[label];
    out.nodes.push_back(std::move(node));
  }
  for (ParsedSegmentNode& node : out.nodes) {
    reader.next_adjacency(node.out, &node.in);
  }
  reader.finish();
  return out;
}

ParsedSegmentFile read_segment_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SegmentCorruptError("segment io: cannot open " + path);
  }
  return read_segment_stream(in, path);
}

// ---------------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------------

SegmentManager::SegmentManager(GraphStore& store, SegmentOptions options)
    : store_(store), options_(std::move(options)) {
  if (options_.nodes_per_segment == 0) options_.nodes_per_segment = 1;
  if (options_.shard_count == 0) options_.shard_count = 1;
  if (!options_.spill_dir.empty()) {
    fs::create_directories(options_.spill_dir);
  }

  obs::Registry& registry = obs::Registry::global();
  obs::Family<obs::Gauge>& states =
      registry.gauges("horus_graph_segments", "Graph segments by state");
  segments_sealed_gauge_ = &states.with({{"state", "sealed"}});
  segments_evicted_gauge_ = &states.with({{"state", "evicted"}});
  resident_bytes_gauge_ = &registry.gauge(
      "horus_graph_segment_resident_bytes",
      "Resident payload bytes (bags + adjacency) of sealed graph segments");
  seals_total_ = &registry.counter("horus_graph_segment_seals_total",
                                   "Segments sealed (size or epoch boundary)");
  evictions_total_ = &registry.counter(
      "horus_graph_segment_evictions_total", "Segments evicted to spill files");
  reloads_total_ = &registry.counter(
      "horus_graph_segment_reloads_total",
      "Evicted segments faulted back in on access");
  scan_skips_ = &registry
                     .counters("horus_graph_segment_prune_skips_total",
                               "Whole sealed segments skipped by range-summary "
                               "pruning, by query path")
                     .with({{"path", "scan"}});

  // Carve any pre-existing nodes into sealed full-size segments plus an
  // active tail (enable_segments on a loaded snapshot).
  const auto n = static_cast<NodeId>(store_.nodes_.size());
  NodeId first = 0;
  while (options_.carve_existing && n - first >= options_.nodes_per_segment) {
    Segment seg;
    seg.first = first;
    seg.count = static_cast<std::uint32_t>(options_.nodes_per_segment);
    segments_.push_back(seg);
    seal_segment_locked(static_cast<SegmentId>(segments_.size() - 1));
    first += static_cast<NodeId>(options_.nodes_per_segment);
  }
  Segment active;
  active.first = first;
  active.count = n - first;
  segments_.push_back(std::move(active));

  segments_sealed_gauge_->add(static_cast<std::int64_t>(segments_.size() - 1));
  seals_total_->inc(segments_.size() - 1);
  resident_bytes_gauge_->add(static_cast<std::int64_t>(resident_bytes_));
}

SegmentManager::~SegmentManager() {
  // Roll this store's contribution back out of the process-wide gauges.
  std::int64_t sealed = 0;
  std::int64_t evicted = 0;
  for (const Segment& s : segments_) {
    if (s.sealed) ++sealed;
    if (!s.resident) ++evicted;
  }
  segments_sealed_gauge_->sub(sealed);
  segments_evicted_gauge_->sub(evicted);
  resident_bytes_gauge_->sub(static_cast<std::int64_t>(resident_bytes_));
}

std::string SegmentManager::spill_path(SegmentId seg) const {
  return options_.spill_dir + "/seg-" + std::to_string(seg) + ".hseg";
}

// ---------------------------------------------------------------------------
// introspection
// ---------------------------------------------------------------------------

std::size_t SegmentManager::segment_count() const {
  const std::shared_lock lock(store_.mutex_);
  return segments_.size();
}

std::size_t SegmentManager::sealed_count() const {
  const std::shared_lock lock(store_.mutex_);
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.sealed ? 1 : 0;
  return n;
}

std::size_t SegmentManager::evicted_count() const {
  const std::shared_lock lock(store_.mutex_);
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.resident ? 0 : 1;
  return n;
}

SegmentId SegmentManager::segment_of_locked(NodeId node) const {
  // Boundaries are sorted and tile [0, node_count); find the last segment
  // with first <= node.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), node,
      [](NodeId n, const Segment& s) { return n < s.first; });
  if (it == segments_.begin()) return kNoSegment;
  return static_cast<SegmentId>(std::distance(segments_.begin(), it) - 1);
}

SegmentId SegmentManager::segment_of(NodeId node) const {
  const std::shared_lock lock(store_.mutex_);
  if (node >= store_.nodes_.size()) return kNoSegment;
  return segment_of_locked(node);
}

bool SegmentManager::resident_for_locked(NodeId node) const {
  const SegmentId seg = segment_of_locked(node);
  return seg == kNoSegment || segments_[seg].resident;
}

bool SegmentManager::all_resident_locked() const {
  return std::all_of(segments_.begin(), segments_.end(),
                     [](const Segment& s) { return s.resident; });
}

SegmentInfo SegmentManager::info_locked(SegmentId seg) const {
  const Segment& s = segments_[seg];
  SegmentInfo out;
  out.id = seg;
  out.first = s.first;
  out.count = s.count;
  out.shard = shard_of(seg);
  out.sealed = s.sealed;
  out.resident = s.resident;
  out.spill_clean = s.spill_clean;
  out.pins = s.pins;
  out.payload_bytes = s.payload_bytes;
  return out;
}

SegmentInfo SegmentManager::info(SegmentId seg) const {
  const std::shared_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  return info_locked(seg);
}

std::vector<SegmentInfo> SegmentManager::list() const {
  const std::shared_lock lock(store_.mutex_);
  std::vector<SegmentInfo> out;
  out.reserve(segments_.size());
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    out.push_back(info_locked(i));
  }
  return out;
}

std::vector<ShardCounts> SegmentManager::shard_counts() const {
  const std::shared_lock lock(store_.mutex_);
  std::vector<ShardCounts> out(options_.shard_count);
  for (std::size_t shard = 0; shard < out.size(); ++shard) {
    out[shard].shard = shard;
  }
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    ShardCounts& sc = out[shard_of(i)];
    if (s.sealed) {
      ++sc.sealed;
      if (s.resident) {
        ++sc.resident;
        sc.resident_bytes += s.payload_bytes;
      } else {
        ++sc.evicted;
      }
    } else {
      sc.active_nodes += s.count;
    }
  }
  return out;
}

std::string SegmentManager::shard_report() const {
  std::ostringstream out;
  for (const ShardCounts& sc : shard_counts()) {
    out << "shard " << sc.shard << ": sealed=" << sc.sealed
        << " resident=" << sc.resident << " evicted=" << sc.evicted
        << " active_nodes=" << sc.active_nodes
        << " resident_bytes=" << sc.resident_bytes << '\n';
  }
  return out.str();
}

std::size_t SegmentManager::resident_bytes() const {
  const std::shared_lock lock(store_.mutex_);
  return resident_bytes_;
}

bool SegmentManager::is_resident(SegmentId seg) const {
  const std::shared_lock lock(store_.mutex_);
  return seg < segments_.size() && segments_[seg].resident;
}

// ---------------------------------------------------------------------------
// sealing + write-path hooks (store lock held by GraphStore)
// ---------------------------------------------------------------------------

std::size_t SegmentManager::payload_bytes_locked(SegmentId seg) const {
  const Segment& s = segments_[seg];
  std::size_t bytes = 0;
  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    const auto& rec = store_.nodes_[v];
    bytes += record_payload_bytes(rec.properties, rec.out, rec.in);
  }
  return bytes;
}

void SegmentManager::seal_segment_locked(SegmentId seg) {
  Segment& s = segments_[seg];
  s.sealed = true;
  s.touch = ++touch_clock_;
  s.payload_bytes = payload_bytes_locked(seg);
  resident_bytes_ += s.payload_bytes;
  // From here on the property-write hook keeps both ranges current.
  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    s.lamport.widen(store_.find_property_locked(v, options_.lamport_key));
    s.timestamp.widen(store_.find_property_locked(v, options_.timestamp_key));
  }
}

void SegmentManager::seal_active_locked() {
  Segment& active = segments_.back();
  if (active.count == 0) return;
  seal_segment_locked(static_cast<SegmentId>(segments_.size() - 1));
  segments_sealed_gauge_->add(1);
  resident_bytes_gauge_->add(static_cast<std::int64_t>(active.payload_bytes));
  seals_total_->inc();

  Segment next;
  next.first = active.first + active.count;
  segments_.push_back(std::move(next));

  if (options_.auto_evict && options_.resident_budget_bytes > 0) {
    evict_to_budget_locked();
  }
}

void SegmentManager::seal_active() {
  const std::unique_lock lock(store_.mutex_);
  seal_active_locked();
}

void SegmentManager::on_node_added_locked(NodeId node) {
  Segment& active = segments_.back();
  // Appends are dense; the new node extends the active tail.
  (void)node;
  ++active.count;
  if (active.count >= options_.nodes_per_segment) {
    seal_active_locked();
  }
}

void SegmentManager::on_property_write_locked(NodeId node, PropKeyId key,
                                              const PropertyValue& value) {
  const SegmentId seg = segment_of_locked(node);
  if (seg == kNoSegment) return;
  Segment& s = segments_[seg];
  if (!s.sealed) return;  // the tail's ranges are computed when it seals
  s.spill_clean = false;
  // Widen only: the old value may still be covered, which is harmless —
  // a summary must be a superset of the segment's values, not exact.
  if (key == options_.lamport_key) s.lamport.widen(&value);
  if (key == options_.timestamp_key) s.timestamp.widen(&value);
}

void SegmentManager::on_edge_added_locked(NodeId from, NodeId to) {
  // Edges do not feed the range summaries, but they do make a sealed
  // segment's spill file stale.
  for (const NodeId node : {from, to}) {
    const SegmentId seg = segment_of_locked(node);
    if (seg == kNoSegment) continue;
    Segment& s = segments_[seg];
    if (s.sealed) s.spill_clean = false;
  }
}

void SegmentManager::ensure_resident_locked(NodeId node) {
  const SegmentId seg = segment_of_locked(node);
  if (seg == kNoSegment) return;
  if (!segments_[seg].resident) reload_locked(seg);
}

void SegmentManager::reload_all_locked() {
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    if (!segments_[i].resident) reload_locked(i);
  }
}

// ---------------------------------------------------------------------------
// pinning + eviction
// ---------------------------------------------------------------------------

void SegmentManager::pin(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  if (!segments_[seg].resident) reload_locked(seg);
  ++segments_[seg].pins;
}

void SegmentManager::unpin(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size() || segments_[seg].pins == 0) return;
  --segments_[seg].pins;
}

std::size_t SegmentManager::evict_locked(SegmentId seg) {
  Segment& s = segments_[seg];
  if (!s.sealed || !s.resident || s.pins > 0 || options_.spill_dir.empty()) {
    return 0;
  }
  if (!s.spill_clean) write_spill_locked(seg);

  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    auto& rec = store_.nodes_[v];
    PropertyList().swap(rec.properties);
    std::vector<Edge>().swap(rec.out);
    std::vector<Edge>().swap(rec.in);
  }
  s.resident = false;
  const std::size_t released = s.payload_bytes;
  resident_bytes_ -= released;
  segments_evicted_gauge_->add(1);
  resident_bytes_gauge_->sub(static_cast<std::int64_t>(released));
  evictions_total_->inc();
  return released;
}

std::size_t SegmentManager::evict(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) return 0;
  return evict_locked(seg);
}

std::size_t SegmentManager::evict_to_budget_locked() {
  const std::size_t budget = options_.resident_budget_bytes;
  if (budget == 0) return 0;
  std::size_t released = 0;
  while (resident_bytes_ > budget) {
    // LRU victim: least-recently-stamped evictable sealed segment.
    SegmentId victim = kNoSegment;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (SegmentId i = 0; i < segments_.size(); ++i) {
      const Segment& s = segments_[i];
      if (!s.sealed || !s.resident || s.pins > 0) continue;
      if (s.touch < oldest) {
        oldest = s.touch;
        victim = i;
      }
    }
    if (victim == kNoSegment) break;
    const std::size_t freed = evict_locked(victim);
    if (freed == 0) break;  // read holds active or spill unavailable
    released += freed;
  }
  return released;
}

std::size_t SegmentManager::evict_to_budget() {
  const std::unique_lock lock(store_.mutex_);
  return evict_to_budget_locked();
}

std::size_t SegmentManager::evict_all() {
  const std::unique_lock lock(store_.mutex_);
  std::size_t released = 0;
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    released += evict_locked(i);
  }
  return released;
}

void SegmentManager::reload(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  reload_locked(seg);
}

void SegmentManager::reload_locked(SegmentId seg) {
  Segment& s = segments_[seg];
  if (s.resident) return;

  // Parse + CRC-verify the whole file before touching the store: a corrupt
  // spill fails typed with the store unchanged (still evicted, retryable).
  const std::string path = spill_path(seg);
  ParsedSegmentFile file = read_segment_file(path);
  if (file.segment != seg || file.first != s.first || file.count != s.count) {
    throw SegmentCorruptError(
        "segment io: " + path + ": file describes segment " +
        std::to_string(file.segment) + " [" + std::to_string(file.first) +
        " +" + std::to_string(file.count) + "), expected " +
        std::to_string(seg) + " [" + std::to_string(s.first) + " +" +
        std::to_string(s.count) + ")");
  }
  const auto node_count = static_cast<NodeId>(store_.nodes_.size());
  for (const ParsedSegmentNode& node : file.nodes) {
    for (const auto* list : {&node.out, &node.in}) {
      for (const FileEdge& e : *list) {
        if (e.peer >= node_count) {
          throw SegmentCorruptError("segment io: " + path +
                                    ": edge endpoint out of range");
        }
      }
    }
  }
  const std::vector<GraphStore::KeyRoute> routes =
      store_.route_keys_locked(file.keys);
  const std::vector<EdgeTypeId> types =
      store_.map_edge_types_locked(file.edge_types);

  // Commit: restore bags (cold keys only — columns stayed resident) and both
  // adjacency lists verbatim, through the bulk install's helpers. Indexes
  // were never dropped at eviction, so no index maintenance happens here;
  // the restored segment is bit-identical to its pre-eviction self.
  for (ParsedSegmentNode& node : file.nodes) {
    store_.install_properties_locked(node.id, node.props, routes,
                                     /*with_columns=*/false);
    auto& rec = store_.nodes_[node.id];
    GraphStore::install_edges(rec.out, node.out, types);
    GraphStore::install_edges(rec.in, node.in, types);
  }
  s.resident = true;
  s.touch = ++touch_clock_;
  s.payload_bytes = payload_bytes_locked(seg);
  resident_bytes_ += s.payload_bytes;
  segments_evicted_gauge_->sub(1);
  resident_bytes_gauge_->add(static_cast<std::int64_t>(s.payload_bytes));
  reloads_total_->inc();
}

// ---------------------------------------------------------------------------
// spill / checkpoint serialization
// ---------------------------------------------------------------------------

void SegmentManager::write_segment_locked(SegmentId seg,
                                          const std::string& path) const {
  const Segment& s = segments_[seg];
  GraphFileHeader header;
  header.kind = GraphFileKind::kSegment;
  header.segment = seg;
  header.first = s.first;
  header.count = s.count;
  header.in_lists = true;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw HorusError("segment io: cannot open " + tmp);
    // Full property set (columns included) so checkpoint restore can
    // reconstruct the node; evicted-segment reload skips column keys.
    store_.write_file_locked(out, header);
  }
  fs::rename(tmp, path);
}

void SegmentManager::write_spill_locked(SegmentId seg) {
  write_segment_locked(seg, spill_path(seg));
  segments_[seg].spill_clean = true;
}

void SegmentManager::write_segment_file(SegmentId seg,
                                        const std::string& path) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  if (!segments_[seg].resident) {
    // Evicted implies a clean spill file; reuse its bytes instead of
    // faulting the segment in just to re-serialize identical content.
    fs::copy_file(spill_path(seg), path, fs::copy_options::overwrite_existing);
    return;
  }
  write_segment_locked(seg, path);
}

void SegmentManager::adopt_sealed(
    const std::vector<std::pair<NodeId, std::uint32_t>>& sealed) {
  const std::unique_lock lock(store_.mutex_);
  if (segments_.size() != 1 || segments_.front().sealed) {
    throw std::logic_error(
        "graph: adopt_sealed requires a fresh (single active segment) "
        "layout");
  }
  const auto n = static_cast<NodeId>(store_.nodes_.size());
  NodeId expect = 0;
  for (const auto& [first, count] : sealed) {
    if (first != expect || count == 0 || first + count > n) {
      throw std::logic_error(
          "graph: adopt_sealed boundaries do not tile the node space");
    }
    expect = first + count;
  }

  segments_.clear();
  resident_bytes_ = 0;
  for (const auto& [first, count] : sealed) {
    Segment seg;
    seg.first = first;
    seg.count = count;
    segments_.push_back(seg);
    seal_segment_locked(static_cast<SegmentId>(segments_.size() - 1));
  }
  Segment active;
  active.first = expect;
  active.count = n - expect;
  segments_.push_back(std::move(active));

  segments_sealed_gauge_->add(static_cast<std::int64_t>(sealed.size()));
  seals_total_->inc(sealed.size());
  resident_bytes_gauge_->add(static_cast<std::int64_t>(resident_bytes_));
}

// ---------------------------------------------------------------------------
// range summaries
// ---------------------------------------------------------------------------

std::vector<std::pair<NodeId, NodeId>> SegmentManager::scan_ranges(
    PropKeyId key, std::int64_t lo, std::int64_t hi,
    std::size_t* skipped_out) const {
  const std::shared_lock lock(store_.mutex_);
  const auto n = static_cast<NodeId>(store_.nodes_.size());
  std::vector<std::pair<NodeId, NodeId>> ranges;
  if (skipped_out != nullptr) *skipped_out = 0;
  const bool summarised =
      key != kNoPropKey &&
      (key == options_.lamport_key || key == options_.timestamp_key);
  if (!summarised || lo > hi) {
    if (!summarised && n > 0) ranges.emplace_back(0, n);
    return ranges;
  }
  std::size_t skipped = 0;
  for (const Segment& s : segments_) {
    if (s.count == 0) continue;
    const ValueRange& r =
        key == options_.lamport_key ? s.lamport : s.timestamp;
    if (s.sealed && (!r.has || hi < r.min || lo > r.max)) {
      ++skipped;
      continue;
    }
    const NodeId begin = s.first;
    const NodeId end = s.first + s.count;
    if (!ranges.empty() && ranges.back().second == begin) {
      ranges.back().second = end;
    } else {
      ranges.emplace_back(begin, end);
    }
  }
  if (skipped > 0) scan_skips_->inc(skipped);
  if (skipped_out != nullptr) *skipped_out = skipped;
  return ranges;
}

}  // namespace horus::graph
