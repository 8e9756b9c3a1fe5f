#include "graph/segment.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace horus::graph {

namespace fs = std::filesystem;

namespace {

Json property_to_json(const PropertyValue& v) {
  if (const auto* b = std::get_if<bool>(&v)) return Json(*b);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return Json(*i);
  if (const auto* d = std::get_if<double>(&v)) return Json(*d);
  if (const auto* s = std::get_if<std::string>(&v)) return Json(*s);
  return Json();
}

PropertyValue property_from_json(const Json& j) {
  if (j.is_bool()) return j.as_bool();
  if (j.is_int()) return j.as_int();
  if (j.is_double()) return j.as_double();
  if (j.is_string()) return j.as_string();
  return std::monostate{};
}

/// True when a decoded id or count fits the 32-bit field it is stored in
/// (NodeId, SegmentId, node count); kNoNode stays reserved.
bool fits_u32(std::int64_t v) {
  return v >= 0 && v < std::int64_t{kNoNode};
}

[[noreturn]] void corrupt(const std::string& what, std::size_t line,
                          const std::string& reason) {
  throw SegmentCorruptError("segment io: " + what + ": line " +
                            std::to_string(line) + ": " + reason);
}

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
  // Phase 1: slurp every line, tracking a running CRC so the trailer can be
  // verified against exactly the bytes preceding it — *before* any parsing
  // commits state anywhere.
  std::vector<std::string> lines;
  std::vector<std::uint32_t> crc_before;  // CRC of everything before line i
  std::uint32_t crc = crc32_init();
  std::string line;
  while (std::getline(in, line)) {
    crc_before.push_back(crc);
    crc = crc32_update(crc, line);
    crc = crc32_update(crc, "\n");
    lines.push_back(std::move(line));
  }
  while (!lines.empty() && lines.back().empty()) {
    lines.pop_back();
    crc_before.pop_back();
  }
  if (lines.size() < 3) {
    throw SegmentCorruptError("segment io: " + what +
                              ": truncated segment file (" +
                              std::to_string(lines.size()) + " lines)");
  }

  const auto parse_line = [&](std::size_t i) -> Json {
    try {
      return Json::parse(lines[i]);
    } catch (const std::exception& e) {
      corrupt(what, i + 1, std::string("malformed JSON (") + e.what() + ")");
    }
  };

  // Trailer first: CRC gate everything else.
  const std::size_t trailer_idx = lines.size() - 1;
  const Json trailer = parse_line(trailer_idx);
  if (!trailer.is_object() || !trailer.contains("checksum")) {
    corrupt(what, trailer_idx + 1,
            "missing integrity trailer (file truncated?)");
  }
  try {
    const auto stored =
        static_cast<std::uint32_t>(trailer.at("checksum").as_int());
    const std::uint32_t actual = crc32_final(crc_before[trailer_idx]);
    if (stored != actual) {
      corrupt(what, trailer_idx + 1,
              "checksum mismatch: segment file is corrupt");
    }
  } catch (const SegmentCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    corrupt(what, trailer_idx + 1,
            std::string("bad integrity trailer (") + e.what() + ")");
  }

  ParsedSegmentFile out;
  const Json header = parse_line(0);
  try {
    if (header.get_or("format", std::string{}) != "horus-segment") {
      corrupt(what, 1, "not a horus-segment file");
    }
    const std::int64_t version = header.get_or("version", std::int64_t{0});
    if (version != 1) {
      corrupt(what, 1,
              "unsupported segment version " + std::to_string(version));
    }
    const std::int64_t segment = header.at("segment").as_int();
    const std::int64_t first = header.at("first").as_int();
    const std::int64_t count = header.at("nodes").as_int();
    const std::int64_t edges = header.at("edges").as_int();
    if (!fits_u32(segment) || !fits_u32(first) || !fits_u32(count) ||
        !fits_u32(first + count) || edges < 0) {
      corrupt(what, 1, "section id or count out of range");
    }
    out.segment = static_cast<SegmentId>(segment);
    out.first = static_cast<NodeId>(first);
    out.count = static_cast<std::uint32_t>(count);
    out.edges = static_cast<std::size_t>(edges);
  } catch (const SegmentCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    corrupt(what, 1, std::string("bad header (") + e.what() + ")");
  }

  const Json tables = parse_line(1);
  try {
    for (const Json& name : tables.at("keys").as_array()) {
      out.keys.push_back(name.as_string());
    }
    for (const Json& name : tables.at("edge_types").as_array()) {
      out.edge_types.push_back(name.as_string());
    }
  } catch (const SegmentCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    corrupt(what, 2, std::string("bad key/type tables (") + e.what() + ")");
  }

  if (lines.size() != 2 + out.count + 1) {
    throw SegmentCorruptError(
        "segment io: " + what + ": header declares " +
        std::to_string(out.count) + " nodes, file has " +
        std::to_string(lines.size() - 3) + " node lines");
  }

  std::size_t edge_entries = 0;
  out.nodes.reserve(out.count);
  for (std::size_t i = 0; i < out.count; ++i) {
    const std::size_t line_idx = 2 + i;
    const Json j = parse_line(line_idx);
    ParsedSegmentNode node;
    try {
      const std::int64_t id = j.at("id").as_int();
      if (id != std::int64_t{out.first} + static_cast<std::int64_t>(i)) {
        corrupt(what, line_idx + 1, "node ids are not dense within segment");
      }
      node.id = static_cast<NodeId>(id);
      node.label = j.at("label").as_string();
      for (const Json& entry : j.at("props").as_array()) {
        const auto& pair = entry.as_array();
        if (pair.size() != 2) {
          corrupt(what, line_idx + 1, "malformed property entry");
        }
        const auto idx = static_cast<std::size_t>(pair[0].as_int());
        if (idx >= out.keys.size()) {
          corrupt(what, line_idx + 1, "property key index out of range");
        }
        node.props.emplace_back(static_cast<PropKeyId>(idx),
                                property_from_json(pair[1]));
      }
      const auto read_adjacency =
          [&](const char* field,
              std::vector<std::pair<NodeId, std::uint32_t>>& dst) {
            for (const Json& entry : j.at(field).as_array()) {
              const auto& pair = entry.as_array();
              if (pair.size() != 2) {
                corrupt(what, line_idx + 1, "malformed edge entry");
              }
              const std::int64_t peer = pair[0].as_int();
              const auto type = static_cast<std::size_t>(pair[1].as_int());
              if (!fits_u32(peer) || type >= out.edge_types.size()) {
                corrupt(what, line_idx + 1, "edge endpoint/type out of range");
              }
              dst.emplace_back(static_cast<NodeId>(peer),
                               static_cast<std::uint32_t>(type));
            }
          };
      read_adjacency("out", node.out);
      read_adjacency("in", node.in);
    } catch (const SegmentCorruptError&) {
      throw;
    } catch (const std::exception& e) {
      corrupt(what, line_idx + 1,
              std::string("bad node record (") + e.what() + ")");
    }
    edge_entries += node.out.size();
    out.nodes.push_back(std::move(node));
  }
  if (edge_entries != out.edges) {
    throw SegmentCorruptError("segment io: " + what + ": header declares " +
                              std::to_string(out.edges) + " edges, file has " +
                              std::to_string(edge_entries));
  }
  return out;
}

ParsedSegmentFile read_segment_file(const std::string& path) {
  std::ifstream in(path);
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

void SegmentManager::ReadHold::release() noexcept {
  if (mgr_ != nullptr) {
    mgr_->read_holds_.fetch_sub(1, std::memory_order_release);
    mgr_ = nullptr;
  }
}

SegmentManager::ReadHold SegmentManager::read_hold() const {
  read_holds_.fetch_add(1, std::memory_order_acquire);
  return ReadHold(this);
}

std::size_t SegmentManager::evict_locked(SegmentId seg) {
  Segment& s = segments_[seg];
  if (!s.sealed || !s.resident || s.pins > 0 || options_.spill_dir.empty()) {
    return 0;
  }
  // Live spans (query paths holding adjacency/bag references) make freeing
  // the payload unsafe; the budget is enforced again on the next attempt.
  if (read_holds_.load(std::memory_order_acquire) > 0) return 0;
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
  std::vector<PropKeyId> key_map;
  key_map.reserve(file.keys.size());
  for (const std::string& name : file.keys) {
    key_map.push_back(store_.intern_prop_key_locked(name));
  }
  std::vector<EdgeTypeId> type_map;
  type_map.reserve(file.edge_types.size());
  for (const std::string& name : file.edge_types) {
    type_map.push_back(store_.intern_edge_type(name));
  }
  for (const ParsedSegmentNode& node : file.nodes) {
    for (const auto& [peer, type] : node.out) {
      if (peer >= node_count) {
        throw SegmentCorruptError("segment io: " + path +
                                  ": edge endpoint out of range");
      }
      (void)type;
    }
    for (const auto& [peer, type] : node.in) {
      if (peer >= node_count) {
        throw SegmentCorruptError("segment io: " + path +
                                  ": edge endpoint out of range");
      }
      (void)type;
    }
  }

  // Commit: restore bags (cold keys only — columns stayed resident) and both
  // adjacency lists verbatim. Indexes were never dropped at eviction, so no
  // index maintenance happens here; the restored segment is bit-identical to
  // its pre-eviction self.
  for (ParsedSegmentNode& node : file.nodes) {
    auto& rec = store_.nodes_[node.id];
    PropertyList bag;
    for (auto& [file_key, value] : node.props) {
      const PropKeyId key = key_map[file_key];
      if (store_.columns_.contains(key)) continue;
      bag.emplace_back(key, std::move(value));
    }
    std::sort(bag.begin(), bag.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    rec.properties = std::move(bag);
    rec.out.reserve(node.out.size());
    for (const auto& [peer, type] : node.out) {
      rec.out.push_back(Edge{peer, type_map[type]});
    }
    rec.in.reserve(node.in.size());
    for (const auto& [peer, type] : node.in) {
      rec.in.push_back(Edge{peer, type_map[type]});
    }
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

void SegmentManager::write_segment_stream_locked(SegmentId seg,
                                                 std::ostream& out) const {
  const Segment& s = segments_[seg];
  std::uint32_t crc = crc32_init();
  const auto emit = [&](const std::string& line) {
    crc = crc32_update(crc, line);
    crc = crc32_update(crc, "\n");
    out << line << '\n';
  };

  std::size_t edges = 0;
  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    edges += store_.nodes_[v].out.size();
  }

  Json header = Json::object();
  header["format"] = "horus-segment";
  header["version"] = std::int64_t{1};
  header["segment"] = static_cast<std::int64_t>(seg);
  header["first"] = static_cast<std::int64_t>(s.first);
  header["nodes"] = static_cast<std::int64_t>(s.count);
  header["edges"] = static_cast<std::int64_t>(edges);
  emit(header.dump());

  Json keys = Json::array();
  for (const std::string& name : store_.prop_keys_) keys.push_back(Json(name));
  Json types = Json::array();
  for (const std::string& name : store_.edge_types_) {
    types.push_back(Json(name));
  }
  Json tables = Json::object();
  tables["keys"] = std::move(keys);
  tables["edge_types"] = std::move(types);
  emit(tables.dump());

  for (NodeId v = s.first; v < end; ++v) {
    const auto& rec = store_.nodes_[v];
    Json node = Json::object();
    node["id"] = static_cast<std::int64_t>(v);
    node["label"] = store_.labels_[rec.label];
    Json props = Json::array();
    // Full property set (columns included) so checkpoint restore can
    // reconstruct the node; evicted-segment reload skips column keys.
    for (const auto& [key, value] : store_.collect_properties_locked(v)) {
      Json entry = Json::array();
      entry.push_back(Json(static_cast<std::int64_t>(key)));
      entry.push_back(property_to_json(value));
      props.push_back(std::move(entry));
    }
    node["props"] = std::move(props);
    const auto adjacency = [](const std::vector<Edge>& list) {
      Json arr = Json::array();
      for (const Edge& e : list) {
        Json entry = Json::array();
        entry.push_back(Json(static_cast<std::int64_t>(e.to)));
        entry.push_back(Json(static_cast<std::int64_t>(e.type)));
        arr.push_back(std::move(entry));
      }
      return arr;
    };
    node["out"] = adjacency(rec.out);
    node["in"] = adjacency(rec.in);
    emit(node.dump());
  }

  Json trailer = Json::object();
  trailer["checksum"] = static_cast<std::int64_t>(crc32_final(crc));
  trailer["nodes"] = static_cast<std::int64_t>(s.count);
  trailer["edges"] = static_cast<std::int64_t>(edges);
  out << trailer.dump() << '\n';
}

void SegmentManager::write_spill_locked(SegmentId seg) {
  const std::string path = spill_path(seg);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw HorusError("segment io: cannot open " + tmp);
    write_segment_stream_locked(seg, out);
    out.flush();
    if (!out) throw HorusError("segment io: write failed for " + tmp);
  }
  fs::rename(tmp, path);
  segments_[seg].spill_clean = true;
}

void SegmentManager::write_segment_file(SegmentId seg,
                                        const std::string& path) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  const Segment& s = segments_[seg];
  if (!s.resident) {
    // Evicted implies a clean spill file; reuse its bytes instead of
    // faulting the segment in just to re-serialize identical content.
    fs::copy_file(spill_path(seg), path, fs::copy_options::overwrite_existing);
    return;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw HorusError("segment io: cannot open " + tmp);
    write_segment_stream_locked(seg, out);
    out.flush();
    if (!out) throw HorusError("segment io: write failed for " + tmp);
  }
  fs::rename(tmp, path);
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
