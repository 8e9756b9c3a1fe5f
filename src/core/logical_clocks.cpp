#include "core/logical_clocks.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/crc32.h"
#include "common/error.h"

namespace horus {

namespace {

// Little-endian scalar framing for the clock-table record. Everything is
// serialized into one payload string first so the CRC and the length prefix
// cover the exact bytes on the wire.
void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_i32(std::string& buf, std::int32_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& buf, std::int64_t v) {
  put_u64(buf, static_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over the loaded payload; short reads surface as
/// HorusError instead of UB.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint32_t u32() {
    std::uint32_t v = 0;
    const auto* p = bytes(4);
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    const auto* p = bytes(8);
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str(std::size_t len) {
    const char* p = bytes(len);
    return std::string(p, len);
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// A count of entries that each take at least `bytes_each` of what is
  /// left: a larger count is corruption, refused before anything is
  /// reserved for it.
  std::uint64_t count(std::size_t bytes_each, const char* what) {
    const std::uint64_t n = u64();
    if (n > remaining() / bytes_each) {
      throw HorusError(std::string("clock table: ") + what +
                       " count exceeds the record (corrupt)");
    }
    return n;
  }

 private:
  const char* bytes(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw HorusError("clock table: truncated record (payload short read)");
    }
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// Record magic: "HORUSVC" + a version digit. Version 1 is the only format;
// any other digit is a structurally valid record this binary cannot read.
constexpr char kClockMagic[8] = {'H', 'O', 'R', 'U', 'S', 'V', 'C', '1'};

/// Kahn's algorithm over a region of nodes while writers may still add
/// edges. The region's in-edges are read once, in one store call
/// (GraphStore::copy_nodes), and both the in-degrees and the successor
/// lists derive from that copy: an edge added after it is invisible to the
/// whole pass. Counting an edge one way (in-degree, from an older read) and
/// walking it the other (out-edges, read later) would release a node before
/// one of its counted predecessors, and so misplace it on its timeline.
class RegionOrder {
 public:
  static constexpr std::uint32_t kOutside = ~std::uint32_t{0};

  /// `in`: the region's in-edges, node by node (region order).
  /// `index_of(node)`: the node's index in `region`, or kOutside.
  /// `keep(pred)`: whether a predecessor's clock feeds the node's clock.
  template <typename IndexOf, typename Keep>
  RegionOrder(const graph::NodeCopy& in, std::size_t region_size,
              IndexOf index_of, Keep keep)
      : succ_begin_(region_size + 1, 0), indegree_(region_size, 0) {
    pred_begin_.reserve(region_size + 1);
    pred_begin_.push_back(0);
    preds_.reserve(in.edges.size());
    for (std::size_t i = 0; i < region_size; ++i) {
      for (const graph::Edge& e : in.of(i)) {
        if (!keep(e.to)) continue;  // in-edges store the source in .to
        preds_.push_back(e.to);
        if (const std::uint32_t p = index_of(e.to); p != kOutside) {
          ++indegree_[i];
          ++succ_begin_[p];
        }
      }
      pred_begin_.push_back(static_cast<std::uint32_t>(preds_.size()));
    }
    // Successor lists (CSR): inclusive prefix sums turn each count into the
    // end of its list, and the fill walks each end back to its start.
    for (std::size_t i = 1; i < succ_begin_.size(); ++i) {
      succ_begin_[i] += succ_begin_[i - 1];
    }
    succs_.resize(succ_begin_.back());
    for (std::size_t i = region_size; i-- > 0;) {
      for (const graph::NodeId pred : preds(i)) {
        if (const std::uint32_t p = index_of(pred); p != kOutside) {
          succs_[--succ_begin_[p]] = static_cast<std::uint32_t>(i);
        }
      }
    }
    for (std::size_t i = 0; i < region_size; ++i) {
      if (indegree_[i] == 0) ready_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  /// Predecessors of region node `i` as its snapshot read them.
  [[nodiscard]] std::span<const graph::NodeId> preds(std::size_t i) const {
    return {preds_.data() + pred_begin_[i], pred_begin_[i + 1] - pred_begin_[i]};
  }

  /// Takes a region index whose predecessors are all done; false when none
  /// is left.
  bool next(std::size_t& i) {
    if (ready_.empty()) return false;
    i = ready_.back();
    ready_.pop_back();
    return true;
  }

  /// Marks `i` done, releasing successors whose last predecessor it was.
  void done(std::size_t i) {
    for (std::uint32_t k = succ_begin_[i]; k < succ_begin_[i + 1]; ++k) {
      if (--indegree_[succs_[k]] == 0) ready_.push_back(succs_[k]);
    }
  }

 private:
  std::vector<std::uint32_t> pred_begin_;  ///< CSR offsets into preds_
  std::vector<graph::NodeId> preds_;
  std::vector<std::uint32_t> succ_begin_;  ///< CSR offsets into succs_
  std::vector<std::uint32_t> succs_;       ///< region indices
  std::vector<std::int32_t> indegree_;
  std::vector<std::uint32_t> ready_;
};

}  // namespace

// ---- lookups ----------------------------------------------------------------

bool ClockTable::happens_before(graph::NodeId a, graph::NodeId b) const {
  if (a == b) return false;
  if (!assigned(a) || !assigned(b)) return false;
  return vc_component(b, timeline_of_[a]) >= position_[a];
}

bool ClockTable::vc_less(graph::NodeId a, graph::NodeId b) const {
  if (!assigned(a) || !assigned(b)) return false;
  const auto va = vc_span(a);
  const auto vb = vc_span(b);
  const std::size_t n = std::max(va.size(), vb.size());
  bool strictly = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t x = i < va.size() ? va[i] : 0;
    const std::int32_t y = i < vb.size() ? vb[i] : 0;
    if (x > y) return false;
    if (x < y) strictly = true;
  }
  return strictly;
}

std::string ClockTable::vc_string(graph::NodeId node) const {
  std::string out = "[";
  const auto v = vc_span(node);
  for (std::size_t i = 0; i < timeline_names_.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(i < v.size() ? v[i] : 0);
  }
  out += ']';
  return out;
}

// ---- serialization ----------------------------------------------------------

void ClockTable::save(std::ostream& out) const {
  std::string payload;
  const std::uint64_t n = lamport_.size();
  payload.reserve(64 + n * 24 + vc_arena_.size() * 4);
  put_u64(payload, n);
  for (const std::int64_t lc : lamport_) put_i64(payload, lc);
  put_u64(payload, vc_arena_.size());
  for (const std::int32_t c : vc_arena_) put_i32(payload, c);
  for (const VcSlot& s : vc_slots_) {
    put_u32(payload, s.offset);
    put_u32(payload, s.len);
  }
  for (const std::int32_t t : timeline_of_) put_i32(payload, t);
  for (const std::int32_t p : position_) put_i32(payload, p);
  put_u64(payload, timeline_names_.size());
  for (std::size_t i = 0; i < timeline_names_.size(); ++i) {
    put_u32(payload, static_cast<std::uint32_t>(timeline_names_[i].size()));
    payload += timeline_names_[i];
    put_i32(payload, timeline_sizes_[i]);
  }

  const std::uint32_t crc = crc32(payload);
  std::string frame;
  frame.reserve(sizeof(kClockMagic) + 8 + payload.size() + 4);
  frame.append(kClockMagic, sizeof(kClockMagic));
  put_u64(frame, payload.size());
  frame += payload;
  put_u32(frame, crc);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!out) throw HorusError("clock table: write failed");
}

namespace {

/// Length prefix, payload, CRC trailer, single-record check.
std::string read_clock_payload(std::istream& in) {
  char len_bytes[8];
  if (!in.read(len_bytes, sizeof(len_bytes))) {
    throw HorusError("clock table: truncated record (missing length)");
  }
  std::uint64_t payload_len = 0;
  for (int i = 0; i < 8; ++i) {
    payload_len |=
        static_cast<std::uint64_t>(static_cast<unsigned char>(len_bytes[i]))
        << (8 * i);
  }
  // An absurd length means a corrupt length field; refuse before allocating.
  if (payload_len > (1ULL << 36)) {
    throw HorusError("clock table: implausible payload length (corrupt)");
  }
  // Read in chunks, so a forged length allocates no more than the stream
  // actually holds.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string payload;
  while (payload.size() < payload_len) {
    const std::size_t have = payload.size();
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(payload_len - have, kChunk));
    payload.resize(have + step);
    if (!in.read(payload.data() + have, static_cast<std::streamsize>(step))) {
      throw HorusError("clock table: truncated record (payload short read)");
    }
  }
  char crc_bytes[4];
  if (!in.read(crc_bytes, sizeof(crc_bytes))) {
    throw HorusError("clock table: truncated record (missing CRC trailer)");
  }
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |=
        static_cast<std::uint32_t>(static_cast<unsigned char>(crc_bytes[i]))
        << (8 * i);
  }
  if (crc32(payload) != stored_crc) {
    throw HorusError("clock table: CRC mismatch (corrupt record)");
  }
  // A clocks.bin holds exactly one record; bytes after the CRC trailer mean
  // the file was mangled (e.g. two writes interleaved), not a longer table.
  if (in.peek() != std::istream::traits_type::eof()) {
    throw HorusError("clock table: data after the CRC trailer (corrupt)");
  }
  return payload;
}

}  // namespace

ClockTable ClockTable::load(std::istream& in) {
  char magic[sizeof(kClockMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      !std::equal(magic, magic + sizeof(magic) - 1, kClockMagic)) {
    throw HorusError("clock table: bad magic (not a clock-table record)");
  }
  const char version = magic[sizeof(magic) - 1];
  if (version != kClockMagic[sizeof(kClockMagic) - 1]) {
    // Structurally a clock record, just not in the one format this binary
    // reads — the typed error lets restore paths say "unsupported format"
    // instead of "corrupt checkpoint".
    throw ClockFormatError(std::string("clock table: record version '") +
                           version + "' not supported by this binary");
  }
  const std::string payload = read_clock_payload(in);
  Cursor cur(payload);
  ClockTable table;

  // Per node: Lamport (8), VC slot (8), timeline (4), position (4).
  const std::uint64_t n = cur.count(24, "node");
  table.lamport_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.lamport_.push_back(cur.i64());
  const std::uint64_t arena = cur.count(4, "VC arena");
  table.vc_arena_.reserve(arena);
  for (std::uint64_t i = 0; i < arena; ++i) {
    table.vc_arena_.push_back(cur.i32());
  }
  table.vc_slots_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    VcSlot s;
    s.offset = cur.u32();
    s.len = cur.u32();
    if (static_cast<std::uint64_t>(s.offset) + s.len > arena) {
      throw HorusError("clock table: VC slot outside arena (corrupt record)");
    }
    table.vc_slots_.push_back(s);
  }
  table.timeline_of_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.timeline_of_.push_back(cur.i32());
  table.position_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.position_.push_back(cur.i32());
  // Per timeline: name length (4) and size (4), at least.
  const std::uint64_t timelines = cur.count(8, "timeline");
  for (std::uint64_t i = 0; i < timelines; ++i) {
    const std::uint32_t name_len = cur.u32();
    std::string name = cur.str(name_len);
    table.timeline_ids_.try_emplace(name, static_cast<std::int32_t>(i));
    table.timeline_names_.push_back(std::move(name));
    const std::int32_t size = cur.i32();
    if (size < 0) {
      throw HorusError("clock table: negative timeline size (corrupt)");
    }
    table.timeline_sizes_.push_back(size);
  }
  if (!cur.done()) {
    throw HorusError("clock table: trailing bytes after record (corrupt)");
  }

  // Every assigned node must sit inside its timeline, and its own component
  // must be its position: happens_before() and repair() index by both
  // without further checks.
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::int32_t t = table.timeline_of_[v];
    if (t >= static_cast<std::int32_t>(timelines)) {
      throw HorusError("clock table: timeline id out of range (corrupt)");
    }
    if (table.lamport_[v] == 0) continue;
    if (t < 0) {
      throw HorusError("clock table: assigned node without timeline (corrupt)");
    }
    const auto tl = static_cast<std::size_t>(t);
    const std::int32_t pos = table.position_[v];
    if (pos < 1 || pos > table.timeline_sizes_[tl]) {
      throw HorusError(
          "clock table: node position outside its timeline (corrupt)");
    }
    const VcSlot s = table.vc_slots_[v];
    if (s.len <= tl) {
      throw HorusError(
          "clock table: VC slot shorter than the node's timeline (corrupt)");
    }
    if (table.vc_arena_[s.offset + tl] != pos) {
      throw HorusError(
          "clock table: own VC component differs from the position "
          "(corrupt)");
    }
  }
  return table;
}

// ---- assigner ---------------------------------------------------------------

LogicalClockAssigner::LogicalClockAssigner(ExecutionGraph& graph,
                                           Options options)
    : graph_(graph), options_(options) {}

std::int32_t LogicalClockAssigner::timeline_for_pool(std::uint32_t pool_id) {
  if (pool_id < timeline_of_pool_.size() &&
      timeline_of_pool_[pool_id] >= 0) {
    return timeline_of_pool_[pool_id];
  }
  const std::string name =
      graph_.store().interned_name(graph_.keys().timeline, pool_id);
  auto [tit, inserted] = table_.timeline_ids_.try_emplace(
      name, static_cast<std::int32_t>(table_.timeline_names_.size()));
  if (inserted) {
    table_.timeline_names_.push_back(name);
    table_.timeline_sizes_.push_back(0);
  }
  if (timeline_of_pool_.size() <= pool_id) {
    timeline_of_pool_.resize(pool_id + 1, -1);
  }
  timeline_of_pool_[pool_id] = tit->second;
  return tit->second;
}

void LogicalClockAssigner::merge_pred_vc(
    graph::NodeId pred, std::vector<std::int32_t>& acc) const {
  const ClockTable::VcSlot s = table_.vc_slots_[pred];
  const std::int32_t* pv = table_.vc_arena_.data() + s.offset;
  if (s.len > acc.size()) acc.resize(s.len, 0);
  for (std::uint32_t i = 0; i < s.len; ++i) {
    if (pv[i] > acc[i]) acc[i] = pv[i];
  }
}

void LogicalClockAssigner::append_vc(graph::NodeId v,
                                     const std::vector<std::int32_t>& vc) {
  // Slot offsets are 32-bit; an arena past 2^32 elements would silently
  // wrap them into aliased clocks.
  if (table_.vc_arena_.size() + vc.size() >
      std::numeric_limits<std::uint32_t>::max()) {
    throw HorusError("clock table: VC arena exceeds 32-bit slot addressing");
  }
  table_.vc_slots_[v] = {static_cast<std::uint32_t>(table_.vc_arena_.size()),
                         static_cast<std::uint32_t>(vc.size())};
  table_.vc_arena_.insert(table_.vc_arena_.end(), vc.begin(), vc.end());
}

std::size_t LogicalClockAssigner::assign() {
  const graph::GraphStore& store = graph_.store();
  const ExecutionGraphKeys& keys = graph_.keys();
  const auto n = static_cast<graph::NodeId>(store.node_count());

  auto& lamport = table_.lamport_;
  auto& timeline_of = table_.timeline_of_;
  auto& position = table_.position_;

  if (lamport.size() < n) {
    lamport.resize(n, 0);
    table_.vc_slots_.resize(n);
    timeline_of.resize(n, -1);
    position.resize(n, 0);
  }

  // The unassigned region, in id order. Everything below `first` is
  // assigned.
  const graph::NodeId first = std::min(assigned_prefix_, n);
  std::vector<graph::NodeId> region;
  std::vector<std::uint32_t> slot(n - first, RegionOrder::kOutside);
  for (graph::NodeId v = first; v < n; ++v) {
    if (table_.assigned(v)) continue;
    slot[v - first] = static_cast<std::uint32_t>(region.size());
    region.push_back(v);
  }
  if (region.empty()) {
    assigned_prefix_ = n;
    return 0;
  }
  // In-edges and timeline pool ids of the whole region, in one store call.
  graph::NodeCopy in;
  store.copy_nodes(region,
                   {.edges = graph::EdgeDirection::kIn,
                    .ids = std::span(&keys.timeline, 1)},
                   in);
  // Sources appended concurrently (>= n) are left out: the node is clocked
  // without them, and the clock daemon's audit of new edges heals it.
  RegionOrder order(
      in, region.size(),
      [&](graph::NodeId pred) {
        return pred >= first && pred < n ? slot[pred - first]
                                         : RegionOrder::kOutside;
      },
      [&](graph::NodeId pred) { return pred < n; });

  // A node's clock has at most one component per timeline, so the region
  // fits in region x timelines more slots. Growth is geometric: a pass
  // never reallocates the arena to an exact size.
  auto& arena = table_.vc_arena_;
  const std::size_t timelines =
      std::max(table_.timeline_count(), store.interned_distinct(keys.timeline));
  const std::size_t bound = arena.size() + region.size() * timelines;
  if (bound > arena.capacity()) {
    arena.reserve(std::max(bound, 2 * arena.capacity()));
  }

  std::vector<std::pair<graph::NodeId, std::int64_t>> lamport_writes;
  if (options_.write_lamport_property) lamport_writes.reserve(region.size());
  std::size_t processed = 0;
  std::vector<std::int32_t> v_clock;  // scratch, reused across nodes
  for (std::size_t i = 0; order.next(i);) {
    const graph::NodeId v = region[i];
    ++processed;

    // Timeline identity: an integer from the interned timeline column, read
    // with the in-edges — no string materialisation per node.
    const std::uint32_t pool_id = in.ids[0][i];
    if (pool_id == graph::kNoPoolId) {
      throw std::logic_error("clock assigner: node without timeline property");
    }
    const std::int32_t t = timeline_for_pool(pool_id);

    // Lamport clock: 1 + max over predecessors.
    std::int64_t lc = 1;
    // Vector clock: component-wise max over predecessors, then tick own
    // component to this event's position in its timeline.
    v_clock.clear();
    for (const graph::NodeId pred : order.preds(i)) {
      lc = std::max(lc, lamport[pred] + 1);
      merge_pred_vc(pred, v_clock);
    }
    const std::int32_t pos = ++table_.timeline_sizes_[static_cast<std::size_t>(t)];
    if (static_cast<std::size_t>(t) >= v_clock.size()) {
      v_clock.resize(static_cast<std::size_t>(t) + 1, 0);
    }
    v_clock[static_cast<std::size_t>(t)] = pos;

    lamport[v] = lc;
    timeline_of[v] = t;
    position[v] = pos;
    // Append the clock to the arena — predecessors' spans were fully
    // consumed above, so the potential reallocation is safe.
    append_vc(v, v_clock);

    if (options_.write_lamport_property) lamport_writes.emplace_back(v, lc);
    order.done(i);
  }
  // Every Lamport value in one batched column write.
  if (!lamport_writes.empty()) {
    graph_.store().set_int64_batch(keys.lamport, lamport_writes);
  }

  if (processed != region.size()) {
    throw std::logic_error(
        "clock assigner: cycle detected in causal graph (" +
        std::to_string(region.size() - processed) + " nodes unreachable)");
  }
  assigned_prefix_ = n;
  return processed;
}

std::size_t LogicalClockAssigner::reassign_all() {
  table_ = ClockTable{};
  timeline_of_pool_.clear();  // table timeline ids were dropped with the table
  assigned_prefix_ = 0;
  return assign();
}

std::size_t LogicalClockAssigner::repair(
    std::span<const graph::NodeId> dirty_roots) {
  const graph::GraphStore& store = graph_.store();
  const ExecutionGraphKeys& keys = graph_.keys();
  const auto n = static_cast<graph::NodeId>(store.node_count());

  // Forward closure of the roots over assigned nodes. Unassigned successors
  // are left to the next assign() pass, which reads the repaired
  // predecessors anyway.
  std::unordered_set<graph::NodeId> dirty;
  std::vector<graph::NodeId> stack;
  for (const graph::NodeId r : dirty_roots) {
    if (r < n && table_.assigned(r) && dirty.insert(r).second) {
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const graph::NodeId v = stack.back();
    stack.pop_back();
    for (const graph::Edge& e : store.out_edges_snapshot(v)) {
      if (e.to >= n || !table_.assigned(e.to)) continue;
      if (dirty.insert(e.to).second) stack.push_back(e.to);
    }
  }
  if (dirty.empty()) return 0;

  // Kahn over the dirty subgraph: in-degrees count dirty predecessors only;
  // clean predecessors already hold their final clocks.
  const std::vector<graph::NodeId> region(dirty.begin(), dirty.end());
  std::unordered_map<graph::NodeId, std::uint32_t> slot;
  for (std::size_t i = 0; i < region.size(); ++i) {
    slot.emplace(region[i], static_cast<std::uint32_t>(i));
  }
  graph::NodeCopy in;
  store.copy_nodes(region, {.edges = graph::EdgeDirection::kIn}, in);
  RegionOrder order(
      in, region.size(),
      [&](graph::NodeId pred) {
        const auto it = slot.find(pred);
        return it == slot.end() ? RegionOrder::kOutside : it->second;
      },
      [&](graph::NodeId pred) { return pred < n && table_.assigned(pred); });

  std::vector<std::pair<graph::NodeId, std::int64_t>> lamport_writes;
  std::size_t processed = 0;
  std::vector<std::int32_t> v_clock;  // scratch, reused across nodes
  for (std::size_t i = 0; order.next(i);) {
    const graph::NodeId v = region[i];
    ++processed;

    // Same recurrences as assign(): the canonical values are unique, so
    // recomputing them over final predecessor clocks reproduces exactly what
    // a from-scratch pass would produce (HealsAfterLateEdge asserts this).
    std::int64_t lc = 1;
    v_clock.clear();
    for (const graph::NodeId pred : order.preds(i)) {
      lc = std::max(lc, table_.lamport_[pred] + 1);
      merge_pred_vc(pred, v_clock);
    }
    const auto t = static_cast<std::size_t>(table_.timeline_of_[v]);
    if (t >= v_clock.size()) v_clock.resize(t + 1, 0);
    v_clock[t] = table_.position_[v];

    if (lc != table_.lamport_[v]) {
      table_.lamport_[v] = lc;
      if (options_.write_lamport_property) lamport_writes.emplace_back(v, lc);
    }
    // Overwrite the arena slot in place when the raised clock fits
    // (clearing any stale tail — absent components read as zero); otherwise
    // append a fresh slot and abandon the old one (reclaimed by the next
    // reassign_all).
    const ClockTable::VcSlot vc_slot = table_.vc_slots_[v];
    if (v_clock.size() <= vc_slot.len) {
      const auto base = table_.vc_arena_.begin() +
                        static_cast<std::ptrdiff_t>(vc_slot.offset);
      std::copy(v_clock.begin(), v_clock.end(), base);
      std::fill(base + static_cast<std::ptrdiff_t>(v_clock.size()),
                base + static_cast<std::ptrdiff_t>(vc_slot.len), 0);
    } else {
      append_vc(v, v_clock);
    }
    order.done(i);
  }
  if (!lamport_writes.empty()) {
    graph_.store().set_int64_batch(keys.lamport, lamport_writes);
  }

  if (processed != region.size()) {
    throw std::logic_error(
        "clock assigner: cycle detected in repair region (" +
        std::to_string(region.size() - processed) + " nodes unreachable)");
  }
  return processed;
}

void LogicalClockAssigner::restore(ClockTable table) {
  table_ = std::move(table);
  // The restored table's timeline ids were minted against the pre-crash
  // store; the cache must be rebuilt lazily against the current interning.
  timeline_of_pool_.clear();
  assigned_prefix_ = 0;
  while (table_.assigned(assigned_prefix_)) ++assigned_prefix_;
}

}  // namespace horus
