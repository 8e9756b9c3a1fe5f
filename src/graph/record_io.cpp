#include "graph/record_io.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/crc32.h"
#include "common/error.h"
#include "graph/segment.h"

namespace horus::graph {

namespace {

constexpr char kMagic[8] = {'H', 'O', 'R', 'U', 'S', 'G', 'R', '1'};

/// Largest frame payload a writer emits or a reader accepts. A writer
/// closes a frame at kFrameTargetBytes, so only a single record larger than
/// that (a huge property value) makes a bigger frame.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;
constexpr std::size_t kFrameTargetBytes = 64u << 10;

/// True when a decoded id or count fits the 32-bit field it is stored in
/// (NodeId, SegmentId, node count); the all-ones value stays reserved.
constexpr bool fits_u32(std::uint64_t v) noexcept {
  return v < std::uint64_t{kNoNode};
}

/// Payload bytes read per step, so a length field that outruns an
/// unseekable stream allocates no more than the stream delivered.
constexpr std::size_t kReadChunk = 16u << 10;

enum Tag : std::uint8_t { kNull = 0, kBool = 1, kInt = 2, kDouble = 3, kBytes = 4 };

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_varint(std::string& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  buf.push_back(static_cast<char>(v));
}

void put_string(std::string& buf, std::string_view s) {
  put_varint(buf, s.size());
  buf.append(s);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Folds one frame's CRC into the chain the trailer carries.
std::uint32_t chain_crc(std::uint32_t chain, std::uint32_t frame_crc) {
  std::string bytes;
  put_u32(bytes, frame_crc);
  return crc32_update(chain, bytes);
}

void put_value(std::string& buf, const PropertyValue& value) {
  if (const auto* b = std::get_if<bool>(&value)) {
    buf.push_back(static_cast<char>(kBool));
    buf.push_back(*b ? 1 : 0);
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    buf.push_back(static_cast<char>(kInt));
    put_varint(buf, zigzag(*i));
  } else if (const auto* d = std::get_if<double>(&value)) {
    buf.push_back(static_cast<char>(kDouble));
    const auto bits = std::bit_cast<std::uint64_t>(*d);
    put_u32(buf, static_cast<std::uint32_t>(bits));
    put_u32(buf, static_cast<std::uint32_t>(bits >> 32));
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    buf.push_back(static_cast<char>(kBytes));
    put_string(buf, *s);
  } else {
    buf.push_back(static_cast<char>(kNull));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

GraphFileWriter::GraphFileWriter(std::ostream& out,
                                 const GraphFileHeader& header,
                                 const GraphFileTables& tables)
    : out_(out), header_(header), chain_(crc32_init()) {
  out_.write(kMagic, sizeof(kMagic));
  begin_record('H');
  put_varint(frame_, static_cast<std::uint8_t>(header.kind));
  put_varint(frame_, header.segment);
  put_varint(frame_, header.first);
  put_varint(frame_, header.count);
  put_varint(frame_, header.edges);
  frame_.push_back(header.in_lists ? 1 : 0);
  for (const auto* table : {&tables.keys, &tables.labels, &tables.edge_types}) {
    put_varint(frame_, table->size());
    for (const std::string& name : *table) put_string(frame_, name);
  }
  end_record();
  flush_frame();
}

void GraphFileWriter::begin_record(char kind) {
  if (!frame_.empty() && frame_.front() != kind) flush_frame();
  if (frame_.empty()) frame_.push_back(kind);
}

void GraphFileWriter::end_record() {
  if (frame_.size() > kMaxFrameBytes) {
    throw HorusError("graph io: a record of " + std::to_string(frame_.size()) +
                     " bytes exceeds the frame limit");
  }
  if (frame_.size() >= kFrameTargetBytes) flush_frame();
}

void GraphFileWriter::flush_frame() {
  if (frame_.empty()) return;
  const std::uint32_t crc = crc32(frame_);
  std::string len;
  put_u32(len, static_cast<std::uint32_t>(frame_.size()));
  std::string tail;
  put_u32(tail, crc);
  out_.write(len.data(), 4);
  out_.write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  out_.write(tail.data(), 4);
  if (!out_) throw HorusError("graph io: write failed");
  if (frame_.front() != 'T') chain_ = chain_crc(chain_, crc);
  frame_.clear();
}

void GraphFileWriter::begin_node(std::uint32_t label, std::size_t props) {
  if (props_left_ != 0) {
    throw std::logic_error("graph io: node record still has properties due");
  }
  begin_record('N');
  put_varint(frame_, label);
  put_varint(frame_, props);
  props_left_ = props;
}

void GraphFileWriter::property(PropKeyId key, const PropertyValue& value) {
  if (props_left_ == 0) {
    throw std::logic_error("graph io: more properties than the record declared");
  }
  put_varint(frame_, key);
  put_value(frame_, value);
  --props_left_;
}

void GraphFileWriter::end_node() {
  if (props_left_ != 0) {
    throw std::logic_error("graph io: fewer properties than the record declared");
  }
  end_record();
  ++nodes_;
}

void GraphFileWriter::adjacency(std::span<const Edge> out,
                                std::span<const Edge> in) {
  begin_record('A');
  const auto put_edges = [this](std::span<const Edge> edges) {
    put_varint(frame_, edges.size());
    for (const Edge& e : edges) {
      put_varint(frame_, e.to);
      put_varint(frame_, e.type);
    }
  };
  put_edges(out);
  if (header_.in_lists) put_edges(in);
  end_record();
  ++adjacency_;
  edges_ += out.size();
}

void GraphFileWriter::finish() {
  if (nodes_ != header_.count || adjacency_ != header_.count ||
      edges_ != header_.edges) {
    throw HorusError(
        "graph io: the records written disagree with the header (" +
        std::to_string(nodes_) + " nodes, " + std::to_string(edges_) +
        " edges written; " + std::to_string(header_.count) + " and " +
        std::to_string(header_.edges) + " declared): the store changed "
        "during the write");
  }
  flush_frame();
  begin_record('T');
  put_varint(frame_, nodes_);
  put_varint(frame_, edges_);
  put_u32(frame_, chain_);
  flush_frame();
  out_.flush();
  if (!out_) throw HorusError("graph io: write failed");
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

GraphFileReader::GraphFileReader(std::istream& in, std::string what,
                                 GraphFileKind kind)
    : in_(in), what_(std::move(what)), kind_(kind), chain_(crc32_init()) {
  // The stream's size, when it can tell, rejects a frame length that runs
  // past the end before anything is allocated for it.
  const std::streampos here = in_.tellg();
  if (here != std::streampos(-1) && in_.seekg(0, std::ios::end)) {
    const std::streampos end = in_.tellg();
    in_.seekg(here);
    if (end != std::streampos(-1) && end >= here) {
      size_ = static_cast<std::uint64_t>(end - here);
    }
  }
  in_.clear(in_.rdstate() & ~std::ios::failbit);

  char magic[sizeof(kMagic)];
  in_.read(magic, sizeof(magic));
  consumed_ = static_cast<std::uint64_t>(in_.gcount());
  if (consumed_ < sizeof(kMagic) - 1 ||
      !std::equal(magic, magic + sizeof(kMagic) - 1, kMagic)) {
    fail_at(0,
            "not a Horus graph file: the snapshot format is the binary "
            "HORUSGR1 record format (JSON-lines snapshots are not read)");
  }
  if (consumed_ < sizeof(kMagic)) fail_at(consumed_, "truncated magic");
  if (magic[sizeof(kMagic) - 1] != kMagic[sizeof(kMagic) - 1]) {
    fail_at(sizeof(kMagic) - 1,
            std::string("unsupported graph file version '") +
                magic[sizeof(kMagic) - 1] + "'");
  }

  read_frame('H');
  const std::uint64_t file_kind = varint();
  if (file_kind != static_cast<std::uint8_t>(kind_)) {
    fail(file_kind == static_cast<std::uint8_t>(GraphFileKind::kSnapshot)
             ? "a graph snapshot, not a segment file"
         : file_kind == static_cast<std::uint8_t>(GraphFileKind::kSegment)
             ? "a segment file, not a graph snapshot"
             : "unknown graph file kind " + std::to_string(file_kind));
  }
  const std::uint64_t segment = varint();
  const std::uint64_t first = varint();
  const std::uint64_t count = varint();
  if (!fits_u32(segment) || !fits_u32(first) || !fits_u32(count) ||
      !fits_u32(first + count)) {
    fail("segment id or node range out of range");
  }
  header_.kind = kind_;
  header_.segment = static_cast<std::uint32_t>(segment);
  header_.first = static_cast<NodeId>(first);
  header_.count = static_cast<std::uint32_t>(count);
  header_.edges = varint();
  const std::uint8_t in_lists = byte();
  if (in_lists > 1) fail("bad in-list flag");
  header_.in_lists = in_lists == 1;
  const bool segment_file = kind_ == GraphFileKind::kSegment;
  if (header_.in_lists != segment_file) {
    fail(segment_file ? "segment file without in-lists"
                      : "snapshot with in-lists");
  }
  if (!segment_file && (segment != 0 || first != 0)) {
    fail("a snapshot must cover nodes from 0");
  }
  // Each node takes at least a label and a property count in its record,
  // and one count per adjacency list: a larger count cannot fit the file.
  const std::uint64_t node_bytes = segment_file ? 4 : 3;
  if (size_ != ~std::uint64_t{0} &&
      count > (size_ - std::min(size_, consumed_)) / node_bytes) {
    fail("node count " + std::to_string(count) + " cannot fit the " +
         std::to_string(size_) + "-byte file");
  }

  const auto read_table = [this](std::vector<std::string>& table,
                                 std::uint64_t limit, const char* what) {
    const std::uint64_t n = count_of(1, what);
    if (n > limit) fail(std::string("too many ") + what + " names");
    table.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) table.push_back(string());
  };
  read_table(tables_.keys, kNoPropKey, "property key");
  read_table(tables_.labels, kNoNode, "label");
  read_table(tables_.edge_types,
             std::uint64_t{std::numeric_limits<EdgeTypeId>::max()} + 1,
             "edge type");
  if (remaining() != 0) fail("unexpected bytes after the tables");
}

void GraphFileReader::fail(const std::string& reason) const {
  fail_at(offset_ + pos_, reason);
}

void GraphFileReader::fail_at(std::uint64_t offset,
                              const std::string& reason) const {
  const std::string where = what_ + ": byte " + std::to_string(offset) + ": ";
  if (kind_ == GraphFileKind::kSegment) {
    throw SegmentCorruptError("segment io: " + where + reason);
  }
  throw HorusError("graph io: " + where + reason);
}

void GraphFileReader::read_exact(char* dst, std::size_t n, const char* what) {
  in_.read(dst, static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(in_.gcount());
  consumed_ += got;
  if (got != n) {
    fail_at(consumed_, std::string("truncated: the file ends inside ") + what);
  }
}

void GraphFileReader::read_frame(char kind) {
  const std::uint64_t start = consumed_;
  char head[4];
  read_exact(head, sizeof(head), "a frame length");
  const std::uint32_t len = get_u32(head);
  if (len < 2 || len > kMaxFrameBytes ||
      std::uint64_t{len} + 4 > size_ - std::min(size_, consumed_)) {
    fail_at(start, "frame length " + std::to_string(len) +
                       " is below 2, above the frame limit or past the end "
                       "of the file");
  }
  frame_.clear();
  while (frame_.size() < len) {
    const std::size_t have = frame_.size();
    const std::size_t step = std::min<std::size_t>(len - have, kReadChunk);
    frame_.resize(have + step);
    read_exact(frame_.data() + have, step, "a frame");
  }
  char tail[4];
  read_exact(tail, sizeof(tail), "a frame checksum");
  const std::uint32_t crc = crc32(frame_);
  if (crc != get_u32(tail)) {
    fail_at(start, "checksum mismatch: the frame is corrupt");
  }
  offset_ = start + 4;
  pos_ = 0;
  if (frame_.front() != kind) {
    fail(std::string("expected a '") + kind + "' frame, found kind byte " +
         std::to_string(static_cast<unsigned char>(frame_.front())));
  }
  pos_ = 1;
  if (kind != 'T') chain_ = chain_crc(chain_, crc);
}

void GraphFileReader::enter(char kind) {
  if (remaining() > 0) {
    if (frame_.front() == kind) return;
    fail("more records than the header declares");
  }
  read_frame(kind);
}

std::uint8_t GraphFileReader::byte() {
  if (remaining() == 0) fail("record runs past the end of its frame");
  return static_cast<std::uint8_t>(frame_[pos_++]);
}

const char* GraphFileReader::bytes(std::size_t n) {
  if (remaining() < n) fail("record runs past the end of its frame");
  const char* p = frame_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint64_t GraphFileReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = byte();
    if (shift == 63 && b > 1) break;
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return v;
  }
  fail("malformed varint");
}

std::uint32_t GraphFileReader::index(std::uint64_t limit, const char* what) {
  const std::uint64_t v = varint();
  if (v >= limit) {
    fail(std::string(what) + " index " + std::to_string(v) +
         " out of range (" + std::to_string(limit) + ")");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t GraphFileReader::count_of(std::size_t min_bytes,
                                        const char* what) {
  const std::uint64_t n = varint();
  if (n > remaining() / min_bytes) {
    fail(std::to_string(n) + " " + what + " entries cannot fit the frame");
  }
  return n;
}

std::string GraphFileReader::string() {
  const std::uint64_t len = varint();
  if (len > remaining()) fail("string runs past the end of its frame");
  const char* p = bytes(static_cast<std::size_t>(len));
  return {p, static_cast<std::size_t>(len)};
}

void GraphFileReader::next_node(std::uint32_t& label, PropertyList& props) {
  if (nodes_ >= header_.count) {
    throw std::logic_error("graph io: more node records read than declared");
  }
  enter('N');
  label = index(tables_.labels.size(), "label");
  // A property is at least a key index and a tag.
  const std::uint64_t n = count_of(2, "property");
  props.clear();
  props.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const PropKeyId key = index(tables_.keys.size(), "property key");
    switch (byte()) {
      case kNull:
        break;
      case kBool: {
        const std::uint8_t b = byte();
        if (b > 1) fail("bad bool value");
        props.emplace_back(key, b == 1);
        break;
      }
      case kInt:
        props.emplace_back(key, unzigzag(varint()));
        break;
      case kDouble: {
        const char* p = bytes(8);
        const std::uint64_t bits = get_u32(p) |
                                   (std::uint64_t{get_u32(p + 4)} << 32);
        props.emplace_back(key, std::bit_cast<double>(bits));
        break;
      }
      case kBytes:
        props.emplace_back(key, string());
        break;
      default:
        fail("unknown value tag");
    }
  }
  ++nodes_;
}

void GraphFileReader::read_edges(std::vector<FileEdge>& dst) {
  // An edge is at least a peer and a type index.
  const std::uint64_t n = count_of(2, "edge");
  dst.clear();
  dst.reserve(n);
  const bool snapshot = kind_ == GraphFileKind::kSnapshot;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t peer = varint();
    if (snapshot ? peer >= header_.count : !fits_u32(peer)) {
      fail("edge endpoint " + std::to_string(peer) + " out of range");
    }
    const std::uint32_t type = index(tables_.edge_types.size(), "edge type");
    dst.push_back(FileEdge{static_cast<NodeId>(peer), type});
  }
}

void GraphFileReader::next_adjacency(std::vector<FileEdge>& out,
                                     std::vector<FileEdge>* in) {
  if (adjacency_ >= header_.count) {
    throw std::logic_error(
        "graph io: more adjacency records read than declared");
  }
  enter('A');
  read_edges(out);
  edges_ += out.size();
  if (header_.in_lists) {
    if (in == nullptr) {
      throw std::logic_error("graph io: in-lists present but not requested");
    }
    read_edges(*in);
  }
  ++adjacency_;
}

void GraphFileReader::finish() {
  if (nodes_ != header_.count || adjacency_ != header_.count) {
    throw std::logic_error("graph io: finish() before every record was read");
  }
  if (remaining() > 0) fail("more records than the header declares");
  read_frame('T');
  const std::uint64_t nodes = varint();
  const std::uint64_t edges = varint();
  const std::uint32_t chain = get_u32(bytes(4));
  if (remaining() != 0) fail("unexpected bytes in the trailer");
  if (nodes != header_.count) {
    fail("trailer node count " + std::to_string(nodes) +
         " disagrees with the header's " + std::to_string(header_.count));
  }
  if (edges != edges_ || edges != header_.edges) {
    fail("trailer edge count " + std::to_string(edges) + " disagrees with " +
         std::to_string(edges_) + " edges read and " +
         std::to_string(header_.edges) + " declared");
  }
  if (chain != chain_) {
    fail("frame chain mismatch: frames were dropped, duplicated or reordered");
  }
  if (in_.peek() != std::istream::traits_type::eof()) {
    fail_at(consumed_, "data after the trailer");
  }
}

}  // namespace horus::graph
