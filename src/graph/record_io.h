// The one binary record codec behind every graph file: monolithic snapshots
// (graph_io.h), segment spill files and per-segment checkpoint files
// (segment.h).
//
// Layout. A file is the 8-byte magic "HORUSGR1" (the digit is the format
// version), then frames. A frame is a u32 payload length, the payload, and
// the CRC-32 of the payload (all integers little-endian). A payload starts
// with one kind byte and holds whole records of that kind:
//
//   'H'  one header record, then the tables: property keys, labels and
//        edge types, each a varint count of length-prefixed strings;
//   'N'  node records, in node-id order: label index, property count, and
//        per property its key index, a type tag and the value;
//   'A'  adjacency records, one per node in the same order: the out-list as
//        (peer, edge-type index) pairs, then the in-list when the header
//        says in-lists are present;
//   'T'  the trailer, always the last frame: node count, edge count, and a
//        CRC-32 chained over the CRCs of every earlier frame, so frames
//        that were dropped, duplicated or reordered fail as well as frames
//        that were damaged. A file cut at any byte therefore fails.
//
// The header record holds the file kind (snapshot or segment), segment id,
// first node, node count, edge total and whether in-lists are present. A
// monolithic snapshot is one segment covering [0, n) without in-lists.
// Counts and indexes are unsigned LEB128 varints; property values are
// tagged null, bool (one byte), int64 (zig-zag varint), double (8 bytes)
// or length-prefixed bytes, so 3.0 stays a double and strings are
// binary-safe.
//
// Reading is bounds-checked throughout. A frame's length is checked against
// a 64 MiB cap and the stream's size before anything is allocated, and
// read in chunks when the size is unknown, so a forged length cannot
// allocate more than the file holds. A
// frame's CRC is verified before any record in it is decoded. Every id and
// count is decoded as 64 bits and range-checked before it is narrowed; a
// count of records or entries is also checked against the bytes that must
// hold them (the header's node count against the stream's size, when
// known), so no reservation is sized from a count the file cannot back.
// Errors name the byte offset; they are HorusError for snapshots and
// SegmentCorruptError for segment files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_store.h"

namespace horus::graph {

enum class GraphFileKind : std::uint8_t { kSnapshot = 1, kSegment = 2 };

struct GraphFileHeader {
  GraphFileKind kind = GraphFileKind::kSnapshot;
  std::uint32_t segment = 0;
  NodeId first = 0;
  std::uint32_t count = 0;
  std::uint64_t edges = 0;  ///< total out-list entries
  bool in_lists = false;
};

/// Names indexed by the records: a node's property keys and label, an
/// edge's type. Writers pass the store's own tables, so indexes are store
/// ids; readers map them onto the target store's ids.
struct GraphFileTables {
  std::vector<std::string> keys;
  std::vector<std::string> labels;
  std::vector<std::string> edge_types;
};

/// One decoded adjacency entry: the other endpoint and an edge_types index.
struct FileEdge {
  NodeId peer = kNoNode;
  std::uint32_t type = 0;
};

/// Streams one graph file. The caller writes exactly header.count node
/// records, then header.count adjacency records, then finish(). At most one
/// frame is buffered.
class GraphFileWriter {
 public:
  GraphFileWriter(std::ostream& out, const GraphFileHeader& header,
                  const GraphFileTables& tables);

  /// A node record: begin_node with its property count, exactly that many
  /// property() calls, then end_node(). Keys are key-table indexes; null
  /// values are written as such.
  void begin_node(std::uint32_t label, std::size_t props);
  void property(PropKeyId key, const PropertyValue& value);
  void end_node();
  /// Edge types are edge-table indexes. `in` is written only when the
  /// header declares in-lists.
  void adjacency(std::span<const Edge> out, std::span<const Edge> in = {});
  /// Writes the trailer and checks the stream. Throws HorusError when the
  /// written records disagree with the header or a write failed.
  void finish();

 private:
  void begin_record(char kind);
  void end_record();
  void flush_frame();

  std::ostream& out_;
  GraphFileHeader header_;
  std::string frame_;
  std::uint32_t chain_;
  std::uint64_t nodes_ = 0;
  std::uint64_t adjacency_ = 0;
  std::uint64_t edges_ = 0;
  std::size_t props_left_ = 0;  ///< of the open node record
};

/// Decodes one graph file of the expected kind, one frame at a time. The
/// constructor reads and validates the header and tables; then the caller
/// takes header().count node records, header().count adjacency records,
/// and calls finish(), which verifies the trailer and the end of the file.
class GraphFileReader {
 public:
  /// `what` names the source in error messages.
  GraphFileReader(std::istream& in, std::string what, GraphFileKind kind);

  [[nodiscard]] const GraphFileHeader& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const GraphFileTables& tables() const noexcept {
    return tables_;
  }
  /// How many nodes a caller may reserve for before reading them: the
  /// header's count once the stream's size has shown the file can hold that
  /// many records, and 0 when the size is unknown (an unseekable stream).
  [[nodiscard]] std::uint32_t reservable_nodes() const noexcept {
    return size_ != ~std::uint64_t{0} ? header_.count : 0;
  }

  /// Next node record. `props` (replaced) are keyed by key-table index;
  /// null values are dropped, as the store never holds them.
  void next_node(std::uint32_t& label, PropertyList& props);
  /// Next adjacency record; `in` receives the in-list and must be non-null
  /// when the file has in-lists (segment files). Peers of a snapshot lie
  /// inside it; peers of a segment only fit 32 bits (the store checks them
  /// against its size).
  void next_adjacency(std::vector<FileEdge>& out, std::vector<FileEdge>* in);
  void finish();

  /// Throws the kind's error type, naming the current byte offset.
  [[noreturn]] void fail(const std::string& reason) const;

 private:
  [[noreturn]] void fail_at(std::uint64_t offset,
                            const std::string& reason) const;
  void read_exact(char* dst, std::size_t n, const char* what);
  void read_frame(char kind);
  /// Moves to a record of `kind`, reading the next frame when the current
  /// one is used up; a frame of another kind must be used up first.
  void enter(char kind);
  [[nodiscard]] std::size_t remaining() const noexcept {
    return frame_.size() - pos_;
  }
  std::uint8_t byte();
  const char* bytes(std::size_t n);
  std::uint64_t varint();
  /// A varint that must be below `limit`, narrowed to 32 bits.
  std::uint32_t index(std::uint64_t limit, const char* what);
  /// A count of entries that each take at least `min_bytes` of this frame.
  std::uint64_t count_of(std::size_t min_bytes, const char* what);
  std::string string();
  void read_edges(std::vector<FileEdge>& dst);

  std::istream& in_;
  std::string what_;
  GraphFileKind kind_;
  GraphFileHeader header_;
  GraphFileTables tables_;
  std::string frame_;          ///< current payload (kind byte first)
  std::size_t pos_ = 0;        ///< cursor in frame_
  std::uint64_t offset_ = 0;   ///< file offset of frame_[0]
  std::uint64_t consumed_ = 0; ///< bytes read from the stream
  std::uint64_t size_ = ~std::uint64_t{0};  ///< stream size, when known
  std::uint32_t chain_;
  std::uint64_t nodes_ = 0;
  std::uint64_t adjacency_ = 0;
  std::uint64_t edges_ = 0;
};

}  // namespace horus::graph
