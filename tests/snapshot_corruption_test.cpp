// Snapshot robustness: truncated, bit-flipped, reordered and otherwise
// mangled graph snapshots must raise a clean HorusError naming the byte
// offset — never crash, hang or silently load a wrong graph. Every frame
// carries a CRC-32 and the trailer frame carries the node and edge counts
// plus a CRC chained over the frames, so a file cut at any byte fails, and
// so does one whose frames were dropped, duplicated or reordered. Edits
// that re-stamp the CRCs (graph_file_bytes.h) reach the structural checks.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "graph/graph_io.h"
#include "graph/graph_store.h"
#include "graph_file_bytes.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

using testing::first_frame;
using testing::frames_of;
using testing::FrameSpan;
using testing::restamp;
using testing::with_varint;

/// A small graph with labels, typed properties and edges — enough to
/// exercise every snapshot record.
void build_sample(graph::GraphStore& store) {
  const auto a = store.add_node("SND", {});
  const auto b = store.add_node("RCV", {});
  const auto c = store.add_node("LOG", {});
  store.set_property(a, "host", std::string("alpha"));
  store.set_property(a, "eventId", std::int64_t{1});
  store.set_property(b, "host", std::string("beta"));
  store.set_property(c, "message", std::string("payment failed"));
  store.set_property(c, "ratio", 2.5);
  store.set_property(c, "flag", true);
  store.add_edge(a, b, "HB");
  store.add_edge(b, c, "HB");
}

std::string sample_snapshot_bytes() {
  graph::GraphStore store;
  build_sample(store);
  std::ostringstream out;
  graph::save_graph(store, out);
  return out.str();
}

/// Loads `bytes` and returns the HorusError message, or "" when it loaded.
std::string load_error(const std::string& bytes) {
  graph::GraphStore store;
  std::istringstream in(bytes);
  try {
    graph::load_graph(store, in);
  } catch (const HorusError& e) {
    return e.what();
  }
  return "";
}

void expect_load_fails(const std::string& bytes, const std::string& tag) {
  EXPECT_NE(load_error(bytes), "") << tag;
}

TEST(SnapshotCorruptionTest, IntactSnapshotLoads) {
  graph::GraphStore store;
  std::istringstream in(sample_snapshot_bytes());
  graph::load_graph(store, in);
  EXPECT_EQ(store.node_count(), 3u);
  EXPECT_EQ(store.edge_count(), 2u);
  // The re-stamping helper changes nothing on an intact file, so a test
  // that re-stamps an edit fails because of the edit.
  EXPECT_EQ(restamp(sample_snapshot_bytes()), sample_snapshot_bytes());
}

/// The offsets where a frame ends: after the magic and after each frame.
/// The binary format's frames play the part of the old format's lines.
std::vector<std::size_t> frame_boundaries(const std::string& bytes) {
  std::vector<std::size_t> cuts{testing::kGraphMagicBytes};
  for (const FrameSpan& f : frames_of(bytes)) cuts.push_back(f.end());
  return cuts;
}

TEST(SnapshotCorruptionTest, TruncationAtEveryLineFails) {
  const std::string bytes = sample_snapshot_bytes();
  // Cut the file after each whole frame. Every cut except the final
  // (intact) one must fail: a file ending exactly after the last adjacency
  // frame is a well-formed run of frames, and only the missing trailer
  // tells it is truncated.
  const std::vector<std::size_t> cuts = frame_boundaries(bytes);
  ASSERT_GT(cuts.size(), 4u);
  ASSERT_EQ(cuts.back(), bytes.size());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    expect_load_fails(bytes.substr(0, cuts[i]),
                      "truncated after frame " + std::to_string(i));
  }
}

TEST(SnapshotCorruptionTest, MidLineTruncationFails) {
  const std::string bytes = sample_snapshot_bytes();
  // Cut at every byte inside the magic or a frame; with the cuts at the
  // frame boundaries above, every proper prefix of the file is tried.
  const std::vector<std::size_t> bounds = frame_boundaries(bytes);
  std::size_t tried = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    if (std::find(bounds.begin(), bounds.end(), cut) != bounds.end()) continue;
    expect_load_fails(bytes.substr(0, cut), "cut at byte " + std::to_string(cut));
    ++tried;
  }
  // The last boundary is the intact end, not a proper prefix.
  EXPECT_EQ(tried + bounds.size() - 1, bytes.size());
}

TEST(SnapshotCorruptionTest, FlipOfAnySingleByteFails) {
  const std::string bytes = sample_snapshot_bytes();
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      expect_load_fails(flipped, "byte " + std::to_string(at) + " ^ " +
                                     std::to_string(mask));
    }
  }
}

TEST(SnapshotCorruptionTest, BitFlipFailsTheChecksum) {
  std::string bytes = sample_snapshot_bytes();
  // Inside a string value of a node record: still a well-formed record, so
  // only the frame CRC can tell.
  const std::size_t pos = bytes.find("alpha");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x08;  // 'a' -> 'i'
  EXPECT_NE(load_error(bytes).find("checksum mismatch"), std::string::npos);
}

TEST(SnapshotCorruptionTest, GarbageLineFails) {
  std::string bytes = sample_snapshot_bytes();
  const FrameSpan nodes = first_frame(bytes, 'N');
  ASSERT_GT(nodes.len, 0u);
  bytes.insert(nodes.start, "!!! not a frame !!!\n");
  expect_load_fails(bytes, "garbage between frames");
}

TEST(SnapshotCorruptionTest, OverdeclaredNodeCountFails) {
  const std::string bytes = sample_snapshot_bytes();
  const FrameSpan header = first_frame(bytes, 'H');
  const std::size_t count = testing::field_offset(bytes, header, 3);
  ASSERT_EQ(testing::varint_at(bytes, count), 3u);
  expect_load_fails(with_varint(bytes, header, count, 9),
                    "header declares more nodes than present");
  expect_load_fails(with_varint(bytes, header, count, 2),
                    "header declares fewer nodes than present");
}

TEST(SnapshotCorruptionTest, EdgeEndpointOutOfRangeFails) {
  const std::string bytes = sample_snapshot_bytes();
  const FrameSpan adjacency = first_frame(bytes, 'A');
  const std::size_t peer = testing::field_offset(bytes, adjacency, 1);
  ASSERT_EQ(testing::varint_at(bytes, peer), 1u);  // node 0 -> node 1
  const std::string message =
      load_error(with_varint(bytes, adjacency, peer, 7));
  EXPECT_NE(message.find("edge endpoint 7 out of range"), std::string::npos)
      << message;
}

// Ids and counts are 32-bit in memory; a decoded value that does not fit is
// corruption, not something to truncate into a plausible small id. Each
// forged value is 2^32 more than the real one.
TEST(SnapshotCorruptionTest, NodeIdWiderThan32BitsFails) {
  const std::string bytes = sample_snapshot_bytes();
  const std::uint64_t wide = std::uint64_t{1} << 32;
  const FrameSpan header = first_frame(bytes, 'H');
  const FrameSpan adjacency = first_frame(bytes, 'A');
  for (const auto& [frame, field, real] :
       {std::tuple{header, 3, 3u}, std::tuple{header, 2, 0u},
        std::tuple{header, 1, 0u}, std::tuple{adjacency, 1, 1u}}) {
    const std::size_t at = testing::field_offset(bytes, frame, field);
    ASSERT_EQ(testing::varint_at(bytes, at), real) << "field " << field;
    // The unedited value re-stamped loads, so the forged one is what fails.
    EXPECT_EQ(load_error(with_varint(bytes, frame, at, real)), "");
    expect_load_fails(with_varint(bytes, frame, at, wide + real),
                      "field " + std::to_string(field) + " = 2^32 + " +
                          std::to_string(real));
  }
}

TEST(SnapshotCorruptionTest, DataAfterTrailerFails) {
  std::string bytes = sample_snapshot_bytes();
  bytes += bytes.substr(testing::kGraphMagicBytes);
  EXPECT_NE(load_error(bytes).find("data after the trailer"),
            std::string::npos);
}

TEST(SnapshotCorruptionTest, UnsupportedVersionFails) {
  std::string bytes = sample_snapshot_bytes();
  bytes[testing::kGraphMagicBytes - 1] = '9';
  EXPECT_NE(load_error(bytes).find("unsupported graph file version '9'"),
            std::string::npos);
}

TEST(SnapshotCorruptionTest, TrailerlessSnapshotFails) {
  // A file that stops right where the trailer should start is exactly what
  // a crash mid-checkpoint leaves behind — it must not load as a plausible
  // graph.
  const std::string bytes = sample_snapshot_bytes();
  const FrameSpan trailer = first_frame(bytes, 'T');
  ASSERT_GT(trailer.start, 0u);
  EXPECT_EQ(trailer.end(), bytes.size());
  EXPECT_NE(load_error(bytes.substr(0, trailer.start)).find("truncated"),
            std::string::npos);
}

TEST(SnapshotCorruptionTest, DroppedDuplicatedOrReorderedFramesFail) {
  // Enough nodes for several node and adjacency frames.
  graph::GraphStore store;
  for (int i = 0; i < 3000; ++i) {
    store.add_node("LOG", {{"message", std::string(40, 'a' + i % 26)},
                           {"eventId", std::int64_t{i}}});
    if (i > 0) store.add_edge(i - 1, i, "HB");
  }
  std::ostringstream out;
  graph::save_graph(store, out);
  const std::string bytes = out.str();
  std::vector<FrameSpan> nodes;
  for (const FrameSpan& f : frames_of(bytes)) {
    if (f.kind == 'N') nodes.push_back(f);
  }
  ASSERT_GE(nodes.size(), 3u);
  const auto span = [&](const FrameSpan& f) {
    return bytes.substr(f.start, f.end() - f.start);
  };
  // Two adjacent node frames swapped: every frame's own CRC still holds.
  ASSERT_EQ(nodes[0].end(), nodes[1].start);
  const std::string swapped = bytes.substr(0, nodes[0].start) +
                              span(nodes[1]) + span(nodes[0]) +
                              bytes.substr(nodes[1].end());
  EXPECT_NE(load_error(swapped).find("frame chain mismatch"),
            std::string::npos)
      << load_error(swapped);

  std::string dropped = bytes;
  dropped.erase(nodes[1].start, nodes[1].end() - nodes[1].start);
  expect_load_fails(dropped, "dropped frame");
  std::string duplicated = bytes;
  duplicated.insert(nodes[1].start, span(nodes[1]));
  expect_load_fails(duplicated, "duplicated frame");
}

TEST(SnapshotCorruptionTest, ErrorsNameTheByteOffset) {
  std::string bytes = sample_snapshot_bytes();
  const FrameSpan nodes = first_frame(bytes, 'N');
  bytes[nodes.payload() + 2] ^= 0x08;
  EXPECT_NE(load_error(bytes).find(": byte " + std::to_string(nodes.start) +
                                   ": checksum mismatch"),
            std::string::npos)
      << load_error(bytes);
}

TEST(SnapshotCorruptionTest, MissingFileFails) {
  const ScopedTempDir dir("missing_file");
  graph::GraphStore store;
  EXPECT_THROW(graph::load_graph_file(store, dir.file("does_not_exist.hgraph")),
               HorusError);
}

// The fixture is written by the test and then damaged on disk: cut by one
// byte, then one byte flipped.
TEST(SnapshotCorruptionTest, CorruptFixtureFails) {
  const ScopedTempDir dir("corrupt_fixture");
  const std::string path = dir.file("g.hgraph");
  graph::GraphStore source;
  build_sample(source);
  graph::save_graph_file(source, path);
  {
    graph::GraphStore intact;
    graph::load_graph_file(intact, path);
    EXPECT_EQ(intact.node_count(), 3u);
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  graph::GraphStore truncated;
  EXPECT_THROW(graph::load_graph_file(truncated, path), HorusError);

  graph::save_graph_file(source, path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(20);
    char c = 0;
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x10));
  }
  graph::GraphStore flipped;
  EXPECT_THROW(graph::load_graph_file(flipped, path), HorusError);
}

}  // namespace
}  // namespace horus
