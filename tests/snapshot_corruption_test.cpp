// Snapshot robustness (companion to snapshot_compat_test): truncated,
// bit-flipped and otherwise mangled graph files must raise a clean
// HorusError naming the offending line — never crash, hang or silently
// load a wrong graph. Valid snapshots carry a CRC-32 integrity trailer,
// and from v3 on the trailer is mandatory: a v3 file cut anywhere —
// including exactly after the final edge — fails as truncated, so a
// half-written checkpoint can never load as a plausible smaller graph.
// Trailer-less legacy files (v1, pre-trailer v2) still load.
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/error.h"
#include "graph/graph_io.h"
#include "graph/graph_store.h"

namespace horus {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(HORUS_TEST_FIXTURE_DIR) + "/" + name;
}

/// A small graph with labels, typed properties and edges — enough to
/// exercise every snapshot section.
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

std::string sample_snapshot_text() {
  graph::GraphStore store;
  build_sample(store);
  std::ostringstream out;
  graph::save_graph(store, out);
  return out.str();
}

void expect_load_fails(const std::string& text, const std::string& tag) {
  graph::GraphStore store;
  std::istringstream in(text);
  EXPECT_THROW(graph::load_graph(store, in), HorusError) << tag;
}

/// Rewrites the trailer's checksum as the CRC of the lines before it, so an
/// edit inside a v3 snapshot reaches the loader's other checks instead of
/// failing the CRC.
std::string restamp_checksum(std::string text) {
  const std::string key = "{\"checksum\":";
  const std::size_t trailer = text.rfind(key);
  const std::size_t digits = trailer + key.size();
  const std::size_t end = text.find_first_not_of("0123456789", digits);
  const std::uint32_t crc = crc32(std::string_view(text).substr(0, trailer));
  text.replace(digits, end - digits, std::to_string(crc));
  return text;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotCorruptionTest, IntactSnapshotLoads) {
  graph::GraphStore store;
  std::istringstream in(sample_snapshot_text());
  graph::load_graph(store, in);
  EXPECT_EQ(store.node_count(), 3u);
  EXPECT_EQ(store.edge_count(), 2u);
}

TEST(SnapshotCorruptionTest, TruncationAtEveryLineFails) {
  const std::string text = sample_snapshot_text();
  // Cut the file after each newline. Every cut except the final (intact)
  // one must fail: v3 requires the integrity trailer, so even a file
  // ending exactly after the last edge — which would be byte-identical to
  // a valid pre-trailer snapshot — is rejected as truncated.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    cuts.push_back(pos + 1);
  }
  ASSERT_GT(cuts.size(), 4u);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    expect_load_fails(text.substr(0, cuts[i]),
                      "truncated after line " + std::to_string(i + 1));
  }
}

TEST(SnapshotCorruptionTest, MidLineTruncationFails) {
  const std::string text = sample_snapshot_text();
  expect_load_fails(text.substr(0, text.size() / 2), "mid-line cut");
}

TEST(SnapshotCorruptionTest, BitFlipFailsTheChecksum) {
  std::string text = sample_snapshot_text();
  // Flip one payload character inside a node record (not the header, whose
  // parse errors are reported separately).
  const std::size_t pos = text.find("alpha");
  ASSERT_NE(pos, std::string::npos);
  text[pos] ^= 0x08;  // 'a' -> 'i': still printable, still valid JSON
  expect_load_fails(text, "bit flip");
}

TEST(SnapshotCorruptionTest, GarbageLineFails) {
  std::string text = sample_snapshot_text();
  const std::size_t pos = text.find('\n') + 1;
  text.insert(pos, "!!! not json !!!\n");
  expect_load_fails(text, "garbage line");
}

TEST(SnapshotCorruptionTest, OverdeclaredNodeCountFails) {
  std::string text = sample_snapshot_text();
  const std::size_t pos = text.find("\"nodes\":3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"nodes\":9");
  expect_load_fails(text, "header declares more nodes than present");
}

TEST(SnapshotCorruptionTest, EdgeEndpointOutOfRangeFails) {
  std::string text = sample_snapshot_text();
  const std::size_t pos = text.find("\"from\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "\"from\":7");
  expect_load_fails(text, "edge endpoint out of range");
}

TEST(SnapshotCorruptionTest, DataAfterTrailerFails) {
  std::string text = sample_snapshot_text();
  text += "{\"from\":0,\"to\":1,\"type\":\"HB\"}\n";
  expect_load_fails(text, "record after integrity trailer");
}

TEST(SnapshotCorruptionTest, UnsupportedVersionFails) {
  std::string text = sample_snapshot_text();
  const std::size_t pos = text.find("\"version\":3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"version\":9");
  expect_load_fails(text, "unsupported version");
}

TEST(SnapshotCorruptionTest, TrailerlessV3SnapshotFails) {
  // A v3 file that stops right where the trailer should start is exactly
  // what a crash mid-checkpoint leaves behind — it must not load as a
  // plausible smaller graph.
  const std::string text = sample_snapshot_text();
  const std::size_t trailer = text.rfind("{\"checksum\"");
  ASSERT_NE(trailer, std::string::npos);
  expect_load_fails(text.substr(0, trailer), "v3 without trailer");
}

TEST(SnapshotCorruptionTest, TrailerlessV2SnapshotStillLoads) {
  // Pre-trailer v2 files end after the edge section; they load without an
  // integrity check (backwards compatibility).
  std::string text = sample_snapshot_text();
  const std::size_t version = text.find("\"version\":3");
  ASSERT_NE(version, std::string::npos);
  text.replace(version, 11, "\"version\":2");
  const std::size_t trailer = text.rfind("{\"checksum\"");
  ASSERT_NE(trailer, std::string::npos);
  graph::GraphStore store;
  std::istringstream in(text.substr(0, trailer));
  graph::load_graph(store, in);
  EXPECT_EQ(store.node_count(), 3u);
  EXPECT_EQ(store.edge_count(), 2u);
}

TEST(SnapshotCorruptionTest, ErrorsNameTheOffendingLine) {
  std::string text = sample_snapshot_text();
  const std::size_t pos = text.find("alpha");
  ASSERT_NE(pos, std::string::npos);
  text[pos] ^= 0x08;
  graph::GraphStore store;
  std::istringstream in(text);
  try {
    graph::load_graph(store, in);
    FAIL() << "corrupt snapshot loaded";
  } catch (const HorusError& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCorruptionTest, NodeIdWiderThan32BitsFails) {
  // 2^32 narrows to node id 0: the loaders must compare the id as written.
  const std::string forged = "{\"id\":4294967296,";
  std::string text = sample_snapshot_text();
  {
    // The restamped but unedited file loads, so the edit below is what
    // must fail, not the checksum.
    graph::GraphStore store;
    std::istringstream in(restamp_checksum(text));
    ASSERT_NO_THROW(graph::load_graph(store, in));
  }
  const std::size_t pos = text.find("{\"id\":0,");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, forged);
  expect_load_fails(restamp_checksum(text), "v3 node id 2^32");

  // A v1 file (no trailer) goes through the other node reader.
  std::string v1 = read_fixture("v1_small.hgraph");
  const std::size_t v1_pos = v1.find("{\"id\":0,");
  ASSERT_NE(v1_pos, std::string::npos);
  v1.replace(v1_pos, 8, forged);
  expect_load_fails(v1, "v1 node id 2^32");
}

TEST(SnapshotCorruptionTest, MissingFileFails) {
  graph::GraphStore store;
  EXPECT_THROW(
      graph::load_graph_file(store, fixture_path("does_not_exist.hgraph")),
      HorusError);
}

TEST(SnapshotCorruptionTest, CorruptFixtureFails) {
  graph::GraphStore store;
  EXPECT_THROW(
      graph::load_graph_file(store, fixture_path("corrupt_truncated.hgraph")),
      HorusError);
  graph::GraphStore other;
  EXPECT_THROW(
      graph::load_graph_file(other, fixture_path("corrupt_checksum.hgraph")),
      HorusError);
}

}  // namespace
}  // namespace horus
