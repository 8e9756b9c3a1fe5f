// SegmentManager unit suite: sealing boundaries, carving, the residency
// state machine (evict / reload / pin / LRU budget), CRC-checked binary
// spill files with typed corruption failures, range-summary scan pruning (ranges
// current on seal, carve, adopt and write), and transparent fault-in on
// every store access path.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_store.h"
#include "graph/segment.h"
#include "scoped_temp_dir.h"

namespace horus::graph {
namespace {

namespace fs = std::filesystem;

/// Adds `n` nodes with a lamport-ish int property that grows with the id so
/// sealed segments get disjoint value ranges, plus chain edges.
void fill(GraphStore& store, std::size_t n, bool edges = true) {
  const NodeId base = static_cast<NodeId>(store.node_count());
  for (std::size_t i = 0; i < n; ++i) {
    PropertyMap props;
    props["lamportLogicalTime"] =
        static_cast<std::int64_t>(base) + static_cast<std::int64_t>(i);
    props["host"] = std::string(i % 2 == 0 ? "alpha" : "beta");
    store.add_node(i % 3 == 0 ? "SND" : "LOG", std::move(props));
  }
  if (edges) {
    for (std::size_t i = 1; i < n; ++i) {
      store.add_edge(base + static_cast<NodeId>(i) - 1,
                     base + static_cast<NodeId>(i), "HB");
    }
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

SegmentOptions small_segments(const std::string& spill_dir = "",
                              std::size_t per_segment = 8) {
  SegmentOptions options;
  options.nodes_per_segment = per_segment;
  options.shard_count = 3;
  options.spill_dir = spill_dir;
  options.auto_evict = false;
  return options;
}

TEST(SegmentStoreTest, SealsOnSizeBoundary) {
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments());
  fill(store, 20);

  // 20 nodes at 8/segment: two sealed segments plus a 4-node active tail.
  EXPECT_EQ(segments.segment_count(), 3u);
  EXPECT_EQ(segments.sealed_count(), 2u);
  const std::vector<SegmentInfo> list = segments.list();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].first, 0u);
  EXPECT_EQ(list[0].count, 8u);
  EXPECT_TRUE(list[0].sealed);
  EXPECT_EQ(list[1].first, 8u);
  EXPECT_TRUE(list[1].sealed);
  EXPECT_EQ(list[2].first, 16u);
  EXPECT_EQ(list[2].count, 4u);
  EXPECT_FALSE(list[2].sealed);

  EXPECT_EQ(segments.segment_of(0), 0u);
  EXPECT_EQ(segments.segment_of(7), 0u);
  EXPECT_EQ(segments.segment_of(8), 1u);
  EXPECT_EQ(segments.segment_of(19), 2u);

  // Shards are attributed round-robin over segment ids.
  for (const SegmentInfo& info : list) {
    EXPECT_EQ(info.shard, info.id % 3u);
  }
  EXPECT_EQ(segments.shard_counts().size(), 3u);
  EXPECT_NE(segments.shard_report().find("shard 0"), std::string::npos);
}

TEST(SegmentStoreTest, SealActiveIsEpochBoundary) {
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments());
  fill(store, 3);
  EXPECT_EQ(segments.sealed_count(), 0u);
  segments.seal_active();
  EXPECT_EQ(segments.sealed_count(), 1u);
  // Sealing an empty tail is a no-op.
  segments.seal_active();
  EXPECT_EQ(segments.segment_count(), 2u);
  EXPECT_EQ(segments.sealed_count(), 1u);
  // The next write lands in the fresh active segment.
  fill(store, 1, /*edges=*/false);
  EXPECT_EQ(segments.segment_of(3), 1u);
}

TEST(SegmentStoreTest, CarvesExistingNodesOnEnable) {
  GraphStore store;
  fill(store, 20);
  SegmentManager& segments = store.enable_segments(small_segments());
  EXPECT_EQ(segments.segment_count(), 3u);
  EXPECT_EQ(segments.sealed_count(), 2u);
  EXPECT_EQ(segments.info(2).count, 4u);
  EXPECT_FALSE(segments.info(2).sealed);
}

TEST(SegmentStoreTest, CarveExistingFalseKeepsOneActiveSegment) {
  GraphStore store;
  fill(store, 20);
  SegmentOptions options = small_segments();
  options.carve_existing = false;
  SegmentManager& segments = store.enable_segments(options);
  EXPECT_EQ(segments.segment_count(), 1u);
  EXPECT_EQ(segments.sealed_count(), 0u);
  EXPECT_EQ(segments.info(0).count, 20u);
}

TEST(SegmentStoreTest, AdoptSealedImposesCheckpointBoundaries) {
  GraphStore store;
  fill(store, 20);
  SegmentOptions options = small_segments();
  options.carve_existing = false;
  SegmentManager& segments = store.enable_segments(options);
  segments.adopt_sealed({{0, 8}, {8, 5}});
  ASSERT_EQ(segments.segment_count(), 3u);
  EXPECT_EQ(segments.sealed_count(), 2u);
  EXPECT_EQ(segments.info(1).first, 8u);
  EXPECT_EQ(segments.info(1).count, 5u);
  EXPECT_EQ(segments.info(2).first, 13u);
  EXPECT_EQ(segments.info(2).count, 7u);
  EXPECT_FALSE(segments.info(2).sealed);
  EXPECT_EQ(segments.segment_of(12), 1u);
  EXPECT_EQ(segments.segment_of(13), 2u);
}

TEST(SegmentStoreTest, AdoptSealedRejectsBadTilings) {
  GraphStore store;
  fill(store, 10);
  SegmentOptions options = small_segments();
  options.carve_existing = false;
  SegmentManager& segments = store.enable_segments(options);
  // Gap, overlap, and overflow tilings all throw without mutating layout.
  EXPECT_THROW(segments.adopt_sealed({{1, 4}}), std::logic_error);
  EXPECT_THROW(segments.adopt_sealed({{0, 4}, {3, 4}}), std::logic_error);
  EXPECT_THROW(segments.adopt_sealed({{0, 11}}), std::logic_error);
  EXPECT_EQ(segments.segment_count(), 1u);
}

/// Full payload snapshot through the public accessors.
struct NodeSnapshot {
  std::string label;
  PropertyMap props;
  std::vector<Edge> out;
  std::vector<Edge> in;

  bool operator==(const NodeSnapshot&) const = default;
};

std::vector<NodeSnapshot> snapshot(const GraphStore& store) {
  std::vector<NodeSnapshot> all;
  for (NodeId n = 0; n < store.node_count(); ++n) {
    NodeSnapshot s;
    s.label = store.node_label(n);
    s.props = store.node_properties(n);
    const auto out = store.out_edges(n);
    const auto in = store.in_edges(n);
    s.out.assign(out.begin(), out.end());
    s.in.assign(in.begin(), in.end());
    all.push_back(std::move(s));
  }
  return all;
}

TEST(SegmentStoreTest, EvictReloadRoundTripsPayload) {
  ScopedTempDir dir("evict");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  const std::vector<NodeSnapshot> before = snapshot(store);

  const std::size_t released = segments.evict(0);
  EXPECT_GT(released, 0u);
  EXPECT_FALSE(segments.is_resident(0));
  EXPECT_EQ(segments.evicted_count(), 1u);
  EXPECT_TRUE(fs::exists(dir.path() / "seg-0.hseg"));

  // Explicit reload restores the payload bit-for-bit.
  segments.reload(0);
  EXPECT_TRUE(segments.is_resident(0));
  EXPECT_EQ(snapshot(store), before);

  // Transparent fault-in: evict again, then read through the accessors
  // without an explicit reload.
  ASSERT_GT(segments.evict(0), 0u);
  EXPECT_EQ(snapshot(store), before);
  EXPECT_TRUE(segments.is_resident(0));
}

TEST(SegmentStoreTest, EvictRefusesUnsealedPinnedAndSpilllessSegments) {
  GraphStore no_spill_store;
  SegmentManager& no_spill =
      no_spill_store.enable_segments(small_segments(/*spill_dir=*/""));
  fill(no_spill_store, 20);
  EXPECT_EQ(no_spill.evict(0), 0u);  // no spill_dir configured
  EXPECT_TRUE(no_spill.is_resident(0));

  ScopedTempDir dir("refuse");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  EXPECT_EQ(segments.evict(2), 0u);  // active tail is never evictable

  segments.pin(0);
  EXPECT_EQ(segments.evict(0), 0u);  // pinned
  segments.unpin(0);
  EXPECT_GT(segments.evict(0), 0u);
  EXPECT_EQ(segments.evict(0), 0u);  // already evicted
}

TEST(SegmentStoreTest, PinFaultsInAndBlocksEviction) {
  ScopedTempDir dir("pin");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);
  segments.pin(0);
  EXPECT_TRUE(segments.is_resident(0));  // pin faulted it back in
  EXPECT_EQ(segments.evict_all(), segments.info(1).payload_bytes);
  EXPECT_TRUE(segments.is_resident(0));
  EXPECT_FALSE(segments.is_resident(1));
  segments.unpin(0);
}

TEST(SegmentStoreTest, EvictToBudgetIsLru) {
  ScopedTempDir dir("lru");
  GraphStore store;
  SegmentOptions options = small_segments(dir.str());
  SegmentManager& segments = store.enable_segments(options);
  fill(store, 36);  // segments 0..3 sealed, active tail of 4
  ASSERT_EQ(segments.sealed_count(), 4u);

  // Touch segment 0 (reload stamps LRU) so 1 becomes the coldest.
  ASSERT_GT(segments.evict(0), 0u);
  segments.reload(0);

  // Budget that forces exactly two evictions: the two coldest sealed
  // segments (1, then 2) go; 0 (just touched) and 3 (sealed last) stay.
  const std::size_t keep = segments.info(0).payload_bytes +
                           segments.info(3).payload_bytes;
  GraphStore budgeted;  // fresh store: budget must be set at enable time
  SegmentOptions bopts = small_segments(dir.str() + "/b");
  bopts.resident_budget_bytes = keep;
  SegmentManager& bsegs = budgeted.enable_segments(bopts);
  fill(budgeted, 36);
  ASSERT_GT(bsegs.evict(0), 0u);
  bsegs.reload(0);
  EXPECT_GT(bsegs.evict_to_budget(), 0u);
  EXPECT_LE(bsegs.resident_bytes(), keep);
  EXPECT_TRUE(bsegs.is_resident(0));
  EXPECT_FALSE(bsegs.is_resident(1));
  EXPECT_FALSE(bsegs.is_resident(2));
  EXPECT_TRUE(bsegs.is_resident(3));
}

TEST(SegmentStoreTest, AutoEvictOnSealHoldsBudget) {
  ScopedTempDir dir("autoevict");
  GraphStore store;
  SegmentOptions options = small_segments(dir.str());
  options.auto_evict = true;
  options.resident_budget_bytes = 1;  // evict everything evictable on seal
  SegmentManager& segments = store.enable_segments(options);
  // Nodes only: chain edges into sealed segments would fault them back in
  // (the write path keeps the budget only at seal boundaries).
  fill(store, 36, /*edges=*/false);
  EXPECT_EQ(segments.sealed_count(), 4u);
  EXPECT_GE(segments.evicted_count(), 3u);
  EXPECT_LE(segments.resident_bytes(), segments.info(3).payload_bytes);
  // The graph still reads back whole (fault-in path under budget pressure).
  EXPECT_EQ(snapshot(store).size(), 36u);
}

TEST(SegmentStoreTest, CorruptSpillFailsTypedAndStoreStaysUsable) {
  ScopedTempDir dir("corrupt");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);

  const fs::path spill = dir.path() / "seg-0.hseg";
  ASSERT_TRUE(fs::exists(spill));

  // Bit-flip a byte mid-file: CRC mismatch.
  {
    std::fstream f(spill, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(c == 'x' ? 'y' : 'x');
  }
  EXPECT_THROW(segments.reload(0), SegmentCorruptError);
  EXPECT_FALSE(segments.is_resident(0));

  // Truncation: structural failure, still the typed error.
  {
    const auto size = fs::file_size(spill);
    fs::resize_file(spill, size / 2);
  }
  EXPECT_THROW(segments.reload(0), SegmentCorruptError);

  // Missing file.
  fs::remove(spill);
  EXPECT_THROW(segments.reload(0), SegmentCorruptError);

  // The rest of the store still serves reads and writes.
  EXPECT_EQ(store.node_label(12), store.node_label(12));
  store.set_property(15, "post", std::int64_t{1});
  EXPECT_TRUE(property_equals(store.property(15, "post"), std::int64_t{1}));
}

TEST(SegmentStoreTest, SegmentFileRoundTripAndTamperDetection) {
  ScopedTempDir dir("file");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments());
  fill(store, 20);

  const std::string path = (dir.path() / "seg.hseg").string();
  segments.write_segment_file(1, path);
  const ParsedSegmentFile parsed = read_segment_file(path);
  EXPECT_EQ(parsed.segment, 1u);
  EXPECT_EQ(parsed.first, 8u);
  EXPECT_EQ(parsed.count, 8u);
  ASSERT_EQ(parsed.nodes.size(), 8u);
  EXPECT_EQ(parsed.nodes.front().id, 8u);
  EXPECT_EQ(parsed.nodes.front().label, store.node_label(8));
  // Every out-edge of nodes 8..15 appears in the file.
  std::size_t expect_edges = 0;
  for (NodeId n = 8; n < 16; ++n) expect_edges += store.out_edges(n).size();
  EXPECT_EQ(parsed.edges, expect_edges);

  // Tampering with the payload flips the CRC.
  std::string bytes = read_bytes(path);
  const auto pos = bytes.find("LOG");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 3, "BAD");
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(read_segment_file(path), SegmentCorruptError);
  try {
    (void)read_segment_file(path);
    FAIL() << "expected SegmentCorruptError";
  } catch (const SegmentCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(SegmentStoreTest, SpillFileCutAtEveryByteFails) {
  ScopedTempDir dir("spillcut");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);
  const std::string bytes = read_bytes((dir.path() / "seg-0.hseg").string());
  {
    std::istringstream whole(bytes);
    EXPECT_EQ(read_segment_stream(whole, "whole").count, 8u);
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW((void)read_segment_stream(in, "cut"), SegmentCorruptError)
        << "cut at byte " << cut;
  }
}

TEST(SegmentStoreTest, WriteSegmentFileCopiesCleanSpill) {
  ScopedTempDir dir("spillcopy");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);
  // Evicted segment: write_segment_file must not need the payload resident.
  const std::string out = (dir.path() / "copy.hseg").string();
  segments.write_segment_file(0, out);
  EXPECT_FALSE(segments.is_resident(0));
  const ParsedSegmentFile parsed = read_segment_file(out);
  EXPECT_EQ(parsed.count, 8u);
}

/// Node ids a scan over `ranges` visits, in scan order.
std::vector<NodeId> visited(
    const std::vector<std::pair<NodeId, NodeId>>& ranges) {
  std::vector<NodeId> out;
  for (const auto& [begin, end] : ranges) {
    for (NodeId n = begin; n < end; ++n) out.push_back(n);
  }
  return out;
}

bool contains(const std::vector<NodeId>& nodes, NodeId n) {
  return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
}

TEST(SegmentStoreTest, EqualityScanRangesPruneBySummary) {
  GraphStore store;
  SegmentOptions options = small_segments();
  options.lamport_key = store.intern_prop_key("lamportLogicalTime");
  SegmentManager& segments = store.enable_segments(options);
  fill(store, 36);  // lamport value == node id, so ranges are disjoint

  // Value 12 lives in segment 1 ([8, 16)); sealed segments 0, 2, 3 are
  // skipped, the active tail ([32, 36)) is always scanned.
  std::size_t skipped = 0;
  const std::vector<NodeId> scanned = visited(
      segments.scan_ranges(options.lamport_key, 12, 12, &skipped));
  EXPECT_EQ(skipped, 3u);
  for (NodeId n = 8; n < 16; ++n) EXPECT_TRUE(contains(scanned, n)) << n;
  for (NodeId n = 32; n < 36; ++n) EXPECT_TRUE(contains(scanned, n)) << n;
  EXPECT_EQ(scanned.size(), 12u);

  // Ground truth: the pruned scan finds exactly the full-scan matches.
  const auto matches = [&](const std::vector<NodeId>& nodes) {
    std::vector<NodeId> out;
    for (NodeId n : nodes) {
      if (property_equals(store.property(n, options.lamport_key),
                          std::int64_t{12})) {
        out.push_back(n);
      }
    }
    return out;
  };
  EXPECT_EQ(matches(scanned), matches(store.all_nodes()));

  // A window spanning two sealed segments keeps both, merged into one range.
  const auto window = segments.scan_ranges(options.lamport_key, 14, 17);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0], (std::pair<NodeId, NodeId>{8u, 24u}));
  EXPECT_EQ(window[1], (std::pair<NodeId, NodeId>{32u, 36u}));

  // Unsummarised keys never prune; an empty window visits nothing.
  const PropKeyId host = store.prop_key_id("host");
  const auto other = segments.scan_ranges(host, 12, 12);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0], (std::pair<NodeId, NodeId>{0u, 36u}));
  EXPECT_TRUE(segments.scan_ranges(options.lamport_key, 5, 4).empty());
}

// Ranges are computed by the graph layer at every way a segment becomes
// sealed — no update pass, no staleness window.
TEST(SegmentStoreTest, ScanRangesCurrentAfterSealCarveAndAdopt) {
  const auto lamport_options = [](GraphStore& store) {
    SegmentOptions options = small_segments();
    options.lamport_key = store.intern_prop_key("lamportLogicalTime");
    return options;
  };
  // Seal: size boundary and epoch boundary (seal_active).
  {
    GraphStore store;
    const SegmentOptions options = lamport_options(store);
    SegmentManager& segments = store.enable_segments(options);
    fill(store, 12);
    segments.seal_active();  // [8, 12) sealed by epoch boundary
    std::size_t skipped = 0;
    const auto scanned =
        visited(segments.scan_ranges(options.lamport_key, 9, 9, &skipped));
    EXPECT_EQ(skipped, 1u);  // [0, 8) skipped; [8, 12) kept
    EXPECT_EQ(scanned, (std::vector<NodeId>{8, 9, 10, 11}));
    EXPECT_TRUE(
        visited(segments.scan_ranges(options.lamport_key, 100, 200)).empty());
  }
  // Carve: enable_segments on a populated store.
  {
    GraphStore store;
    fill(store, 20);
    const SegmentOptions options = lamport_options(store);
    SegmentManager& segments = store.enable_segments(options);
    ASSERT_EQ(segments.sealed_count(), 2u);
    std::size_t skipped = 0;
    const auto scanned =
        visited(segments.scan_ranges(options.lamport_key, 3, 3, &skipped));
    EXPECT_EQ(skipped, 1u);  // [8, 16) skipped; [0, 8) and the tail kept
    EXPECT_TRUE(contains(scanned, 3));
    EXPECT_FALSE(contains(scanned, 10));
  }
  // Adopt: checkpoint boundaries imposed on a restored store.
  {
    GraphStore store;
    fill(store, 20);
    SegmentOptions options = lamport_options(store);
    options.carve_existing = false;
    SegmentManager& segments = store.enable_segments(options);
    segments.adopt_sealed({{0, 8}, {8, 5}});
    std::size_t skipped = 0;
    const auto scanned =
        visited(segments.scan_ranges(options.lamport_key, 10, 10, &skipped));
    EXPECT_EQ(skipped, 1u);  // [0, 8) skipped; [8, 13) and [13, 20) kept
    EXPECT_EQ(scanned.front(), 8u);
    EXPECT_TRUE(contains(scanned, 10));
    EXPECT_FALSE(contains(scanned, 2));
  }
}

// A write into a sealed segment widens its range under the write's own
// lock, so a skip scan for the new value still reaches the node.
TEST(SegmentStoreTest, WriteIntoSealedSegmentWidensItsRange) {
  GraphStore store;
  SegmentOptions options = small_segments();
  options.lamport_key = store.intern_prop_key("lamportLogicalTime");
  options.timestamp_key = store.intern_prop_key("timestamp");
  SegmentManager& segments = store.enable_segments(options);
  fill(store, 16);
  ASSERT_EQ(segments.sealed_count(), 2u);

  // No node carries a timestamp yet: both sealed segments skip any window.
  std::size_t skipped = 0;
  (void)segments.scan_ranges(options.timestamp_key, 0, 1'000, &skipped);
  EXPECT_EQ(skipped, 2u);

  store.set_property(3, options.lamport_key, std::int64_t{100});
  store.set_property(NodeId{12}, "timestamp", std::int64_t{500});
  const auto lamport_hit =
      visited(segments.scan_ranges(options.lamport_key, 100, 100));
  EXPECT_TRUE(contains(lamport_hit, 3));
  EXPECT_FALSE(contains(lamport_hit, 12));  // segment 1 still excludes 100
  const auto ts_hit =
      visited(segments.scan_ranges(options.timestamp_key, 500, 500));
  EXPECT_TRUE(contains(ts_hit, 12));
  EXPECT_FALSE(contains(ts_hit, 3));

  // Ranges only widen: the old value 3 stays covered (a superset is all a
  // skip scan needs), and the range [0, 100] now also admits 50.
  EXPECT_TRUE(contains(
      visited(segments.scan_ranges(options.lamport_key, 50, 50)), 3));
  // Non-integer values never narrow or poison a range.
  store.set_property(4, options.lamport_key, std::string("n/a"));
  EXPECT_TRUE(contains(
      visited(segments.scan_ranges(options.lamport_key, 100, 100)), 3));
}

TEST(SegmentStoreTest, WritesToEvictedNodesFaultIn) {
  ScopedTempDir dir("write_fault");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);

  store.set_property(3, "note", std::string("late"));
  EXPECT_TRUE(segments.is_resident(0));
  EXPECT_TRUE(property_equals(store.property(3, "note"),
                              std::string("late")));

  ASSERT_GT(segments.evict(0), 0u);
  store.add_edge(17, 3, "XHB");  // edge into an evicted segment
  EXPECT_TRUE(segments.is_resident(0));
  const auto in = store.in_edges(3);
  EXPECT_TRUE(std::any_of(in.begin(), in.end(), [&](const Edge& e) {
    return store.edge_type_name(e.type) == "XHB";
  }));
}

TEST(SegmentStoreTest, IndexBuildsAndLookupsSurviveEviction) {
  ScopedTempDir dir("index");
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);

  // find_nodes without an index: full scan over evicted segments works.
  segments.evict_all();
  const auto alphas = store.find_nodes("host", std::string("alpha"));
  EXPECT_EQ(alphas.size(), 10u);

  // create_index reloads everything it needs and back-fills.
  segments.evict_all();
  store.create_index("host");
  const auto indexed = store.find_nodes("host", std::string("alpha"));
  EXPECT_EQ(indexed, alphas);

  // Index lookups after a fresh eviction stay correct (index is resident).
  segments.evict_all();
  EXPECT_EQ(store.find_nodes("host", std::string("alpha")), alphas);
}

}  // namespace
}  // namespace horus::graph
