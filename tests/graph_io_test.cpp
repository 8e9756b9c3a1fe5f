#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"

#include "core/horus.h"
#include "core/validator.h"
#include "gen/synthetic.h"
#include "graph/record_io.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

TEST(GraphIoTest, RoundTripsStore) {
  graph::GraphStore g;
  const auto a = g.add_node("LOG", {{"message", std::string("hello \"x\"")},
                                    {"count", std::int64_t{42}},
                                    {"ratio", 2.5},
                                    {"flag", true}});
  const auto b = g.add_node("SND", {});
  g.add_edge(a, b, "NEXT");
  g.add_edge(b, a, "HB");

  std::stringstream buffer;
  graph::save_graph(g, buffer);

  graph::GraphStore loaded;
  graph::load_graph(loaded, buffer);
  ASSERT_EQ(loaded.node_count(), 2u);
  ASSERT_EQ(loaded.edge_count(), 2u);
  EXPECT_EQ(loaded.node_label(a), "LOG");
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "message"),
                                     graph::PropertyValue{std::string(
                                         "hello \"x\"")}));
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "count"),
                                     graph::PropertyValue{std::int64_t{42}}));
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "ratio"),
                                     graph::PropertyValue{2.5}));
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "flag"),
                                     graph::PropertyValue{true}));
  ASSERT_EQ(loaded.out_edges(a).size(), 1u);
  EXPECT_EQ(loaded.edge_type_name(loaded.out_edges(a)[0].type), "NEXT");
}

TEST(GraphIoTest, LoadIntoNonEmptyStoreThrows) {
  graph::GraphStore g;
  g.add_node("A", {});
  std::stringstream buffer;
  graph::save_graph(g, buffer);
  graph::GraphStore target;
  target.add_node("B", {});
  EXPECT_THROW(graph::load_graph(target, buffer), std::logic_error);
}

TEST(GraphIoTest, RejectsForeignFormats) {
  graph::GraphStore g;
  std::istringstream not_ours("{\"format\":\"something-else\"}\n");
  EXPECT_THROW(graph::load_graph(g, not_ours), std::runtime_error);
  graph::GraphStore g2;
  std::istringstream empty("");
  EXPECT_THROW(graph::load_graph(g2, empty), std::runtime_error);
}

// One snapshot format is read: the binary record format of this version.
// The JSON-lines snapshots of earlier versions (v1-v3, or any other version
// number) fail typed, and the error names the format that is read. (An
// unknown binary version digit: SnapshotCorruptionTest.UnsupportedVersionFails.)
TEST(SnapshotCompatTest, RejectsUnknownVersion) {
  for (const int version : {1, 2, 3, 99}) {
    graph::GraphStore store;
    std::istringstream in("{\"edges\":0,\"format\":\"horus-graph\","
                          "\"nodes\":0,\"version\":" +
                          std::to_string(version) +
                          "}\n{\"keys\":[]}\n"
                          "{\"checksum\":0,\"edges\":0,\"nodes\":0}\n");
    try {
      graph::load_graph(store, in);
      ADD_FAILURE() << "a JSON-lines v" << version << " snapshot loaded";
    } catch (const HorusError& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot format"),
                std::string::npos)
          << e.what();
    }
  }
}

// Every value type comes back with its type and bits: 3.0 stays a double,
// int64 extremes survive the zig-zag varints, strings are binary-safe, and
// a property a node never had stays absent.
TEST(GraphIoTest, TypedValuesRoundTripExactly) {
  const std::string with_nul("a\0b\0", 4);
  const std::string utf8 = "caf\xC3\xA9 \xE2\x86\x92 \xF0\x9F\x93\x9C";
  graph::GraphStore g;
  const auto a = g.add_node(
      "LOG", {{"t", true},
              {"f", false},
              {"min", std::numeric_limits<std::int64_t>::min()},
              {"max", std::numeric_limits<std::int64_t>::max()},
              {"zero", std::int64_t{0}},
              {"three", 3.0},
              {"tiny", -0.0},
              {"empty", std::string()},
              {"nul", with_nul},
              {"utf8", utf8}});
  const auto b = g.add_node("SND \"quoted\"", {{"only_b", std::int64_t{-1}}});
  g.add_edge(a, b, "NEXT");
  g.add_edge(b, a, "\xE2\x86\x92");

  std::stringstream buffer;
  graph::save_graph(g, buffer);
  graph::GraphStore loaded;
  graph::load_graph(loaded, buffer);

  for (const graph::NodeId v : {a, b}) {
    EXPECT_EQ(loaded.node_label(v), g.node_label(v));
    const graph::PropertyList want = g.node_property_list(v);
    const graph::PropertyList got = loaded.node_property_list(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(loaded.prop_key_name(got[i].first),
                g.prop_key_name(want[i].first));
      // Same alternative and same value: no int/double coercion.
      EXPECT_EQ(got[i].second, want[i].second)
          << g.prop_key_name(want[i].first);
    }
  }
  EXPECT_TRUE(std::holds_alternative<double>(loaded.property(a, "three")));
  EXPECT_TRUE(std::signbit(std::get<double>(loaded.property(a, "tiny"))));
  EXPECT_EQ(std::get<std::string>(loaded.property(a, "nul")), with_nul);
  EXPECT_TRUE(graph::is_null(loaded.property(a, "only_b")));
  EXPECT_TRUE(graph::is_null(loaded.property(b, "utf8")));
  ASSERT_EQ(loaded.out_edges(b).size(), 1u);
  EXPECT_EQ(loaded.edge_type_name(loaded.out_edges(b)[0].type),
            "\xE2\x86\x92");
  EXPECT_EQ(loaded.in_edges(a).size(), 1u);
}

TEST(GraphIoTest, LoadMapsForeignKeyIndices) {
  // A loading store may already have keys interned in a different order
  // (ExecutionGraph pre-interns its schema), and indexes and columns
  // declared: the file's key indexes are positions in the file's table,
  // not store ids, and the load maintains what the store declared.
  graph::GraphStore source;
  for (std::int64_t i = 0; i < 6; ++i) {
    source.add_node("A", {{"zeta", i}, {"alpha", i * 10},
                          {"host", std::string(i % 2 == 0 ? "x" : "y")}});
  }
  source.add_edge(0, 1, "HB");
  std::stringstream buffer;
  graph::save_graph(source, buffer);

  graph::GraphStore target;
  // Pre-intern in an order that cannot match the file's table.
  target.intern_prop_key("alpha");
  target.intern_prop_key("unrelated");
  target.intern_edge_type("OTHER");
  target.declare_interned_column("host");
  target.create_index("zeta");
  target.create_ordered_index("alpha");
  graph::load_graph(target, buffer);
  EXPECT_TRUE(graph::property_equals(target.property(0, "zeta"),
                                     graph::PropertyValue{std::int64_t{0}}));
  EXPECT_TRUE(graph::property_equals(target.property(3, "alpha"),
                                     graph::PropertyValue{std::int64_t{30}}));
  EXPECT_EQ(target.find_nodes("zeta", std::int64_t{4}),
            std::vector<graph::NodeId>{4});
  EXPECT_EQ(target.range_scan("alpha", 15, 35),
            (std::vector<graph::NodeId>{2, 3}));
  EXPECT_EQ(target.interned_distinct(target.prop_key_id("host")), 2u);
  ASSERT_EQ(target.out_edges(0).size(), 1u);
  EXPECT_EQ(target.edge_type_name(target.out_edges(0)[0].type), "HB");
}

TEST(GraphIoTest, DeterministicOutput) {
  auto build = [] {
    graph::GraphStore g;
    const auto a = g.add_node("X", {{"k", std::string("v")}});
    const auto b = g.add_node("Y", {});
    g.add_edge(a, b, "E");
    std::stringstream buffer;
    graph::save_graph(g, buffer);
    return buffer.str();
  };
  EXPECT_EQ(build(), build());
}

/// A node's properties by key name, so stores with different key ids
/// compare.
std::vector<std::pair<std::string, graph::PropertyValue>> named_properties(
    const graph::GraphStore& store, graph::NodeId v) {
  std::vector<std::pair<std::string, graph::PropertyValue>> out;
  for (auto& [key, value] : store.node_property_list(v)) {
    out.emplace_back(store.prop_key_name(key), std::move(value));
  }
  return out;
}

std::vector<std::pair<graph::NodeId, std::string>> named_edges(
    const graph::GraphStore& store, std::span<const graph::Edge> edges) {
  std::vector<std::pair<graph::NodeId, std::string>> out;
  for (const graph::Edge& e : edges) {
    out.emplace_back(e.to, store.edge_type_name(e.type));
  }
  return out;
}

std::string saved(const graph::GraphStore& store) {
  std::ostringstream out;
  graph::save_graph(store, out);
  return out.str();
}

// The bulk install reproduces the store that wrote the file: labels, full
// property lists, out-lists in order, the edge count, index lookups, and
// the same bytes when saved again. In-lists are derived from the out-lists
// in node order — the writer's in-lists in source order.
TEST(BulkInstallTest, LoadedStoreEqualsTheWriter) {
  Horus original;
  gen::RandomExecutionOptions gen_options;
  gen_options.num_processes = 5;
  gen_options.events_per_process = 40;
  gen_options.seed = 23;
  for (Event& e : gen::random_execution(gen_options)) {
    original.ingest(std::move(e));
  }
  original.seal();
  const graph::GraphStore& writer = original.graph().store();
  const std::string bytes = saved(writer);

  ExecutionGraph loaded;
  {
    std::istringstream in(bytes);
    graph::load_graph(loaded.store(), in);
    loaded.reindex_loaded_store();
  }
  const graph::GraphStore& store = loaded.store();
  const auto n = static_cast<graph::NodeId>(writer.node_count());
  ASSERT_EQ(store.node_count(), n);
  EXPECT_EQ(store.edge_count(), writer.edge_count());
  EXPECT_EQ(loaded.event_count(), original.graph().event_count());
  std::vector<std::vector<std::pair<graph::NodeId, std::string>>> in_lists(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const auto& [to, type] : named_edges(writer, writer.out_edges(v))) {
      in_lists[to].emplace_back(v, type);
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(store.node_label(v), writer.node_label(v)) << "node " << v;
    ASSERT_EQ(named_properties(store, v), named_properties(writer, v))
        << "node " << v;
    ASSERT_EQ(named_edges(store, store.out_edges(v)),
              named_edges(writer, writer.out_edges(v)))
        << "node " << v;
    ASSERT_EQ(named_edges(store, store.in_edges(v)), in_lists[v])
        << "node " << v;
    const graph::PropertyValue& id =
        writer.property(v, original.graph().keys().event_id);
    EXPECT_EQ(store.find_nodes(loaded.keys().event_id, id),
              writer.find_nodes(original.graph().keys().event_id, id));
    EXPECT_EQ(loaded.node_of(original.graph().event_of(v)), v);
  }
  for (const std::string host : {"svc0", "svc1", "svc4", "nowhere"}) {
    EXPECT_EQ(store.find_nodes("host", host), writer.find_nodes("host", host))
        << host;
  }
  EXPECT_FALSE(store.find_nodes("host", std::string("svc1")).empty());

  // Clocks over the loaded graph: the same Lamport range scans (as sets:
  // an index lists a value's nodes in the order they were written).
  LogicalClockAssigner assigner(loaded);
  assigner.assign();
  const auto scan = [](const graph::GraphStore& s, std::int64_t lo,
                       std::int64_t hi) {
    std::vector<graph::NodeId> out = s.range_scan("lamportLogicalTime", lo, hi);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::int64_t lo = 1; lo < 60; lo += 7) {
    EXPECT_EQ(scan(store, lo, lo + 9), scan(writer, lo, lo + 9)) << lo;
  }
  EXPECT_EQ(saved(store), bytes);
}

// Save, load and save again gives the same bytes, over direct and interned
// columns, every bag value type, and nodes that lack some properties.
TEST(BulkInstallTest, SaveLoadSaveIsByteIdentical) {
  const auto declare = [](graph::GraphStore& s) {
    s.declare_column("clock");
    s.declare_interned_column("host");
    s.create_index("host");
    s.create_ordered_index("clock");
  };
  graph::GraphStore source;
  declare(source);
  for (std::int64_t i = 0; i < 50; ++i) {
    graph::PropertyMap props;
    if (i % 3 != 0) props["clock"] = i * 7 - 40;
    if (i % 4 != 1) props["host"] = std::string(i % 2 == 0 ? "a" : "b\n");
    if (i % 5 == 0) props["ratio"] = 0.5 * static_cast<double>(i);
    if (i % 2 == 0) props["ok"] = i % 4 == 0;
    if (i % 7 != 3) props["message"] = std::string("m\0", 2) + std::to_string(i);
    source.add_node(i % 3 == 0 ? "LOG" : "SND", std::move(props));
    const auto v = static_cast<graph::NodeId>(i);
    if (i > 0) source.add_edge(v - 1, v, "NEXT");
    if (i >= 5 && i % 3 == 0) source.add_edge(v, v - 5, "HB");
  }
  const std::string first = saved(source);
  graph::GraphStore loaded;
  declare(loaded);
  {
    std::istringstream in(first);
    graph::load_graph(loaded, in);
  }
  EXPECT_EQ(saved(loaded), first);
  EXPECT_EQ(loaded.find_nodes("host", std::string("a")),
            source.find_nodes("host", std::string("a")));
  EXPECT_EQ(loaded.range_scan("clock", -40, 100),
            source.range_scan("clock", -40, 100));
  EXPECT_EQ(loaded.nodes_with_label("LOG"), source.nodes_with_label("LOG"));
}

/// A one-node snapshot whose record lists `props` (keys index `keys`) as
/// written, repeats and disorder included.
std::string one_node_file(const std::vector<std::string>& keys,
                          const graph::PropertyList& props) {
  graph::GraphFileHeader header;
  header.count = 1;
  std::ostringstream out;
  graph::GraphFileWriter writer(out, header,
                                graph::GraphFileTables{keys, {"LOG"}, {}});
  writer.begin_node(0, props.size());
  for (const auto& [key, value] : props) writer.property(key, value);
  writer.end_node();
  writer.adjacency({});
  writer.finish();
  return out.str();
}

// A record that names a key twice keeps the last value, as writing the
// properties one by one would, in the bag and in a column alike.
TEST(BulkInstallTest, RepeatedKeyKeepsTheLastValue) {
  const std::string file = one_node_file(
      {"b", "a", "col"},
      {{0, std::int64_t{1}},
       {1, std::string("first")},
       {2, std::int64_t{10}},
       {0, std::int64_t{2}},
       {2, std::int64_t{20}},
       {1, std::string("last")}});
  graph::GraphStore store;
  store.declare_column("col");
  std::istringstream in(file);
  graph::load_graph(store, in);
  EXPECT_EQ(store.property(0, "b"), graph::PropertyValue{std::int64_t{2}});
  EXPECT_EQ(store.property(0, "a"), graph::PropertyValue{std::string("last")});
  EXPECT_EQ(store.property(0, "col"), graph::PropertyValue{std::int64_t{20}});
  // The bag stays sorted and free of repeats.
  const graph::PropertyList list = store.node_property_list(0);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
}

// A value the store refuses fails typed and names the byte offset.
TEST(BulkInstallTest, RefusedValueFailsTypedAtItsOffset) {
  const std::string file =
      one_node_file({"host"}, {{0, std::int64_t{5}}});
  graph::GraphStore store;
  store.declare_interned_column("host");
  std::istringstream in(file);
  try {
    graph::load_graph(store, in);
    ADD_FAILURE() << "a number under an interned column loaded";
  } catch (const HorusError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("byte "), std::string::npos) << what;
    EXPECT_NE(what.find("node rejected by the store"), std::string::npos)
        << what;
  }
}

// Crash replay re-derives edges: the idempotent write checks the source's
// out-list, per edge type.
TEST(BulkInstallTest, AddEdgeIfAbsentChecksTheOutList) {
  graph::GraphStore store;
  const auto a = store.add_node("X", {});
  const auto b = store.add_node("X", {});
  EXPECT_TRUE(store.add_edge_if_absent(a, b, "NEXT"));
  EXPECT_FALSE(store.add_edge_if_absent(a, b, "NEXT"));
  EXPECT_TRUE(store.add_edge_if_absent(a, b, "HB"));
  EXPECT_FALSE(store.add_edge_if_absent(a, b, "HB"));
  EXPECT_EQ(store.edge_count(), 2u);
  EXPECT_EQ(store.in_edges(b).size(), 2u);
}

TEST(ExecutionGraphIoTest, SnapshotPreservesCausalAnswers) {
  const ScopedTempDir dir("snapshot");
  const std::string path = dir.file("graph.hgraph");

  Horus original;
  gen::RandomExecutionOptions gen_options;
  gen_options.num_processes = 4;
  gen_options.events_per_process = 30;
  gen_options.seed = 17;
  for (Event& e : gen::random_execution(gen_options)) {
    original.ingest(std::move(e));
  }
  original.seal();
  original.graph().save(path);

  ExecutionGraph reloaded;
  reloaded.load(path);
  LogicalClockAssigner assigner(reloaded);
  assigner.assign();

  ASSERT_EQ(reloaded.store().node_count(),
            original.graph().store().node_count());
  ASSERT_EQ(reloaded.store().edge_count(),
            original.graph().store().edge_count());

  // Same happens-before relation, looked up by event id.
  const auto n = static_cast<graph::NodeId>(reloaded.store().node_count());
  for (graph::NodeId a = 0; a < n; a += 2) {
    for (graph::NodeId b = 0; b < n; b += 3) {
      const auto oa = *original.node_of(reloaded.event_of(a));
      const auto ob = *original.node_of(reloaded.event_of(b));
      ASSERT_EQ(assigner.clocks().happens_before(a, b),
                original.clocks().happens_before(oa, ob));
    }
  }

  // Invariants hold on the reloaded graph too.
  EXPECT_TRUE(validate_graph(reloaded, assigner.clocks()).ok());
}

}  // namespace
}  // namespace horus
