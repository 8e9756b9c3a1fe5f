#include "graph/graph_store.h"

#include <gtest/gtest.h>

namespace horus::graph {
namespace {

TEST(PropertyTest, DisplayStrings) {
  EXPECT_EQ(to_display_string(PropertyValue{}), "null");
  EXPECT_EQ(to_display_string(PropertyValue{true}), "true");
  EXPECT_EQ(to_display_string(PropertyValue{std::int64_t{42}}), "42");
  EXPECT_EQ(to_display_string(PropertyValue{std::string("x")}), "x");
}

TEST(PropertyTest, NumericCoercion) {
  EXPECT_TRUE(property_equals(PropertyValue{std::int64_t{1}},
                              PropertyValue{1.0}));
  EXPECT_FALSE(property_equals(PropertyValue{std::int64_t{1}},
                               PropertyValue{std::string("1")}));
  EXPECT_EQ(property_compare(PropertyValue{std::int64_t{1}},
                             PropertyValue{2.5}),
            -1);
  EXPECT_EQ(property_compare(PropertyValue{std::string("b")},
                             PropertyValue{std::string("a")}),
            1);
  EXPECT_EQ(property_compare(PropertyValue{std::string("a")},
                             PropertyValue{std::int64_t{1}}),
            -2);
}

TEST(PropertyTest, HashConsistentWithEquals) {
  const PropertyValueHash h;
  EXPECT_EQ(h(PropertyValue{std::int64_t{3}}), h(PropertyValue{3.0}));
}

TEST(GraphStoreTest, AddNodesAndEdges) {
  GraphStore g;
  const NodeId a = g.add_node("LOG", {{"message", std::string("hello")}});
  const NodeId b = g.add_node("SND", {});
  g.add_edge(a, b, "NEXT");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.node_label(a), "LOG");
  ASSERT_EQ(g.out_edges(a).size(), 1u);
  EXPECT_EQ(g.out_edges(a)[0].to, b);
  ASSERT_EQ(g.in_edges(b).size(), 1u);
  EXPECT_EQ(g.in_edges(b)[0].to, a);
  EXPECT_EQ(g.edge_type_name(g.out_edges(a)[0].type), "NEXT");
}

TEST(GraphStoreTest, EdgeTypesAreInterned) {
  GraphStore g;
  const NodeId a = g.add_node("A", {});
  const NodeId b = g.add_node("B", {});
  g.add_edge(a, b, "NEXT");
  g.add_edge(b, a, "NEXT");
  g.add_edge(a, b, "HB");
  EXPECT_TRUE(g.edge_type_id("NEXT").has_value());
  EXPECT_TRUE(g.edge_type_id("HB").has_value());
  EXPECT_FALSE(g.edge_type_id("NOPE").has_value());
  EXPECT_EQ(g.out_edges(a)[0].type, *g.edge_type_id("NEXT"));
}

TEST(GraphStoreTest, RejectsBadNodeIds) {
  GraphStore g;
  const NodeId a = g.add_node("A", {});
  EXPECT_THROW(g.add_edge(a, 99, "X"), std::out_of_range);
  EXPECT_THROW(g.node_label(99), std::out_of_range);
  EXPECT_THROW((void)g.property(99, "k"), std::out_of_range);
}

TEST(GraphStoreTest, PropertyLookupAndDefault) {
  GraphStore g;
  const NodeId a = g.add_node("A", {{"k", std::int64_t{1}}});
  EXPECT_TRUE(property_equals(g.property(a, "k"), PropertyValue{std::int64_t{1}}));
  EXPECT_TRUE(is_null(g.property(a, "missing")));
}

TEST(GraphStoreTest, LabelIndex) {
  GraphStore g;
  const NodeId a = g.add_node("LOG", {});
  g.add_node("SND", {});
  const NodeId c = g.add_node("LOG", {});
  EXPECT_EQ(g.nodes_with_label("LOG"), (std::vector<NodeId>{a, c}));
  EXPECT_TRUE(g.nodes_with_label("NONE").empty());
}

TEST(GraphStoreTest, FindNodesWithoutIndexScans) {
  GraphStore g;
  const NodeId a = g.add_node("A", {{"k", std::string("v")}});
  g.add_node("A", {{"k", std::string("w")}});
  EXPECT_EQ(g.find_nodes("k", PropertyValue{std::string("v")}),
            (std::vector<NodeId>{a}));
}

TEST(GraphStoreTest, HashIndexBackfillsAndMaintains) {
  GraphStore g;
  const NodeId a = g.add_node("A", {{"k", std::string("v")}});
  g.create_index("k");
  const NodeId b = g.add_node("A", {{"k", std::string("v")}});
  EXPECT_EQ(g.find_nodes("k", PropertyValue{std::string("v")}),
            (std::vector<NodeId>{a, b}));
  g.set_property(a, "k", std::string("other"));
  EXPECT_EQ(g.find_nodes("k", PropertyValue{std::string("v")}),
            (std::vector<NodeId>{b}));
  EXPECT_EQ(g.find_nodes("k", PropertyValue{std::string("other")}),
            (std::vector<NodeId>{a}));
}

TEST(GraphStoreTest, OrderedIndexRangeScan) {
  GraphStore g;
  g.create_ordered_index("lc");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(g.add_node("E", {{"lc", std::int64_t{i}}}));
  }
  const auto hits = g.range_scan("lc", 3, 6);
  EXPECT_EQ(hits, (std::vector<NodeId>{nodes[3], nodes[4], nodes[5], nodes[6]}));
  EXPECT_TRUE(g.range_scan("lc", 100, 200).empty());
  EXPECT_THROW((void)g.range_scan("nope", 0, 1), std::logic_error);
  EXPECT_TRUE(g.has_ordered_index("lc"));
  EXPECT_FALSE(g.has_ordered_index("nope"));
}

TEST(GraphStoreTest, OrderedIndexTracksUpdates) {
  GraphStore g;
  g.create_ordered_index("lc");
  const NodeId a = g.add_node("E", {{"lc", std::int64_t{5}}});
  g.set_property(a, "lc", std::int64_t{9});
  EXPECT_TRUE(g.range_scan("lc", 5, 5).empty());
  EXPECT_EQ(g.range_scan("lc", 9, 9), (std::vector<NodeId>{a}));
}

TEST(GraphStoreTest, SetPropertyAddsNewKey) {
  GraphStore g;
  const NodeId a = g.add_node("A", {});
  g.create_ordered_index("lc");
  g.set_property(a, "lc", std::int64_t{7});
  EXPECT_EQ(g.range_scan("lc", 7, 7), (std::vector<NodeId>{a}));
}

}  // namespace
}  // namespace horus::graph
