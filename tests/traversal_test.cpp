#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace horus::graph {
namespace {

/// Builds the Figure-3-like diamond: a -> b -> d, a -> c -> d, plus a tail
/// d -> e.
struct Diamond {
  GraphStore g;
  NodeId a, b, c, d, e;

  Diamond() {
    a = g.add_node("E", {});
    b = g.add_node("E", {});
    c = g.add_node("E", {});
    d = g.add_node("E", {});
    e = g.add_node("E", {});
    g.add_edge(a, b, "NEXT");
    g.add_edge(a, c, "NEXT");
    g.add_edge(b, d, "NEXT");
    g.add_edge(c, d, "NEXT");
    g.add_edge(d, e, "NEXT");
  }
};

TEST(TraversalTest, ShortestPathFindsAPath) {
  Diamond x;
  const auto r = shortest_path(x.g, x.a, x.d);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path.front(), x.a);
  EXPECT_EQ(r.path.back(), x.d);
  EXPECT_GT(r.visited, 0u);
}

TEST(TraversalTest, ShortestPathSelfIsTrivial) {
  Diamond x;
  const auto r = shortest_path(x.g, x.b, x.b);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.path, (std::vector<NodeId>{x.b}));
}

TEST(TraversalTest, ShortestPathRespectsDirection) {
  Diamond x;
  EXPECT_FALSE(shortest_path(x.g, x.d, x.a).found());
}

TEST(TraversalTest, AllPathsEnumeratesBoth) {
  Diamond x;
  const auto r = all_paths(x.g, x.a, x.d);
  EXPECT_EQ(r.paths.size(), 2u);
  EXPECT_FALSE(r.truncated);
  for (const auto& p : r.paths) {
    EXPECT_EQ(p.front(), x.a);
    EXPECT_EQ(p.back(), x.d);
    EXPECT_EQ(p.size(), 3u);
  }
}

TEST(TraversalTest, AllPathsNoPathIsEmpty) {
  Diamond x;
  EXPECT_TRUE(all_paths(x.g, x.e, x.a).paths.empty());
}

TEST(TraversalTest, AllPathsHonorsLimits) {
  // A ladder graph with exponentially many paths.
  GraphStore g;
  NodeId prev_top = g.add_node("E", {});
  NodeId start = prev_top;
  for (int i = 0; i < 10; ++i) {
    const NodeId mid1 = g.add_node("E", {});
    const NodeId mid2 = g.add_node("E", {});
    const NodeId join = g.add_node("E", {});
    g.add_edge(prev_top, mid1, "N");
    g.add_edge(prev_top, mid2, "N");
    g.add_edge(mid1, join, "N");
    g.add_edge(mid2, join, "N");
    prev_top = join;
  }
  const auto unbounded = all_paths(g, start, prev_top);
  EXPECT_EQ(unbounded.paths.size(), 1024u);  // 2^10

  AllPathsOptions limits;
  limits.max_paths = 5;
  const auto bounded = all_paths(g, start, prev_top, limits);
  EXPECT_EQ(bounded.paths.size(), 5u);
  EXPECT_TRUE(bounded.truncated);

  AllPathsOptions visit_limit;
  visit_limit.max_visited = 3;
  const auto visited_bounded = all_paths(g, start, prev_top, visit_limit);
  EXPECT_TRUE(visited_bounded.truncated);
}

TEST(TraversalTest, Reachability) {
  Diamond x;
  EXPECT_TRUE(reachable(x.g, x.a, x.e).reachable);
  EXPECT_FALSE(reachable(x.g, x.e, x.a).reachable);
  EXPECT_TRUE(reachable(x.g, x.c, x.c).reachable);
}

TEST(TraversalTest, BetweenSubgraphIsForwardBackwardIntersection) {
  Diamond x;
  using Edges = std::vector<std::pair<NodeId, NodeId>>;
  const auto r = between_subgraph(x.g, x.a, x.d);
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{x.a, x.b, x.c, x.d}));
  // Induced edges only: d -> e leaves the cut.
  EXPECT_EQ(r.edges, (Edges{{x.a, x.b}, {x.a, x.c}, {x.b, x.d}, {x.c, x.d}}));
  const auto r2 = between_subgraph(x.g, x.b, x.e);
  EXPECT_EQ(r2.nodes, (std::vector<NodeId>{x.b, x.d, x.e}));
  EXPECT_EQ(r2.edges, (Edges{{x.b, x.d}, {x.d, x.e}}));
  const auto self = between_subgraph(x.g, x.c, x.c);
  EXPECT_EQ(self.nodes, (std::vector<NodeId>{x.c}));
  EXPECT_TRUE(self.edges.empty());
}

TEST(TraversalTest, BetweenSubgraphDisconnected) {
  Diamond x;
  const auto r = between_subgraph(x.g, x.e, x.a);
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{}));
  EXPECT_TRUE(r.edges.empty());
}

}  // namespace
}  // namespace horus::graph
