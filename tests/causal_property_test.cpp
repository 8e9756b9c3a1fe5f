// Property-based checks for Q1 (isCausallyRelated) against first principles.
//
// On seeded random executions, for random event pairs (a, b):
//
//  - isCausallyRelated(a, b) agrees with brute-force BFS/DFS reachability
//    over the happens-before edges (the definition of causality in the
//    execution graph);
//  - the Lamport necessary condition holds: whenever a -> b, then
//    lamport(a) < lamport(b) (the converse is deliberately NOT required —
//    Lamport clocks over-approximate);
//  - the two Q1 implementations (timeline comparison and full vector-clock
//    comparison) agree with each other;
//  - basic order axioms: irreflexivity and asymmetry of happens-before.
//
// Each parameter case probes hundreds of random pairs; the suite as a whole
// crosses well past a thousand randomized cases, which is what gives the
// differential oracle its statistical teeth.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <type_traits>
#include <vector>

#include "core/causal_query.h"
#include "core/horus.h"
#include "gen/synthetic.h"
#include "graph/traversal.h"

namespace horus {
namespace {

std::unique_ptr<Horus> build(std::vector<Event> events) {
  auto horus = std::make_unique<Horus>();
  for (Event& e : events) horus->ingest(std::move(e));
  horus->seal();
  return horus;
}

// gtest names each instance after the raw bytes of its parameter; every
// field is 8 bytes wide so there is no uninitialised padding in the name.
struct PropertyCase {
  std::int64_t processes;
  std::size_t events_per_process;
  std::uint64_t seed;
  std::int64_t pairs;  ///< random (a, b) pairs probed
};
static_assert(std::has_unique_object_representations_v<PropertyCase>);

class CausalPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    const auto& param = GetParam();
    gen::RandomExecutionOptions options;
    options.num_processes = param.processes;
    options.events_per_process = param.events_per_process;
    options.seed = param.seed;
    horus_ = build(gen::random_execution(options));
  }

  std::unique_ptr<Horus> horus_;
};

TEST_P(CausalPropertyTest, Q1AgreesWithBruteForceReachability) {
  const auto& param = GetParam();
  const auto q = horus_->query();
  const auto& store = horus_->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  std::mt19937_64 rng(param.seed * 48611 + 1);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < param.pairs; ++i) {
    const graph::NodeId a = pick(rng);
    const graph::NodeId b = pick(rng);
    if (a == b) continue;
    const bool oracle = graph::reachable(store, a, b).reachable;
    ASSERT_EQ(q.is_causally_related(a, b), oracle)
        << "seed=" << param.seed << " " << a << "->" << b;
    ASSERT_EQ(q.happens_before_vc(a, b), oracle)
        << "seed=" << param.seed << " " << a << "->" << b;
  }
}

TEST_P(CausalPropertyTest, LamportIsANecessaryCondition) {
  const auto& param = GetParam();
  const auto q = horus_->query();
  const auto& clocks = horus_->clocks();
  const auto n =
      static_cast<graph::NodeId>(horus_->graph().store().node_count());
  std::mt19937_64 rng(param.seed * 24593 + 2);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  int related = 0;
  for (int i = 0; i < param.pairs; ++i) {
    const graph::NodeId a = pick(rng);
    const graph::NodeId b = pick(rng);
    if (!q.is_causally_related(a, b)) continue;
    ++related;
    // lamport(a) < lamport(b) whenever a -> b; the Section-V range scan
    // (LC(a) <= LC(v) <= LC(b)) is only sound because of this.
    ASSERT_LT(clocks.lamport(a), clocks.lamport(b))
        << "seed=" << param.seed << " " << a << "->" << b;
  }
  EXPECT_GT(related, 0) << "no related pairs sampled; weak test";
}

TEST_P(CausalPropertyTest, HappensBeforeIsAStrictPartialOrder) {
  const auto& param = GetParam();
  const auto q = horus_->query();
  const auto n =
      static_cast<graph::NodeId>(horus_->graph().store().node_count());
  std::mt19937_64 rng(param.seed * 786433 + 3);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < param.pairs; ++i) {
    const graph::NodeId a = pick(rng);
    const graph::NodeId b = pick(rng);
    ASSERT_FALSE(q.is_causally_related(a, a)) << a;  // irreflexive
    if (a != b && q.is_causally_related(a, b)) {
      ASSERT_FALSE(q.is_causally_related(b, a))  // asymmetric
          << "seed=" << param.seed << " " << a << "<->" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomExecutions, CausalPropertyTest,
    ::testing::Values(PropertyCase{2, 60, 201, 150},
                      PropertyCase{3, 50, 202, 150},
                      PropertyCase{5, 40, 203, 150},
                      PropertyCase{8, 25, 204, 150},
                      PropertyCase{10, 60, 205, 100},
                      PropertyCase{4, 200, 206, 100}));

TEST(CausalPropertyTest, ClientServerIsTotallyOrderedPerProcessPrefix) {
  // On the two-process ladder every same-process pair is related in id
  // order of its process chain; cross-check a sample against reachability.
  auto horus = build(gen::client_server_events({.num_events = 400}));
  const auto q = horus->query();
  const auto& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  std::mt19937_64 rng(207);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < 200; ++i) {
    const graph::NodeId a = pick(rng);
    const graph::NodeId b = pick(rng);
    if (a == b) continue;
    ASSERT_EQ(q.is_causally_related(a, b),
              graph::reachable(store, a, b).reachable)
        << a << "->" << b;
  }
}

}  // namespace
}  // namespace horus
