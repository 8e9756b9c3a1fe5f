// Crash/recovery tests for the fault-tolerant pipeline: the fault-injection
// harness itself, the durable inter-encoder pairing (WAL spill), graph
// equivalence between fault-free and fault-injected runs, the drain
// timeout, and the broker robustness satellites.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/diag.h"
#include "core/horus.h"
#include "core/logical_clocks.h"
#include "core/pipeline.h"
#include "gen/synthetic.h"
#include "queue/fault.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  queue::FaultPlan plan;
  plan.seed = 99;
  plan.produce_failure_p = 0.3;
  plan.duplicate_p = 0.3;
  plan.stall_p = 0.3;
  queue::FaultInjector a(plan);
  queue::FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.should_fail_produce(), b.should_fail_produce());
    EXPECT_EQ(a.should_duplicate(), b.should_duplicate());
    EXPECT_EQ(a.consume_stall("t/0"), b.consume_stall("t/0"));
  }
  EXPECT_EQ(a.counters().produce_failures, b.counters().produce_failures);
  EXPECT_EQ(a.counters().duplicates, b.counters().duplicates);
  EXPECT_EQ(a.counters().stalls, b.counters().stalls);
  EXPECT_GT(a.counters().produce_failures, 0u);
}

TEST(FaultInjectorTest, CrashEveryScheduleIsCumulativeAndBounded) {
  queue::FaultPlan plan;
  plan.crash_every = 10;
  plan.max_crashes_per_group = 2;
  queue::FaultInjector injector(plan);

  injector.on_consumed("g", 5);
  EXPECT_THROW(injector.on_consumed("g", 5), queue::InjectedCrash);  // 10
  injector.on_consumed("g", 9);
  EXPECT_THROW(injector.on_consumed("g", 1), queue::InjectedCrash);  // 20
  // Budget exhausted: the group never crashes again.
  injector.on_consumed("g", 100);
  injector.on_consumed("g", 100);
  EXPECT_EQ(injector.counters().crashes, 2u);
  // Other groups have their own schedule.
  EXPECT_THROW(injector.on_consumed("h", 10), queue::InjectedCrash);
}

TEST(FaultInjectorTest, ExplicitCrashSchedule) {
  queue::FaultPlan plan;
  plan.crash_after["g"] = {3, 7};
  queue::FaultInjector injector(plan);

  injector.on_consumed("g", 2);
  EXPECT_THROW(injector.on_consumed("g", 1), queue::InjectedCrash);  // 3
  injector.on_consumed("g", 3);
  EXPECT_THROW(injector.on_consumed("g", 1), queue::InjectedCrash);  // 7
  injector.on_consumed("g", 50);  // schedule exhausted
  EXPECT_EQ(injector.counters().crashes, 2u);
}

TEST(FaultInjectorTest, StallsAreBounded) {
  queue::FaultPlan plan;
  plan.stall_p = 1.0;
  plan.stall_fetches_max = 3;
  queue::FaultInjector injector(plan);
  // With p=1 every fetch is part of some stall; episodes span at most
  // stall_fetches_max attempts, so the episode count is at least calls/max.
  int stalled = 0;
  for (int i = 0; i < 30; ++i) {
    if (injector.consume_stall("t/0")) ++stalled;
  }
  EXPECT_EQ(stalled, 30);
  EXPECT_GE(injector.counters().stalls, 10u);
}

// ---------------------------------------------------------------------------
// Durable inter-encoder pairing (the closed lost-edge window)
// ---------------------------------------------------------------------------

Event net_event(std::uint64_t id, EventType type, const ThreadRef& thread,
                TimeNs ts) {
  Event e;
  e.id = EventId{id};
  e.type = type;
  e.thread = thread;
  e.service = thread.host;
  e.timestamp = ts;
  e.payload = NetPayload{
      ChannelId{SocketAddr{"10.0.0.1", 1000}, SocketAddr{"10.0.0.2", 2000}},
      /*offset=*/0, /*size=*/100};
  return e;
}

PipelineOptions small_pipeline_options() {
  PipelineOptions options;
  options.partitions = 1;
  options.intra_workers = 1;
  options.inter_workers = 1;
  options.event_flush_interval_ms = 5;
  options.relationship_flush_interval_ms = 5;
  return options;
}

// The scenario from the old pipeline.h caveat: the SND half of a causal
// pair is consumed and committed by one pipeline incarnation; the RCV
// arrives only in the next incarnation. With a WAL directory the pending
// SND survives and the HB edge is produced.
TEST(DurablePairingTest, PendingPairSurvivesInterWorkerRestart) {
  const ScopedTempDir scratch("wal");
  const std::string wal_dir = scratch.file("wal");

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options = small_pipeline_options();
  options.wal_dir = wal_dir;

  const ThreadRef sender{"a", 1, 1};
  const ThreadRef receiver{"b", 2, 2};
  {
    Pipeline first(broker, graph, options);
    first.start();
    first.publish(net_event(1, EventType::kSnd, sender, 10));
    EXPECT_TRUE(first.drain());
    first.stop();
  }
  ASSERT_TRUE(fs::exists(fs::path(wal_dir) / "inter-0.wal"));
  EXPECT_EQ(graph.event_count(), 1u);
  EXPECT_EQ(graph.store().edge_count(), 0u);

  {
    Pipeline second(broker, graph, options);
    second.start();
    second.publish(net_event(2, EventType::kRcv, receiver, 20));
    EXPECT_TRUE(second.drain());
    second.stop();
  }

  EXPECT_EQ(graph.event_count(), 2u);
  ASSERT_EQ(graph.store().edge_count(), 1u);
  const auto snd = graph.node_of(EventId{1});
  const auto rcv = graph.node_of(EventId{2});
  ASSERT_TRUE(snd && rcv);
  ASSERT_EQ(graph.store().out_edges(*snd).size(), 1u);
  const graph::Edge edge = graph.store().out_edges(*snd)[0];
  EXPECT_EQ(edge.to, *rcv);
  EXPECT_EQ(graph.store().edge_type_name(edge.type), "HB");
}

// Negative control: without a WAL directory the restart loses the pending
// half — the exact window the spill exists to close.
TEST(DurablePairingTest, WithoutWalTheRestartLosesThePair) {
  queue::Broker broker;
  ExecutionGraph graph;
  const PipelineOptions options = small_pipeline_options();

  {
    Pipeline first(broker, graph, options);
    first.start();
    first.publish(net_event(1, EventType::kSnd, ThreadRef{"a", 1, 1}, 10));
    EXPECT_TRUE(first.drain());
    first.stop();
  }
  {
    Pipeline second(broker, graph, options);
    second.start();
    second.publish(net_event(2, EventType::kRcv, ThreadRef{"b", 2, 2}, 20));
    EXPECT_TRUE(second.drain());
    second.stop();
  }
  EXPECT_EQ(graph.event_count(), 2u);
  EXPECT_EQ(graph.store().edge_count(), 0u);
}

// ---------------------------------------------------------------------------
// Whole-graph equivalence under injected faults
// ---------------------------------------------------------------------------

struct EdgeTriple {
  std::uint64_t from;
  std::uint64_t to;
  std::string type;

  [[nodiscard]] auto operator<=>(const EdgeTriple&) const = default;
};

std::vector<EdgeTriple> edge_triples(const ExecutionGraph& graph) {
  std::vector<EdgeTriple> triples;
  const auto& store = graph.store();
  for (graph::NodeId v = 0; v < store.node_count(); ++v) {
    for (const graph::Edge& e : store.out_edges(v)) {
      triples.push_back(EdgeTriple{value_of(graph.event_of(v)),
                                   value_of(graph.event_of(e.to)),
                                   store.edge_type_name(e.type)});
    }
  }
  std::sort(triples.begin(), triples.end());
  return triples;
}

/// Asserts the two graphs are isomorphic under the event-id mapping: same
/// events, same typed edges, same Lamport clocks, same happens-before
/// answers on a sample grid.
void expect_equivalent(ExecutionGraph& actual, ExecutionGraph& expected,
                       const std::vector<Event>& events) {
  ASSERT_EQ(actual.event_count(), expected.event_count());
  EXPECT_EQ(edge_triples(actual), edge_triples(expected));

  LogicalClockAssigner actual_clocks(
      actual, LogicalClockAssigner::Options{.write_lamport_property = false});
  LogicalClockAssigner expected_clocks(
      expected,
      LogicalClockAssigner::Options{.write_lamport_property = false});
  actual_clocks.assign();
  expected_clocks.assign();

  for (const Event& event : events) {
    const auto a = actual.node_of(event.id);
    const auto e = expected.node_of(event.id);
    ASSERT_TRUE(a.has_value() && e.has_value())
        << "event " << value_of(event.id);
    EXPECT_EQ(actual_clocks.clocks().lamport(*a),
              expected_clocks.clocks().lamport(*e))
        << "lamport mismatch for event " << value_of(event.id);
  }
  const std::size_t step = std::max<std::size_t>(1, events.size() / 40);
  for (std::size_t x = 0; x < events.size(); x += step) {
    for (std::size_t y = 0; y < events.size(); y += step) {
      const auto ax = *actual.node_of(events[x].id);
      const auto ay = *actual.node_of(events[y].id);
      const auto ex = *expected.node_of(events[x].id);
      const auto ey = *expected.node_of(events[y].id);
      EXPECT_EQ(actual_clocks.clocks().happens_before(ax, ay),
                expected_clocks.clocks().happens_before(ex, ey))
          << "happens-before mismatch for (" << value_of(events[x].id)
          << ", " << value_of(events[y].id) << ")";
    }
  }
}

void run_equivalence_case(const std::vector<Event>& events,
                          const std::string& wal_tag) {
  // Reference: the synchronous embedded pipeline, no faults.
  Horus embedded;
  for (const Event& e : events) embedded.ingest(e);
  embedded.seal();

  // Distributed pipeline under crashes, duplicates, redeliveries, stalls
  // and transient failures, with the durable pairing spill enabled.
  const ScopedTempDir scratch("wal-" + wal_tag);
  const std::string wal_dir = scratch.file("wal");

  queue::Broker broker;
  queue::FaultPlan plan;
  plan.seed = 4242;
  plan.crash_every = 150;
  plan.max_crashes_per_group = 2;
  plan.produce_failure_p = 0.002;
  plan.poll_failure_p = 0.02;
  plan.duplicate_p = 0.02;
  plan.redeliver_p = 0.02;
  plan.stall_p = 0.05;
  auto injector = std::make_shared<queue::FaultInjector>(plan);
  broker.set_fault_injector(injector);

  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.intra_workers = 2;
  options.inter_workers = 2;
  options.event_flush_interval_ms = 10;
  options.relationship_flush_interval_ms = 15;
  options.wal_dir = wal_dir;
  Pipeline pipeline(broker, graph, options);
  pipeline.start();
  for (const Event& e : events) pipeline.publish(e);
  ASSERT_TRUE(pipeline.drain());
  pipeline.stop();

  // The faults actually happened...
  EXPECT_GT(pipeline.recoveries(), 0u);
  EXPECT_GT(pipeline.events_retried(), 0u);
  EXPECT_GT(injector->counters().crashes, 0u);
  EXPECT_EQ(pipeline.events_dead_lettered(), 0u);
  // ...and the graph is indistinguishable from the fault-free one.
  expect_equivalent(graph, embedded.graph(), events);
}

TEST(CrashRecoveryEquivalenceTest, ClientServerWorkload) {
  gen::ClientServerOptions options;
  options.num_events = 2000;
  run_equivalence_case(gen::client_server_events(options), "cs");
}

TEST(CrashRecoveryEquivalenceTest, RandomExecutionWorkload) {
  gen::RandomExecutionOptions options;
  options.num_processes = 6;
  options.events_per_process = 200;
  options.seed = 11;
  run_equivalence_case(gen::random_execution(options), "rand");
}

// WAL recovery composed with duplicated redelivery: the first incarnation
// crashes mid-spill under producer duplicates, then a second incarnation
// over the same broker, graph and WAL takes the rest of the stream while
// the first half's events are explicitly republished (a producer replaying
// already-committed offsets after the handover). The graph must still be
// byte-equivalent to the fault-free reference — dedup and the durable
// pairing make the whole composition idempotent.
TEST(DurablePairingTest, CrashRestartWithRedeliveredOffsetsIsIdempotent) {
  gen::ClientServerOptions gen_options;
  gen_options.num_events = 800;
  const std::vector<Event> events = gen::client_server_events(gen_options);

  Horus embedded;
  for (const Event& e : events) embedded.ingest(e);
  embedded.seal();

  const ScopedTempDir scratch("wal");
  const std::string wal_dir = scratch.file("wal");

  queue::Broker broker;
  queue::FaultPlan plan;
  plan.seed = 77;
  plan.crash_every = 120;  // crash mid-spill during the first incarnation
  plan.max_crashes_per_group = 2;
  plan.duplicate_p = 0.03;
  plan.redeliver_p = 0.03;
  auto injector = std::make_shared<queue::FaultInjector>(plan);
  broker.set_fault_injector(injector);

  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.intra_workers = 2;
  options.inter_workers = 2;
  options.event_flush_interval_ms = 10;
  options.relationship_flush_interval_ms = 15;
  options.wal_dir = wal_dir;

  const std::size_t split = events.size() / 2;
  std::uint64_t deduplicated = 0;
  {
    Pipeline first(broker, graph, options);
    first.start();
    for (std::size_t i = 0; i < split; ++i) first.publish(events[i]);
    ASSERT_TRUE(first.drain());
    first.stop();
    EXPECT_GT(first.recoveries(), 0u);  // the crash really hit mid-stream
    deduplicated += first.events_deduplicated();
  }
  {
    Pipeline second(broker, graph, options);
    second.start();
    // Replay a chunk of already-committed offsets, then the real tail.
    for (std::size_t i = split / 2; i < split; ++i) {
      second.publish(events[i]);
    }
    for (std::size_t i = split; i < events.size(); ++i) {
      second.publish(events[i]);
    }
    ASSERT_TRUE(second.drain());
    second.stop();
    deduplicated += second.events_deduplicated();
    EXPECT_EQ(second.events_dead_lettered(), 0u);
  }
  // The replayed quarter of the stream must have been dropped as dupes...
  EXPECT_GE(deduplicated, split / 2);
  // ...leaving the graph identical to the fault-free one.
  expect_equivalent(graph, embedded.graph(), events);
}

// ---------------------------------------------------------------------------
// Drain timeout + broker satellites
// ---------------------------------------------------------------------------

TEST(DrainTimeoutTest, ReportsStuckStagesAndReturnsFalse) {
  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options = small_pipeline_options();
  options.drain_timeout_ms = 50;
  Pipeline pipeline(broker, graph, options);
  // Publish but never start the workers: nothing can ever be committed.
  pipeline.publish(net_event(1, EventType::kSnd, ThreadRef{"a", 1, 1}, 10));

  reset_diag_counts();
  EXPECT_FALSE(pipeline.drain());
  EXPECT_EQ(diag_count(DiagLevel::kError), 1u);
}

TEST(BrokerRobustnessTest, CommitToUnknownTopicWarnsButRecords) {
  queue::Broker broker;
  reset_diag_counts();
  broker.commit_offset("group", "no-such-topic", 0, 7);
  EXPECT_EQ(diag_count(DiagLevel::kWarn), 1u);
  EXPECT_EQ(broker.committed_offset("group", "no-such-topic", 0), 7u);
  // A known topic commits without the warning.
  broker.create_topic("known", 1);
  broker.commit_offset("group", "known", 0, 1);
  EXPECT_EQ(diag_count(DiagLevel::kWarn), 1u);
}

TEST(BrokerRobustnessTest, LoadReusesExistingTopicObjects) {
  const ScopedTempDir scratch("broker");
  const std::string dir = scratch.file("state");

  queue::Broker broker;
  queue::Topic& topic = broker.create_topic("t", 2);
  topic.produce("k", "v1");
  broker.persist(dir);
  topic.produce("k", "v2");

  broker.load(dir);
  // Same Topic object — references held across the reload stay valid — and
  // the contents are back to the snapshot.
  EXPECT_EQ(&broker.topic("t"), &topic);
  EXPECT_EQ(topic.total_messages(), 1u);

  // A partition-count mismatch is refused instead of silently replacing
  // the live topic.
  queue::Broker other;
  other.create_topic("t", 3);
  EXPECT_THROW(other.load(dir), std::invalid_argument);
}

}  // namespace
}  // namespace horus
