// Service-mode unit and integration tests (ctest label `service`):
// ClockTable checkpoint serialization (round trip + corruption), the
// overload state machine, the admission gate and ingest backpressure, and
// a graceful stop -> restart cycle that must restore the final checkpoint.
// The randomized kill-point convergence suite lives in
// service_recovery_test.cpp.
#include "service/service.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <atomic>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "core/horus.h"
#include "core/segment_clocks.h"
#include "gen/synthetic.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "scoped_temp_dir.h"
#include "service/checkpoint.h"
#include "service/overload.h"

namespace horus {
namespace {

namespace fs = std::filesystem;

std::vector<Event> workload(std::size_t n = 600) {
  gen::ClientServerOptions options;
  options.num_events = n;
  return gen::client_server_events(options);
}

/// A sealed embedded run: graph + clocks to serialize or compare against
/// (unique_ptr because Horus is neither copyable nor movable).
std::unique_ptr<Horus> reference_run(const std::vector<Event>& events) {
  auto horus = std::make_unique<Horus>();
  for (const Event& e : events) horus->ingest(e);
  horus->seal();
  return horus;
}

service::ServiceOptions fast_service_options(const std::string& data_dir) {
  service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.partitions = 2;
  options.pipeline.intra_workers = 1;
  options.pipeline.inter_workers = 1;
  options.pipeline.event_flush_interval_ms = 5;
  options.pipeline.relationship_flush_interval_ms = 5;
  options.clock_interval_ms = 10;
  // Checkpoints in these tests are explicit; the periodic loop would blur
  // which epoch a restart restores.
  options.checkpoint_interval_ms = 3'600'000;
  return options;
}

// ---------------------------------------------------------------------------
// ClockTable serialization
// ---------------------------------------------------------------------------

TEST(ClockTableSerializationTest, RoundTripPreservesEverything) {
  const auto events = workload();
  const auto run_ptr = reference_run(events);
  const Horus& run = *run_ptr;
  const ClockTable& original = run.clocks();

  std::stringstream buffer;
  original.save(buffer);
  const ClockTable loaded = ClockTable::load(buffer);

  ASSERT_EQ(loaded.timeline_count(), original.timeline_count());
  for (std::size_t t = 0; t < original.timeline_count(); ++t) {
    EXPECT_EQ(loaded.timeline_name(static_cast<std::int32_t>(t)),
              original.timeline_name(static_cast<std::int32_t>(t)));
  }
  const std::size_t nodes = run.graph().store().node_count();
  for (graph::NodeId v = 0; v < nodes; ++v) {
    EXPECT_EQ(loaded.lamport(v), original.lamport(v));
    EXPECT_EQ(loaded.timeline_of(v), original.timeline_of(v));
    EXPECT_EQ(loaded.position(v), original.position(v));
    const auto lv = loaded.vc_span(v);
    const auto ov = original.vc_span(v);
    ASSERT_EQ(lv.size(), ov.size());
    for (std::size_t i = 0; i < ov.size(); ++i) EXPECT_EQ(lv[i], ov[i]);
  }
  // And the relation the table exists for survives the round trip.
  const std::size_t step = std::max<std::size_t>(1, nodes / 25);
  for (graph::NodeId a = 0; a < nodes; a += step) {
    for (graph::NodeId b = 0; b < nodes; b += step) {
      EXPECT_EQ(loaded.happens_before(a, b), original.happens_before(a, b));
    }
  }
}

TEST(ClockTableSerializationTest, TruncationAtEveryByteFails) {
  const auto run = reference_run(workload(120));
  std::ostringstream buffer;
  run->clocks().save(buffer);
  const std::string record = std::move(buffer).str();
  ASSERT_GT(record.size(), 64u);
  for (std::size_t len = 0; len < record.size(); ++len) {
    std::istringstream in(record.substr(0, len));
    EXPECT_THROW(ClockTable::load(in), HorusError)
        << "truncated at byte " << len << " of " << record.size();
  }
}

TEST(ClockTableSerializationTest, BitFlipFailsTheChecksum) {
  const auto run = reference_run(workload(120));
  std::ostringstream buffer;
  run->clocks().save(buffer);
  const std::string record = std::move(buffer).str();
  // Flip one bit in the middle of the payload (past the magic and length
  // frame, before the CRC trailer).
  for (const std::size_t pos :
       {record.size() / 3, record.size() / 2, record.size() - 8}) {
    std::string corrupt = record;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::istringstream in(corrupt);
    EXPECT_THROW(ClockTable::load(in), HorusError)
        << "bit flip at byte " << pos;
  }
}

TEST(ClockTableSerializationTest, BadMagicAndTrailingBytesFail) {
  const auto run = reference_run(workload(120));
  std::ostringstream buffer;
  run->clocks().save(buffer);
  const std::string record = std::move(buffer).str();

  std::string bad_magic = record;
  bad_magic[0] = 'X';
  std::istringstream in_magic(bad_magic);
  EXPECT_THROW(ClockTable::load(in_magic), HorusError);

  std::istringstream in_trailing(record + "junk");
  EXPECT_THROW(ClockTable::load(in_trailing), HorusError);
}

// ---------------------------------------------------------------------------
// Overload state machine
// ---------------------------------------------------------------------------

TEST(OverloadControllerTest, EscalatesOneLevelPerHotEvaluation) {
  service::OverloadThresholds thresholds;
  thresholds.backlog_high = 100;
  thresholds.backlog_low = 10;
  service::OverloadController controller(thresholds);

  service::OverloadController::Signals hot;
  hot.ingest_backlog = 500;
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kPauseGenerators);
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kTightenQueries);
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kRejectSessions);
  // Saturates at the top level.
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kRejectSessions);
  EXPECT_EQ(controller.escalations(), 3u);
}

TEST(OverloadControllerTest, AnySingleHotSignalEscalates) {
  service::OverloadThresholds thresholds;
  thresholds.p99_high_seconds = 0.5;
  service::OverloadController controller(thresholds);
  service::OverloadController::Signals signals;  // backlog + arena calm
  signals.query_p99_seconds = 1.0;
  EXPECT_EQ(controller.evaluate(signals),
            service::OverloadLevel::kPauseGenerators);
}

TEST(OverloadControllerTest, RecoversAfterConsecutiveCalmEvaluations) {
  service::OverloadThresholds thresholds;
  thresholds.backlog_high = 100;
  thresholds.backlog_low = 10;
  thresholds.recover_after = 2;
  service::OverloadController controller(thresholds);

  service::OverloadController::Signals hot;
  hot.ingest_backlog = 500;
  controller.evaluate(hot);
  controller.evaluate(hot);
  ASSERT_EQ(controller.level(), service::OverloadLevel::kTightenQueries);

  service::OverloadController::Signals calm;  // all zeros: below every low
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kTightenQueries);  // streak 1 of 2
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // step down
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // new streak 1 of 2
  EXPECT_EQ(controller.evaluate(calm), service::OverloadLevel::kNormal);
  EXPECT_EQ(controller.evaluate(calm), service::OverloadLevel::kNormal);
}

TEST(OverloadControllerTest, HysteresisBandHoldsLevelAndResetsStreak) {
  service::OverloadThresholds thresholds;
  thresholds.backlog_high = 100;
  thresholds.backlog_low = 10;
  thresholds.recover_after = 2;
  service::OverloadController controller(thresholds);

  service::OverloadController::Signals hot;
  hot.ingest_backlog = 500;
  controller.evaluate(hot);
  ASSERT_EQ(controller.level(), service::OverloadLevel::kPauseGenerators);

  // In the band between low and high: neither escalate nor count as calm.
  service::OverloadController::Signals band;
  band.ingest_backlog = 50;
  service::OverloadController::Signals calm;
  EXPECT_EQ(controller.evaluate(band),
            service::OverloadLevel::kPauseGenerators);
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // streak 1 of 2
  EXPECT_EQ(controller.evaluate(band),
            service::OverloadLevel::kPauseGenerators);  // streak reset
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // streak 1 of 2 again
  EXPECT_EQ(controller.evaluate(calm), service::OverloadLevel::kNormal);
}

// ---------------------------------------------------------------------------
// Admission gate and ingest backpressure
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTest, GateBoundsConcurrentSessions) {
  const ScopedTempDir scratch("admission");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.max_concurrent_sessions = 2;
  service::HorusService daemon(broker, graph, options);
  daemon.start();

  std::optional<service::HorusService::Session> first(daemon.admit());
  std::optional<service::HorusService::Session> second(daemon.admit());
  EXPECT_EQ(daemon.active_sessions(), 2);
  EXPECT_THROW((void)daemon.admit(), service::OverloadError);

  first.reset();  // RAII release frees a slot
  EXPECT_EQ(daemon.active_sessions(), 1);
  std::optional<service::HorusService::Session> third(daemon.admit());
  EXPECT_EQ(daemon.active_sessions(), 2);
  third.reset();
  second.reset();
  EXPECT_EQ(daemon.active_sessions(), 0);
  daemon.stop();
}

TEST(ServiceAdmissionTest, QueriesAnswerThroughAdmittedSessions) {
  const ScopedTempDir scratch("queries");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph,
                               fast_service_options(data_dir));
  daemon.start();

  const auto events = workload();
  const auto ref_ptr = reference_run(events);
  const Horus& ref = *ref_ptr;
  for (const Event& e : events) daemon.publish(e);
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();  // force assignment instead of polling

  const service::HorusService::Session session = daemon.admit();
  const std::size_t step = std::max<std::size_t>(1, events.size() / 20);
  std::size_t hb_agreements = 0;
  for (std::size_t i = 0; i < events.size(); i += step) {
    for (std::size_t j = 0; j < events.size(); j += step) {
      const auto a = graph.node_of(events[i].id);
      const auto b = graph.node_of(events[j].id);
      const auto ra = ref.node_of(events[i].id);
      const auto rb = ref.node_of(events[j].id);
      ASSERT_TRUE(a && b && ra && rb);
      const bool expected = ref.clocks().happens_before(*ra, *rb);
      EXPECT_EQ(daemon.happens_before(session, *a, *b), expected);
      if (expected) ++hb_agreements;
    }
  }
  EXPECT_GT(hb_agreements, 0u);  // the grid actually exercised Q1

  // Q2 through the session returns the causally-between nodes.
  const auto from = graph.node_of(events.front().id);
  const auto to = graph.node_of(events.back().id);
  ASSERT_TRUE(from && to);
  const CausalGraphResult q2 = daemon.get_causal_graph(session, *from, *to);
  if (ref.clocks().happens_before(*ref.node_of(events.front().id),
                                  *ref.node_of(events.back().id))) {
    EXPECT_FALSE(q2.nodes.empty());
  }
  daemon.stop();
}

TEST(ServiceAdmissionTest, DegradedModeRejectsExpensivePlansUpFront) {
  const ScopedTempDir scratch("plan-admission");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  // Any completed query counts as "slow", and calm never accumulates, so
  // the supervisor escalates one level per evaluation while we keep the
  // latency window non-empty below.
  options.thresholds.p99_high_seconds = 1e-9;
  options.thresholds.recover_after = 1'000'000;
  options.degraded_max_plan_rows = 10;
  service::HorusService daemon(broker, graph, options);
  daemon.start();

  const auto events = workload();
  for (const Event& e : events) daemon.publish(e);
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();

  const service::HorusService::Session session = daemon.admit();
  const std::string expensive = "MATCH (n) RETURN count(*) AS c";
  const std::string cheap =
      "MATCH (n) WHERE n.eventId = 1 RETURN n.eventId";

  // Normal mode: the full scan answers.
  const query::QueryResult full = daemon.run_query(session, expensive);
  ASSERT_EQ(full.rows.size(), 1u);

  // Keep the p99 window hot until the controller reaches kTightenQueries.
  for (int i = 0; i < 500 && daemon.overload_level() <
                                 service::OverloadLevel::kTightenQueries;
       ++i) {
    (void)daemon.run_query(session, cheap);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(daemon.overload_level(),
            service::OverloadLevel::kTightenQueries);

  // Degraded: the expensive plan is rejected before execution with the
  // typed error, while a cheap indexed probe still answers.
  EXPECT_THROW((void)daemon.run_query(session, expensive),
               service::OverloadError);
  EXPECT_NO_THROW((void)daemon.run_query(session, cheap));
  daemon.stop();
}

TEST(ServiceBackpressureTest, StuckPipelineSurfacesTypedOverloadError) {
  const ScopedTempDir scratch("backpressure");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.max_ingest_backlog = 0;
  options.backpressure_timeout_ms = 50;
  // Deliberately never started: published events sit uncommitted, so the
  // backlog stays above the (zero) bound and the second publish must fail
  // with the typed error after the timeout instead of wedging forever.
  service::HorusService daemon(broker, graph, options);
  const auto events = workload(10);
  daemon.publish(events[0]);  // backlog was 0 at entry: admitted
  EXPECT_THROW(daemon.publish(events[1]), service::OverloadError);
}

TEST(ServiceBackpressureTest, BlockedPublishesResumeOnCommits) {
  // A running daemon with a tiny backlog bound: publishes block, each wait
  // ends at a pipeline commit, and none of them times out.
  const ScopedTempDir scratch("backpressure-running");
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(scratch.str());
  options.pipeline.event_flush_interval_ms = 1;
  options.max_ingest_backlog = 8;
  obs::Counter& waits = obs::Registry::global().counter(
      "horus_service_backpressure_waits_total", "");
  const std::uint64_t waits_before = waits.value();
  service::HorusService daemon(broker, graph, options);
  daemon.start();
  const auto events = workload(2000);
  std::size_t overloads = 0;
  for (const Event& e : events) {
    try {
      daemon.publish(e);
    } catch (const service::OverloadError&) {
      ++overloads;
    }
  }
  EXPECT_EQ(overloads, 0u);
  EXPECT_GT(waits.value(), waits_before);
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.stop();
  EXPECT_EQ(graph.event_count(), events.size());
}

// ---------------------------------------------------------------------------
// Freshness: commits, not timers, make events queryable
// ---------------------------------------------------------------------------

TEST(ServiceFreshnessTest, EventsAreClockedWithoutWaitingForIntervals) {
  // Clock and inter-stage intervals far longer than the test: only the
  // inter stage's commit-on-catch-up and the commit hook into the clock
  // daemon can make these events queryable in time.
  const ScopedTempDir scratch("freshness");
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(scratch.str());
  options.clock_interval_ms = 60'000;
  options.pipeline.relationship_flush_interval_ms = 60'000;
  service::HorusService daemon(broker, graph, options);
  daemon.start();

  const auto events = workload();
  const auto ref_ptr = reference_run(events);
  const Horus& ref = *ref_ptr;
  for (const Event& e : events) daemon.publish(e);

  const std::size_t step = std::max<std::size_t>(1, events.size() / 20);
  auto clocked = [&] {
    return daemon.clock_daemon().with_clocks([&](const ClockTable& clocks) {
      for (const Event& e : events) {
        const auto node = graph.node_of(e.id);
        if (!node || !clocks.assigned(*node)) return false;
      }
      return true;
    });
  };
  auto q1_agrees = [&] {
    for (std::size_t i = 0; i < events.size(); i += step) {
      for (std::size_t j = 0; j < events.size(); j += step) {
        const bool expected = ref.clocks().happens_before(
            *ref.node_of(events[i].id), *ref.node_of(events[j].id));
        if (daemon.clock_daemon().happens_before(
                *graph.node_of(events[i].id), *graph.node_of(events[j].id)) !=
            expected) {
          return false;
        }
      }
    }
    return true;
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(2);
  bool all_clocked = false;
  bool agrees = false;
  while (std::chrono::steady_clock::now() < deadline) {
    all_clocked = clocked();
    agrees = all_clocked && q1_agrees();
    if (agrees) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(all_clocked) << "events still without clocks after 2 s";
  EXPECT_TRUE(agrees) << "Q1 disagrees with the batch facade after 2 s";
  daemon.stop();
}

// Q2 against a live pipeline: the encoders append nodes and edges while
// the query's induced-edge step reads the cut's out-lists and labels. The
// engine copies them under the store lock (GraphStore::copy_nodes), so
// no reader walks an out-list a writer reallocates; the sanitize (TSan)
// and asan presets run this as the race check of horusd's read path.
TEST(ServiceLiveQueryTest, Q2WhileIngestWritesMatchesTheBatchAnswer) {
  const ScopedTempDir scratch("live-q2");
  queue::Broker broker;
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph,
                               fast_service_options(scratch.str()));
  daemon.start();
  const auto events = workload(6000);
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    for (const Event& e : events) daemon.publish(e);
    published.store(true);
  });

  const service::HorusService::Session session = daemon.admit();
  std::size_t queries = 0;
  std::size_t nonempty = 0;
  // Query until every event is stored, so the reads overlap the writes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((!published.load() || queries < 50 ||
          graph.store().node_count() < events.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = graph.store().node_count();
    if (n < 2) {
      std::this_thread::yield();
      continue;
    }
    // The newest clocked node, and alternately the whole graph before it
    // and its tail, whose out-lists the encoders are still growing.
    const graph::NodeId b = daemon.clock_daemon().with_clocks(
        [&](const ClockTable& clocks) {
          auto v = static_cast<graph::NodeId>(n - 1);
          while (v > 0 && !clocks.assigned(v)) --v;
          return v;
        });
    const graph::NodeId a =
        queries % 2 == 0 || b < 256 ? graph::NodeId{0} : b - 256;
    const CausalGraphResult live = daemon.get_causal_graph(session, a, b);
    ++queries;
    if (!live.nodes.empty()) ++nonempty;
    // Well-formed at any instant: every edge joins two result nodes.
    const std::unordered_set<graph::NodeId> members(live.nodes.begin(),
                                                    live.nodes.end());
    for (const auto& [from, to] : live.edges) {
      ASSERT_TRUE(members.contains(from) && members.contains(to));
    }
  }
  publisher.join();
  EXPECT_GT(nonempty, 0u);

  // Once drained and clocked, the answer is the batch facade's.
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();
  const auto ref_ptr = reference_run(events);
  const Horus& ref = *ref_ptr;
  const auto event_set = [](const std::vector<graph::NodeId>& nodes,
                            const ExecutionGraph& g) {
    std::set<EventId> out;
    for (const graph::NodeId v : nodes) out.insert(g.event_of(v));
    return out;
  };
  const EventId first = events.front().id;
  const EventId last = events.back().id;
  const CausalGraphResult live = daemon.clock_daemon().get_causal_graph(
      *graph.node_of(first), *graph.node_of(last));
  const CausalGraphResult batch =
      ref.query().get_causal_graph(*ref.node_of(first), *ref.node_of(last));
  EXPECT_EQ(event_set(live.nodes, graph), event_set(batch.nodes, ref.graph()));
  EXPECT_EQ(live.edges.size(), batch.edges.size());
  daemon.stop();
}

// MATCH against a live pipeline: the encoders append nodes (growing every
// column, bag and the label index) and the clock daemon writes Lamport
// values while queries read labels and properties. The query engine copies
// every per-node read under the store lock (GraphStore::copy_nodes), never
// through a pointer into the store; the sanitize (TSan) and asan presets
// run this as the race check of live MATCH.
TEST(ServiceLiveQueryTest, MatchWhileIngestWritesMatchesTheBatchAnswer) {
  const ScopedTempDir scratch("live-match");
  queue::Broker broker;
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph,
                               fast_service_options(scratch.str()));
  daemon.start();
  const auto events = workload(6000);
  const auto probe_text = [&](std::size_t k) {
    return "MATCH (n:EVENT {eventId: " +
           std::to_string(value_of(events[k].id)) + "}) RETURN n.host AS host";
  };
  const auto range_text = [](std::int64_t lo) {
    return "MATCH (n) WHERE n.lamportLogicalTime >= " + std::to_string(lo) +
           " AND n.lamportLogicalTime < " + std::to_string(lo + 4) +
           " RETURN n.eventId AS id";
  };
  const std::string count_text = "MATCH (n:LOG {host: '" +
                                 events.front().service +
                                 "'}) RETURN count(*) AS logs";
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    for (const Event& e : events) daemon.publish(e);
    published.store(true);
  });

  const service::HorusService::Session session = daemon.admit();
  std::size_t queries = 0;
  std::size_t rows = 0;
  // Query until every event is stored, so the reads overlap the writes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((!published.load() || queries < 150 ||
          graph.store().node_count() < events.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    const std::size_t k = (queries * 7919) % events.size();
    query::QueryResult r;
    try {
      switch (queries % 3) {
        case 0:
          r = daemon.run_query(session, probe_text(k));
          ASSERT_LE(r.rows.size(), 1u);
          if (!r.rows.empty() && !r.truncated) {
            ASSERT_EQ(r.rows[0][0].as_string(), events[k].service);
          }
          break;
        case 1:
          r = daemon.run_query(session, range_text(1 + (queries / 3) % 64));
          for (const auto& row : r.rows) ASSERT_TRUE(row[0].is_int());
          break;
        default:
          r = daemon.run_query(session, count_text);
          ASSERT_LE(r.rows.size(), 1u);
          break;
      }
    } catch (const service::OverloadError&) {
      // Shed by plan cost while the daemon is degraded; ask again.
    }
    rows += r.rows.size();
    ++queries;
  }
  publisher.join();
  EXPECT_GT(rows, 0u);

  // Once drained and clocked, each answer is the batch facade's.
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();
  const auto ref_ptr = reference_run(events);
  const query::QueryEngine live(graph);
  const query::QueryEngine batch(ref_ptr->graph());
  const auto sorted_rows = [](query::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end(),
              [](const auto& x, const auto& y) {
                return query::compare_values(x[0], y[0]) < 0;
              });
    return r.rows;
  };
  for (const std::size_t k : {std::size_t{0}, events.size() / 2,
                              events.size() - 1}) {
    EXPECT_EQ(live.run(probe_text(k)).rows, batch.run(probe_text(k)).rows);
  }
  for (const std::int64_t lo : {1, 17, 40}) {
    const auto want = sorted_rows(batch.run(range_text(lo)));
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(sorted_rows(live.run(range_text(lo))), want);
  }
  EXPECT_EQ(live.run(count_text).rows, batch.run(count_text).rows);
  daemon.stop();
}

// ---------------------------------------------------------------------------
// Checkpoint restore paths
// ---------------------------------------------------------------------------

// The same race, forced: a writer keeps adding out-edges to the very nodes
// a Q2 returns, so their out-lists reallocate while queries read them. The
// new edges lead out of the cut, so every answer must equal the first.
TEST(ServiceLiveQueryTest, Q2AnswerHoldsWhileItsCutGainsEdges) {
  const auto events = workload(600);
  ExecutionGraph graph;
  {
    std::stringstream bytes;
    graph::save_graph(reference_run(events)->graph().store(), bytes);
    graph::load_graph(graph.store(), bytes);
    graph.reindex_loaded_store();
  }
  LogicalClockAssigner assigner(graph);
  assigner.assign();
  const CausalQueryEngine engine(graph, assigner.clocks());
  const graph::NodeId a = *graph.node_of(events.front().id);
  const graph::NodeId b = *graph.node_of(events.back().id);
  const CausalGraphResult expected = engine.get_causal_graph(a, b);
  ASSERT_GT(expected.nodes.size(), 100u);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int sinks = 0; sinks < 1000 && !stop.load(); ++sinks) {
      const graph::NodeId sink = graph.store().add_node("SINK", {});
      for (const graph::NodeId v : expected.nodes) {
        graph.store().add_edge(v, sink, "HB");
      }
    }
  });
  for (int i = 0; i < 100; ++i) {
    const CausalGraphResult got = engine.get_causal_graph(a, b);
    EXPECT_EQ(got.nodes, expected.nodes);
    EXPECT_EQ(got.edges, expected.edges);
  }
  stop.store(true);
  writer.join();
}

/// Everything a restored store holds, in order: labels, full property
/// lists (key names), out- and in-lists with type names, and its bytes.
void expect_same_store(const graph::GraphStore& a, const graph::GraphStore& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  const auto named = [](const graph::GraphStore& s, graph::NodeId v) {
    std::vector<std::pair<std::string, graph::PropertyValue>> out;
    for (auto& [key, value] : s.node_property_list(v)) {
      out.emplace_back(s.prop_key_name(key), std::move(value));
    }
    return out;
  };
  const auto edges = [](const graph::GraphStore& s,
                        std::span<const graph::Edge> list) {
    std::vector<std::pair<graph::NodeId, std::string>> out;
    for (const graph::Edge& e : list) {
      out.emplace_back(e.to, s.edge_type_name(e.type));
    }
    return out;
  };
  for (graph::NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.node_label(v), b.node_label(v)) << "node " << v;
    ASSERT_EQ(named(a, v), named(b, v)) << "node " << v;
    ASSERT_EQ(edges(a, a.out_edges(v)), edges(b, b.out_edges(v)))
        << "node " << v;
    ASSERT_EQ(edges(a, a.in_edges(v)), edges(b, b.in_edges(v)))
        << "node " << v;
  }
  std::ostringstream bytes_a;
  std::ostringstream bytes_b;
  graph::save_graph(a, bytes_a);
  graph::save_graph(b, bytes_b);
  EXPECT_EQ(bytes_a.str(), bytes_b.str());
}

// A segmented checkpoint and a graph.hgraph checkpoint of the same instant
// restore to identical stores: both go through the store's bulk install,
// which derives every in-list from the out-lists in node order.
TEST(ServiceCheckpointTest, SegmentedAndMonolithicRestoresAreIdentical) {
  const ScopedTempDir scratch("restore-kinds");
  const auto run = reference_run(workload(600));
  std::ostringstream clocks;
  run->clocks().save(clocks);

  service::CheckpointStore flat(
      service::CheckpointOptions{scratch.file("flat")});
  flat.write(run->graph(), clocks.str(), {}, "");
  ExecutionGraph from_flat;
  (void)flat.restore(from_flat, "");
  {
    std::ostringstream written;
    std::ostringstream restored;
    graph::save_graph(run->graph().store(), written);
    graph::save_graph(from_flat.store(), restored);
    EXPECT_EQ(restored.str(), written.str());
  }

  // Segment the restored graph, spill two segments, and checkpoint it
  // segmented: evicted segments are written as copies of their spills.
  graph::SegmentOptions options;
  options.nodes_per_segment = 64;
  options.spill_dir = scratch.file("spill");
  options.auto_evict = false;
  graph::SegmentManager& segments = enable_segments(from_flat, options);
  ASSERT_GT(segments.evict(1), 0u);
  ASSERT_GT(segments.evict(3), 0u);
  service::CheckpointStore segmented(
      service::CheckpointOptions{scratch.file("segmented")});
  segmented.write(from_flat, clocks.str(), {}, "");
  ExecutionGraph from_segments;
  const service::CheckpointStore::Restored restored =
      segmented.restore(from_segments, "");
  EXPECT_FALSE(restored.sealed_segments.empty());
  expect_same_store(from_segments.store(), from_flat.store());
  EXPECT_EQ(from_segments.event_count(), run->graph().event_count());
}

TEST(ServiceCheckpointTest, GracefulRestartRestoresTheFinalCheckpoint) {
  const ScopedTempDir scratch("graceful");
  const std::string data_dir = scratch.str();
  const auto events = workload();
  queue::Broker broker;

  std::size_t nodes_before = 0;
  std::size_t edges_before = 0;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    EXPECT_FALSE(daemon.restored_from_checkpoint());
    for (const Event& e : events) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();  // graceful: final flush+commit+checkpoint
    nodes_before = graph.store().node_count();
    edges_before = graph.store().edge_count();
    EXPECT_EQ(nodes_before, events.size());
  }
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();  // restores + replays (window is empty after drain)
    EXPECT_TRUE(daemon.restored_from_checkpoint());
    EXPECT_GT(daemon.restored_epoch(), 0u);
    ASSERT_TRUE(daemon.pipeline().drain());
    EXPECT_EQ(graph.store().node_count(), nodes_before);
    EXPECT_EQ(graph.store().edge_count(), edges_before);
    daemon.stop();
  }
}

// A clock record of any version but HORUSVC1 must fail the restore with
// the *typed* ClockFormatError ("unsupported format"), not a generic
// corruption error.
TEST(ServiceCheckpointTest, FutureClockFormatVersionFailsTyped) {
  const ScopedTempDir scratch("clock-version");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(200)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  // Rewrite the record's version digit ("HORUSVC1" -> the retired sparse
  // "HORUSVC2", then an unknown "HORUSVC9"). The magic prefix stays valid,
  // so only the version check can reject it.
  const auto info = service::CheckpointStore(
                        service::CheckpointOptions{data_dir + "/checkpoints"})
                        .latest();
  ASSERT_TRUE(info.has_value());
  const std::string clocks_path = info->path + "/clocks.bin";
  std::string content;
  {
    std::ifstream in(clocks_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    content = std::move(buf).str();
  }
  ASSERT_GT(content.size(), 8u);
  ASSERT_EQ(content[7], '1');
  for (const char version : {'2', '9'}) {
    SCOPED_TRACE(std::string("version ") + version);
    content[7] = version;
    {
      std::ofstream out(clocks_path, std::ios::binary | std::ios::trunc);
      out << content;
    }
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    try {
      daemon.start();
      FAIL() << "clock format version " << version << " accepted";
    } catch (const ClockFormatError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  // The failed starts published nothing over the unreadable epoch.
  const auto after = service::CheckpointStore(
                         service::CheckpointOptions{data_dir + "/checkpoints"})
                         .latest();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->epoch, info->epoch);
}

TEST(ServiceCheckpointTest, RestoreRequiresAnEmptyGraph) {
  const ScopedTempDir scratch("nonempty");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  ExecutionGraph graph;
  {
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(100)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  // Same (non-empty) graph, same data_dir with a published checkpoint.
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  EXPECT_THROW(daemon.start(), std::logic_error);
}

TEST(ServiceCheckpointTest, TruncatedGraphSnapshotFailsTyped) {
  const ScopedTempDir scratch("truncated");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(200)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  // Mangle the published epoch's graph snapshot the way a torn write
  // would: cut it mid-file (the v3 trailer requirement catches even a cut
  // exactly at the trailer boundary).
  const auto info = service::CheckpointStore(
                        service::CheckpointOptions{data_dir + "/checkpoints"})
                        .latest();
  ASSERT_TRUE(info.has_value());
  const std::string snapshot = info->path + "/graph.hgraph";
  std::string content;
  {
    std::ifstream in(snapshot, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    content = std::move(buf).str();
  }
  ASSERT_GT(content.size(), 100u);
  {
    std::ofstream out(snapshot, std::ios::binary | std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  EXPECT_THROW(daemon.start(), HorusError);
}

TEST(ServiceCheckpointTest, CorruptManifestFailsTyped) {
  const ScopedTempDir scratch("manifest");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(100)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  {
    std::ofstream out(data_dir + "/checkpoints/MANIFEST.json",
                      std::ios::trunc);
    out << "{ not json";
  }
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  EXPECT_THROW(daemon.start(), HorusError);
}

TEST(ServiceCheckpointTest, EpochRetentionKeepsOnlyTheWindow) {
  const ScopedTempDir scratch("retention");
  const std::string data_dir = scratch.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.checkpoint_keep_epochs = 2;
  service::HorusService daemon(broker, graph, options);
  daemon.start();
  for (const Event& e : workload(100)) daemon.publish(e);
  ASSERT_TRUE(daemon.pipeline().drain());
  const std::uint64_t e1 = daemon.checkpoint_now();
  const std::uint64_t e2 = daemon.checkpoint_now();
  const std::uint64_t e3 = daemon.checkpoint_now();
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
  daemon.kill();  // no extra final checkpoint

  std::size_t epochs = 0;
  for (const auto& entry :
       fs::directory_iterator(data_dir + "/checkpoints")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) ++epochs;
  }
  EXPECT_EQ(epochs, 2u);
}

/// Child side of ShortOffsetsWriteDoesNotPublish: caps the size of every
/// file this process writes at `limit` bytes (SIGXFSZ ignored, so a write
/// past the cap fails with EFBIG instead of killing the process), attempts
/// the checkpoint, and returns 0 only when it threw HorusError and the
/// manifest still names `previous`.
int short_write_child(
    const service::CheckpointOptions& options, const ExecutionGraph& graph,
    const std::string& clock_record,
    const std::vector<queue::Broker::CommittedOffset>& offsets,
    rlim_t limit, std::uint64_t previous) {
  const rlimit cap{limit, limit};
  if (setrlimit(RLIMIT_FSIZE, &cap) != 0) return 4;
  (void)std::signal(SIGXFSZ, SIG_IGN);
  service::CheckpointStore store(options);
  try {
    (void)store.write(graph, clock_record, offsets, "");
    return 1;  // the short write went unnoticed
  } catch (const HorusError&) {
  } catch (...) {
    return 2;  // wrong exception type
  }
  const auto latest = store.latest();
  return latest && latest->epoch == previous ? 0 : 3;
}

// A short write of offsets.json (disk full, a file-size limit) must fail
// the checkpoint before it publishes: MANIFEST.json keeps naming the
// previous epoch. The write happens in a child process that caps its own
// file sizes below the long offsets list (the snapshot and clock files
// stay under the cap).
TEST(ServiceCheckpointTest, ShortOffsetsWriteDoesNotPublish) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedTempDir scratch("short_offsets");
  const service::CheckpointOptions options{scratch.str() + "/checkpoints"};
  const auto run = reference_run(workload(20));
  std::stringstream clocks;
  run->clocks().save(clocks);
  const std::string clock_record = clocks.str();

  const std::vector<queue::Broker::CommittedOffset> few = {
      {"horus-intra", "horus.events", 0, 7}};
  const service::CheckpointInfo first =
      service::CheckpointStore(options).write(run->graph(), clock_record, few,
                                              "");
  std::vector<queue::Broker::CommittedOffset> many;
  for (int i = 0; i < 4'000; ++i) {
    many.push_back({"horus-group-" + std::to_string(i), "horus.events", i % 8,
                    static_cast<std::uint64_t>(i)});
  }
  constexpr rlim_t kLimit = 64 << 10;
  ASSERT_LT(clock_record.size(), kLimit);
  ASSERT_LT(fs::file_size(first.path + "/graph.hgraph"), kLimit);

  EXPECT_EXIT(std::_Exit(short_write_child(options, run->graph(),
                                           clock_record, many, kLimit,
                                           first.epoch)),
              ::testing::ExitedWithCode(0), "");

  // The epoch the manifest names is intact and restores.
  const service::CheckpointStore store(options);
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, first.epoch);
  ExecutionGraph graph;
  const auto restored = store.restore(graph, "");
  ASSERT_EQ(restored.offsets.size(), 1u);
  EXPECT_EQ(restored.offsets[0].offset, 7u);
}

// A short write of graph.hgraph fails the checkpoint the same way: the
// snapshot writer checks the stream after every frame, and MANIFEST.json
// keeps naming the previous epoch. The child caps its file sizes at half
// the snapshot.
TEST(ServiceCheckpointTest, ShortGraphWriteDoesNotPublish) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedTempDir scratch("short_graph");
  const service::CheckpointOptions options{scratch.str() + "/checkpoints"};
  const auto run = reference_run(workload(400));
  std::stringstream clocks;
  run->clocks().save(clocks);
  const std::string clock_record = clocks.str();
  const std::vector<queue::Broker::CommittedOffset> offsets = {
      {"horus-intra", "horus.events", 0, 7}};
  const service::CheckpointInfo first =
      service::CheckpointStore(options).write(run->graph(), clock_record,
                                              offsets, "");
  const auto graph_bytes = fs::file_size(first.path + "/graph.hgraph");
  ASSERT_GT(graph_bytes, 16u << 10);
  const auto limit = static_cast<rlim_t>(graph_bytes / 2);

  EXPECT_EXIT(std::_Exit(short_write_child(options, run->graph(),
                                           clock_record, offsets, limit,
                                           first.epoch)),
              ::testing::ExitedWithCode(0), "");

  const service::CheckpointStore store(options);
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, first.epoch);
  ExecutionGraph graph;
  (void)store.restore(graph, "");
  EXPECT_EQ(graph.store().node_count(), run->graph().store().node_count());
}

}  // namespace
}  // namespace horus
