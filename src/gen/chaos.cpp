#include "gen/chaos.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/falcon_solver.h"
#include "core/horus.h"
#include "core/logical_clocks.h"
#include "core/pipeline.h"
#include "gen/synthetic.h"
#include "graph/traversal.h"
#include "queue/broker.h"
#include "service/service.h"

namespace horus::gen {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

std::uint64_t symmetric_difference_size(const std::vector<EdgeTriple>& a,
                                        const std::vector<EdgeTriple>& b) {
  std::vector<EdgeTriple> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  return diff.size();
}

bool same_causal_graph(const CausalGraphResult& a,
                       const CausalGraphResult& b) {
  return a.nodes == b.nodes && a.edges == b.edges;
}

/// Leg 2's oracle: `got`, the engine's Q2 answer for (a, b), holds exactly
/// the node set and induced edge set of the clock-free reachability cut.
bool matches_reachability_cut(const graph::GraphStore& store,
                              const CausalGraphResult& got, graph::NodeId a,
                              graph::NodeId b) {
  const graph::SubgraphResult want = graph::between_subgraph(store, a, b);
  std::vector<graph::NodeId> nodes = got.nodes;
  std::sort(nodes.begin(), nodes.end());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges = got.edges;
  std::sort(edges.begin(), edges.end());
  return nodes == want.nodes && edges == want.edges;
}

/// Publishes `events` through one or (under a rebalance) two pipeline
/// incarnations and accumulates the fault-visible counters.
void run_pipeline(const ChaosScenario& scenario,
                  const std::vector<Event>& events, queue::Broker& broker,
                  ExecutionGraph& graph, const std::string& wal_dir,
                  DifferentialReport& report) {
  PipelineOptions options;
  options.partitions = scenario.partitions;
  options.intra_workers = scenario.intra_workers_a;
  options.inter_workers = scenario.inter_workers_a;
  options.event_flush_interval_ms = 10;
  options.relationship_flush_interval_ms = 15;
  options.wal_dir = wal_dir;

  const std::size_t split =
      scenario.rebalance ? events.size() / 2 : events.size();
  {
    Pipeline first(broker, graph, options);
    first.start();
    for (std::size_t i = 0; i < split; ++i) first.publish(events[i]);
    report.drained = first.drain() && report.drained;
    first.stop();
    report.pipeline_recoveries += first.recoveries();
    report.pipeline_retries += first.events_retried();
    report.pipeline_deduplicated += first.events_deduplicated();
    report.dead_lettered += first.events_dead_lettered();
  }
  if (split < events.size()) {
    // Second incarnation: same broker, graph and WAL, new worker shape.
    options.intra_workers = scenario.intra_workers_b;
    options.inter_workers = scenario.inter_workers_b;
    Pipeline second(broker, graph, options);
    second.start();
    for (std::size_t i = split; i < events.size(); ++i) {
      second.publish(events[i]);
    }
    report.drained = second.drain() && report.drained;
    second.stop();
    report.pipeline_recoveries += second.recoveries();
    report.pipeline_retries += second.events_retried();
    report.pipeline_deduplicated += second.events_deduplicated();
    report.dead_lettered += second.events_dead_lettered();
  }
}

/// Daemon-restart leg: `kill_point` of the stream goes through a first
/// horusd incarnation that checkpoints and is hard-killed mid-ingest, the
/// rest through a second incarnation that restores the checkpoint, replays
/// the queue window and finishes the stream. The restored incarnation's
/// graph (in `restored`) is what gets verified; `first` is the dead
/// incarnation's partial graph and is discarded.
void run_service_restart(const ChaosScenario& scenario,
                         const std::vector<Event>& events,
                         queue::Broker& broker, ExecutionGraph& first,
                         ExecutionGraph& restored, const std::string& data_dir,
                         DifferentialReport& report) {
  service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.partitions = scenario.partitions;
  options.pipeline.intra_workers = scenario.intra_workers_a;
  options.pipeline.inter_workers = scenario.inter_workers_a;
  options.pipeline.event_flush_interval_ms = 10;
  options.pipeline.relationship_flush_interval_ms = 15;
  // Only the explicit pre-kill checkpoint should exist; a periodic one
  // would race the kill and blur which cut the restore starts from.
  options.checkpoint_interval_ms = 3'600'000;

  const auto split = std::min(
      events.size(), static_cast<std::size_t>(
                         static_cast<double>(events.size()) *
                         std::clamp(scenario.kill_point, 0.0, 1.0)));
  {
    service::HorusService daemon(broker, first, options);
    daemon.start();
    for (std::size_t i = 0; i < split; ++i) daemon.publish(events[i]);
    daemon.checkpoint_now();
    daemon.kill();  // in-process SIGKILL: no flush, no commit, no checkpoint
    report.pipeline_recoveries += daemon.pipeline().recoveries();
    report.pipeline_retries += daemon.pipeline().events_retried();
    report.pipeline_deduplicated += daemon.pipeline().events_deduplicated();
  }
  {
    // Restarted incarnation: same broker and data_dir, post-rebalance
    // worker shape. start() restores the checkpoint, seeks the broker back
    // to the frozen offsets and replays the queue window.
    options.pipeline.intra_workers = scenario.intra_workers_b;
    options.pipeline.inter_workers = scenario.inter_workers_b;
    service::HorusService daemon(broker, restored, options);
    daemon.start();
    for (std::size_t i = split; i < events.size(); ++i) {
      daemon.publish(events[i]);
    }
    report.drained = daemon.pipeline().drain() && report.drained;
    daemon.stop();
    report.pipeline_recoveries += daemon.pipeline().recoveries();
    report.pipeline_retries += daemon.pipeline().events_retried();
    report.pipeline_deduplicated += daemon.pipeline().events_deduplicated();
    report.dead_lettered += daemon.pipeline().events_dead_lettered();
  }
}

}  // namespace

ChaosRunResult run_chaos_scenario(const ChaosScenario& scenario,
                                  const std::string& wal_dir) {
  ChaosRunResult run;
  DifferentialReport& report = run.report;

  const std::vector<Event> events = microservice_topology(scenario.topology);
  const std::vector<Event> delivered =
      scenario.reorder == ReorderMode::kCrossProcess
          ? cross_process_shuffle(events,
                                  scenario.topology.seed ^ 0x9e3779b97f4a7c15)
          : events;
  report.events = delivered.size();

  // Fault-free reference, ingesting the undisturbed generation order.
  Horus embedded;
  for (const Event& e : events) embedded.ingest(e);
  embedded.seal();

  // Faulted distributed pipeline over the adversarial delivery order.
  fs::remove_all(wal_dir);
  queue::Broker broker;
  auto injector = std::make_shared<queue::FaultInjector>(scenario.faults);
  if (scenario.faults.enabled()) broker.set_fault_injector(injector);
  // The daemon-restart path needs two graphs: the dead first incarnation's
  // (discarded) and the restored incarnation's (verified).
  ExecutionGraph first_graph;
  ExecutionGraph restored_graph;
  ExecutionGraph& graph = scenario.daemon_restart ? restored_graph : first_graph;

  const auto ingest_start = Clock::now();
  if (scenario.daemon_restart) {
    run_service_restart(scenario, delivered, broker, first_graph,
                        restored_graph, wal_dir, report);
  } else {
    run_pipeline(scenario, delivered, broker, graph, wal_dir, report);
  }
  run.ingest_seconds = seconds_since(ingest_start);
  report.injected_crashes = injector->counters().crashes;
  report.edges = graph.store().edge_count();

  const auto verify_start = Clock::now();

  // Leg 1: equivalence with the reference graph.
  LogicalClockAssigner assigner(graph);
  assigner.assign();
  const ClockTable& chaos_clocks = assigner.clocks();
  const ClockTable& ref_clocks = embedded.clocks();

  if (graph.event_count() != embedded.graph().event_count()) {
    ++report.reference_mismatches;
  }
  report.reference_mismatches += symmetric_difference_size(
      edge_triples(graph), edge_triples(embedded.graph()));

  struct Sample {
    graph::NodeId chaos;
    graph::NodeId ref;
    TimeNs ts;
    ThreadRef thread;
  };
  std::vector<Sample> samples;
  const std::size_t step =
      std::max<std::size_t>(1, events.size() /
                                   std::max<std::size_t>(1, scenario.hb_samples));
  for (std::size_t i = 0; i < events.size(); i += step) {
    const auto c = graph.node_of(events[i].id);
    const auto r = embedded.node_of(events[i].id);
    if (!c || !r) {
      ++report.reference_mismatches;
      continue;
    }
    if (chaos_clocks.lamport(*c) != ref_clocks.lamport(*r)) {
      ++report.reference_mismatches;
    }
    samples.push_back(Sample{*c, *r, events[i].timestamp, events[i].thread});
  }

  // Legs 1, 3 and 4 all walk the same sample grid: reference hb agreement,
  // Falcon linear extension, timestamp inversions.
  baselines::SolverResult falcon;
  std::unordered_map<std::uint64_t, std::size_t> falcon_var;
  {
    baselines::FalconSolver solver(
        static_cast<std::uint32_t>(delivered.size()));
    solver.add_constraints(to_constraints(delivered));
    falcon = solver.solve();
    report.falcon_satisfiable = falcon.satisfiable;
    report.falcon_passes = falcon.passes;
    falcon_var.reserve(delivered.size());
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      falcon_var[value_of(delivered[i].id)] = i;
    }
  }
  auto falcon_clock = [&](graph::NodeId chaos_node) -> std::int64_t {
    const auto it = falcon_var.find(value_of(graph.event_of(chaos_node)));
    return it == falcon_var.end() ? -1
                                  : falcon.clocks[it->second];
  };

  struct Q2Pair {
    graph::NodeId a;
    graph::NodeId b;
    std::int64_t span;
  };
  std::vector<Q2Pair> q2_pairs;
  for (const Sample& x : samples) {
    for (const Sample& y : samples) {
      if (x.chaos == y.chaos) continue;
      const bool hb = chaos_clocks.happens_before(x.chaos, y.chaos);
      if (hb != ref_clocks.happens_before(x.ref, y.ref)) {
        ++report.reference_mismatches;
      }
      if (!hb) continue;
      ++report.hb_pairs_checked;
      if (!(x.thread == y.thread) && x.ts > y.ts) {
        ++report.timestamp_inversions;
      }
      if (report.falcon_satisfiable) {
        const std::int64_t ca = falcon_clock(x.chaos);
        const std::int64_t cb = falcon_clock(y.chaos);
        if (ca < 0 || cb < 0 || ca >= cb) ++report.falcon_violations;
      }
      q2_pairs.push_back(
          Q2Pair{x.chaos, y.chaos,
                 chaos_clocks.lamport(y.chaos) - chaos_clocks.lamport(x.chaos)});
    }
  }

  // Leg 2: Q2 against the reachability cut, and sequential against
  // parallel, on the widest sampled causal spans.
  std::sort(q2_pairs.begin(), q2_pairs.end(),
            [](const Q2Pair& a, const Q2Pair& b) { return a.span > b.span; });
  if (q2_pairs.size() > scenario.q2_pairs) {
    q2_pairs.resize(scenario.q2_pairs);
  }
  QueryOptions seq_options;
  QueryOptions par_options;
  par_options.threads = scenario.verify_threads;
  par_options.min_parallel_items = 1;  // force the parallel paths
  const CausalQueryEngine seq(graph, chaos_clocks, seq_options);
  const CausalQueryEngine par(graph, chaos_clocks, par_options);
  for (const Q2Pair& pair : q2_pairs) {
    const CausalGraphResult sequential = seq.get_causal_graph(pair.a, pair.b);
    const CausalGraphResult parallel = par.get_causal_graph(pair.a, pair.b);
    if (!same_causal_graph(sequential, parallel)) ++report.parallel_mismatches;
    if (!matches_reachability_cut(graph.store(), sequential, pair.a,
                                  pair.b)) {
      ++report.q2_mismatches;
    }
  }

  run.verify_seconds = seconds_since(verify_start);
  return run;
}

std::vector<ChaosScenario> builtin_chaos_scenarios(std::uint64_t seed) {
  std::vector<ChaosScenario> scenarios;

  {
    // Messages reordered across a mid-stream partition rebalance, with
    // producer duplicates and consumer redeliveries on top.
    ChaosScenario s;
    s.name = "reorder_rebalance";
    s.topology.seed = seed ^ 1;
    s.rebalance = true;
    s.faults.seed = seed ^ 101;
    s.faults.duplicate_p = 0.02;
    s.faults.redeliver_p = 0.02;
    scenarios.push_back(std::move(s));
  }
  {
    // Clock drift 10x beyond the paper's skew assumptions: timestamps
    // invert en masse while causal order must stay exact.
    ChaosScenario s;
    s.name = "clock_drift_x10";
    s.topology.seed = seed ^ 2;
    s.topology.max_clock_drift_ns = 500'000'000;
    s.faults.seed = seed ^ 102;
    s.faults.redeliver_p = 0.02;
    scenarios.push_back(std::move(s));
  }
  {
    // Retry storms: a third of RPCs spray duplicate unacknowledged sends
    // that never get a matching receive.
    ChaosScenario s;
    s.name = "retry_storm";
    s.topology.seed = seed ^ 3;
    s.topology.retry_storm_p = 0.35;
    s.topology.max_retries = 3;
    s.faults.seed = seed ^ 103;
    s.faults.duplicate_p = 0.05;
    s.faults.redeliver_p = 0.05;
    scenarios.push_back(std::move(s));
  }
  {
    // Consumer crash/recovery mid-request plus stalls, transient errors
    // and duplicated redelivery — the full recovery gauntlet.
    ChaosScenario s;
    s.name = "crash_recover";
    s.topology.seed = seed ^ 4;
    s.topology.requests = 30;
    s.faults.seed = seed ^ 104;
    s.faults.crash_every = 120;
    s.faults.max_crashes_per_group = 2;
    s.faults.produce_failure_p = 0.002;
    s.faults.poll_failure_p = 0.02;
    s.faults.duplicate_p = 0.02;
    s.faults.redeliver_p = 0.02;
    s.faults.stall_p = 0.05;
    scenarios.push_back(std::move(s));
  }
  {
    // Long dependency chains: 40-hop linear call chains stress the clock
    // assignment depth and the Falcon solver's pass count.
    ChaosScenario s;
    s.name = "long_chain";
    s.topology.seed = seed ^ 5;
    s.topology.num_services = 6;
    s.topology.chain_length = 40;
    s.topology.requests = 8;
    s.faults.seed = seed ^ 105;
    s.faults.redeliver_p = 0.02;
    scenarios.push_back(std::move(s));
  }
  {
    // Cross-request contention: two bottleneck services serialise most
    // requests, creating dense cross-request causal chains.
    ChaosScenario s;
    s.name = "contention";
    s.topology.seed = seed ^ 6;
    s.topology.depth = 2;
    s.topology.requests = 50;
    s.topology.contention_services = 2;
    s.faults.seed = seed ^ 106;
    s.faults.duplicate_p = 0.02;
    scenarios.push_back(std::move(s));
  }
  {
    // Daemon kill -9 mid-ingest: half the traffic goes through a first
    // horusd incarnation that checkpoints and is hard-killed; a second
    // incarnation restores the checkpoint, replays the queue window
    // (absorbed by the idempotent add/dedup paths and the frozen pairing
    // WAL) and must converge to exactly the fault-free reference graph.
    ChaosScenario s;
    s.name = "daemon_restart";
    s.daemon_restart = true;
    s.topology.seed = seed ^ 7;
    s.faults.seed = seed ^ 107;
    s.faults.duplicate_p = 0.02;
    s.faults.redeliver_p = 0.02;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace horus::gen
