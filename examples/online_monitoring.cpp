// Online monitoring: query causality *while the system is still running*.
//
// The pipeline ingests a live event stream with short flush intervals (the
// paper's "useful for online monitoring" configuration) while a ClockDaemon
// keeps logical time assigned in the background: the pipeline's commit hook
// wakes the daemon after every inter-stage commit, and its interval is only
// the idle backstop. Mid-run, we answer causal queries over the portion of
// the execution stored so far; the daemon's audit-and-heal loop repairs any
// assignment that raced an inter-process flush.
//
//   $ ./examples/online_monitoring [total-events]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/clock_daemon.h"
#include "core/pipeline.h"
#include "gen/synthetic.h"
#include "queue/broker.h"

int main(int argc, char** argv) {
  using namespace horus;

  const std::size_t total =
      argc > 1 ? static_cast<std::size_t>(std::stoull(argv[1])) : 40'000;

  gen::ClientServerOptions gen_options;
  gen_options.num_events = total;
  const auto events = gen::client_server_events(gen_options);

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.intra_workers = 1;
  options.inter_workers = 1;
  options.event_flush_interval_ms = 10;   // fast flushes: fresh data
  options.relationship_flush_interval_ms = 15;
  Pipeline pipeline(broker, graph, options);
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 20});
  pipeline.set_commit_hook([&daemon] { daemon.notify(); });

  pipeline.start();
  daemon.start();

  // Stream events in slowly enough to observe the system mid-flight.
  std::thread producer([&] {
    for (const Event& e : events) {
      pipeline.publish(e);
      if (value_of(e.id) % 2000 == 1999) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  });

  // Periodic live queries while ingestion is ongoing.
  for (int probe = 1; probe <= 5; ++probe) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const std::size_t assigned = daemon.assigned_nodes();
    if (assigned < 16) continue;
    const auto a = static_cast<graph::NodeId>(assigned / 4);
    const auto b = static_cast<graph::NodeId>(assigned / 2);
    const auto causal = daemon.get_causal_graph(a, b);
    std::printf("probe %d: %8zu events assigned | stored %8zu | "
                "getCausalGraph(#%u,#%u) -> %zu nodes\n",
                probe, assigned, graph.store().node_count(), a, b,
                causal.nodes.size());
  }

  producer.join();
  pipeline.drain();
  daemon.stop();
  pipeline.stop();

  std::printf("\nfinal: %zu events, %zu relationships, %llu daemon ticks, "
              "%llu heals (stale assignments repaired)\n",
              graph.store().node_count(), graph.store().edge_count(),
              static_cast<unsigned long long>(daemon.ticks()),
              static_cast<unsigned long long>(daemon.heals()));
  return 0;
}
