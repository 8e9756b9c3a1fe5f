// Figure 5 reproduction: event-processing throughput of the Horus pipeline
// as the number of stress clients grows.
//
// Clients submit synthetic client-server events as fast as they can into the
// sources topic; the pipeline (1 intra worker + 1 inter worker, as in the
// paper's single event-processing server) consumes, encodes and stores them.
// The paper's shape: Horus' throughput follows the incoming rate until a
// saturation knee (≈18 clients / ≈6,000 ev/s on their hardware), after which
// events queue up but are not lost.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_main.h"
#include "core/pipeline.h"
#include "gen/synthetic.h"
#include "queue/broker.h"

namespace {

using namespace horus;

struct Sample {
  int clients;
  double incoming_rate;
  double processed_rate;
  std::uint64_t backlog;
};

Sample run_point(int clients, int duration_ms) {
  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 8;
  options.intra_workers = 1;
  options.inter_workers = 1;
  options.event_flush_interval_ms = 100;   // paper setting
  options.relationship_flush_interval_ms = 200;
  Pipeline pipeline(broker, graph, options);
  pipeline.start();

  // Each client submits at a bounded rate, standing in for the paper's
  // network-bound stress clients (their client -> Kafka round trip caps the
  // per-client rate; an in-memory producer would otherwise be unrealistically
  // fast). The offered load therefore grows linearly with the client count
  // and crosses the single-server pipeline's capacity mid-range — the knee.
  constexpr double kEventsPerClientPerSec = 2500.0;
  constexpr std::size_t kBurst = 64;

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    producers.emplace_back([&pipeline, &stop, c] {
      // Each client is an independent process pair with its own id range
      // and channel, generating request-reply rounds continuously.
      gen::ClientServerOptions options;
      options.num_events = 4096;
      options.seed = 1000 + static_cast<std::uint64_t>(c);
      std::uint64_t round = 0;
      const auto burst_interval = std::chrono::duration<double>(
          static_cast<double>(kBurst) / kEventsPerClientPerSec);
      auto next_burst = std::chrono::steady_clock::now();
      std::size_t in_burst = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        options.id_base =
            (static_cast<std::uint64_t>(c) << 40) + round * 4096;
        auto batch = gen::client_server_events(options);
        // Distinct hosts per client so timelines do not collide.
        for (Event& e : batch) {
          e.thread.host += "-c" + std::to_string(c);
          if (stop.load(std::memory_order_relaxed)) return;
          pipeline.publish(e);
          if (++in_burst >= kBurst) {
            in_burst = 0;
            next_burst += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(burst_interval);
            std::this_thread::sleep_until(next_burst);
          }
        }
        ++round;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& p : producers) p.join();
  const std::uint64_t published = pipeline.events_published();
  const std::uint64_t processed = pipeline.events_processed();
  pipeline.drain();
  pipeline.stop();

  Sample sample;
  sample.clients = clients;
  sample.incoming_rate =
      static_cast<double>(published) * 1000.0 / duration_ms;
  sample.processed_rate =
      static_cast<double>(processed) * 1000.0 / duration_ms;
  sample.backlog = published - processed;
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = horus::bench::flag_present(argc, argv, "--quick");
  const int duration_ms = quick ? 1500 : 4000;
  horus::bench::JsonReport report(argc, argv);

  std::printf("=== Figure 5: pipeline throughput vs number of clients ===\n");
  std::printf("1 intra + 1 inter encoder worker; flush 100ms/200ms; "
              "%dms per point\n\n", duration_ms);
  std::printf("%8s %18s %18s %14s\n", "clients", "incoming (ev/s)",
              "Horus (ev/s)", "backlog");
  std::printf("%.*s\n", 62,
              "--------------------------------------------------------------");
  for (int clients = 2; clients <= 22; clients += 2) {
    const Sample s = run_point(clients, duration_ms);
    std::printf("%8d %18.0f %18.0f %14llu\n", s.clients, s.incoming_rate,
                s.processed_rate,
                static_cast<unsigned long long>(s.backlog));
    std::fflush(stdout);
    horus::Json row = horus::Json::object();
    row["clients"] = static_cast<std::int64_t>(s.clients);
    row["incoming_rate"] = s.incoming_rate;
    row["processed_rate"] = s.processed_rate;
    row["backlog"] = static_cast<std::int64_t>(s.backlog);
    report.add_row(std::move(row));
  }
  if (!report.write("fig5_throughput")) return 1;
  std::printf("\npaper shape: Horus follows the incoming rate until the "
              "saturation knee;\npending events stay queued (no loss) and "
              "are processed after the peak.\n");
  return 0;
}
