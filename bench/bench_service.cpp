// Service-mode benchmark: measures the three `horusd` acceptance numbers
// end to end on one daemon instance over continuous microservice traffic:
//
//   sustained_ingest   events/sec through publish() with the incremental
//                      pipeline, clock daemon and periodic checkpoints all
//                      running (the always-on configuration, not batch)
//   query_latency      p50/p99 of Q1 admission-gated sessions issued
//                      *while* the publisher thread keeps ingesting
//   recovery           kill() the daemon mid-stream, start a fresh one over
//                      the same data_dir, and time restore + first
//                      answerable query (recovery-time-to-first-query)
//
// Flags: --json <path>, --quick, --seed N (default 7). Without --quick the
// ingest target and query count are scaled ~8x over the smoke sizes.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.h"
#include "common/rng.h"
#include "gen/topology.h"
#include "queue/broker.h"
#include "service/service.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t seed_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      value = argv[i] + 7;
    }
    if (value != nullptr) return std::strtoull(value, nullptr, 10);
  }
  return 7;
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace horus;

  const bool quick = bench::flag_present(argc, argv, "--quick");
  const std::uint64_t seed = seed_flag(argc, argv);
  bench::JsonReport report(argc, argv);

  const std::size_t target_events = quick ? 15'000 : 120'000;
  const std::size_t target_queries = quick ? 300 : 2'000;

  const std::string data_dir =
      (std::filesystem::temp_directory_path() /
       ("horus_bench_service_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(data_dir);

  gen::TopologyOptions topo;
  topo.seed = seed;
  topo.num_services = 8;
  topo.depth = 3;
  topo.requests = 24;
  topo.retry_storm_p = 0.05;

  service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.partitions = 4;
  options.pipeline.intra_workers = 2;
  options.pipeline.inter_workers = 2;
  options.pipeline.event_flush_interval_ms = 5;
  options.pipeline.relationship_flush_interval_ms = 8;
  options.clock_interval_ms = 25;
  options.checkpoint_interval_ms = 250;  // checkpoints on, as deployed

  std::printf("=== horusd service mode (seed %llu, %s) ===\n\n",
              static_cast<unsigned long long>(seed),
              quick ? "quick" : "full");

  queue::Broker broker;
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, options);
  daemon.start();

  // -- sustained ingest, with concurrent Q1 sessions --------------------
  gen::ContinuousTraffic traffic(topo);
  const auto ingest_start = Clock::now();
  std::atomic<bool> ingest_done{false};
  std::thread publisher([&] {
    while (traffic.events_generated() < target_events) {
      for (const Event& event : traffic.next_batch()) {
        for (;;) {
          try {
            daemon.publish(event);
            break;
          } catch (const service::OverloadError&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      }
    }
    ingest_done.store(true, std::memory_order_relaxed);
  });

  std::vector<double> latencies_ms;
  latencies_ms.reserve(target_queries);
  std::uint64_t rejected = 0;
  Rng rng(seed ^ 0xA24BAED4963EE407ULL);
  while (!ingest_done.load(std::memory_order_relaxed) ||
         latencies_ms.size() < target_queries) {
    if (latencies_ms.size() >= target_queries) break;
    const auto assigned =
        static_cast<std::int64_t>(daemon.clock_daemon().assigned_nodes());
    if (assigned < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const auto a = static_cast<graph::NodeId>(rng.uniform(0, assigned - 1));
    const auto b = static_cast<graph::NodeId>(rng.uniform(0, assigned - 1));
    try {
      const auto query_start = Clock::now();
      const auto session = daemon.admit();
      benchmark::DoNotOptimize(daemon.happens_before(session, a, b));
      latencies_ms.push_back(seconds_since(query_start) * 1e3);
    } catch (const service::OverloadError&) {
      ++rejected;  // gate closed under load: sheds, never queues
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  publisher.join();
  if (!daemon.pipeline().drain()) {
    std::fprintf(stderr, "bench_service: drain failed\n");
    return 1;
  }
  const double ingest_seconds = seconds_since(ingest_start);
  const auto ingested = daemon.events_ingested();
  const double rate =
      ingest_seconds > 0 ? static_cast<double>(ingested) / ingest_seconds : 0;

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = percentile(latencies_ms, 0.50);
  const double p99 = percentile(latencies_ms, 0.99);

  std::printf("sustained ingest   %10llu events in %.3f s  -> %.0f events/s\n",
              static_cast<unsigned long long>(ingested), ingest_seconds,
              rate);
  std::printf("query under ingest %10zu sessions  p50 %.1f us  p99 %.1f us  "
              "(%llu rejected)\n",
              latencies_ms.size(), p50 * 1e3, p99 * 1e3,
              static_cast<unsigned long long>(rejected));

  Json ingest_row = Json::object();
  ingest_row["name"] = std::string("sustained_ingest");
  ingest_row["seed"] = static_cast<std::int64_t>(seed);
  ingest_row["events"] = static_cast<std::int64_t>(ingested);
  ingest_row["ingest_seconds"] = ingest_seconds;
  ingest_row["events_per_second"] = rate;
  ingest_row["nodes"] = static_cast<std::int64_t>(graph.event_count());
  report.add_row(std::move(ingest_row));

  Json query_row = Json::object();
  query_row["name"] = std::string("query_latency_under_ingest");
  query_row["seed"] = static_cast<std::int64_t>(seed);
  query_row["queries"] = static_cast<std::int64_t>(latencies_ms.size());
  query_row["rejected"] = static_cast<std::int64_t>(rejected);
  query_row["p50_ms"] = p50;
  query_row["p99_ms"] = p99;
  report.add_row(std::move(query_row));

  // -- crash + recovery-time-to-first-query -----------------------------
  const std::uint64_t checkpoint_epoch = daemon.checkpoint_now();
  const std::uint64_t checkpointed = daemon.events_ingested();
  for (const Event& event : traffic.next_batch()) daemon.publish(event);
  const std::uint64_t replay_window = daemon.events_ingested() - checkpointed;
  daemon.kill();

  ExecutionGraph restored;
  service::HorusService revived(broker, restored, options);
  const auto recovery_start = Clock::now();
  revived.start();  // restore the checkpoint + replay the queue window
  bool first_answer = false;
  {
    const auto session = revived.admit();
    // The restored clock table answers immediately; unassigned ids would
    // just return false, and a checkpointed stream always has nodes 0/1.
    first_answer = revived.happens_before(session, graph::NodeId{0},
                                          graph::NodeId{1});
  }
  const double recovery_ms = seconds_since(recovery_start) * 1e3;
  // The periodic checkpoint loop keeps publishing while the replay window
  // is fed, so the revived daemon may restore an epoch *after* the explicit
  // one — required is only that it is no older.
  const bool restored_ok = revived.restored_from_checkpoint() &&
                           revived.restored_epoch() >= checkpoint_epoch;
  benchmark::DoNotOptimize(first_answer);
  if (!revived.pipeline().drain()) {
    std::fprintf(stderr, "bench_service: post-recovery drain failed\n");
    return 1;
  }
  revived.stop();

  std::printf("recovery           restored epoch %llu (%s), replay window "
              "%llu events, time-to-first-query %.1f ms\n",
              static_cast<unsigned long long>(revived.restored_epoch()),
              restored_ok ? "ok" : "MISMATCH",
              static_cast<unsigned long long>(replay_window), recovery_ms);

  Json recovery_row = Json::object();
  recovery_row["name"] = std::string("recovery");
  recovery_row["seed"] = static_cast<std::int64_t>(seed);
  recovery_row["restored_epoch"] =
      static_cast<std::int64_t>(revived.restored_epoch());
  recovery_row["restored_ok"] = restored_ok;
  recovery_row["replay_window_events"] =
      static_cast<std::int64_t>(replay_window);
  recovery_row["time_to_first_query_ms"] = recovery_ms;
  report.add_row(std::move(recovery_row));

  const bool written = report.write("bench_service");
  std::filesystem::remove_all(data_dir);
  if (!written) return 1;

  if (!restored_ok) {
    std::fprintf(stderr, "bench_service: recovery epoch mismatch\n");
    return 1;
  }
  return 0;
}
