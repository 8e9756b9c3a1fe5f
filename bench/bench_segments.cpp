// Segmented-store benchmark: the two numbers the sharded/epoch-segmented
// GraphStore is supposed to buy, measured end to end on embedded Horus:
//
//   bounded_ingest   ingest the same event stream into a segmented store
//                    with no resident budget and with an LRU budget; record
//                    final and peak resident payload bytes plus ingest
//                    throughput — with the budget set, resident bytes must
//                    stay bounded while the graph keeps growing.
//   queries          Q1 (happens_before) and Q2 (get_causal_graph) latency
//                    p50/p99 over sampled event pairs on the unbounded
//                    segmented store. Both answer from the clock table
//                    alone, exactly as on a monolithic store; the row is
//                    the regression guard for that.
//
// Flags: --json <path>, --quick, --seed N (default 7). Without --quick the
// stream is ~5x the smoke size.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "core/horus.h"
#include "core/segment_clocks.h"
#include "gen/topology.h"
#include "graph/segment.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace horus;

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

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

struct IngestResult {
  std::unique_ptr<Horus> horus;
  graph::SegmentManager* segments = nullptr;
  double seconds = 0.0;
  std::size_t peak_resident = 0;
};

/// Ingests `events` into a fresh segmented Horus; `budget` == 0 disables
/// eviction. Resident bytes are sampled at every seal-sized stride.
IngestResult ingest_segmented(const std::vector<Event>& events,
                              std::size_t budget,
                              const std::string& spill_dir) {
  IngestResult r;
  r.horus = std::make_unique<Horus>();
  graph::SegmentOptions options;
  options.nodes_per_segment = 4096;
  options.shard_count = 4;
  options.spill_dir = spill_dir;
  options.resident_budget_bytes = budget;
  r.segments = &enable_segments(r.horus->graph(), options);

  const auto start = Clock::now();
  std::size_t since_sample = 0;
  for (const Event& e : events) {
    r.horus->ingest(e);
    if (++since_sample >= options.nodes_per_segment) {
      since_sample = 0;
      r.horus->seal();  // flush + clocks, as the daemon would
      r.peak_resident = std::max(r.peak_resident, r.segments->resident_bytes());
    }
  }
  r.horus->seal();
  r.peak_resident = std::max(r.peak_resident, r.segments->resident_bytes());
  r.seconds = seconds_since(start);
  return r;
}

/// Evenly spread (a, b) node pairs over the graph, a < b.
std::vector<std::pair<graph::NodeId, graph::NodeId>> sample_pairs(
    const Horus& horus, std::size_t want) {
  const auto n = static_cast<graph::NodeId>(horus.graph().store().node_count());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  const graph::NodeId span = n / 10;
  for (std::size_t i = 0; i < want; ++i) {
    const graph::NodeId a =
        static_cast<graph::NodeId>((i * (n - span - 1)) / want);
    pairs.emplace_back(a, a + span);
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::flag_present(argc, argv, "--quick");
  const std::uint64_t seed = seed_flag(argc, argv);
  bench::JsonReport report(argc, argv);

  gen::TopologyOptions topo;
  topo.seed = seed;
  topo.num_services = 8;
  topo.depth = 3;
  topo.requests = quick ? 600 : 3'000;
  topo.retry_storm_p = 0.05;
  const std::vector<Event> events = gen::microservice_topology(topo);

  const std::string spill_root =
      (std::filesystem::temp_directory_path() /
       ("horus_bench_segments_" + std::to_string(seed) + "_" +
        std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(spill_root);

  std::printf("=== segmented store (seed %llu, %s, %zu events) ===\n\n",
              static_cast<unsigned long long>(seed),
              quick ? "quick" : "full", events.size());

  // -- bounded vs unbounded ingest ----------------------------------------
  IngestResult unbounded =
      ingest_segmented(events, /*budget=*/0, spill_root + "/unbounded");
  const std::size_t budget = std::max<std::size_t>(
      unbounded.peak_resident / 4, std::size_t{64} << 10);
  IngestResult bounded = ingest_segmented(events, budget, spill_root + "/lru");

  for (const auto* r : {&unbounded, &bounded}) {
    const bool is_bounded = (r == &bounded);
    const double events_per_sec =
        r->seconds > 0 ? static_cast<double>(events.size()) / r->seconds : 0;
    std::printf(
        "%-9s ingest: %8.0f events/s  peak resident %8zu B  "
        "final %8zu B  sealed %zu  evicted %zu\n",
        is_bounded ? "bounded" : "unbounded", events_per_sec,
        r->peak_resident, r->segments->resident_bytes(),
        r->segments->sealed_count(), r->segments->evicted_count());
    Json row = Json::object();
    row["name"] = std::string(is_bounded ? "bounded_ingest" : "unbounded_ingest");
    row["events"] = static_cast<std::int64_t>(events.size());
    row["events_per_sec"] = events_per_sec;
    row["budget_bytes"] = static_cast<std::int64_t>(is_bounded ? budget : 0);
    row["peak_resident_bytes"] = static_cast<std::int64_t>(r->peak_resident);
    row["final_resident_bytes"] =
        static_cast<std::int64_t>(r->segments->resident_bytes());
    row["sealed_segments"] = static_cast<std::int64_t>(r->segments->sealed_count());
    row["evicted_segments"] =
        static_cast<std::int64_t>(r->segments->evicted_count());
    report.add_row(std::move(row));
  }
  if (bounded.peak_resident > budget + (budget / 2)) {
    std::fprintf(stderr,
                 "warning: bounded peak %zu overshot budget %zu by >50%%\n",
                 bounded.peak_resident, budget);
  }

  // -- Q1/Q2 on the segmented store -------------------------------------
  Horus& horus = *unbounded.horus;
  const auto query = horus.query();
  const auto pairs = sample_pairs(horus, quick ? 40 : 200);
  const int rounds = quick ? 20 : 50;
  std::vector<double> q1_us;
  std::vector<double> q2_us;
  for (int round = 0; round < rounds; ++round) {
    for (const auto& [a, b] : pairs) {
      auto t0 = Clock::now();
      benchmark::DoNotOptimize(query.happens_before(a, b));
      q1_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  for (const auto& [a, b] : pairs) {
    auto t0 = Clock::now();
    const auto result = query.get_causal_graph(a, b);
    benchmark::DoNotOptimize(result.nodes.size());
    q2_us.push_back(seconds_since(t0) * 1e6);
  }
  std::sort(q1_us.begin(), q1_us.end());
  std::sort(q2_us.begin(), q2_us.end());
  std::printf(
      "queries    Q1 p50 %7.2f us  p99 %7.2f us   Q2 p50 %8.1f us  "
      "p99 %8.1f us\n",
      percentile(q1_us, 0.5), percentile(q1_us, 0.99),
      percentile(q2_us, 0.5), percentile(q2_us, 0.99));
  Json row = Json::object();
  row["name"] = std::string("queries");
  row["q1_p50_us"] = percentile(q1_us, 0.5);
  row["q1_p99_us"] = percentile(q1_us, 0.99);
  row["q2_p50_us"] = percentile(q2_us, 0.5);
  row["q2_p99_us"] = percentile(q2_us, 0.99);
  row["pairs"] = static_cast<std::int64_t>(pairs.size());
  report.add_row(std::move(row));

  const bool written = report.write("bench_segments");
  std::filesystem::remove_all(spill_root);
  return written ? 0 : 1;
}
