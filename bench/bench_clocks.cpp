// Vector-clock footprint and latency on wide-timeline graphs — the
// measurement behind DESIGN.md §13.
//
// The flat arena stores one dense VC row per event, so resident bytes grow
// with events x timelines; at 10k timelines that is the dominant memory
// term of the whole pipeline. Each size records bytes/event, assign time and
// Q1/Q2 p50 over one clock assignment.
//
// Hand-rolled main (bench_main.h JsonReport). Flags: --json <path>,
// --quick (smaller sizes), --seed N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_main.h"
#include "bench_util.h"
#include "core/horus.h"
#include "core/logical_clocks.h"
#include "gen/synthetic.h"

namespace {

using namespace horus;

struct SizeSpec {
  int timelines;
  std::size_t events_per_timeline;
};

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(p * (samples.size() - 1));
  return samples[idx];
}

/// Per-pair Q1 latency samples: each pair is timed over `reps` calls and
/// contributes its mean as one sample (a single call is below timer
/// resolution on the flat arena).
template <typename Fn>
std::vector<double> q1_samples_ns(
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs,
    Fn&& q1) {
  constexpr int reps = 64;
  std::vector<double> samples;
  samples.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const auto start = bench::BenchClock::now();
    bool acc = false;
    for (int r = 0; r < reps; ++r) acc ^= q1(a, b);
    const double total_ns =
        std::chrono::duration<double, std::nano>(bench::BenchClock::now() -
                                                 start)
            .count();
    benchmark::DoNotOptimize(acc);
    samples.push_back(total_ns / reps);
  }
  return samples;
}

/// Q2 endpoint pairs with non-trivial causal cuts: for sampled starts, the
/// related end with the largest Lamport gap.
std::vector<std::pair<graph::NodeId, graph::NodeId>> q2_endpoints(
    const ClockTable& clocks, graph::NodeId n, std::size_t want) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;
  const graph::NodeId stride = std::max<graph::NodeId>(1, n / 64);
  for (graph::NodeId a = 0; a < n && out.size() < want; a += stride) {
    graph::NodeId best = a;
    std::int64_t best_gap = 0;
    for (graph::NodeId b = 0; b < n; ++b) {
      if (b == a || !clocks.happens_before(a, b)) continue;
      const std::int64_t gap = clocks.lamport(b) - clocks.lamport(a);
      if (gap > best_gap) {
        best_gap = gap;
        best = b;
      }
    }
    if (best != a) out.emplace_back(a, best);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const bool quick = bench::flag_present(argc, argv, "--quick");
  std::uint64_t seed = 7;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  // Wide-timeline shapes: the arena's worst case. Events per timeline stays
  // small at 10k timelines so the arena stays a few hundred MB.
  std::vector<SizeSpec> sizes;
  if (quick) {
    sizes = {{200, 10}, {1'000, 2}};
  } else {
    sizes = {{1'000, 10}, {10'000, 2}};
  }

  for (const SizeSpec& spec : sizes) {
    // One graph per size; Q1 and Q2 query the same clock assignment.
    Horus setup;  // builds the graph AND the lamport index Q2 scans
    {
      auto events = gen::random_execution(
          {.num_processes = spec.timelines,
           .events_per_process = spec.events_per_timeline,
           .seed = seed});
      for (Event& e : events) setup.ingest(std::move(e));
      setup.seal();
    }
    ExecutionGraph& graph = setup.graph();
    const auto n = static_cast<graph::NodeId>(graph.store().node_count());
    const std::size_t events = graph.store().node_count();

    std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
    std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
    std::vector<std::pair<graph::NodeId, graph::NodeId>> q1_pairs(
        quick ? 400 : 1'000);
    for (auto& [a, b] : q1_pairs) {
      a = pick(rng);
      b = pick(rng);
    }

    LogicalClockAssigner assigner(graph, {.write_lamport_property = false});
    const auto assign_start = bench::BenchClock::now();
    assigner.assign();
    const double assign_ms = bench::ms_since(assign_start);
    const ClockTable& clocks = assigner.clocks();
    const auto q2_pairs = q2_endpoints(clocks, n, quick ? 8 : 16);

    // Q1 is one arena component read; Q2 prunes each Lamport-range
    // candidate against VC(b).
    const double bytes_per_event = static_cast<double>(clocks.clock_bytes()) /
                                   static_cast<double>(events);
    const double q1_p50 = percentile(
        q1_samples_ns(q1_pairs,
                      [&](graph::NodeId a, graph::NodeId b) {
                        return clocks.happens_before(a, b);
                      }),
        0.5);
    const CausalQueryEngine engine(graph, clocks);
    std::vector<double> q2_us;
    for (const auto& [a, b] : q2_pairs) {
      const auto start = bench::BenchClock::now();
      const auto result = engine.get_causal_graph(a, b);
      q2_us.push_back(bench::ms_since(start) * 1'000.0);
      benchmark::DoNotOptimize(result.nodes.data());
    }
    const double q2_p50 = percentile(std::move(q2_us), 0.5);

    std::printf(
        "clocks/%-6d timelines  %10.1f B/event  assign %8.2f ms  "
        "Q1 p50 %8.1f ns  Q2 p50 %10.1f us\n",
        spec.timelines, bytes_per_event, assign_ms, q1_p50, q2_p50);

    Json row = Json::object();
    row["name"] = "clocks/" + std::to_string(spec.timelines);
    row["timelines"] = static_cast<std::int64_t>(spec.timelines);
    row["events"] = static_cast<std::int64_t>(events);
    row["clock_bytes"] = static_cast<std::int64_t>(clocks.clock_bytes());
    row["bytes_per_event"] = bytes_per_event;
    row["assign_ms"] = assign_ms;
    row["q1_p50_ns"] = q1_p50;
    row["q2_p50_us"] = q2_p50;
    report.add_row(std::move(row));
  }

  return report.write("bench_clocks") ? 0 : 1;
}
