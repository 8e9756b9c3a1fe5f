// Figure 7 reproduction: query Q1 ("may a causally affect b?") — the graph
// database's shortest-path traversal vs. Horus' logical-time comparison,
// across graph sizes.
//
// Paper reference (ms, log-log): traversal grows from 1.84 ms @100 events to
// 109 ms @100k; Horus stays flat (1.8-5 ms, dominated by query overhead) and
// is ~30x faster at 100k. Ten event pairs per size, each pair's causal graph
// spanning 10% of the events; both approaches are insensitive to pair
// location.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "bench_main.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/causal_query.h"
#include "graph/traversal.h"

namespace {

using namespace horus;

/// Ten (a, b) pairs whose causal span is ~10% of the graph each.
std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs_for(
    std::size_t num_events) {
  // The synthetic execution is a 2-process ladder; node ids follow flush
  // order (both timelines' chains). Use positions within one timeline chain
  // spread over the graph.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;
  const auto n = static_cast<graph::NodeId>(num_events);
  const graph::NodeId span = n / 10;
  for (graph::NodeId i = 0; i < 10; ++i) {
    const graph::NodeId a = i * (n - span - 1) / 10;
    out.emplace_back(a, a + span);
  }
  return out;
}

void BM_Q1_ShortestPath(benchmark::State& state) {
  const auto num_events = static_cast<std::size_t>(state.range(0));
  Horus& horus = bench::synthetic_horus(num_events);
  const auto& store = horus.graph().store();
  const auto pairs = pairs_for(store.node_count());
  std::size_t visited = 0;
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      auto result = graph::shortest_path(store, a, b);
      visited += result.visited;
      benchmark::DoNotOptimize(result.found());
    }
  }
  state.counters["visited/query"] = benchmark::Counter(
      static_cast<double>(visited) /
      (static_cast<double>(state.iterations()) * pairs.size()));
  state.SetLabel("traversal baseline");
}

void BM_Q1_HorusVectorClocks(benchmark::State& state) {
  const auto num_events = static_cast<std::size_t>(state.range(0));
  Horus& horus = bench::synthetic_horus(num_events);
  const auto query = horus.query();
  const auto pairs = pairs_for(horus.graph().store().node_count());
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(query.happens_before_vc(a, b));
    }
  }
  // Footprint of the index answering the query (the VC arena; the
  // VC-vs-chain-index comparison lives in bench_clocks).
  state.counters["clock_bytes/event"] = benchmark::Counter(
      static_cast<double>(horus.clocks().clock_bytes()) /
      static_cast<double>(horus.graph().store().node_count()));
  state.SetLabel("logical time (VC comparison)");
}

/// Q1 fan-out: a monitoring-style sweep of 10k independent isCausallyRelated
/// queries, partitioned across the pool. Each chunk answers its queries with
/// O(1) VC comparisons; registered at threads=1 and threads=N so the JSON
/// records the scaling delta.
void BM_Q1_HorusSweep(benchmark::State& state, unsigned threads) {
  const auto num_events = static_cast<std::size_t>(state.range(0));
  Horus& horus = bench::synthetic_horus(num_events);
  const auto query = horus.query();
  const auto n = static_cast<graph::NodeId>(
      horus.graph().store().node_count());

  std::mt19937 rng(7);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs(10'000);
  for (auto& [a, b] : pairs) {
    a = pick(rng);
    b = pick(rng);
  }

  ThreadPool& pool = ThreadPool::shared();
  const std::size_t grain = 512;
  std::vector<std::size_t> hits(ThreadPool::chunk_count(pairs.size(), grain));
  for (auto _ : state) {
    pool.parallel_for(pairs.size(), grain, threads,
                      [&](ThreadPool::ChunkRange chunk) {
                        std::size_t local = 0;
                        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                          local += query.happens_before_vc(pairs[i].first,
                                                           pairs[i].second);
                        }
                        hits[chunk.index] = local;
                      });
    benchmark::DoNotOptimize(hits.data());
  }
  std::size_t related = 0;
  for (const std::size_t h : hits) related += h;
  state.counters["queries"] = static_cast<double>(pairs.size());
  state.counters["related"] = static_cast<double>(related);
  state.SetLabel("VC sweep, threads=" + std::to_string(threads));
}

}  // namespace

BENCHMARK(BM_Q1_ShortestPath)
    ->Arg(100)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Q1_HorusVectorClocks)
    ->Arg(100)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  const unsigned n = horus::bench::threads_flag(argc, argv);
  std::vector<unsigned> variants{1};
  if (n > 1) variants.push_back(n);
  for (const unsigned t : variants) {
    const std::string name =
        "BM_Q1_HorusSweep/threads:" + std::to_string(t);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [t](benchmark::State& state) { BM_Q1_HorusSweep(state, t); })
        ->Arg(10'000)
        ->Arg(100'000)
        ->Unit(benchmark::kMicrosecond);
  }
  return horus::bench::run_benchmark_main(argc, argv);
}
