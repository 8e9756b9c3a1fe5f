#include "core/causal_query.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <span>

#include "obs/metrics.h"

namespace horus {

namespace {

using QueryClock = std::chrono::steady_clock;

double seconds_since(QueryClock::time_point start) {
  return std::chrono::duration<double>(QueryClock::now() - start).count();
}

/// Registry series of the Q2 engine. Resolved once per process; each query
/// flushes its locally accumulated stage costs here in one shot — never per
/// candidate, so the <5% bench budget stays intact.
struct Q2Metrics {
  obs::Histogram& plan_seconds;
  obs::Histogram& prune_seconds;
  obs::Histogram& traverse_seconds;
  obs::Counter& queries;
  obs::Counter& admitted;
  obs::Counter& rejected;

  static const Q2Metrics& get() {
    static const Q2Metrics metrics = [] {
      obs::Registry& r = obs::Registry::global();
      obs::Family<obs::Histogram>& stages = r.histograms(
          "horus_query_stage_seconds", "Q2 stage latency (plan/prune/traverse)");
      return Q2Metrics{
          stages.with({{"stage", "plan"}}),
          stages.with({{"stage", "prune"}}),
          stages.with({{"stage", "traverse"}}),
          r.counter("horus_query_q2_total", "getCausalGraph queries run"),
          r.counter("horus_query_prune_admitted_total",
                    "Candidates surviving the VC prune"),
          r.counter("horus_query_prune_rejected_total",
                    "Candidates removed by the VC prune"),
      };
    }();
    return metrics;
  }
};

}  // namespace

// No profile hook here: these are the fig7 hot primitives (~60ns), and
// even an untaken branch is measurable. The horus.happensBefore procedure
// accounts the comparison at the query layer instead. The clock table is
// always resident, so a segmented store answers with the same single
// compare.
bool CausalQueryEngine::happens_before(graph::NodeId a,
                                       graph::NodeId b) const {
  return clocks_.happens_before(a, b);
}

bool CausalQueryEngine::happens_before_vc(graph::NodeId a,
                                          graph::NodeId b) const {
  return clocks_.vc_less(a, b);
}

void CausalQueryEngine::finalize(std::vector<graph::NodeId> kept,
                                 graph::NodeId a, graph::NodeId b,
                                 bool only_logs,
                                 CausalGraphResult& result) const {
  const graph::GraphStore& store = graph_.store();
  QueryGuard* guard = options_.guard;
  const unsigned threads = options_.effective_threads();
  const bool parallel =
      threads > 1 && kept.size() >= options_.min_parallel_items;
  const std::size_t grain = 1024;
  // Runs `fn` over the fixed-grain chunks of [0, n), or over one chunk.
  const auto for_each_chunk =
      [&](std::size_t n, const std::function<void(ThreadPool::ChunkRange)>& fn) {
        if (parallel) {
          options_.effective_pool().parallel_for(n, grain, threads, fn);
        } else {
          fn(ThreadPool::ChunkRange{0, 0, n});
        }
      };

  // Label ids and out-edges are copied under one store lock per chunk, never
  // read through spans: horusd runs Q2 while the encoders append edges,
  // which can reallocate an out-list under a span.
  std::vector<graph::NodeCopy> copies(
      parallel ? ThreadPool::chunk_count(kept.size(), grain) : 1);
  for_each_chunk(kept.size(), [&](ThreadPool::ChunkRange chunk) {
    store.copy_nodes(
        std::span(kept).subspan(chunk.begin, chunk.end - chunk.begin),
        {.edges = graph::EdgeDirection::kOut}, copies[chunk.index]);
  });
  const std::size_t per_copy = parallel ? grain : kept.size() + 1;

  // (node, index in kept) of the returned nodes: only-logs keeps LOG events
  // and the endpoints, filtered before the sort.
  std::vector<std::pair<graph::NodeId, std::uint32_t>> order;
  order.reserve(kept.size());
  const std::optional<std::uint32_t> log =
      only_logs ? store.label_id("LOG") : std::nullopt;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const graph::NodeId v = kept[i];
    if (only_logs && v != a && v != b &&
        (!log || copies[i / per_copy].labels[i % per_copy] != *log)) {
      continue;
    }
    order.emplace_back(v, static_cast<std::uint32_t>(i));
  }
  // Stable causal presentation order: Lamport clock, node id as tiebreaker.
  std::sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
    const auto lx = clocks_.lamport(x.first);
    const auto ly = clocks_.lamport(y.first);
    if (lx != ly) return lx < ly;
    return x.first < y.first;
  });

  // Induced edge set. The membership bitmap is written before the fan-out
  // and only read inside it; per-chunk edge vectors over the sorted nodes
  // concatenate in chunk order — identical edge order to the sequential
  // scan.
  graph::NodeId max_id = 0;
  for (const auto& [v, i] : order) max_id = std::max(max_id, v);
  std::vector<bool> in_set(static_cast<std::size_t>(max_id) + 1, false);
  for (const auto& [v, i] : order) in_set[v] = true;
  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> partial(
      parallel ? ThreadPool::chunk_count(order.size(), grain) : 1);
  for_each_chunk(order.size(), [&](ThreadPool::ChunkRange chunk) {
    auto& local = partial[chunk.index];
    for (std::size_t k = chunk.begin; k < chunk.end; ++k) {
      if (guard != nullptr && !guard->keep_going()) return;
      const auto [v, i] = order[k];
      for (const graph::Edge& e : copies[i / per_copy].of(i % per_copy)) {
        if (e.to < in_set.size() && in_set[e.to]) local.emplace_back(v, e.to);
      }
    }
  });
  if (guard != nullptr && guard->stopped()) result.truncated = true;
  for (const auto& local : partial) {
    result.edges.insert(result.edges.end(), local.begin(), local.end());
  }
  result.nodes.reserve(order.size());
  for (const auto& [v, i] : order) result.nodes.push_back(v);
}

CausalGraphResult CausalQueryEngine::get_causal_graph(graph::NodeId a,
                                                      graph::NodeId b,
                                                      bool only_logs) const {
  CausalGraphResult result;
  const graph::GraphStore& store = graph_.store();

  const std::int64_t lc_a = clocks_.lamport(a);
  const std::int64_t lc_b = clocks_.lamport(b);
  if (lc_a == 0 || lc_b == 0 || lc_a > lc_b) return result;
  if (a != b && !clocks_.happens_before(a, b)) return result;

  // Stage wall times are taken only under --profile: a steady_clock read
  // between stages is an optimizer barrier, and four of them cost ~20% on
  // the smallest fig8 case. The registry counters below stay unconditional.
  const bool timed = options_.profile != nullptr;

  // Step 1 (plan): LC-bounded over-approximation via the ordered index,
  // addressed by the pre-resolved key id (no string hashing on the query
  // path).
  const auto plan_start = timed ? QueryClock::now() : QueryClock::time_point{};
  std::vector<graph::NodeId> candidates =
      store.range_scan(graph_.keys().lamport, lc_a, lc_b);
  result.lc_candidates = candidates.size();

  // Guardrails: the candidate list *is* the visited set of this engine.
  // Charging it up front bounds the prune; a tripped budget shrinks the
  // list to the admitted prefix so the partial result honors the limit.
  QueryGuard* guard = options_.guard;
  if (guard != nullptr && !guard->admit_visited(candidates.size())) {
    result.truncated = true;
    const std::uint64_t budget = guard->limits().max_visited_nodes;
    if (budget != 0 && candidates.size() > budget) {
      candidates.resize(static_cast<std::size_t>(budget));
    } else if (guard->limit_hit() != QueryGuard::Limit::kVisited) {
      candidates.clear();  // deadline/cancel: stop doing work outright
    }
  }
  const double plan_seconds = timed ? seconds_since(plan_start) : 0.0;
  const auto prune_start = timed ? QueryClock::now() : QueryClock::time_point{};

  // Step 2: vector-clock pruning of events concurrent with a or b. The
  // prune is a pure per-candidate predicate, so it partitions into fixed
  // chunks whose kept-vectors concatenate in chunk order — identical output
  // to the sequential scan. The v->b half of the test is a component read
  // of b's VC (hb(v,b) iff VC(b)[tl(v)] >= pos(v)).
  const auto vc_b = clocks_.vc_span(b);
  std::vector<graph::NodeId> kept;
  const unsigned threads = options_.effective_threads();
  auto keep = [&](graph::NodeId v) {
    if (v == a || v == b) return true;
    const std::int32_t tv = clocks_.timeline_of(v);
    if (tv < 0) return false;
    const std::int32_t cb =
        static_cast<std::size_t>(tv) < vc_b.size()
            ? vc_b[static_cast<std::size_t>(tv)]
            : 0;
    if (cb < clocks_.position(v)) return false;  // !hb(v, b)
    return clocks_.happens_before(a, v);
  };
  if (threads <= 1 || candidates.size() < options_.min_parallel_items) {
    kept.reserve(candidates.size());
    for (const graph::NodeId v : candidates) {
      if (guard != nullptr && !guard->keep_going()) {
        result.truncated = true;
        break;
      }
      if (keep(v)) kept.push_back(v);
    }
  } else {
    ThreadPool& pool = options_.effective_pool();
    const std::size_t grain = 2048;
    const std::size_t chunks =
        ThreadPool::chunk_count(candidates.size(), grain);
    std::vector<std::vector<graph::NodeId>> partial(chunks);
    pool.parallel_for(candidates.size(), grain, threads,
                      [&](ThreadPool::ChunkRange chunk) {
                        std::vector<graph::NodeId>& local =
                            partial[chunk.index];
                        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                          if (guard != nullptr && (i - chunk.begin) % 256 == 0 &&
                              !guard->keep_going()) {
                            return;
                          }
                          if (keep(candidates[i])) {
                            local.push_back(candidates[i]);
                          }
                        }
                      });
    if (guard != nullptr && guard->stopped()) result.truncated = true;
    std::size_t total = 0;
    for (const auto& local : partial) total += local.size();
    kept.reserve(total);
    for (const auto& local : partial) {
      kept.insert(kept.end(), local.begin(), local.end());
    }
  }
  const double prune_seconds = timed ? seconds_since(prune_start) : 0.0;
  const std::uint64_t admitted = kept.size();
  const std::uint64_t rejected = candidates.size() - kept.size();

  const auto traverse_start =
      timed ? QueryClock::now() : QueryClock::time_point{};
  finalize(std::move(kept), a, b, only_logs, result);
  const double traverse_seconds = timed ? seconds_since(traverse_start) : 0.0;

  // One flush per query. Counters are unconditional; the stage histograms
  // only receive observations from profiled queries (the wall times do not
  // exist otherwise).
  const Q2Metrics& metrics = Q2Metrics::get();
  metrics.queries.inc();
  metrics.admitted.inc(admitted);
  metrics.rejected.inc(rejected);
  if (timed) {
    metrics.plan_seconds.observe(plan_seconds);
    metrics.prune_seconds.observe(prune_seconds);
    metrics.traverse_seconds.observe(traverse_seconds);
    options_.profile->add_plan(plan_seconds, result.lc_candidates);
    options_.profile->add_prune(prune_seconds, admitted, rejected);
    options_.profile->add_traverse(traverse_seconds, result.nodes.size(),
                                   result.edges.size());
  }
  return result;
}

}  // namespace horus
