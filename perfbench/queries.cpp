#include "queries.h"

#include <algorithm>

#include "core/causal_query.h"
#include "obs/query_profile.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/procedures.h"

namespace perfbench {

using horus::Rng;

std::pair<horus::EventId, horus::EventId> QuerySampler::q2_pair(
    Rng& rng) const {
  const auto last = static_cast<std::int64_t>(entries.size()) - 1 - gap;
  const auto i = static_cast<std::size_t>(rng.uniform(0, std::max<std::int64_t>(0, last)));
  return {entries[i], entries[std::min(entries.size() - 1, i + static_cast<std::size_t>(gap))]};
}

MatchQuery QuerySampler::match(int kind, Rng& rng,
                               std::int64_t max_lamport) const {
  MatchQuery q;
  q.kind = static_cast<MatchQuery::Kind>(kind % 3);
  switch (q.kind) {
    case MatchQuery::kEventProbe:
      q.id = ids[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
      q.text = "MATCH (n:EVENT {eventId: " + std::to_string(horus::value_of(q.id)) +
               "}) RETURN n.host AS host";
      break;
    case MatchQuery::kLamportRange:
      q.lo = rng.uniform(1, std::max<std::int64_t>(1, max_lamport - kLamportWidth));
      q.text = "MATCH (n) WHERE n.lamportLogicalTime >= " +
               std::to_string(q.lo) + " AND n.lamportLogicalTime < " +
               std::to_string(q.lo + kLamportWidth) + " RETURN n.eventId AS id";
      break;
    case MatchQuery::kHostCount:
      q.service = static_cast<int>(rng.uniform(0, services - 1));
      q.text = "MATCH (n:LOG {host: 'svc" + std::to_string(q.service) +
               "'}) RETURN count(*) AS logs";
      break;
  }
  return q;
}

std::string QuerySampler::call_text(horus::EventId a, horus::EventId b) {
  return "MATCH (a:LOG {eventId: " + std::to_string(horus::value_of(a)) +
         "}), (b:LOG {eventId: " + std::to_string(horus::value_of(b)) +
         "}) CALL horus.getCausalGraph(a, b, TRUE) YIELD node "
         "WITH node ORDER BY node.lamportLogicalTime ASC "
         "RETURN count(node) AS logs, collect(node.lamportLogicalTime) AS times";
}

LoadedGraph load_snapshot(const std::string& path, SpanRecorder& spans) {
  LoadedGraph loaded;
  loaded.graph = std::make_unique<horus::ExecutionGraph>();
  auto start = Clock::now();
  {
    const SpanRecorder::Scope span(spans, "graph.load");
    loaded.graph->load(path);
  }
  loaded.load_s = seconds_since(start);
  start = Clock::now();
  {
    const SpanRecorder::Scope span(spans, "core.clock.assign");
    loaded.assigner = std::make_unique<horus::LogicalClockAssigner>(
        *loaded.graph,
        horus::LogicalClockAssigner::Options{.write_lamport_property = true});
    keep(loaded.assigner->assign());
  }
  loaded.assign_s = seconds_since(start);
  return loaded;
}

std::int64_t max_lamport(const horus::ExecutionGraph& graph,
                         const horus::ClockTable& clocks) {
  std::int64_t best = 1;
  const auto n = static_cast<horus::graph::NodeId>(graph.event_count());
  for (horus::graph::NodeId v = 0; v < n; ++v) {
    best = std::max(best, clocks.lamport(v));
  }
  return best;
}

QueryBreakdown query_breakdown(const horus::ExecutionGraph& graph,
                               const horus::ClockTable& clocks,
                               const QuerySampler& sampler, std::uint64_t seed,
                               bool tiny, Tally& tally, SpanRecorder& spans) {
  Rng rng(seed ^ 0xB4EAD0ULL);
  const std::int64_t top = max_lamport(graph, clocks);
  const int rounds = tiny ? 30 : 300;

  std::uint64_t candidates = 0;
  std::uint64_t rows = 0;
  for (int i = 0; i < rounds; ++i) {
    const MatchQuery q = sampler.match(i, rng, top);
    horus::obs::QueryProfile profile;
    horus::QueryOptions options;
    options.profile = &profile;
    const horus::query::QueryEngine engine(graph, options);
    horus::query::Query parsed;
    {
      const SpanRecorder::Scope span(spans, "query.parse");
      parsed = horus::query::parse_query(q.text);
    }
    {
      const SpanRecorder::Scope span(spans, "query.plan");
      keep(horus::query::Planner(graph, {}).plan(parsed).estimated_rows);
    }
    horus::query::QueryResult result;
    {
      SpanRecorder::Scope span(spans, "query.exec");
      result = engine.run(parsed);
      span.set_items(result.rows.size());
    }
    tally.attempt();
    if (result.truncated) tally.fail("truncated MATCH result");
    candidates += profile.snapshot().plan_candidates;
    rows += result.rows.size();
  }

  double call_clause_s = 0.0;
  const int calls = tiny ? 10 : 100;
  for (int i = 0; i < calls; ++i) {
    const auto [a, b] = sampler.q2_pair(rng);
    horus::obs::QueryProfile profile;
    horus::QueryOptions options;
    options.profile = &profile;
    horus::query::QueryEngine engine(graph, options);
    horus::query::register_horus_procedures(engine, graph, clocks, options);
    const auto result = engine.run(QuerySampler::call_text(a, b));
    tally.attempt();
    if (result.truncated) tally.fail("truncated CALL result");
    for (const auto& clause : profile.snapshot().clauses) {
      if (clause.clause.rfind("CALL", 0) == 0) call_clause_s += clause.seconds;
    }
  }

  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  // Enough Q2 for a p99 with ten samples beyond it.
  for (int i = 0; i < (tiny ? 30 : 1000); ++i) {
    const auto [a, b] = sampler.q2_pair(rng);
    const auto na = graph.node_of(a);
    const auto nb = graph.node_of(b);
    if (!na || !nb) continue;
    horus::obs::QueryProfile profile;
    horus::QueryOptions options;
    options.profile = &profile;
    const horus::CausalQueryEngine engine(graph, clocks, options);
    SpanRecorder::Scope span(spans, "core.causal.q2");
    const horus::CausalGraphResult result = engine.get_causal_graph(*na, *nb);
    span.set_items(result.nodes.size());
    span.close();
    tally.attempt();
    if (result.truncated) tally.fail("truncated Q2 result");
    const auto snapshot = profile.snapshot();
    admitted += snapshot.prune_admitted;
    rejected += snapshot.prune_rejected;
  }

  const auto stats = spans.aggregate();
  auto per_call_us = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s * 1e6 / static_cast<double>(it->second.count);
  };
  QueryBreakdown out;
  out.parse_us = per_call_us("query.parse");
  out.plan_us = per_call_us("query.plan");
  out.exec_us = per_call_us("query.exec");
  out.rows_examined_per_row =
      rows == 0 ? 0.0 : static_cast<double>(candidates) / static_cast<double>(rows);
  out.call_clause_ms = call_clause_s * 1e3 / calls;
  if (const auto it = stats.find("core.causal.q2"); it != stats.end()) {
    out.q2_p99_ms = percentile(it->second.durations_s, 0.99) * 1e3;
    out.q2_nodes = static_cast<double>(it->second.items) /
                   static_cast<double>(std::max<std::uint64_t>(1, it->second.count));
    // The prune tests each Lamport-range candidate against the endpoints'
    // vector clocks once: admitted plus rejected.
    out.vc_comparisons = static_cast<double>(admitted + rejected) /
                         static_cast<double>(std::max<std::uint64_t>(1, it->second.count));
  }
  out.prune_admit_ratio =
      admitted + rejected == 0
          ? 0.0
          : static_cast<double>(admitted) / static_cast<double>(admitted + rejected);
  return out;
}

}  // namespace perfbench
