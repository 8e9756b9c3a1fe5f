// analyze: offline analysis the way `horus query --graph` does it. Before
// timing, the benchmark writes a snapshot of a 64-service mesh (64
// timelines, so vector clocks are 8x wider than the daemon workloads').
// Set-up loads it, assigns clocks and registers the horus.* procedures. A
// closed loop then runs four kinds of query — Q1 in batches, Q2 between the
// frontend's request-entry LOG events a fixed number of requests apart,
// single-MATCH queries (eventId probe, Lamport range, label+host count) and
// a Fig. 4a-shaped CALL query — so the planner, the evaluator tail, the
// Q1/Q2 engines and wide clocks do all the work while the codec, broker,
// encoders and checkpoints do none.
#include <algorithm>
#include <filesystem>
#include <map>

#include "checks.h"
#include "common/rng.h"
#include "core/causal_query.h"
#include "core/inter_encoder.h"
#include "core/intra_encoder.h"
#include "queries.h"
#include "query/evaluator.h"
#include "query/procedures.h"
#include "replay.h"
#include "report.h"

namespace perfbench {

namespace {

constexpr std::size_t kEvents = 50'000;
constexpr std::size_t kTinyEvents = 4'000;
constexpr int kServices = 64;
constexpr int kSetupReps = 20;
constexpr std::size_t kQ1Batch = 10'000;
// Queries of each kind per round; a round's mean per kind is one batch.
constexpr int kQ2PerRound = 4;
constexpr int kMatchPerRound = 3;
constexpr int kCallPerRound = 2;
constexpr std::size_t kReplayCycle = 512;

/// What the checks need from the generated events, kept instead of the
/// events so they do not count towards the workload's memory.
struct Facts {
  std::size_t events = 0;
  std::size_t edges = 0;
  std::vector<std::size_t> logs_per_service;
};

/// Answers kept for the output checks (the first few of each kind).
struct Samples {
  std::vector<std::pair<horus::graph::NodeId, horus::graph::NodeId>> q1_pairs;
  std::vector<bool> q1_answers;
  struct Q2 {
    horus::graph::NodeId a, b;
    std::vector<horus::graph::NodeId> nodes;
  };
  std::vector<Q2> q2;
  std::vector<std::pair<MatchQuery, horus::query::QueryResult>> match;
  struct Call {
    horus::graph::NodeId a, b;
    horus::query::QueryResult result;
  };
  std::vector<Call> call;
};

/// Per-round (batch) means of each kind, and every single query.
struct LoopTimes {
  std::vector<double> q1_ns, q2_ms, match_ms, call_ms;
  std::vector<double> q2_each_ms, match_each_ms, call_each_ms;
};

/// Builds the snapshot with the encoders (no clocks: analysis assigns them
/// after loading) and returns the facts the checks need.
Facts write_snapshot(const std::vector<horus::Event>& events,
                     const std::string& path) {
  Facts facts;
  facts.events = events.size();
  facts.edges = expected_edges(events);
  facts.logs_per_service.assign(kServices, 0);
  for (const horus::Event& event : events) {
    if (event.type == horus::EventType::kLog) {
      const int service = std::stoi(event.service.substr(3));  // "svc<k>"
      ++facts.logs_per_service[static_cast<std::size_t>(service)];
    }
  }
  horus::ExecutionGraph graph;
  horus::InterProcessEncoder inter(graph);
  horus::IntraProcessEncoder intra(
      graph, [&](horus::Event event) { inter.on_event(event); });
  for (const horus::Event& event : events) intra.on_event(event);
  intra.flush();
  inter.flush();
  graph.save(path);
  return facts;
}

class QueryLoop {
 public:
  QueryLoop(const horus::ExecutionGraph& graph, const horus::ClockTable& clocks,
            const horus::query::QueryEngine& engine, const QuerySampler& sampler,
            std::uint64_t seed)
      : graph_(graph),
        causal_(graph, clocks),
        engine_(engine),
        sampler_(sampler),
        rng_(seed ^ 0xA7A1EULL),
        top_(max_lamport(graph, clocks)),
        nodes_(static_cast<std::int64_t>(graph.event_count())) {}

  /// Runs rounds (at least one) until `seconds` have passed. With a traced
  /// recorder, odd rounds are traced and timed into `traced`, even ones into
  /// `plain`, so the tracing overhead is measured on interleaved rounds.
  void run(double seconds, LoopTimes& plain, LoopTimes& traced,
           Samples& samples, SpanRecorder& spans, Tally& tally) {
    SpanRecorder off(false);
    const auto start = Clock::now();
    std::vector<horus::graph::NodeId> from(kQ1Batch), to(kQ1Batch);
    for (std::uint64_t round = 0; round == 0 || seconds_since(start) < seconds;
         ++round) {
      const bool trace_round = spans.enabled() && round % 2 == 1;
      LoopTimes& times = trace_round ? traced : plain;
      SpanRecorder& recorder = trace_round ? spans : off;
      for (std::size_t k = 0; k < kQ1Batch; ++k) {
        from[k] = static_cast<horus::graph::NodeId>(rng_.uniform(0, nodes_ - 1));
        to[k] = static_cast<horus::graph::NodeId>(rng_.uniform(0, nodes_ - 1));
      }
      tally.attempt();
      {
        const SpanRecorder::Scope span(recorder, "analyze.q1_batch", 0, kQ1Batch);
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < kQ1Batch; ++k) {
          keep(causal_.happens_before(from[k], to[k]));
        }
        times.q1_ns.push_back(seconds_since(t0) * 1e9 / kQ1Batch);
      }
      if (samples.q1_pairs.empty()) {
        for (std::size_t k = 0; k < 300; ++k) {
          samples.q1_pairs.emplace_back(from[k], to[k]);
          samples.q1_answers.push_back(causal_.happens_before(from[k], to[k]));
        }
      }
      double ms = 0;
      for (int k = 0; k < kQ2PerRound; ++k) ms += q2(times, samples, recorder, tally);
      times.q2_ms.push_back(ms / kQ2PerRound);
      ms = 0;
      for (int k = 0; k < kMatchPerRound; ++k) {
        ms += match(k, times, samples, recorder, tally);
      }
      times.match_ms.push_back(ms / kMatchPerRound);
      ms = 0;
      for (int k = 0; k < kCallPerRound; ++k) {
        ms += call(times, samples, recorder, tally);
      }
      times.call_ms.push_back(ms / kCallPerRound);
    }
  }

 private:
  /// Each query returns its latency in ms.
  double q2(LoopTimes& times, Samples& samples, SpanRecorder& spans,
            Tally& tally) {
    const auto [a, b] = sampler_.q2_pair(rng_);
    const horus::graph::NodeId na = *graph_.node_of(a);
    const horus::graph::NodeId nb = *graph_.node_of(b);
    tally.attempt();
    SpanRecorder::Scope span(spans, "analyze.q2");
    const auto t0 = Clock::now();
    horus::CausalGraphResult result = causal_.get_causal_graph(na, nb);
    const double ms = seconds_since(t0) * 1e3;
    span.set_items(result.nodes.size());
    span.close();
    times.q2_each_ms.push_back(ms);
    if (result.truncated) tally.fail("truncated Q2 result");
    if (samples.q2.size() < 40) {
      samples.q2.push_back({na, nb, std::move(result.nodes)});
    }
    return ms;
  }

  double match(int kind, LoopTimes& times, Samples& samples,
               SpanRecorder& spans, Tally& tally) {
    const MatchQuery query = sampler_.match(kind, rng_, top_);
    tally.attempt();
    SpanRecorder::Scope span(spans, "analyze.match");
    const auto t0 = Clock::now();
    horus::query::QueryResult result = engine_.run(query.text);
    const double ms = seconds_since(t0) * 1e3;
    span.set_items(result.rows.size());
    span.close();
    times.match_each_ms.push_back(ms);
    if (result.truncated) tally.fail("truncated MATCH result");
    if (samples.match.size() < 60) samples.match.emplace_back(query, std::move(result));
    return ms;
  }

  double call(LoopTimes& times, Samples& samples, SpanRecorder& spans,
              Tally& tally) {
    const auto [a, b] = sampler_.q2_pair(rng_);
    const std::string text = QuerySampler::call_text(a, b);
    tally.attempt();
    SpanRecorder::Scope span(spans, "analyze.call");
    const auto t0 = Clock::now();
    horus::query::QueryResult result = engine_.run(text);
    const double ms = seconds_since(t0) * 1e3;
    span.close();
    times.call_each_ms.push_back(ms);
    if (result.truncated) tally.fail("truncated CALL result");
    if (samples.call.size() < 20) {
      samples.call.push_back({*graph_.node_of(a), *graph_.node_of(b),
                              std::move(result)});
    }
    return ms;
  }

  const horus::ExecutionGraph& graph_;
  const horus::CausalQueryEngine causal_;
  const horus::query::QueryEngine& engine_;
  const QuerySampler& sampler_;
  horus::Rng rng_;
  std::int64_t top_;
  std::int64_t nodes_;
};

void check_answers(const horus::ExecutionGraph& graph, const Facts& facts,
                   const Samples& samples, Tally& tally) {
  tally.check(graph.event_count() == facts.events,
              "analyze: loaded node count equals the generated events");
  tally.check(graph.store().edge_count() == facts.edges,
              "analyze: loaded edge count equals the generated events' pairs");
  const Oracle oracle(graph.store());

  std::size_t wrong = 0;
  for (std::size_t k = 0; k < samples.q1_pairs.size(); ++k) {
    const auto [a, b] = samples.q1_pairs[k];
    if (oracle.reaches(a, b) != samples.q1_answers[k]) ++wrong;
  }
  tally.check(wrong == 0, "analyze: " + std::to_string(wrong) +
                              " Q1 answers differ from BFS reachability");

  wrong = 0;
  for (const auto& q : samples.q2) {
    std::vector<horus::graph::NodeId> got = q.nodes;
    std::sort(got.begin(), got.end());
    if (got != oracle.between(q.a, q.b) || got.size() < 2) ++wrong;
  }
  tally.check(wrong == 0, "analyze: " + std::to_string(wrong) +
                              " Q2 node sets differ from desc(a) ∩ anc(b)");

  wrong = 0;
  for (const auto& [query, result] : samples.match) {
    std::size_t expected = 0;
    std::size_t got = result.rows.size();
    switch (query.kind) {
      case MatchQuery::kEventProbe:
        expected = 1;
        break;
      case MatchQuery::kLamportRange:
        expected = oracle.count_lamport(query.lo, query.lo + kLamportWidth);
        break;
      case MatchQuery::kHostCount:
        expected = facts.logs_per_service[static_cast<std::size_t>(query.service)];
        got = result.rows.size() == 1
                  ? static_cast<std::size_t>(result.rows[0][0].as_int())
                  : 0;
        break;
    }
    if (got != expected) ++wrong;
  }
  tally.check(wrong == 0, "analyze: " + std::to_string(wrong) +
                              " MATCH row counts differ from the events");

  wrong = 0;
  for (const auto& c : samples.call) {
    std::size_t logs = 0;
    for (const horus::graph::NodeId v : oracle.between(c.a, c.b)) {
      if (graph.store().node_label(v) == "LOG") ++logs;
    }
    bool ok = c.result.rows.size() == 1 &&
              static_cast<std::size_t>(c.result.rows[0][0].as_int()) == logs;
    if (ok) {
      const auto& times = c.result.rows[0][1].as_list();
      for (std::size_t k = 1; k < times.size(); ++k) {
        ok = ok && times[k - 1].as_int() <= times[k].as_int();
      }
      ok = ok && times.size() == logs;
    }
    if (!ok) ++wrong;
  }
  tally.check(wrong == 0, "analyze: " + std::to_string(wrong) +
                              " CALL results differ from the causal LOG set");
}

}  // namespace

Report run_analyze(const RunConfig& config, Tally& tally,
                 Params& params) {
  const MeshSpec mesh{kServices, config.tiny ? kTinyEvents : kEvents,
                      config.seed};
  params.add("services", mesh.services);
  params.add("events", static_cast<double>(mesh.events));
  params.add("setup_reps", kSetupReps);
  params.add("q1_batch", static_cast<double>(kQ1Batch));

  const std::string snapshot = config.work_dir + "/analyze.hgraph";
  QuerySampler sampler;
  sampler.services = mesh.services;
  Facts facts;
  {
    const std::vector<horus::Event> events = generate_mesh(mesh);
    sampler.entries = request_entries(events);
    for (const horus::Event& event : events) sampler.ids.push_back(event.id);
    facts = write_snapshot(events, snapshot);
  }

  // The run is kSetupReps equal segments, each a fresh set-up followed by
  // the query loop for the rest of the segment, so the set-ups sample the
  // whole run's host state rather than its first seconds. The previous
  // graph is freed before the next load, so only one is ever resident.
  SpanRecorder spans(config.trace);
  std::vector<double> setups, loads, assigns, visible;
  LoadedGraph loaded;
  std::unique_ptr<horus::query::QueryEngine> engine;
  LoopTimes plain, traced;
  Samples samples;
  const auto run_start = Clock::now();
  for (int k = 0; k < kSetupReps; ++k) {
    engine.reset();
    loaded = LoadedGraph{};
    const auto start = Clock::now();
    loaded = load_snapshot(snapshot, spans);
    engine = std::make_unique<horus::query::QueryEngine>(*loaded.graph);
    horus::query::register_horus_procedures(*engine, *loaded.graph,
                                            loaded.assigner->clocks());
    setups.push_back(seconds_since(start));
    loads.push_back(loaded.load_s);
    assigns.push_back(loaded.assign_s);
    visible.push_back(loaded.load_s + loaded.assign_s);
    QueryLoop loop(*loaded.graph, loaded.assigner->clocks(), *engine, sampler,
                   config.seed + static_cast<std::uint64_t>(k));
    const double segment_end = config.seconds * (k + 1) / kSetupReps;
    loop.run(segment_end - seconds_since(run_start), plain, traced, samples,
             spans, tally);
  }
  const double rss = peak_rss_mib();
  const horus::ExecutionGraph& graph = *loaded.graph;
  const horus::ClockTable& clocks = loaded.assigner->clocks();
  params.add("q2_queries", static_cast<double>(plain.q2_each_ms.size()));
  params.add("q1_batches", static_cast<double>(plain.q1_ns.size()));

  check_answers(graph, facts, samples, tally);

  if (!config.trace) {
    // Offline, every event becomes queryable at the same instant: when the
    // snapshot has been loaded and clocked. So visibility latency is that
    // time for every event, and the ingest rate is events over it.
    // The 95th percentile of the set-ups spread over the run, for the same
    // reason as batch_p95.
    const double visible_s = percentile(visible, 0.95);
    EndToEnd e;
    e.setup_s = median(setups);
    e.ingest_eps = static_cast<double>(facts.events) / visible_s;
    e.visible_p50_ms = visible_s * 1e3;
    e.q1_ns = batch_p95(plain.q1_ns);
    e.q2_ms = batch_p95(plain.q2_ms);
    e.match_ms = batch_p95(plain.match_ms);
    e.call_ms = batch_p95(plain.call_ms);
    e.peak_rss_mb = rss;
    return {end_to_end_metrics(e),
            {{"q2_p50_ms", percentile(plain.q2_each_ms, 0.50), "ms", ""},
             {"q2_p99_ms", percentile(plain.q2_each_ms, 0.99), "ms", ""},
             {"match_p50_ms", percentile(plain.match_each_ms, 0.50), "ms", ""},
             {"call_p50_ms", percentile(plain.call_each_ms, 0.50), "ms", ""}}};
  }

  Layers layers;
  const double n = static_cast<double>(facts.events);
  layers.graph_load_s = median(loads);
  layers.assign_s = median(assigns);
  layers.snapshot_bytes_per_event = static_cast<double>(disk_bytes(snapshot)) / n;
  layers.clock_bytes_per_event = static_cast<double>(clocks.clock_bytes()) / n;
  const double plain_q2 = batch_p95(plain.q2_ms);
  layers.trace_overhead_pct =
      (batch_p95(traced.q2_ms) - plain_q2) / plain_q2 * 100.0;
  layers.queries = query_breakdown(graph, clocks, sampler, config.seed,
                                   config.tiny, tally, spans);
  // The codec, broker, encoders and checkpoint are bypassed by this
  // workload; the replay measures what they would cost on its events.
  engine.reset();
  loaded = LoadedGraph{};
  layers.replay = staged_replay(generate_mesh(mesh), kReplayCycle,
                                config.work_dir, spans);
  if (!config.trace_path.empty()) spans.write(config.trace_path);
  return {layer_metrics(layers), {}};
}

}  // namespace perfbench
