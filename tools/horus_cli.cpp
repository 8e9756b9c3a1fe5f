// horus_cli — command-line front end for capturing, storing and analyzing
// causal execution graphs.
//
//   horus_cli capture   --workload trainticket|synthetic [--seed N]
//                       [--events N] [--duration-s N] --out FILE
//                       [--falcon-trace FILE]
//                       [--distributed [--partitions N] [--intra N]
//                        [--inter N] [--wal-dir DIR] [--broker-out DIR]
//                        [--fault-seed N] [--fault-crash-every N]
//                        [--fault-max-crashes N] [--fault-fail P]
//                        [--fault-duplicate P] [--fault-redeliver P]
//                        [--fault-stall P]]
//   horus_cli stats     --graph FILE
//   horus_cli validate  --graph FILE
//   horus_cli query     --graph FILE [--threads N] [--deadline-ms N]
//                       [--max-rows N] [--max-visited N] QUERY
//   horus_cli shiviz    --graph FILE [--only-logs] [--out FILE]
//   horus_cli dot       --graph FILE --from EVENTID --to EVENTID [--out FILE]
//   horus_cli dlq       --broker DIR [--topic NAME]
//   horus_cli serve     --data-dir DIR [--seed N] [--duration-s N]
//                       [--partitions N] [--intra N] [--inter N]
//                       [--checkpoint-ms N] [--requests N] [--out FILE]
//
// `serve` runs horusd: the always-on service (continuous synthetic mesh
// traffic, incremental clocks, periodic atomic checkpoints, overload
// degradation). It runs until --duration-s elapses or SIGINT/SIGTERM
// arrives, then shuts down gracefully (final flush+commit+checkpoint). A
// restart over the same --data-dir restores the last checkpoint and
// replays the queue window before ingesting new traffic.
//
// `capture` runs a workload through the full adapter/encoder pipeline and
// writes a reloadable graph snapshot (logical time already assigned). With
// --distributed it deploys the queue-backed multi-worker pipeline instead
// of the embedded facade; the --fault-* flags arm the deterministic fault
// injector (crashes, duplicates, stalls, transient failures — see
// queue/fault.h) so operators can rehearse recovery, and --wal-dir makes
// the inter stage's pending pairs durable across the injected crashes.
// `dlq` prints the dead-letter topic of a persisted broker (--broker-out).
// The analysis subcommands load a snapshot, re-derive vector clocks and
// answer causal queries — the offline half of the Horus workflow.
//
// Guardrails: --deadline-ms / --max-rows / --max-visited arm a cooperative
// QueryGuard, so a runaway query on an adversarial graph returns a partial
// result with the tripped limit named instead of hanging. Every numeric
// flag is validated (negative, zero, garbage and overflowing values are
// usage errors, not silent defaults), and so is every flag name: a flag the
// subcommand does not take (a misspelt --max-visted) is a usage error, not
// a silently ignored guardrail.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/falcon_trace.h"
#include "common/query_guard.h"
#include "common/shutdown.h"
#include "core/horus.h"
#include "core/pipeline.h"
#include "core/segment_clocks.h"
#include "core/validator.h"
#include "queue/broker.h"
#include "queue/fault.h"
#include "gen/synthetic.h"
#include "gen/topology.h"
#include "service/service.h"
#include "graph/dot_export.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "query/evaluator.h"
#include "query/procedures.h"
#include "shiviz/shiviz_export.h"
#include "trainticket/trainticket.h"

namespace {

using namespace horus;

/// A bad flag value: main() prints the message plus the usage text and
/// exits 2 (distinct from runtime failures, which exit 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::int64_t parse_flag_int(const std::string& key, const std::string& text) {
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw UsageError("--" + key + ": expected an integer, got '" + text +
                     "'");
  }
}

double parse_flag_double(const std::string& key, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw UsageError("--" + key + ": expected a number, got '" + text + "'");
  }
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = {}) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : parse_flag_int(key, it->second);
  }
  /// get_int with an inclusive validity range; out-of-range values are
  /// usage errors instead of being silently accepted or defaulted.
  [[nodiscard]] std::int64_t get_int_in(const std::string& key,
                                        std::int64_t fallback,
                                        std::int64_t min,
                                        std::int64_t max) const {
    const std::int64_t value = get_int(key, fallback);
    if (value < min || value > max) {
      throw UsageError("--" + key + ": " + std::to_string(value) +
                       " is out of range [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]");
    }
    return value;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback
                               : parse_flag_double(key, it->second);
  }
  /// For the --fault-* flags: a probability in [0, 1].
  [[nodiscard]] double get_probability(const std::string& key) const {
    const double p = get_double(key, 0.0);
    if (p < 0.0 || p > 1.0) {
      throw UsageError("--" + key + ": probability must be in [0, 1]");
    }
    return p;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options.contains(key);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "true";
      }
    } else {
      args.positional.push_back(std::move(arg));
    }
  }
  return args;
}

/// The flags each subcommand takes: exactly the ones usage() lists for it.
const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"capture",
     {"workload", "seed", "events", "duration-s", "out", "falcon-trace",
      "distributed", "partitions", "intra", "inter", "wal-dir", "broker-out",
      "fault-seed", "fault-crash-every", "fault-max-crashes", "fault-fail",
      "fault-duplicate", "fault-redeliver", "fault-stall"}},
    {"stats", {"graph", "metrics", "segment-nodes", "shards"}},
    {"validate", {"graph"}},
    {"query",
     {"graph", "threads", "profile", "explain", "deadline-ms", "max-rows",
      "max-visited"}},
    {"shiviz", {"graph", "only-logs", "out"}},
    {"dot",
     {"graph", "from", "to", "out", "threads", "deadline-ms", "max-visited"}},
    {"dlq", {"broker", "topic"}},
    {"serve",
     {"data-dir", "seed", "duration-s", "partitions", "intra", "inter",
      "checkpoint-ms", "requests", "out", "segment-nodes", "segment-shards",
      "segment-budget-mb"}},
};

/// Rejects any flag the command does not take (unknown commands fall
/// through to usage() in main).
void check_flags(const Args& args) {
  const auto it = kCommandFlags.find(args.command);
  if (it == kCommandFlags.end()) return;
  for (const auto& [key, value] : args.options) {
    if (!it->second.contains(key)) {
      throw UsageError("unknown flag --" + key + " for " + args.command);
    }
  }
}

int usage() {
  std::fprintf(stderr, R"(usage:
  horus_cli capture   --workload trainticket|synthetic [--seed N]
                      [--events N] [--duration-s N] --out FILE
                      [--falcon-trace FILE]
                      [--distributed [--partitions N] [--intra N] [--inter N]
                       [--wal-dir DIR] [--broker-out DIR]
                       [--fault-seed N] [--fault-crash-every N]
                       [--fault-max-crashes N] [--fault-fail P]
                       [--fault-duplicate P] [--fault-redeliver P]
                       [--fault-stall P]]
  horus_cli stats     --graph FILE [--metrics text|json|both|none]
                      [--segment-nodes N [--shards N]]
                      (dumps the graph summary plus the process metrics
                       registry; default --metrics both. --segment-nodes
                       carves the graph into sealed segments and prints the
                       per-segment table and per-shard rollup)
  horus_cli validate  --graph FILE
  horus_cli query     --graph FILE [--threads N] [--profile] [--explain]
                      [--deadline-ms N] [--max-rows N] [--max-visited N]
                      'MATCH ... RETURN ...'
                      (query text also accepted on stdin; --profile prints a
                       per-stage cost breakdown after the result; --explain
                       prints the chosen plan — scan, pushed predicates,
                       estimated vs actual rows — before the result, or why
                       the query runs clause by clause)
  horus_cli shiviz    --graph FILE [--only-logs] [--out FILE]
  horus_cli dot       --graph FILE --from EVENTID --to EVENTID [--out FILE]
                      [--threads N] [--deadline-ms N] [--max-visited N]

  --threads N   worker threads for query evaluation and causal-graph
                extraction (default: hardware concurrency; 1 = sequential;
                results are identical for every N)
  --deadline-ms N / --max-rows N / --max-visited N
                query guardrails: stop cooperatively when the wall-clock
                deadline, per-clause row budget or visited-node budget is
                exhausted and return the partial result with the tripped
                limit named (counted in horus_query_limit_hits_total)
  horus_cli dlq       --broker DIR [--topic NAME]
  horus_cli serve     --data-dir DIR [--seed N] [--duration-s N]
                      [--partitions N] [--intra N] [--inter N]
                      [--checkpoint-ms N] [--requests N] [--out FILE]
                      [--segment-nodes N] [--segment-shards N]
                      [--segment-budget-mb N]
                      (horusd: continuous ingestion with periodic atomic
                       checkpoints; runs until --duration-s or SIGINT/
                       SIGTERM, then a graceful final checkpoint; restarting
                       over the same --data-dir restores and replays.
                       --segment-nodes seals the graph into immutable
                       segments, checkpointed individually; the budget
                       LRU-evicts cold segments to bound resident memory)
)");
  return 2;
}

/// Loads a snapshot and re-derives logical time (VCs are not persisted).
std::pair<std::unique_ptr<ExecutionGraph>, std::unique_ptr<LogicalClockAssigner>>
load_graph(const std::string& path) {
  auto graph = std::make_unique<ExecutionGraph>();
  graph->load(path);
  auto assigner = std::make_unique<LogicalClockAssigner>(*graph);
  assigner->assign();
  return {std::move(graph), std::move(assigner)};
}

/// The queue-backed deployment: events flow broker -> intra workers ->
/// broker -> inter workers, optionally under injected faults, with the
/// recovery statistics printed at the end.
int cmd_capture_distributed(const Args& args) {
  const std::string workload = args.get("workload", "trainticket");
  const std::string out_path = args.get("out");
  if (out_path.empty()) return usage();
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  queue::Broker broker;
  queue::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", static_cast<std::int64_t>(seed)));
  plan.produce_failure_p = args.get_probability("fault-fail");
  plan.poll_failure_p = plan.produce_failure_p;
  plan.duplicate_p = args.get_probability("fault-duplicate");
  plan.redeliver_p = args.get_probability("fault-redeliver");
  plan.stall_p = args.get_probability("fault-stall");
  plan.crash_every = static_cast<std::uint64_t>(
      args.get_int_in("fault-crash-every", 0, 0, 1'000'000'000));
  plan.max_crashes_per_group =
      static_cast<int>(args.get_int_in("fault-max-crashes", 3, 0, 1'000'000));
  if (plan.enabled()) {
    broker.set_fault_injector(std::make_shared<queue::FaultInjector>(plan));
  }

  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions =
      static_cast<int>(args.get_int_in("partitions", 4, 1, 1024));
  options.intra_workers =
      static_cast<int>(args.get_int_in("intra", 2, 1, 256));
  options.inter_workers =
      static_cast<int>(args.get_int_in("inter", 2, 1, 256));
  options.event_flush_interval_ms = 20;
  options.relationship_flush_interval_ms = 20;
  options.wal_dir = args.get("wal-dir");
  Pipeline pipeline(broker, graph, options);
  pipeline.start();

  if (workload == "trainticket") {
    tt::TrainTicketOptions tt_options;
    tt_options.seed = seed;
    tt_options.duration_ns = args.get_int_in("duration-s", 60, 1, 1'000'000) * 1'000'000'000;
    // On SIGINT/SIGTERM stop feeding the pipeline; the drain+stop below
    // then flushes and commits what was already published.
    EventSinkFn sink = pipeline.sink();
    const auto report = tt::run_trainticket(tt_options, [&sink](Event e) {
      if (shutdown_requested()) return;
      sink(std::move(e));
    });
    std::printf("trainticket: %llu events published\n",
                static_cast<unsigned long long>(report.total_events));
  } else if (workload == "synthetic") {
    gen::ClientServerOptions gen_options;
    gen_options.seed = seed;
    gen_options.num_events =
        static_cast<std::size_t>(args.get_int_in("events", 10'000, 1, 1'000'000'000));
    for (Event& e : gen::client_server_events(gen_options)) {
      if (shutdown_requested()) break;  // wind down via drain+stop below
      pipeline.publish(e);
    }
    std::printf("synthetic: %llu events published\n",
                static_cast<unsigned long long>(pipeline.events_published()));
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  if (shutdown_requested()) {
    std::fprintf(stderr,
                 "interrupted by signal %d: flushing and committing the "
                 "pipeline before exit\n",
                 shutdown_signal());
  }
  const bool drained = pipeline.drain();
  if (!drained) {
    std::fprintf(stderr, "warning: pipeline drain timed out\n");
  }
  pipeline.stop();

  LogicalClockAssigner assigner(graph);
  assigner.assign();
  graph.save(out_path);
  std::printf("graph snapshot (%zu nodes, %zu relationships) -> %s\n",
              graph.store().node_count(), graph.store().edge_count(),
              out_path.c_str());
  std::printf(
      "pipeline: published=%llu processed=%llu retried=%llu "
      "dead-lettered=%llu recoveries=%llu deduplicated=%llu\n",
      static_cast<unsigned long long>(pipeline.events_published()),
      static_cast<unsigned long long>(pipeline.events_processed()),
      static_cast<unsigned long long>(pipeline.events_retried()),
      static_cast<unsigned long long>(pipeline.events_dead_lettered()),
      static_cast<unsigned long long>(pipeline.recoveries()),
      static_cast<unsigned long long>(pipeline.events_deduplicated()));

  if (args.has("broker-out")) {
    broker.persist(args.get("broker-out"));
    std::printf("broker state (topics, offsets, dlq) -> %s\n",
                args.get("broker-out").c_str());
  }
  return drained ? 0 : 1;
}

int cmd_capture(const Args& args) {
  if (args.has("distributed")) return cmd_capture_distributed(args);
  const std::string workload = args.get("workload", "trainticket");
  const std::string out_path = args.get("out");
  if (out_path.empty()) return usage();
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  Horus horus;
  std::vector<Event> raw_events;
  EventSinkFn sink = [&horus, &raw_events](Event e) {
    if (shutdown_requested()) return;  // seal + save what we have
    raw_events.push_back(e);
    horus.ingest(std::move(e));
  };

  if (workload == "trainticket") {
    tt::TrainTicketOptions options;
    options.seed = seed;
    options.duration_ns = args.get_int_in("duration-s", 60, 1, 1'000'000) * 1'000'000'000;
    const auto report = tt::run_trainticket(options, sink);
    std::printf("trainticket: %llu events captured; F13 manifested: %s\n",
                static_cast<unsigned long long>(report.total_events),
                report.payment_failed ? "yes" : "no");
  } else if (workload == "synthetic") {
    gen::ClientServerOptions options;
    options.seed = seed;
    options.num_events =
        static_cast<std::size_t>(args.get_int_in("events", 10'000, 1, 1'000'000'000));
    for (Event& e : gen::client_server_events(options)) sink(std::move(e));
    std::printf("synthetic: %zu events captured\n", raw_events.size());
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  horus.seal();
  horus.graph().save(out_path);
  std::printf("graph snapshot (%zu nodes, %zu relationships) -> %s\n",
              horus.graph().store().node_count(),
              horus.graph().store().edge_count(), out_path.c_str());

  if (args.has("falcon-trace")) {
    baselines::write_falcon_trace(raw_events, args.get("falcon-trace"));
    std::printf("falcon-compatible event trace -> %s\n",
                args.get("falcon-trace").c_str());
  }
  return 0;
}

int cmd_stats(const Args& args) {
  auto [graph, assigner] = load_graph(args.get("graph"));
  const auto& store = graph->store();
  std::map<std::string, std::size_t> by_label;
  for (graph::NodeId v = 0; v < store.node_count(); ++v) {
    ++by_label[store.node_label(v)];
  }
  std::printf("nodes: %zu\nedges: %zu\ntimelines: %zu\n",
              store.node_count(), store.edge_count(),
              assigner->clocks().timeline_count());
  for (const auto& [label, count] : by_label) {
    std::printf("  %-8s %zu\n", label.c_str(), count);
  }

  // --segment-nodes N carves the loaded graph into sealed segments and
  // dumps the per-segment table plus the per-shard rollup — the same view
  // horusd reports from its live store.
  if (args.has("segment-nodes")) {
    graph::SegmentOptions seg_options;
    seg_options.nodes_per_segment = static_cast<std::uint32_t>(
        args.get_int_in("segment-nodes", 4096, 1, 1 << 24));
    seg_options.shard_count = static_cast<std::size_t>(
        args.get_int_in("shards", 4, 1, 1024));
    graph::SegmentManager& segments = enable_segments(*graph, seg_options);
    std::printf("segments: %zu (%zu sealed, %zu evicted)\n",
                segments.segment_count(), segments.sealed_count(),
                segments.evicted_count());
    std::printf("  %-5s %-10s %-8s %-6s %-9s %-8s %s\n", "seg", "first",
                "nodes", "shard", "state", "pins", "bytes");
    for (const graph::SegmentInfo& info : segments.list()) {
      std::printf("  %-5u %-10u %-8u %-6zu %-9s %-8d %zu\n", info.id,
                  info.first, info.count, info.shard,
                  !info.sealed ? "active"
                  : info.resident ? "sealed"
                                  : "evicted",
                  info.pins, info.payload_bytes);
    }
    std::printf("%s", segments.shard_report().c_str());
  }

  // Mirror the loaded graph into the registry so the dump always carries
  // the basics, then expose everything instrumented code recorded while
  // this process ran (clock assignment, pool activity, ...).
  obs::Registry& registry = obs::Registry::global();
  registry.gauge("horus_graph_nodes", "Nodes in the loaded graph")
      .set(static_cast<std::int64_t>(store.node_count()));
  registry.gauge("horus_graph_edges", "Edges in the loaded graph")
      .set(static_cast<std::int64_t>(store.edge_count()));
  registry.gauge("horus_graph_timelines", "Timelines in the loaded graph")
      .set(static_cast<std::int64_t>(assigner->clocks().timeline_count()));
  // Pre-register the guardrail counters so operators always see them (at
  // zero when nothing tripped) instead of wondering whether the family
  // exists.
  obs::Family<obs::Counter>& limit_hits = registry.counters(
      "horus_query_limit_hits_total",
      "Queries cut short by a guardrail, by tripped limit");
  for (const char* reason :
       {"deadline", "max_rows", "max_visited_nodes", "cancelled"}) {
    limit_hits.with({{"limit", reason}});
  }
  // Same idea for the planner counters: always visible, zero until a query
  // runs in this process.
  registry.counter("horus_query_plans_built_total",
                   "Queries lowered into a logical plan (planned or fallback)");
  registry.counter(
      "horus_query_plan_fallbacks_total",
      "Queries the planner declined, executed by the legacy pipeline");
  registry.counter("horus_query_predicates_pushed_total",
                   "WHERE conjuncts pushed into planned scans/filters");
  registry.counter(
      "horus_query_plan_segments_pruned_total",
      "Sealed segments skipped by planned range scans via summaries");

  const std::string mode = args.get("metrics", "both");
  if (mode == "text" || mode == "both") {
    std::printf("-- metrics (text) --\n%s", registry.expose_text().c_str());
  }
  if (mode == "json" || mode == "both") {
    std::printf("-- metrics (json) --\n%s\n", registry.expose_json().c_str());
  }
  return 0;
}

int cmd_validate(const Args& args) {
  auto [graph, assigner] = load_graph(args.get("graph"));
  const auto report = validate_graph(*graph, assigner->clocks());
  std::printf("%s\n", report.to_string().c_str());
  return report.ok() ? 0 : 1;
}

/// The CLI parallelism knob, shared by query and dot.
QueryOptions query_options(const Args& args) {
  return QueryOptions{.threads = static_cast<unsigned>(args.get_int_in(
      "threads",
      static_cast<std::int64_t>(ThreadPool::default_parallelism()), 1,
      4096))};
}

/// The CLI guardrail knobs (absent = unlimited; explicit flags must be
/// >= 1 — "0 milliseconds" is a usage error, not "no deadline").
QueryLimits query_limits(const Args& args) {
  QueryLimits limits;
  if (args.has("deadline-ms")) {
    limits.deadline_ms = args.get_int_in("deadline-ms", 1, 1, 86'400'000);
  }
  if (args.has("max-rows")) {
    limits.max_rows = static_cast<std::uint64_t>(
        args.get_int_in("max-rows", 1, 1, 1'000'000'000'000));
  }
  if (args.has("max-visited")) {
    limits.max_visited_nodes = static_cast<std::uint64_t>(
        args.get_int_in("max-visited", 1, 1, 1'000'000'000'000));
  }
  return limits;
}

int cmd_query(const Args& args) {
  QueryOptions options = query_options(args);
  const QueryLimits limits = query_limits(args);
  auto [graph, assigner] = load_graph(args.get("graph"));
  // Constructed after the snapshot load so the deadline covers query
  // execution only.
  QueryGuard guard(limits);
  if (limits.any()) options.guard = &guard;
  obs::QueryProfile profile;
  if (args.has("profile")) options.profile = &profile;
  query::QueryEngine engine(*graph, options);
  query::register_horus_procedures(engine, *graph, assigner->clocks(),
                                   options);

  std::string text;
  if (!args.positional.empty()) {
    text = args.positional[0];
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      text += line;
      text += '\n';
    }
  }
  try {
    query::QueryResult result;
    if (args.has("explain")) {
      auto explained = engine.explain(text);
      std::printf("%s", explained.plan_text(/*include_timing=*/true).c_str());
      result = std::move(explained.result);
    } else {
      result = engine.run(text);
    }
    std::printf("%s(%zu rows)\n", result.to_table().c_str(),
                result.rows.size());
    if (result.truncated) {
      std::fflush(stdout);  // keep the notice after the table when merged
      std::fprintf(stderr,
                   "partial result: %s limit hit (visited %llu nodes, "
                   "produced %llu rows); raise --deadline-ms/--max-rows/"
                   "--max-visited for the full answer\n",
                   result.truncated_reason.c_str(),
                   static_cast<unsigned long long>(guard.visited()),
                   static_cast<unsigned long long>(guard.rows()));
    }
    if (options.profile != nullptr) {
      std::printf("%s", profile.to_text().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "query failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_shiviz(const Args& args) {
  auto [graph, assigner] = load_graph(args.get("graph"));
  shiviz::ExportOptions options;
  options.only_logs = args.has("only-logs");
  const std::string text =
      shiviz::export_all(*graph, assigner->clocks(), options);
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    out << text;
    std::printf("shiviz log -> %s\n", args.get("out").c_str());
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

int cmd_dot(const Args& args) {
  auto [graph, assigner] = load_graph(args.get("graph"));
  const auto from = graph->node_of(
      static_cast<EventId>(args.get_int("from", -1)));
  const auto to =
      graph->node_of(static_cast<EventId>(args.get_int("to", -1)));
  if (!from || !to) {
    std::fprintf(stderr, "unknown --from/--to event id\n");
    return 1;
  }
  QueryOptions q_options = query_options(args);
  const QueryLimits limits = query_limits(args);
  QueryGuard guard(limits);
  if (limits.any()) q_options.guard = &guard;
  const CausalQueryEngine q(*graph, assigner->clocks(), q_options);
  const auto causal = q.get_causal_graph(*from, *to);
  if (causal.truncated) {
    std::fprintf(stderr, "partial causal graph: %s limit hit\n",
                 guard.reason());
  }
  if (causal.nodes.empty()) {
    std::fprintf(stderr, "events are not causally related\n");
    return 1;
  }
  graph::DotOptions options;
  options.cluster_by = std::string(kPropTimeline);
  const graph::PropKeyId msg_key = graph->keys().message;
  options.node_label = [msg_key](const graph::GraphStore& store,
                                 graph::NodeId node) {
    const auto& msg = store.property(node, msg_key);
    if (const auto* s = std::get_if<std::string>(&msg)) return *s;
    return store.node_label(node) + " #" + std::to_string(node);
  };
  const std::string dot = to_dot(graph->store(), causal.nodes, options);
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    out << dot;
    std::printf("dot graph (%zu nodes) -> %s\n", causal.nodes.size(),
                args.get("out").c_str());
  } else {
    std::fputs(dot.c_str(), stdout);
  }
  return 0;
}

/// horusd: the long-running service over continuous synthetic mesh
/// traffic. Blocks until the duration elapses or a shutdown signal
/// arrives, then stops gracefully (final flush+commit+checkpoint).
int cmd_serve(const Args& args) {
  const std::string data_dir = args.get("data-dir");
  if (data_dir.empty()) return usage();
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t duration_s =
      args.get_int_in("duration-s", 0, 0, 86'400);  // 0 = until a signal

  service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.partitions =
      static_cast<int>(args.get_int_in("partitions", 4, 1, 1024));
  options.pipeline.intra_workers =
      static_cast<int>(args.get_int_in("intra", 2, 1, 256));
  options.pipeline.inter_workers =
      static_cast<int>(args.get_int_in("inter", 2, 1, 256));
  options.pipeline.event_flush_interval_ms = 10;
  options.pipeline.relationship_flush_interval_ms = 15;
  options.checkpoint_interval_ms = static_cast<int>(
      args.get_int_in("checkpoint-ms", 500, 1, 3'600'000));
  options.segment_nodes = static_cast<std::uint32_t>(
      args.get_int_in("segment-nodes", 0, 0, 1 << 24));
  options.segment_shards = static_cast<std::size_t>(
      args.get_int_in("segment-shards", 4, 1, 1024));
  options.segment_budget_bytes =
      static_cast<std::size_t>(
          args.get_int_in("segment-budget-mb", 0, 0, 1 << 20))
      << 20;

  queue::Broker broker;
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, options);

  gen::TopologyOptions topo;
  topo.seed = seed;
  topo.requests = static_cast<std::size_t>(
      args.get_int_in("requests", 8, 1, 1'000'000));  // per batch

  // The traffic source is built lazily on the first batch, after start()
  // has restored any checkpoint: a restarted daemon must allocate fresh
  // event ids and stream offsets past everything already in the graph, or
  // the generator would replay colliding ids forever.
  auto traffic = std::make_shared<std::optional<gen::ContinuousTraffic>>();
  daemon.start([traffic, topo, &graph]() mutable {
    if (!traffic->has_value()) {
      gen::TopologyOptions t = topo;
      t.id_base = graph.event_count();
      t.stream_offset_base = graph.event_count() * t.message_bytes;
      traffic->emplace(t);
    }
    return (*traffic)->next_batch();
  });
  if (daemon.restored_from_checkpoint()) {
    std::printf("horusd: restored checkpoint epoch %llu (%zu nodes)\n",
                static_cast<unsigned long long>(daemon.restored_epoch()),
                graph.store().node_count());
  }
  std::printf("horusd: serving (data-dir %s, checkpoint every %d ms%s)\n",
              data_dir.c_str(), options.checkpoint_interval_ms,
              duration_s > 0
                  ? (", for " + std::to_string(duration_s) + " s").c_str()
                  : ", until SIGINT/SIGTERM");
  std::fflush(stdout);

  const auto start = std::chrono::steady_clock::now();
  while (!shutdown_requested()) {
    if (duration_s > 0 &&
        std::chrono::steady_clock::now() - start >=
            std::chrono::seconds(duration_s)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (shutdown_requested()) {
    std::fprintf(stderr,
                 "horusd: signal %d: graceful shutdown (final checkpoint)\n",
                 shutdown_signal());
  }
  daemon.stop();

  std::printf(
      "horusd: ingested=%llu nodes=%zu edges=%zu overload-level=%s\n",
      static_cast<unsigned long long>(daemon.events_ingested()),
      graph.store().node_count(), graph.store().edge_count(),
      service::to_string(daemon.overload_level()));
  {
    // How far behind the graph is, and what the clock daemon's ticks cost:
    // what started them, and how many edges their audits checked.
    obs::Registry& metrics = obs::Registry::global();
    obs::Family<obs::Counter>& ticks =
        metrics.counters("horus_clock_ticks_total", "");
    std::printf(
        "horusd: clock ticks commit=%llu timer=%llu manual=%llu "
        "unassigned-nodes=%lld audited-edges=%llu\n",
        static_cast<unsigned long long>(
            ticks.with({{"trigger", "commit"}}).value()),
        static_cast<unsigned long long>(
            ticks.with({{"trigger", "timer"}}).value()),
        static_cast<unsigned long long>(
            ticks.with({{"trigger", "manual"}}).value()),
        static_cast<long long>(
            metrics.gauge("horus_clock_unassigned_nodes", "").value()),
        static_cast<unsigned long long>(
            metrics.counter("horus_clock_audited_edges_total", "").value()));
  }
  if (const graph::SegmentManager* segments = graph.store().segments()) {
    std::printf("horusd: segments=%zu sealed=%zu evicted=%zu "
                "resident-bytes=%zu\n%s",
                segments->segment_count(), segments->sealed_count(),
                segments->evicted_count(), segments->resident_bytes(),
                segments->shard_report().c_str());
    // Churn counters: reloads ~ evictions means the budget is thrashing
    // (something keeps faulting spilled segments back in). A heal repairs
    // the forward closure of late edges; only one that fails three times
    // recomputes every clock and faults the whole graph in.
    obs::Registry& metrics = obs::Registry::global();
    std::printf(
        "horusd: segment-churn evictions=%llu reloads=%llu clock-heals=%llu\n",
        static_cast<unsigned long long>(
            metrics.counter("horus_graph_segment_evictions_total", "").value()),
        static_cast<unsigned long long>(
            metrics.counter("horus_graph_segment_reloads_total", "").value()),
        static_cast<unsigned long long>(daemon.clock_daemon().heals()));
  }
  if (args.has("out")) {
    LogicalClockAssigner assigner(graph);
    assigner.assign();
    graph.save(args.get("out"));
    std::printf("graph snapshot -> %s\n", args.get("out").c_str());
  }
  return 0;
}

int cmd_dlq(const Args& args) {
  const std::string dir = args.get("broker");
  if (dir.empty()) return usage();
  queue::Broker broker;
  broker.load(dir);
  const std::string topic_name = args.get("topic", "horus.dlq");
  if (!broker.has_topic(topic_name)) {
    std::printf("no '%s' topic in %s\n", topic_name.c_str(), dir.c_str());
    return 0;
  }
  queue::Topic& topic = broker.topic(topic_name);
  std::uint64_t total = 0;
  for (int p = 0; p < topic.num_partitions(); ++p) {
    const queue::Partition& partition = topic.partition(p);
    std::vector<queue::Message> messages;
    partition.fetch(0, static_cast<std::size_t>(partition.end_offset()),
                    messages);
    for (const queue::Message& m : messages) {
      std::printf("%s\n", m.value.c_str());
      ++total;
    }
  }
  std::fprintf(stderr, "%llu dead-lettered message(s)\n",
               static_cast<unsigned long long>(total));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Long-running commands (capture, serve) poll this flag and wind down
  // with a clean flush/commit (and, for serve, a final checkpoint).
  horus::install_shutdown_handlers();
  try {
    check_flags(args);
    if (args.command == "capture") return cmd_capture(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "validate") return cmd_validate(args);
    if (args.command == "query") return cmd_query(args);
    if (args.command == "shiviz") return cmd_shiviz(args);
    if (args.command == "dot") return cmd_dot(args);
    if (args.command == "dlq") return cmd_dlq(args);
    if (args.command == "serve") return cmd_serve(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
