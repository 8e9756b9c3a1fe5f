#include "daemon.h"

#include <filesystem>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "query/evaluator.h"
#include "query/procedures.h"

namespace perfbench {

namespace {

template <typename Pred>
bool poll_until(Pred pred, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (!pred()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

horus::service::ServiceOptions daemon_options(const std::string& data_dir) {
  horus::service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.intra_workers = 1;
  options.pipeline.inter_workers = 1;
  options.pipeline.event_flush_interval_ms = 10;
  options.pipeline.relationship_flush_interval_ms = 15;
  return options;
}

Daemon::Daemon(const std::string& dir) : data_dir(dir) {
  std::filesystem::remove_all(data_dir);
  const auto start = Clock::now();
  service = std::make_unique<horus::service::HorusService>(
      broker, graph, daemon_options(data_dir));
  service->start();
  setup_s = seconds_since(start);
}

Daemon::~Daemon() {
  // kill(): the measurement is over, so skip the final checkpoint that a
  // graceful stop() would write.
  service->kill();
  service.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
}

bool Daemon::visible(horus::EventId id) const {
  const auto node = graph.node_of(id);
  if (!node) return false;
  return service->clock_daemon().with_clocks(
      [&](const horus::ClockTable& clocks) { return clocks.assigned(*node); });
}

bool Daemon::wait_assigned(std::size_t nodes, double timeout_s) const {
  return poll_until(
      [&] {
        return graph.event_count() >= nodes &&
               service->clock_daemon().assigned_nodes() >= nodes;
      },
      timeout_s);
}

bool Daemon::wait_ticks(int n, double timeout_s) const {
  // A tick already running when we start may not see the latest writes, so
  // it does not count.
  const std::uint64_t target = service->clock_daemon().ticks() + 1 +
                               static_cast<std::uint64_t>(n);
  return poll_until(
      [&] { return service->clock_daemon().ticks() >= target; }, timeout_s);
}

bool Daemon::wait_calm(double timeout_s) const {
  return poll_until(
      [&] {
        return service->overload_level() ==
               horus::service::OverloadLevel::kNormal;
      },
      timeout_s);
}

void service_queries(Daemon& daemon, const QuerySampler& sampler,
                     std::uint64_t seed, double seconds, Tally& tally,
                     ServiceQueryTimes& times) {
  using horus::service::HorusService;
  HorusService& service = *daemon.service;
  // A burst of ingest can leave the overload controller at a raised level;
  // it steps down once the backlog is gone. Queries wait for that rather
  // than being shed.
  (void)daemon.wait_calm(10.0);
  auto admit = [&]() -> std::optional<HorusService::Session> {
    tally.attempt();
    try {
      return service.admit();
    } catch (const horus::service::OverloadError&) {
      tally.fail("query session rejected (admit)");
      return std::nullopt;
    }
  };

  horus::Rng rng(seed ^ 0x5E4F1CEULL);
  const auto nodes = static_cast<std::int64_t>(daemon.graph.event_count());
  const std::int64_t top = service.clock_daemon().with_clocks(
      [&](const horus::ClockTable& clocks) {
        return max_lamport(daemon.graph, clocks);
      });
  constexpr std::size_t kBatch = 10'000;
  std::vector<horus::graph::NodeId> from(kBatch), to(kBatch);
  // Rounds of one Q1 batch, four Q2, three MATCH and one CALL for a fixed
  // time, so the daemon's own ticks and checkpoints overlap the queries in
  // proportion rather than by chance.
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      from[k] = static_cast<horus::graph::NodeId>(rng.uniform(0, nodes - 1));
      to[k] = static_cast<horus::graph::NodeId>(rng.uniform(0, nodes - 1));
    }
    if (const auto session = admit()) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < kBatch; ++k) {
        keep(service.happens_before(*session, from[k], to[k]));
      }
      times.q1_ns.push_back(seconds_since(t0) * 1e9 / kBatch);
    }

    double ms = 0;
    int done = 0;
    for (int k = 0; k < 4; ++k) {
      const auto [a, b] = sampler.q2_pair(rng);
      const auto na = daemon.graph.node_of(a);
      const auto nb = daemon.graph.node_of(b);
      const auto t0 = Clock::now();
      const auto session = admit();
      if (!session || !na || !nb) continue;
      const horus::CausalGraphResult result =
          service.get_causal_graph(*session, *na, *nb);
      ms += seconds_since(t0) * 1e3;
      ++done;
      if (result.truncated) tally.fail("truncated Q2 result");
    }
    if (done > 0) times.q2_ms.push_back(ms / done);

    ms = 0;
    done = 0;
    for (int k = 0; k < 3; ++k) {
      const MatchQuery query = sampler.match(k, rng, top);
      const auto t0 = Clock::now();
      const auto session = admit();
      if (!session) continue;
      const horus::query::QueryResult result =
          service.run_query(*session, query.text);
      ms += seconds_since(t0) * 1e3;
      ++done;
      if (result.truncated) tally.fail("truncated MATCH result");
    }
    if (done > 0) times.match_ms.push_back(ms / done);

    const auto [a, b] = sampler.q2_pair(rng);
    const std::string text = QuerySampler::call_text(a, b);
    tally.attempt();
    const auto t0 = Clock::now();
    service.clock_daemon().with_clocks([&](const horus::ClockTable& clocks) {
      horus::query::QueryEngine engine(daemon.graph);
      horus::query::register_horus_procedures(engine, daemon.graph, clocks);
      const horus::query::QueryResult result = engine.run(text);
      if (result.truncated) tally.fail("truncated CALL result");
      return 0;
    });
    times.call_ms.push_back(seconds_since(t0) * 1e3);
  }
}

void measure_daemon_layers(Daemon& daemon, const QuerySampler& sampler,
                           const RunConfig& config, Tally& tally,
                           SpanRecorder& spans, Layers& layers) {
  const double nodes =
      static_cast<double>(std::max<std::size_t>(1, daemon.graph.event_count()));
  daemon.service->clock_daemon().with_clocks(
      [&](const horus::ClockTable& clocks) {
        layers.queries = query_breakdown(daemon.graph, clocks, sampler,
                                         config.seed, config.tiny, tally, spans);
        layers.clock_bytes_per_event =
            static_cast<double>(clocks.clock_bytes()) / nodes;
        return 0;
      });
  const std::string path = config.work_dir + "/daemon-graph.hgraph";
  daemon.graph.save(path);
  layers.snapshot_bytes_per_event = static_cast<double>(disk_bytes(path)) / nodes;
  const LoadedGraph loaded = load_snapshot(path, spans);
  layers.graph_load_s = loaded.load_s;
  layers.assign_s = loaded.assign_s;
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace perfbench
