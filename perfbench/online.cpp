// online: horusd fed an 8-service mesh at a fixed 3,000 events/s, about a
// tenth of what it sustains at saturation on 4 cores, in phases of a fixed
// number of events on fresh daemons. The publisher is an open loop: event i is
// due at start + i/rate, and both its visibility and the generator's own
// lateness are timed from that due time. A watcher thread resolves probes
// (one event in 32) the moment node_of() finds the event and the clock
// daemon reports it assigned. Meanwhile one closed-loop client with a 2 ms
// think time alternates a Q2 between recently visible request entries and a
// single-MATCH text query, each under admit(). Writes therefore run beside
// reads while the clock daemon's lock, the checkpoint commit gate and the
// overload controller are all live.
#include <atomic>
#include <thread>

#include "checks.h"
#include "common/rng.h"
#include "daemon.h"
#include "registry_delta.h"
#include "replay.h"
#include "report.h"

namespace perfbench {

namespace {

constexpr double kRate = 3000.0;
// A phase is a fixed number of events (5 s at kRate) on a fresh daemon:
// checkpoints rewrite the whole graph, so a longer phase would stall
// visibility longer and be a different workload.
constexpr std::size_t kPhaseEvents = 15'000;
constexpr std::size_t kTinyPhaseEvents = 1'500;
constexpr std::size_t kProbeEvery = 32;
constexpr int kSetupRepsPerPhase = 16;
constexpr auto kThinkTime = std::chrono::milliseconds(2);

struct Phase {
  double setup_s = 0;
  double eps = 0;
  double ingest_s = 0;  ///< first due time until drained and clocked
  double drain_s = 0;
  double wall_s = 0;
  int max_level = 0;
  std::uint64_t rejects = 0;
  std::vector<double> visible_ms, late_ms, q2_ms, match_ms;
  RegistrySnapshot obs;
  double peak_rss_mb = 0;  ///< process peak once the phase was checked
};

/// One open-loop phase on a fresh daemon; `inspect` runs on the drained
/// daemon after the output check.
Phase run_phase(const RunConfig& config, const std::vector<horus::Event>& events,
                const Reference& reference, const QuerySampler& sampler,
                const std::string& name, SpanRecorder& spans, Tally& tally,
                const std::function<void(Daemon&)>& inspect) {
  Phase phase;
  const RegistrySnapshot before = RegistrySnapshot::take();
  const auto born = Clock::now();
  Daemon daemon(config.work_dir + "/" + name);
  phase.setup_s = daemon.setup_s;
  horus::service::HorusService& service = *daemon.service;

  const std::size_t n = events.size();
  std::vector<std::size_t> entry_index;  // event index of each entry
  for (std::size_t i = 0, e = 0; i < n && e < sampler.entries.size(); ++i) {
    if (events[i].id == sampler.entries[e]) {
      entry_index.push_back(i);
      ++e;
    }
  }
  std::vector<Clock::time_point> due(n);
  std::atomic<std::size_t> published{0};
  std::atomic<bool> stop_client{false};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / kRate));
  }

  std::thread watcher([&] {
    const std::size_t probes = (n + kProbeEvery - 1) / kProbeEvery;
    const auto deadline = due.back() + std::chrono::seconds(60);
    std::size_t next = 0;
    while (next < probes && Clock::now() < deadline) {
      const std::size_t i = next * kProbeEvery;
      if (i < published.load(std::memory_order_acquire) &&
          daemon.visible(events[i].id)) {
        phase.visible_ms.push_back(seconds_between(due[i], Clock::now()) * 1e3);
        ++next;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::thread client([&] {
    horus::Rng rng(config.seed ^ 0xC11E47ULL);
    std::size_t visible = 0;  // entries [0, visible) are visible
    // Runs `call` in an admitted session; false when admission refused.
    auto admitted = [&](auto&& call) {
      tally.attempt();
      try {
        const auto session = service.admit();
        call(session);
        return true;
      } catch (const horus::service::OverloadError&) {
        tally.fail("query session rejected (admit)");
        ++phase.rejects;
        return false;
      }
    };
    for (std::uint32_t request = 0;
         !stop_client.load(std::memory_order_relaxed); ++request) {
      while (visible < entry_index.size() &&
             entry_index[visible] < published.load(std::memory_order_acquire) &&
             daemon.visible(sampler.entries[visible])) {
        ++visible;
      }
      if (visible > static_cast<std::size_t>(sampler.gap)) {
        const auto a = daemon.graph.node_of(
            sampler.entries[visible - 1 - static_cast<std::size_t>(sampler.gap)]);
        const auto b = daemon.graph.node_of(sampler.entries[visible - 1]);
        const auto t0 = Clock::now();
        if (admitted([&](const auto& session) {
              const horus::CausalGraphResult result =
                  service.get_causal_graph(session, *a, *b);
              if (result.truncated) tally.fail("truncated Q2 result");
            })) {
          spans.add("online.q2", t0, Clock::now(), request);
          phase.q2_ms.push_back(seconds_since(t0) * 1e3);
        }
        std::this_thread::sleep_for(kThinkTime);

        const std::string text =
            request % 2 == 0
                ? "MATCH (n:EVENT {eventId: " +
                      std::to_string(horus::value_of(
                          sampler.entries[static_cast<std::size_t>(rng.uniform(
                              0, static_cast<std::int64_t>(visible) - 1))])) +
                      "}) RETURN n.host AS host"
                : "MATCH (n:LOG {host: 'svc" +
                      std::to_string(rng.uniform(0, sampler.services - 1)) +
                      "'}) RETURN count(*) AS logs";
        const auto t1 = Clock::now();
        if (admitted([&](const auto& session) {
              const horus::query::QueryResult result =
                  service.run_query(session, text);
              if (result.truncated) tally.fail("truncated MATCH result");
            })) {
          spans.add("online.match", t1, Clock::now(), request);
          phase.match_ms.push_back(seconds_since(t1) * 1e3);
        }
      }
      std::this_thread::sleep_for(kThinkTime);
    }
  });

  phase.late_ms.reserve(n);
  std::size_t sent_events = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<std::int64_t>(i) == config.drop_event) {
      published.store(i + 1, std::memory_order_release);
      continue;
    }
    ++sent_events;
    std::this_thread::sleep_until(due[i]);
    const auto sent = Clock::now();
    phase.late_ms.push_back(seconds_between(due[i], sent) * 1e3);
    for (;;) {
      tally.attempt();
      try {
        service.publish(events[i]);
        break;
      } catch (const horus::service::OverloadError&) {
        tally.fail("publish rejected (overload)");
      }
    }
    spans.add("service.publish", sent, Clock::now(),
              static_cast<std::uint32_t>(i));
    published.store(i + 1, std::memory_order_release);
    if (i % 256 == 0) {
      phase.max_level =
          std::max(phase.max_level, static_cast<int>(service.overload_level()));
    }
  }
  watcher.join();
  stop_client.store(true, std::memory_order_relaxed);
  client.join();
  tally.attempt();
  if (phase.visible_ms.size() < (n + kProbeEvery - 1) / kProbeEvery) {
    tally.fail("probe never became visible");
  }

  tally.attempt();
  const auto drain_start = Clock::now();
  if (!service.pipeline().drain()) tally.fail("drain timed out");
  phase.drain_s = seconds_since(drain_start);
  tally.attempt();
  if (!daemon.wait_assigned(sent_events, 60.0)) {
    tally.fail("clock daemon did not assign every node");
  }
  phase.ingest_s = seconds_between(start, Clock::now());
  phase.eps = static_cast<double>(sent_events) / phase.ingest_s;
  phase.max_level =
      std::max(phase.max_level, static_cast<int>(service.overload_level()));

  tally.attempt();
  if (!daemon.wait_ticks(1, 10.0)) tally.fail("clock daemon stopped ticking");
  service.clock_daemon().with_clocks([&](const horus::ClockTable& clocks) {
    check_against_reference(reference, daemon.graph, clocks, "online " + name,
                            tally);
    return 0;
  });
  phase.wall_s = seconds_since(born);
  phase.obs = RegistrySnapshot::delta(before, RegistrySnapshot::take());
  phase.peak_rss_mb = peak_rss_mib();
  if (inspect) inspect(daemon);
  return phase;
}

}  // namespace

Report run_online(const RunConfig& config, Tally& tally,
                 Params& params) {
  const MeshSpec mesh{8, config.tiny ? kTinyPhaseEvents : kPhaseEvents,
                      config.seed};
  params.add("services", mesh.services);
  params.add("rate_eps", kRate);
  params.add("events_per_phase", static_cast<double>(mesh.events));
  params.add("probe_every", static_cast<double>(kProbeEvery));
  params.add("think_ms", static_cast<double>(kThinkTime.count()));
  params.add("workers", "1 intra + 1 inter");
  params.add("flush_ms", "10 intra / 15 inter");

  const std::vector<horus::Event> events = generate_mesh(mesh);
  const Reference reference = build_reference(events, config.seed);
  QuerySampler sampler;
  sampler.entries = request_entries(events);
  for (const horus::Event& event : events) sampler.ids.push_back(event.id);
  sampler.services = mesh.services;

  std::vector<double> setups;
  // Phases repeat on fresh daemons until the run's time is used; a traced
  // run alternates untraced and traced phases, so the tracing overhead
  // compares like with like.
  SpanRecorder spans(config.trace);
  SpanRecorder off(false);
  ServiceQueryTimes queries;
  Layers layers;
  std::vector<Phase> plain, traced;
  const auto run_start = Clock::now();
  for (int number = 0;; ++number) {
    // Set-up is sub-millisecond, so it is repeated on throwaway daemons
    // before every phase: its median gets enough samples, taken across the
    // whole run rather than only in the run's first moments.
    for (int k = 0; k < kSetupRepsPerPhase; ++k) {
      const Daemon daemon(config.work_dir + "/setup-" + std::to_string(k));
      setups.push_back(daemon.setup_s);
    }
    const bool trace_this = config.trace && number % 2 == 1;
    Phase phase = run_phase(
        config, events, reference, sampler, "phase-" + std::to_string(number),
        trace_this ? spans : off, tally, [&](Daemon& daemon) {
          if (!config.trace) {
            service_queries(daemon, sampler, config.seed + number,
                            config.tiny ? kTinyQueryProbeSeconds
                                        : kQueryProbeSeconds,
                            tally, queries);
          }
          if (trace_this && traced.empty()) {
            measure_daemon_layers(daemon, sampler, config, tally, spans,
                                  layers);
          }
        });
    (trace_this ? traced : plain).push_back(std::move(phase));
    const bool enough = !config.trace || (!plain.empty() && !traced.empty());
    if (enough && seconds_since(run_start) >= config.seconds) break;
  }
  params.add("phases", static_cast<double>(plain.size() + traced.size()));

  // Phases are identical by construction, so their samples are pooled.
  auto pooled = [](const std::vector<Phase>& phases, auto member) {
    std::vector<double> out;
    for (const Phase& p : phases) {
      out.insert(out.end(), (p.*member).begin(), (p.*member).end());
    }
    return out;
  };
  const std::vector<double> visible = pooled(plain, &Phase::visible_ms);
  if (!config.trace) {
    const std::vector<double> q2 = pooled(plain, &Phase::q2_ms);
    std::vector<double> eps;
    for (const Phase& p : plain) {
      setups.push_back(p.setup_s);
      eps.push_back(p.eps);
    }
    EndToEnd e;
    e.setup_s = median(setups);
    e.ingest_eps = median(eps);
    e.visible_p50_ms = percentile(visible, 0.50);
    // Query latencies are gated on the drained daemon, where each loop does
    // the same work all run long; the live client's latencies run beside
    // ingest and are printed below.
    e.q1_ns = batch_p95(queries.q1_ns);
    e.q2_ms = batch_p95(queries.q2_ms);
    e.match_ms = batch_p95(queries.match_ms);
    e.call_ms = batch_p95(queries.call_ms);
    e.peak_rss_mb = plain.front().peak_rss_mb;
    params.add("probes", static_cast<double>(visible.size()));
    params.add("q2_queries", static_cast<double>(q2.size()));
    // Printed only, because they moved too much between runs of the same
    // code to gate (README.md): the visibility tail, which checkpoint stalls
    // set; the live client's medians; and the live Q2 tail, which is
    // queries waiting for a clock tick's exclusive lock.
    return {end_to_end_metrics(e),
            {{"visible_p99_ms", percentile(visible, 0.99), "ms", ""},
             {"q2_p50_ms", percentile(q2, 0.50), "ms", ""},
             {"match_p50_ms", percentile(pooled(plain, &Phase::match_ms), 0.50),
              "ms", ""},
             {"call_p50_ms", percentile(queries.call_ms, 0.50), "ms", ""},
             {"q2_live_p99_ms", percentile(q2, 0.99), "ms", ""},
             {"bench.gen_late_p99_ms",
              percentile(pooled(plain, &Phase::late_ms), 0.99), "ms", ""}}};
  }

  const Phase& t = traced.front();
  layers.obs =
      DaemonObs::from(t.obs, static_cast<double>(events.size()), t.wall_s);
  const double plain_p50 = percentile(visible, 0.50);
  layers.trace_overhead_pct =
      (percentile(pooled(traced, &Phase::visible_ms), 0.50) - plain_p50) /
      plain_p50 * 100.0;
  layers.daemon_eps = t.eps;
  layers.drain_s = t.drain_s;
  layers.drain_share = t.drain_s / t.ingest_s;
  layers.admit_rejects = static_cast<double>(t.rejects);
  layers.overload_max_level = t.max_level;
  layers.gen_late_p99_ms = percentile(t.late_ms, 0.99);
  const auto stats = spans.aggregate();
  if (const auto it = stats.find("service.publish"); it != stats.end()) {
    layers.publish_p99_us = percentile(it->second.durations_s, 0.99) * 1e6;
  }
  const double per_flush =
      layers.obs.intra_flushes > 0
          ? static_cast<double>(events.size()) / layers.obs.intra_flushes
          : 512.0;
  params.add("replay_events_per_cycle", per_flush);
  layers.replay = staged_replay(events, static_cast<std::size_t>(per_flush),
                                config.work_dir, spans);
  if (!config.trace_path.empty()) spans.write(config.trace_path);
  return {layer_metrics(layers), layer_extras(layers)};
}

}  // namespace perfbench
