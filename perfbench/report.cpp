#include "report.h"

namespace perfbench {

namespace {

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s", ""},
      {"ingest_eps", e.ingest_eps, "events/s", ""},
      {"visible_p50_ms", e.visible_p50_ms, "ms", ""},
      {"q1_ns", e.q1_ns, "ns", ""},
      {"q2_ms", e.q2_ms, "ms", ""},
      {"match_ms", e.match_ms, "ms", ""},
      {"call_ms", e.call_ms, "ms", ""},
      {"peak_rss_mb", e.peak_rss_mb, "MiB", ""},
  };
}

DaemonObs DaemonObs::from(const RegistrySnapshot& delta, double events,
                          double wall_s) {
  DaemonObs o;
  o.events = events;
  o.wall_s = wall_s;
  o.produced = delta.sum("horus_queue_produced_total");
  o.intra_flushes =
      delta.sum("horus_encoder_flush_seconds_count", "stage=\"intra\"");
  o.intra_flush_busy_s =
      delta.sum("horus_encoder_flush_seconds_sum", "stage=\"intra\"");
  o.inter_flush_busy_s =
      delta.sum("horus_encoder_flush_seconds_sum", "stage=\"inter\"");
  o.inter_edges =
      delta.sum("horus_pipeline_events_total", "stage=\"inter_edges\"");
  o.wal_spills = delta.sum("horus_pipeline_wal_spills_total");
  o.tick_busy_s = delta.sum("horus_clock_tick_seconds_sum");
  o.ticks = delta.sum("horus_clock_ticks_total");
  o.heals = delta.sum("horus_clock_heals_total");
  o.checkpoints = delta.sum("horus_service_checkpoints_total");
  o.checkpoint_busy_s = delta.sum("horus_service_checkpoint_seconds_sum");
  o.backpressure_waits = delta.sum("horus_service_backpressure_waits_total");
  return o;
}

std::vector<Metric> layer_metrics(const Layers& l) {
  const ReplayResult& r = l.replay;
  const DaemonObs& o = l.obs;
  const QueryBreakdown& q = l.queries;
  // Waiting = the daemon's busy time for a phase's events minus the replay's
  // work for the same events, as a share of the phase.
  const bool daemon = o.wall_s > 0.0;
  const double intra_wait =
      daemon ? ratio(o.intra_flush_busy_s - r.intra_flush_s, o.wall_s) : 0.0;
  const double inter_wait =
      daemon ? ratio(o.inter_flush_busy_s - r.inter_flush_s, o.wall_s) : 0.0;
  const double wait_share =
      l.daemon_eps > 0.0 ? 1.0 - r.staged_us_per_event / (1e6 / l.daemon_eps)
                         : 0.0;
  return {
      {"event.encode_ns", r.encode_ns, "ns", "R"},
      {"event.decode_ns", r.decode_ns, "ns", "R"},
      {"event.wire_bytes", r.wire_bytes, "bytes", "R"},
      {"queue.produce_ns", r.produce_ns, "ns", "R"},
      {"queue.poll_ns", r.poll_ns, "ns", "R"},
      {"queue.commit_us", r.commit_us, "us", "R"},
      {"queue.messages_per_event", ratio(o.produced, o.events), "ratio", "O"},
      {"core.intra.on_event_ns", r.intra_on_event_ns, "ns", "R"},
      {"core.intra.flush_ns", r.intra_flush_ns, "ns", "R"},
      {"core.intra.flush_busy_share", ratio(o.intra_flush_busy_s, o.wall_s),
       "ratio", "O"},
      {"core.intra.flush_wait_share", intra_wait, "ratio", "O"},
      {"core.inter.on_event_ns", r.inter_on_event_ns, "ns", "R"},
      {"core.inter.flush_ns", r.inter_flush_ns, "ns", "R"},
      {"core.inter.flush_busy_share", ratio(o.inter_flush_busy_s, o.wall_s),
       "ratio", "O"},
      {"core.inter.flush_wait_share", inter_wait, "ratio", "O"},
      {"core.inter.edges_per_event", ratio(o.inter_edges, o.events), "ratio",
       "O"},
      {"core.inter.wal_spills", o.wal_spills, "count", "O"},
      {"core.clock.tick_ms", r.tick_ms, "ms", "R"},
      {"core.clock.tick_busy_share", ratio(o.tick_busy_s, o.wall_s), "ratio",
       "O"},
      {"core.clock.ticks", o.ticks, "count", "O"},
      {"core.clock.heals", o.heals, "count", "O"},
      {"core.clock.heal_ratio", ratio(o.heals, o.ticks), "ratio", "O"},
      {"core.clock.assign_s", l.assign_s, "s", "C"},
      {"core.clock.bytes_per_event", l.clock_bytes_per_event, "bytes", "C"},
      {"service.checkpoint.count", o.checkpoints, "count", "O"},
      {"service.checkpoint.busy_share", ratio(o.checkpoint_busy_s, o.wall_s),
       "ratio", "O"},
      {"service.checkpoint.write_ms", r.checkpoint_write_ms, "ms", "R"},
      {"service.checkpoint.bytes_per_event", r.checkpoint_bytes_per_event,
       "bytes", "R"},
      {"service.drain_share", l.drain_share, "ratio", "C"},
      {"service.admit_rejects", l.admit_rejects, "count", "C"},
      {"service.overload_max_level", l.overload_max_level, "level", "C"},
      {"service.backpressure_waits", o.backpressure_waits, "count", "O"},
      {"graph.load_s", l.graph_load_s, "s", "C"},
      {"graph.snapshot_bytes_per_event", l.snapshot_bytes_per_event, "bytes",
       "C"},
      {"query.parse_us", q.parse_us, "us", "C"},
      {"query.plan_us", q.plan_us, "us", "C"},
      {"query.exec_us", q.exec_us, "us", "C"},
      {"query.rows_examined_per_row", q.rows_examined_per_row, "ratio", "P"},
      {"query.call_clause_ms", q.call_clause_ms, "ms", "P"},
      {"core.causal.q2_nodes", q.q2_nodes, "count", "C"},
      {"core.causal.q2_p99_ms", q.q2_p99_ms, "ms", "C"},
      {"core.causal.prune_admit_ratio", q.prune_admit_ratio, "ratio", "P"},
      {"core.causal.vc_comparisons", q.vc_comparisons, "count", "P"},
      {"bench.trace_overhead_pct", l.trace_overhead_pct, "%", "C"},
      {"bench.staged_us_per_event", r.staged_us_per_event, "us", "R"},
      {"bench.wait_share", wait_share, "ratio", "R"},
  };
}

std::vector<Metric> layer_extras(const Layers& l) {
  return {
      {"service.publish_p99_us", l.publish_p99_us, "us", "C"},
      {"service.drain_s", l.drain_s, "s", "C"},
      {"bench.gen_late_p99_ms", l.gen_late_p99_ms, "ms", "C"},
  };
}

}  // namespace perfbench
