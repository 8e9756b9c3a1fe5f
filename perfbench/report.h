// The metrics a run reports, by name and unit, in BENCHMARK.json order.
// Untraced runs report EndToEnd; traced runs report Layers. Every workload
// reports every metric: a layer a workload bypasses reads 0 (see README.md
// for what each metric means on each workload).
#pragma once

#include <vector>

#include "bench.h"
#include "queries.h"
#include "registry_delta.h"
#include "replay.h"

namespace perfbench {

struct EndToEnd {
  double setup_s = 0;
  double ingest_eps = 0;
  double visible_p50_ms = 0;
  double q1_ns = 0;
  double q2_ms = 0;
  double match_ms = 0;
  double call_ms = 0;
  double peak_rss_mb = 0;
};

[[nodiscard]] std::vector<Metric> end_to_end_metrics(const EndToEnd& e);

/// What the src/obs registry saw the daemon do over one online phase.
struct DaemonObs {
  double events = 0;  ///< events published per phase
  double wall_s = 0;  ///< phase wall time
  double produced = 0, intra_flushes = 0;
  double intra_flush_busy_s = 0, inter_flush_busy_s = 0;
  double inter_edges = 0, wal_spills = 0;
  double tick_busy_s = 0, ticks = 0, heals = 0;
  double checkpoints = 0, checkpoint_busy_s = 0;
  double backpressure_waits = 0;

  /// Reads a registry delta taken over one phase.
  [[nodiscard]] static DaemonObs from(const RegistrySnapshot& delta,
                                      double events, double wall_s);
};

struct Layers {
  ReplayResult replay;
  DaemonObs obs;
  QueryBreakdown queries;
  double assign_s = 0, clock_bytes_per_event = 0;
  double graph_load_s = 0, snapshot_bytes_per_event = 0;
  double drain_share = 0, admit_rejects = 0, overload_max_level = 0;
  double trace_overhead_pct = 0;
  /// Events per second the daemon sustained (0: no daemon), for wait_share.
  double daemon_eps = 0;
  // Printed only (see README.md).
  double publish_p99_us = 0, drain_s = 0, gen_late_p99_ms = 0;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const Layers& layers);
/// Diagnostics printed with the traced run but not part of the result line.
[[nodiscard]] std::vector<Metric> layer_extras(const Layers& layers);

}  // namespace perfbench
