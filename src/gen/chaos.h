// Chaos scenario factory: adversarial end-to-end runs with differential
// verification.
//
// A ChaosScenario composes a generated microservice workload (topology.h)
// with the queue fault harness (queue/fault.h) and an adversarial delivery
// order, pushes it through the distributed pipeline — optionally split
// across two pipeline incarnations with different worker shapes, modelling
// a partition rebalance mid-stream — and then verifies the resulting graph
// four ways at once:
//
//   1. against the fault-free embedded Horus reference (same events, same
//      typed edges, same Lamport clocks, same happens-before answers);
//   2. the Q2 engine against the clock-free reachability cut
//      (graph::between_subgraph: same node set, same induced edges), and
//      the sequential engine against `--threads N` (identical answers);
//   3. against the Falcon difference-constraint solver: Falcon's clocks
//      must form a linear extension of Horus' happens-before relation;
//   4. against naive timestamp ordering, counting inversions — pairs where
//      a happens-before b yet ts(a) > ts(b) — which drift scenarios are
//      expected to produce in bulk (timestamps are not causal order).
//
// Scenarios are deterministic in their seed; the ctest `chaos` label and
// bench_chaos both drive builtin_chaos_scenarios().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/topology.h"
#include "queue/fault.h"

namespace horus::gen {

/// How the runner corrupts the delivery order before publishing.
enum class ReorderMode {
  kNone,          ///< publish in generation (arrival) order
  kCrossProcess,  ///< random cross-timeline interleave (topology.h)
};

struct ChaosScenario {
  std::string name;
  TopologyOptions topology;
  queue::FaultPlan faults;
  ReorderMode reorder = ReorderMode::kCrossProcess;

  /// When true the delivery stream is split in half across two pipeline
  /// incarnations over the same broker and graph — the second with a
  /// different worker shape (partition count unchanged), as after a
  /// consumer-group rebalance. Requests cut by the split rely on the
  /// durable pairing WAL to keep their cross-incarnation edges.
  bool rebalance = false;

  /// When true the scenario runs through HorusService instead of bare
  /// pipelines: a first daemon incarnation ingests `kill_point` of the
  /// stream, publishes a checkpoint, and is hard-killed (no final flush,
  /// commit, or checkpoint — the in-process SIGKILL); a second incarnation
  /// over the same broker and data_dir restores that checkpoint, replays
  /// the queue window, ingests the rest, and its graph is what the
  /// differential matrix verifies. Exercises service/checkpoint.h end to
  /// end under the same fault plans as every other scenario.
  bool daemon_restart = false;
  /// Fraction of the delivery stream ingested before the kill.
  double kill_point = 0.5;
  int partitions = 4;
  int intra_workers_a = 2;
  int inter_workers_a = 2;
  int intra_workers_b = 1;
  int inter_workers_b = 3;

  /// Thread count of the parallel verification legs.
  unsigned verify_threads = 4;
  /// Sample-grid resolution for the happens-before / Falcon / timestamp
  /// checks (the grid is hb_samples x hb_samples event pairs).
  std::size_t hb_samples = 40;
  /// Max endpoint pairs leg 2 checks.
  std::size_t q2_pairs = 6;
};

struct DifferentialReport {
  std::size_t events = 0;
  std::size_t edges = 0;

  /// Pipeline completed (drain succeeded, nothing dead-lettered).
  bool drained = true;
  std::uint64_t dead_lettered = 0;

  /// Leg 1: disagreements with the fault-free embedded reference
  /// (missing events, differing edge triples, Lamport or hb mismatches).
  std::uint64_t reference_mismatches = 0;
  /// Leg 2: sequential-vs-parallel Q2 mismatches, and Q2 answers that are
  /// not the reachability cut.
  std::uint64_t parallel_mismatches = 0;
  std::uint64_t q2_mismatches = 0;
  /// Leg 3: Falcon solver.
  bool falcon_satisfiable = true;
  std::uint64_t falcon_violations = 0;
  std::size_t falcon_passes = 0;
  /// Leg 4: timestamp ordering.
  std::uint64_t hb_pairs_checked = 0;
  std::uint64_t timestamp_inversions = 0;

  /// What the fault harness actually did.
  std::uint64_t pipeline_recoveries = 0;
  std::uint64_t pipeline_retries = 0;
  std::uint64_t pipeline_deduplicated = 0;
  std::uint64_t injected_crashes = 0;

  /// True when every verification leg agrees (timestamp inversions are
  /// expected, not failures).
  [[nodiscard]] bool ok() const {
    return drained && dead_lettered == 0 && reference_mismatches == 0 &&
           parallel_mismatches == 0 && q2_mismatches == 0 &&
           falcon_satisfiable && falcon_violations == 0;
  }
};

struct ChaosRunResult {
  DifferentialReport report;
  double ingest_seconds = 0;
  double verify_seconds = 0;
};

/// The named adversarial scenarios every chaos build runs: reordering
/// across a rebalance, 10x clock drift, retry storms, consumer
/// crash/recovery mid-request, long dependency chains, cross-request
/// contention and a daemon kill-and-restart through checkpoint/restore.
/// `seed` perturbs every generator and fault plan.
[[nodiscard]] std::vector<ChaosScenario> builtin_chaos_scenarios(
    std::uint64_t seed);

/// Runs one scenario end to end. `wal_dir` is wiped and reused for the
/// pipeline's durable pairing spill.
[[nodiscard]] ChaosRunResult run_chaos_scenario(const ChaosScenario& scenario,
                                                const std::string& wal_dir);

}  // namespace horus::gen
