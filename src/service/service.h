// HorusService (`horusd`) — the long-running daemon that turns the batch
// pipeline into an always-on causal-analysis service (the deployment the
// paper positions Horus for: continuous log ingestion, online diagnosis).
//
// One service instance supervises four loops on the shared ThreadPool's
// service threads:
//
//   traffic loop      pulls event batches from a caller-supplied
//                     TrafficSource closure and publishes them with ingest
//                     backpressure (blocks while the uncommitted broker
//                     backlog exceeds the bound); paused under overload
//   pipeline workers  the existing two-stage encoder pipeline, running
//                     incrementally (never drained)
//   clock daemon      incremental clock assignment after every inter-stage
//                     commit, and at least every clock_interval_ms (src/core)
//   checkpoint loop   periodic atomic checkpoint (service/checkpoint.h)
//   supervisor loop   feeds obs signals into the OverloadController and
//                     applies its level (pause traffic / tighten limits /
//                     close the admission gate)
//
// Queries run on the caller's thread through an admission gate: admit()
// hands out an RAII Session while capacity lasts and throws OverloadError
// otherwise (bounded concurrency instead of unbounded queueing). Per-query
// limits default to ServiceOptions::default_limits, clamped to
// degraded_limits under overload level >= kTightenQueries.
//
// Crash story: kill() hard-drops everything without flushes, commits, or a
// final checkpoint — the in-process stand-in for SIGKILL the recovery tests
// use. A fresh service over the same data_dir restores the last published
// checkpoint (graph, clocks, offsets, frozen WAL), seeks the broker back,
// and replays the queue window through the idempotent add/dedup paths —
// converging to exactly the graph an uninterrupted run produces. stop() is
// the graceful path: final flush+commit, final checkpoint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "query/evaluator.h"
#include "core/clock_daemon.h"
#include "core/pipeline.h"
#include "graph/segment.h"
#include "event/event.h"
#include "queue/broker.h"
#include "service/checkpoint.h"
#include "service/overload.h"

namespace horus::service {

struct ServiceOptions {
  PipelineOptions pipeline;  ///< wal_dir is overridden to <data_dir>/wal
  std::string data_dir;      ///< checkpoints + WAL root (required)

  int checkpoint_interval_ms = 500;
  /// Idle backstop of the clock daemon: it ticks after every inter commit,
  /// and at least this often.
  int clock_interval_ms = 25;
  int supervisor_interval_ms = 50;
  int traffic_interval_ms = 5;  ///< sleep between exhausted-source polls

  /// Admission gate: concurrent query sessions beyond this are rejected
  /// with OverloadError (and always rejected at level kRejectSessions).
  int max_concurrent_sessions = 8;

  /// Ingest backpressure: publishing blocks (waking on each pipeline
  /// commit) while the uncommitted broker backlog exceeds this bound, and
  /// fails with OverloadError after the timeout (a stuck pipeline must
  /// surface, not wedge the producer).
  std::uint64_t max_ingest_backlog = 1 << 16;
  int backpressure_timeout_ms = 10'000;

  /// Per-query limits: the default profile, and the clamped profile applied
  /// at overload level >= kTightenQueries.
  QueryLimits default_limits{/*deadline_ms=*/2'000, /*max_rows=*/0,
                             /*max_visited_nodes=*/1'000'000};
  QueryLimits degraded_limits{/*deadline_ms=*/250, /*max_rows=*/0,
                              /*max_visited_nodes=*/100'000};

  /// Plan-cost admission for run_query(): at overload level >=
  /// kTightenQueries, a text query whose planner estimate exceeds this many
  /// rows is rejected with OverloadError *before* execution — cheaper than
  /// letting it burn the whole degraded deadline. 0 disables the check.
  double degraded_max_plan_rows = 50'000;

  OverloadThresholds thresholds;
  int checkpoint_keep_epochs = 2;

  /// Segmented graph storage (graph/segment.h): 0 keeps the monolithic
  /// store. When set, the store seals immutable segments of this many
  /// nodes, spills evictions under <data_dir>/segments, checkpoints per
  /// segment, and restore adopts the checkpointed boundaries — only the
  /// unsealed tail ever replays through the write path.
  std::uint32_t segment_nodes = 0;
  std::size_t segment_shards = 4;
  /// LRU-evict sealed segments once resident payload exceeds this budget
  /// (0 = never evict). Enforced on seal and by the supervisor loop, whose
  /// post-eviction residency also feeds the overload controller's
  /// graph_resident_bytes signal.
  std::size_t segment_budget_bytes = 0;
};

class HorusService {
 public:
  /// One batch of events per call; an empty batch means "nothing right
  /// now" (the traffic loop sleeps and retries — the source is never
  /// considered exhausted, a service ingests forever).
  using TrafficSource = std::function<std::vector<Event>()>;

  HorusService(queue::Broker& broker, ExecutionGraph& graph,
               ServiceOptions options);
  ~HorusService();

  HorusService(const HorusService&) = delete;
  HorusService& operator=(const HorusService&) = delete;

  /// Starts everything. If a published checkpoint exists under data_dir,
  /// restores it first (the graph must be empty in that case) and replays
  /// the queue from the checkpointed offsets; otherwise cold-starts (any
  /// stale consumer-group offsets and WAL files are cleared so the whole
  /// queue replays). `source` may be null (ingest driven externally via
  /// publish()).
  void start(TrafficSource source = nullptr);

  /// Graceful shutdown: stops traffic, lets the pipeline flush+commit,
  /// stops the clock daemon, takes a final checkpoint. Idempotent.
  void stop();

  /// Hard crash: drops every loop and the pipeline workers without final
  /// flushes, commits, or checkpoints (in-process SIGKILL). Idempotent.
  void kill();

  /// Takes one checkpoint now (also called by the periodic loop). Returns
  /// the published epoch.
  std::uint64_t checkpoint_now();

  /// Publishes one event with ingest backpressure (see ServiceOptions).
  /// Throws OverloadError if the backlog stays above the bound past the
  /// backpressure timeout.
  void publish(const Event& event);

  /// RAII admission ticket for one query session.
  class Session {
   public:
    Session(Session&& other) noexcept : service_(other.service_) {
      other.service_ = nullptr;
    }
    Session& operator=(Session&&) = delete;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session();

   private:
    friend class HorusService;
    explicit Session(HorusService* service) noexcept : service_(service) {}
    HorusService* service_;
  };

  /// Admits one query session or throws OverloadError (gate closed under
  /// overload, or at max_concurrent_sessions).
  [[nodiscard]] Session admit();

  /// Q1/Q2 served off the clock daemon's current assignment, with this
  /// service's per-query limits applied (degraded under overload). The
  /// session proves admission.
  [[nodiscard]] bool happens_before(const Session& session, graph::NodeId a,
                                    graph::NodeId b) const;
  [[nodiscard]] CausalGraphResult get_causal_graph(const Session& session,
                                                   graph::NodeId a,
                                                   graph::NodeId b) const;

  /// Runs a text query against the live graph under this service's
  /// per-query limits (degraded under overload). Under overload the query
  /// is planned first and rejected by estimated cost — see
  /// ServiceOptions::degraded_max_plan_rows. The horus.* procedures are not
  /// registered here (they need a stable clock table; use the Q1/Q2 methods
  /// above). The session proves admission.
  [[nodiscard]] query::QueryResult run_query(const Session& session,
                                             std::string_view text) const;

  // -- introspection --------------------------------------------------------
  [[nodiscard]] OverloadLevel overload_level() const noexcept {
    return static_cast<OverloadLevel>(
        overload_level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool restored_from_checkpoint() const noexcept {
    return restored_epoch_ != 0;
  }
  [[nodiscard]] std::uint64_t restored_epoch() const noexcept {
    return restored_epoch_;
  }
  [[nodiscard]] int active_sessions() const noexcept {
    return active_sessions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_ingested() const noexcept {
    return ingested_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool traffic_paused() const noexcept {
    return pause_traffic_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Pipeline& pipeline() noexcept { return pipeline_; }
  [[nodiscard]] ClockDaemon& clock_daemon() noexcept { return daemon_; }
  [[nodiscard]] const std::string& wal_dir() const noexcept {
    return wal_dir_;
  }

 private:
  void release_session() noexcept;
  void traffic_loop(TrafficSource source);
  void checkpoint_loop();
  void supervisor_loop();
  /// Interruptible sleep: returns early (false) when shutdown starts.
  bool sleep_unless_stopping(int ms);
  [[nodiscard]] QueryLimits current_limits() const;
  [[nodiscard]] graph::SegmentOptions segment_options() const;
  /// Enables segmentation per ServiceOptions (no-op when segment_nodes is 0
  /// or the store is already segmented). `sealed` non-empty adopts a
  /// restored checkpoint's boundaries instead of carving.
  void setup_segments(
      const std::vector<std::pair<graph::NodeId, std::uint32_t>>& sealed);

  queue::Broker& broker_;
  ExecutionGraph& graph_;
  ServiceOptions options_;
  std::string wal_dir_;

  Pipeline pipeline_;
  ClockDaemon daemon_;
  CheckpointStore checkpoints_;
  OverloadController controller_;

  std::mutex lifecycle_mutex_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> killed_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_;

  /// Serializes checkpoint_now() against itself (periodic loop vs stop()).
  std::mutex checkpoint_mutex_;

  std::atomic<int> overload_level_{0};
  std::atomic<bool> pause_traffic_{false};
  std::atomic<bool> tighten_queries_{false};
  std::atomic<bool> reject_sessions_{false};

  std::atomic<int> active_sessions_{0};
  std::atomic<std::uint64_t> ingested_{0};
  std::uint64_t restored_epoch_ = 0;

  obs::Counter* sessions_admitted_;
  obs::Counter* sessions_rejected_;
  obs::Counter* plan_cost_rejections_;
  obs::Counter* backpressure_waits_;
  obs::Gauge* active_sessions_gauge_;
  obs::Histogram* query_seconds_;

  std::vector<ThreadPool::ServiceThread> loops_;
};

}  // namespace horus::service
