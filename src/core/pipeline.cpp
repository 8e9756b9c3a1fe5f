#include "core/pipeline.h"

#include <exception>
#include <filesystem>
#include <fstream>

#include "common/diag.h"
#include "common/json.h"
#include "core/validator.h"
#include "graph/segment.h"
#include "queue/fault.h"

namespace horus {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string inter_routing_key(const Event& event) {
  switch (event.type) {
    case EventType::kSnd:
    case EventType::kRcv:
    case EventType::kConnect:
    case EventType::kAccept:
      if (const auto* n = event.net()) return n->channel.to_string();
      break;
    case EventType::kCreate:
    case EventType::kFork:
    case EventType::kJoin:
      if (const auto* c = event.child()) return c->child.to_string();
      break;
    case EventType::kStart:
    case EventType::kEnd:
      return event.thread.to_string();
    case EventType::kLog:
    case EventType::kFsync:
      break;
  }
  return event.thread.to_string();
}

namespace {

/// Atomically replaces `path` with the serialized pending events (write to
/// a temp file, then rename): a crash mid-write leaves the previous spill
/// intact, never a torn one.
void write_pending_wal(const std::string& path,
                       const std::vector<Event>& events) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("pipeline: cannot write WAL " + tmp);
    }
    for (const Event& event : events) {
      out << event.to_json().dump() << '\n';
    }
  }
  fs::rename(tmp, path);
}

/// Loads a pending-pair spill; a missing file is an empty spill (first
/// start), a corrupt line is skipped with a warning (it only widens the
/// lost-edge window back to the in-memory behaviour for that one event).
std::vector<Event> read_pending_wal(const std::string& path) {
  std::vector<Event> events;
  std::ifstream in(path);
  if (!in) return events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      events.push_back(Event::from_json(Json::parse(line)));
    } catch (const std::exception& e) {
      diag(DiagLevel::kWarn, "pipeline",
           "skipping corrupt WAL line in " + path + ": " + e.what());
    }
  }
  return events;
}

/// Tracks one worker's contribution to a shared pending gauge via deltas,
/// and retracts it on scope exit — so a crashed worker (whose encoder, and
/// with it the buffered state, is destroyed) does not leave the gauge
/// permanently inflated.
struct PendingGuard {
  obs::Gauge* gauge;
  std::int64_t seen = 0;
  void update(std::int64_t now) {
    gauge->add(now - seen);
    seen = now;
  }
  ~PendingGuard() { gauge->sub(seen); }
};

}  // namespace

template <typename Fn>
auto Pipeline::backoff_retry(const char* what, Fn&& op) -> decltype(op()) {
  int delay_ms = options_.retry_backoff_base_ms;
  for (;;) {
    try {
      return op();
    } catch (const queue::TransientFault& e) {
      // Only transient broker faults are retryable; InjectedCrash and real
      // errors propagate to the worker's recovery loop / the caller.
      retried_->inc();
      diag(DiagLevel::kDebug, "pipeline",
           std::string(what) + " failed transiently (" + e.what() +
               "), retrying in " + std::to_string(delay_ms) + "ms");
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      delay_ms = std::min(delay_ms * 2, options_.retry_backoff_cap_ms);
    }
  }
}

namespace {
/// Process-unique pipeline id: tests assert exact per-instance counts, so
/// every Pipeline gets its own registry children under pipeline="<id>".
std::string next_pipeline_instance() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}
}  // namespace

Pipeline::Pipeline(queue::Broker& broker, ExecutionGraph& graph,
                   PipelineOptions options)
    : broker_(broker),
      graph_(graph),
      options_(std::move(options)),
      instance_(next_pipeline_instance()) {
  obs::Registry& registry = obs::Registry::global();
  obs::Family<obs::Counter>& events = registry.counters(
      "horus_pipeline_events_total", "Events crossing each pipeline stage");
  published_ = &events.with({{"pipeline", instance_}, {"stage", "published"}});
  intra_processed_ =
      &events.with({{"pipeline", instance_}, {"stage", "intra"}});
  intra_forwarded_ =
      &events.with({{"pipeline", instance_}, {"stage", "intra_forwarded"}});
  inter_processed_ =
      &events.with({{"pipeline", instance_}, {"stage", "inter"}});
  inter_edges_ =
      &events.with({{"pipeline", instance_}, {"stage", "inter_edges"}});
  retried_ = &registry.counter("horus_pipeline_retries_total",
                               "Retries against transient broker faults",
                               {{"pipeline", instance_}});
  dead_lettered_ = &registry.counter("horus_pipeline_dead_letter_total",
                                     "Messages diverted to the DLQ",
                                     {{"pipeline", instance_}});
  recoveries_ = &registry.counter("horus_pipeline_recoveries_total",
                                  "Worker crash-recovery cycles",
                                  {{"pipeline", instance_}});
  intra_duplicates_ = &registry.counter(
      "horus_pipeline_duplicates_total",
      "Replayed/duplicated deliveries dropped by the intra stage",
      {{"pipeline", instance_}});
  wal_spills_ = &registry.counter("horus_pipeline_wal_spills_total",
                                  "Pending-pair WAL rewrites (inter stage)",
                                  {{"pipeline", instance_}});
  wal_recovered_ = &registry.counter(
      "horus_pipeline_wal_recovered_total",
      "Events re-fed from the pending-pair WAL after a restart",
      {{"pipeline", instance_}});
  obs::Family<obs::Gauge>& pending = registry.gauges(
      "horus_encoder_pending", "Buffered/unmatched state per encoder stage");
  intra_pending_ =
      &pending.with({{"pipeline", instance_}, {"stage", "intra"}});
  inter_pending_ =
      &pending.with({{"pipeline", instance_}, {"stage", "inter"}});
  inter_deferred_ =
      &pending.with({{"pipeline", instance_}, {"stage", "inter-deferred"}});
  obs::Family<obs::Histogram>& flush = registry.histograms(
      "horus_encoder_flush_seconds", "Encoder flush latency per stage");
  intra_flush_seconds_ = &flush.with({{"stage", "intra"}});
  inter_flush_seconds_ = &flush.with({{"stage", "inter"}});

  broker_.create_topic(options_.sources_topic, options_.partitions);
  broker_.create_topic(options_.timeline_topic, options_.partitions);
  broker_.create_topic(options_.dlq_topic, 1);
  if (!options_.wal_dir.empty()) {
    fs::create_directories(options_.wal_dir);
  }
}

Pipeline::~Pipeline() { stop(); }

void Pipeline::start() {
  const std::lock_guard lifecycle_lock(lifecycle_mutex_);
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  kill_requested_.store(false);

  // Static round-robin partition assignment per stage.
  auto assignment = [this](int workers, int worker) {
    std::vector<int> parts;
    for (int p = worker; p < options_.partitions; p += workers) {
      parts.push_back(p);
    }
    return parts;
  };
  ThreadPool& pool = ThreadPool::shared();
  for (int i = 0; i < options_.intra_workers; ++i) {
    workers_.push_back(pool.spawn_service(
        [this, i, parts = assignment(options_.intra_workers, i)] {
          intra_worker(i, parts);
        }));
  }
  for (int i = 0; i < options_.inter_workers; ++i) {
    workers_.push_back(pool.spawn_service(
        [this, i, parts = assignment(options_.inter_workers, i)] {
          inter_worker(i, parts);
        }));
  }
}

void Pipeline::publish(const Event& event) {
  backoff_retry("publish", [&] {
    broker_.topic(options_.sources_topic)
        .produce(timeline_key(event, options_.granularity),
                 event.to_json().dump());
  });
  published_->inc();
}

EventSinkFn Pipeline::sink() {
  return [this](Event event) { publish(event); };
}

std::function<void(const std::string&, const std::string&)>
Pipeline::dead_letter_sink() {
  return [this](const std::string& raw, const std::string& error) {
    dead_letter("adapter", raw, error);
  };
}

void Pipeline::dead_letter(const std::string& stage,
                           const std::string& payload,
                           const std::string& error) {
  Json entry = Json::object();
  entry["stage"] = stage;
  entry["error"] = error;
  entry["payload"] = payload;
  backoff_retry("dead-letter produce", [&] {
    broker_.topic(options_.dlq_topic).produce(stage, entry.dump());
  });
  dead_lettered_->inc();
  diag(DiagLevel::kWarn, "pipeline",
       "dead-lettered " + stage + " message: " + error);
}

std::string Pipeline::wal_path(int index) const {
  return options_.wal_dir + "/inter-" + std::to_string(index) + ".wal";
}

// Worker threads: each is a crash-recovery loop around the actual stage
// body. An injected crash kills the consumer and encoder; the replacement
// resumes from the committed offsets (and, for the inter stage, from the
// pending-pair WAL), exactly like a supervisor restarting a died worker
// process.
void Pipeline::intra_worker(int index, std::vector<int> partitions) {
  for (;;) {
    try {
      run_intra(index, partitions);
      return;
    } catch (const queue::InjectedCrash& e) {
      recoveries_->inc();
      diag(DiagLevel::kWarn, "pipeline",
           "intra worker " + std::to_string(index) + " crashed (" + e.what() +
               "), restarting");
    }
  }
}

void Pipeline::inter_worker(int index, std::vector<int> partitions) {
  for (;;) {
    try {
      run_inter(index, partitions);
      return;
    } catch (const queue::InjectedCrash& e) {
      recoveries_->inc();
      diag(DiagLevel::kWarn, "pipeline",
           "inter worker " + std::to_string(index) + " crashed (" + e.what() +
               "), restarting");
    }
  }
}

void Pipeline::run_intra(int index, const std::vector<int>& partitions) {
  queue::Consumer consumer(broker_, "horus-intra-" + std::to_string(index),
                           options_.sources_topic, partitions);
  queue::Topic& downstream = broker_.topic(options_.timeline_topic);

  IntraProcessEncoder encoder(
      graph_,
      [this, &downstream](Event event) {
        const std::string key = inter_routing_key(event);
        const std::string value = event.to_json().dump();
        backoff_retry("timeline produce", [&] {
          downstream.produce(key, value);
        });
        intra_forwarded_->inc();
      },
      IntraProcessEncoder::Options{options_.granularity});

  auto last_flush = Clock::now();
  const auto interval =
      std::chrono::milliseconds(options_.event_flush_interval_ms);
  std::uint64_t dup_seen = 0;
  PendingGuard pending_guard{intra_pending_};

  while (true) {
    const auto batch = backoff_retry("intra poll", [&] {
      return consumer.poll(options_.poll_batch, /*timeout_ms=*/5);
    });
    for (const auto& msg : batch) {
      Event event;
      try {
        event = Event::from_json(Json::parse(msg.message.value));
      } catch (const std::exception& e) {
        dead_letter("intra-decode", msg.message.value, e.what());
        continue;
      }
      if (auto reason = validate_event(event)) {
        dead_letter("intra-validate", msg.message.value, *reason);
        continue;
      }
      encoder.on_event(std::move(event));
      intra_processed_->inc();
    }
    const std::uint64_t dups = encoder.duplicates_dropped();
    intra_duplicates_->inc(dups - dup_seen);
    dup_seen = dups;

    if (kill_requested_.load(std::memory_order_acquire)) return;
    const auto now = Clock::now();
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (now - last_flush >= interval || (stopping && batch.empty())) {
      {
        // Shared hold across flush+commit: the checkpoint's unique hold on
        // this gate therefore only ever observes flushed == committed.
        const std::shared_lock gate(flush_gate_);
        {
          const obs::Timer timer(*intra_flush_seconds_);
          encoder.flush();
        }
        consumer.commit();
      }
      pending_guard.update(static_cast<std::int64_t>(encoder.pending()));
      notify_commit_progress();
      last_flush = now;
      if (stopping && batch.empty() && encoder.pending() == 0) break;
    }
  }
}

void Pipeline::run_inter(int index, const std::vector<int>& partitions) {
  queue::Consumer consumer(broker_, "horus-inter-" + std::to_string(index),
                           options_.timeline_topic, partitions);
  InterProcessEncoder encoder(graph_);

  const bool durable = !options_.wal_dir.empty();
  const std::string wal = durable ? wal_path(index) : std::string();
  if (durable) {
    encoder.set_spill_capture(true);
    // Rehydrate the pending-pair state the previous incarnation spilled at
    // its last commit; the queue window after that commit replays on top.
    std::vector<Event> recovered = read_pending_wal(wal);
    wal_recovered_->inc(recovered.size());
    for (Event& event : recovered) {
      encoder.on_event(std::move(event));
    }
  }

  PendingGuard pending_guard{inter_pending_};
  PendingGuard deferred_guard{inter_deferred_};
  std::uint64_t edges_seen = encoder.edges_flushed();

  // One commit point: everything consumed so far is flushed to the graph,
  // then the surviving pending state is spilled, then offsets commit. A
  // crash between any two steps re-runs from the previous commit; flushes
  // and edges are idempotent, so the replay is absorbed.
  auto commit_cycle = [&] {
    {
      // Shared hold across flush+WAL+commit (see run_intra): under the
      // checkpoint's unique hold, the WAL on disk and the committed offsets
      // describe exactly the same cut.
      const std::shared_lock gate(flush_gate_);
      {
        const obs::Timer timer(*inter_flush_seconds_);
        encoder.flush();
      }
      if (durable) {
        write_pending_wal(wal, encoder.snapshot_pending());
        wal_spills_->inc();
      }
      consumer.commit();
    }
    const std::uint64_t edges = encoder.edges_flushed();
    inter_edges_->inc(edges - edges_seen);
    edges_seen = edges;
    pending_guard.update(static_cast<std::int64_t>(encoder.pending()));
    deferred_guard.update(static_cast<std::int64_t>(encoder.buffered()));
    notify_commit_progress();
    if (commit_hook_) commit_hook_();
  };

  auto last_flush = Clock::now();
  const auto interval =
      std::chrono::milliseconds(options_.relationship_flush_interval_ms);
  bool consumed = false;  // anything polled since the last commit

  while (true) {
    const auto batch = backoff_retry("inter poll", [&] {
      return consumer.poll(options_.poll_batch, /*timeout_ms=*/5);
    });
    for (const auto& msg : batch) {
      Event event;
      try {
        event = Event::from_json(Json::parse(msg.message.value));
      } catch (const std::exception& e) {
        dead_letter("inter-decode", msg.message.value, e.what());
        continue;
      }
      encoder.on_event(std::move(event));
      inter_processed_->inc();
    }
    consumed = consumed || !batch.empty();
    if (kill_requested_.load(std::memory_order_acquire)) return;
    const auto now = Clock::now();
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    // Commit as soon as the stage has caught up (a short poll) with new
    // input; the interval bounds the delay under sustained full polls.
    const bool caught_up = consumed && batch.size() < options_.poll_batch;
    if (caught_up || now - last_flush >= interval ||
        (stopping && batch.empty())) {
      commit_cycle();
      consumed = false;
      last_flush = now;
      if (stopping && batch.empty()) break;
    }
  }
}

bool Pipeline::committed_through(const std::string& topic,
                                 const std::string& group_prefix,
                                 int workers) const {
  queue::Topic& t = broker_.topic(topic);
  for (int w = 0; w < workers; ++w) {
    const std::string group = group_prefix + std::to_string(w);
    for (int p = w; p < options_.partitions; p += workers) {
      if (broker_.committed_offset(group, topic, p) <
          t.partition(p).end_offset()) {
        return false;
      }
    }
  }
  return true;
}

bool Pipeline::all_committed() const {
  // Offsets alone are not enough after a restore: the inter stage may have
  // committed past pairs it matched but could not flush yet (nodes still
  // replaying) — those edges are part of "everything published".
  return committed_through(options_.sources_topic, "horus-intra-",
                           options_.intra_workers) &&
         committed_through(options_.timeline_topic, "horus-inter-",
                           options_.inter_workers) &&
         inter_deferred_->value() == 0;
}

std::string Pipeline::segment_report() const {
  // When the store is segmented, a stuck drain's diagnostic names each
  // shard's sealed/evicted/pending state — a worker wedged faulting a
  // segment back in shows up as its shard, not as a generic stall.
  const graph::SegmentManager* segments = graph_.store().segments();
  if (segments == nullptr) return "";
  return "; segment shards: " + segments->shard_report();
}

std::string Pipeline::stuck_partition_report() const {
  std::string out;
  auto scan = [&](const std::string& topic, const std::string& group_prefix,
                  int workers) {
    queue::Topic& t = broker_.topic(topic);
    for (int w = 0; w < workers; ++w) {
      const std::string group = group_prefix + std::to_string(w);
      for (int p = w; p < options_.partitions; p += workers) {
        const std::uint64_t committed =
            broker_.committed_offset(group, topic, p);
        const std::uint64_t end = t.partition(p).end_offset();
        if (committed < end) {
          out += " " + topic + "[" + std::to_string(p) + "] group=" + group +
                 " committed=" + std::to_string(committed) +
                 " end=" + std::to_string(end);
        }
      }
    }
  };
  scan(options_.sources_topic, "horus-intra-", options_.intra_workers);
  scan(options_.timeline_topic, "horus-inter-", options_.inter_workers);
  return out.empty() ? " (none)" : out;
}

void Pipeline::notify_commit_progress() {
  {
    // Under the mutex: pairs the notify with drain()'s predicate check and
    // wait_for_commit()'s sequence read, so a signal cannot slip between a
    // waiter's check and its wait.
    const std::lock_guard lock(drain_mutex_);
    ++commit_seq_;
  }
  drain_cv_.notify_all();
}

std::uint64_t Pipeline::commits() const {
  const std::lock_guard lock(drain_mutex_);
  return commit_seq_;
}

bool Pipeline::wait_for_commit(std::uint64_t seen, Clock::time_point deadline) {
  std::unique_lock lock(drain_mutex_);
  return drain_cv_.wait_until(lock, deadline,
                              [&] { return commit_seq_ != seen; });
}

void Pipeline::set_commit_hook(std::function<void()> hook) {
  commit_hook_ = std::move(hook);
}

bool Pipeline::drain() {
  // Drained == every stage has consumed AND committed everything the broker
  // holds for it: first the sources topic (intra workers), then the
  // timeline topic (inter workers; the intra stage no longer produces into
  // it once the sources are committed through). Offsets are the ground
  // truth — processed-event counters are inflated by injected duplicates
  // and crash replays, committed offsets are not.
  //
  // Workers signal drain_cv_ after every offset commit, so this waits on
  // the condition variable instead of busy-polling; the 100 ms cap only
  // backstops progress made outside a commit (e.g. a never-started
  // pipeline, or commits that raced the predicate check).
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  std::unique_lock lock(drain_mutex_);
  for (;;) {
    if (all_committed()) return true;
    const auto now = Clock::now();
    if (now >= deadline) {
      diag(DiagLevel::kError, "pipeline",
           "drain timed out after " +
               std::to_string(options_.drain_timeout_ms) +
               "ms; published=" + std::to_string(published_->value()) +
               " intra=" + std::to_string(intra_processed_->value()) +
               " forwarded=" + std::to_string(intra_forwarded_->value()) +
               " inter=" + std::to_string(inter_processed_->value()) +
               " retried=" + std::to_string(retried_->value()) +
               " dead-lettered=" + std::to_string(dead_lettered_->value()) +
               " recoveries=" + std::to_string(recoveries_->value()) +
               "; stuck partitions:" + stuck_partition_report() +
               segment_report());
      return false;
    }
    drain_cv_.wait_for(
        lock, std::min<Clock::duration>(deadline - now,
                                        std::chrono::milliseconds(100)));
  }
}

void Pipeline::stop() {
  // Exactly one caller may claim the shutdown (running_ exchange); the
  // lifecycle mutex additionally makes later callers — including the
  // destructor racing a concurrent stop() — wait until the claimant has
  // joined and cleared workers_, instead of returning while threads are
  // still being torn down.
  const std::lock_guard lifecycle_lock(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  stop_requested_.store(true, std::memory_order_release);
  for (ThreadPool::ServiceThread& worker : workers_) worker.join();
  workers_.clear();
}

void Pipeline::kill() {
  const std::lock_guard lifecycle_lock(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  // Order matters: workers check kill first, so setting it before stop
  // keeps a worker that just read stop_requested_ from running its final
  // flush+commit.
  kill_requested_.store(true, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  for (ThreadPool::ServiceThread& worker : workers_) worker.join();
  workers_.clear();
}

std::uint64_t Pipeline::backlog() const {
  std::uint64_t total = 0;
  auto scan = [&](const std::string& topic, const std::string& group_prefix,
                  int workers) {
    queue::Topic& t = broker_.topic(topic);
    for (int w = 0; w < workers; ++w) {
      const std::string group = group_prefix + std::to_string(w);
      for (int p = w; p < options_.partitions; p += workers) {
        const std::uint64_t end = t.partition(p).end_offset();
        const std::uint64_t committed =
            broker_.committed_offset(group, topic, p);
        if (end > committed) total += end - committed;
      }
    }
  };
  scan(options_.sources_topic, "horus-intra-", options_.intra_workers);
  scan(options_.timeline_topic, "horus-inter-", options_.inter_workers);
  return total;
}

}  // namespace horus
