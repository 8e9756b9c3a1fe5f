// Deterministic, seedable fault-injection harness for the event queue.
//
// Production Horus must survive worker crashes, broker hiccups and duplicate
// deliveries without corrupting the causal graph. This harness turns those
// faults into a reproducible test input: a FaultInjector built from a
// FaultPlan is attached to a Broker (Broker::set_fault_injector) and from
// there hooks into
//
//   Topic::produce      — transient produce failures (TransientFault) and
//                         producer-retry duplicates (the message is appended
//                         twice, as a producer that retried after a lost ack
//                         would);
//   Partition::fetch    — bounded delivery delay: a partition "stalls" and
//                         serves nothing for a bounded number of fetch
//                         attempts (a broker hiccup; per-partition FIFO
//                         order is preserved, only delayed);
//   Consumer::poll      — transient poll failures, duplicate *deliveries*
//                         (the consumer position is rewound one message, so
//                         the next poll re-delivers it) and scheduled worker
//                         crashes (InjectedCrash after a configured number
//                         of consumed messages per group).
//
// Determinism: all randomness flows through one seeded Rng. With a single
// consumer thread per group the decision sequence is fully reproducible;
// with concurrent workers the *schedules* (crash thresholds, bounds) remain
// deterministic while probabilistic draws interleave with the scheduler.
// Crash thresholds are counted in cumulatively consumed messages, so every
// crash budget is exhausted in finite time regardless of replay windows.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"

namespace horus::queue {

/// A transient, retryable broker error: the same produce/poll would have
/// succeeded moments later. Worker loops retry these with capped
/// exponential backoff.
class TransientFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A scheduled consumer-worker crash. Not retryable: the catcher must throw
/// away all in-memory state and restart from durable state (committed
/// offsets, the graph store, the pending WAL).
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultPlan {
  std::uint64_t seed = 1;

  double produce_failure_p = 0.0;  ///< Topic::produce throws TransientFault
  double poll_failure_p = 0.0;     ///< Consumer::poll throws TransientFault
  double duplicate_p = 0.0;        ///< produced message is appended twice
  double redeliver_p = 0.0;        ///< last polled message delivered again
  double stall_p = 0.0;            ///< partition begins a bounded stall
  int stall_fetches_max = 3;       ///< max fetch attempts a stall spans

  /// Every group crashes each time it has consumed another `crash_every`
  /// messages (cumulative across restarts; 0 disables), at most
  /// `max_crashes_per_group` times.
  std::uint64_t crash_every = 0;
  int max_crashes_per_group = 3;

  /// Explicit per-group crash schedule: cumulative consumed-message counts
  /// at which the group crashes (in addition to `crash_every`).
  std::map<std::string, std::vector<std::uint64_t>> crash_after;

  [[nodiscard]] bool enabled() const noexcept {
    return produce_failure_p > 0 || poll_failure_p > 0 || duplicate_p > 0 ||
           redeliver_p > 0 || stall_p > 0 || crash_every > 0 ||
           !crash_after.empty();
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // -- producer-side hooks (Topic::produce) --------------------------------
  [[nodiscard]] bool should_fail_produce();
  [[nodiscard]] bool should_duplicate();

  // -- consumer-side hooks (Consumer::poll, Partition::fetch) --------------
  [[nodiscard]] bool should_fail_poll();
  [[nodiscard]] bool should_redeliver();

  /// Called by a partition before serving a fetch. Returns true when the
  /// partition is (or just became) stalled, in which case the fetch serves
  /// nothing. Stalls expire after at most plan().stall_fetches_max
  /// consecutive fetch attempts on that partition.
  [[nodiscard]] bool consume_stall(const std::string& partition_label);

  /// Accounts `n` messages consumed by `group`; throws InjectedCrash when
  /// the group's cumulative count crosses a scheduled crash threshold.
  void on_consumed(const std::string& group, std::size_t n);

  // -- observability -------------------------------------------------------
  struct Counters {
    std::uint64_t produce_failures = 0;
    std::uint64_t poll_failures = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t redeliveries = 0;
    std::uint64_t stalls = 0;  ///< stall *episodes* started
    std::uint64_t crashes = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_;
  Rng rng_;
  Counters counters_;
  std::map<std::string, std::uint64_t> consumed_;      // per group
  std::map<std::string, int> crashes_done_;            // per group
  std::map<std::string, std::size_t> explicit_index_;  // into crash_after
  std::map<std::string, int> stall_left_;              // per partition label
};

}  // namespace horus::queue
