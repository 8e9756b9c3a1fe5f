// Query guardrails: resource limits plus a cooperative cancellation flag,
// shared by every stage of one query execution.
//
// Adversarial graphs (retry storms, cross-request contention, huge causal
// cuts) can make a single query visit millions of nodes or materialize
// unbounded row sets. A QueryGuard turns those runaways into *partial
// results with a reason*: the evaluator, the Q2 engine, the horus.*
// procedures and the all-paths baselines consult the same guard object and
// stop cooperatively the moment a deadline passes, a row budget is
// exhausted, a visited-node budget is exhausted, or cancel() is called from
// another thread.
//
// Thread safety: all methods are safe to call concurrently (the parallel
// clause fan-out and the Q2 engine's chunked prune share one guard). The stop
// flag is a single relaxed atomic, so the per-item cost on hot loops is one
// load; the deadline clock is only read every kDeadlineCheckInterval
// bookkeeping calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace horus {

/// Per-query resource limits. Zero means "unlimited" for every field.
/// Threaded from the CLI (`--deadline-ms`, `--max-rows`, `--max-visited`)
/// down through QueryOptions.
struct QueryLimits {
  /// Wall-clock budget for the whole query, in milliseconds.
  std::int64_t deadline_ms = 0;
  /// Max rows any single clause may materialize (working-set bound; also
  /// caps procedure yields and the final result).
  std::uint64_t max_rows = 0;
  /// Max graph nodes a query may visit across scans, prunes and path
  /// enumerations.
  std::uint64_t max_visited_nodes = 0;

  [[nodiscard]] bool any() const noexcept {
    return deadline_ms > 0 || max_rows > 0 || max_visited_nodes > 0;
  }
};

class QueryGuard {
 public:
  enum class Limit : int {
    kNone = 0,
    kDeadline = 1,
    kRows = 2,
    kVisited = 3,
    kCancelled = 4,
  };

  /// An unlimited guard (never trips unless cancel()ed).
  QueryGuard() noexcept : QueryGuard(QueryLimits{}) {}

  /// Starts the deadline clock immediately.
  explicit QueryGuard(QueryLimits limits) noexcept;

  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  /// Accounts `n` visited graph nodes. Returns false once any limit has
  /// tripped (including as a result of this call) — callers stop expanding.
  bool admit_visited(std::uint64_t n = 1) noexcept;

  /// Accounts `n` materialized rows in the current row section.
  bool admit_rows(std::uint64_t n = 1) noexcept;

  /// Opens a new row section (one evaluator clause): the row counter
  /// restarts so max_rows bounds each clause's working set, not the sum of
  /// all intermediate sets. No-op once tripped.
  void begin_rows_section() noexcept;

  /// Pure check for loops that do not add rows or nodes (e.g. WHERE):
  /// bumps the amortized deadline tick and reports whether to continue.
  bool keep_going() noexcept;

  /// External cooperative cancellation (another thread, a signal handler).
  void cancel() noexcept { trip(Limit::kCancelled); }

  /// True once any limit tripped. One relaxed load — safe on hot paths.
  [[nodiscard]] bool stopped() const noexcept {
    return hit_.load(std::memory_order_relaxed) !=
           static_cast<int>(Limit::kNone);
  }

  [[nodiscard]] Limit limit_hit() const noexcept {
    return static_cast<Limit>(hit_.load(std::memory_order_relaxed));
  }

  /// Stable label for the tripped limit ("deadline", "max_rows",
  /// "max_visited_nodes", "cancelled"), or "" when none — used verbatim in
  /// partial-result reasons and as the obs counter label value.
  [[nodiscard]] const char* reason() const noexcept;

  [[nodiscard]] const QueryLimits& limits() const noexcept { return limits_; }
  [[nodiscard]] std::uint64_t visited() const noexcept {
    return visited_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rows() const noexcept {
    return rows_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kDeadlineCheckInterval = 64;

  /// First tripped limit wins; later trips are ignored.
  void trip(Limit limit) noexcept;

  /// Amortized deadline check; returns false when the deadline has passed.
  bool check_deadline() noexcept;

  QueryLimits limits_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<std::uint64_t> visited_{0};
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint32_t> tick_{0};
  std::atomic<int> hit_{static_cast<int>(Limit::kNone)};
};

}  // namespace horus
