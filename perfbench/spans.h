// Span recorder for the traced run.
//
// A span is one timed call into a layer: name, start, end, the span that
// was open on the same thread when it began (its parent), a request id
// shared by the spans of one logical request, and the number of items the
// call processed (events in a batch, rows, messages). Spans stay in memory
// and are written out once, when the run ends.
//
// A span's self time is its duration minus the union of its children's
// intervals (clipped to the parent): overlapping children are not counted
// twice, and time a child spent outside its parent is not subtracted.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  std::uint64_t items = 1;
};

/// Per-name totals over a recorder's spans.
struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;

  /// Total (or self) seconds per item, scaled (1e9 = ns per item).
  [[nodiscard]] double per_item(double scale, bool self = false) const {
    return items == 0 ? 0.0
                      : (self ? self_s : total_s) * scale /
                            static_cast<double>(items);
  }
};

/// Self time of an interval given its children's intervals (any order, may
/// overlap, may extend past the parent).
[[nodiscard]] std::int64_t self_time_ns(
    std::int64_t start_ns, std::int64_t end_ns,
    std::vector<std::pair<std::int64_t, std::int64_t>> children);

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and every Scope is a no-op, so the
  /// untraced run pays one branch per instrumented call.
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span: opens on construction, closes on destruction or close().
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint32_t request = 0,
          std::uint64_t items = 1);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Sets the item count reported for this span (e.g. rows returned).
    void set_items(std::uint64_t items) noexcept { items_ = items; }
    void close();

   private:
    SpanRecorder* recorder_;
    std::int32_t index_ = -1;
    std::uint64_t items_;
  };

  /// Records an interval that was timed elsewhere (no parent tracking).
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint32_t request = 0, std::uint64_t items = 1);

  /// Per-name count, items, total and self seconds, and durations.
  [[nodiscard]] std::map<std::string, SpanStats> aggregate() const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::int32_t open(const char* name, std::uint32_t request);
  void close(std::int32_t index, std::uint64_t items);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
