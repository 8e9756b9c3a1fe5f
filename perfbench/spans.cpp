#include "spans.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

namespace {

/// Spans open on this thread, innermost last, tagged with their recorder.
thread_local std::vector<std::pair<const SpanRecorder*, std::int32_t>>
    open_spans;

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

}  // namespace

std::int64_t self_time_ns(
    std::int64_t start_ns, std::int64_t end_ns,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  const std::int64_t duration = std::max<std::int64_t>(0, end_ns - start_ns);
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (auto [child_start, child_end] : children) {
    child_start = std::max(child_start, start_ns);
    child_end = std::min(child_end, end_ns);
    if (child_end <= child_start) continue;
    if (open && child_start <= run_end) {
      run_end = std::max(run_end, child_end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = child_start;
    run_end = child_end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return duration - covered;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint32_t request, std::uint64_t items)
    : recorder_(&recorder), items_(items) {
  if (recorder.enabled_) index_ = recorder.open(name, request);
}

void SpanRecorder::Scope::close() {
  if (index_ < 0) return;
  recorder_->close(index_, items_);
  index_ = -1;
}

std::int32_t SpanRecorder::open(const char* name, std::uint32_t request) {
  std::int32_t parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  const std::int64_t now = ns_between(origin_, Clock::now());
  std::int32_t index = 0;
  {
    const std::lock_guard lock(mutex_);
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now, now, parent, request, 1});
  }
  open_spans.emplace_back(this, index);
  return index;
}

void SpanRecorder::close(std::int32_t index, std::uint64_t items) {
  const std::int64_t now = ns_between(origin_, Clock::now());
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == index) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  const std::lock_guard lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now;
  span.items = items;
}

void SpanRecorder::add(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t request,
                       std::uint64_t items) {
  if (!enabled_) return;
  const std::lock_guard lock(mutex_);
  spans_.push_back(Span{name, ns_between(origin_, start),
                        ns_between(origin_, end), -1, request, items});
}

std::map<std::string, SpanStats> SpanRecorder::aggregate() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanStats> stats;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    SpanStats& s = stats[span.name];
    const double total = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    ++s.count;
    s.items += span.items;
    s.total_s += total;
    s.self_s += static_cast<double>(self_time_ns(span.start_ns, span.end_ns,
                                                 std::move(children[i]))) *
                1e-9;
    s.durations_s.push_back(total);
  }
  return stats;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const std::lock_guard lock(mutex_);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"items\":" << span.items
        << "}\n";
  }
}

}  // namespace perfbench
