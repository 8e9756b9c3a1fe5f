// Self-test of the benchmark: the span recorder's self-time arithmetic, a
// tiny run of each workload (untraced and traced), and proof that the
// daemon output check catches a single dropped event.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

bool expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok;
}

bool self_time_case() {
  bool ok = true;
  // Parent [0, 100]; children overlap each other ([10,30] and [20,50] cover
  // 40 together) and one runs past the parent's end ([90,120] counts 10).
  // The child wholly outside the parent counts nothing.
  ok &= expect(self_time_ns(0, 100, {{20, 50}, {10, 30}, {90, 120}, {200, 300}}) ==
                   50,
               "self time subtracts the union of overlapping children");
  ok &= expect(self_time_ns(0, 100, {}) == 100, "no children: self = total");
  ok &= expect(self_time_ns(0, 100, {{0, 100}, {10, 20}}) == 0,
               "a child covering the parent leaves no self time");

  SpanRecorder spans(true);
  {
    const SpanRecorder::Scope parent(spans, "parent");
    for (int k = 0; k < 2; ++k) {
      const SpanRecorder::Scope child(spans, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto stats = spans.aggregate();
  const SpanStats& parent = stats.at("parent");
  const SpanStats& child = stats.at("child");
  ok &= expect(child.count == 2 && parent.count == 1,
               "nested scopes are recorded once each");
  ok &= expect(std::abs(parent.self_s - (parent.total_s - child.total_s)) < 1e-9,
               "a parent's self time excludes its children's time");
  return ok;
}

struct TinyRun {
  bool correct = false;
  std::uint64_t failed = 0;
  std::size_t metrics = 0;
  bool finite = true;
};

TinyRun tiny_run(const Workload& workload, const std::string& name, bool trace,
                 const std::string& root, std::int64_t drop_event = -1) {
  RunConfig config;
  config.workload = name;
  config.seed = 7;
  config.seconds = 1.0;
  config.trace = trace;
  config.tiny = true;
  config.drop_event = drop_event;
  config.work_dir = root + "/selftest-" + name + "-p" + std::to_string(::getpid());
  fs::remove_all(config.work_dir);
  fs::create_directories(config.work_dir);
  Tally tally;
  Params params;
  TinyRun out;
  const std::vector<Metric> metrics = workload(config, tally, params).metrics;
  out.correct = tally.correct();
  out.failed = tally.failed();
  out.metrics = metrics.size();
  for (const Metric& m : metrics) out.finite = out.finite && std::isfinite(m.value);
  for (const std::string& reason : tally.reasons()) {
    std::printf("       (%s)\n", reason.c_str());
  }
  fs::remove_all(config.work_dir);
  return out;
}

bool tiny_workloads_case(const std::string& root) {
  bool ok = true;
  const std::pair<const char*, Workload> workloads[] = {
      {"online", run_online}, {"analyze", run_analyze}};
  for (const auto& [name, workload] : workloads) {
    for (const bool trace : {false, true}) {
      const TinyRun run = tiny_run(workload, name, trace, root);
      const std::size_t expected = trace ? layer_metrics(Layers{}).size()
                                         : end_to_end_metrics(EndToEnd{}).size();
      ok &= expect(run.correct && run.failed == 0 && run.metrics == expected &&
                       run.finite,
                   std::string("tiny ") + name + (trace ? " traced" : " untraced") +
                       " run passes its checks with " + std::to_string(expected) +
                       " finite metrics");
    }
  }
  return ok;
}

bool dropped_event_case(const std::string& root) {
  // Event 1234 is neither a probe nor a request entry, so the run completes
  // and only the comparison with the batch facade can notice it is gone.
  const TinyRun run = tiny_run(run_online, "online", false, root, 1234);
  return expect(!run.correct && run.failed > 0,
                "the online output check catches one dropped event");
}

}  // namespace

int run_self_test(const std::string& work_root) {
  fs::create_directories(work_root);
  bool ok = true;
  std::printf("self-time arithmetic\n");
  ok &= self_time_case();
  std::printf("tiny run of each workload\n");
  ok &= tiny_workloads_case(work_root);
  std::printf("dropped event\n");
  ok &= dropped_event_case(work_root);
  std::printf("%s\n", ok ? "self-test passed" : "self-test FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
