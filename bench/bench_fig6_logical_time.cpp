// Figure 6 reproduction: time to assign logical clocks to an execution
// graph — the Falcon-style constraint solver vs. Horus' incremental graph
// traversal, across graph sizes.
//
// Paper reference (seconds):
//   events : 2500   5000   10000   20000   40000   80000
//   Falcon : 0.23   0.45    0.89    1.78*   3.54*  758.19 (super-linear;
//            >12 min beyond 10k events in their measurements)
//   Horus  : ~constant-per-event, ~7 s at 80k on their setup
//
// Absolute numbers differ (their Falcon uses Z3 over a network-attached DB;
// ours is an in-process solver), but the *shape* — solver super-linear,
// traversal near-linear — is the claim under reproduction.
#include <cstdio>
#include <cstring>

#include "baselines/falcon_solver.h"
#include "bench_main.h"
#include "bench_util.h"
#include "core/logical_clocks.h"
#include "gen/synthetic.h"

namespace {

using namespace horus;

struct Point {
  std::size_t events;
  double falcon_ms;
  std::size_t falcon_passes;
  double horus_ms;
  double horus_incremental_ms;
};

Point run_point(std::size_t events) {
  Point p{};
  p.events = events;

  gen::ClientServerOptions options;
  options.num_events = events;
  const auto ordered = gen::client_server_events(options);
  // Falcon consumes the *unordered* export.
  const auto shuffled = gen::shuffled(ordered, /*seed=*/99);
  const auto constraints = gen::to_constraints(shuffled);

  {
    baselines::FalconSolver solver(static_cast<std::uint32_t>(events));
    solver.add_constraints(constraints);
    const auto start = bench::BenchClock::now();
    const auto result = solver.solve();
    p.falcon_ms = bench::ms_since(start);
    p.falcon_passes = result.passes;
    if (!result.satisfiable) p.falcon_ms = -1;
  }

  {
    Horus horus;
    for (const Event& e : ordered) horus.ingest(e);
    horus.intra().flush();
    horus.inter().flush();
    LogicalClockAssigner assigner(horus.graph());
    const auto start = bench::BenchClock::now();
    assigner.assign();
    p.horus_ms = bench::ms_since(start);
  }

  {
    // Incremental mode: the graph already has clocks for the first half;
    // measure assigning only the newly arrived second half (the paper's
    // "execution time depends on the amount of *unprocessed* events").
    Horus horus;
    const std::size_t half = events / 2;
    for (std::size_t i = 0; i < half; ++i) horus.ingest(ordered[i]);
    horus.seal();
    for (std::size_t i = half; i < events; ++i) horus.ingest(ordered[i]);
    horus.intra().flush();
    horus.inter().flush();
    LogicalClockAssigner* assigner = nullptr;  // reuse internal one via seal
    (void)assigner;
    const auto start = bench::BenchClock::now();
    horus.seal();  // flushes nothing new; assigns the second half
    p.horus_incremental_ms = bench::ms_since(start);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = horus::bench::flag_present(argc, argv, "--quick");
  horus::bench::JsonReport report(argc, argv);

  std::printf("=== Figure 6: logical time assignment, Falcon solver vs "
              "Horus ===\n\n");
  std::printf("%9s %14s %10s %12s %22s\n", "events", "Falcon (ms)", "passes",
              "Horus (ms)", "Horus incr. half (ms)");
  std::printf("%.*s\n", 72,
              "-----------------------------------------------------------"
              "-------------");
  const std::size_t sizes[] = {2'500, 5'000, 10'000, 20'000, 40'000, 80'000};
  for (const std::size_t size : sizes) {
    if (quick && size > 20'000) break;
    const Point p = run_point(size);
    std::printf("%9zu %14.1f %10zu %12.1f %22.1f\n", p.events, p.falcon_ms,
                p.falcon_passes, p.horus_ms, p.horus_incremental_ms);
    std::fflush(stdout);
    horus::Json row = horus::Json::object();
    row["events"] = static_cast<std::int64_t>(p.events);
    row["falcon_ms"] = p.falcon_ms;
    row["falcon_passes"] = static_cast<std::int64_t>(p.falcon_passes);
    row["horus_ms"] = p.horus_ms;
    row["horus_incremental_ms"] = p.horus_incremental_ms;
    report.add_row(std::move(row));
  }
  if (!report.write("fig6_logical_time")) return 1;
  std::printf("\npaper shape: Falcon grows super-linearly with graph size "
              "(unusable beyond\na few thousand events); Horus grows "
              "near-linearly and the incremental run\nscales with new "
              "events only.\n");
  return 0;
}
