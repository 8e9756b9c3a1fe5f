// Chaos benchmark: runs every builtin adversarial scenario (gen/chaos.h)
// end to end — faulty broker, reordered delivery, rebalance splits — and
// reports ingest/verify cost plus the differential verification counters.
//
// Unlike the figure benches this one doubles as a correctness gate: the
// process exits non-zero when any scenario's differential matrix reports a
// mismatch, so tools/chaos_sweep.sh can hammer seeds and catch drift.
//
// Flags: --json <path>, --quick, --seed N (default 7). Without --quick each
// scenario's request count is scaled 10x over the ctest sizes.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_main.h"
#include "gen/chaos.h"

namespace {

std::uint64_t seed_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      value = argv[i] + 7;
    }
    if (value != nullptr) return std::strtoull(value, nullptr, 10);
  }
  return 7;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace horus;

  const bool quick = bench::flag_present(argc, argv, "--quick");
  const std::uint64_t seed = seed_flag(argc, argv);
  const unsigned threads = bench::threads_flag(argc, argv);
  bench::JsonReport report(argc, argv);

  const std::string wal_root =
      (std::filesystem::temp_directory_path() /
       ("horus_bench_chaos_" + std::to_string(::getpid())))
          .string();

  std::printf("=== Chaos scenarios: adversarial ingest + differential "
              "verification (seed %llu) ===\n\n",
              static_cast<unsigned long long>(seed));
  std::printf("%-18s %8s %8s %10s %12s %9s %9s %11s %6s\n", "scenario",
              "events", "edges", "ingest(s)", "events/s", "verify(s)",
              "hb-pairs", "inversions", "ok");
  std::printf("%.*s\n", 98,
              "----------------------------------------------------------"
              "----------------------------------------");

  bool all_ok = true;
  for (gen::ChaosScenario scenario : gen::builtin_chaos_scenarios(seed)) {
    if (!quick) scenario.topology.requests *= 10;
    scenario.verify_threads = threads;
    const gen::ChaosRunResult run =
        gen::run_chaos_scenario(scenario, wal_root + "/" + scenario.name);
    const gen::DifferentialReport& r = run.report;
    const double rate = run.ingest_seconds > 0
                            ? static_cast<double>(r.events) / run.ingest_seconds
                            : 0.0;
    all_ok = all_ok && r.ok();

    std::printf("%-18s %8zu %8zu %10.3f %12.0f %9.3f %9llu %11llu %6s\n",
                scenario.name.c_str(), r.events, r.edges, run.ingest_seconds,
                rate, run.verify_seconds,
                static_cast<unsigned long long>(r.hb_pairs_checked),
                static_cast<unsigned long long>(r.timestamp_inversions),
                r.ok() ? "yes" : "NO");
    if (!r.ok()) {
      std::fprintf(stderr,
                   "bench_chaos: %s FAILED differential verification "
                   "(ref=%llu par=%llu q2=%llu falcon=%llu sat=%d "
                   "drained=%d dlq=%llu)\n",
                   scenario.name.c_str(),
                   static_cast<unsigned long long>(r.reference_mismatches),
                   static_cast<unsigned long long>(r.parallel_mismatches),
                   static_cast<unsigned long long>(r.q2_mismatches),
                   static_cast<unsigned long long>(r.falcon_violations),
                   r.falcon_satisfiable ? 1 : 0, r.drained ? 1 : 0,
                   static_cast<unsigned long long>(r.dead_lettered));
    }

    Json row = Json::object();
    row["name"] = scenario.name;
    row["seed"] = static_cast<std::int64_t>(seed);
    row["events"] = static_cast<std::int64_t>(r.events);
    row["edges"] = static_cast<std::int64_t>(r.edges);
    row["ingest_seconds"] = run.ingest_seconds;
    row["events_per_second"] = rate;
    row["verify_seconds"] = run.verify_seconds;
    row["verify_threads"] = static_cast<std::int64_t>(threads);
    row["hb_pairs_checked"] = static_cast<std::int64_t>(r.hb_pairs_checked);
    row["timestamp_inversions"] =
        static_cast<std::int64_t>(r.timestamp_inversions);
    row["falcon_passes"] = static_cast<std::int64_t>(r.falcon_passes);
    row["reference_mismatches"] =
        static_cast<std::int64_t>(r.reference_mismatches);
    row["parallel_mismatches"] =
        static_cast<std::int64_t>(r.parallel_mismatches);
    row["q2_mismatches"] = static_cast<std::int64_t>(r.q2_mismatches);
    row["falcon_violations"] = static_cast<std::int64_t>(r.falcon_violations);
    row["pipeline_recoveries"] =
        static_cast<std::int64_t>(r.pipeline_recoveries);
    row["pipeline_retries"] = static_cast<std::int64_t>(r.pipeline_retries);
    row["pipeline_deduplicated"] =
        static_cast<std::int64_t>(r.pipeline_deduplicated);
    row["injected_crashes"] = static_cast<std::int64_t>(r.injected_crashes);
    row["ok"] = r.ok();
    report.add_row(std::move(row));
  }

  std::filesystem::remove_all(wal_root);
  const bool written = report.write("bench_chaos");

  std::printf("\n%s\n", all_ok
                            ? "all scenarios passed differential verification"
                            : "DIFFERENTIAL MISMATCH — see stderr above");
  return all_ok && written ? 0 : 1;
}
