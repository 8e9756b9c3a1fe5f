// Chaos suite (ctest label `chaos`): the scenario factory's adversarial
// workloads, each pushed through the faulted distributed pipeline and
// differentially verified four ways (embedded reference, Q2 against the
// reachability cut and sequential vs parallel, Falcon solver, timestamp
// ordering).
// The sanitize (TSan) and asan presets run this label too.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/chaos.h"
#include "gen/topology.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

constexpr std::uint64_t kSuiteSeed = 7;

/// Runs a scenario with its WAL under a per-test scratch directory.
gen::ChaosRunResult run_in_scratch(const gen::ChaosScenario& scenario) {
  const ScopedTempDir dir(scenario.name);
  return gen::run_chaos_scenario(scenario, dir.file("wal"));
}

gen::ChaosScenario scenario_named(const std::string& name) {
  for (gen::ChaosScenario& s : gen::builtin_chaos_scenarios(kSuiteSeed)) {
    if (s.name == name) return std::move(s);
  }
  ADD_FAILURE() << "no builtin scenario named " << name;
  return gen::ChaosScenario{};
}

/// Granular assertions over the differential report so a red run names the
/// leg that disagreed instead of just "ok() was false".
void expect_all_legs_agree(const gen::DifferentialReport& report) {
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.dead_lettered, 0u);
  EXPECT_EQ(report.reference_mismatches, 0u);
  EXPECT_EQ(report.parallel_mismatches, 0u);
  EXPECT_EQ(report.q2_mismatches, 0u);
  EXPECT_TRUE(report.falcon_satisfiable);
  EXPECT_EQ(report.falcon_violations, 0u);
  EXPECT_GT(report.hb_pairs_checked, 0u);
  EXPECT_TRUE(report.ok());
}

// ---------------------------------------------------------------------------
// Topology generator
// ---------------------------------------------------------------------------

TEST(TopologyGeneratorTest, DeterministicForSeed) {
  gen::TopologyOptions options;
  options.requests = 5;
  const std::vector<Event> a = gen::microservice_topology(options);
  const std::vector<Event> b = gen::microservice_topology(options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].thread, b[i].thread);
  }
}

TEST(TopologyGeneratorTest, GenerationOrderIsCausallyValid) {
  gen::TopologyOptions options;
  options.requests = 10;
  options.retry_storm_p = 0.5;  // unmatched sends must not break validity
  const std::vector<Event> events = gen::microservice_topology(options);

  // Every RCV's (channel, offset) was sent earlier in the list, and
  // per-host timestamps are strictly monotone.
  std::map<std::pair<ChannelId, std::uint64_t>, bool> sent;
  std::map<ThreadRef, TimeNs> last_ts;
  for (const Event& e : events) {
    auto it = last_ts.find(e.thread);
    if (it != last_ts.end()) EXPECT_LT(it->second, e.timestamp);
    last_ts[e.thread] = e.timestamp;
    const auto* net = e.net();
    if (net == nullptr) continue;
    const auto key = std::make_pair(net->channel, net->offset);
    if (e.type == EventType::kSnd) sent[key] = true;
    if (e.type == EventType::kRcv) {
      EXPECT_TRUE(sent[key]) << "RCV before its SND at event "
                             << value_of(e.id);
    }
  }
}

TEST(TopologyGeneratorTest, RetryStormLeavesUnmatchedSends) {
  gen::TopologyOptions options;
  options.requests = 20;
  options.retry_storm_p = 1.0;
  const std::vector<Event> events = gen::microservice_topology(options);
  std::size_t snd = 0;
  std::size_t rcv = 0;
  for (const Event& e : events) {
    if (e.type == EventType::kSnd) ++snd;
    if (e.type == EventType::kRcv) ++rcv;
  }
  EXPECT_GT(snd, rcv) << "every RPC should have sprayed extra attempts";
}

TEST(TopologyGeneratorTest, ChainModeEmitsLinearChains) {
  gen::TopologyOptions options;
  options.requests = 4;
  options.chain_length = 5;
  const std::vector<Event> events = gen::microservice_topology(options);
  // Per request: one frontend log + 5 chained RPCs of 5 events each.
  EXPECT_EQ(events.size(), options.requests * (1 + 5u * 5u));
}

TEST(TopologyGeneratorTest, CrossProcessShufflePreservesTimelineOrder) {
  gen::TopologyOptions options;
  options.requests = 10;
  const std::vector<Event> events = gen::microservice_topology(options);
  const std::vector<Event> shuffled = gen::cross_process_shuffle(events, 99);
  ASSERT_EQ(shuffled.size(), events.size());

  std::map<ThreadRef, std::vector<std::uint64_t>> original;
  std::map<ThreadRef, std::vector<std::uint64_t>> reordered;
  for (const Event& e : events) original[e.thread].push_back(value_of(e.id));
  for (const Event& e : shuffled) {
    reordered[e.thread].push_back(value_of(e.id));
  }
  EXPECT_EQ(original, reordered);

  // And it did actually reorder the global stream.
  const bool moved =
      !std::equal(events.begin(), events.end(), shuffled.begin(),
                  [](const Event& a, const Event& b) { return a.id == b.id; });
  EXPECT_TRUE(moved);
}

// ---------------------------------------------------------------------------
// The seven builtin scenarios, differentially verified
// ---------------------------------------------------------------------------

TEST(ChaosScenarioTest, ReorderAcrossRebalance) {
  const gen::ChaosScenario scenario = scenario_named("reorder_rebalance");
  ASSERT_TRUE(scenario.rebalance);
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
  EXPECT_GT(run.report.events, 1000u);
}

TEST(ChaosScenarioTest, ClockDriftTenfold) {
  const gen::ChaosScenario scenario = scenario_named("clock_drift_x10");
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
  // Drift 10x beyond the paper's skew makes wall-clock order lie about
  // causal order — the whole point of the scenario.
  EXPECT_GT(run.report.timestamp_inversions, 0u);
}

TEST(ChaosScenarioTest, RetryStorm) {
  const gen::ChaosScenario scenario = scenario_named("retry_storm");
  EXPECT_GT(scenario.topology.retry_storm_p, 0.0);
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
}

TEST(ChaosScenarioTest, CrashRecoverMidRequest) {
  const gen::ChaosScenario scenario = scenario_named("crash_recover");
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
  EXPECT_GT(run.report.injected_crashes, 0u);
  EXPECT_GT(run.report.pipeline_recoveries, 0u);
  EXPECT_GT(run.report.pipeline_retries, 0u);
}

TEST(ChaosScenarioTest, LongDependencyChains) {
  const gen::ChaosScenario scenario = scenario_named("long_chain");
  ASSERT_GT(scenario.topology.chain_length, 0);
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
}

TEST(ChaosScenarioTest, CrossRequestContention) {
  const gen::ChaosScenario scenario = scenario_named("contention");
  ASSERT_GT(scenario.topology.contention_services, 0);
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
}

TEST(ChaosScenarioTest, DaemonRestart) {
  // Kill -9 the service mid-ingest after a checkpoint; the restored
  // incarnation replays the queue window and must still agree with every
  // differential leg — checkpoint/restore is invisible to correctness.
  const gen::ChaosScenario scenario = scenario_named("daemon_restart");
  ASSERT_TRUE(scenario.daemon_restart);
  const gen::ChaosRunResult run = run_in_scratch(scenario);
  expect_all_legs_agree(run.report);
  EXPECT_GT(run.report.events, 1000u);
}

TEST(ChaosScenarioTest, BuiltinScenariosCoverTheAdversarialMatrix) {
  const auto scenarios = gen::builtin_chaos_scenarios(kSuiteSeed);
  ASSERT_GE(scenarios.size(), 7u);
  std::vector<std::string> names;
  names.reserve(scenarios.size());
  for (const auto& s : scenarios) names.push_back(s.name);
  for (const char* required :
       {"reorder_rebalance", "clock_drift_x10", "retry_storm",
        "crash_recover", "long_chain", "contention", "daemon_restart"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing scenario " << required;
  }
}

}  // namespace
}  // namespace horus
