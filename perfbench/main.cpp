// horus_perfbench: runs one benchmark workload and prints its metrics.
//
//   horus_perfbench --workload online|analyze --seed N --seconds S
//                   --trace 0|1 [--git-sha SHA] [--tmp-root DIR]
//                   [--spans-dir DIR]
//   horus_perfbench --self-test [--tmp-root DIR]
//
// Human-readable lines come first; the last stdout line is one JSON object
// with exactly the keys correct, attempted, failed and metrics. The exit
// code is 0 only when every output check passed. Normally driven by
// perfbench/run.py, which builds this binary first.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Shortest representation that reads back as the same double: every digit
/// the measurement has, and no more.
std::string json_number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + key);
    key = key.substr(2);
    if (key == "self-test") {
      args.values[key] = "1";
    } else if (i + 1 < argc) {
      args.values[key] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + key);
    }
  }
  return args;
}

std::string hostname() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "horus_perfbench: %s\n"
               "usage: horus_perfbench --workload online|analyze "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--tmp-root DIR] [--spans-dir DIR]\n"
               "       horus_perfbench --self-test [--tmp-root DIR]\n",
               why);
  return 2;
}

/// Removes the per-run data directory however the run ends.
struct WorkDir {
  explicit WorkDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string path;
};

int run(const Args& args) {
  RunConfig config;
  config.workload = args.get("workload");
  Workload workload;
  if (config.workload == "online") {
    workload = run_online;
  } else if (config.workload == "analyze") {
    workload = run_analyze;
  } else {
    return usage("--workload must be online or analyze");
  }
  try {
    config.seed = std::stoull(args.get("seed", "1"));
    config.seconds = std::stod(args.get("seconds", "10"));
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (!(config.seconds > 0.0 && config.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  const std::string trace = args.get("trace", "0");
  if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
  config.trace = trace == "1";

  const std::string root = args.get("tmp-root", ".bench_tmp");
  const WorkDir work(root + "/" + config.workload + "-s" +
                     std::to_string(config.seed) + "-p" +
                     std::to_string(::getpid()));
  config.work_dir = work.path;
  if (config.trace && args.has("spans-dir")) {
    fs::create_directories(args.get("spans-dir"));
    config.trace_path =
        args.get("spans-dir") + "/spans-" + config.workload + ".jsonl";
  }

  Tally tally;
  Params params;
  const Report report = workload(config, tally, params);
  const std::vector<Metric>& metrics = report.metrics;

  std::string context = "{\"host\":" + json_string(hostname()) +
                        ",\"nproc\":" +
                        std::to_string(std::thread::hardware_concurrency()) +
                        ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                        ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
                        ",\"git_sha\":" + json_string(args.get("git-sha", "unknown")) +
                        ",\"workload\":" + json_string(config.workload) +
                        ",\"seed\":" + std::to_string(config.seed) +
                        ",\"seconds\":" + json_number(config.seconds) +
                        ",\"trace\":" + trace + ",\"params\":{";
  for (std::size_t i = 0; i < params.entries.size(); ++i) {
    context += (i == 0 ? "" : ",") + json_string(params.entries[i].first) + ":" +
               json_string(params.entries[i].second);
  }
  context += "}}";
  std::printf("context %s\n", context.c_str());

  std::string result = "{";
  bool finite = true;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    finite = finite && std::isfinite(m.value);
    std::printf("  %-36s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.source.c_str());
    result += (i == 0 ? "" : ",") + json_string(m.name) + ":{\"value\":" +
              json_number(std::isfinite(m.value) ? m.value : 0.0) +
              ",\"unit\":" + json_string(m.unit) + "}";
  }
  result += "}";
  for (const Metric& m : report.extras) {
    std::printf("  %-36s %16.6g %-9s %s (printed only)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.source.c_str());
  }
  tally.check(finite, "every metric is a finite number");
  const double ratio = tally.attempted() == 0
                           ? 0.0
                           : static_cast<double>(tally.failed()) /
                                 static_cast<double>(tally.attempted());
  std::printf("  %-36s %16.6g %-9s (%llu of %llu operations)\n", "fail_ratio",
              ratio, "ratio", static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  for (const std::string& reason : tally.reasons()) {
    std::printf("  failure: %s\n", reason.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, tally.attempted())),
              static_cast<unsigned long long>(tally.failed()), result.c_str());
  std::fflush(stdout);
  return tally.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "horus_perfbench: refusing to run a build without optimization "
               "(configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release)\n");
  return 2;
#endif
  try {
    const Args args = parse_args(argc, argv);
    if (args.has("self-test")) {
      return run_self_test(args.get("tmp-root", ".bench_tmp"));
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "horus_perfbench: %s\n", e.what());
    return 1;
  }
}
