// Benchmark entry points with machine-readable output.
//
// Every bench_* binary accepts `--json <path>` (or `--json=<path>`) and
// writes its results there as JSON, so the perf trajectory can be tracked
// across commits (bench/run_all.sh collects one BENCH_<name>.json per
// binary at the repo root).
//
//  - Google-Benchmark-based binaries use HORUS_BENCH_MAIN(), which maps
//    --json onto --benchmark_out/--benchmark_out_format.
//  - Hand-rolled mains (fig5/fig6/table1) collect rows into a JsonReport.
//
// Every report carries a top-level "context" block (core count, build type,
// compiler, git sha) and a "metrics" registry snapshot. A report that cannot
// be written in full makes the bench exit non-zero.
#pragma once

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace horus::bench {

/// Value of "--json <path>" / "--json=<path>" in argv, or "" when absent.
inline std::string json_out_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return argv[i] + 7;
    }
  }
  return {};
}

inline bool flag_present(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Value of "--threads N" / "--threads=N" in argv; defaults to
/// hardware concurrency so one flagless run measures the full machine.
/// Every bench_* binary accepts the flag (run_benchmark_main strips it
/// before Google Benchmark sees argv); the threaded fig7/fig8 variants
/// register 1-vs-N runs from it.
inline unsigned threads_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      value = argv[i] + 10;
    }
    if (value != nullptr) {
      const long parsed = std::strtol(value, nullptr, 10);
      if (parsed > 0) return static_cast<unsigned>(parsed);
    }
  }
  return ThreadPool::default_parallelism();
}

/// The process metrics registry as a Json value, for embedding into every
/// benchmark report: the counters explain the wall-clock numbers (how many
/// candidates were pruned, how often the pool stole, ...).
inline Json metrics_snapshot() {
  return Json::parse(obs::Registry::global().expose_json());
}

/// HEAD of the source checkout when the bench runs, with a "-dirty"
/// suffix when the working tree has uncommitted changes, or "unknown" (no
/// git, or a source tree outside a checkout). HORUS_SOURCE_DIR,
/// HORUS_BUILD_TYPE and HORUS_COMPILER come from bench/CMakeLists.txt.
inline std::string git_sha() {
  // --exclude='*' ignores tags, so the output is always the bare sha.
  const std::string cmd =
      "git -C '" HORUS_SOURCE_DIR
      "' describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null";
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    std::array<char, 64> buf{};
    const bool got = std::fgets(buf.data(), buf.size(), pipe) != nullptr;
    const int status = ::pclose(pipe);
    std::string sha = got ? buf.data() : "";
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (status == 0 && sha.size() >= 40) return sha;
  }
  return "unknown";
}

/// Where a report was produced, so numbers from different hosts or builds
/// are never compared blind. bench/run_all.sh fails any report without it.
inline Json run_context() {
  Json ctx = Json::object();
  ctx["nproc"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  ctx["build_type"] = std::string(HORUS_BUILD_TYPE);
  ctx["compiler"] = std::string(HORUS_COMPILER);
  ctx["git_sha"] = git_sha();
  return ctx;
}

/// Writes `doc` to `path`; false (with a message on stderr) unless every
/// byte reached the file.
inline bool write_report(const std::string& path, const Json& doc) {
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Re-opens a finished report file and embeds the run context and metrics
/// snapshot under top-level "context" and "metrics" keys (Google Benchmark
/// owns the file while running, so post-hoc rewrite is the only seam).
/// bench/run_all.sh fails any produced JSON missing either key. Returns
/// false when the report could not be read back or rewritten in full.
inline bool embed_metrics_snapshot(const std::string& path) {
  if (path.empty()) return true;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench: cannot re-open %s to embed metrics\n",
                 path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  try {
    Json doc = Json::parse(text);
    doc["context"] = run_context();
    doc["metrics"] = metrics_snapshot();
    return write_report(path, doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: metrics embed failed for %s: %s\n",
                 path.c_str(), e.what());
    return false;
  }
}

/// Google-Benchmark main loop, with --json translated into the library's
/// --benchmark_out flags before Initialize() consumes argv.
inline int run_benchmark_main(int argc, char** argv) {
  const std::string json_path = json_out_path(argc, argv);
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      storage.push_back("--benchmark_out=" + std::string(argv[++i]));
      storage.push_back("--benchmark_out_format=json");
    } else if (arg.rfind("--json=", 0) == 0) {
      storage.push_back("--benchmark_out=" + arg.substr(7));
      storage.push_back("--benchmark_out_format=json");
    } else if (arg == "--threads" && i + 1 < argc) {
      ++i;  // consumed by threads_flag() before Initialize()
    } else if (arg.rfind("--threads=", 0) == 0) {
      // consumed by threads_flag()
    } else if (arg == "--quick") {
      // consumed by flag_present(); the GB-based binaries ignore it
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return embed_metrics_snapshot(json_path) ? 0 : 1;
}

/// Row collector for the hand-rolled benchmark mains. Mirrors the
/// {"benchmarks": [...]} top-level shape of Google Benchmark's JSON so one
/// consumer can read both.
class JsonReport {
 public:
  JsonReport(int argc, char** argv) : path_(json_out_path(argc, argv)) {}

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  void add_row(Json row) { rows_.push_back(std::move(row)); }

  /// Writes the report (no-op without --json). False when it could not be
  /// written in full; mains turn that into a non-zero exit.
  [[nodiscard]] bool write(const char* bench_name) const {
    if (path_.empty()) return true;
    Json doc = Json::object();
    doc["name"] = std::string(bench_name);
    doc["benchmarks"] = rows_;
    doc["context"] = run_context();
    doc["metrics"] = metrics_snapshot();
    return write_report(path_, doc);
  }

 private:
  std::string path_;
  Json rows_ = Json::array();
};

}  // namespace horus::bench

#define HORUS_BENCH_MAIN()                          \
  int main(int argc, char** argv) {                 \
    return horus::bench::run_benchmark_main(argc, argv); \
  }
