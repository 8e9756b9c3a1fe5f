#!/usr/bin/env sh
# Runs every bench_* binary and writes one BENCH_<name>.json per benchmark
# at the repo root, for before/after comparison across commits.
#
# Usage: bench/run_all.sh [build-dir] [--quick] [--threads N]
#   build-dir    defaults to ./build
#   --quick      forwarded to every benchmark (smaller sizes / durations)
#   --threads N  forwarded to every benchmark (default: hardware
#                concurrency). fig7/fig8 register both threads:1 and
#                threads:N variants, so one run records the 1-vs-N delta
#                in the same JSON; the other binaries ignore the flag.
#
# Exits 2 when build-dir is a Debug build, and 1 when any bench fails or
# writes a report without its "metrics" or "context" block.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
quick=""
threads=""
expect_threads=0
for arg in "$@"; do
  if [ "$expect_threads" = 1 ]; then
    threads="--threads $arg"
    expect_threads=0
    continue
  fi
  case "$arg" in
    --quick) quick="--quick" ;;
    --threads) expect_threads=1 ;;
    --threads=*) threads="--threads ${arg#--threads=}" ;;
    *) build_dir="$arg" ;;
  esac
done
if [ "$expect_threads" = 1 ]; then
  echo "error: --threads needs a value" >&2
  exit 2
fi
# Debug numbers are not comparable with anything committed; refuse them.
if grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Debug$' "$build_dir/CMakeCache.txt" \
    2>/dev/null; then
  echo "error: $build_dir is a Debug build; benchmark a release build" >&2
  exit 2
fi

benches="fig5_throughput fig6_logical_time fig7_q1 fig8_q2 table1_event_mix ablations encoders chaos service segments query_scan clocks"

status=0
for name in $benches; do
  bin="$build_dir/bench/bench_$name"
  if [ ! -x "$bin" ]; then
    echo "skip: $bin not built" >&2
    continue
  fi
  out="$repo_root/BENCH_$name.json"
  echo "=== bench_$name -> $out ==="
  # shellcheck disable=SC2086  # $quick/$threads are intentionally word-split
  if ! "$bin" --json "$out" $quick $threads; then
    echo "FAILED: bench_$name" >&2
    status=1
    continue
  fi
  # Every report must carry the registry snapshot and the run context
  # (bench_main.h writes both); a missing block means that path broke.
  for block in metrics context; do
    if ! grep -q "\"$block\"" "$out"; then
      echo "FAILED: bench_$name produced $out without a \"$block\" block" >&2
      status=1
    fi
  done
done
exit $status
