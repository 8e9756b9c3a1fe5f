#!/usr/bin/env sh
# Seed sweep over the chaos scenario factory: runs bench_chaos once per seed
# and reports any differential-verification mismatch (bench_chaos exits
# non-zero when a scenario's matrix disagrees — reference, seq-vs-parallel,
# Q2 vs the reachability cut, or Falcon leg).
#
# Usage: tools/chaos_sweep.sh [build-dir] [--seeds N] [--start S] [--full]
#   build-dir  defaults to ./build (bench_chaos must be built there)
#   --seeds N  number of consecutive seeds to try (default 10)
#   --start S  first seed (default 1)
#   --full     drop --quick: 10x larger scenarios per seed
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
seeds=10
start=1
quick="--quick"
expect=""
for arg in "$@"; do
  if [ -n "$expect" ]; then
    case "$expect" in
      seeds) seeds="$arg" ;;
      start) start="$arg" ;;
    esac
    expect=""
    continue
  fi
  case "$arg" in
    --seeds) expect=seeds ;;
    --seeds=*) seeds="${arg#--seeds=}" ;;
    --start) expect=start ;;
    --start=*) start="${arg#--start=}" ;;
    --full) quick="" ;;
    *) build_dir="$arg" ;;
  esac
done
if [ -n "$expect" ]; then
  echo "error: --$expect needs a value" >&2
  exit 2
fi

bin="$build_dir/bench/bench_chaos"
if [ ! -x "$bin" ]; then
  echo "error: $bin not built (cmake --build $build_dir --target bench_chaos)" >&2
  exit 2
fi

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

failed=""
run=0
seed="$start"
while [ "$run" -lt "$seeds" ]; do
  log="$out_dir/seed_$seed.log"
  if "$bin" --seed "$seed" $quick --json "$out_dir/seed_$seed.json" \
      >"$log" 2>&1; then
    echo "seed $seed: ok"
  else
    echo "seed $seed: DIFFERENTIAL MISMATCH"
    grep 'FAILED differential' "$log" || tail -5 "$log"
    failed="$failed $seed"
  fi
  run=$((run + 1))
  seed=$((seed + 1))
done

echo
if [ -n "$failed" ]; then
  echo "chaos sweep: $seeds seeds, mismatches at:$failed"
  exit 1
fi
echo "chaos sweep: $seeds seeds, all scenarios verified on every seed"
