#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload online|analyze|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; per-run data lives under .bench_tmp/ and is removed afterwards;
traced runs leave their spans in .bench_out/spans-<workload>.jsonl. The last
line of stdout is one JSON object: correct, attempted, failed and metrics,
whose names and units must match BENCHMARK.json. The exit code is 0 only
when every output check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("online", "analyze")
# One run must finish within 180 s; the build is done before the clock starts.
RUN_TIMEOUT_S = 170
# Timings need an optimized build; CMakeLists.txt refuses Debug and the
# binary refuses to run without optimization.
BUILD_TYPE = "RelWithDebInfo"


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git sha when the checkout is a repository, else a content hash."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no Horus sources under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench-" + BUILD_TYPE.lower())
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "horus_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, capture_output=True, text=True)
        except OSError as error:
            die(f"cannot run {step[0]}: {error}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            die("build failed")
    return os.path.join(build_dir, "horus_perfbench")


def contract():
    """Metric names and units BENCHMARK.json promises, per trace mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        die(f"cannot read BENCHMARK.json: {error}")
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def layer_map_problem():
    """layers.json must describe exactly the workloads and per-layer metrics
    BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)
    if set(layers["workloads"]) != {w["name"] for w in spec["workloads"]}:
        return "layers.json workloads differ from BENCHMARK.json"
    if set(layers["per_layer"]) != {m["name"] for m in spec["per_layer"]}:
        return "layers.json per-layer metrics differ from BENCHMARK.json"
    return None


def validate(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, unit in expected.items():
        entry = metrics[name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            return f"metric {name}: expected a number in {unit}, got {entry}"
    return None


def run_child(command, tmp_root):
    """Runs the benchmark binary in its own process group; on timeout or
    interruption the whole group is killed and waited for."""
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)

    def stop(*_):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(130)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        out = None
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        # The binary removes its own data directory; this covers a crash.
        if os.path.isdir(tmp_root):
            for name in os.listdir(tmp_root):
                if name.endswith(f"-p{child.pid}"):
                    shutil.rmtree(os.path.join(tmp_root, name), ignore_errors=True)
    return child.returncode, out


def run_workload(binary, workload, args, expected, sha):
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--git-sha", sha, "--tmp-root", tmp_root,
               "--spans-dir", os.path.join(ROOT, ".bench_out")]
    code, out = run_child(command, tmp_root)
    if out is None:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        die(f"{workload}: exited {code} without a result line", code or 1)
    problem = validate(result, expected)
    if problem:
        die(f"{workload}: {problem}", 3)
    return code, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    binary = build()
    if args.self_test:
        code, out = run_child([binary, "--self-test", "--tmp-root",
                               os.path.join(ROOT, ".bench_tmp")],
                              os.path.join(ROOT, ".bench_tmp"))
        sys.stdout.write(out or "self-test timed out\n")
        problem = layer_map_problem()
        print(f"layer map: {problem or 'matches BENCHMARK.json'}")
        sys.exit(code if out is not None and problem is None else 1)

    expected = contract()[args.trace]
    sha = source_id()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results, worst = {}, 0
    for workload in workloads:
        code, lines, result = run_workload(binary, workload, args, expected, sha)
        print(f"== {workload}")
        print("\n".join(lines), flush=True)
        results[workload] = result
        worst = max(worst, code)
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]], separators=(",", ":")))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }, separators=(",", ":")))
    sys.exit(worst)


if __name__ == "__main__":
    main()
