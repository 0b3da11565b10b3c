#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one
workload (see perfbench/README.md).

    python3 perfbench/run.py --workload batch-glove|serve-sift|churn-sift \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (library, song_server and
the perfbench binary) into .bench_build/, runs the workload, and prints a
provenance line and then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list. With
--trace 1 the workload runs twice, untraced and then traced; the metrics
are the per_layer list, taken from the traced run, plus the tracing
overhead (traced minus untraced) of every end-to-end metric. The traced
run's spans are written under .bench_build/traces/.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not run (missing sources, a failed build, an
armed fault spec, a timeout).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("batch-glove", "serve-sift", "churn-sift")
# Layers (metric-name prefixes) on each workload's path. A per-layer metric
# of any other layer reads 0 on that workload: no call reached the layer.
LAYERS = {
    "batch-glove": {"setup", "search", "engine"},
    "serve-sift": {"setup", "search", "serve"},
    "churn-sift": {"setup", "search", "churn"},
}
# Every run, including the traced pair, must end well inside 180 s.
DEADLINE_S = 165.0


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def build(deadline):
    src = BUILD / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(src),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (src / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (configure, ["cmake", "--build", str(src), "-j", jobs]):
        left = deadline - time.monotonic()
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=max(1.0, left))
        if r.returncode != 0:
            die("build failed: " + " ".join(cmd))
    return src / "perfbench", src / "song_server"


def run_workload(binary, server, args, threads, trace, deadline):
    """Runs one workload in its own process group; returns its JSON."""
    work = BUILD / "work" / f"{os.getpid()}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = BUILD / "traces" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(trace)),
           "--threads", str(threads), "--work-dir", str(work),
           "--server", str(server), "--spans-out", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{args.workload} did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    if not lines:
        die(f"{args.workload} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    for err in result.get("errors", []):
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    return result


def git_describe():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def pick(names, source, workload, extra=None):
    """Maps each declared metric name to its measured value."""
    values = {}
    for name, unit in names.items():
        if extra is not None and name in extra:
            value = extra[name]
        elif name in source:
            value = source[name]
        elif name.startswith("self_ms.") or \
                name.split(".")[0] not in LAYERS[workload] | {"trace"}:
            value = 0.0
        else:
            die(f"{workload} did not report {name}")
        if not math.isfinite(value):
            die(f"{workload} reported a non-finite {name}")
        values[name] = {"value": value, "unit": unit}
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "song").is_dir() or \
            not (ROOT / "tools" / "song_server.cc").is_file():
        die(f"repository sources not found under {ROOT}")
    if os.environ.get("SONG_FAULT_SPEC"):
        die("SONG_FAULT_SPEC is set; refusing to measure injected faults")
    e2e, per_layer = load_spec()
    # The first run in a checkout builds from scratch; later runs find the
    # build up to date. The run's own clock starts after the build.
    binary, server = build(time.monotonic() + 850.0)
    deadline = time.monotonic() + DEADLINE_S

    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(4, nproc))
    base = run_workload(binary, server, args, threads, False, deadline)
    result, correct = base, base["correct"]
    if args.trace:
        traced = run_workload(binary, server, args, threads, True, deadline)
        correct = correct and traced["correct"]
        overhead = {f"trace_overhead.{name}":
                    traced["metrics"].get(name, math.nan) -
                    base["metrics"].get(name, math.nan)
                    for name in e2e}
        metrics = pick(per_layer, traced["metrics"], args.workload, overhead)
        result = traced
    else:
        metrics = pick(e2e, base["metrics"], args.workload)

    print(json.dumps({"provenance": {
        "git_describe": git_describe(), "simd_tier": result["simd_tier"],
        "nproc": nproc, "threads": threads, "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds,
        "spans": result["spans"] or None}}))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
