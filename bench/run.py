"""Benchmark of the expaction CLI: time to verdict of pinned jobs.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client runs the workload's jobs one at a time in a closed loop, each job
in a fresh interpreter (`bench/job.py`), because a user pays for importing
the package and rebuilding the system and its datum on every invocation.
Whole passes over the job list repeat while the next one is expected to end
within --seconds.  Every job's outputs are checked against the reference
verdicts in `bench/workloads.py`.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer counters of one traced pass (see `bench/spans.py`)
plus the tracing overhead against untraced passes of the same run.  The last
line is one JSON object with the keys correct, attempted, failed and metrics.
Exits 1 when any job's verdict differs from the reference, and 2 when the
package source is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("verify-expansion", "codes", "certify-shyp", "coding-map", "stability")

# (metric, unit, better) of the gated end-to-end metrics
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_job(job: workloads.Job, seed: int, trace: bool, workdir: Path) -> dict:
    """Run one job in a fresh interpreter and check its outputs."""
    out = Path(tempfile.mkdtemp(prefix=f"{job.name}-", dir=workdir))
    config_path, result_path = out / "config.json", out / "job.json"
    config_path.write_text(json.dumps(job.config))
    argv = [sys.executable, str(BENCH / "job.py"), str(result_path), str(int(trace))]
    argv += job.argv(config_path, out / "out", seed)
    record = {"job": job.name, "command": job.command}
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = _now()
    try:
        proc = subprocess.run(
            argv, env=child_env(), cwd=out, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record.update(status=None, wall_s=_now() - start, problems=[f"timed out after {JOB_TIMEOUT_S} s"])
        return record
    record["wall_s"] = _now() - start
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["cpu_s"] = (cpu_after.ru_utime - cpu_before.ru_utime) + (cpu_after.ru_stime - cpu_before.ru_stime)
    record["status"] = proc.returncode
    problems = []
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit status {proc.returncode}: {tail[0]}")
    if result_path.is_file():
        result = json.loads(result_path.read_text())
        record["setup_s"] = result["imported_at"] - start
        record["main_s"] = result["main_s"]
        record["maxrss_kb"] = result["maxrss_kb"]
        record["trace"] = result.get("trace")
    else:
        problems.append("job wrote no result")
    if proc.returncode == 0:
        try:
            problems += job.check(out / "out")
            record["constants"] = workloads.datum_constants(out / "out")
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
            problems.append(f"unreadable output: {err!r}")
    record["problems"] = problems
    shutil.rmtree(out)
    return record


def run_pass(jobs, seed: int, trace: bool, workdir: Path) -> list:
    return [run_job(job, seed, trace, workdir) for job in jobs]


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def pass_seconds(records: list) -> float:
    return sum(r["wall_s"] for r in records)


def command_seconds(records: list, command: str) -> float:
    return sum(r.get("main_s", 0.0) for r in records if r["command"] == command)


def end_to_end(passes: list) -> dict:
    records = [r for p in passes for r in p]
    return {
        "pass_s": _median(pass_seconds(p) for p in passes),
        "setup_s": _median(r["setup_s"] for r in records if "setup_s" in r),
        "peak_rss_mb": max((r.get("maxrss_kb", 0) for r in records), default=0) / 1024.0,
    }


def command_metrics(passes: list) -> dict:
    """Printed, not gated, because not every workload runs every command: the
    time inside `cli.main` of each command's jobs, summed over a pass, as the
    median over passes."""
    present = {r["command"] for p in passes for r in p}
    return {
        f"{c.replace('-', '_')}_s": _median(command_seconds(p, c) for p in passes)
        for c in COMMANDS if c in present
    }


def traced_layers(traced: list, untraced: list) -> dict:
    raw = spans.zero_counters()
    for record in traced:
        for key, value in (record.get("trace") or {}).items():
            raw[key] += value
    overhead = pass_seconds(traced) / _median(pass_seconds(p) for p in untraced) - 1.0
    return spans.layer_metrics(raw, overhead)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "child_threads": dict.fromkeys(THREAD_VARS, "1"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one job at a time",
    }


def drift(records: list) -> list:
    """Datum constants that moved from the recorded reference values."""
    notes = []
    for r in records:
        ref = workloads.REFERENCE_CONSTANTS.get(r["job"], {})
        for key, value in r.get("constants", {}).items():
            if key in ref and not math.isclose(value, ref[key], rel_tol=1e-12, abs_tol=0.0):
                notes.append(f"{r['job']}: {key} {value!r} (recorded {ref[key]!r})")
    return sorted(set(notes))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expaction" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        deadline = _now() + args.seconds
        traced = run_pass(jobs, args.seed, True, workdir) if args.trace else []
        passes = []
        # no pass starts that would, at the median pace so far, end past the deadline
        while not passes or _now() + _median(pass_seconds(p) for p in passes) <= deadline:
            passes.append(run_pass(jobs, args.seed, False, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = traced + [r for p in passes for r in p]
    failed = [r for r in records if r["problems"]]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          + ("  (+1 traced)" if traced else ""))
    for job in jobs:
        mine = [r for r in records if r["job"] == job.name]
        verdict = "ok" if not any(r["problems"] for r in mine) else "MISMATCH"
        wall = _median(r["wall_s"] for r in mine)
        print(f"  {job.name:30s} {verdict:8s} median time to verdict {wall:8.4f} s")
    for k, p in enumerate(passes):
        print(f"  pass {k}: {pass_seconds(p):.4f} s wall, {sum(r.get('cpu_s', 0.0) for r in p):.4f} s cpu")
    for r in failed:
        print(f"  mismatch in {r['job']}: {'; '.join(r['problems'])}")
    for note in drift(records):
        print(f"  drift: {note}")

    if args.trace:
        metrics = traced_layers(traced, passes)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics = end_to_end(passes)
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, value in command_metrics(passes).items():
            print(f"  {name:40s} {value:.6g} s  (not gated)")
        print(f"  {'failed_frac':40s} {len(failed) / len(records):.6g} ratio  (not gated)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({"environment": environment(args)}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
