#!/usr/bin/env python3
"""GenDT benchmark: seeded workloads measured end to end and layer by layer.

One workload per run (the form BENCHMARK.json's command takes)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Every workload, each in fresh processes (exits non-zero if any check fails)::

    python3 perfbench/run.py --all --seed 1 --seconds 15 [--trace 1]

A run starts three kinds of child processes (``child.py``): one that
prepares the seeded inputs and trains the checkpoint (untimed), a few that
only time set-up, and one that measures.  ``--trace 0`` reports the
end-to-end metrics, with timings scaled to the reference speed by a speed
probe timed next to every op; ``--trace 1`` wraps the program's public
entry points and reports the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
definitions and workload notes are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
WORKLOADS = ("train", "generate_long", "campaign", "uncertainty")
#: Fresh processes that only time set-up; the measuring child adds one more.
SETUP_CHILDREN = 2
#: BLAS threads in every child (<= nproc); recorded in the output.
BLAS_THREADS = 1
#: The speed probe's time (child.SpeedProbe) at the reference speed: its
#: best on the reference host, a 2-vCPU Intel Xeon KVM guest.
PROBE_REF_S = 4.0e-3
#: Whole-run budget, under the 180 s a run may take.
BUDGET_S = 170.0
#: Per-layer metrics reported by --trace 1 (the rest go to the trace file).
PER_LAYER = (
    "startup.import_s", "analysis.verify_ms", "context.windows_ms",
    "features.assemble_ms", "gen.g_n_ms", "gen.g_a_ms", "gen.resgen_ms",
    "nn.lstm_fwd_ms", "trace.unattributed_ms", "trace.overhead_pct",
    "context.builds_per_route", "features.windows_per_assemble",
    "gen.resgen_calls_per_sample", "gen.generate_batch_calls_per_route",
    "nn.tensors_per_window", "serving.attempts_per_route",
    "serving.useful_attempt_ratio", "serving.breaker_transitions",
    "uncertainty.passes_per_route", "runtime.guard_rollbacks",
)


class ChildFailed(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_child(role: str, args: argparse.Namespace, run_dir: Path, deadline: float,
              timeout: float) -> dict:
    """Run one child to completion; returns its JSON report."""
    cmd = [sys.executable, str(CHILD), role, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(run_dir),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise ChildFailed(f"time budget exhausted before {role}")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=min(timeout, remaining),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} child timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ref_setup(report: dict, spawned: float) -> float:
    """Set-up time of one fresh child at the reference speed (seconds)."""
    setup = report["ready"] - spawned - report["input_s"]
    return setup * PROBE_REF_S / report["setup_probe_s"]


def percentile(values, q):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1], len(ordered) - rank


def show(name, value, unit, n, note=""):
    print(f"{name} = {value:.6g} {unit} (n={n}{note})")


def measure(args: argparse.Namespace) -> int:
    started = monotonic()
    deadline = started + BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT))
    try:
        run_child("prep", args, run_dir, deadline, 120.0)
        setups = []
        if not args.trace:
            for _ in range(SETUP_CHILDREN):
                spawned = monotonic()
                child = run_child("setup", args, run_dir, deadline, 60.0)
                setups.append(ref_setup(child, spawned))
        spawned = monotonic()
        report = run_child("measure", args, run_dir, deadline, args.seconds + 120.0)
        setups.append(ref_setup(report, spawned))
        trace_file = save_trace(args, report) if args.trace else None
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed clients=1 blas_threads={BLAS_THREADS} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={report['numpy']}")
    lat_ms = [x * 1e3 for x in report["latencies_s"]]
    if args.trace:
        metrics = {k: report["per_layer"][k] for k in PER_LAYER}
        for name, (value, unit) in {**metrics, **report["specific"]}.items():
            show(name, value, unit, report["attempted"])
        counts = json.dumps(report["trace"]["counts_per_input"], sort_keys=True)
        print(f"exact_counts_sha256 = {hashlib.sha256(counts.encode()).hexdigest()}")
        print(f"trace_summary = {trace_file}")
    else:
        # Each latency at the reference speed: scaled by how much slower than
        # the reference the speed probe ran around its op.
        ref_ms = [x * PROBE_REF_S / p for x, p in zip(lat_ms, report["probe_s"])]
        metrics = {
            "setup_s": [statistics.median(setups), "s"],
            "peak_rss_mb": [report["peak_rss_mb"], "MB"],
            "samples_per_s_ref": [report["samples"] / sum(ref_ms) * 1e3, "samples/s"],
            "op_ms_ref": [statistics.median(ref_ms), "ms"],
        }
        show("setup_s", metrics["setup_s"][0], "s", len(setups))
        show("peak_rss_mb", report["peak_rss_mb"], "MB", 1)
        show("samples_per_s_ref", metrics["samples_per_s_ref"][0], "samples/s", len(lat_ms))
        show("op_ms_ref", metrics["op_ms_ref"][0], "ms", len(lat_ms))
        show("probe_ms_p50", statistics.median(report["probe_s"]) * 1e3, "ms",
             len(lat_ms))
        for q in (50, 90, 99):
            value, beyond = percentile(lat_ms, q)
            if q == 50 or beyond >= 10:
                show(f"op_ms_p{q}", value, "ms", len(lat_ms), f", {beyond} beyond")
        for name, (value, unit, n) in report["summary"].items():
            show(name, value, unit, n)
    for error in report["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not report["errors"] and report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def save_trace(args: argparse.Namespace, report: dict) -> Path:
    """Keep the spans and the trace summary under perfbench/out/traces."""
    traces = OUT / "traces"
    traces.mkdir(exist_ok=True)
    stem = traces / f"{args.workload}-seed{args.seed}"
    shutil.move(report.pop("spans_file"), f"{stem}.spans.jsonl")
    summary = {k: report[k] for k in ("per_layer", "specific", "trace", "errors")}
    summary.update(blas_threads=BLAS_THREADS, latencies_s=report["latencies_s"])
    path = Path(f"{stem}.summary.json")
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    return path


def run_all(args: argparse.Namespace) -> int:
    """Every workload in fresh processes; traced runs are made twice."""
    ok = True
    for workload in WORKLOADS:
        digests = []
        for _ in range(2 if args.trace else 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
            print(proc.stdout, end="")
            ok &= proc.returncode == 0
            digests += [line.split(" = ")[1] for line in proc.stdout.splitlines()
                        if line.startswith("exact_counts_sha256")]
        if len(set(digests)) > 1:
            print(f"CHECK FAILED: {workload}: exact counts differ between two "
                  "traced runs with the same seed", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
