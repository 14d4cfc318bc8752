"""One process of a benchmark run; started by ``run.py``, never by hand.

  child.py prep    --workload W --seed S --dir D
  child.py setup   --workload W --seed S --dir D
  child.py measure --workload W --seed S --dir D --seconds T --trace 0|1

``prep`` synthesizes the seeded inputs (and trains the checkpoint) into D.
``setup`` imports the program, loads the inputs and runs the workload's
set-up, then reports the CLOCK_MONOTONIC time at which it was ready for the
first call.  ``measure`` does the same and then runs the workload in a
closed loop.  Each role prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path


def monotonic() -> float:
    """System-wide clock, comparable across the parent and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """A fixed loop of small numpy ops and Python objects, timed next to ops.

    It is shaped like the program's own work (an LSTM step per sample, one
    small object per step) but runs none of the program's code.  On a
    shared host the speed of both can fall by up to 2x for minutes; timing
    the probe before and after every op tells how fast the host ran it.
    """

    REPEATS = 3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.weight = rng.standard_normal((64, 128)) * 0.1
        self.steps = rng.standard_normal((25, 1, 32))

    def _loop(self) -> float:
        np = self.np
        total = 0.0
        for _ in range(8):
            h, c, tape = np.zeros((1, 32)), np.zeros((1, 32)), []
            for x in self.steps:
                z = np.concatenate([x, h], axis=1) @ self.weight
                i, f, g, o = np.split(z, 4, axis=1)
                c = c / (1 + np.exp(-f)) + np.tanh(g) / (1 + np.exp(-i))
                h = np.tanh(c) / (1 + np.exp(-o))
                tape.append((h, tape[-1] if tape else None))
            total += float(h.sum())
        return total

    def __call__(self) -> float:
        """Best of a few timings of the loop, in seconds."""
        best = float("inf")
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - started)
        return best


def run_phase(workload, seconds, start, min_ops, probe, tracer=None):
    """Closed loop, one client: the next op starts when the last one ends.

    The speed probe runs before the first op and after every op; each op's
    probe time is the mean of the two around it.  The wall time returned
    leaves the probe's own time out.
    """
    ops, op_counts, probes = [], [], [probe()]
    index = start
    started = time.perf_counter()
    probing = 0.0
    while True:
        if tracer is not None:
            first, tensors = len(tracer.spans), tracer.tensors
            root = tracer.open("op")
        result = workload.op(index)
        if tracer is not None:
            tracer.close(root)
            counts = tracer.call_counts(first, len(tracer.spans))
            counts["tensors"] = tracer.tensors - tensors
            op_counts.append((result.key, dict(sorted(counts.items()))))
        ops.append(result)
        index += 1
        probe_started = time.perf_counter()
        probes.append(probe())
        probing += time.perf_counter() - probe_started
        if index - start >= min_ops and time.perf_counter() - started >= seconds:
            break
    around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    return ops, time.perf_counter() - started - probing, op_counts, around


def latencies(ops):
    return [x for op in ops for x in op.latencies_s]


def layer_metrics(workload, tracer, ops, wall_s, untraced_ops, first_span):
    """Per-layer metrics of the traced phase (self times per client op)."""
    self_ns, incl_ns, calls = tracer.layer_totals(first_span)
    all_self, all_incl, all_calls = tracer.layer_totals(0)
    n_ops = len(latencies(ops))
    samples = sum(op.samples for op in ops)
    routes = n_ops * getattr(workload, "records_per_op", 1)
    if hasattr(workload, "windows_per_op"):
        windows = workload.windows_per_op() * len(ops)
    else:
        windows = tracer.sizes["features.assemble"]

    def per_op(name):
        return self_ns[name] / 1e6 / n_ops

    def per_call(name, table=all_self, counts=all_calls):
        return table[name] / 1e6 / counts[name] if counts[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    attempts = sum(c for name, c in calls.items() if name.startswith("serving.attempt."))
    traced_p50 = statistics.median(latencies(ops))
    untraced_p50 = statistics.median(latencies(untraced_ops))
    metrics = {
        "startup.import_s": (workload.import_s, "s"),
        "analysis.verify_ms": (per_call("analysis.verify", all_incl), "ms"),
        "context.windows_ms": (per_op("context.windows"), "ms"),
        "features.assemble_ms": (per_op("features.assemble"), "ms"),
        "gen.g_n_ms": (per_op("gen.g_n"), "ms"),
        "gen.g_a_ms": (per_op("gen.g_a"), "ms"),
        "gen.resgen_ms": (per_op("gen.resgen"), "ms"),
        "nn.lstm_fwd_ms": (per_op("nn.lstm_fwd"), "ms"),
        "trace.unattributed_ms": (per_op("op"), "ms"),
        "trace.overhead_pct": ((traced_p50 / untraced_p50 - 1.0) * 100.0, "%"),
        "context.builds_per_route": (ratio(calls["context.windows"], routes), "count"),
        "features.windows_per_assemble": (
            ratio(tracer.sizes["features.assemble"], all_calls["features.assemble"]), "count"),
        "gen.resgen_calls_per_sample": (ratio(calls["gen.resgen"], samples), "count"),
        "gen.generate_batch_calls_per_route": (
            ratio(calls["gen.generate_batch"], routes), "count"),
        "nn.tensors_per_window": (ratio(workload.traced_tensors, windows), "count"),
        "serving.attempts_per_route": (ratio(attempts, routes), "count"),
        "serving.useful_attempt_ratio": (
            ratio(n_ops if attempts else 0, attempts), "ratio"),
        "serving.breaker_transitions": (getattr(workload, "transitions", 0), "count"),
        "uncertainty.passes_per_route": (
            ratio(calls["gen.generate"], routes) if calls["uncertainty.probe"] else 0.0,
            "count"),
        "runtime.guard_rollbacks": (getattr(workload, "rollbacks", 0), "count"),
    }
    # Layers only some workloads reach: reported with the rest of the trace,
    # not in the benchmark's per-layer list, since they read 0 elsewhere.
    specific = {
        "runtime.checkpoint_load_ms": (per_call("runtime.checkpoint_load"), "ms"),
        "runtime.validate_ms": (per_op("runtime.validate"), "ms"),
        "train.gen_fwd_ms": (per_op("train.gen_fwd"), "ms"),
        "train.disc_fwd_ms": (per_op("train.disc_fwd"), "ms"),
        "nn.backward_ms": (per_op("nn.backward"), "ms"),
        "nn.optim_ms": (per_op("nn.optim"), "ms"),
        "runtime.guard_ms": (per_op("runtime.guard"), "ms"),
        "serving.self_ms": (per_op("serving.run"), "ms"),
        "fdas.fit_ms": (per_call("fdas.fit"), "ms"),
        "fdas.generate_ms": (per_call("fdas.generate", self_ns, calls), "ms"),
        "uncertainty.pass_ms": (
            per_call("gen.generate", incl_ns, calls) if calls["uncertainty.probe"] else 0.0,
            "ms"),
    }
    # An attempt's own code is a dispatch; its cost is the generation below it.
    for level in ("full", "first_stage", "fdas"):
        specific[f"serving.attempt_ms.{level}"] = (
            per_call(f"serving.attempt.{level}", incl_ns, calls), "ms")
    layers = {
        name: {"self_ms_per_op": self_ns[name] / 1e6 / n_ops,
               "incl_ms_per_op": incl_ns[name] / 1e6 / n_ops,
               "calls_per_op": calls[name] / n_ops}
        for name in sorted(calls)
    }
    extra = {
        "ops": n_ops, "wall_s": wall_s, "traced_p50_ms": traced_p50 * 1e3,
        "untraced_p50_ms": untraced_p50 * 1e3, "samples": samples,
        "routes": routes, "windows": windows, "layers": layers,
        "setup_layers": {
            name: {"self_ms": all_self[name] / 1e6, "calls": all_calls[name]}
            for name in sorted(all_calls) if all_calls[name] != calls[name]
        },
    }
    return metrics, specific, extra


def check_counts(op_counts):
    """Ops with the same input must repeat their exact counts."""
    seen, errors = {}, []
    for key, counts in op_counts:
        if key in seen and seen[key] != counts:
            diff = {k: (seen[key].get(k), counts.get(k))
                    for k in set(seen[key]) | set(counts)
                    if seen[key].get(k) != counts.get(k)}
            errors.append(f"exact counts differ for input {key}: {diff}")
        seen.setdefault(key, counts)
    return errors, seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("prep", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    run_dir = Path(args.dir)

    started = monotonic()
    import workloads  # imports numpy and the program under test
    import_s = monotonic() - started
    cls = workloads.WORKLOADS[args.workload]

    if args.role == "prep":
        inputs = cls.prepare(args.seed, run_dir)
        with open(run_dir / "inputs.pkl", "wb") as handle:
            pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
        print(json.dumps({"prepared": True}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    loaded = monotonic()
    with open(run_dir / "inputs.pkl", "rb") as handle:
        inputs = pickle.load(handle)  # written by this benchmark's prep step
    input_s = monotonic() - loaded
    workload = cls()
    workload.import_s = import_s
    if tracer is not None:
        root = tracer.open("setup")
    workload.setup(inputs, run_dir)
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    ready = monotonic()
    probe = SpeedProbe()
    report = {"ready": ready, "input_s": input_s, "import_s": import_s,
              "setup_probe_s": probe()}
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    # Warm-up: the first op runs ~25% slow (lazy imports, caches), so it is
    # run once untimed; it also records the same-seed reference outputs.
    warm = workload.warmup()
    errors = list(warm.errors)
    # Failures are counted in the unit of attempts (client operations); a
    # failed warm-up, count check or final check adds one.
    failed_ops = 1 if warm.errors else 0
    if not args.trace:
        ops, wall_s, _, probes = run_phase(workload, args.seconds, 1, 2, probe)
    else:
        half = args.seconds / 2
        untraced, _, _, _ = run_phase(workload, half, 1, 2, probe)
        tracer.route_ids = {id(t): i for i, t in enumerate(workload.routes())}
        tracer.install()
        first_span, tensors = len(tracer.spans), tracer.tensors
        ops, wall_s, op_counts, probes = run_phase(
            workload, half, 1 + len(untraced), workload.n_keys + 1, probe,
            tracer=tracer,
        )
        tracer.uninstall()
        workload.traced_tensors = tracer.tensors - tensors
        count_errors, per_key = check_counts(op_counts)
        errors += count_errors
        failed_ops += 1 if count_errors else 0
    errors += [e for op in ops for e in op.errors]
    failed_ops += sum(max(1, len(op.latencies_s)) for op in ops if op.errors)
    final = workload.final_errors()
    errors += final
    failed_ops += 1 if final else 0

    attempted = len(latencies(ops))
    report.update({
        "numpy": workloads.np.__version__,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": min(failed_ops, attempted),
        "latencies_s": latencies(ops),
        # The speed probe's time around the op of each latency.
        "probe_s": [p for op, p in zip(ops, probes) for _ in op.latencies_s],
        "wall_s": wall_s,
        "samples": sum(op.samples for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": {k: list(v) for k, v in workload.summary(ops, wall_s).items()},
    })
    if tracer is not None:
        metrics, specific, extra = layer_metrics(
            workload, tracer, ops, wall_s, untraced, first_span
        )
        report["per_layer"] = {k: list(v) for k, v in metrics.items()}
        report["specific"] = {k: list(v) for k, v in specific.items()}
        report["trace"] = dict(extra, counts_per_input=per_key)
        spans_path = run_dir / "spans.jsonl"
        tracer.write_jsonl(spans_path)
        report["spans_file"] = str(spans_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
