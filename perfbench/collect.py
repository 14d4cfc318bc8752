#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads train,campaign]
        [--seconds 15] [--trace 0] [--out perfbench/out/collect.json]

For every workload and metric it reports the values of all runs, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median.  Exits
non-zero if any run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="train,generate_long,campaign,uncertainty")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=str(HERE / "out" / "collect.json"))
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok &= result is not None and result["correct"]
            runs.append({"seed": seed, "exit": proc.returncode, "result": result})
            values = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
            print(workload, seed, proc.returncode, values, flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"] if runs[0]["result"] else ():
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else None
            metrics[name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                             "spread": spread}
            print(f"  {name}: median={median:.4g} spread={spread}")
        summary[workload] = {"runs": runs, "metrics": metrics}
    out = Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
