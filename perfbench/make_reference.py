#!/usr/bin/env python3
"""Record the ``train`` workload's final MSE per seed into reference.json.

Run on the commit whose values the benchmark should check against (the
values committed here come from the commit that introduced the benchmark)::

    python3 perfbench/make_reference.py --first 0 --last 99

The ``train`` check requires a run's final MSE to be within
``TRAIN_MSE_RTOL`` of the recorded value for its seed; for a seed without a
record it requires the value to lie in ``band``, the recorded range widened
by 25% on each side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # same BLAS threads as the benchmark's children
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=99)
    args = parser.parse_args(argv)

    import workloads

    by_seed = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for seed in range(args.first, args.last + 1):
            workload = workloads.TrainWorkload()
            workload.setup(workloads.TrainWorkload.prepare(seed, Path(tmp)), Path(tmp))
            result = workload.op(0)
            if result.errors:
                print(f"seed {seed}: {result.errors}", file=sys.stderr)
                return 1
            by_seed[str(seed)] = workload.final_mse[0]
            print(seed, by_seed[str(seed)], flush=True)
    values = list(by_seed.values())
    reference = {
        "train_final_mse": {
            "band": [0.75 * min(values), 1.25 * max(values)],
            "by_seed": by_seed,
        }
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
