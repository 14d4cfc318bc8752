"""Command-line interface: the operator's "desktop tool" (paper Figure 14).

Subcommands:

* ``simulate`` — synthesize a drive-test dataset and print its Table-1/2
  style statistics;
* ``train`` — fit a GenDT model on a dataset and save the checkpoint;
* ``generate`` — load a checkpoint and generate KPI series for a fresh
  route in the dataset's region (written as CSV);
* ``generate-campaign`` — resilient batch generation over many routes via
  the serving runtime (:mod:`repro.serving`): per-route quarantine,
  deadlines, circuit breaker, degradation ladder; JSONL envelopes out;
* ``evaluate`` — fidelity of a checkpoint against a held-out split;
* ``lint`` — run the project static-analysis engine (see
  ``repro/analysis/README.md``) over source trees.

All commands are deterministic under ``--seed``.  Run
``python -m repro <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument(
        "--dataset", choices=("a", "b"), default="a", help="which synthetic dataset"
    )
    parser.add_argument(
        "--samples", type=int, default=900, help="samples per scenario"
    )


def _make_dataset(args):
    from .datasets import make_dataset_a, make_dataset_b

    if args.dataset == "a":
        return make_dataset_a(seed=args.seed, samples_per_scenario=args.samples)
    return make_dataset_b(seed=args.seed, samples_per_scenario=args.samples)


def _split(dataset, seed: int):
    from .datasets import split_per_scenario

    return split_per_scenario(dataset, 0.3, 200.0, np.random.default_rng(seed))


def cmd_simulate(args) -> int:
    from .datasets import dataset_stats
    from .eval import format_table

    dataset = _make_dataset(args)
    stats = dataset_stats(
        {s: dataset.by_scenario(s) for s in dataset.scenarios()}
    )
    rows = [list(s.as_dict().values()) for s in stats]
    headers = list(stats[0].as_dict().keys())
    print(format_table(headers, rows, title=f"dataset {args.dataset.upper()} statistics"))
    return 0


def cmd_train(args) -> int:
    from .core import GenDT, small_config
    from .runtime import CheckpointManager, HealthGuard

    if args.epochs <= 0:
        print("no epochs run")
        return 0
    dataset = _make_dataset(args)
    split = _split(dataset, args.seed)
    kpis = args.kpis.split(",")
    config = small_config(
        epochs=args.epochs, hidden_size=args.hidden, batch_len=25, train_step=5,
        minibatch_windows=16,
    )
    model = GenDT(dataset.region, kpis=kpis, config=config, seed=args.seed)

    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.checkpoint_every > 0:
        checkpoint_dir = f"{args.out}.ckpts"
    resume_from = None
    if args.resume:
        if checkpoint_dir is None:
            print("--resume requires --checkpoint-every (or --checkpoint-dir)")
            return 2
        latest = CheckpointManager(checkpoint_dir, keep_last=args.keep_last).latest()
        if latest is None:
            print(f"no checkpoint found in {checkpoint_dir}; training from scratch")
        else:
            print(f"resuming from {latest}")
            resume_from = latest

    guard = HealthGuard() if not args.no_guard else None
    print(f"training GenDT on {len(split.train)} records ({args.epochs} epochs)...")
    history = model.fit(
        split.train,
        verbose=True,
        guard=guard,
        checkpoint_every=args.checkpoint_every or None,
        checkpoint_dir=checkpoint_dir,
        keep_last=args.keep_last,
        resume_from=resume_from,
        detect_anomaly=args.detect_anomaly,
    )
    model.save(args.out)
    if guard is not None and guard.recoveries:
        print(f"guard recovered {guard.recoveries} unhealthy step(s)")
    if not history.mse:
        print(f"saved checkpoint to {args.out} (no epochs run)")
    else:
        print(f"saved checkpoint to {args.out} (final mse={history.mse[-1]:.3f})")
    return 0


def cmd_generate(args) -> int:
    from .core import GenDT

    dataset = _make_dataset(args)
    model = GenDT.from_checkpoint(args.checkpoint, dataset.region, seed=args.seed)

    rng = np.random.default_rng(args.seed + 1)
    route = dataset.region.roads.random_walk_route(
        rng, args.route_length_m, city=dataset.region.cities[0].name
    )
    trajectory = dataset.region.roads.route_to_trajectory(
        route, args.speed, args.interval, scenario="cli", rng=rng
    )
    series = model.generate(trajectory)

    out = Path(args.out)
    header = "t_s,lat,lon," + ",".join(model.kpi_names)
    rows = np.column_stack([trajectory.t, trajectory.lat, trajectory.lon, series])
    np.savetxt(out, rows, delimiter=",", header=header, comments="")
    print(f"generated {len(trajectory)} samples -> {out}")
    return 0


def cmd_generate_campaign(args) -> int:
    import json

    from .baselines.fdas import FDaS
    from .core import GenDT
    from .serving import CampaignConfig, CampaignRunner

    dataset = _make_dataset(args)
    model = GenDT.from_checkpoint(args.checkpoint, dataset.region, seed=args.seed)

    fdas = None
    if not args.no_fdas:
        split = _split(dataset, args.seed)
        fdas = FDaS(kpis=model.kpi_names, seed=args.seed + 2)
        fdas.fit(split.train)

    rng = np.random.default_rng(args.seed + 1)
    trajectories = []
    if args.routes_file:
        routes = json.loads(Path(args.routes_file).read_text(encoding="utf-8"))
        for route in routes:
            waypoints = [(float(lat), float(lon)) for lat, lon in route]
            trajectories.append(
                dataset.region.roads.route_to_trajectory(
                    waypoints, args.speed, args.interval,
                    scenario="campaign", rng=rng,
                )
            )
    else:
        city = dataset.region.cities[0].name
        for _ in range(args.routes):
            route = dataset.region.roads.random_walk_route(
                rng, args.route_length_m, city=city
            )
            trajectories.append(
                dataset.region.roads.route_to_trajectory(
                    route, args.speed, args.interval,
                    scenario="campaign", rng=rng,
                )
            )

    runner = CampaignRunner(
        model,
        fdas=fdas,
        config=CampaignConfig(
            trajectory_deadline_s=args.trajectory_deadline or None,
            campaign_deadline_s=args.campaign_deadline or None,
            max_resamples=args.max_resamples,
            breaker_threshold=args.breaker_threshold,
            seed=args.seed,
        ),
    )
    result = runner.run(trajectories)
    out = Path(args.out)
    result.to_jsonl(out, include_series=args.emit_series)
    summary = result.summary()
    counts = summary["status_counts"]
    levels = summary["level_counts"]
    print(
        f"campaign: {summary['trajectories']} trajectories -> {out} "
        f"(ok={counts['ok']} quarantined={counts['quarantined']} "
        f"deadline={counts['deadline_exceeded']} failed={counts['failed']} "
        f"cancelled={counts['cancelled']}; levels full={levels['full']} "
        f"first_stage={levels['first_stage']} fdas={levels['fdas']}; "
        f"faults={summary['faults']})"
    )
    # Partial results are success; an empty campaign or one where nothing
    # could be served at any level signals failure to the shell.
    served = counts["ok"]
    return 0 if served > 0 else 1


def cmd_evaluate(args) -> int:
    from .core import GenDT
    from .eval import compare_methods, format_table, average_rows

    dataset = _make_dataset(args)
    split = _split(dataset, args.seed)
    model = GenDT.from_checkpoint(args.checkpoint, dataset.region, seed=args.seed)
    kpis = model.kpi_names
    on_error = "skip" if args.skip_failures else "raise"
    results = compare_methods(
        {"gendt": model.generate}, split.test, kpis, on_error=on_error
    )
    headers, rows = average_rows(results, kpis)
    print(format_table(headers, rows, title="fidelity on the held-out split"))
    skipped = sum(len(r.failures) for r in results.values())
    if skipped:
        print(f"skipped {skipped} failed generation(s); see logs for details")
    return 0


def cmd_lint(args) -> int:
    from .analysis import main as lint_main

    argv: List[str] = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.format != "text":
        argv += ["--format", args.format]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def cmd_verify_graph(args) -> int:
    import json

    from .analysis.graph import verify
    from .analysis.graph.registry import seeded_defects, shipped_entries

    entries = shipped_entries()
    if args.list:
        for entry in entries:
            print(f"{entry.name:28s} {entry.description}")
        return 0
    if args.models:
        known = {entry.name for entry in entries}
        unknown = [name for name in args.models if name not in known]
        if unknown:
            print(f"unknown model(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        entries = [entry for entry in entries if entry.name in set(args.models)]

    failures = 0
    results = []
    for entry in entries:
        report = verify(entry.build(args.seed))
        results.append(
            {
                "name": entry.name,
                "module": report.module,
                "method": report.method,
                "ok": report.ok,
                "violations": [str(v) for v in report.violations],
                "dead_params": report.dead_params,
                "severed_params": [list(s) for s in report.severed_params],
                "no_grad_output": report.no_grad_output,
                "bound_dims": report.bound_dims,
            }
        )
        if args.format == "text":
            print(report.format())
        if not report.ok:
            failures += 1

    if args.self_test:
        # Prove the verifier still catches the seeded defect classes: a
        # clean pass on a broken module is itself a gate failure.
        for defect in seeded_defects():
            report = verify(defect.build(args.seed))
            text = report.format()
            detected = not report.ok and defect.expect in text
            results.append(
                {"name": f"defect:{defect.name}", "detected": detected}
            )
            if args.format == "text":
                if detected:
                    print(f"ok    defect {defect.name} detected")
                else:
                    print(f"FAIL  defect {defect.name} NOT detected:")
                    print(text)
            if not detected:
                failures += 1

    if args.format == "json":
        print(json.dumps(results, indent=2))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GenDT reproduction CLI: simulate, train, generate, evaluate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a dataset, print stats")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="fit GenDT and save a checkpoint")
    _add_common(p_train)
    p_train.add_argument("--kpis", default="rsrp,rsrq")
    p_train.add_argument("--epochs", type=int, default=12)
    p_train.add_argument("--hidden", type=int, default=28)
    p_train.add_argument("--out", default="gendt.gendt")
    p_train.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write an atomic training checkpoint every N epochs (0 = off)",
    )
    p_train.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint directory (default: <out>.ckpts when checkpointing)",
    )
    p_train.add_argument(
        "--keep-last", type=int, default=3,
        help="rotating retention: keep only the newest N checkpoints",
    )
    p_train.add_argument(
        "--resume", action="store_true",
        help="resume from the newest checkpoint in the checkpoint directory",
    )
    p_train.add_argument(
        "--no-guard", action="store_true",
        help="disable the numerical-health guard (NaN/divergence rollback)",
    )
    p_train.add_argument(
        "--detect-anomaly", action="store_true",
        help="train under repro.nn.detect_anomaly: fail fast at the op that "
             "first produces a NaN/Inf, naming it and its call site",
    )
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="generate KPIs for a fresh route")
    _add_common(p_gen)
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--route-length-m", type=float, default=2000.0)
    p_gen.add_argument("--speed", type=float, default=8.0)
    p_gen.add_argument("--interval", type=float, default=1.0)
    p_gen.add_argument("--out", default="generated.csv")
    p_gen.set_defaults(func=cmd_generate)

    p_camp = sub.add_parser(
        "generate-campaign",
        help="resilient batch generation over many routes (serving runtime)",
    )
    _add_common(p_camp)
    p_camp.add_argument("--checkpoint", required=True)
    p_camp.add_argument(
        "--routes", type=int, default=8,
        help="number of random-walk routes to serve (ignored with --routes-file)",
    )
    p_camp.add_argument(
        "--routes-file", default=None,
        help="JSON file: list of routes, each a list of [lat, lon] waypoints",
    )
    p_camp.add_argument("--route-length-m", type=float, default=2000.0)
    p_camp.add_argument("--speed", type=float, default=8.0)
    p_camp.add_argument("--interval", type=float, default=1.0)
    p_camp.add_argument(
        "--trajectory-deadline", type=float, default=0.0, metavar="S",
        help="wall-clock budget per trajectory in seconds (0 = unlimited)",
    )
    p_camp.add_argument(
        "--campaign-deadline", type=float, default=0.0, metavar="S",
        help="wall-clock budget for the whole campaign (0 = unlimited)",
    )
    p_camp.add_argument(
        "--max-resamples", type=int, default=1,
        help="bounded re-sampling attempts per ladder level on NaN/Inf output",
    )
    p_camp.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive model faults that open the circuit breaker",
    )
    p_camp.add_argument(
        "--no-fdas", action="store_true",
        help="disable the FDaS fallback rung of the degradation ladder",
    )
    p_camp.add_argument(
        "--emit-series", action="store_true",
        help="embed full generated series in the JSONL envelopes",
    )
    p_camp.add_argument("--out", default="campaign.jsonl")
    p_camp.set_defaults(func=cmd_generate_campaign)

    p_eval = sub.add_parser("evaluate", help="fidelity of a checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--skip-failures", action="store_true",
        help="survive individual generation failures instead of aborting "
             "the sweep (failures are counted and logged)",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_lint = sub.add_parser("lint", help="run the project static-analysis engine")
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule IDs to run (default: all)",
    )
    p_lint.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule IDs to skip (applied after --select)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="violation output format (default: text)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    p_lint.set_defaults(func=cmd_lint)

    p_verify = sub.add_parser(
        "verify-graph",
        help="symbolically verify model graphs (shape/dtype contracts + "
             "gradient-flow audit)",
    )
    p_verify.add_argument(
        "models", nargs="*", metavar="MODEL",
        help="registry names to verify (default: every shipped model)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="builder seed")
    p_verify.add_argument(
        "--self-test", action="store_true",
        help="also verify the seeded-defect fixtures are still detected",
    )
    p_verify.add_argument(
        "--list", action="store_true", help="list registry model names and exit"
    )
    p_verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report output format (default: text)",
    )
    p_verify.set_defaults(func=cmd_verify_graph)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
