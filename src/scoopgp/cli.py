"""Command line entry point.

Subcommands cover the full workflow: generate a synthetic task family,
train a model, evaluate k-shot prediction error, run simulated
deployment, validate a dataset file, and render report tables.

Exit codes: 0 on success, 2 for usage errors (argparse handles these),
1 for runtime failures, which print a diagnostic to stderr.

SCOOPGP_THREADS caps the BLAS thread pools (applied on package import,
before numpy loads).
"""

from __future__ import annotations

import argparse
import functools
import sys


def _load_run_config(args):
    from .config import ConfigError, RunConfig, apply_overrides, load_config

    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return apply_overrides(cfg, overrides)


def _cmd_gen(args) -> int:
    from .tasks import (generate_materials, sample_ood_test_family, sample_task_family,
                        save_terrains, write_database)

    cfg = _load_run_config(args)
    g = cfg.gen
    pool = generate_materials(g.n_train_materials, g.n_ood_materials, g.rho, args.seed)
    train_tasks, train_sets = sample_task_family(pool, g.n_train_tasks, g.train_records, args.seed)
    test_tasks, test_sets = sample_ood_test_family(pool, g.n_test_tasks, g.test_records, args.seed)
    write_database(args.prefix + ".train", train_sets)
    write_database(args.prefix + ".test", test_sets)
    save_terrains(args.prefix + ".terrains.bin", train_tasks + test_tasks)
    print(f"wrote {args.prefix}.train.records.txt ({sum(len(ds) for ds in train_sets)} records, "
          f"{len(train_sets)} tasks)")
    print(f"wrote {args.prefix}.test.records.txt ({sum(len(ds) for ds in test_sets)} records, "
          f"{len(test_sets)} tasks)")
    print(f"wrote {args.prefix}.terrains.bin")
    return 0


def _cmd_train(args) -> int:
    from .gp import checkpoint_id, save_model
    from .meta import train_codega, train_dkmt, train_mean_only
    from .tasks import read_database

    cfg = _load_run_config(args)
    datasets = read_database(args.data)
    trainer = {"codega": train_codega, "dkmt": train_dkmt, "mean-only": train_mean_only}[args.method]
    result = trainer(datasets, seed=args.seed, train_cfg=cfg.train)
    if args.method == "codega":
        folds = result.fold_checkpoints
        reports = [folds[k].report for k in sorted(folds)] + [result.kernel_report, result.mean_report]
    else:
        reports = [result.report]
    save_model(args.out, result.model, {f"{args.out}.train.txt": "".join(r.to_text() for r in reports)})
    print(f"wrote {args.out} (checkpoint {checkpoint_id(result.model)})")
    return 0


def _cmd_eval_mae(args) -> int:
    from .bench import eval_kshot_mae, mean_model_mae, write_mae_report
    from .gp import load_model
    from .tasks import read_database

    cfg = _load_run_config(args)
    b = cfg.bench
    model = load_model(args.model)
    datasets = read_database(args.data)
    if args.mean_only:
        report = mean_model_mae(model, datasets, trials=b.mae_trials, seed=args.seed)
    else:
        report = eval_kshot_mae(model, datasets, shots=b.shots, trials=b.mae_trials, seed=args.seed)
    write_mae_report(args.out, report)
    for shot in report.shots:
        mae, top = report.aggregate(shot)
        print(f"{shot}-shot: mae {mae:.3f}  top mae {top:.3f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_deploy(args) -> int:
    from .bench import deployment_threshold, eval_simulated_deployment, write_deploy_report
    from .decide import run_deployment
    from .gp import load_model
    from .serialize import write_atomic
    from .tasks import load_terrains, read_database

    cfg = _load_run_config(args)
    b = cfg.bench
    model = load_model(args.model) if args.model else None
    if args.mode == "live":
        tasks = load_terrains(args.terrains)
        by_id = {t.id: t for t in tasks}
        datasets = read_database(args.data)
        lines = []
        for ds in datasets:
            if ds.task_id not in by_id:
                raise ValueError(f"task {ds.task_id} missing from {args.terrains}")
            B = args.threshold if args.threshold is not None else deployment_threshold(ds)
            trace = run_deployment(model, args.scorer, by_id[ds.task_id], B, b.budget, args.seed)
            lines.append(trace.to_text())
        write_atomic({args.out: "\n".join(lines) + "\n"})
        print(f"wrote {args.out}")
        return 0
    datasets = read_database(args.data)
    report = eval_simulated_deployment(model, args.scorer, datasets, budget=b.budget, trials=b.deploy_trials,
                                       seed=args.seed, exclude_below=b.exclude_below)
    write_deploy_report(args.out, report)
    print(f"{args.scorer}: avg attempts {report.avg_attempts:.2f}  "
          f"success rate {report.success_rate:.2f}")
    if report.excluded:
        print(f"excluded below-threshold tasks: {', '.join(report.excluded)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    from .tasks import ingest_released_dataset

    _, report = ingest_released_dataset(args.data)
    print(report.render(), end="")
    return 0


def _cmd_report(args) -> int:
    from .bench import MaeReport, read_report, render_deploy_table, render_mae_table

    # a row is one model: reports of one checkpoint pool, others never do
    mae_reports = {}
    deploy_reports = {}
    deploy_paths = {}
    for path in args.files:
        rep = read_report(path)
        if isinstance(rep, MaeReport):
            mae_reports.setdefault(f"{rep.label}@{rep.checkpoint}", []).append(rep)
        else:
            key = f"{rep.method}@{rep.checkpoint}"
            if key in deploy_paths:
                raise ValueError(f"{deploy_paths[key]} and {path} both hold deploy rows for {key}")
            deploy_reports[key], deploy_paths[key] = rep, path
    if mae_reports:
        print(render_mae_table(mae_reports), end="")
    if deploy_reports:
        if mae_reports:
            print()
        print(render_deploy_table(deploy_reports), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a new
    namespace on every call, so calls do not share parsed values."""
    parser = argparse.ArgumentParser(prog="scoopgp",
                                     description="few-shot scooping reward models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="config text file (section.key = value)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config value (repeatable)")

    p = sub.add_parser("gen", help="generate a synthetic task family")
    common(p)
    p.add_argument("--prefix", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a reward model")
    common(p)
    p.add_argument("--data", required=True, help="records file")
    p.add_argument("--method", choices=("codega", "dkmt", "mean-only"), default="codega")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-mae", help="k-shot prediction error")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mean-only", action="store_true",
                   help="score the prior mean without posterior updates")
    p.set_defaults(func=_cmd_eval_mae)

    p = sub.add_parser("deploy", help="run deployment episodes")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="model checkpoint (optional for --scorer random)")
    p.add_argument("--scorer", choices=("ucb", "mean", "random"), default="ucb")
    p.add_argument("--mode", choices=("dataset", "live"), default="dataset")
    p.add_argument("--terrains", help="terrain container (required for --mode live)")
    p.add_argument("--threshold", type=float, default=None,
                   help="success threshold override (live mode)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_deploy)

    p = sub.add_parser("ingest", help="validate and summarize a records file")
    common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("report", help="render report files as tables")
    common(p)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "deploy" and args.mode == "live" and not args.terrains:
        parser.error("--mode live requires --terrains")
    if args.command == "deploy" and args.mode != "live" and args.threshold is not None:
        parser.error("--threshold requires --mode live")
    if args.command == "deploy" and args.scorer != "random" and not args.model:
        parser.error(f"--scorer {args.scorer} requires --model")
    try:
        return args.func(args)
    except Exception as exc:  # one diagnostic line, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
