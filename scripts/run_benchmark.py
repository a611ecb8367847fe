#!/usr/bin/env python3
"""Headline comparison of CoDeGa, DKMT and the untrained-kernel GP, run as scoopgp stages.

    python3 scripts/run_benchmark.py --out DIR [--seed S] [--model-seeds N] [--config FILE] [--set KEY=VALUE ...]

Runs the scoopgp stages through `scoopgp.cli.main`, each but report with --config and --set: gen; per
model seed, train, eval-mae at every shot and deploy ucb for codega, dkmt and mean-only (the supervised
mean with an untrained kernel head, labelled "untrained kernel"); deploy mean (the seed-0 codega model's
prior mean) and random; report, on the report files alone. scripts/full.conf is the benchmark scale.
DIR/HEADLINE.txt holds the report tables, a checkpoint legend and paired sign tests; reruns reproduce it.
"""

import argparse
import contextlib
import io
import statistics
import sys
from pathlib import Path

from scoopgp.bench import paired_sign_test, read_deploy_report, read_mae_report, render_mae_table
from scoopgp.cli import main as scoopgp

METHODS = ("codega", "dkmt", "mean-only")
LABELS = {"codega": "codega", "dkmt": "dkmt", "mean-only": "untrained kernel"}


def sign_test(name: str, pairs: list) -> str:
    """One-sided sign test that the first value of each pair is the lower; ties are dropped."""
    lower, higher = sum(a < b for a, b in pairs), sum(a > b for a, b in pairs)
    return f"{name}: {lower} lower, {higher} higher, {len(pairs) - lower - higher} tied, p = {paired_sign_test(*zip(*pairs)):.3g}"


def task_means(report) -> dict:
    """Mean attempts per task: ucb and mean repeat one episode in every trial of a task."""
    cells = report.attempts_by_cell()
    return {task: statistics.mean(n for (t, _), n in cells.items() if t == task) for task, _ in cells}


def mae_pairs(mae: dict, seeds, a: str, b: str, shot: int) -> list:
    """(a, b) MAE per task and model seed at one shot count."""
    return [(x.mae, y.mae) for s in seeds for x, y in zip(mae[a, s].rows, mae[b, s].rows) if x.shot == shot]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for every artifact and HEADLINE.txt")
    ap.add_argument("--seed", type=int, default=1, help="family seed")
    ap.add_argument("--model-seeds", type=int, default=1, help="train seeds 0..N-1")
    ap.add_argument("--config", help="config file passed to every stage but report")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override passed to every stage but report")
    args = ap.parse_args(argv)
    out = Path(args.out).resolve()
    cfg = (["--config", args.config] if args.config else []) + [a for kv in args.set for a in ("--set", kv)]
    seeds = range(args.model_seeds)
    train, test = (str(out / f"fam.{split}.records.txt") for split in ("train", "test"))
    mae_files = {(m, s): str(out / f"{m}-s{s}.mae.txt") for s in seeds for m in METHODS}
    deploy_files = {(m, s): str(out / f"{m}-s{s}.ucb.deploy.txt") for s in seeds for m in METHODS}
    deploy_files["mean", 0], deploy_files["random", 0] = (str(out / f"{m}.deploy.txt") for m in ("mean", "random"))

    def stage(*argv, configured=True):
        if scoopgp([*argv, *(cfg if configured else [])]) != 0:
            sys.exit(f"scoopgp {argv[0]} failed")

    out.mkdir(parents=True, exist_ok=True)
    stage("gen", "--seed", str(args.seed), "--prefix", str(out / "fam"))
    for s in seeds:
        for m in METHODS:
            stem = str(out / f"{m}-s{s}")
            stage("train", "--seed", str(s), "--data", train, "--method", m, "--out", stem + ".bin")
            stage("eval-mae", "--data", test, "--model", stem + ".bin", "--out", mae_files[m, s])
            stage("deploy", "--data", test, "--model", stem + ".bin", "--out", deploy_files[m, s])
    stage("deploy", "--data", test, "--model", str(out / "codega-s0.bin"), "--scorer", "mean", "--out", deploy_files["mean", 0])
    stage("deploy", "--data", test, "--scorer", "random", "--out", deploy_files["random", 0])
    with contextlib.redirect_stdout(io.StringIO()) as tables:
        stage("report", *mae_files.values(), *deploy_files.values(), configured=False)

    mae = {key: read_mae_report(path) for key, path in mae_files.items()}
    deploys = {key: read_deploy_report(path) for key, path in deploy_files.items()}
    attempts = {key: task_means(rep) for key, rep in deploys.items()}
    lines = ["scoopgp headline: " + " ".join(["--seed", str(args.seed), "--model-seeds", str(args.model_seeds), *cfg]),
             "", tables.getvalue(), "MAE pooled over model seeds",
             render_mae_table({LABELS[m]: [mae[m, s] for s in seeds] for m in METHODS}), "checkpoint    model"]
    lines += [f"{rep.checkpoint}  {LABELS[m]} seed {s}" for (m, s), rep in mae.items()]
    tasks, top = attempts["mean", 0], max(mae["codega", 0].shots)
    lines += ["", f"deploy excludes the below-threshold tasks: {', '.join(deploys['mean', 0].excluded) or 'none'}",
              "paired sign tests, one-sided that the first is lower (ties dropped)",
              sign_test("deploy attempts, codega-ucb vs dkmt-ucb, by task and model seed",
                        [(attempts["codega", s][t], attempts["dkmt", s][t]) for s in seeds for t in tasks]),
              sign_test("deploy attempts, codega-ucb vs mean (model seed 0), by task",
                        [(attempts["codega", 0][t], attempts["mean", 0][t]) for t in tasks])]
    lines += [sign_test(f"{shot}-shot MAE, codega vs dkmt, by task and model seed", mae_pairs(mae, seeds, "codega", "dkmt", shot))
              for shot in mae["codega", 0].shots]
    for m in METHODS[:2]:
        lines += [sign_test(f"deploy attempts, {m}-ucb vs untrained-kernel-ucb, by task and model seed",
                            [(attempts[m, s][t], attempts["mean-only", s][t]) for s in seeds for t in tasks]),
                  sign_test(f"{top}-shot MAE, {m} vs untrained kernel, by task and model seed",
                            mae_pairs(mae, seeds, m, "mean-only", top))]
    (out / "HEADLINE.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
