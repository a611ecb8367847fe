#!/usr/bin/env python3
"""Synthetic-family benchmark: few-shot adaptation and deployment.

Generates an offline task family, trains the fold-decomposed model and
the jointly-trained baseline on it, scores k-shot prediction error on
held-out tasks with unfamiliar materials, then runs simulated deployment
with each scorer. Desk-scale defaults finish in a couple of minutes;
--full switches to the benchmark scale used for headline numbers.
"""

import argparse
import sys
import time

from scoopgp.bench import eval_kshot_mae, eval_simulated_deployment, render_deploy_table, \
    render_mae_table
from scoopgp.config import GenConfig
from scoopgp.decide import ScorerConfig
from scoopgp.meta import train_codega, train_dkmt
from scoopgp.tasks import generate_materials, sample_ood_test_family, sample_task_family


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="family seed")
    ap.add_argument("--train-tasks", type=int, default=16)
    ap.add_argument("--train-records", type=int, default=60)
    ap.add_argument("--test-tasks", type=int, default=4)
    ap.add_argument("--test-records", type=int, default=60)
    ap.add_argument("--model-seeds", type=int, default=1)
    ap.add_argument("--shots", default="0,5,10")
    ap.add_argument("--trials", type=int, default=15, help="support resamples per task")
    ap.add_argument("--budget", type=int, default=20, help="deployment attempt budget")
    ap.add_argument("--deploy-trials", type=int, default=10)
    ap.add_argument("--full", action="store_true",
                    help="benchmark scale: 51 train tasks x 100 records, 6 test tasks, 3 seeds")
    args = ap.parse_args(argv)
    if args.full:
        args.train_tasks, args.train_records = 51, 100
        args.test_tasks, args.test_records = 6, 60
        args.model_seeds, args.trials = 3, 30
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    shots = tuple(int(s) for s in args.shots.split(","))
    g = GenConfig()

    t0 = time.perf_counter()
    pool = generate_materials(g.n_train_materials, g.n_ood_materials, g.rho, args.seed)
    _, train_sets = sample_task_family(pool, args.train_tasks, args.train_records, args.seed)
    _, test_sets = sample_ood_test_family(pool, args.test_tasks, args.test_records, args.seed)
    print(f"family: {len(train_sets)} train tasks, {len(test_sets)} held-out tasks "
          f"({time.perf_counter() - t0:.0f}s)")

    mae_reports = {"codega": [], "dkmt": []}
    codega_first = None
    for s in range(args.model_seeds):
        t0 = time.perf_counter()
        cg = train_codega(train_sets, seed=s).model
        dk = train_dkmt(train_sets, seed=s).model
        if codega_first is None:
            codega_first = cg
        print(f"seed {s}: trained both models in {time.perf_counter() - t0:.0f}s")
        mae_reports["codega"].append(
            eval_kshot_mae(cg, test_sets, shots=shots, trials=args.trials, seed=0))
        mae_reports["dkmt"].append(
            eval_kshot_mae(dk, test_sets, shots=shots, trials=args.trials, seed=0))

    print()
    print(render_mae_table(mae_reports), end="")

    methods = {
        "codega-ucb": (codega_first, ScorerConfig(kind="ucb", gamma=2.0)),
        "mean-greedy": (codega_first, ScorerConfig(kind="mean")),
        "random": (None, ScorerConfig(kind="random")),
    }
    t0 = time.perf_counter()
    deploy_reports = eval_simulated_deployment(methods, test_sets, budget=args.budget,
                                               trials=args.deploy_trials, seed=0)
    print()
    print(render_deploy_table(deploy_reports), end="")
    excluded = next(iter(deploy_reports.values())).excluded
    if excluded:
        print(f"excluded below-threshold tasks: {', '.join(excluded)}")
    print(f"deployment: {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
