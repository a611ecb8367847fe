"""Acceptance suite: one test per shipping criterion.

Each test prints a single verdict line (run with -s to see them all) and
asserts the criterion it covers, including its runtime budget where one
applies. The adaptation and deployment tests share a benchmark-scale
family and trained models through module fixtures; training time is
charged to the adaptation criterion's budget.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import dense_posterior_oracle, random_model, reward_dataset

from scoopgp.bench import (deployment_threshold, eval_kshot_mae, eval_simulated_deployment,
                           mean_model_mae, paired_sign_test, pool_mae_reports)
from scoopgp.cli import main
from scoopgp.decide import run_deployment
from scoopgp.gp import embed_batch, mean_eval_batch, nlml, nlml_grad, posterior_batch
from scoopgp.meta import make_fold_splits, train_codega, train_dkmt
from scoopgp.tasks import TaskDataset, generate_materials, sample_ood_test_family, sample_task_family

MODEL_SEEDS = (0, 1, 2)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench_world():
    pool = generate_materials(8, 4, 0.7, 1)
    _, train_sets = sample_task_family(pool, 51, 100, 1)
    _, test_sets = sample_ood_test_family(pool, 6, 60, 1)
    return SimpleNamespace(train_sets=train_sets, test_sets=test_sets)


@pytest.fixture(scope="module")
def trained_models(bench_world):
    t0 = time.perf_counter()
    codega = {s: train_codega(bench_world.train_sets, seed=s).model for s in MODEL_SEEDS}
    dkmt = {s: train_dkmt(bench_world.train_sets, seed=s).model for s in MODEL_SEEDS}
    seconds = time.perf_counter() - t0
    print(f"[acceptance] trained {2 * len(MODEL_SEEDS)} models in {seconds:.0f}s")
    return SimpleNamespace(codega=codega, dkmt=dkmt, train_seconds=seconds)


def test_gp_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 9))
        model = random_model(d, seed=2000 + i,
                             log_lengthscale=float(rng.uniform(-0.5, 0.5)),
                             log_outputscale=float(rng.uniform(-0.5, 0.7)),
                             log_noise=float(np.log(rng.uniform(0.05, 0.6))))
        Xs = rng.normal(size=(n, d))
        ys = rng.normal(size=n)
        Xq = rng.normal(size=(m, d))
        mu, var = posterior_batch(model, Xs, ys, Xq)
        mu0, var0 = dense_posterior_oracle(model, Xs, ys, Xq)
        worst = max(worst, float(np.max(np.abs(mu - mu0))), float(np.max(np.abs(var - var0))))
    elapsed = time.perf_counter() - t0
    _verdict("gp-oracle-equivalence", worst < 1e-8 and elapsed < 10.0,
             f"200 instances, worst dev {worst:.2e}, {elapsed:.1f}s")


def test_nlml_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        d = int(rng.integers(2, 6))
        model = random_model(d, seed=6000 + i,
                             feature=((int(rng.integers(3, 8)), "tanh"),),
                             feature_dim=int(rng.integers(3, 7)),
                             kernel=((int(rng.integers(3, 7)), "tanh"),),
                             embed_dim=int(rng.integers(2, 5)),
                             log_lengthscale=float(rng.uniform(-0.5, 0.5)),
                             log_outputscale=float(rng.uniform(-0.5, 0.5)),
                             log_noise=float(np.log(rng.uniform(0.1, 0.6))))
        X = rng.normal(size=(6, d))
        y = rng.normal(size=6)
        _, grads = nlml_grad(model, X, y, mean_mode="zero", train_extractor=True)

        # central differences carry ~eps*|nlml|/h of roundoff noise, so
        # components below that floor are compared against it, not zero
        def rel_err(analytic, numeric):
            return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)

        for name, analytic in (("log_lengthscale", grads.log_lengthscale),
                               ("log_outputscale", grads.log_outputscale),
                               ("log_noise", grads.log_noise)):
            h = 1e-6
            x0 = getattr(model, name)
            fp = nlml(model.with_hypers(**{name: x0 + h}), X, y, mean_mode="zero")
            fm = nlml(model.with_hypers(**{name: x0 - h}), X, y, mean_mode="zero")
            worst = max(worst, rel_err(analytic, (fp - fm) / (2.0 * h)))

        for field, params, g in (("kernel_params", model.kernel_params, grads.kernel),
                                 ("feature_params", model.feature_params, grads.feature)):
            for j in range(len(params)):
                h = 1e-5
                vp, vm = params.values.copy(), params.values.copy()
                vp[j] += h
                vm[j] -= h
                fp = nlml(replace(model, **{field: params.replace_values(vp)}), X, y,
                          mean_mode="zero")
                fm = nlml(replace(model, **{field: params.replace_values(vm)}), X, y,
                          mean_mode="zero")
                worst = max(worst, rel_err(g.values[j], (fp - fm) / (2.0 * h)))
    elapsed = time.perf_counter() - t0
    _verdict("nlml-gradient-check", worst < 1e-4 and elapsed < 30.0,
             f"50 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_exact_interpolation():
    worst_mu, worst_var = 0.0, 0.0
    checked = 0
    for i in range(40):
        rng = np.random.default_rng(400 + i)
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 11))
        model = random_model(d, seed=500 + i,
                             log_outputscale=float(rng.uniform(0.0, 1.0)),
                             log_noise=float(np.log(1e-3)))
        Xs = rng.normal(size=(n, d))
        # keep the support resolvable: lengthscale well under the closest
        # embedding pair, unit-scale residuals around the prior mean
        Z = embed_batch(model, Xs)
        dmin = float(np.sqrt(((Z[:, None] - Z[None]) ** 2).sum(-1))[np.triu_indices(n, 1)].min())
        if dmin < 1e-3:
            continue
        model = model.with_hypers(log_lengthscale=float(np.log(0.25 * dmin)))
        ys = mean_eval_batch(model, Xs) + rng.uniform(-0.5, 0.5, size=n)
        mu, var = posterior_batch(model, Xs, ys, Xs)
        worst_mu = max(worst_mu, float(np.max(np.abs(mu - ys))))
        worst_var = max(worst_var, float(var.max() / model.outputscale))
        checked += 1
    _verdict("exact-interpolation",
             checked >= 30 and worst_mu < 1e-6 and worst_var <= 1e-6,
             f"{checked} instances, worst |mu-y| {worst_mu:.2e}, worst var/os {worst_var:.2e}")


def test_split_invariants():
    checked = 0
    violations = 0
    for i in range(120):
        rng = np.random.default_rng(3000 + i)
        mats = [f"m{j:02d}" for j in range(int(rng.integers(4, 11)))]
        datasets = []
        for t in range(int(rng.integers(1, 9))):
            picked = rng.choice(len(mats), size=int(rng.integers(1, 4)), replace=False)
            # one record each: a split reads only the material ids
            datasets.append(TaskDataset(f"t{t}", "single", tuple(mats[j] for j in sorted(picked)),
                                        [[0.1, 0.1, 0, 0.05, 0.0]], [1.0], [[0.0]]))
        used = sorted({m for ds in datasets for m in ds.material_ids})
        if len(used) < 2:
            continue
        folds = int(rng.integers(2, min(4, len(used)) + 1))
        splits = make_fold_splits(datasets, folds=folds, seed=int(rng.integers(0, 2 ** 31)))
        checked += 1

        buckets = [set(sp.materials) for sp in splits]
        all_ids = {ds.task_id for ds in datasets}
        if sorted(m for b in buckets for m in b) != used:
            violations += 1
            continue
        for k, sp in enumerate(splits):
            touching = {ds.task_id for ds in datasets
                        if set(ds.material_ids) & set(sp.materials)}
            if (sp.fold_index != k
                    or set(sp.kernel_task_ids) != touching
                    or set(sp.mean_task_ids) != all_ids - touching):
                violations += 1
                break
    _verdict("split-invariants", checked >= 100 and violations == 0,
             f"{checked} families, {violations} violations")


def test_protocol_identity(bench_world, trained_models):
    model = trained_models.codega[0]
    kshot = eval_kshot_mae(model, bench_world.test_sets, shots=(0,), trials=30, seed=0)
    mean_only = mean_model_mae(model, bench_world.test_sets, trials=30, seed=0)
    rows_equal = [r for r in kshot.rows if r.shot == 0] == list(mean_only.rows)
    agg_equal = kshot.aggregate(0) == mean_only.aggregate(0)
    _verdict("protocol-identity", rows_equal and agg_equal,
             f"0-shot MAE {kshot.aggregate(0)[0]:.6f} both paths, rows bit-identical")


def test_adaptation_direction(bench_world, trained_models):
    t0 = time.perf_counter()
    reports_c, reports_d = [], []
    for s in MODEL_SEEDS:
        reports_c.append(eval_kshot_mae(trained_models.codega[s], bench_world.test_sets,
                                        shots=(0, 10), trials=30, seed=0))
        reports_d.append(eval_kshot_mae(trained_models.dkmt[s], bench_world.test_sets,
                                        shots=(0, 10), trials=30, seed=0))
    pc = pool_mae_reports(reports_c)
    pd = pool_mae_reports(reports_d)
    elapsed = time.perf_counter() - t0 + trained_models.train_seconds
    ok = pc[10][0] <= pc[0][0] and pc[10][1] < pd[10][1] and elapsed < 900.0
    _verdict("adaptation-direction", ok,
             f"10-shot MAE {pc[10][0]:.1f} vs 0-shot {pc[0][0]:.1f}; "
             f"10-shot top-5 {pc[10][1]:.1f} vs dkmt {pd[10][1]:.1f}; "
             f"{elapsed:.0f}s incl training")


def test_deployment_direction(bench_world, trained_models):
    cg = trained_models.codega[0]
    t0 = time.perf_counter()
    ucb, greedy = (eval_simulated_deployment(cg, kind, bench_world.test_sets, budget=20, trials=10, seed=0)
                   for kind in ("ucb", "mean"))
    elapsed = time.perf_counter() - t0
    cells_u = ucb.attempts_by_cell()
    cells_g = greedy.attempts_by_cell()
    keys = sorted(cells_u)
    assert keys == sorted(cells_g)
    p = paired_sign_test([cells_u[k] for k in keys], [cells_g[k] for k in keys])
    ok = ucb.avg_attempts < greedy.avg_attempts and p < 0.05 and elapsed < 600.0
    _verdict("deployment-direction", ok,
             f"avg attempts ucb {ucb.avg_attempts:.2f} vs greedy {greedy.avg_attempts:.2f}, "
             f"sign test p {p:.4f}, {elapsed:.0f}s")


def test_random_policy_calibration():
    rng = np.random.default_rng(88)
    rewards = np.concatenate([rng.uniform(0.0, 50.0, 95), rng.uniform(90.0, 100.0, 5)])
    rng.shuffle(rewards)
    ds = reward_dataset(rewards, "calib0", period=7)
    threshold = deployment_threshold(ds)
    assert int((rewards >= threshold).sum()) == 5

    total = 0
    for trial in range(10_000):
        trace = run_deployment(None, "random", ds, threshold, budget=100, seed=trial)
        assert trace.success
        total += trace.attempts
    mean = total / 10_000
    expected = 101.0 / 6.0  # first success drawing without replacement
    rel = abs(mean - expected) / expected
    _verdict("random-policy-calibration", rel < 0.03,
             f"mean attempts {mean:.3f} vs {expected:.3f}, rel dev {rel:.4f}")


def test_pipeline_determinism(tmp_path):
    gen_args = ["--set", "gen.n_train_materials=6", "--set", "gen.n_ood_materials=4",
                "--set", "gen.n_train_tasks=6", "--set", "gen.train_records=12",
                "--set", "gen.n_test_tasks=2", "--set", "gen.test_records=12"]
    train_args = ["--set", "train.max_epochs_mean=40", "--set", "train.max_epochs_kernel=25",
                  "--set", "train.patience=3"]
    eval_args = ["--set", "bench.shots=0,2", "--set", "bench.mae_trials=3"]
    deploy_args = ["--set", "bench.budget=5", "--set", "bench.deploy_trials=2",
                   "--set", "bench.exclude_below=0.0"]
    artifacts = ("fam.train.records.txt", "fam.test.records.txt", "fam.terrains.bin", "model.bin", "mae.txt",
                 "deploy.txt")

    def pipeline(base):
        base.mkdir()
        prefix = str(base / "fam")
        assert main(["gen", "--seed", "5", "--prefix", prefix, *gen_args]) == 0
        assert main(["train", "--seed", "3", "--data", prefix + ".train.records.txt",
                     "--method", "codega", "--set", "train.folds=2",
                     "--out", str(base / "model.bin"), *train_args]) == 0
        assert main(["eval-mae", "--data", prefix + ".test.records.txt",
                     "--model", str(base / "model.bin"),
                     "--out", str(base / "mae.txt"), *eval_args]) == 0
        assert main(["deploy", "--data", prefix + ".test.records.txt",
                     "--model", str(base / "model.bin"), "--scorer", "ucb",
                     "--out", str(base / "deploy.txt"), *deploy_args]) == 0
        return {name: (base / name).read_bytes() for name in artifacts}

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    differing = [name for name in artifacts if first[name] != second[name]]
    _verdict("pipeline-determinism", not differing,
             f"{len(artifacts)} artifacts byte-identical across reruns"
             + (f"; differing: {differing}" if differing else ""))
