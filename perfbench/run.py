#!/usr/bin/env python3
"""Benchmark of the scoopgp pipeline stages, driven in one single-threaded process.

    python3 perfbench/run.py --workload offline|online --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Every
stage is the CLI entry point (`scoopgp.cli.main`) called in-process on
inputs generated here. A run sets up the desk scenario, then spends
--seconds on its measured part: a workload that does not loop on the adapt
stages runs them once, for the quality metrics; then the workload's stages
repeat (two iterations at least), with a set-up repeat after each of the
first iterations. With --trace 0 the last stdout line
is a JSON object with the end-to-end metrics; with --trace 1 iterations
alternate untraced and traced, and the metrics are per-layer totals per
traced iteration, the untraced stage times and the tracing overhead.
Artifacts go to a fresh directory under .perfbench-runs/.
See perfbench/README.md for the workloads and the metric map.
"""

import os
import sys

# pin every BLAS pool before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SCOOPGP_OUT_DIR", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from oracle import check_gradient, compare  # noqa: E402
from tracing import Tracer  # noqa: E402

# the stage groups ("pieces") each workload repeats in its timed loop
WORKLOADS = {"offline": ("offline",), "online": ("adapt", "live")}

# The desk scenario is fixed: the same terrains and trained models on every
# seed, so the quality metrics compare across runs. The seed drives the
# offline family and model initialisation and the adapt evaluation draws.
SCENARIO_SEED = 1
MODEL_SEED = 0
LIVE_SEED = 0
SETUP_REPEATS = 3
MIN_ITERATIONS = 2

# patience above the epoch cap switches early stopping off, so training does
# the same work on every seed and a quality change cannot shorten it
SCENARIO = {
    "train.patience": 1000, "train.max_epochs_mean": 20, "train.max_epochs_kernel": 20,
    "gen.n_train_tasks": 8, "gen.train_records": 60,
    "gen.n_test_tasks": 12, "gen.test_records": 100,
    "bench.shots": "0,1,2,3,5,10,15,20", "bench.mae_trials": 60, "bench.deploy_trials": 20,
}
# log_every prints the training curves; the dkmt one is checked
OFFLINE = {
    "train.patience": 1000, "train.max_epochs_mean": 8, "train.max_epochs_kernel": 8, "train.log_every": 1,
    "gen.n_train_tasks": 51, "gen.train_records": 100,
    "gen.n_test_tasks": 6, "gen.test_records": 60,
}
# one live decision on the full grid takes about as long as the online
# workload's evaluation stages, so each half weighs about half of iteration_s
LIVE_BUDGET = 1
QUICK_SCENARIO = dict(SCENARIO, **{
    "train.max_epochs_mean": 2, "train.max_epochs_kernel": 2, "train.folds": 2,
    "gen.n_train_tasks": 6, "gen.train_records": 20, "gen.n_test_tasks": 4, "gen.test_records": 60,
    "bench.shots": "0,2,5,10", "bench.mae_trials": 2, "bench.deploy_trials": 2,
})
QUICK_OFFLINE = dict(OFFLINE, **{
    "train.max_epochs_mean": 2, "train.max_epochs_kernel": 2,
    "gen.n_train_tasks": 12, "gen.train_records": 10, "gen.n_test_tasks": 2, "gen.test_records": 10,
})

STAGES = ("gen_s", "train_codega_s", "train_dkmt_s", "kshot_eval_s", "dataset_deploy_s", "live_step_s")
QUALITY = ("mae_0shot", "mae_10shot", "top_mae_10shot", "ucb_avg_attempts")
END_TO_END = {"setup_s": "s", "iteration_s": "s", "peak_rss_mb": "MiB",
              "mae_0shot": "cm3", "mae_10shot": "cm3", "top_mae_10shot": "cm3",
              "ucb_avg_attempts": "count"}

# <module>.<function>.<counter> totals per traced iteration, then the stage
# times of the untraced iterations and the tracing overhead on each
PER_LAYER = (
    "tasks.compute_features_batch.calls", "tasks.compute_features_batch.self_s",
    "tasks.compute_features_batch.actions",
    "tasks.reward_oracle.calls", "tasks.reward_oracle.self_s",
    "tasks.sample_task_family.self_s", "tasks.sample_ood_test_family.self_s",
    "tasks.write_database.self_s", "tasks.write_database.bytes", "tasks.read_database.self_s",
    "tasks.save_terrains.self_s", "tasks.load_terrains.self_s",
    "gp.posterior_batch.calls", "gp.posterior_batch.self_s", "gp.posterior_batch.query_rows",
    "gp.posterior_batch.support_rows",
    "gp.embed_batch.calls", "gp.embed_batch.self_s",
    "gp.mean_eval_batch.calls", "gp.mean_eval_batch.self_s",
    "gp.nlml_grad.calls", "gp.nlml_grad.self_s", "gp.nlml_grad.rows",
    "gp.save_model.calls", "gp.save_model.self_s", "gp.load_model.calls", "gp.load_model.self_s",
    "nnet.forward_batch.calls", "nnet.forward_batch.self_s", "nnet.forward_batch.rows",
    "nnet.vjp.calls", "nnet.vjp.self_s", "nnet.vjp.rows",
    "nnet.optimizer_step.calls", "nnet.optimizer_step.self_s", "nnet.split_params.calls",
    "meta.train_mean.calls", "meta.train_mean.self_s", "meta.train_mean.epochs",
    "meta.build_residual_dataset.self_s", "meta.train_codega.self_s",
    "meta.train_kernel_codega.self_s", "meta.train_kernel_codega.epochs",
    "meta.train_dkmt.self_s", "meta.train_dkmt.epochs", "meta.useful_epoch_ratio",
    "decide.run_deployment.calls", "decide.run_deployment.self_s", "decide.run_deployment.steps",
    "decide.run_deployment.reward_per_step",
    "decide.select_action.calls", "decide.select_action.self_s",
    "bench.eval_kshot_mae.self_s", "bench.mean_model_mae.self_s",
    "bench.eval_simulated_deployment.self_s", "bench.write_mae_report.self_s",
    "bench.write_deploy_report.self_s",
    "serialize.container_bytes.calls", "serialize.container_bytes.self_s",
    "serialize.parse_container.calls", "serialize.parse_container.self_s",
) + tuple(f"stage.{m}" for m in STAGES) + tuple(f"trace.overhead.{m}" for m in STAGES + ("iteration_s",))

COUNTER_UNITS = {"self_s": "s", "bytes": "bytes", "useful_epoch_ratio": "ratio", "reward_per_step": "cm3"}


def layer_unit(name: str) -> str:
    if name.startswith(("stage.", "trace.overhead.")):
        return "s"
    return COUNTER_UNITS.get(name.rsplit(".", 1)[1], "count")


def sets(overrides: dict) -> list:
    out = []
    for key, value in overrides.items():
        out += ["--set", f"{key}={value}"]
    return out


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0" + Path(p).read_bytes())
    return h.hexdigest()


class Bench:
    """Stage runner plus the operation and failure counts of one run."""

    def __init__(self, cli, work: Path, seed: int, quick: bool):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.quick = quick
        self.scenario = QUICK_SCENARIO if quick else SCENARIO
        self.offline = QUICK_OFFLINE if quick else OFFLINE
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def stage(self, *argv):
        """Run one CLI command; returns (wall seconds, captured stdout)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a raise escaping the CLI is a failed operation, not a crash
            rc = repr(exc)
        seconds = time.perf_counter() - t0
        self.check(rc == 0, f"`scoopgp {' '.join(argv[:3])}` returned {rc}: {err.getvalue().strip()}")
        return seconds, out.getvalue()

    def check_checkpoint(self, path: Path, stdout: str) -> None:
        """The saved checkpoint reloads to the id that `train` printed."""
        from scoopgp.gp import checkpoint_id, load_model

        printed = stdout.rsplit("(checkpoint ", 1)[-1].split(")")[0]
        try:
            reloaded = checkpoint_id(load_model(str(path)))
        except Exception as exc:  # an unreadable checkpoint fails the check
            reloaded = repr(exc)
        self.check(reloaded == printed, f"{path.name} reloads to {reloaded}, train printed {printed}")

    @property
    def scenario_dir(self) -> Path:
        return self.work / "scenario"


# ---------------------------------------------------------------------------
# Set-up: the desk scenario (terrains, records, a trained codega model)

def set_up(b: Bench):
    from scoopgp.tasks import read_database, write_database

    d = b.scenario_dir
    d.mkdir(parents=True, exist_ok=True)
    cfg = sets(b.scenario)
    b.stage("gen", "--seed", SCENARIO_SEED, "--prefix", d / "fam", *cfg)
    _, out = b.stage("train", "--seed", MODEL_SEED, "--data", d / "fam.train.records.txt",
                     "--method", "codega", "--out", d / "codega.bin", *cfg)
    b.check_checkpoint(d / "codega.bin", out)
    # live mode deploys on every task of its records file: keep the first terrain
    write_database(str(d / "live"), read_database(str(d / "fam.test.records.txt"))[:1])
    return digest(sorted(p for p in d.iterdir() if p.is_file()))


class SetUps:
    """The set-up repeats of a run: the first before the loop, then one after each loop iteration."""

    def __init__(self, b: Bench, repeats: int):
        self.b = b
        self.left = repeats
        self.times = []
        self.first = None

    def step(self) -> None:
        if not self.left:
            return
        self.left -= 1
        t0 = time.perf_counter()
        fingerprint = set_up(self.b)
        self.times.append(time.perf_counter() - t0)
        if self.first is None:
            self.first = fingerprint
        else:
            self.b.check(fingerprint == self.first, "set-up repeat produced different artifacts")

    def next_s(self) -> float:
        """Expected length of the next step: 0 once every repeat is done."""
        return statistics.median(self.times) if self.left else 0.0


def warm_up(b: Bench) -> None:
    """One tiny call of the evaluation stages, so no timed iteration pays first-call costs."""
    d, w = b.scenario_dir, b.work / "warmup"
    w.mkdir(parents=True, exist_ok=True)
    common = ["--data", d / "fam.test.records.txt", "--model", d / "codega.bin",
              *sets(b.scenario), "--set", "bench.mae_trials=1", "--set", "bench.deploy_trials=1"]
    b.stage("eval-mae", "--out", w / "mae.txt", *common)
    b.stage("deploy", "--scorer", "ucb", "--out", w / "ucb.txt", *common)


# ---------------------------------------------------------------------------
# Workload pieces: run(b, d) -> (timings, stdout by name); check(b, d, outs) -> quality

def run_offline(b: Bench, d: Path):
    cfg = sets(b.offline)
    times, outs = {}, {}
    times["gen_s"], _ = b.stage("gen", "--seed", b.seed, "--prefix", d / "big", *cfg)
    for method in ("codega", "dkmt"):
        times[f"train_{method}_s"], outs[method] = b.stage(
            "train", "--seed", b.seed, "--data", d / "big.train.records.txt",
            "--method", method, "--out", d / f"{method}.bin", *cfg)
    return times, outs


GRAD_ROWS = 12


def check_offline(b: Bench, d: Path, outs) -> dict:
    import scoopgp.meta
    from scoopgp.gp import load_model
    from scoopgp.tasks import read_database

    for method, out in outs.items():
        b.check_checkpoint(d / f"{method}.bin", out)
    losses = [float(line.rsplit(" ", 1)[1]) for line in outs["dkmt"].splitlines() if line.startswith("[joint]")]
    epochs = b.offline["train.max_epochs_kernel"]
    b.check(len(losses) == epochs and min(losses[1:]) < losses[0],
            f"dkmt training losses {losses}: expected {epochs} epochs, falling below the first")
    # the gradient dkmt trains with, at its own checkpoint, against the dense reference
    rng = np.random.default_rng(b.seed)
    try:
        model = load_model(str(d / "dkmt.bin"))
        data = read_database(str(d / "big.train.records.txt"))
    except Exception as exc:  # a missing or unreadable artifact fails the check
        b.check(False, f"dkmt gradient check cannot load its inputs: {exc!r}")
        return {}
    ds = data[int(rng.integers(len(data)))]
    problems = check_gradient(
        lambda m, X, y: scoopgp.meta.nlml_grad(m, X, y, mean_mode="model", train_extractor=True, train_mean=True),
        model, ds.gp_inputs()[:GRAD_ROWS], ds.rewards()[:GRAD_ROWS], rng)
    b.check(not problems, "; ".join(problems))
    return {}


def run_adapt(b: Bench, d: Path):
    s = b.scenario_dir
    common = ["--seed", b.seed, "--data", s / "fam.test.records.txt", "--model", s / "codega.bin",
              *sets(b.scenario)]
    t_kshot, _ = b.stage("eval-mae", "--out", d / "mae.txt", *common)
    t_mean, _ = b.stage("eval-mae", "--mean-only", "--out", d / "mae_mean.txt", *common)
    t_deploy = 0.0
    for scorer in ("ucb", "mean", "random"):
        t, _ = b.stage("deploy", "--scorer", scorer, "--out", d / f"deploy_{scorer}.txt", *common)
        t_deploy += t
    return {"kshot_eval_s": t_kshot + t_mean, "dataset_deploy_s": t_deploy}, {}


def check_adapt(b: Bench, d: Path, outs) -> dict:
    from scoopgp.bench import read_deploy_report, read_mae_report

    try:
        kshot = read_mae_report(str(d / "mae.txt"))
        mean = read_mae_report(str(d / "mae_mean.txt"))
        ucb = read_deploy_report(str(d / "deploy_ucb.txt"))
    except Exception as exc:  # read_mae_report re-verifies the aggregates and raises on a mismatch
        b.check(False, f"adapt reports do not read back: {exc!r}")
        return {}
    b.check(True, "adapt reports read back with verified aggregates")
    zero = sorted((r.task_id, r.mae, r.top_mae) for r in kshot.rows if r.shot == 0)
    b.check(zero == sorted((r.task_id, r.mae, r.top_mae) for r in mean.rows),
            "0-shot rows differ from the --mean-only rows")
    return {"mae_0shot": kshot.aggregate(0)[0], "mae_10shot": kshot.aggregate(10)[0],
            "top_mae_10shot": kshot.aggregate(10)[1], "ucb_avg_attempts": ucb.avg_attempts}


def run_live(b: Bench, d: Path):
    s = b.scenario_dir
    t, _ = b.stage("deploy", "--mode", "live", "--seed", LIVE_SEED, "--data", s / "live.records.txt",
                   "--terrains", s / "fam.terrains.bin", "--model", s / "codega.bin",
                   "--threshold", "1e9", "--out", d / "live.txt",
                   *sets(b.scenario), "--set", f"bench.budget={LIVE_BUDGET}")
    return {"live_step_s": t / LIVE_BUDGET}, {}


def check_live(b: Bench, d: Path, outs) -> dict:
    trace = d / "live.txt"
    lines = trace.read_text().splitlines() if trace.is_file() else []
    rewards = [float(line.split()[7]) for line in lines if line and not line.startswith("#")]
    ok = len(rewards) == LIVE_BUDGET and all(np.isfinite(r) and r >= 0.0 for r in rewards)
    b.check(ok, f"live trace has rewards {rewards}, expected {LIVE_BUDGET} finite non-negative")
    return {}


PIECES = {"offline": (run_offline, check_offline), "adapt": (run_adapt, check_adapt),
          "live": (run_live, check_live)}
# the quality metrics come from the adapt stages: a workload that does not
# loop on them runs them once after the loop
POST = {"offline": ("adapt",), "online": ()}


def measure(b: Bench, workload: str, deadline: float, tracer, setup):
    """Repeat the workload's stages until `deadline`, MIN_ITERATIONS at least.

    Another iteration starts only if one more of median length, plus a
    pending set-up, still ends by `deadline` (a `time.perf_counter()`
    value). After each iteration, `setup.step()` repeats the set-up once
    while repeats are left, so the set-up samples spread over the run like
    the iterations do. With a tracer, iterations alternate untraced and
    traced, in pairs. Every iteration must reproduce the first one's
    artifacts byte for byte.
    """
    pieces = [(b.work / name, *PIECES[name]) for name in WORKLOADS[workload]]
    for d, _, _ in pieces:
        d.mkdir(parents=True, exist_ok=True)
    plain, traced = defaultdict(list), defaultdict(list)
    reference, quality, n = None, {}, 0
    minimum = 1 if b.quick and tracer is None else MIN_ITERATIONS

    def another() -> bool:
        expected = statistics.median(plain["iteration_s"] + traced["iteration_s"]) + setup.next_s()
        return time.perf_counter() + expected <= deadline

    while n < minimum or (tracer is not None and n % 2) or another():
        on = tracer is not None and n % 2 == 1
        if on:
            tracer.install()
        times, outs = {}, []
        t0 = time.perf_counter()
        try:
            for d, run, _ in pieces:
                piece_times, piece_outs = run(b, d)
                times.update(piece_times)
                outs.append(piece_outs)
        finally:
            if on:
                tracer.uninstall()
        times["iteration_s"] = time.perf_counter() - t0
        for key, value in times.items():
            (traced if on else plain)[key].append(value)
        q = {}
        for (d, _, check), piece_outs in zip(pieces, outs):
            q.update(check(b, d, piece_outs))
        files = sorted(p for d, _, _ in pieces for p in d.iterdir() if p.is_file())
        if reference is None:
            reference, quality = digest(files), q
        else:
            b.check(digest(files) == reference, f"{workload} iteration {n + 1} output differs from the first")
        n += 1
        setup.step()
    return plain, traced, quality, n


def posterior_cases(b: Bench):
    """Adapt-shaped (n <= 20, Q = 80) and live-shaped (grid candidates) posterior samples."""
    from scoopgp.tasks import (assemble_gp_input, compute_features_batch, enumerate_action_grid,
                               load_terrains, read_database)

    d = b.scenario_dir
    rng = np.random.default_rng(b.seed)
    data = read_database(str(d / "fam.test.records.txt"))
    ds = data[int(rng.integers(len(data)))]
    X, y = ds.gp_inputs(), ds.rewards()
    order = rng.permutation(len(ds))
    adapt = [(f"adapt n={n}", X[order[:n]], y[order[:n]], X[order[20:]])
             for n in (0, 1, 5, 10, 20)]
    live_task = load_terrains(str(d / "fam.terrains.bin"))
    live_ds = read_database(str(d / "live.records.txt"))[0]
    task = next(t for t in live_task if t.id == live_ds.task_id)
    grid = enumerate_action_grid()
    actions = [grid[i] for i in rng.choice(len(grid), size=256, replace=False)]
    feats = compute_features_batch(task, actions)
    Q = np.stack([assemble_gp_input(f, a) for f, a in zip(feats, actions)])
    LX, Ly = live_ds.gp_inputs(), live_ds.rewards()
    live = [(f"live n={n}", LX[:n], Ly[:n], Q) for n in (0, 1, 2)]
    return adapt, live


def check_posteriors(b: Bench) -> None:
    import scoopgp.bench
    import scoopgp.decide
    from scoopgp.gp import load_model

    model = load_model(str(b.scenario_dir / "codega.bin"))
    adapt, live = posterior_cases(b)
    # the bindings the evaluation and the decision loop actually call
    for fn, cases in ((scoopgp.bench.posterior_batch, adapt), (scoopgp.decide.posterior_batch, live)):
        problems = compare(fn, model, cases)
        b.check(not problems, "; ".join(problems))


TRAINERS = ("meta.train_mean", "meta.train_kernel_codega", "meta.train_dkmt")


def layer_metrics(totals, plain, traced, n_traced: int) -> dict:
    """Totals per traced iteration, untraced stage medians and the tracing overhead."""
    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        group, _, rest = name.partition(".")
        if group == "stage":
            value = statistics.median(plain[rest]) if plain.get(rest) else 0.0
        elif group == "trace":
            m = rest[len("overhead."):]
            value = statistics.median(traced[m]) - statistics.median(plain[m]) if plain.get(m) else 0.0
        elif name == "decide.run_deployment.reward_per_step":
            deploy = totals["decide.run_deployment"]
            value = ratio(deploy["reward"], deploy["steps"])
        elif name == "meta.useful_epoch_ratio":
            value = ratio(sum(totals[f]["best_epochs"] for f in TRAINERS),
                          sum(totals[f]["epochs"] for f in TRAINERS))
        else:
            fn, counter = name.rsplit(".", 1)
            value = totals[fn][counter] / n_traced
        out[name] = {"value": value, "unit": layer_unit(name)}
    return out


# ---------------------------------------------------------------------------
# Environment record

def loadavg() -> list:
    """1, 5 and 15 minute load averages, then the number of runnable tasks now (this one included)."""
    with open("/proc/loadavg", encoding="utf-8") as fh:
        fields = fh.read().split()
    return [float(v) for v in fields[:3]] + [int(fields[3].split("/")[0])]


def cpu_ticks() -> tuple:
    """(steal, total) jiffies over all CPUs; steal is time the hypervisor ran someone else."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def source_version() -> dict:
    out = {}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        out["git_sha"] = ref
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    out["source_sha256"] = h.hexdigest()
    return out


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **source_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "os_threads": len(os.listdir("/proc/self/task")),
    }


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the measured part: loop, set-up repeats and quality pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, one set-up; for self-checks")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "scoopgp" / "__init__.py").is_file():
        print(f"perfbench: no scoopgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import scoopgp.cli

    load_before, ticks_before = loadavg(), cpu_ticks()
    env = environment()
    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-t{args.trace}-", dir=runs))
    b = Bench(scoopgp.cli, rundir / "work", args.seed, args.quick)
    b.check(env["os_threads"] == 1, f"{env['os_threads']} OS threads after numpy import, expected 1")

    repeats = 1 if args.quick or args.trace else SETUP_REPEATS
    setup = SetUps(b, repeats)
    setup.step()
    warm_up(b)

    deadline = time.perf_counter() + args.seconds
    quality = {}
    if not args.trace:
        for piece in POST[args.workload]:
            d = b.work / piece
            d.mkdir(parents=True, exist_ok=True)
            run, check = PIECES[piece]
            quality.update(check(b, d, run(b, d)[1]))
    tracer = Tracer() if args.trace else None
    plain, traced, loop_quality, iterations = measure(b, args.workload, deadline, tracer, setup)
    quality.update(loop_quality)
    while setup.left:
        setup.step()
    check_posteriors(b)
    shutil.rmtree(b.work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer.totals, plain, traced, iterations // 2)
        tracer.write_spans(str(rundir / "spans.txt.gz"))
    else:
        values = {"setup_s": statistics.median(setup.times),
                  "iteration_s": statistics.mean(plain["iteration_s"])}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values.update({m: quality.get(m) for m in QUALITY})
        missing = [m for m, v in values.items() if v is None]
        if missing:
            print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {m: {"value": values[m], "unit": END_TO_END[m]} for m in END_TO_END}

    load_after, ticks_after = loadavg(), cpu_ticks()
    steal = (ticks_after[0] - ticks_before[0]) / max(ticks_after[1] - ticks_before[1], 1)
    # another runnable task at either end, or the hypervisor taking over 2% of
    # the CPU time, means the run shared its cores; the 1-minute load average
    # alone cannot tell, since it still holds the previous run
    env.update(loadavg_before=load_before, loadavg_after=load_after, steal_share=steal,
               contended=load_before[3] > 1 or load_after[3] > 1 or steal > 0.02,
               iterations=iterations, setup_repeats=repeats)
    result = {"correct": not b.failures, "attempted": b.attempted, "failed": len(b.failures),
              "metrics": metrics}
    (rundir / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    samples = {"setup_s": setup.times, **plain}
    (rundir / "result.json").write_text(json.dumps({**result, "failures": b.failures, "samples": samples},
                                                   indent=1) + "\n")
    if env["contended"]:
        print(f"perfbench: run taken under contention (loadavg {load_before} -> {load_after}, "
              f"steal {steal:.1%})", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} iterations={iterations} "
          f"error_rate={len(b.failures)}/{b.attempted} record={rundir.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
