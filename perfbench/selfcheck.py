#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json names are well formed, that a quick run of each
workload prints exactly the metrics BENCHMARK.json names with their units,
that every traced layer fires on the workloads that exercise it and stays
at zero where it should be absent, and that a perturbed posterior and a
gradient with a term left out trip the dense-oracle checks. Takes about a
minute and a half; exits non-zero on any failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ALL = {"offline", "online"}
OFFLINE, ONLINE = {"offline"}, {"online"}

# where each traced function must fire; it must read zero on the other workload
FIRES = {
    "tasks.compute_features_batch": ALL,
    "tasks.reward_oracle": ALL,
    "tasks.sample_task_family": OFFLINE,
    "tasks.sample_ood_test_family": OFFLINE,
    "tasks.write_database": OFFLINE,
    "tasks.read_database": ALL,
    "tasks.save_terrains": OFFLINE,
    "tasks.load_terrains": ONLINE,
    "gp.posterior_batch": ONLINE,
    "gp.embed_batch": ONLINE,
    "gp.mean_eval_batch": ONLINE,
    "gp.nlml_grad": OFFLINE,
    "gp.save_model": OFFLINE,
    "gp.load_model": ONLINE,
    "nnet.forward_batch": ALL,
    "nnet.vjp": OFFLINE,
    "nnet.optimizer_step": OFFLINE,
    "nnet.split_params": ALL,
    "meta": OFFLINE,
    "decide": ONLINE,
    "bench": ONLINE,
    "serialize.container_bytes": ALL,
    "serialize.parse_container": ONLINE,
    "stage.gen_s": OFFLINE,
    "stage.train_codega_s": OFFLINE,
    "stage.train_dkmt_s": OFFLINE,
    "stage.kshot_eval_s": ONLINE,
    "stage.dataset_deploy_s": ONLINE,
    "stage.live_step_s": ONLINE,
    "trace.overhead.iteration_s": ALL,
}
FIRES.update({"trace.overhead." + k[len("stage."):]: v for k, v in list(FIRES.items()) if k.startswith("stage.")})


def expected_workloads(metric: str) -> set:
    key = max((k for k in FIRES if metric == k or metric.startswith(k + ".")), key=len)
    return FIRES[key]


def check_spec(spec: dict) -> list:
    problems = []
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"malformed name {name!r}")
    for m in metrics:
        if not UNIT.match(m["unit"]):
            problems.append(f"malformed unit {m['unit']!r} of {m['name']}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    return problems


def quick_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_output(spec: dict, workload: str, trace: int, result: dict) -> list:
    problems = []
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != named:
        problems.append(f"{where}: printed metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(named) - set(printed))}, "
                        f"unnamed {sorted(set(printed) - set(named))}, "
                        f"units {sorted(k for k in named if k in printed and printed[k] != named[k])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
        elif trace == 0 and m["value"] <= 0:
            problems.append(f"{where}: {name} reads {m['value']}, end-to-end metrics must be positive")
        elif trace == 1 and name in named:
            fires = workload in expected_workloads(name)
            if fires != (m["value"] != 0):
                problems.append(f"{where}: {name} reads {m['value']}, expected "
                                f"{'non-zero' if fires else 'zero'}")
    return problems


def check_oracle_trips() -> list:
    """The oracle accepts the program's posterior and gradient, and rejects perturbed ones."""
    from dataclasses import replace

    import numpy as np

    from oracle import check_gradient, compare
    from scoopgp.config import ModelConfig
    from scoopgp.gp import DeepGpModel, nlml_grad, posterior_batch
    from scoopgp.nnet import init_params

    cfg, rng = ModelConfig(), np.random.default_rng(0)
    fspec = cfg.feature_spec(16)
    model = DeepGpModel(fspec, init_params(fspec, rng), cfg.mean_spec(), init_params(cfg.mean_spec(), rng),
                        cfg.kernel_spec(), init_params(cfg.kernel_spec(), rng), 0.0, 0.0, -2.0)
    X, y = rng.normal(size=(40, 16)), rng.normal(size=40)
    cases = [(f"n={n}", X[:n], y[:n], X[20:]) for n in (0, 3, 20)]

    def perturbed(m, xs, ys, q):
        mu, var = posterior_batch(m, xs, ys, q)
        return mu * (1.0 + 1e-5), var

    def joint(m, xs, ys):
        return nlml_grad(m, xs, ys, mean_mode="model", train_extractor=True, train_mean=True)

    def without_mean_path(m, xs, ys):
        value, grads = joint(m, xs, ys)
        _, kernel_only = nlml_grad(m, xs, ys, mean_mode="model", train_extractor=True)
        return value, replace(grads, feature=kernel_only.feature)

    problems = []
    if compare(posterior_batch, model, cases):
        problems.append("oracle rejects the program's own posterior")
    if not compare(perturbed, model, cases):
        problems.append("oracle accepts a posterior whose means are off by 1e-5")
    found = check_gradient(joint, model, X[:12], y[:12], np.random.default_rng(1))
    if found:
        problems.append(f"gradient check rejects the program's own gradient: {found}")
    if not check_gradient(without_mean_path, model, X[:12], y[:12], np.random.default_rng(1)):
        problems.append("gradient check accepts an extractor gradient without the mean path")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_oracle_trips()
    for workload in sorted(ALL):
        for trace in (0, 1):
            problems += check_output(spec, workload, trace, quick_run(workload, trace))
            print(f"selfcheck: {workload} --trace {trace} done", file=sys.stderr)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
