#!/usr/bin/env python3
"""Summarise paired perfbench runs of a parent and a change into BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr N --parent PARENT_RUNS --change CHANGE_RUNS [--out BENCH_N.json]

PARENT_RUNS and CHANGE_RUNS are `.perfbench-runs` directories, one per
tree: perfbench writes each run to `<workload>-s<seed>-t<trace>-*/` with a
`result.json` and an `env.json`. Untraced runs pair up by workload and
seed; run the two sides alternately, at the same seeds, so each pair sees
the same phase of the host. For every end-to-end metric the file records,
per side, the median, the minimum and the IQR over the median, and per pair
the ratio change/parent with its median. For every end-to-end metric of
BENCHMARK.json, `claim` counts the pairs the change won, lost and tied by
the metric's `better` direction, and says whether the change's median beats
the parent's by more than the parent's IQR: a gain is claimed only when it
wins nine pairs in ten and clears that IQR. Per workload, `quality_identical`
says whether each quality metric (QUALITY) was equal in every pair. It also
records the check counts, the environment of each run and, when traced runs
exist, the median of each per-layer metric. It refuses, exiting non-zero
and naming the run, when a run it would record failed a check. It prints,
per workload, how many runs on each side were taken under contention and a
line per end-to-end metric with its medians, pair counts and IQR verdict.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("mae_0shot", "mae_10shot", "top_mae_10shot", "ucb_avg_attempts")
# end-to-end metric name -> "lower" or "higher", the direction that is better
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def load_runs(runs_dir: Path) -> dict:
    """{(workload, seed, trace): (result, env)} for every finished run in runs_dir."""
    runs = {}
    for result_path in sorted(runs_dir.glob("*/result.json")):
        run = result_path.parent
        workload, seed, trace = run.name.split("-")[:3]
        key = (workload, int(seed[1:]), int(trace[1:]))
        if key in runs:
            sys.exit(f"{runs_dir}: more than one run of {key}; keep one per workload, seed and trace")
        env = json.loads((run / "env.json").read_text())
        runs[key] = (json.loads(result_path.read_text()), env)
    return runs


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (median,) * 3
    return {"median": median, "min": min(values), "iqr": q3 - q1,
            "iqr_over_median": (q3 - q1) / median if median else 0.0, "values": values}


def claim(parent: list, change: list, better: str) -> dict:
    """Pairs won, lost and tied by the change, and its median gain against
    the parent's IQR, for one metric's paired values."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    base = summary(parent)
    median_gain = sign * (base["median"] - statistics.median(change))
    return {"better": better, "won": sum(g > 0 for g in gains), "lost": sum(g < 0 for g in gains),
            "tied": sum(g == 0 for g in gains), "median_gain": median_gain, "parent_iqr": base["iqr"],
            "gain_exceeds_parent_iqr": median_gain > base["iqr"]}


def side(runs: list) -> dict:
    """Metric summaries, check counts and environments of one side's runs, in seed order."""
    names = runs[0][0]["metrics"]
    return {
        "metrics": {name: dict(unit=runs[0][0]["metrics"][name]["unit"],
                               **summary([r["metrics"][name]["value"] for r, _ in runs]))
                    for name in names},
        "checks": {"attempted": [r["attempted"] for r, _ in runs], "failed": [r["failed"] for r, _ in runs]},
        "env": [{key: env.get(key) for key in ("git_sha", "source_sha256", "nproc", "loadavg_before",
                                               "loadavg_after", "steal_share", "contended", "iterations")}
                for _, env in runs],
    }


def record(parent: dict, change: dict) -> dict:
    out = {}
    for workload in sorted({key[0] for key in parent} | {key[0] for key in change}):
        seeds = sorted(s for (w, s, t) in parent if w == workload and t == 0 and (w, s, t) in change)
        if not seeds:
            continue
        p = [parent[(workload, s, 0)] for s in seeds]
        c = [change[(workload, s, 0)] for s in seeds]
        entry = {"seeds": seeds, "parent": side(p), "change": side(c), "pairs": {}}
        for name in entry["parent"]["metrics"]:
            ratios = [cr["metrics"][name]["value"] / pr["metrics"][name]["value"]
                      for (pr, _), (cr, _) in zip(p, c)]
            entry["pairs"][name] = {"median_ratio": statistics.median(ratios), "ratios": ratios}
        entry["claim"] = {name: claim(entry["parent"]["metrics"][name]["values"],
                                      entry["change"]["metrics"][name]["values"], better)
                          for name, better in BETTER.items() if name in entry["parent"]["metrics"]}
        entry["quality_identical"] = all(pr["metrics"][name]["value"] == cr["metrics"][name]["value"]
                                         for name in QUALITY if name in entry["parent"]["metrics"]
                                         for (pr, _), (cr, _) in zip(p, c))
        traced = {}
        for label, runs in (("parent", parent), ("change", change)):
            metrics = [r["metrics"] for (w, _, t), (r, _) in sorted(runs.items()) if w == workload and t == 1]
            if metrics:
                traced[label] = {name: statistics.median(m[name]["value"] for m in metrics)
                                 for name in metrics[0]}
        if traced:
            entry["traced_medians"] = traced
        out[workload] = entry
    return out


def faults(runs: dict, label: str, workloads: dict) -> list:
    """One line per run that feeds the record (a paired or a traced run) and
    failed a check or is not marked correct."""
    return [f"{label} run {w}-s{s}-t{t}: failed={r['failed']} correct={r.get('correct')}"
            for (w, s, t), (r, _) in sorted(runs.items())
            if w in workloads and (t == 1 or s in workloads[w]["seeds"])
            and (r["failed"] or r.get("correct") is not True)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", type=Path, required=True, help="the parent tree's .perfbench-runs directory")
    ap.add_argument("--change", type=Path, required=True, help="the change's .perfbench-runs directory")
    ap.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json at the repository root)")
    args = ap.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = record(parent, change)
    if not workloads:
        sys.exit("no untraced runs pair up by workload and seed")
    problems = faults(parent, "parent", workloads) + faults(change, "change", workloads)
    if problems:
        sys.exit("runs that failed a check cannot be recorded:\n" + "\n".join(problems))
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, "workloads": workloads}, indent=1) + "\n")
    for workload, entry in workloads.items():
        contended = {label: sum(bool(env.get("contended")) for env in entry[label]["env"])
                     for label in ("parent", "change")}
        print(f"{workload}: {len(entry['seeds'])} pairs, quality identical {entry['quality_identical']}, "
              f"contended runs parent {contended['parent']} change {contended['change']}")
        for name, c in entry["claim"].items():
            medians = [entry[label]["metrics"][name]["median"] for label in ("parent", "change")]
            print(f"  {name}: median parent {medians[0]:.6g} change {medians[1]:.6g}, "
                  f"change/parent {entry['pairs'][name]['median_ratio']:.3f}, "
                  f"won {c['won']} lost {c['lost']} tied {c['tied']}, "
                  f"median gain {c['median_gain']:.6g} {'>' if c['gain_exceeds_parent_iqr'] else '<='} "
                  f"parent IQR {c['parent_iqr']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
