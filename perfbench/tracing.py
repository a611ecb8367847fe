"""Per-layer tracing of scoopgp from outside the package.

A Tracer wraps public functions of the package modules. Each wrapped call
becomes a span (id, parent id, name, start, end) kept in memory; self time
is a span's duration minus the durations of the wrapped calls nested
directly inside it. Work counts are read from a call's arguments or its
return value. A wrapper is installed on every package module that holds
the function, because `from .gp import posterior_batch` binds the name
again in the importing module.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    return lambda a, k, r: {"rows": len(_arg(a, k, index, name))}


def _report_epochs(a, k, result):
    report = result.report
    return {"epochs": len(report.entries), "best_epochs": report.best_epoch}


# module -> {function: work counter, or None for calls and self time only}
SPANNED = {
    "tasks": {
        "compute_features_batch": lambda a, k, r: {"actions": len(_arg(a, k, 1, "actions"))},
        "reward_oracle": None,
        "sample_task_family": None,
        "sample_ood_test_family": None,
        "write_database": lambda a, k, r: {"bytes": sum(os.path.getsize(p) for p in r)},
        "read_database": None,
        "save_terrains": None,
        "load_terrains": None,
    },
    "gp": {
        "posterior_batch": lambda a, k, r: {
            "query_rows": len(_arg(a, k, 3, "queries")),
            "support_rows": len(_arg(a, k, 1, "support_x")),
        },
        "embed_batch": None,
        "mean_eval_batch": None,
        "nlml_grad": _rows(1, "X"),
        "save_model": None,
        "load_model": None,
    },
    "nnet": {
        "forward_batch": _rows(2, "X"),
        "vjp": _rows(2, "X"),
        "optimizer_step": None,
    },
    "meta": {
        "train_mean": _report_epochs,
        "build_residual_dataset": None,
        "train_codega": None,
        "train_kernel_codega": _report_epochs,
        "train_dkmt": _report_epochs,
    },
    "decide": {
        "run_deployment": lambda a, k, r: {"steps": r.attempts,
                                           "reward": sum(e.reward for e in r.episodes)},
        "select_action": None,
    },
    "bench": {
        "eval_kshot_mae": None,
        "mean_model_mae": None,
        "eval_simulated_deployment": None,
        "write_mae_report": None,
        "write_deploy_report": None,
    },
    "serialize": {
        "container_bytes": None,
        "parse_container": None,
    },
}

# called tens of thousands of times per training run: counted, not timed
COUNTED = {"nnet": ("split_params",)}

PACKAGE = "scoopgp"


class Tracer:
    """Installs the wrappers, collects spans and per-function totals."""

    def __init__(self):
        self.spans: list = []
        self.totals: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list = []
        self._next_id = 1
        self._saved: list = []

    def _spanned(self, name, fn, count):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                totals = self.totals[name]
                totals["calls"] += 1
                totals["self_s"] += (t1 - t0) - frame[1]
                self.spans.append((frame[0], parent[0] if parent else 0, name, t0, t1))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    totals[key] += value
            return result
        return wrapper

    def _counted(self, name, fn):
        totals = self.totals[name]

        def wrapper(*args, **kwargs):
            totals["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        plan = []
        for short, fns in SPANNED.items():
            for fname, count in fns.items():
                plan.append((short, fname, lambda n, f, c=count: self._spanned(n, f, c)))
        for short, fnames in COUNTED.items():
            for fname in fnames:
                plan.append((short, fname, self._counted))
        for short, fname, make in plan:
            home = sys.modules[f"{PACKAGE}.{short}"]
            original = getattr(home, fname)
            wrapper = make(f"{short}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_spans(self, path: str) -> None:
        """One line per span: id parent name start_s duration_s, start relative to the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# id parent name start_s duration_s\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid} {parent} {name} {t0 - origin:.9f} {t1 - t0:.9f}\n")
