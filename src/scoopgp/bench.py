"""Evaluation protocols and report files.

Two protocols mirror the deployment questions: how accurate are reward
predictions after k support scoops (k-shot MAE, with a separate average
over each terrain's five largest-reward samples), and how many attempts
does a policy need to reach an above-threshold scoop. Reports serialize
to structured text whose aggregate lines recompute exactly from the
per-task rows, and every report names the seed and checkpoint it came from.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .config import BenchConfig, check_shots, seed_sequence
from .decide import run_deployment
from .errors import IngestError
from .gp import (DeepGpModel, checkpoint_id, condition_gram, embed, kernel_matrix, mean_eval_batch,
                 posterior_batch)
from .serialize import write_atomic

# share of each task's records held out as queries in every evaluation trial
QUERY_FRACTION = 0.8
TOP_K = 5               # the top MAE averages over each trial's TOP_K largest-reward queries
THRESHOLD_RANK = 5      # a task's deployment threshold is its THRESHOLD_RANK-th largest reward
_QUERY_TAG = 0x9E41
_SUPPORT_TAG = 0x51A9
# the protocols' defaults are the config's, so each default has one source
_DEFAULTS = BenchConfig()


def _task_tag(task_id: str) -> int:
    return int.from_bytes(hashlib.sha256(task_id.encode("utf-8")).digest()[:4], "big")


def _trial_rng(seed: int, tag: int, trial: int, stream: int):
    return np.random.default_rng(seed_sequence(seed, tag, trial, stream))


def _query_split(seed: int, tag: int, trial: int, n_records: int):
    perm = _trial_rng(seed, tag, trial, _QUERY_TAG).permutation(n_records)
    n_query = max(1, int(np.floor(QUERY_FRACTION * n_records)))
    n_query = min(n_query, n_records - 1) if n_records > 1 else 1
    return perm[:n_query], perm[n_query:]


def _shuffled(seed: int, tag: int, trial: int, pool: np.ndarray) -> np.ndarray:
    return pool[_trial_rng(seed, tag, trial, _SUPPORT_TAG).permutation(len(pool))]


def query_split(seed: int, task_id: str, trial: int, n_records: int):
    """Deterministic query/support-pool split for one evaluation trial.

    The query indices depend only on (seed, task, trial), never on how the
    support set is later drawn, so zero-shot results are invariant to
    support sampling.
    """
    return _query_split(seed, _task_tag(task_id), trial, n_records)


def _support_order(seed: int, task_id: str, trial: int, pool: np.ndarray) -> np.ndarray:
    return _shuffled(seed, _task_tag(task_id), trial, pool)


@dataclass(frozen=True)
class MaeRow:
    task_id: str
    shot: int
    mae: float
    top_mae: float


@dataclass(frozen=True)
class MaeReport:
    label: str
    seed: int
    checkpoint: str
    trials: int
    shots: tuple
    rows: tuple

    def aggregate(self, shot: int) -> tuple:
        """(MAE, top-k MAE) at one listed shot count, averaged over its rows."""
        if shot not in self.shots:
            raise KeyError(f"shot {shot} is not one of the report's shots {self.shots}")
        return _aggregate_rows(self.rows, (shot,))[shot]


def _aggregate_rows(rows, shots) -> dict:
    out = {}
    for shot in shots:
        maes = [r.mae for r in rows if r.shot == shot]
        tops = [r.top_mae for r in rows if r.shot == shot]
        out[int(shot)] = (float(np.mean(maes)), float(np.mean(tops)))
    return out


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _mae_rows(task_id: str, shots, mu: np.ndarray, yq: np.ndarray) -> list:
    """One MaeRow per shot from every trial's query means in one pass.

    mu holds the query means, shaped (trials, shots, queries); yq the query
    rewards, shaped (trials, queries). The top MAE averages over each
    trial's TOP_K largest-reward queries. Each trial's errors are averaged
    over its queries, then the trials are summed in order and divided by
    their count.
    """
    err = np.abs(mu - yq[:, None, :])
    top = np.take_along_axis(err, np.argsort(-yq, axis=1)[:, None, :TOP_K], axis=-1)
    maes = np.cumsum(err.mean(axis=-1), axis=0)[-1] / len(mu)
    tops = np.cumsum(top.mean(axis=-1), axis=0)[-1] / len(mu)
    return [MaeRow(task_id, s, float(maes[i]), float(tops[i])) for i, s in enumerate(shots)]


def eval_kshot_mae(model: DeepGpModel, datasets, shots=_DEFAULTS.shots, trials: int = _DEFAULTS.mae_trials,
                   seed: int = 0) -> MaeReport:
    """k-shot reward prediction error per task.

    Each trial holds out a query fraction of the records; the support set
    is drawn from the remainder (prefixes of one shuffled order, so the
    supports nest across shots). MAE is averaged over the query set and,
    separately, over its TOP_K largest-reward samples, then averaged over
    trials. Zero shots means the prior mean and is support-independent;
    when the largest shot is 0 only the mean path runs, with no kernel
    embedding and no Gram matrix.

    Each task's records go through the networks once and into one Gram
    matrix. Every trial's largest support is factored from its sub-block,
    all of a task's trials in one stacked condition_gram call: the first s
    rows of V and beta belong to the s-point prefix, so the s-shot mean is
    m(q) + sum_{i<s} V_i beta_i, one cumulative sum along the support axis.
    A factor that needed jitter is not the jittered factor of its
    prefixes, so such a trial conditions every shot on its own, with the
    jitter posterior_batch gives it.
    """
    shots = check_shots(shots)
    _check_trials(trials)
    max_shot = max(shots)
    shot_arr = np.array(shots)
    adapted = np.flatnonzero(shot_arr)
    rows = []
    for ds in datasets:
        n = len(ds)
        if n < 2:
            raise ValueError(f"task {ds.task_id} has too few records for the query split")
        X, y = ds.gp_inputs(), ds.rewards()
        tag = _task_tag(ds.task_id)
        splits = [_query_split(seed, tag, trial, n) for trial in range(trials)]
        q_idx = np.stack([q for q, _ in splits])
        # every trial's pool holds the records left outside its query set
        pool_size = n - q_idx.shape[1]
        if max_shot > pool_size:
            raise ValueError(
                f"task {ds.task_id}: {max_shot} shots exceed the {pool_size} records "
                f"left outside the query set"
            )
        if not max_shot:
            mu = mean_eval_batch(model, X)[q_idx][:, None, :]
        else:
            E = embed(model, X)
            K = kernel_matrix(model, E.Z, E.Z)
            mu = np.repeat(E.m[q_idx][:, None, :], len(shots), axis=1)
            orders = np.stack([_shuffled(seed, tag, trial, pool) for trial, (_, pool) in enumerate(splits)])
            top = orders[:, :max_shot]
            # sub-blocks gathered by flat index, which numpy does faster than by two index arrays
            flat = K.ravel()
            V, beta, jitter = condition_gram(model, flat[top[:, :, None] * n + top[:, None, :]],
                                             flat[q_idx[:, :, None] * n + top[:, None, :]], y[top] - E.m[top])
            gain = np.cumsum(V * beta[:, :, None], axis=1)[:, shot_arr[adapted] - 1]
            exact = np.flatnonzero(jitter == 0.0)
            mu[np.ix_(exact, adapted)] += gain[exact]
            for trial in np.flatnonzero(jitter):
                order, q = orders[trial], q_idx[trial]
                for i, s in enumerate(shots):
                    mu[trial, i] = posterior_batch(model, E[order[:s]], y[order[:s]], E[q])[0]
        rows += _mae_rows(ds.task_id, shots, mu, y[q_idx])
    return MaeReport(
        label="kshot-mae",
        seed=int(seed),
        checkpoint=checkpoint_id(model),
        trials=int(trials),
        shots=shots,
        rows=tuple(rows),
    )


def mean_model_mae(model: DeepGpModel, datasets, trials: int = _DEFAULTS.mae_trials, seed: int = 0) -> MaeReport:
    """Prediction error of the prior mean alone: the 0-shot k-shot protocol,
    labelled "mean-only-mae". The non-adaptive reference: no support, no kernel."""
    report = eval_kshot_mae(model, datasets, shots=(0,), trials=trials, seed=seed)
    return replace(report, label="mean-only-mae")


@dataclass(frozen=True)
class DeployRow:
    task_id: str
    trial: int
    attempts: int
    success: bool


@dataclass(frozen=True)
class DeployReport:
    method: str
    seed: int
    checkpoint: str
    budget: int
    trials: int
    rows: tuple
    excluded: tuple = ()

    @property
    def avg_attempts(self) -> float:
        return float(np.mean([r.attempts for r in self.rows]))

    @property
    def max_attempts(self) -> int:
        return int(max(r.attempts for r in self.rows))

    @property
    def success_rate(self) -> float:
        return float(np.mean([1.0 if r.success else 0.0 for r in self.rows]))

    def attempts_by_cell(self) -> dict:
        return {(r.task_id, r.trial): r.attempts for r in self.rows}


def deployment_threshold(dataset) -> float:
    """The THRESHOLD_RANK-th largest recorded reward."""
    rewards = np.sort(dataset.rewards())
    if len(rewards) < THRESHOLD_RANK:
        raise ValueError(f"task {dataset.task_id} has {len(rewards)} records, needs at least {THRESHOLD_RANK}")
    return float(rewards[-THRESHOLD_RANK])


def eval_simulated_deployment(model, kind: str, datasets, budget: int = _DEFAULTS.budget,
                              trials: int = _DEFAULTS.deploy_trials, seed: int = 0,
                              exclude_below: float = _DEFAULTS.exclude_below) -> DeployReport:
    """Dataset-mode deployment of one model under one scorer kind, reported
    under that kind.

    The per-task threshold is deployment_threshold's. Tasks whose
    threshold falls below exclude_below are dropped (the barely scoopable
    analog) and named in the report. Attempts count the episodes run; a
    failed run counts the full budget. Only random draws from the seed in
    a replayed episode, so a ucb or mean episode runs once per task and
    every trial's row repeats it; random runs each trial with its own seed.
    """
    included = []
    excluded = []
    for ds in datasets:
        B = deployment_threshold(ds)
        if B < exclude_below:
            excluded.append(ds.task_id)
        else:
            included.append((ds, B))
    if not included:
        raise ValueError("every task fell below the deployment threshold floor")

    rows = []
    for ds, B in included:
        trace = None
        for trial in range(trials):
            if trace is None or kind == "random":
                # the 0 held a method's index when one call deployed several; it keeps every trial's seed
                run_seed = seed_sequence(seed, _task_tag(ds.task_id), 0, trial).generate_state(1)[0]
                trace = run_deployment(model, kind, ds, B, budget, int(run_seed))
            rows.append(DeployRow(ds.task_id, trial, trace.attempts, trace.success))
    return DeployReport(
        method=kind,
        seed=int(seed),
        checkpoint=checkpoint_id(model) if model is not None else "none",
        budget=int(budget),
        trials=int(trials),
        rows=tuple(rows),
        excluded=tuple(excluded),
    )


def paired_sign_test(a, b) -> float:
    """One-sided sign test that paired values in a are smaller than in b.

    Ties are dropped. Returns the p-value of seeing at least as many wins
    under a fair coin.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have the same shape")
    wins = int(np.sum(a < b))
    losses = int(np.sum(a > b))
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


# ---------------------------------------------------------------------------
# Report files

_FMT = "%.9g"


def write_mae_report(path: str, report: MaeReport) -> None:
    lines = [
        "# scoopgp mae-report v1",
        f"# label={report.label} seed={report.seed} checkpoint={report.checkpoint} "
        f"trials={report.trials} shots={','.join(str(s) for s in report.shots)}",
        "# columns: task_id shot mae top_mae",
    ]
    quant = []
    for r in report.rows:
        mae_s, top_s = _FMT % r.mae, _FMT % r.top_mae
        quant.append(MaeRow(r.task_id, r.shot, float(mae_s), float(top_s)))
        lines.append(f"{r.task_id} {r.shot} {mae_s} {top_s}")
    for shot in report.shots:
        mae, top = _aggregate_rows(quant, (shot,))[shot]
        lines.append(f"#aggregate {shot} {_FMT % mae} {_FMT % top}")
    write_atomic({path: "\n".join(lines) + "\n"})


def _key_values(line: str) -> dict:
    """The key=value tokens of a report's '#' header or aggregate line."""
    return dict(tok.split("=", 1) for tok in line.lstrip("#").split() if "=" in tok)


@contextmanager
def _parsing(path: str, lineno: int, line: str):
    """Raise a field of line that is missing or does not parse, or a file
    that cannot be read or decoded, as IngestError."""
    try:
        yield
    except (IndexError, KeyError, OSError, ValueError) as exc:
        raise IngestError(f"cannot parse {line!r} ({type(exc).__name__}: {exc})", path, lineno) from None


# the header key of each report kind: "# label=..." for mae, "# method=..." for deploy
_HEADER_KEYS = {"mae": "label", "deploy": "method"}


def _report_lines(path: str, kind: str | None = None):
    """Read a report file once and split it into its kind, its header
    line, its 4-field rows and its aggregate lines, each with its line
    number. kind None takes the kind from the file's first line ("# scoopgp
    mae-report v1"). A file of no known kind, or without its kind's header
    line (the one naming the header key=), raises IngestError."""
    header, rows, aggregates = None, [], []
    with _parsing(path, 0, f"{kind} report" if kind else "report"), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if kind is None:
        first = text.split("\n", 1)[0]
        kind = next((k for k in _HEADER_KEYS if f"{k}-report" in first), None)
        if kind is None:
            raise IngestError("not a recognized report file", path)
    header_key = _HEADER_KEYS[kind]
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("#aggregate"):
            aggregates.append((lineno, line))
        elif line.startswith("#"):
            if f"{header_key}=" in line:
                header = (lineno, line)
        elif line:
            n_fields = len(line.split())
            if n_fields != 4:
                raise IngestError(f"{kind} row has {n_fields} fields, expected 4", path, lineno)
            rows.append((lineno, line))
    if header is None:
        raise IngestError(f"{kind} report has no '# {header_key}=' header line", path)
    return kind, header, rows, aggregates


def _check_aggregate(stated, got, what: str, path: str) -> None:
    """Raise IngestError unless the stated aggregate values equal the
    recomputed ones at the file's printed precision."""
    got_q = tuple(float(_FMT % g) for g in got)
    if stated != got_q:
        raise IngestError(f"aggregate for {what} is {stated}, rows recompute to {got_q}", path)


def read_mae_report(path: str) -> MaeReport:
    """Parse a report file, recomputing and checking its aggregate lines."""
    return _mae_report(path, *_report_lines(path, "mae")[1:])


def _mae_report(path: str, header_line: tuple, lines: list, aggregate_lines: list) -> MaeReport:
    lineno, line = header_line
    with _parsing(path, lineno, line):
        kv = _key_values(line)
        header = dict(label=kv["label"], seed=int(kv["seed"]), checkpoint=kv["checkpoint"],
                      trials=int(kv["trials"]), shots=check_shots(kv["shots"].split(",")))
    rows = []
    for lineno, line in lines:
        parts = line.split()
        with _parsing(path, lineno, line):
            rows.append(MaeRow(parts[0], int(parts[1]), float(parts[2]), float(parts[3])))
        if rows[-1].shot not in header["shots"]:
            raise IngestError(f"row for shot {rows[-1].shot}, which the header does not list", path, lineno)
    if not set(header["shots"]) <= {r.shot for r in rows}:
        raise IngestError(f"header lists shots {header['shots']}, and some have no rows", path)
    stated = {}
    for lineno, line in aggregate_lines:
        parts = line.split()
        with _parsing(path, lineno, line):
            stated[int(parts[1])] = (float(parts[2]), float(parts[3]))
    aggregates = _aggregate_rows(rows, header["shots"])
    for shot, stated_pair in stated.items():
        if shot not in aggregates:
            raise IngestError(f"aggregate for shot {shot}, which the header does not list", path)
        _check_aggregate(stated_pair, aggregates[shot], f"shot {shot}", path)
    return MaeReport(rows=tuple(rows), **header)


def write_deploy_report(path: str, report: DeployReport) -> None:
    lines = [
        "# scoopgp deploy-report v1",
        f"# method={report.method} seed={report.seed} checkpoint={report.checkpoint} "
        f"budget={report.budget} trials={report.trials} excluded={','.join(report.excluded) or 'none'}",
        "# columns: task_id trial attempts success",
    ]
    for r in report.rows:
        lines.append(f"{r.task_id} {r.trial} {r.attempts} {int(r.success)}")
    lines.append(f"#aggregate avg={_FMT % report.avg_attempts} max={report.max_attempts} "
                 f"success_rate={_FMT % report.success_rate}")
    write_atomic({path: "\n".join(lines) + "\n"})


def read_deploy_report(path: str) -> DeployReport:
    """Parse a deploy report file, checking its aggregate line if it has one."""
    return _deploy_report(path, *_report_lines(path, "deploy")[1:])


def _deploy_report(path: str, header_line: tuple, lines: list, aggregate_lines: list) -> DeployReport:
    lineno, line = header_line
    with _parsing(path, lineno, line):
        kv = _key_values(line)
        header = dict(method=kv["method"], seed=int(kv["seed"]), checkpoint=kv["checkpoint"],
                      budget=int(kv["budget"]), trials=int(kv["trials"]),
                      excluded=() if kv["excluded"] == "none" else tuple(kv["excluded"].split(",")))
    rows = []
    for lineno, line in lines:
        parts = line.split()
        with _parsing(path, lineno, line):
            rows.append(DeployRow(parts[0], int(parts[1]), int(parts[2]), {"0": False, "1": True}[parts[3]]))
    if not rows:
        raise IngestError("deploy report has no rows", path)
    report = DeployReport(rows=tuple(rows), **header)
    for lineno, line in aggregate_lines:
        with _parsing(path, lineno, line):
            kv = _key_values(line)
            stated = tuple(float(kv[k]) for k in ("avg", "max", "success_rate"))
        got = (report.avg_attempts, report.max_attempts, report.success_rate)
        _check_aggregate(stated, got, "avg, max, success_rate", path)
    return report


def read_report(path: str):
    """A mae or deploy report file, parsed as the kind its first line names."""
    kind, *parts = _report_lines(path)
    return (_mae_report if kind == "mae" else _deploy_report)(path, *parts)


def pool_mae_reports(reports) -> dict:
    """Aggregate rows from several reports (tasks x seeds) per shot."""
    shots = sorted({r.shot for rep in reports for r in rep.rows})
    rows = [r for rep in reports for r in rep.rows]
    return _aggregate_rows(rows, shots)


def _align(header: list, body: list) -> str:
    """Left-aligned text columns, two spaces apart."""
    widths = [max(len(cell) for cell in column) for column in zip(header, *body)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "\n".join(fmt.format(*row) for row in [header, *body]) + "\n"


def render_mae_table(reports_by_method: dict) -> str:
    """Aligned text table: one row per method, MAE / top-sample MAE per shot."""
    shots = sorted({r.shot for reps in reports_by_method.values() for rep in reps for r in rep.rows})
    header = ["method"] + [f"{s}-shot MAE" for s in shots] + [f"{s}-shot top MAE" for s in shots]
    body = []
    for method in sorted(reports_by_method):
        pooled = pool_mae_reports(reports_by_method[method])
        row = [method]
        row += [f"{pooled[s][0]:.1f}" if s in pooled else "-" for s in shots]
        row += [f"{pooled[s][1]:.1f}" if s in pooled else "-" for s in shots]
        body.append(row)
    return _align(header, body)


def render_deploy_table(reports: dict) -> str:
    header = ["method", "avg attempts", "max attempts", "success rate"]
    body = []
    for name in sorted(reports):
        rep = reports[name]
        body.append([name, f"{rep.avg_attempts:.1f}", str(rep.max_attempts), f"{rep.success_rate:.2f}"])
    return _align(header, body)
