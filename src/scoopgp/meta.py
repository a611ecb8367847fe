"""Meta-training for the deep mean and deep kernel.

Two trainers produce deployment-ready models:

train_codega
    Controlled-deployment-gap training. Materials are split into K folds;
    each fold's mean is trained only on tasks that avoid the fold's
    materials, so the residuals collected on the held-out tasks look like
    genuine deployment errors. A shared kernel is then trained on those
    residual groups (one group per batch, each on its own residuals with
    its fold's extractor loaded frozen), and the final mean is retrained
    from scratch on everything.

train_dkmt
    The joint baseline: mean, kernel and shared extractor trained
    together by marginal likelihood, one task per batch (deep kernel
    transfer, Patacchiola et al. 2020).

train_mean_only builds the non-adaptive reference: the supervised mean
with an untrained kernel head. Every trainer steps one parameter vector θ
(the networks it trains end to end, then the three log hyperparameters
under NLML training) with one Adam state, in the same early-stopping epoch
loop, _fit; the two marginal-likelihood trainers run it through one NLML
loop, _train_nlml, and every model is assembled by _model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, TrainConfig, seed_sequence
from .errors import ConfigError
from .gp import DeepGpModel, _sqdist, nlml_grad
from .nnet import (
    NetworkSpec,
    ParamVector,
    adam_init,
    forward_batch,
    init_params,
    optimizer_step,
    vjp,
)

LOG_LS_MIN, LOG_LS_MAX = math.log(1e-3), math.log(1e4)
LOG_OS_MIN, LOG_OS_MAX = math.log(1e-8), math.log(1e8)
LR_MEAN = 5e-3          # Adam step size of mean training
BATCH_SIZE = 64         # records per mean-training minibatch
VAL_FRACTION = 0.1      # records held out to early-stop mean training
NOISE_FLOOR = 1e-3      # lower clamp on the noise std, reward units
MIN_GROUP_SIZE = 2      # residual groups and dkmt tasks smaller than this are skipped

log = logging.getLogger("scoopgp")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass(frozen=True)
class TrainingReport:
    label: str
    entries: tuple
    best_epoch: int

    def to_text(self) -> str:
        lines = [f"# training report: {self.label}", "# epoch train_loss val_loss", f"# best_epoch {self.best_epoch}"]
        for e in self.entries:
            lines.append(f"{e.epoch} {e.train_loss:.9g} {e.val_loss:.9g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MeanResult:
    feature_params: ParamVector
    mean_params: ParamVector
    report: TrainingReport


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    materials: frozenset
    kernel_task_ids: tuple
    mean_task_ids: tuple


@dataclass(frozen=True)
class ResidualGroup:
    task_id: str
    fold_index: int
    inputs: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class KernelResult:
    kernel_params: ParamVector
    log_lengthscale: float
    log_outputscale: float
    log_noise: float
    report: TrainingReport


@dataclass(frozen=True)
class CodegaResult:
    model: DeepGpModel
    splits: tuple
    fold_checkpoints: dict
    kernel_report: TrainingReport
    mean_report: TrainingReport


@dataclass(frozen=True)
class ModelResult:
    """A trained model and its training report (train_dkmt, train_mean_only)."""

    model: DeepGpModel
    report: TrainingReport


def _specs(model_cfg: ModelConfig, input_dim: int) -> tuple:
    """The (feature, mean, kernel) NetworkSpecs of a model on input_dim inputs."""
    return model_cfg.feature_spec(input_dim), model_cfg.mean_spec(), model_cfg.kernel_spec()


def _model(specs: tuple, feature: ParamVector, mean: ParamVector, kernel: ParamVector, **hypers) -> DeepGpModel:
    """The DeepGpModel with _specs' networks, these parameters and the three
    log hyperparameters given by keyword."""
    feature_spec, mean_spec, kernel_spec = specs
    return DeepGpModel(feature_spec=feature_spec, feature_params=feature, mean_spec=mean_spec, mean_params=mean,
                       kernel_spec=kernel_spec, kernel_params=kernel, **hypers)


def _pool_training_data(datasets) -> tuple:
    xs = [ds.gp_inputs() for ds in datasets]
    ys = [ds.rewards() for ds in datasets]
    if not xs:
        raise ValueError("no records to train on")
    return np.concatenate(xs, axis=0), np.concatenate(ys)


def _mean_predict(feature_spec, feature_params, mean_spec, mean_params, X) -> np.ndarray:
    U = forward_batch(feature_spec, feature_params, X)
    return forward_batch(mean_spec, mean_params, U)[:, 0]


def _scale_output_layer(spec: NetworkSpec, params: ParamVector, mu: float, sigma: float) -> ParamVector:
    """Fold a target standardization y = sigma * y_std + mu into the affine
    output layer, so the returned parameters predict in raw units."""
    out = spec.layers[-1]
    values = params.values.copy()
    values[out.weight] *= sigma
    values[out.bias] = sigma * values[out.bias] + mu
    return params.replace_values(values)


def _standardizer(y: np.ndarray) -> tuple:
    mu = float(y.mean())
    sigma = float(y.std())
    if sigma < 1e-12:
        sigma = 1.0
    return mu, sigma


def _fit(label: str, state: ParamVector, epoch_step, max_epochs: int, train_cfg: TrainConfig) -> tuple:
    """The early-stopping epoch loop every trainer runs.

    state is the trainer's parameter vector θ. epoch_step(state) runs one
    epoch and returns (state, score, train_loss, val_loss); score is
    minimised and val_loss is None without a validation set. Stops once
    score has not improved for more than train_cfg.patience epochs and
    returns the best epoch's state with the TrainingReport.
    """
    best_score, best_state, best_epoch = math.inf, state, 0
    bad = 0
    entries = []
    for epoch in range(1, max_epochs + 1):
        state, score, train_loss, val_loss = epoch_step(state)
        entries.append(EpochRecord(epoch, train_loss, float("nan") if val_loss is None else val_loss))
        if train_cfg.log_every and epoch % train_cfg.log_every == 0:
            line = f"[{label}] Epoch {epoch} | train_loss {train_loss:.4f}"
            print(line if val_loss is None else f"{line} | val_loss {val_loss:.4f}")
        if score < best_score:
            best_score, best_state, best_epoch = score, state, epoch
            bad = 0
        else:
            bad += 1
            if bad > train_cfg.patience:
                break
    return best_state, TrainingReport(label=label, entries=tuple(entries), best_epoch=best_epoch)


_HYPER_NAMES = ("log_lengthscale", "log_outputscale", "log_noise")


def _join(parts: dict, *hypers: float) -> ParamVector:
    """θ: the ParamVectors in parts end to end, then any log hyperparameters."""
    values = np.concatenate([*(p.values for p in parts.values()), hypers])
    return ParamVector(values, (("theta", values.shape),))


def _unjoin(theta: ParamVector, parts: dict) -> dict:
    """θ's parts by name, each over the layout of its namesake in parts, and
    the log hyperparameters at θ's tail: _model's keyword arguments."""
    kw, start = {}, 0
    for name, p in parts.items():
        kw[name] = p.replace_values(theta.values[start:start + len(p)])
        start += len(p)
    kw.update(zip(_HYPER_NAMES, map(float, theta.values[start:])))
    return kw


def train_mean(datasets, seed, model_cfg: ModelConfig = ModelConfig(), train_cfg: TrainConfig = TrainConfig(), label: str = "mean") -> MeanResult:
    """Supervised MSE training of extractor plus mean head.

    Holds out a validation fraction, stops early on validation loss with
    the configured patience, and restores the best epoch's parameters.
    Reported losses are in raw reward units.
    """
    X, y = _pool_training_data(datasets)
    n = X.shape[0]
    if n < 2:
        raise ValueError("mean training needs at least two records")
    ss = seed_sequence(seed, 0x3EA0)
    init_ss, split_ss, batch_ss = ss.spawn(3)
    rng_split = np.random.default_rng(split_ss)
    rng_batch = np.random.default_rng(batch_ss)

    mu, sigma = _standardizer(y)
    y_std = (y - mu) / sigma

    perm = rng_split.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    n_val = min(n_val, n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    Xt, yt = X[train_idx], y_std[train_idx]
    Xv, yv = X[val_idx], y_std[val_idx]

    feature_spec, mean_spec, _ = _specs(model_cfg, X.shape[1])
    rng_init = np.random.default_rng(init_ss)
    parts = {"feature": init_params(feature_spec, rng_init), "mean": init_params(mean_spec, rng_init)}
    theta = _join(parts)
    opt = adam_init(len(theta))
    raw = sigma * sigma

    def mse(theta, Xs, ys) -> float:
        p = _unjoin(theta, parts)
        pred = _mean_predict(feature_spec, p["feature"], mean_spec, p["mean"], Xs)
        return float(np.mean((pred - ys) ** 2))

    def epoch_step(theta):
        nonlocal opt
        order = rng_batch.permutation(Xt.shape[0])
        for start in range(0, len(order), BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            Xb, yb = Xt[idx], yt[idx]
            p = _unjoin(theta, parts)
            U, feat_pullback = vjp(feature_spec, p["feature"], Xb)
            pred, mean_pullback = vjp(mean_spec, p["mean"], U)
            g_mean, dU = mean_pullback((2.0 / len(idx)) * (pred[:, 0] - yb)[:, None])
            g_feat, _ = feat_pullback(dU)
            theta, opt = optimizer_step(theta, _join({"feature": g_feat, "mean": g_mean}), opt, LR_MEAN)
        train_loss = mse(theta, Xt, yt)
        val_loss = mse(theta, Xv, yv)
        return theta, val_loss, raw * train_loss, raw * val_loss

    best, report = _fit(label, theta, epoch_step, train_cfg.max_epochs_mean, train_cfg)
    best = _unjoin(best, parts)
    mean = _scale_output_layer(mean_spec, best["mean"], mu, sigma)
    return MeanResult(feature_params=best["feature"], mean_params=mean, report=report)


def train_mean_only(datasets, seed=0, model_cfg: ModelConfig = ModelConfig(), train_cfg: TrainConfig = TrainConfig()) -> ModelResult:
    """The supervised mean with an untrained kernel head.

    The kernel head keeps its seeded initialization; the lengthscale is
    the median embedding distance, the outputscale the reward variance and
    the noise half the reward std, at least the noise floor.
    """
    res = train_mean(datasets, seed, model_cfg, train_cfg, label="mean")
    X, y = _pool_training_data(datasets)
    specs = _specs(model_cfg, X.shape[1])
    feature_spec, _, kernel_spec = specs
    kernel = init_params(kernel_spec, np.random.default_rng(seed_sequence(seed, 0x6E51)))
    emb = forward_batch(kernel_spec, kernel, forward_batch(feature_spec, res.feature_params, X[:256]))
    model = _model(
        specs, res.feature_params, res.mean_params, kernel,
        log_lengthscale=float(np.log(_median_embed_heuristic(emb))),
        log_outputscale=float(np.clip(np.log(max(float(np.var(y)), 1e-8)), LOG_OS_MIN, LOG_OS_MAX)),
        log_noise=float(np.log(max(0.5 * float(np.std(y)), NOISE_FLOOR))),
    )
    return ModelResult(model=model, report=res.report)


def make_fold_splits(datasets, folds: int, seed) -> list:
    """Partition materials into near-equal folds.

    Fold k's kernel set holds every task that touches a fold-k material;
    its mean set is the complement. Every task lands in at least one
    fold's kernel set.
    """
    materials = sorted({m for ds in datasets for m in ds.material_ids})
    if folds < 2:
        raise ValueError("need at least two folds")
    if folds > len(materials):
        raise ValueError(f"cannot split {len(materials)} materials into {folds} folds")
    rng = np.random.default_rng(seed_sequence(seed, 0xF01D))
    order = list(rng.permutation(materials))
    buckets = [set() for _ in range(folds)]
    for i, mat in enumerate(order):
        buckets[i % folds].add(str(mat))
    splits = []
    for k, bucket in enumerate(buckets):
        kernel_ids = tuple(ds.task_id for ds in datasets if set(ds.material_ids) & bucket)
        mean_ids = tuple(ds.task_id for ds in datasets if not set(ds.material_ids) & bucket)
        splits.append(FoldSplit(k, frozenset(bucket), kernel_ids, mean_ids))
    return splits


def _fold_mean_seed(seed) -> int:
    """The seed every fold mean trains with. One seed for every fold: shared
    initialization keeps the fold feature spaces aligned, so the kernel head
    trained against them transfers. train_codega's final mean re-uses it, so
    its extractor starts from the same initialization."""
    return int(seed_sequence(seed, 0x2E51D).generate_state(1)[0])


def build_residual_dataset(splits, datasets, seed, model_cfg: ModelConfig = ModelConfig(), train_cfg: TrainConfig = TrainConfig()):
    """Train one mean per fold and collect held-out residuals.

    Returns (residual groups, fold checkpoints): a tuple of ResidualGroup,
    each holding r - m_fold(x) for one task, tagged with the fold that
    produced them so they stay reproducible from the stored checkpoint,
    and each fold's MeanResult by fold index.
    """
    by_id = {ds.task_id: ds for ds in datasets}
    fold_seed = _fold_mean_seed(seed)
    groups = []
    checkpoints = {}
    for split in splits:
        if not split.mean_task_ids:
            raise ConfigError(
                f"fold {split.fold_index} has no mean-training tasks: every task touches its materials; "
                f"lower the fold count or diversify the task family"
            )
        result = train_mean(
            [by_id[t] for t in split.mean_task_ids],
            fold_seed,
            model_cfg,
            train_cfg,
            label=f"fold{split.fold_index}-mean",
        )
        feature_spec, mean_spec, _ = _specs(model_cfg, by_id[split.mean_task_ids[0]].feature_dim + 2)
        checkpoints[split.fold_index] = result
        for task_id in split.kernel_task_ids:
            ds = by_id[task_id]
            X = ds.gp_inputs()
            resid = ds.rewards() - _mean_predict(feature_spec, result.feature_params, mean_spec, result.mean_params, X)
            groups.append(ResidualGroup(task_id=task_id, fold_index=split.fold_index, inputs=X, residuals=resid))
    return tuple(groups), checkpoints


def _median_embed_heuristic(embeddings: np.ndarray) -> float:
    embeddings = embeddings[:256]
    d = np.sqrt(_sqdist(embeddings, embeddings))
    vals = d[np.triu_indices(embeddings.shape[0], k=1)]
    med = float(np.median(vals)) if vals.size else 0.0
    return med if med > 1e-6 else 1.0


def _clamp_hypers(theta: ParamVector, log_noise_min: float) -> ParamVector:
    """θ with the log hyperparameters at its tail clamped to their ranges."""
    vals = theta.values.copy()
    vals[-3:] = np.clip(vals[-3:], (LOG_LS_MIN, LOG_OS_MIN, log_noise_min), (LOG_LS_MAX, LOG_OS_MAX, np.inf))
    return theta.replace_values(vals)


def _at_least_min_size(items, sizes, names, label: str, unit: str) -> list:
    """The items whose size is at least MIN_GROUP_SIZE; each smaller one is
    skipped with a warning on the "scoopgp" logger that gives its name.
    Raises ValueError when none is left."""
    kept = []
    for item, n, name in zip(items, sizes, names):
        if n < MIN_GROUP_SIZE:
            log.warning("[%s] skipping task %s: %d %s < min_group_size %d", label, name, n, unit, MIN_GROUP_SIZE)
        else:
            kept.append(item)
    if not kept:
        raise ValueError(f"[{label}] no task has at least min_group_size {MIN_GROUP_SIZE} {unit}")
    return kept


def _train_nlml(label: str, tasks: list, model_of, init: dict, hypers: tuple, sigma: float, rng,
                train_cfg: TrainConfig, **nlml_kw) -> tuple:
    """Marginal-likelihood training, one Adam step per task on its NLML.

    tasks holds (X, y) pairs, y in units of sigma. init maps the GpGrads
    field of each trained network to its ParamVector; θ is _join(init,
    *hypers), its log hyperparameters held above the noise floor.
    model_of(i, kw) builds task i's DeepGpModel from kw = _unjoin(θ, init);
    nlml_kw go to nlml_grad. Each epoch visits the tasks in an order rng
    draws; _fit stops early on their summed NLML, reported in raw units.
    Returns the best epoch's _unjoin, its hyperparameters rescaled to raw
    units with the noise at least NOISE_FLOOR, and the TrainingReport.
    """
    log_noise_min = math.log(NOISE_FLOOR) - math.log(sigma)
    theta = _clamp_hypers(_join(init, *hypers), log_noise_min)
    raw_shift = sum(len(y) for _, y in tasks) * math.log(sigma)
    opt = adam_init(len(theta))

    def epoch_step(theta):
        nonlocal opt
        total = 0.0
        for i in rng.permutation(len(tasks)):
            X, y = tasks[i]
            value, grads = nlml_grad(model_of(i, _unjoin(theta, init)), X, y, **nlml_kw)
            total += value
            step = _join({name: getattr(grads, name) for name in init}, *(getattr(grads, h) for h in _HYPER_NAMES))
            theta, opt = optimizer_step(theta, step, opt, train_cfg.lr_kernel)
            theta = _clamp_hypers(theta, log_noise_min)
        return theta, total, total + raw_shift, None

    best, report = _fit(label, theta, epoch_step, train_cfg.max_epochs_kernel, train_cfg)
    best = _unjoin(best, init)
    best["log_outputscale"] += 2.0 * math.log(sigma)
    best["log_noise"] = max(best["log_noise"] + math.log(sigma), math.log(NOISE_FLOOR))
    return best, report


def train_kernel_codega(residuals: tuple, fold_checkpoints: dict, seed, model_cfg: ModelConfig = ModelConfig(), train_cfg: TrainConfig = TrainConfig()) -> KernelResult:
    """Shared kernel over residual groups (a tuple of ResidualGroup), one
    group per batch; fold_checkpoints maps a fold index to its MeanResult.

    Each group trains on its own residuals, embedded through its fold's
    extractor loaded frozen; only the kernel head and the log
    hyperparameters receive gradients. Stops early on the aggregate
    training NLML. Groups below MIN_GROUP_SIZE are skipped with a warning
    on the "scoopgp" logger.
    """
    # a task in two folds has one group per fold, so the warning names the fold
    groups = _at_least_min_size(residuals, [len(g.residuals) for g in residuals],
                                [f"{g.task_id} (fold {g.fold_index})" for g in residuals], "kernel", "residuals")
    specs = _specs(model_cfg, groups[0].inputs.shape[1])
    feature_spec, mean_spec, kernel_spec = specs
    mean_zero = ParamVector(np.zeros(mean_spec.param_count()), mean_spec.param_layout())
    feats = [fold_checkpoints[g.fold_index].feature_params for g in groups]

    pooled = np.concatenate([g.residuals for g in groups])
    _, sigma = _standardizer(pooled)
    ss = seed_sequence(seed, 0x6E51)
    init_ss, batch_ss = ss.spawn(2)
    kernel = init_params(kernel_spec, np.random.default_rng(init_ss))

    # initial hyperparameters: unit variance after scaling, median embedding
    # distance for the lengthscale, half a residual std of noise
    med = _median_embed_heuristic(np.concatenate([
        forward_batch(kernel_spec, kernel, forward_batch(feature_spec, f, g.inputs[:64])) for f, g in zip(feats, groups)]))
    var0 = float(np.var(pooled / sigma))

    best, report = _train_nlml(
        "kernel", [(g.inputs, g.residuals / sigma) for g in groups], lambda i, kw: _model(specs, feats[i], mean_zero, **kw),
        {"kernel": kernel}, (math.log(med), math.log(max(var0, 1e-4)), math.log(0.5)), sigma,
        np.random.default_rng(batch_ss), train_cfg, mean_mode="zero")
    return KernelResult(kernel_params=best.pop("kernel"), **best, report=report)


def train_codega(datasets, seed=0, model_cfg: ModelConfig = ModelConfig(), train_cfg: TrainConfig = TrainConfig()) -> CodegaResult:
    """The full controlled-gap pipeline.

    Fold split, per-fold means, residual collection, kernel training on
    the residual groups, then a fresh mean on all data. The deployed
    model pairs the final mean and extractor with the residual-trained
    kernel head.
    """
    ss = seed_sequence(seed, 0xC0DE6A)
    seeds = [int(c.generate_state(1)[0]) for c in ss.spawn(3)]
    splits = make_fold_splits(datasets, train_cfg.folds, seeds[0])
    residuals, checkpoints = build_residual_dataset(splits, datasets, seeds[1], model_cfg, train_cfg)
    kernel = train_kernel_codega(residuals, checkpoints, seeds[2], model_cfg, train_cfg)
    final = train_mean(datasets, _fold_mean_seed(seeds[1]), model_cfg, train_cfg, label="final-mean")
    model = _model(_specs(model_cfg, datasets[0].feature_dim + 2), final.feature_params, final.mean_params,
                   kernel.kernel_params, **{h: getattr(kernel, h) for h in _HYPER_NAMES})
    return CodegaResult(
        model=model,
        splits=tuple(splits),
        fold_checkpoints=checkpoints,
        kernel_report=kernel.report,
        mean_report=final.report,
    )


def train_dkmt(datasets, seed=0, model_cfg: ModelConfig = ModelConfig(), train_cfg: TrainConfig = TrainConfig()) -> ModelResult:
    """Joint NLML training of mean, kernel and shared extractor.

    One task per batch, kernel-training optimizer settings, early stopping
    on the aggregate training NLML. Tasks below MIN_GROUP_SIZE are skipped
    with a warning on the "scoopgp" logger.
    """
    live = _at_least_min_size(datasets, [len(ds) for ds in datasets], [ds.task_id for ds in datasets],
                              "joint", "records")
    X_all, y_all = _pool_training_data(live)
    mu, sigma = _standardizer(y_all)
    specs = _specs(model_cfg, X_all.shape[1])
    feature_spec, mean_spec, kernel_spec = specs

    ss = seed_sequence(seed, 0xD6A7)
    init_ss, batch_ss = ss.spawn(2)
    rng_init = np.random.default_rng(init_ss)
    init = {name: init_params(spec, rng_init) for name, spec in zip(("feature", "mean", "kernel"), specs)}
    U0 = forward_batch(feature_spec, init["feature"], X_all[:256])
    med = _median_embed_heuristic(forward_batch(kernel_spec, init["kernel"], U0))

    best, report = _train_nlml(
        "joint", [(ds.gp_inputs(), (ds.rewards() - mu) / sigma) for ds in live], lambda i, kw: _model(specs, **kw),
        init, (math.log(med), 0.0, math.log(0.5)), sigma, np.random.default_rng(batch_ss), train_cfg,
        mean_mode="model", train_extractor=True, train_mean=True)
    best["mean"] = _scale_output_layer(mean_spec, best["mean"], mu, sigma)
    return ModelResult(model=_model(specs, **best), report=report)
