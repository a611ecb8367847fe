"""Hand-built networks, models and datasets shared across test modules."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from scipy.special import expit

from scoopgp.bench import (TOP_K, DeployReport, DeployRow, MaeReport, MaeRow, _support_order, _task_tag,
                           deployment_threshold, query_split)
from scoopgp.config import check_shots
from scoopgp.decide import run_deployment, score
from scoopgp.errors import IngestError, SelectionError, ShapeError
from scoopgp.gp import (DeepGpModel, checkpoint_id, condition, embed, embed_batch, kernel_matrix, mean_eval_batch,
                        posterior_batch)
from scoopgp.nnet import NetworkSpec, ParamVector, _act, _check_batch, init_params, split_params
from scoopgp.tasks import (
    CELL,
    COMPOSITIONS,
    RECORDS_HEADER,
    RECORDS_SUFFIX,
    DEPTH_MAX,
    DEPTH_MIN,
    DRAG_LEN,
    FILL_BASE,
    FILL_DEPTH,
    FILL_KNEE,
    FILL_KNEE_WIDTH,
    GATE_MIN,
    HIDDEN_DEPTH,
    JAM_BASE,
    JAM_DEPTH,
    JAM_HARD_RELIEF,
    JAM_LOCK_BASE,
    JAM_LOCK_DEPTH,
    JAM_LOCK_KNEE,
    JAM_LOCK_WIDTH,
    JAM_SLOPE_REF,
    NOISE_FLOOR_CM3,
    NOISE_FRAC,
    N_YAWS,
    OBS_DIM,
    PATCH_CELLS,
    PATCH_EXTENT,
    SCOOP_W,
    SLOPE_GAIN,
    SLOPE_REF,
    STIFFNESS_LEVELS,
    TRAY_H,
    TRAY_W,
    Material,
    TaskDataset,
    TerrainTask,
    _parse_number,
)


def params_from_layers(spec: NetworkSpec, layers: list) -> ParamVector:
    """Assemble a ParamVector from explicit (W, b) pairs."""
    if len(layers) != len(spec.layers):
        raise ShapeError(f"expected {len(spec.layers)} layers, got {len(layers)}")
    flat = np.empty(spec.param_count())
    for i, ((W, b), layer) in enumerate(zip(layers, spec.layers)):
        if np.shape(W) != layer.shape or np.shape(b) != layer.shape[:1]:
            raise ShapeError(f"layer {i} has shape {np.shape(W)}/{np.shape(b)}, layout wants {layer.shape}/{layer.shape[:1]}")
        flat[layer.weight] = np.ravel(W)
        flat[layer.bias] = b
    return ParamVector(flat, spec.param_layout())


def identity_params(spec: NetworkSpec) -> ParamVector:
    """Parameters making an affine stack compute the identity map.

    Only valid when every layer's activation is identity on the
    rectangular-eye image (identity or square widths with tanh excluded)."""
    dims = spec.layer_dims()
    layers = []
    for i in range(len(dims) - 1):
        layers.append((np.eye(dims[i + 1], dims[i]), np.zeros(dims[i + 1])))
    return params_from_layers(spec, layers)


def random_model(
    input_dim: int,
    seed,
    feature=((6, "tanh"),),
    feature_dim: int = 5,
    mean=((4, "tanh"),),
    kernel=((5, "tanh"),),
    embed_dim: int = 3,
    log_lengthscale: float = 0.0,
    log_outputscale: float = 0.0,
    log_noise: float = float(np.log(0.3)),
) -> DeepGpModel:
    """Small random deep GP with controllable hyperparameters."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    fspec = NetworkSpec(input_dim, feature, feature_dim)
    mspec = NetworkSpec(feature_dim, mean, 1)
    kspec = NetworkSpec(feature_dim, kernel, embed_dim)
    return DeepGpModel(
        feature_spec=fspec,
        feature_params=init_params(fspec, rng),
        mean_spec=mspec,
        mean_params=init_params(mspec, rng),
        kernel_spec=kspec,
        kernel_params=init_params(kspec, rng),
        log_lengthscale=log_lengthscale,
        log_outputscale=log_outputscale,
        log_noise=log_noise,
    )


def identity_embedding_model(
    dim: int,
    log_lengthscale: float = 0.0,
    log_outputscale: float = 0.0,
    log_noise: float = float(np.log(0.1)),
    mean_bias: float = 0.0,
) -> DeepGpModel:
    """embed(x) = x and mean(x) = mean_bias, for closed-form kernel checks."""
    fspec = NetworkSpec(dim, (), dim)
    mspec = NetworkSpec(dim, (), 1)
    kspec = NetworkSpec(dim, (), dim)
    mean = params_from_layers(mspec, [(np.zeros((1, dim)), np.array([float(mean_bias)]))])
    return DeepGpModel(
        feature_spec=fspec,
        feature_params=identity_params(fspec),
        mean_spec=mspec,
        mean_params=mean,
        kernel_spec=kspec,
        kernel_params=identity_params(kspec),
        log_lengthscale=log_lengthscale,
        log_outputscale=log_outputscale,
        log_noise=log_noise,
    )


def dense_posterior_oracle(model: DeepGpModel, Xs, ys, Xq):
    """Literal dense-inverse posterior: m(x) + k_*(K+sigma^2 I)^-1 (y - m(X)),
    k(x,x) - k_* (K+sigma^2 I)^-1 k_*^T. The reference the Cholesky path
    must reproduce."""
    Xs = np.asarray(Xs, dtype=np.float64)
    Xq = np.asarray(Xq, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    Zs = embed_batch(model, Xs)
    Zq = embed_batch(model, Xq)
    sigma2 = np.exp(2.0 * model.log_noise)
    K = kernel_matrix(model, Zs, Zs) + sigma2 * np.eye(Xs.shape[0])
    Kinv = np.linalg.inv(K)
    Kqs = kernel_matrix(model, Zq, Zs)
    resid = ys - mean_eval_batch(model, Xs)
    mu = mean_eval_batch(model, Xq) + Kqs @ Kinv @ resid
    var = model.outputscale - np.einsum("ij,jk,ik->i", Kqs, Kinv, Kqs)
    return mu, np.maximum(var, 0.0)


def toy_dataset(task_id: str, feats, rewards, composition: str = "single",
                materials=("matA",)) -> TaskDataset:
    """Dataset with hand-chosen features and rewards. Every record shares one
    soft, shallowest action, so gp_inputs() is the features plus a constant
    (0, 0) tail."""
    actions = np.tile([0.1, 0.1, 0, DEPTH_MIN, 0.0], (len(rewards), 1))
    return TaskDataset(task_id, composition, materials, actions, rewards, feats)


def reward_dataset(rewards, task_id: str, period: int) -> TaskDataset:
    """Distinct soft, shallowest actions spread over the tray (y repeats
    every period records), and one feature that exposes the reward: reward / 10."""
    rewards = np.asarray(rewards, dtype=np.float64)
    n = len(rewards)
    i = np.arange(n)
    actions = np.column_stack([0.05 + 0.7 * i / max(n - 1, 1), 0.1 + 0.3 * (i % period) / period, i % 8,
                               np.full(n, DEPTH_MIN), np.zeros(n)])
    return TaskDataset(task_id, "single", ("matA",), actions, rewards, rewards[:, None] / 10.0)


def flat_task(material, task_id: str = "flat0") -> TerrainTask:
    """Perfectly flat single-material tray."""
    H, W = int(round(0.6 / CELL)), int(round(0.9 / CELL))
    return TerrainTask(
        id=task_id,
        composition="single",
        materials=(material,),
        heightmap=np.zeros((H, W)),
        region_map=np.zeros((H, W), dtype=np.int64),
    )


def _yaw(yaw_index) -> float:
    """The drag angle of a yaw index, in radians."""
    return int(yaw_index) * (2.0 * np.pi / N_YAWS)


def reference_feasible(action) -> bool:
    """The drag-endpoint rule for one action row, in scalar arithmetic: the
    full drag segment must stay inside the tray."""
    x, y, yaw_index = (float(v) for v in action[:3])
    ex = x + np.cos(_yaw(yaw_index)) * DRAG_LEN
    ey = y + np.sin(_yaw(yaw_index)) * DRAG_LEN
    return bool(0.0 <= ex <= TRAY_W and 0.0 <= ey <= TRAY_H)


def reference_bilinear(grid: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample a cell-centered grid at metric points, clamped at the borders:
    tasks._bilinear as it was when each grid computed its own indices, the
    reference the shared interpolation weights must reproduce bit for bit."""
    H, W = grid.shape
    u = np.clip(xs / CELL - 0.5, 0.0, W - 1.0)
    v = np.clip(ys / CELL - 0.5, 0.0, H - 1.0)
    i0 = np.clip(np.floor(u).astype(int), 0, W - 2)
    j0 = np.clip(np.floor(v).astype(int), 0, H - 2)
    fu = u - i0
    fv = v - j0
    top = grid[j0, i0] * (1 - fu) + grid[j0, i0 + 1] * fu
    bot = grid[j0 + 1, i0] * (1 - fu) + grid[j0 + 1, i0 + 1] * fu
    return top * (1 - fv) + bot * fv


def reference_features(task: TerrainTask, actions) -> np.ndarray:
    """compute_features_batch as a per-action loop over action rows (x, y,
    yaw_index, depth, stiffness bit): the reference the blocked version
    must reproduce bit for bit."""
    n = len(actions)
    P = PATCH_CELLS
    gy, gx = np.gradient(task.heightmap, CELL)
    app = np.stack([m.appearance for m in task.materials])

    out = np.empty((n, OBS_DIM))
    us = np.linspace(0.0, PATCH_EXTENT, P)
    vs = np.linspace(-0.5 * PATCH_EXTENT, 0.5 * PATCH_EXTENT, P)
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    for i, action in enumerate(actions):
        x, y = float(action[0]), float(action[1])
        c, s = np.cos(_yaw(action[2])), np.sin(_yaw(action[2]))
        px = x + UU * c - VV * s
        py = y + UU * s + VV * c
        h_patch = reference_bilinear(task.heightmap, px.ravel(), py.ravel()).reshape(P, P)
        gx_p = reference_bilinear(gx, px.ravel(), py.ravel())
        gy_p = reference_bilinear(gy, px.ravel(), py.ravel())

        line_x = x + us * c
        line_y = y + us * s
        h0 = reference_bilinear(task.heightmap, np.array([x]), np.array([y]))[0]
        relief = reference_bilinear(task.heightmap, line_x, line_y) - h0
        g_along = (reference_bilinear(gx, line_x, line_y) * c
                   + reference_bilinear(gy, line_x, line_y) * s)

        drag_cells = int(np.ceil(DRAG_LEN / PATCH_EXTENT * (P - 1))) + 1
        rows_cols = [_cell_of(line_x[j], line_y[j], task.heightmap.shape) for j in range(drag_cells)]
        surf = np.stack([app[task.region_map[r, cc]] for r, cc in rows_cols])

        out[i, :P] = relief
        out[i, P] = g_along.mean()
        out[i, P + 1] = np.hypot(gx_p, gy_p).mean()
        out[i, P + 2] = h_patch.std()
        out[i, P + 3:] = surf.mean(axis=0)
    return out


def _cell_of(x: float, y: float, shape) -> tuple:
    H, W = shape
    col = min(max(int(x / CELL), 0), W - 1)
    row = min(max(int(y / CELL), 0), H - 1)
    return row, col


def _drag_midpoint(action) -> tuple:
    """The metric point halfway along an action row's drag."""
    yaw = _yaw(action[2])
    return (float(action[0]) + np.cos(yaw) * 0.5 * DRAG_LEN, float(action[1]) + np.sin(yaw) * 0.5 * DRAG_LEN)


def contact_material(task: TerrainTask, action) -> Material:
    """Material governing the scoop of an action row: surface at the drag
    midpoint, or the hidden layer when digging past HIDDEN_DEPTH on a
    layered terrain."""
    row, col = _cell_of(*_drag_midpoint(action), task.heightmap.shape)
    if task.hidden_map is not None and float(action[3]) > HIDDEN_DEPTH:
        idx = int(task.hidden_map[row, col])
    else:
        idx = int(task.region_map[row, col])
    return task.materials[idx]


def reference_reward(task: TerrainTask, action, rng=None, *, gradient=None) -> float:
    """reward_oracle as a scalar function of one action row: the reference
    the batched oracle must reproduce bit for bit.

    Noiseless when rng is None; otherwise heteroscedastic noise with
    std = NOISE_FRAC * value + NOISE_FLOOR_CM3 is added before clamping
    at zero. Deterministic for a fixed (task, action, seed). gradient is
    np.gradient(task.heightmap, CELL), computed here when not given.
    """
    mat = contact_material(task, action)
    mx, my = _drag_midpoint(action)
    yaw, depth = _yaw(action[2]), float(action[3])
    gy, gx = np.gradient(task.heightmap, CELL) if gradient is None else gradient
    g_along = (reference_bilinear(gx, np.array([mx]), np.array([my]))[0] * np.cos(yaw)
               + reference_bilinear(gy, np.array([mx]), np.array([my]))[0] * np.sin(yaw))

    dn = (depth - DEPTH_MIN) / (DEPTH_MAX - DEPTH_MIN)
    volume_full = depth * DRAG_LEN * SCOOP_W * 1e6
    sens = mat.depth_sens - FILL_KNEE_WIDTH * float(
        np.log1p(np.exp((mat.depth_sens - FILL_KNEE) / FILL_KNEE_WIDTH)))
    # a scoop cannot carry more than its swept volume
    fill = min(mat.scoop_gain * (FILL_BASE + FILL_DEPTH * sens * dn), 1.0)
    slope_mod = max(1.0 + SLOPE_GAIN * mat.slope_pref * np.tanh(g_along / SLOPE_REF), 0.15)
    jam_drive = mat.jam * (JAM_BASE + JAM_DEPTH * dn) * float(expit(g_along / JAM_SLOPE_REF))
    if action[4] == 1.0:
        jam_drive *= JAM_HARD_RELIEF
    lock = float(expit((mat.jam - JAM_LOCK_KNEE) / JAM_LOCK_WIDTH)) * (
        JAM_LOCK_BASE + JAM_LOCK_DEPTH * dn)
    gate = float(np.clip(1.0 - jam_drive - lock, GATE_MIN, 1.0))
    value = volume_full * fill * slope_mod * gate

    if rng is None:
        return float(value)
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    std = NOISE_FRAC * value + NOISE_FLOOR_CM3
    return float(max(value + rng.normal() * std, 0.0))


def _reference_dact(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def reference_vjp(spec: NetworkSpec, params: ParamVector, X: np.ndarray, upstream: np.ndarray):
    """vjp as one call that re-runs the forward pass and returns
    (param gradient as ParamVector, input gradient with X's shape): the
    reference the pullback must reproduce bit for bit."""
    X = _check_batch(spec, X)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], spec.output_dim):
        raise ShapeError(f"upstream shape {upstream.shape} does not match ({X.shape[0]}, {spec.output_dim})")
    layers = split_params(spec, params)

    pre = []
    post = [X]
    h = X
    for (W, b), layer in zip(layers, spec.layers):
        z = h @ W.T + b
        pre.append(z)
        h = _act(layer.activation, z.copy())  # _act works in place; pre keeps z
        post.append(h)

    grad = np.empty(spec.param_count())
    D = upstream
    for i, layer in reversed(list(enumerate(spec.layers))):
        D = D * _reference_dact(layer.activation, pre[i])
        grad[layer.weight] = (D.T @ post[i]).reshape(-1)
        grad[layer.bias] = D.sum(axis=0)
        D = D @ layers[i][0]
    return params.replace_values(grad), D


def reference_simulated_deployment(model, kind: str, datasets, budget: int, trials: int, seed: int = 0,
                                   exclude_below: float = 5.0) -> DeployReport:
    """bench.eval_simulated_deployment as it was before deterministic scorers
    ran once per task: one seeded run_deployment call for every (task,
    trial), whatever the scorer kind. The reference its reports must equal."""
    included = []
    excluded = []
    for ds in datasets:
        if deployment_threshold(ds) < exclude_below:
            excluded.append(ds.task_id)
        else:
            included.append(ds)
    if not included:
        raise ValueError("every task fell below the deployment threshold floor")

    rows = []
    for ds in included:
        B = deployment_threshold(ds)
        for trial in range(trials):
            run_seed = np.random.SeedSequence(
                [int(seed) & 0xFFFFFFFF, _task_tag(ds.task_id), 0, trial]
            ).generate_state(1)[0]
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


def _reference_select_action(scores: np.ndarray, feasible: np.ndarray) -> int:
    """decide.select_action as it was before it took fewer wrapper calls."""
    scores = np.asarray(scores, dtype=np.float64)
    feasible = np.asarray(feasible, dtype=bool)
    if scores.shape != feasible.shape:
        raise ValueError(f"scores shape {scores.shape} does not match mask shape {feasible.shape}")
    if not feasible.any():
        raise SelectionError("no feasible candidate action")
    # argmax returns the first maximum, and the first NaN when there is one;
    # taken over the feasible scores alone, it stays feasible when all are -inf
    allowed = np.flatnonzero(feasible)
    best = int(allowed[np.argmax(scores[allowed])])
    if np.isnan(scores[best]):
        raise SelectionError(f"feasible candidate {best} has a NaN score")
    return best


class ReferenceAction(NamedTuple):
    """An action as the trace text and the record format spell it."""

    x: float
    y: float
    yaw_index: int
    depth: float
    stiffness: str


def reference_action(x, y, yaw_index, depth, stiffness: str) -> ReferenceAction:
    """One action's values checked against the action range rules, one at
    a time; the first that fails raises ValueError with the readers'
    message for it."""
    if not (0.0 <= x <= TRAY_W and 0.0 <= y <= TRAY_H):
        raise ValueError(f"scoop start ({x}, {y}) outside the tray")
    if not 0 <= yaw_index < N_YAWS:
        raise ValueError(f"yaw_index must be in [0, {N_YAWS}), got {yaw_index}")
    if not DEPTH_MIN - 1e-9 <= depth <= DEPTH_MAX + 1e-9:
        raise ValueError(f"depth {depth} outside [{DEPTH_MIN}, {DEPTH_MAX}]")
    if stiffness not in STIFFNESS_LEVELS:
        raise ValueError(f"stiffness must be one of {STIFFNESS_LEVELS}, got {stiffness!r}")
    return ReferenceAction(float(x), float(y), int(yaw_index), float(depth), stiffness)


def action_of_row(row) -> ReferenceAction:
    """The ReferenceAction of an action row (x, y, yaw_index, depth, stiffness bit)."""
    x, y, yaw, depth, bit = (float(v) for v in row)
    return ReferenceAction(x, y, int(yaw), depth, STIFFNESS_LEVELS[int(bit)])


@dataclass(frozen=True)
class ReferenceStep:
    action: ReferenceAction
    score: float
    reward: float
    support_size: int


@dataclass(frozen=True)
class ReferenceTrace:
    task_id: str
    threshold: float
    budget: int
    episodes: tuple
    success: bool

    @property
    def attempts(self) -> int:
        return len(self.episodes)

    def to_text(self) -> str:
        lines = [
            f"# deployment trace task={self.task_id} threshold={self.threshold:.9g} "
            f"budget={self.budget} attempts={self.attempts} success={int(self.success)}",
            "# episode x y yaw_index depth stiffness score reward support_size",
        ]
        for i, e in enumerate(self.episodes, start=1):
            a = e.action
            lines.append(
                f"{i} {a.x:.9g} {a.y:.9g} {a.yaw_index} {a.depth:.9g} {a.stiffness} "
                f"{e.score:.9g} {e.reward:.9g} {e.support_size}"
            )
        return "\n".join(lines) + "\n"


def reference_dataset_deployment(model, kind: str, ds: TaskDataset, threshold: float, budget: int,
                                 seed=0) -> ReferenceTrace:
    """decide.run_deployment's dataset mode as it was before episodes worked
    on record indices: the candidates are the records' input rows, embedded
    for ucb, every step gathers the support rows, whatever the scorer, and
    builds the executed action. The reference its traces must equal."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0xDE9107]))

    if not len(ds):
        raise ValueError(f"task {ds.task_id} has no records to deploy against")
    pool = embed(model, ds.gp_inputs()) if kind == "ucb" else ds.gp_inputs()
    rewards = ds.rewards()
    if rewards.max() < threshold:
        raise ValueError(
            f"task {ds.task_id}: no recorded reward reaches the threshold {threshold:.3g} "
            f"(max is {rewards.max():.3g})"
        )
    task_id = ds.task_id
    allowed = np.ones(len(ds), dtype=bool)
    failed = []

    def candidates():
        return pool, pool[failed]

    def execute(idx, action):
        allowed[idx] = False
        return float(rewards[idx])

    def keep(X, idx):
        failed.append(idx)

    support_y, episodes = [], []
    success = False
    while len(episodes) < budget:
        X, support_x = candidates()
        scores = score(model, kind, support_x, support_y, X, rng)
        idx = _reference_select_action(scores, allowed)
        action = action_of_row(ds.actions[idx])
        reward = execute(idx, action)
        success = bool(reward >= threshold)
        if not success:
            keep(X, idx)
            support_y.append(reward)
        episodes.append(ReferenceStep(action, float(scores[idx]), reward, len(support_y)))
        if success or not allowed.any():
            break
    return ReferenceTrace(task_id, float(threshold), int(budget), tuple(episodes), success)


def _reference_shot_means(model: DeepGpModel, rows, y: np.ndarray, order: np.ndarray, q_idx: np.ndarray, shots):
    """Posterior means at the queries for each shot count, the supports
    being prefixes of order.

    One factor of the largest support serves every shot: the first s rows
    of V and beta belong to the s-point prefix, so the s-shot mean is
    m(q) + sum_{i<s} V_i beta_i. A factor that needed jitter is not the
    jittered factor of its prefixes, so then every shot is conditioned on
    its own, with the jitter posterior_batch gives it.
    """
    queries = rows[q_idx]
    top = order[:max(shots)]
    if not len(top):
        return [queries.m for _ in shots]
    V, beta, jitter = condition(model, rows[top], y[top], queries)
    if jitter:
        return [posterior_batch(model, rows[order[:s]], y[order[:s]], queries)[0] for s in shots]
    partial = np.cumsum(V * beta[:, None], axis=0)
    return [queries.m + partial[s - 1] if s else queries.m for s in shots]


def reference_kshot_mae(model: DeepGpModel, datasets, shots, trials: int, seed: int = 0) -> MaeReport:
    """bench.eval_kshot_mae as it was before it worked per task: each trial
    forms its own kernel blocks through condition and scores each shot with
    scalar means. The reference the per-task protocol must reproduce."""
    shots = check_shots(shots)
    rows = []
    for ds in datasets:
        n = len(ds)
        if n < 2:
            raise ValueError(f"task {ds.task_id} has too few records for the query split")
        embedded = embed(model, ds.gp_inputs())
        y = ds.rewards()
        acc = {s: [0.0, 0.0] for s in shots}
        for trial in range(trials):
            q_idx, pool = query_split(seed, ds.task_id, trial, n)
            order = _support_order(seed, ds.task_id, trial, pool)
            max_shot = max(shots)
            if max_shot > len(order):
                raise ValueError(
                    f"task {ds.task_id}: {max_shot} shots exceed the {len(order)} records "
                    f"left outside the query set"
                )
            yq = y[q_idx]
            top_idx = np.argsort(-yq)[:TOP_K]
            for s, mu in zip(shots, _reference_shot_means(model, embedded, y, order, q_idx, shots)):
                err = np.abs(mu - yq)
                acc[s][0] += float(err.mean())
                acc[s][1] += float(err[top_idx].mean())
        for s in shots:
            rows.append(MaeRow(ds.task_id, s, acc[s][0] / trials, acc[s][1] / trials))
    report = MaeReport(
        label="kshot-mae",
        seed=int(seed),
        checkpoint=checkpoint_id(model),
        trials=int(trials),
        shots=shots,
        rows=tuple(rows),
    )
    return report


class ReferenceRecord(NamedTuple):
    action: ReferenceAction
    reward: float
    features: np.ndarray


class ReferenceDataset(NamedTuple):
    task_id: str
    composition: str
    material_ids: tuple
    records: tuple

    def __len__(self) -> int:
        return len(self.records)


def _text_lines(path: str):
    """(line number, stripped line) for each line of a UTF-8 text file, read one at a time."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                yield lineno, raw.strip()
    except UnicodeDecodeError as exc:
        raise IngestError(f"file is not UTF-8 text: {exc}", path) from None


def reference_read_database(path: str) -> list:
    """A record-at-a-time reader of the records format, written apart from
    read_database: a state machine over the lines that parses each record on
    its own, validated through reference_action, into a ReferenceRecord, in
    a ReferenceDataset per task. Non-finite features pass here."""
    records_path = path if path.endswith(RECORDS_SUFFIX) else path + RECORDS_SUFFIX
    if not os.path.exists(records_path):
        raise IngestError("records file not found", records_path)

    datasets = []
    task = None  # the open task: its header fields, header line and records so far
    for lineno, line in _text_lines(records_path):
        parts = line.split()
        if lineno == 1:
            if parts != RECORDS_HEADER.split():
                raise IngestError(f"first line {line!r} is not the v2 records header", records_path, lineno)
            continue
        if task is None or len(task["rows"]) == task["n_records"]:
            if task is not None:
                datasets.append(ReferenceDataset(task["task_id"], task["composition"], task["materials"],
                                                 tuple(task["rows"])))
            if len(parts) != 6 or parts[0] != "task":
                raise IngestError("expected a task header line", records_path, lineno)
            _, task_id, comp, mats, n_records, feature_dim = parts
            if comp not in COMPOSITIONS:
                raise IngestError(f"unknown composition {comp!r}", records_path, lineno, "composition")
            if task_id in [ds.task_id for ds in datasets]:
                raise IngestError(f"duplicate task {task_id!r}", records_path, lineno, "task_id")
            if "" in mats.split(","):
                raise IngestError(f"empty material id in {mats!r}", records_path, lineno, "material_ids")
            task = {
                "task_id": task_id,
                "composition": comp,
                "materials": tuple(mats.split(",")),
                "n_records": _parse_number(int, n_records, records_path, lineno, "n_records"),
                "feature_dim": _parse_number(int, feature_dim, records_path, lineno, "feature_dim"),
                "line": lineno,
                "rows": [],
            }
            if task["n_records"] < 0 or task["feature_dim"] < 0:
                raise IngestError("negative count in a task header", records_path, lineno)
            continue
        if parts[:1] == ["task"]:
            raise IngestError(f"task {task['task_id']} ends early", records_path, task["line"], "n_records")
        if len(parts) != 6 + task["feature_dim"]:
            raise IngestError(f"record has {len(parts)} fields, expected {6 + task['feature_dim']}",
                              records_path, lineno, "features")
        x = _parse_number(float, parts[0], records_path, lineno, "x")
        y = _parse_number(float, parts[1], records_path, lineno, "y")
        yaw_index = _parse_number(int, parts[2], records_path, lineno, "yaw_index")
        depth = _parse_number(float, parts[3], records_path, lineno, "depth")
        stiffness = parts[4]
        reward = _parse_number(float, parts[5], records_path, lineno, "reward")
        feats = np.array([_parse_number(float, t, records_path, lineno, "features") for t in parts[6:]])
        if reward < 0.0 or not np.isfinite(reward):
            raise IngestError(f"reward {reward} must be finite and non-negative", records_path, lineno, "reward")
        try:
            action = reference_action(x, y, yaw_index, depth, stiffness)
        except ValueError as exc:
            raise IngestError(str(exc), records_path, lineno, "action") from exc
        task["rows"].append(ReferenceRecord(action, reward, feats))

    if task is not None:
        if len(task["rows"]) != task["n_records"]:
            raise IngestError(f"task {task['task_id']} ends early", records_path, task["line"], "n_records")
        datasets.append(ReferenceDataset(task["task_id"], task["composition"], task["materials"],
                                         tuple(task["rows"])))
    if not any(len(ds) for ds in datasets):
        raise IngestError("dataset is empty", records_path)
    return datasets


def assert_columns_equal_reference(datasets, reference) -> None:
    """The columns of read_database's datasets hold exactly the reference
    reader's per-record values."""
    assert len(datasets) == len(reference)
    for ds, ref in zip(datasets, reference):
        assert (ds.task_id, ds.composition, ds.material_ids, len(ds)) == \
            (ref.task_id, ref.composition, ref.material_ids, len(ref))
        if not len(ref):
            continue
        a = [r.action for r in ref.records]
        expected = np.array([(r.x, r.y, r.yaw_index, r.depth, STIFFNESS_LEVELS.index(r.stiffness)) for r in a])
        assert np.array_equal(ds.actions, expected)
        assert np.array_equal(ds.rewards(), [r.reward for r in ref.records])
        assert np.array_equal(ds.features, np.stack([r.features for r in ref.records]))
        assert [action_of_row(row) for row in ds.actions] == a
