"""Hand-built networks, models and datasets shared across test modules."""

from __future__ import annotations

import numpy as np

from scoopgp.gp import DeepGpModel, embed_batch, kernel_matrix, mean_eval_batch
from scoopgp.nnet import NetworkSpec, ParamVector, init_params, params_from_layers
from scoopgp.tasks import (
    CELL,
    DEPTH_MIN,
    DRAG_LEN,
    OBS_DIM,
    PATCH_CELLS,
    PATCH_EXTENT,
    ScoopAction,
    ScoopRecord,
    TaskDataset,
    TerrainTask,
    _bilinear,
    _cell_of,
)


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


_TOY_ACTION = ScoopAction(0.1, 0.1, 0, DEPTH_MIN, "soft")


def toy_dataset(task_id: str, feats, rewards, composition: str = "single",
                materials=("matA",)) -> TaskDataset:
    """Dataset with hand-chosen features and rewards. Every record shares one
    action, so gp_inputs() is the features plus a constant (0, 0) tail."""
    feats = np.asarray(feats, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    records = tuple(
        ScoopRecord(_TOY_ACTION, float(r), feats[i]) for i, r in enumerate(rewards)
    )
    return TaskDataset(task_id, composition, tuple(materials), records)


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


def reference_features(task: TerrainTask, actions) -> np.ndarray:
    """compute_features_batch as a per-action loop: the reference the blocked
    version must reproduce bit for bit."""
    n = len(actions)
    P = PATCH_CELLS
    gy, gx = np.gradient(task.heightmap, CELL)
    app = np.stack([m.appearance for m in task.materials])

    out = np.empty((n, OBS_DIM))
    us = np.linspace(0.0, PATCH_EXTENT, P)
    vs = np.linspace(-0.5 * PATCH_EXTENT, 0.5 * PATCH_EXTENT, P)
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    for i, action in enumerate(actions):
        c, s = np.cos(action.yaw), np.sin(action.yaw)
        px = action.x + UU * c - VV * s
        py = action.y + UU * s + VV * c
        h_patch = _bilinear(task.heightmap, px.ravel(), py.ravel()).reshape(P, P)
        gx_p = _bilinear(gx, px.ravel(), py.ravel())
        gy_p = _bilinear(gy, px.ravel(), py.ravel())

        line_x = action.x + us * c
        line_y = action.y + us * s
        h0 = _bilinear(task.heightmap, np.array([action.x]), np.array([action.y]))[0]
        relief = _bilinear(task.heightmap, line_x, line_y) - h0
        g_along = (_bilinear(gx, line_x, line_y) * c
                   + _bilinear(gy, line_x, line_y) * s)

        drag_cells = int(np.ceil(DRAG_LEN / PATCH_EXTENT * (P - 1))) + 1
        rows_cols = [_cell_of(line_x[j], line_y[j], task.heightmap.shape) for j in range(drag_cells)]
        surf = np.stack([app[task.region_map[r, cc]] for r, cc in rows_cols])

        out[i, :P] = relief
        out[i, P] = g_along.mean()
        out[i, P + 1] = np.hypot(gx_p, gy_p).mean()
        out[i, P + 2] = h_patch.std()
        out[i, P + 3:] = surf.mean(axis=0)
    return out
