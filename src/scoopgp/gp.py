"""Exact GP regression with a deep mean and a deep RBF kernel.

The kernel is a squared exponential over learned embeddings,

    k(x1, x2) = outputscale * exp(-||g(x1) - g(x2)||^2 / (2 * lengthscale^2)),

where g is a network head applied to shared extractor features. The mean
is a second head on the same features. Posteriors are exact, and the
negative log marginal likelihood comes with analytic gradients for every
kernel-path parameter so it can drive training directly.

Squared distances come from the Gram identity |z_i|^2 + |z_j|^2 - 2 z_i.z_j,
clamped at zero, so no (n, m, d) difference array is formed. One Cholesky
factor L L^T = K + sigma^2 I (LAPACK potrf, with an escalating diagonal
jitter when it fails) serves each call: the NLML reads
alpha = (K + sigma^2 I)^-1 r from one potrs solve on it, and its gradient
reads the inverse itself from potri on the same factor (Rasmussen &
Williams 2006, Alg. 2.1 and eq. 5.9).

A posterior has one factor path, `condition`: with that factor over the
support and one triangular solve (trtrs) of [Kqs^T | y - m(X)], it
returns V = L^-1 Kqs^T and beta = L^-1 (y - m(X)), from which the mean is
m(q) + V^T beta and the latent variance k(q, q) - sum_i V_iq^2. Because
forward substitution is prefix-consistent, the first s rows of V and beta
are those of the support's first s points. Inputs may be raw rows or an
`Embedded` set (kernel embeddings and prior means computed once by
`embed`), so callers that condition the same rows many times run the
networks on them once. `condition` forms the two kernel blocks and hands
them to `condition_gram`, which does the factor and the solve; a caller
holding one Gram matrix over all of a task's rows passes its sub-blocks
to `condition_gram` directly. Those blocks may be stacks, (..., n, n),
(..., Q, n) and (..., n), of supports of one size: the noise goes on
every diagonal and the finiteness checks run once, and each support
still gets its own potrf and trtrs calls, so a stacked result is bit for
bit the one a single support gets.

The kernel sees only differences g(x_i) - g(x_j), so the kernel head's
output-layer bias, which shifts every embedding alike, cannot change any
kernel value: its true NLML gradient is exactly zero, and the analytic
one is round-off that Adam would normalise into real steps. The kernel
path therefore evaluates the head with that bias taken as zero, and
nlml_grad returns exactly 0.0 for it, so trained models hold exact
zeros there. The slot stays in the parameter layout, which stores every
layer of every network as weights then bias, so checkpoints and their
readers are unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalError, SerializationError, ShapeError
from .nnet import NetworkSpec, ParamVector, forward_batch, network_from_checkpoint, vjp
from .serialize import container_bytes, parse_container, read_file, write_atomic

# Cholesky retry ladder: first attempt is unjittered, escalation starts at
# 1e-8 * outputscale and stops at 1e-4 * outputscale.
JITTER_START = 1e-8
JITTER_MAX = 1e-4

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class DeepGpModel:
    """Shared feature extractor, mean head, kernel head and log hyperparameters.

    kernel_feature_params optionally overrides the extractor on the kernel
    path only; by default both heads read the same extractor. The kernel
    head's output bias (kernel_spec.layers[-1].bias in kernel_params) is
    read as zero: a common shift of all embeddings leaves the RBF kernel
    unchanged (see the module docstring).
    """

    feature_spec: NetworkSpec
    feature_params: ParamVector
    mean_spec: NetworkSpec
    mean_params: ParamVector
    kernel_spec: NetworkSpec
    kernel_params: ParamVector
    log_lengthscale: float
    log_outputscale: float
    log_noise: float
    kernel_feature_params: ParamVector | None = None

    def __post_init__(self):
        if self.mean_spec.output_dim != 1:
            raise ShapeError("mean head must have output_dim 1")
        if self.mean_spec.input_dim != self.feature_spec.output_dim:
            raise ShapeError("mean head input_dim must match extractor output_dim")
        if self.kernel_spec.input_dim != self.feature_spec.output_dim:
            raise ShapeError("kernel head input_dim must match extractor output_dim")
        for name in ("log_lengthscale", "log_outputscale", "log_noise"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ShapeError(f"{name} must be finite")
            object.__setattr__(self, name, val)

    @property
    def input_dim(self) -> int:
        return self.feature_spec.input_dim

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))

    @property
    def outputscale(self) -> float:
        return float(np.exp(self.log_outputscale))

    @property
    def noise_std(self) -> float:
        return float(np.exp(self.log_noise))

    def with_hypers(self, log_lengthscale=None, log_outputscale=None, log_noise=None) -> "DeepGpModel":
        return replace(
            self,
            log_lengthscale=self.log_lengthscale if log_lengthscale is None else log_lengthscale,
            log_outputscale=self.log_outputscale if log_outputscale is None else log_outputscale,
            log_noise=self.log_noise if log_noise is None else log_noise,
        )


def _as_batch(model: DeepGpModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(f"input batch shape {X.shape} does not match model input_dim {model.input_dim}")
    return X


def _kernel_head(model: DeepGpModel) -> ParamVector:
    """Kernel-head parameters with the output-layer bias held at zero."""
    values = model.kernel_params.values
    bias = model.kernel_spec.layers[-1].bias
    if not values[bias].any():
        return model.kernel_params
    values = values.copy()
    values[bias] = 0.0
    return model.kernel_params.replace_values(values)


def embed_batch(model: DeepGpModel, X) -> np.ndarray:
    """Kernel-path embeddings g(x) for a batch, without the head's output bias."""
    X = _as_batch(model, X)
    feats = model.kernel_feature_params if model.kernel_feature_params is not None else model.feature_params
    U = forward_batch(model.feature_spec, feats, X)
    return forward_batch(model.kernel_spec, _kernel_head(model), U)


def mean_eval_batch(model: DeepGpModel, X) -> np.ndarray:
    X = _as_batch(model, X)
    U = forward_batch(model.feature_spec, model.feature_params, X)
    return forward_batch(model.mean_spec, model.mean_params, U)[:, 0]


def _sqdist(Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Squared distances |z1_i - z2_j|^2 by the Gram identity, clamped at 0.

    Against itself (Z2 is Z1) the norms are read off the product's
    diagonal, so every d(z_i, z_i) is exactly 0. The product Z @ Z.T is
    exactly symmetric (numpy forms it as a symmetric rank-k update), but
    the norms are added in two broadcast steps, (-2 g_ij + s_i) + s_j
    against (-2 g_ij + s_j) + s_i, so the result is symmetric only up to
    rounding."""
    D = Z1 @ Z2.T
    if Z2 is Z1:
        sq1 = sq2 = D.diagonal().copy()
    else:
        sq1, sq2 = np.einsum("ij,ij->i", Z1, Z1), np.einsum("ij,ij->i", Z2, Z2)
    D *= -2.0
    D += sq1[:, None]
    D += sq2[None, :]
    return np.maximum(D, 0.0, out=D)


def _rbf(model: DeepGpModel, D2: np.ndarray, out=None) -> np.ndarray:
    """Kernel values from squared distances, written to out when given."""
    K = np.multiply(D2, -0.5 / np.exp(2.0 * model.log_lengthscale), out=out)
    np.exp(K, out=K)
    K *= model.outputscale
    return K


def kernel_matrix(model: DeepGpModel, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    D2 = _sqdist(Z1, Z2)
    return _rbf(model, D2, out=D2)


def _jitter_ladder() -> tuple:
    ladder, j = [0.0], JITTER_START
    while j <= JITTER_MAX * (1.0 + 1e-12):
        ladder.append(j)
        j *= 10.0
    return tuple(ladder)


# the diagonal jitters _chol_with_jitter tries in turn, in units of outputscale
_JITTERS = _jitter_ladder()


def _require_finite(A: np.ndarray, what: str) -> None:
    if not np.isfinite(A).all():
        raise ValueError(f"{what} must not contain infs or NaNs")


def _chol_with_jitter(K: np.ndarray, scale: float):
    """Lower Cholesky factor with an escalating diagonal jitter, scaled by
    outputscale. K must be finite. The factor's upper triangle is zero,
    which nlml_grad's symmetrized potri inverse relies on."""
    for jit in _JITTERS:
        A = K
        if jit:
            A = K.copy()
            A.flat[:: K.shape[0] + 1] += jit * scale
        L, info = lapack.dpotrf(A, lower=1, clean=1)
        if info == 0:
            return L, jit * scale
    raise NumericalError(
        f"Gram matrix of size {K.shape[0]} not positive definite after jitter "
        f"{JITTER_MAX * scale:.3e} (outputscale {scale:.3e}; potrf info {info})"
    )


@dataclass(frozen=True)
class Embedded:
    """Kernel embeddings Z and prior means m of a set of input rows.

    Indexing with an index array or a slice selects rows."""

    Z: np.ndarray
    m: np.ndarray

    def __len__(self) -> int:
        return self.Z.shape[0]

    def __getitem__(self, rows) -> "Embedded":
        return Embedded(self.Z[rows], self.m[rows])


def embed(model: DeepGpModel, X) -> Embedded:
    """Run both network paths on a batch once, for repeated conditioning."""
    X = _as_batch(model, X)
    return Embedded(embed_batch(model, X), mean_eval_batch(model, X))


def _embedded(model: DeepGpModel, X) -> Embedded:
    return X if isinstance(X, Embedded) else embed(model, X)


def condition(model: DeepGpModel, support: Embedded, y, queries: Embedded):
    """Factor the support's noisy Gram matrix once and solve for the queries.

    Returns (V, beta, jitter): V = L^-1 Kqs^T of shape (n, Q), beta =
    L^-1 (y - m_support) of shape (n,), and the diagonal jitter the
    factor needed (0.0 when none).
    """
    return condition_gram(model, kernel_matrix(model, support.Z, support.Z),
                          kernel_matrix(model, queries.Z, support.Z), y - support.m)


def condition_gram(model: DeepGpModel, Kss: np.ndarray, Kqs: np.ndarray, resid: np.ndarray):
    """condition from kernel blocks already formed: the support's Gram
    matrix Kss (..., n, n), the query-support block Kqs (..., Q, n) and the
    support residuals y - m_support (..., n). Leading axes stack supports
    of one size; each is factored and solved on its own, with the same
    LAPACK calls as a single one. Kss is not modified; the noise goes on
    the diagonals of a copy. Returns (V, beta, jitter): V (..., n, Q) and
    beta (..., n) as condition gives them, and the jitter each factor
    needed, a float for one support and an array (...) for a stack.
    """
    batch, n, Q = Kss.shape[:-2], Kss.shape[-1], Kqs.shape[-2]
    A = Kss.reshape(-1, n, n).copy()
    diag = np.arange(n)
    A[:, diag, diag] += np.exp(2.0 * model.log_noise)
    _require_finite(A, "Gram matrix")
    factors = [_chol_with_jitter(a, model.outputscale) for a in A]
    # one right-hand side [Kqs^T | resid] per support, each Fortran-ordered
    # as trtrs solves it in place
    S = np.empty((len(A), Q + 1, n)).transpose(0, 2, 1)
    S[:, :, :Q] = np.swapaxes(Kqs.reshape(-1, Q, n), 1, 2)
    S[:, :, Q] = resid.reshape(-1, n)
    _require_finite(S, "query kernel values and support residuals")
    for (L, _), b in zip(factors, S):
        b[...] = lapack.dtrtrs(L, b, lower=1, overwrite_b=1)[0]
    S = S.reshape(batch + (n, Q + 1))
    jitters = [jit for _, jit in factors]
    return S[..., :-1], S[..., -1], np.reshape(jitters, batch) if batch else jitters[0]


def posterior_batch(model: DeepGpModel, support_x, support_y, queries):
    """Posterior mean and variance arrays at query inputs.

    Support and queries are input rows or Embedded sets. Empty support
    returns the prior: the model mean and k(x, x) + noise variance.
    Otherwise the exact conditional with per-point residuals y_i - m(x_i)
    against the model mean; the returned variance is the latent one,
    without the observation noise term.
    """
    support_y = np.asarray(support_y, dtype=np.float64).reshape(-1)
    if not isinstance(support_x, Embedded):
        support_x = np.asarray(support_x, dtype=np.float64)
        if support_x.size == 0:
            support_x = support_x.reshape(0, model.input_dim)
        if support_x.ndim != 2:
            raise ShapeError(f"support shape {support_x.shape} is not a batch of rows")
    if len(support_x) != support_y.shape[0]:
        raise ShapeError(f"support of {len(support_x)} rows has {support_y.shape[0]} targets")
    s = model.outputscale
    if len(support_x) == 0:
        mu = queries.m if isinstance(queries, Embedded) else mean_eval_batch(model, queries)
        return mu, np.full(mu.shape[0], s + np.exp(2.0 * model.log_noise))
    Q = _embedded(model, queries)
    V, beta, _ = condition(model, _embedded(model, support_x), support_y, Q)
    var = s - np.einsum("ij,ij->j", V, V)
    return Q.m + V.T @ beta, np.maximum(var, 0.0)


@dataclass(frozen=True)
class GpGrads:
    """Gradients of the NLML. Entries are None when that path is frozen."""

    kernel: ParamVector
    feature: ParamVector | None
    mean: ParamVector | None
    log_lengthscale: float
    log_outputscale: float
    log_noise: float


def _nlml_core(model: DeepGpModel, X: np.ndarray, y: np.ndarray, mean_mode: str, pull=()):
    """The NLML and the terms its gradient reads. pull names the networks
    ("feature", "kernel", "mean") whose pullbacks to return in a dict; each
    network runs forward once either way."""
    if mean_mode not in ("model", "zero"):
        raise ValueError(f"mean_mode must be 'model' or 'zero', got {mean_mode!r}")
    X = _as_batch(model, X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.shape[0]
    if n == 0:
        raise ShapeError("nlml needs at least one observation")
    if y.shape[0] != n:
        raise ShapeError(f"targets length {y.shape[0]} does not match batch size {n}")

    pullbacks = {}

    def run(name, spec, params, inputs):
        if name not in pull:
            return forward_batch(spec, params, inputs)
        out, pullbacks[name] = vjp(spec, params, inputs)
        return out

    shared = model.kernel_feature_params is None
    U = run("feature", model.feature_spec, model.feature_params if shared else model.kernel_feature_params, X)
    Z = run("kernel", model.kernel_spec, _kernel_head(model), U)
    if mean_mode == "model":
        Um = U if shared else forward_batch(model.feature_spec, model.feature_params, X)
        resid = y - run("mean", model.mean_spec, model.mean_params, Um)[:, 0]
    else:
        resid = y

    if not np.isfinite(resid).all():
        raise ValueError("targets and prior means must not contain infs or NaNs")
    ell2 = np.exp(2.0 * model.log_lengthscale)
    sigma2 = np.exp(2.0 * model.log_noise)
    D2 = _sqdist(Z, Z)
    K = _rbf(model, D2)
    A = K.copy()
    A.flat[:: n + 1] += sigma2
    _require_finite(A, "Gram matrix")
    L, jitter = _chol_with_jitter(A, model.outputscale)
    alpha = lapack.dpotrs(L, resid, lower=1)[0]
    value = float(np.sum(np.log(L.diagonal())) + 0.5 * resid @ alpha + 0.5 * n * LOG_2PI)
    return Z, ell2, sigma2, jitter, D2, K, L, alpha, pullbacks, value


def nlml(model: DeepGpModel, X, y, mean_mode: str = "model") -> float:
    """Negative log marginal likelihood of (X, y) under the model.

    mean_mode "model" forms residuals against the model's own mean;
    "zero" treats y as already centered (residual targets).
    """
    return _nlml_core(model, X, y, mean_mode)[-1]


def nlml_grad(
    model: DeepGpModel,
    X,
    y,
    mean_mode: str = "model",
    train_extractor: bool = False,
    train_mean: bool = False,
):
    """NLML value and analytic gradients.

    Gradients always cover the kernel head, whose output-bias entries
    are exactly 0.0, and the three log hyperparameters. train_extractor
    adds the shared extractor (through the kernel path, and through the
    mean path too when train_mean is set); train_mean adds the mean
    head. Returns (value, GpGrads).
    """
    if train_mean and mean_mode != "model":
        raise ValueError("train_mean requires mean_mode='model'")
    if train_extractor and model.kernel_feature_params is not None:
        raise ValueError("cannot train the extractor while kernel_feature_params overrides it")
    pull = ("kernel",) + ("mean",) * train_mean + ("feature",) * train_extractor
    Z, ell2, sigma2, jitter, D2, K, L, alpha, pullbacks, value = _nlml_core(model, X, y, mean_mode, pull)

    # G = (K^-1 - alpha alpha^T) / 2. potri fills the lower triangle of
    # K^-1 and leaves the factor's zero upper triangle, so adding the
    # transpose and halving the doubled diagonal symmetrizes it exactly.
    Kinv_lower = lapack.dpotri(L, lower=1)[0]
    G = np.add(Kinv_lower, Kinv_lower.T)
    G.flat[:: G.shape[0] + 1] *= 0.5
    G -= np.outer(alpha, alpha)
    G *= 0.5
    # the jitter scales with outputscale, so it enters d/dlog_os like the
    # noise enters d/dlog_noise
    trace_G = np.trace(G)
    g_log_noise = float(2.0 * sigma2 * trace_G)
    GK = np.multiply(G, K, out=G)
    g_log_os = float(GK.sum() + jitter * trace_G)
    g_log_ls = float(np.vdot(GK, D2) / ell2)

    # dL/dZ from dK_ij/dz_i = -K_ij (z_i - z_j) / ell^2, using symmetry of G*K
    row = GK.sum(axis=1)
    dZ = -(2.0 / ell2) * (row[:, None] * Z - GK @ Z)
    g_kernel, dU = pullbacks["kernel"](dZ)
    g_values = g_kernel.values.copy()
    g_values[model.kernel_spec.layers[-1].bias] = 0.0
    g_kernel = g_kernel.replace_values(g_values)

    g_mean = None
    if train_mean:
        g_mean, dU_mean = pullbacks["mean"]((-alpha)[:, None])
        if train_extractor:
            dU = dU + dU_mean

    g_feature = pullbacks["feature"](dU)[0] if train_extractor else None

    grads = GpGrads(
        kernel=g_kernel,
        feature=g_feature,
        mean=g_mean,
        log_lengthscale=g_log_ls,
        log_outputscale=g_log_os,
        log_noise=g_log_noise,
    )
    return value, grads


def model_to_bytes(model: DeepGpModel) -> bytes:
    meta = {
        "feature_spec": model.feature_spec.to_dict(),
        "mean_spec": model.mean_spec.to_dict(),
        "kernel_spec": model.kernel_spec.to_dict(),
        "log_lengthscale": model.log_lengthscale,
        "log_outputscale": model.log_outputscale,
        "log_noise": model.log_noise,
        "has_kernel_feature": model.kernel_feature_params is not None,
    }
    blocks = [model.feature_params.values, model.mean_params.values, model.kernel_params.values]
    if model.kernel_feature_params is not None:
        blocks.append(model.kernel_feature_params.values)
    return container_bytes("deepgp", meta, blocks)


def save_model(path: str, model: DeepGpModel, extra_files: dict | None = None) -> None:
    """Write the checkpoint, and any {path: data} extra_files beside it, in
    one atomic step."""
    write_atomic({path: model_to_bytes(model), **(extra_files or {})})


def model_from_bytes(data: bytes) -> DeepGpModel:
    meta, blocks = parse_container(data, "deepgp")
    expected = 4 if meta.get("has_kernel_feature") else 3
    if len(blocks) != expected:
        raise SerializationError(f"model checkpoint holds {len(blocks)} blocks, expected {expected}")
    feature_spec, feature_params = network_from_checkpoint(meta.get("feature_spec"), blocks[0])
    mean_spec, mean_params = network_from_checkpoint(meta.get("mean_spec"), blocks[1])
    kernel_spec, kernel_params = network_from_checkpoint(meta.get("kernel_spec"), blocks[2])
    kf = network_from_checkpoint(meta.get("feature_spec"), blocks[3])[1] if expected == 4 else None
    try:
        return DeepGpModel(
            feature_spec=feature_spec,
            feature_params=feature_params,
            mean_spec=mean_spec,
            mean_params=mean_params,
            kernel_spec=kernel_spec,
            kernel_params=kernel_params,
            kernel_feature_params=kf,
            **{name: float(meta[name]) for name in ("log_lengthscale", "log_outputscale", "log_noise")},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad model section in checkpoint: {exc!r}") from exc


def load_model(path: str) -> DeepGpModel:
    return model_from_bytes(read_file(path, "model checkpoint"))


def checkpoint_id(model: DeepGpModel) -> str:
    """Short stable identifier of a model's exact contents."""
    return hashlib.sha256(model_to_bytes(model)).hexdigest()[:12]
