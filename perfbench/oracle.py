"""Dense references for the GP posterior and the NLML gradient.

The references recompute the networks from the checkpoint's flat parameter
vectors and invert the noisy Gram matrix outright, sharing no code with
the package's posterior and likelihood paths beyond the model's public
fields.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

# |program - oracle| must stay within RTOL * (1 + |oracle|) for means and
# within RTOL * outputscale for variances; Cholesky and a dense inverse agree
# to ~1e-10 on these Gram matrices, while a stale or mis-extended factor is
# off by far more
RTOL = 1e-6

# Central differences of the dense NLML with step GRAD_STEP. Each parameter
# block's worst |analytic - numeric| must stay within GRAD_RTOL times the
# block's largest |numeric| component. On the dkmt checkpoints of the
# offline workload (12 rows of a training task) the worst ratio measured
# 1e-10 to 5e-9; leaving the mean path out of the extractor gradient gave
# ratios of 0.12 to 0.91.
GRAD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_COMPONENTS = 16


def mlp(spec, values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Affine layers stored row-major, weights then bias, as the package lays them out."""
    dims = spec.layer_dims()
    h = np.asarray(X, dtype=np.float64)
    offset = 0
    for i, act in enumerate(spec.layer_activations()):
        W = values[offset:offset + dims[i + 1] * dims[i]].reshape(dims[i + 1], dims[i])
        offset += W.size
        b = values[offset:offset + dims[i + 1]]
        offset += b.size
        h = h @ W.T + b
        if act == "relu":
            h = np.maximum(h, 0.0)
        elif act == "tanh":
            h = np.tanh(h)
    return h


def embed(model, X) -> np.ndarray:
    kfeat = model.kernel_feature_params if model.kernel_feature_params is not None else model.feature_params
    return mlp(model.kernel_spec, model.kernel_params.values, mlp(model.feature_spec, kfeat.values, X))


def mean(model, X) -> np.ndarray:
    return mlp(model.mean_spec, model.mean_params.values,
               mlp(model.feature_spec, model.feature_params.values, X))[:, 0]


def kern(model, A, B) -> np.ndarray:
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return model.outputscale * np.exp(-0.5 * d2 / model.lengthscale ** 2)


def dense_posterior(model, Xs, ys, Xq):
    """Posterior mean and latent variance; the prior (variance plus noise) for an empty support."""
    s, noise2 = model.outputscale, model.noise_std ** 2
    mq = mean(model, Xq)
    if len(Xs) == 0:
        return mq, np.full(len(Xq), s + noise2)
    Zs, Zq = embed(model, Xs), embed(model, Xq)
    Kinv = np.linalg.inv(kern(model, Zs, Zs) + noise2 * np.eye(len(Xs)))
    Kqs = kern(model, Zq, Zs)
    mu = mq + Kqs @ (Kinv @ (np.asarray(ys) - mean(model, Xs)))
    var = s - np.einsum("ij,jk,ik->i", Kqs, Kinv, Kqs)
    return mu, np.maximum(var, 0.0)


def dense_nlml(model, X, y) -> float:
    """Negative log marginal likelihood of y against the model's own mean."""
    Z = embed(model, X)
    K = kern(model, Z, Z) + model.noise_std ** 2 * np.eye(len(X))
    r = np.asarray(y, dtype=np.float64) - mean(model, X)
    _, logdet = np.linalg.slogdet(K)
    return float(0.5 * r @ np.linalg.inv(K) @ r + 0.5 * logdet + 0.5 * len(X) * np.log(2.0 * np.pi))


def compare(posterior_fn, model, cases) -> list:
    """Run posterior_fn on each (label, Xs, ys, Xq) case; return one message per mismatch."""
    problems = []
    for label, Xs, ys, Xq in cases:
        mu, var = posterior_fn(model, Xs, ys, Xq)
        ref_mu, ref_var = dense_posterior(model, Xs, ys, Xq)
        mu_err = np.max(np.abs(mu - ref_mu) / (1.0 + np.abs(ref_mu)))
        var_err = np.max(np.abs(var - ref_var)) / model.outputscale
        if not (mu_err <= RTOL and var_err <= RTOL):
            problems.append(f"posterior {label}: mean error {mu_err:.3g}, variance error "
                            f"{var_err:.3g} (tolerance {RTOL:g})")
    return problems


def check_gradient(grad_fn, model, X, y, rng) -> list:
    """Check grad_fn against central differences of dense_nlml; one message per failing block.

    grad_fn(model, X, y) returns (value, grads) as `nlml_grad(..., mean_mode="model",
    train_extractor=True, train_mean=True)` does, the call dkmt training makes.
    GRAD_COMPONENTS components of each network block are sampled with rng.
    """
    value, grads = grad_fn(model, X, y)
    problems = []
    err = abs(value - dense_nlml(model, X, y)) / (1.0 + abs(value))
    if not err <= RTOL:
        problems.append(f"nlml_grad value: relative error {err:.3g} (tolerance {RTOL:g})")

    def diff(perturb):
        return (dense_nlml(perturb(GRAD_STEP), X, y) - dense_nlml(perturb(-GRAD_STEP), X, y)) / (2 * GRAD_STEP)

    def compare_block(block, analytic, numeric):
        ratio = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        if not ratio <= GRAD_RTOL:
            problems.append(f"nlml_grad {block}: error ratio {ratio:.3g} (tolerance {GRAD_RTOL:g})")

    for field, g in (("kernel_params", grads.kernel), ("feature_params", grads.feature),
                     ("mean_params", grads.mean)):
        params = getattr(model, field)
        picked = rng.choice(len(params), size=min(GRAD_COMPONENTS, len(params)), replace=False)

        def shifted(j):
            def perturb(h):
                v = params.values.copy()
                v[j] += h
                return replace(model, **{field: params.replace_values(v)})
            return perturb

        compare_block(field, g.values[picked], np.array([diff(shifted(j)) for j in picked]))

    hypers = ("log_lengthscale", "log_outputscale", "log_noise")
    compare_block("hypers", np.array([getattr(grads, name) for name in hypers]),
                  np.array([diff(lambda h, name=name: model.with_hypers(**{name: getattr(model, name) + h}))
                            for name in hypers]))
    return problems
