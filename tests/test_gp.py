"""Exact GP layer: kernel closed forms, posterior oracles, NLML gradients."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import scoopgp.gp as gp
from scoopgp.config import ModelConfig
from scoopgp.errors import NumericalError, SerializationError, ShapeError
from scoopgp.gp import (
    JITTER_START,
    DeepGpModel,
    Embedded,
    _chol_with_jitter,
    _sqdist,
    checkpoint_id,
    condition,
    condition_gram,
    embed,
    embed_batch,
    kernel_matrix,
    load_model,
    mean_eval_batch,
    model_from_bytes,
    model_to_bytes,
    nlml,
    nlml_grad,
    posterior_batch,
    save_model,
)
from scoopgp.nnet import NetworkSpec, forward_batch, init_params
from scoopgp.tasks import GP_INPUT_DIM, ActionGrid

from helpers import dense_posterior_oracle, identity_embedding_model, random_model


# ---------------------------------------------------------------------------
# embeddings, kernel, mean

def _k(model, x1, x2) -> float:
    Z = embed_batch(model, np.stack([x1, x2]))
    return float(kernel_matrix(model, Z[:1], Z[1:])[0, 0])


def test_identity_configuration_embeds_input_unchanged():
    model = identity_embedding_model(3)
    x = np.array([0.3, -1.2, 2.0])
    assert np.array_equal(embed_batch(model, x[None, :])[0], x)


def test_identical_inputs_embed_identically():
    model = random_model(4, seed=0)
    x = np.random.default_rng(1).normal(size=4)
    Z = embed_batch(model, np.stack([x, x]))
    assert np.array_equal(Z[0], Z[1])


def test_embedding_matches_head_composition_oracle():
    model = random_model(5, seed=2)
    X = np.random.default_rng(3).normal(size=(7, 5))
    U = forward_batch(model.feature_spec, model.feature_params, X)
    expected = forward_batch(model.kernel_spec, model.kernel_params, U)
    assert np.max(np.abs(embed_batch(model, X) - expected)) < 1e-12


def test_grid_prior_runs_in_row_blocks(world):
    """The prior over the 11520-action grid, with the default network shapes,
    holds one row block of hidden activations at a time: its traced peak
    stays under 2.5 MiB (all rows at once peaked at 5.7 MiB)."""
    cfg = ModelConfig()
    model = random_model(GP_INPUT_DIM, 0, feature=cfg.feature_hidden, feature_dim=cfg.feature_dim,
                         mean=cfg.mean_hidden, kernel=cfg.kernel_hidden, embed_dim=cfg.embed_dim)
    X = ActionGrid().gp_inputs(world.test_tasks[0])
    tracemalloc.start()
    try:
        m = mean_eval_batch(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (len(X),)
    assert peak <= 2.5 * 2 ** 20, f"mean_eval_batch peaked at {peak / 2 ** 20:.2f} MiB on {len(X)} rows"


def test_kernel_at_zero_distance_is_outputscale():
    model = random_model(4, seed=4, log_outputscale=0.7)
    x = np.random.default_rng(5).normal(size=4)
    assert abs(_k(model, x, x) - model.outputscale) < 1e-12


def test_kernel_closed_form_at_root_two_lengthscales():
    ls, os_ = 0.8, 2.5
    model = identity_embedding_model(2, log_lengthscale=np.log(ls), log_outputscale=np.log(os_))
    x1 = np.zeros(2)
    x2 = np.array([ls * np.sqrt(2.0), 0.0])
    assert abs(_k(model, x1, x2) - os_ * np.exp(-1.0)) < 1e-12


def test_kernel_matches_scalar_hand_formula():
    model = random_model(3, seed=6, log_lengthscale=-0.3, log_outputscale=0.4)
    rng = np.random.default_rng(7)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    z1, z2 = embed_batch(model, np.stack([x1, x2]))
    expected = model.outputscale * np.exp(
        -float(np.sum((z1 - z2) ** 2)) / (2.0 * model.lengthscale ** 2))
    assert abs(_k(model, x1, x2) - expected) < 1e-12


def test_zero_weight_mean_head_returns_bias():
    model = identity_embedding_model(3, mean_bias=4.5)
    X = np.random.default_rng(8).normal(size=(6, 3))
    assert np.array_equal(mean_eval_batch(model, X), np.full(6, 4.5))


def test_mean_matches_head_composition_oracle():
    model = random_model(4, seed=9)
    X = np.random.default_rng(10).normal(size=(5, 4))
    U = forward_batch(model.feature_spec, model.feature_params, X)
    expected = forward_batch(model.mean_spec, model.mean_params, U)[:, 0]
    assert np.max(np.abs(mean_eval_batch(model, X) - expected)) < 1e-12


# ---------------------------------------------------------------------------
# gram properties

def test_gram_is_symmetric_and_positive_semidefinite():
    for seed in range(5):
        model = random_model(4, seed=seed, log_outputscale=float(seed) * 0.3)
        X = np.random.default_rng(100 + seed).normal(size=(10, 4))
        Z = embed_batch(model, X)
        K = kernel_matrix(model, Z, Z)
        assert np.max(np.abs(K - K.T)) < 1e-12
        assert np.linalg.eigvalsh(K).min() >= -1e-8 * model.outputscale


def test_sqdist_stays_nonnegative_and_accurate_under_cancellation():
    # rows of norm ~1e3 that repeat or nearly repeat: the Gram identity
    # subtracts numbers near 2e6 to get distances near 0
    rng = np.random.default_rng(51)
    base = rng.normal(size=(6, 8))
    base *= 1e3 / np.linalg.norm(base, axis=1, keepdims=True)
    Z = np.concatenate([base, base, base + 1e-7 * rng.normal(size=base.shape)])
    sq = np.einsum("ij,ij->i", Z, Z)
    bound = 1e-12 * (sq[:, None] + sq[None, :])
    for Z2 in (Z, Z.copy()):  # against itself, and against an equal copy
        D = _sqdist(Z, Z2)
        diff = Z[:, None, :] - Z2[None, :, :]
        assert D.min() >= 0.0
        assert np.all(np.abs(D - np.einsum("ijk,ijk->ij", diff, diff)) <= bound)
    model = random_model(8, seed=52, log_lengthscale=-0.5, log_outputscale=0.4)
    assert np.max(np.abs(np.diag(kernel_matrix(model, Z, Z)) - model.outputscale)) <= 1e-12


# ---------------------------------------------------------------------------
# posterior

def test_empty_support_returns_prior():
    model = random_model(4, seed=11, log_outputscale=0.5, log_noise=np.log(0.2))
    X = np.random.default_rng(12).normal(size=(5, 4))
    mu, var = posterior_batch(model, np.zeros((0, 4)), np.zeros(0), X)
    assert np.array_equal(mu, mean_eval_batch(model, X))
    assert np.array_equal(var, np.full(5, model.outputscale + model.noise_std ** 2))


def test_near_zero_noise_interpolates_support_exactly():
    model = random_model(3, seed=13, log_outputscale=0.3, log_noise=np.log(1e-8))
    rng = np.random.default_rng(14)
    Xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=6)
    mu, var = posterior_batch(model, Xs, ys, Xs)
    assert np.max(np.abs(mu - ys)) < 1e-6
    assert var.max() <= 1e-6 * model.outputscale


def test_posterior_matches_dense_inverse_oracle():
    model = random_model(4, seed=15, log_lengthscale=0.2, log_outputscale=0.4, log_noise=np.log(0.3))
    rng = np.random.default_rng(16)
    Xs = rng.normal(size=(8, 4))
    ys = rng.normal(size=8)
    Xq = rng.normal(size=(4, 4))
    mu, var = posterior_batch(model, Xs, ys, Xq)
    mu0, var0 = dense_posterior_oracle(model, Xs, ys, Xq)
    assert np.max(np.abs(mu - mu0)) < 1e-8
    assert np.max(np.abs(var - var0)) < 1e-8


def test_posterior_on_embedded_rows_matches_raw_rows_and_the_dense_oracle():
    model = random_model(4, seed=17, log_lengthscale=-0.1, log_outputscale=0.3, log_noise=np.log(0.2))
    rng = np.random.default_rng(18)
    X = rng.normal(size=(30, 4))
    ys = rng.normal(size=10)
    rows = embed(model, X)
    assert isinstance(rows, Embedded) and len(rows) == 30
    assert np.array_equal(rows.Z, embed_batch(model, X))
    assert np.array_equal(rows.m, mean_eval_batch(model, X))
    sup, qry = np.arange(10), np.arange(10, 30)
    mu_raw, var_raw = posterior_batch(model, X[sup], ys, X[qry])
    mu0, var0 = dense_posterior_oracle(model, X[sup], ys, X[qry])
    for support, queries in ((rows[sup], rows[qry]), (rows[sup], X[qry]), (X[sup], rows[qry])):
        mu, var = posterior_batch(model, support, ys, queries)
        assert np.max(np.abs(mu - mu_raw)) <= 1e-10 and np.max(np.abs(var - var_raw)) <= 1e-10
        assert np.max(np.abs(mu - mu0)) < 1e-8 and np.max(np.abs(var - var0)) < 1e-8
    prior_mu, prior_var = posterior_batch(model, rows[[]], [], rows[qry])
    assert np.array_equal(prior_mu, rows.m[qry])
    assert np.allclose(prior_var, model.outputscale + model.noise_std ** 2)
    with pytest.raises(ShapeError):
        posterior_batch(model, rows[sup], ys[:9], rows[qry])


def test_condition_prefix_rows_are_the_prefix_posterior():
    # forward substitution is prefix-consistent: the first s rows of V and
    # beta give the posterior of the support's first s points
    model = random_model(3, seed=19, log_noise=np.log(0.3))
    rng = np.random.default_rng(20)
    rows = embed(model, rng.normal(size=(14, 3)))
    ys = rng.normal(size=8)
    support, queries = rows[np.arange(8)], rows[np.arange(8, 14)]
    V, beta, jitter = condition(model, support, ys, queries)
    assert V.shape == (8, 6) and beta.shape == (8,) and jitter == 0.0
    for s in (1, 3, 8):
        mu, var = posterior_batch(model, support[:s], ys[:s], queries)
        assert np.max(np.abs(queries.m + V[:s].T @ beta[:s] - mu)) < 1e-12
        assert np.max(np.abs(np.maximum(model.outputscale - (V[:s] ** 2).sum(axis=0), 0.0) - var)) < 1e-12


def test_stacked_condition_gram_equals_one_call_per_support():
    # five supports of six rows from one Gram matrix; the third holds a row
    # twice and the noise is far below any trained floor, so only its
    # factor needs jitter
    model = random_model(3, seed=29, log_noise=np.log(1e-9))
    rng = np.random.default_rng(30)
    rows = embed(model, rng.normal(size=(40, 3)))
    y = rng.normal(size=40)
    K = kernel_matrix(model, rows.Z, rows.Z)
    top = np.stack([rng.permutation(30)[:6] for _ in range(5)])
    top[2, 5] = top[2, 0]
    q = np.stack([30 + rng.permutation(10) for _ in range(5)])
    blocks = (K[top[:, :, None], top[:, None, :]], K[q[:, :, None], top[:, None, :]], y[top] - rows.m[top])
    V, beta, jitter = condition_gram(model, *blocks)
    assert V.shape == (5, 6, 10) and beta.shape == (5, 6) and jitter.shape == (5,)
    for t in range(5):
        V_t, beta_t, jitter_t = condition_gram(model, *(b[t] for b in blocks))
        assert isinstance(jitter_t, float)
        assert np.array_equal(V[t], V_t) and np.array_equal(beta[t], beta_t) and jitter[t] == jitter_t
        assert (jitter_t > 0.0) == (t == 2)
    # the stack keeps its leading axes
    V2, beta2, jitter2 = condition_gram(model, *(b.reshape(5, 1, *b.shape[1:]) for b in blocks))
    assert np.array_equal(V2[:, 0], V) and np.array_equal(beta2[:, 0], beta) and np.array_equal(jitter2[:, 0], jitter)
    # one non-finite residual anywhere in the stack is rejected
    resid = blocks[2].copy()
    resid[3, 1] = np.nan
    with pytest.raises(ValueError, match="residuals"):
        condition_gram(model, blocks[0], blocks[1], resid)


def test_posterior_invariant_to_support_permutation():
    model = random_model(3, seed=17)
    rng = np.random.default_rng(18)
    Xs = rng.normal(size=(7, 3))
    ys = rng.normal(size=7)
    Xq = rng.normal(size=(3, 3))
    mu, var = posterior_batch(model, Xs, ys, Xq)
    perm = rng.permutation(7)
    mu_p, var_p = posterior_batch(model, Xs[perm], ys[perm], Xq)
    assert np.max(np.abs(mu - mu_p)) < 1e-10
    assert np.max(np.abs(var - var_p)) < 1e-10


def test_adding_support_never_increases_variance():
    for seed in range(5):
        model = random_model(3, seed=20 + seed, log_noise=np.log(0.2))
        rng = np.random.default_rng(30 + seed)
        Xs = rng.normal(size=(6, 3))
        ys = rng.normal(size=6)
        Xq = rng.normal(size=(4, 3))
        for n in range(6):
            _, v_small = posterior_batch(model, Xs[:n], ys[:n], Xq)
            _, v_big = posterior_batch(model, Xs[:n + 1], ys[:n + 1], Xq)
            assert np.all(v_big <= v_small + 1e-9)


def test_duplicate_support_points_survive_via_jitter():
    model = random_model(3, seed=26, log_noise=np.log(1e-9))
    rng = np.random.default_rng(27)
    x = rng.normal(size=3)
    Xs = np.stack([x, x, x])
    ys = np.array([1.0, 1.0, 1.0])
    mu, var = posterior_batch(model, Xs, ys, x[None, :])
    assert np.isfinite(mu[0]) and np.isfinite(var[0])
    assert abs(mu[0] - 1.0) < 1e-3


def test_jitter_ladder_gives_up_on_indefinite_matrix():
    K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NumericalError):
        _chol_with_jitter(K, scale=1.0)
    L, used = _chol_with_jitter(np.eye(2), scale=1.0)
    assert used == 0.0
    assert np.array_equal(L, np.eye(2))


def test_posterior_rejects_inconsistent_support_shapes():
    model = random_model(3, seed=28)
    with pytest.raises(ShapeError):
        posterior_batch(model, np.zeros((4, 3)), np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        posterior_batch(model, np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# marginal likelihood

def test_nlml_unit_variance_single_point_closed_form():
    # k(x,x) + sigma_n^2 = 1 and a zero residual leaves only the constant
    model = identity_embedding_model(
        2, log_outputscale=np.log(0.6), log_noise=0.5 * np.log(0.4), mean_bias=2.0)
    value = nlml(model, np.zeros((1, 2)), np.array([2.0]))
    assert abs(value - 0.5 * np.log(2.0 * np.pi)) < 1e-12


def test_nlml_single_point_matches_gaussian_log_density():
    os_, noise2, y0 = 1.3, 0.45, 0.8
    model = identity_embedding_model(
        2, log_outputscale=np.log(os_), log_noise=0.5 * np.log(noise2))
    v = os_ + noise2
    value = nlml(model, np.zeros((1, 2)), np.array([y0]), mean_mode="zero")
    expected = 0.5 * np.log(v) + y0 ** 2 / (2.0 * v) + 0.5 * np.log(2.0 * np.pi)
    assert abs(value - expected) < 1e-12
    assert abs(value + norm.logpdf(y0, scale=np.sqrt(v))) < 1e-12


def test_nlml_is_pure():
    model = random_model(3, seed=29)
    rng = np.random.default_rng(31)
    X, y = rng.normal(size=(5, 3)), rng.normal(size=5)
    assert nlml(model, X, y) == nlml(model, X, y)


def test_nlml_rejects_empty_and_mismatched_batches():
    model = random_model(3, seed=32)
    with pytest.raises(ShapeError):
        nlml(model, np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ShapeError):
        nlml(model, np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        nlml(model, np.zeros((2, 3)), np.zeros(2), mean_mode="median")


def test_nlml_rejects_a_nan_target():
    model = random_model(3, seed=32)
    X = np.random.default_rng(33).normal(size=(4, 3))
    y = np.array([0.5, np.nan, -0.2, 1.0])
    for mean_mode in ("model", "zero"):
        with pytest.raises(ValueError):
            nlml(model, X, y, mean_mode=mean_mode)
        with pytest.raises(ValueError):
            nlml_grad(model, X, y, mean_mode=mean_mode)
    X[2, 1] = np.nan
    with pytest.raises(ValueError):
        nlml(model, X, np.zeros(4))


def _fd_scalar(f, x0, step=1e-6):
    return (f(x0 + step) - f(x0 - step)) / (2.0 * step)


def test_hyperparameter_gradients_match_finite_differences():
    model = random_model(4, seed=33, log_lengthscale=0.1, log_outputscale=0.3, log_noise=np.log(0.4))
    rng = np.random.default_rng(34)
    X, y = rng.normal(size=(6, 4)), rng.normal(size=6)
    _, grads = nlml_grad(model, X, y)
    checks = {
        "log_lengthscale": (grads.log_lengthscale, lambda v: nlml(model.with_hypers(log_lengthscale=v), X, y)),
        "log_outputscale": (grads.log_outputscale, lambda v: nlml(model.with_hypers(log_outputscale=v), X, y)),
        "log_noise": (grads.log_noise, lambda v: nlml(model.with_hypers(log_noise=v), X, y)),
    }
    for name, (analytic, f) in checks.items():
        numeric = _fd_scalar(f, getattr(model, name))
        assert abs(analytic - numeric) / max(abs(numeric), 1e-6) < 1e-4, name


def _check_network_gradients(model, X, y, grads, mean_mode="model", feature_field="feature_params"):
    """Central differences of nlml against each network gradient grads has.
    The extractor's are taken by setting feature_field to the perturbed
    extractor: "kernel_feature_params" perturbs the kernel path's alone."""
    from dataclasses import replace

    step = 1e-5
    for field, params, g in (
        ("kernel_params", model.kernel_params, grads.kernel),
        (feature_field, model.feature_params, grads.feature),
        ("mean_params", model.mean_params, grads.mean),
    ):
        if g is None:
            continue
        for i in range(len(params)):
            vp, vm = params.values.copy(), params.values.copy()
            vp[i] += step
            vm[i] -= step
            fp = nlml(replace(model, **{field: params.replace_values(vp)}), X, y, mean_mode)
            fm = nlml(replace(model, **{field: params.replace_values(vm)}), X, y, mean_mode)
            numeric = (fp - fm) / (2.0 * step)
            assert abs(g.values[i] - numeric) / max(abs(numeric), 1e-6) < 1e-4, (field, i)


def _dense_nlml(model, X, y, mean_mode) -> float:
    """The NLML from a dense solve and log-determinant, the residuals against
    mean_eval_batch and the kernel over embed_batch: each path reads its own
    extractor."""
    Z = embed_batch(model, X)
    K = kernel_matrix(model, Z, Z) + np.exp(2.0 * model.log_noise) * np.eye(len(X))
    r = y - mean_eval_batch(model, X) if mean_mode == "model" else y
    return float(0.5 * r @ np.linalg.solve(K, r) + 0.5 * np.linalg.slogdet(K)[1] + 0.5 * len(X) * np.log(2.0 * np.pi))


def test_network_gradients_match_finite_differences():
    model = random_model(4, seed=35, log_noise=np.log(0.4))
    rng = np.random.default_rng(36)
    X, y = rng.normal(size=(6, 4)), rng.normal(size=6)
    value, grads = nlml_grad(model, X, y, train_extractor=True, train_mean=True)
    assert value == nlml(model, X, y)
    assert abs(value - _dense_nlml(model, X, y, "model")) < 1e-10 * (1.0 + abs(value))
    _check_network_gradients(model, X, y, grads)


@pytest.mark.parametrize("mean_mode, override, flags", [
    ("zero", False, {}),
    ("model", False, {"train_extractor": True}),
    ("model", True, {"train_mean": True}),
], ids=["zero", "extractor-only", "kernel-feature-override"])
def test_nlml_grad_under_each_flag_set_matches_nlml_and_finite_differences(mean_mode, override, flags):
    """The flag sets besides the joint one above. nlml is nlml_grad's value
    under no flags, so every flag set must give the same value, and a dense
    NLML whose mean reads feature_params pins which extractor each path
    reads under kernel_feature_params. Without train_mean the extractor's
    gradient runs through the kernel path alone, so its differences perturb
    that path's extractor only."""
    from dataclasses import replace

    model = random_model(4, seed=35, log_noise=np.log(0.4))
    if override:
        model = replace(model, kernel_feature_params=init_params(model.feature_spec, np.random.default_rng(45)))
    rng = np.random.default_rng(36)
    X, y = rng.normal(size=(6, 4)), rng.normal(size=6)
    value, grads = nlml_grad(model, X, y, mean_mode, **flags)
    assert value == nlml(model, X, y, mean_mode)
    assert abs(value - _dense_nlml(model, X, y, mean_mode)) < 1e-10 * (1.0 + abs(value))
    assert (grads.feature is not None, grads.mean is not None) == \
        (flags.get("train_extractor", False), flags.get("train_mean", False))
    _check_network_gradients(model, X, y, grads, mean_mode, "kernel_feature_params")


def test_gradients_on_a_jittered_factor_match_finite_differences(monkeypatch):
    # The offline training size, n = 100, with rows 0 and 1 equal and the
    # noise below the Gram matrix's rounding, so the factor needs jitter.
    # Outputscales that are squares of short binary fractions (4 = 2^2 and
    # the outputscale steps below) make the first two pivots exact: the
    # second is exactly 0, so every evaluation, the finite-difference ones
    # included, fails unjittered and takes the first rung.
    rungs = []

    def recording_chol(K, scale):
        L, jitter = _chol_with_jitter(K, scale)
        rungs.append(jitter / scale)
        return L, jitter

    monkeypatch.setattr(gp, "_chol_with_jitter", recording_chol)
    model = random_model(6, seed=6, log_lengthscale=-1.5, log_outputscale=np.log(4.0), log_noise=np.log(1e-9))
    rng = np.random.default_rng(106)
    X, y = rng.normal(size=(100, 6)), rng.normal(size=100)
    X[1], y[1] = X[0], y[0]
    os_lo, os_hi = np.log((2.0 - 2.0 ** -20) ** 2), np.log((2.0 + 2.0 ** -20) ** 2)
    for mean_mode, train in (("model", True), ("zero", False)):
        _, grads = nlml_grad(model, X, y, mean_mode, train_extractor=train, train_mean=train)

        def f(**hyper):
            return nlml(model.with_hypers(**hyper), X, y, mean_mode)

        checks = {
            "log_lengthscale": _fd_scalar(lambda v: f(log_lengthscale=v), model.log_lengthscale),
            "log_noise": _fd_scalar(lambda v: f(log_noise=v), model.log_noise),
            "log_outputscale": (f(log_outputscale=os_hi) - f(log_outputscale=os_lo)) / (os_hi - os_lo),
        }
        for name, numeric in checks.items():
            assert abs(getattr(grads, name) - numeric) / max(abs(numeric), 1e-6) < 1e-4, (mean_mode, name)
        _check_network_gradients(model, X, y, grads, mean_mode)
    assert set(rungs) == {JITTER_START}


def test_kernel_output_bias_is_held_at_zero():
    from dataclasses import replace

    model = random_model(4, seed=43, log_noise=np.log(0.4))
    k = model.kernel_spec.output_dim
    values = model.kernel_params.values.copy()
    assert not values[-k:].any()
    values[-k:] = [0.7, -1.3, 2.1]
    shifted = replace(model, kernel_params=model.kernel_params.replace_values(values))
    rng = np.random.default_rng(44)
    X, y, Q = rng.normal(size=(6, 4)), rng.normal(size=6), rng.normal(size=(5, 4))

    assert nlml(shifted, X, y) == nlml(model, X, y)
    value, grads = nlml_grad(shifted, X, y, train_extractor=True, train_mean=True)
    ref_value, ref_grads = nlml_grad(model, X, y, train_extractor=True, train_mean=True)
    assert value == ref_value
    assert np.array_equal(grads.kernel.values, ref_grads.kernel.values)
    assert np.all(grads.kernel.values[-k:] == 0.0)
    for a, b in zip(posterior_batch(shifted, X, y, Q), posterior_batch(model, X, y, Q)):
        assert np.array_equal(a, b)


def test_frozen_paths_return_no_gradients():
    model = random_model(3, seed=37)
    rng = np.random.default_rng(38)
    X, y = rng.normal(size=(4, 3)), rng.normal(size=4)
    _, grads = nlml_grad(model, X, y, mean_mode="zero")
    assert grads.feature is None and grads.mean is None
    with pytest.raises(ValueError):
        nlml_grad(model, X, y, mean_mode="zero", train_mean=True)


def test_kernel_feature_override_changes_embeddings_only():
    from dataclasses import replace

    model = random_model(4, seed=39)
    other = init_params(model.feature_spec, np.random.default_rng(40))
    pinned = replace(model, kernel_feature_params=other)
    X = np.random.default_rng(41).normal(size=(5, 4))
    assert np.array_equal(mean_eval_batch(pinned, X), mean_eval_batch(model, X))
    assert not np.allclose(embed_batch(pinned, X), embed_batch(model, X))
    U = forward_batch(model.feature_spec, other, X)
    expected = forward_batch(model.kernel_spec, model.kernel_params, U)
    assert np.array_equal(embed_batch(pinned, X), expected)
    with pytest.raises(ValueError):
        nlml_grad(pinned, X, np.zeros(5), train_extractor=True)


# ---------------------------------------------------------------------------
# model construction and checkpoints

def test_model_rejects_inconsistent_heads():
    fspec = NetworkSpec(4, (), 5)
    mspec_bad = NetworkSpec(5, (), 2)
    kspec = NetworkSpec(5, (), 3)
    rng = np.random.default_rng(42)
    with pytest.raises(ShapeError):
        DeepGpModel(
            feature_spec=fspec, feature_params=init_params(fspec, rng),
            mean_spec=mspec_bad, mean_params=init_params(mspec_bad, rng),
            kernel_spec=kspec, kernel_params=init_params(kspec, rng),
            log_lengthscale=0.0, log_outputscale=0.0, log_noise=0.0,
        )
    mspec = NetworkSpec(6, (), 1)
    with pytest.raises(ShapeError):
        DeepGpModel(
            feature_spec=fspec, feature_params=init_params(fspec, rng),
            mean_spec=mspec, mean_params=init_params(mspec, rng),
            kernel_spec=kspec, kernel_params=init_params(kspec, rng),
            log_lengthscale=0.0, log_outputscale=0.0, log_noise=0.0,
        )


def test_model_checkpoint_round_trip(tmp_path):
    from dataclasses import replace

    model = random_model(4, seed=43, log_lengthscale=-0.2, log_outputscale=0.9)
    path = tmp_path / "model.bin"
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert model_to_bytes(loaded) == model_to_bytes(model)
    assert checkpoint_id(loaded) == checkpoint_id(model)
    X = np.random.default_rng(44).normal(size=(3, 4))
    assert np.array_equal(mean_eval_batch(loaded, X), mean_eval_batch(model, X))

    pinned = replace(model, kernel_feature_params=init_params(model.feature_spec, 45))
    blob = model_to_bytes(pinned)
    again = model_from_bytes(blob)
    assert again.kernel_feature_params is not None
    assert np.array_equal(again.kernel_feature_params.values, pinned.kernel_feature_params.values)
    assert checkpoint_id(pinned) != checkpoint_id(model)


def test_model_checkpoint_rejects_corruption():
    model = random_model(3, seed=46)
    data = model_to_bytes(model)
    with pytest.raises(SerializationError):
        model_from_bytes(data[:-8])
    nl = data.find(b"\n")
    header = data[:nl].replace(b'"deepgp"', b'"terain"')
    with pytest.raises(SerializationError):
        model_from_bytes(header + data[nl:])
    with pytest.raises(SerializationError):
        model_from_bytes(data + b"\x00" * 8)
    with pytest.raises(SerializationError, match="bad magic"):
        model_from_bytes(data.replace(b'"SGPC1"', b'"SGPC0"', 1))
    with pytest.raises(SerializationError):
        model_from_bytes(b"no newline at all")
    header = json.loads(data[:nl])
    entry, rest = header["blocks"][0], header["blocks"][1:]
    for bad in (
        {**header, "blocks": [{"shape": entry["shape"]}] + rest},
        {**header, "blocks": [{"dtype": entry["dtype"]}] + rest},
        {**header, "blocks": [{**entry, "shape": ["x"]}] + rest},
        {**header, "blocks": ["x"] + rest},
        {**header, "blocks": {"0": entry}},
        {key: value for key, value in header.items() if key != "meta"},
        {**header, "meta": {key: value for key, value in header["meta"].items() if key != "log_lengthscale"}},
    ):
        head = json.dumps(bad, sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(SerializationError):
            model_from_bytes(head + data[nl:])


def test_model_checkpoint_rejects_a_corrupt_network_section():
    data = model_to_bytes(random_model(3, seed=46))
    nl = data.find(b"\n")
    header = json.loads(data[:nl])
    header["meta"]["feature_spec"]["hidden"][0][0] += 1
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(SerializationError):
        model_from_bytes(head + data[nl:])
    # a width of 1e999 parses as float infinity, which int() cannot convert
    with pytest.raises(SerializationError):
        model_from_bytes(data.replace(b'"output_dim":1', b'"output_dim":1e999', 1))
