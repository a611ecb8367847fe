"""Network core: forward oracles, gradient checks, Adam and parameter containers."""

import numpy as np
import pytest

from scoopgp.config import ModelConfig
from scoopgp.errors import SerializationError, ShapeError
from scoopgp.nnet import (
    ADAM_EPS,
    FORWARD_BLOCK,
    AdamState,
    NetworkSpec,
    ParamVector,
    _forward,
    adam_init,
    check_params,
    forward_batch,
    init_params,
    network_from_checkpoint,
    optimizer_step,
    split_params,
    vjp,
)

from helpers import identity_params, params_from_layers, reference_vjp


# ---------------------------------------------------------------------------
# forward

def test_identity_affine_layer_passes_input_through():
    spec = NetworkSpec(2, (), 2)
    params = identity_params(spec)
    out = forward_batch(spec, params, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.array([[1.0, 2.0]]))


def test_relu_layer_clamps_negatives():
    spec = NetworkSpec(2, ((2, "relu"),), 2)
    params = params_from_layers(spec, [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
    out = forward_batch(spec, params, np.array([[-1.0, 3.0]]))
    assert np.array_equal(out, np.array([[0.0, 3.0]]))


def test_two_layer_forward_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    spec = NetworkSpec(4, ((5, "tanh"),), 3)
    params = init_params(spec, rng)
    X = rng.normal(size=(6, 4))
    (W0, b0), (W1, b1) = split_params(spec, params)
    expected = np.tanh(X @ W0.T + b0) @ W1.T + b1
    assert np.max(np.abs(forward_batch(spec, params, X) - expected)) < 1e-12


def test_forward_is_pure_and_consistent_with_batch():
    rng = np.random.default_rng(4)
    spec = NetworkSpec(3, ((4, "relu"), (4, "tanh")), 2)
    params = init_params(spec, rng)
    X = rng.normal(size=(5, 3))
    a = forward_batch(spec, params, X)
    assert np.array_equal(a, forward_batch(spec, params, X))
    for i in range(len(X)):
        assert np.max(np.abs(forward_batch(spec, params, X[i:i + 1])[0] - a[i])) < 1e-12


@pytest.mark.parametrize("n", [2047, 2048, 2049, 2055, 3001, 5100, 11520])
def test_row_blocks_equal_one_call_bit_for_bit(n):
    # the last block takes the remainder: a short standalone block can round
    # differently from the same rows inside a larger matrix product
    assert FORWARD_BLOCK == 1024
    cfg = ModelConfig()
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 20))
    X0 = X.copy()
    for spec in (cfg.feature_spec(20), cfg.mean_spec(), cfg.kernel_spec()):
        params = init_params(spec, rng)
        Xs = X[:, :spec.input_dim]
        out = forward_batch(spec, params, Xs)
        assert out.shape == (n, spec.output_dim)
        assert np.array_equal(out, _forward(spec, split_params(spec, params), Xs))
    assert np.array_equal(X, X0)  # activations work in place on their own temporaries only


def test_forward_batch_rejects_wrong_input_dim():
    spec = NetworkSpec(3, (), 2)
    params = init_params(spec, 0)
    with pytest.raises(ShapeError):
        forward_batch(spec, params, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        forward_batch(spec, params, np.zeros(3))


# ---------------------------------------------------------------------------
# gradients

def test_zero_upstream_gives_zero_gradients():
    spec = NetworkSpec(3, ((4, "tanh"),), 2)
    params = init_params(spec, 1)
    X = np.random.default_rng(2).normal(size=(5, 3))
    grads, dX = vjp(spec, params, X)[1](np.zeros((5, 2)))
    assert np.array_equal(grads.values, np.zeros(len(params)))
    assert np.array_equal(dX, np.zeros_like(X))


def test_linear_gradient_equals_input():
    spec = NetworkSpec(3, (), 1)
    w = np.array([[0.5, -1.0, 2.0]])
    params = params_from_layers(spec, [(w, np.zeros(1))])
    x = np.array([[1.0, 2.0, 3.0]])
    grads, dX = vjp(spec, params, x)[1](np.ones((1, 1)))
    gW, gb = split_params(spec, grads)[0]
    assert np.array_equal(gW, x)
    assert np.array_equal(gb, np.ones(1))
    assert np.array_equal(dX, w)


def _fd_gradient(spec, params, X, upstream, step=1e-5):
    vals = params.values.copy()
    out = np.empty(vals.size)
    for i in range(vals.size):
        vplus = vals.copy()
        vplus[i] += step
        vminus = vals.copy()
        vminus[i] -= step
        fplus = float(np.sum(upstream * forward_batch(spec, params.replace_values(vplus), X)))
        fminus = float(np.sum(upstream * forward_batch(spec, params.replace_values(vminus), X)))
        out[i] = (fplus - fminus) / (2.0 * step)
    return out


def test_backward_matches_finite_differences_on_random_specs():
    # smooth activations only: relu's kink breaks the FD comparison at z=0
    rng = np.random.default_rng(0)
    for _ in range(100):
        depth = int(rng.integers(0, 3))
        hidden = tuple((int(rng.integers(1, 17)), "tanh") for _ in range(depth))
        spec = NetworkSpec(int(rng.integers(1, 7)), hidden, int(rng.integers(1, 5)))
        params = init_params(spec, rng)
        X = rng.normal(size=(3, spec.input_dim))
        upstream = rng.normal(size=(3, spec.output_dim))
        analytic = vjp(spec, params, X)[1](upstream)[0].values
        numeric = _fd_gradient(spec, params, X, upstream)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = np.random.default_rng(9)
    spec = NetworkSpec(4, ((8, "relu"),), 2)
    params = init_params(spec, rng)
    # keep preactivations away from zero so central differences are exact
    X = np.sign(rng.normal(size=(4, 4))) * rng.uniform(0.5, 1.5, size=(4, 4))
    upstream = rng.normal(size=(4, 2))
    analytic = vjp(spec, params, X)[1](upstream)[0].values
    numeric = _fd_gradient(spec, params, X, upstream)
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    spec = NetworkSpec(3, ((5, "tanh"),), 2)
    params = init_params(spec, rng)
    X = rng.normal(size=(2, 3))
    upstream = rng.normal(size=(2, 2))
    _, dX = vjp(spec, params, X)[1](upstream)
    step = 1e-6
    for b in range(2):
        for j in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[b, j] += step
            Xm[b, j] -= step
            fp = float(np.sum(upstream * forward_batch(spec, params, Xp)))
            fm = float(np.sum(upstream * forward_batch(spec, params, Xm)))
            assert abs(dX[b, j] - (fp - fm) / (2 * step)) < 1e-6


def test_vjp_output_and_pullback_equal_forward_batch_and_the_reference_vjp():
    rng = np.random.default_rng(21)
    for _ in range(40):
        hidden = tuple((int(rng.integers(1, 12)), str(rng.choice(["relu", "tanh", "identity"])))
                       for _ in range(int(rng.integers(0, 4))))
        spec = NetworkSpec(int(rng.integers(1, 7)), hidden, int(rng.integers(1, 5)))
        params = init_params(spec, rng)
        X = rng.normal(size=(int(rng.integers(1, 9)), spec.input_dim))
        upstream = rng.normal(size=(X.shape[0], spec.output_dim))
        out, pullback = vjp(spec, params, X)
        assert np.array_equal(out, forward_batch(spec, params, X))
        grads, dX = pullback(upstream)
        ref_grads, ref_dX = reference_vjp(spec, params, X, upstream)
        assert grads.layout == ref_grads.layout
        assert grads.values.tobytes() == ref_grads.values.tobytes() and dX.tobytes() == ref_dX.tobytes()


def test_vjp_rejects_wrong_upstream_shape():
    spec = NetworkSpec(3, (), 2)
    params = init_params(spec, 0)
    with pytest.raises(ShapeError):
        vjp(spec, params, np.zeros((4, 3)))[1](np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_params_unchanged():
    spec = NetworkSpec(2, (), 1)
    params = init_params(spec, 5)
    zero = params.replace_values(np.zeros(len(params)))
    new, state = optimizer_step(params, zero, adam_init(len(params)), lr=0.1)
    assert np.array_equal(new.values, params.values)
    assert state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    layout = (("w", (1,)),)
    params = ParamVector(np.array([2.0]), layout)
    grads = ParamVector(np.array([0.7]), layout)
    new, state = optimizer_step(params, grads, adam_init(len(params)), lr=0.05)
    # bias correction makes m_hat = g and v_hat = g^2, so the step is
    # lr * g / (|g| + eps) which is lr up to eps
    expected = 2.0 - 0.05 * 0.7 / (0.7 + ADAM_EPS)
    assert abs(new.values[0] - expected) < 1e-15
    assert abs(new.values[0] - (2.0 - 0.05)) < 1e-8


def test_adam_second_step_matches_hand_recurrence():
    layout = (("w", (1,)),)
    lr, g = 0.05, 0.7
    params = ParamVector(np.array([2.0]), layout)
    grads = ParamVector(np.array([g]), layout)
    p1, s1 = optimizer_step(params, grads, adam_init(len(params)), lr)
    p2, _ = optimizer_step(p1, grads, s1, lr)

    beta1, beta2 = 0.9, 0.999
    m = (1 - beta1) * g
    v = (1 - beta2) * g * g
    x = 2.0 - lr * (m / (1 - beta1)) / (np.sqrt(v / (1 - beta2)) + ADAM_EPS)
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    x -= lr * (m / (1 - beta1 ** 2)) / (np.sqrt(v / (1 - beta2 ** 2)) + ADAM_EPS)
    assert abs(p2.values[0] - x) < 1e-15


def test_adam_rejects_mismatched_layout_and_state():
    spec = NetworkSpec(2, (), 1)
    params = init_params(spec, 0)
    other = ParamVector(np.zeros(4), (("w", (4,)),))
    with pytest.raises(ShapeError):
        optimizer_step(params, other, adam_init(len(params)), lr=0.1)
    bad_state = AdamState(step=1, m=np.zeros(1), v=np.zeros(1))
    with pytest.raises(ShapeError):
        optimizer_step(params, params, bad_state, lr=0.1)


def test_adam_on_a_concatenation_equals_the_separate_steps():
    # Adam is elementwise, so one state over two vectors end to end steps
    # each part exactly as its own state would: the trainers rely on this
    rng = np.random.default_rng(3)
    a = init_params(NetworkSpec(3, ((5, "tanh"),), 2), rng)
    b = ParamVector(rng.normal(size=3), (("h", (3,)),))
    joined = ParamVector(np.concatenate([a.values, b.values]), (("theta", (len(a) + len(b),)),))
    state_a, state_b, state = adam_init(len(a)), adam_init(len(b)), adam_init(len(joined))
    for _ in range(5):
        ga = a.replace_values(rng.normal(size=len(a)))
        gb = b.replace_values(rng.normal(scale=100.0, size=len(b)))
        g = joined.replace_values(np.concatenate([ga.values, gb.values]))
        a, state_a = optimizer_step(a, ga, state_a, lr=0.05)
        b, state_b = optimizer_step(b, gb, state_b, lr=0.05)
        joined, state = optimizer_step(joined, g, state, lr=0.05)
    assert state.step == state_a.step == state_b.step == 5
    assert np.array_equal(joined.values, np.concatenate([a.values, b.values]))
    assert np.array_equal(state.m, np.concatenate([state_a.m, state_b.m]))
    assert np.array_equal(state.v, np.concatenate([state_a.v, state_b.v]))


# ---------------------------------------------------------------------------
# initialization

def test_init_is_deterministic_per_seed():
    spec = NetworkSpec(5, ((7, "relu"), (4, "tanh")), 2)
    a = init_params(spec, 42)
    b = init_params(spec, 42)
    c = init_params(spec, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_init_bounds_and_zero_biases():
    spec = NetworkSpec(9, ((7, "relu"), (4, "tanh")), 2)
    params = init_params(spec, 8)
    layers = split_params(spec, params)
    bounds = [np.sqrt(6.0 / 9), np.sqrt(6.0 / (7 + 4)), np.sqrt(6.0 / (4 + 2))]
    for (W, b), bound in zip(layers, bounds):
        assert np.max(np.abs(W)) <= bound
        assert np.array_equal(b, np.zeros_like(b))


# ---------------------------------------------------------------------------
# containers

def test_param_vector_validation():
    layout = (("w", (2, 2)), ("b", (2,)))
    ParamVector(np.zeros(6), layout)
    with pytest.raises(ShapeError):
        ParamVector(np.zeros(5), layout)
    with pytest.raises(ShapeError):
        ParamVector(np.array([1.0, np.nan, 0, 0, 0, 0]), layout)


def test_param_vector_is_immutable():
    params = ParamVector(np.arange(3.0), (("w", (3,)),))
    with pytest.raises(ValueError):
        params.values[0] = 9.0
    replaced = params.replace_values(np.array([9.0, 1.0, 2.0]))
    assert replaced.values[0] == 9.0
    assert params.values[0] == 0.0


def test_spec_validation_and_dict_round_trip():
    with pytest.raises(ShapeError):
        NetworkSpec(3, ((4, "sigmoid"),), 2)
    with pytest.raises(ShapeError):
        NetworkSpec(3, ((0, "relu"),), 2)
    with pytest.raises(ShapeError):
        NetworkSpec(0, (), 2)
    spec = NetworkSpec(3, ((4, "relu"),), 2)
    assert NetworkSpec.from_dict(spec.to_dict()) == spec
    assert spec.param_count() == 3 * 4 + 4 + 4 * 2 + 2


def test_params_from_layers_rejects_wrong_shapes():
    spec = NetworkSpec(3, (), 2)
    with pytest.raises(ShapeError):
        params_from_layers(spec, [(np.zeros((2, 4)), np.zeros(2))])
    with pytest.raises(ShapeError):
        params_from_layers(spec, [])


def test_check_params_rejects_foreign_layout():
    spec = NetworkSpec(3, (), 2)
    other = NetworkSpec(3, ((4, "tanh"),), 2)
    with pytest.raises(ShapeError):
        check_params(spec, init_params(other, 0))


def test_checkpoint_rejects_corruption():
    spec = NetworkSpec(2, ((3, "tanh"),), 1)
    params = init_params(spec, 0)
    spec2, params2 = network_from_checkpoint(spec.to_dict(), params.values)
    assert spec2 == spec
    assert np.array_equal(params2.values, params.values)
    # a parameter block that does not fill the stored layout
    with pytest.raises(SerializationError):
        network_from_checkpoint(spec.to_dict(), params.values[:-1])
    with pytest.raises(SerializationError):
        network_from_checkpoint(spec.to_dict(), np.append(params.values, 0.0))
    with pytest.raises(SerializationError):
        network_from_checkpoint(spec.to_dict(), np.where(np.arange(len(params)) == 0, np.nan, params.values))
    # a stored spec that is not a valid network
    bad_act = dict(spec.to_dict(), hidden=[[3, "sigmoid"]])
    with pytest.raises(SerializationError):
        network_from_checkpoint(bad_act, params.values)
    with pytest.raises(SerializationError):
        network_from_checkpoint({"input_dim": 2, "hidden": [[3, "tanh"]]}, params.values)
    with pytest.raises(SerializationError):
        network_from_checkpoint(None, params.values)

