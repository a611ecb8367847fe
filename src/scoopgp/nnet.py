"""Feed-forward network core.

Flat float64 parameter vectors over explicit layer layouts, pure forward
evaluation, reverse-mode gradients as vector-Jacobian products, and Adam.
Parameter containers are immutable, so shared model values cannot be
mutated behind a reader's back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SerializationError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# rows per block in forward_batch: on the 11520-action grid one call kept two
# or three (11520, 32) float64 temporaries alive together, and the grid's
# prior (gp.mean_eval_batch) peaked at +5.69 MiB traced; 1024-row blocks
# peak at +1.94 MiB, and embedding the grid fell from 10.5 to 5.0 ms (min of
# 30, one BLAS thread). The last block takes the remainder (1024 to 2047
# rows), so a batch under 2048 rows is one call: OpenBLAS rounds a short
# standalone call differently from the same rows inside a larger one (on the
# feature network, every call of 1 to 75 rows), and fixed blocks with a short
# tail changed the output at row counts such as 2049 and 2055, where this
# layout matches the single call bit for bit
FORWARD_BLOCK = 1024


def _act(name: str, z: np.ndarray) -> np.ndarray:
    """The activation, applied in place to z."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return z


def _dact(name: str, a: np.ndarray):
    """Derivative of the activation, from the activation's output a."""
    if name == "relu":
        return a > 0.0
    if name == "tanh":
        return 1.0 - a * a
    return 1.0


class Layer(NamedTuple):
    """Where one layer sits in a flat parameter vector: row-major weights, then bias."""

    weight: slice
    shape: tuple
    bias: slice
    activation: str


@dataclass(frozen=True)
class NetworkSpec:
    """Fully connected stack. hidden holds (width, activation) pairs; the
    output layer is affine with no activation. layers lays out the flat
    parameters once, one Layer per layer; every reader of the layout uses it."""

    input_dim: int
    hidden: tuple
    output_dim: int

    def __post_init__(self):
        hidden = tuple((int(w), str(a)) for w, a in self.hidden)
        object.__setattr__(self, "hidden", hidden)
        if self.input_dim < 1 or self.output_dim < 1:
            raise ShapeError("input_dim and output_dim must be positive")
        for width, act in hidden:
            if width < 1:
                raise ShapeError(f"hidden width must be positive, got {width}")
            if act not in ACTIVATIONS:
                raise ShapeError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")
        layers, layout, offset, fan_in = [], [], 0, self.input_dim
        for i, (fan_out, act) in enumerate(hidden + ((self.output_dim, "identity"),)):
            end = offset + fan_out * fan_in
            layers.append(Layer(slice(offset, end), (fan_out, fan_in), slice(end, end + fan_out), act))
            layout += [(f"W{i}", (fan_out, fan_in)), (f"b{i}", (fan_out,))]
            offset, fan_in = end + fan_out, fan_out
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "_layout", tuple(layout))

    def layer_dims(self) -> list:
        return [self.input_dim] + [layer.shape[0] for layer in self.layers]

    def layer_activations(self) -> list:
        return [layer.activation for layer in self.layers]

    def param_layout(self) -> tuple:
        return self._layout

    def param_count(self) -> int:
        return self.layers[-1].bias.stop

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden": [[w, a] for w, a in self.hidden],
            "output_dim": self.output_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(
            input_dim=int(d["input_dim"]),
            hidden=tuple((int(w), str(a)) for w, a in d["hidden"]),
            output_dim=int(d["output_dim"]),
        )


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector plus the (name, shape) layout it fills."""

    values: np.ndarray
    layout: tuple

    def __post_init__(self):
        layout = tuple((str(n), tuple(int(s) for s in shape)) for n, shape in self.layout)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "values", _checked_values(self.values, sum(math.prod(s) for _, s in layout)))

    def __len__(self) -> int:
        return self.values.size

    def replace_values(self, values: np.ndarray) -> "ParamVector":
        """New values over this layout. The layout is already normalised and
        its total is this vector's size, so only the values are checked."""
        new = object.__new__(ParamVector)
        object.__setattr__(new, "layout", self.layout)
        object.__setattr__(new, "values", _checked_values(values, self.values.size))
        return new


def _checked_values(values, expected: int) -> np.ndarray:
    """A read-only flat float64 copy of values, which must be finite and number expected."""
    vals = np.array(values, dtype=np.float64).reshape(-1)
    if vals.size != expected:
        raise ShapeError(f"parameter count {vals.size} does not match layout total {expected}")
    if not np.isfinite(vals).all():
        raise ShapeError("parameters must be finite")
    vals.flags.writeable = False
    return vals


def network_from_checkpoint(spec_dict, values) -> tuple:
    """Rebuild one network section of a checkpoint: its spec dict and flat
    parameter block. Any inconsistency is a SerializationError."""
    try:
        spec = NetworkSpec.from_dict(spec_dict)
        return spec, ParamVector(values, spec.param_layout())
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad network section in checkpoint: {exc!r}") from exc


def check_params(spec: NetworkSpec, params: ParamVector) -> None:
    if params.layout != spec.param_layout():
        raise ShapeError("parameter layout does not match network spec")


def split_params(spec: NetworkSpec, params: ParamVector) -> list:
    """Read-only (W, b) views per layer."""
    check_params(spec, params)
    v = params.values
    return [(v[layer.weight].reshape(layer.shape), v[layer.bias]) for layer in spec.layers]


def init_params(spec: NetworkSpec, seed) -> ParamVector:
    """He-uniform for relu layers, Xavier-uniform otherwise; zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(spec.param_count())
    for layer in spec.layers:
        fan_out, fan_in = layer.shape
        bound = np.sqrt(6.0 / (fan_in if layer.activation == "relu" else fan_in + fan_out))
        flat[layer.weight] = rng.uniform(-bound, bound, size=fan_out * fan_in)
    return ParamVector(flat, spec.param_layout())


def _check_batch(spec: NetworkSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ShapeError(f"batch shape {X.shape} does not match input_dim {spec.input_dim}")
    return X


def _forward(spec: NetworkSpec, weights: list, X: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Run the stack on a checked batch, with the (W, b) pairs of
    split_params. Each layer adds its bias and applies its activation in
    place, so one temporary per layer is alive. With a tape, append each
    layer's weight matrix and input, which is what the backward pass reads."""
    h = X
    for (W, b), layer in zip(weights, spec.layers):
        if tape is not None:
            tape.append((W, h))
        z = h @ W.T
        z += b
        h = _act(layer.activation, z)
    return h


def forward_batch(spec: NetworkSpec, params: ParamVector, X: np.ndarray) -> np.ndarray:
    """The network's outputs on a batch, FORWARD_BLOCK rows at a time; the
    last block takes the remainder."""
    X = _check_batch(spec, X)
    weights = split_params(spec, params)
    edges = [0, *range(FORWARD_BLOCK, len(X) - FORWARD_BLOCK + 1, FORWARD_BLOCK), len(X)]
    if len(edges) == 2:
        return _forward(spec, weights, X)
    out = np.empty((len(X), spec.output_dim))
    for start, stop in zip(edges, edges[1:]):
        out[start:stop] = _forward(spec, weights, X[start:stop])
    return out


def vjp(spec: NetworkSpec, params: ParamVector, X: np.ndarray):
    """f(X) and its pullback, in the JAX style.

    pullback(upstream) returns the gradient of sum_b upstream[b] . f(X[b])
    w.r.t. params (a ParamVector) and w.r.t. X (with X's shape). The
    pullback holds the layer inputs of this forward pass until it is dropped.
    """
    X = _check_batch(spec, X)
    tape = []
    out = _forward(spec, split_params(spec, params), X, tape)

    def pullback(upstream: np.ndarray):
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != out.shape:
            raise ShapeError(f"upstream shape {upstream.shape} does not match {out.shape}")
        grad = np.empty(spec.param_count())
        D, a = upstream, out
        for layer, (W, h) in zip(reversed(spec.layers), reversed(tape)):
            D = D * _dact(layer.activation, a)
            grad[layer.weight] = (D.T @ h).reshape(-1)
            grad[layer.bias] = D.sum(axis=0)
            D, a = D @ W, h
        return params.replace_values(grad), D

    return out, pullback


@dataclass(frozen=True)
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray


def adam_init(n: int) -> AdamState:
    return AdamState(step=0, m=np.zeros(n), v=np.zeros(n))


def optimizer_step(params: ParamVector, grads: ParamVector, state: AdamState, lr: float):
    """One Adam update with ADAM_BETA1, ADAM_BETA2 and ADAM_EPS from state,
    adam_init(len(params)) on the first step. Returns (new params, new state)."""
    if grads.layout != params.layout:
        raise ShapeError("gradient layout does not match parameter layout")
    if state.m.shape != params.values.shape:
        raise ShapeError("optimizer state size does not match parameters")
    t = state.step + 1
    g = grads.values
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_values = params.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params.replace_values(new_values), AdamState(step=t, m=m, v=v)

