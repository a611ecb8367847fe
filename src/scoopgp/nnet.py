"""Feed-forward network core.

Flat float64 parameter vectors over explicit layer layouts, pure forward
evaluation, reverse-mode gradients as vector-Jacobian products, and Adam.
Parameter containers are immutable, so shared model values cannot be
mutated behind a reader's back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SerializationError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _dact(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


@dataclass(frozen=True)
class NetworkSpec:
    """Fully connected stack. hidden holds (width, activation) pairs; the
    output layer is affine with no activation."""

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

    def layer_dims(self) -> list:
        return [self.input_dim] + [w for w, _ in self.hidden] + [self.output_dim]

    def layer_activations(self) -> list:
        return [a for _, a in self.hidden] + ["identity"]

    def param_layout(self) -> tuple:
        dims = self.layer_dims()
        layout = []
        for i in range(len(dims) - 1):
            layout.append((f"W{i}", (dims[i + 1], dims[i])))
            layout.append((f"b{i}", (dims[i + 1],)))
        return tuple(layout)

    def param_count(self) -> int:
        return sum(int(np.prod(shape)) for _, shape in self.param_layout())

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
        vals = np.array(self.values, dtype=np.float64).reshape(-1)
        layout = tuple((str(n), tuple(int(s) for s in shape)) for n, shape in self.layout)
        expected = sum(int(np.prod(s)) for _, s in layout)
        if vals.size != expected:
            raise ShapeError(f"parameter count {vals.size} does not match layout total {expected}")
        if not np.all(np.isfinite(vals)):
            raise ShapeError("parameters must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "layout", layout)

    def __len__(self) -> int:
        return self.values.size

    def replace_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.layout)


def network_from_checkpoint(spec_dict, values) -> tuple:
    """Rebuild one network section of a checkpoint: its spec dict and flat
    parameter block. Any inconsistency is a SerializationError."""
    try:
        spec = NetworkSpec.from_dict(spec_dict)
        return spec, ParamVector(values, spec.param_layout())
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad network section in checkpoint: {exc!r}") from exc


def check_params(spec: NetworkSpec, params: ParamVector) -> None:
    if params.layout != spec.param_layout():
        raise ShapeError("parameter layout does not match network spec")


def split_params(spec: NetworkSpec, params: ParamVector) -> list:
    """Read-only (W, b) views per layer."""
    check_params(spec, params)
    out = []
    offset = 0
    layout = spec.param_layout()
    for i in range(0, len(layout), 2):
        _, wshape = layout[i]
        _, bshape = layout[i + 1]
        wsize = int(np.prod(wshape))
        bsize = int(np.prod(bshape))
        W = params.values[offset:offset + wsize].reshape(wshape)
        offset += wsize
        b = params.values[offset:offset + bsize]
        offset += bsize
        out.append((W, b))
    return out


def params_from_layers(spec: NetworkSpec, layers: list) -> ParamVector:
    """Assemble a ParamVector from explicit (W, b) pairs."""
    layout = spec.param_layout()
    if 2 * len(layers) != len(layout):
        raise ShapeError(f"expected {len(layout) // 2} layers, got {len(layers)}")
    flat = []
    for (W, b), i in zip(layers, range(0, len(layout), 2)):
        W = np.asarray(W, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if W.shape != layout[i][1] or b.shape != layout[i + 1][1]:
            raise ShapeError(f"layer {i // 2} has shape {W.shape}/{b.shape}, layout wants {layout[i][1]}/{layout[i + 1][1]}")
        flat.append(W.reshape(-1))
        flat.append(b)
    return ParamVector(np.concatenate(flat), layout)


def init_params(spec: NetworkSpec, seed) -> ParamVector:
    """He-uniform for relu layers, Xavier-uniform otherwise; zero biases."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dims = spec.layer_dims()
    acts = spec.layer_activations()
    layers = []
    for i, act in enumerate(acts):
        fan_in, fan_out = dims[i], dims[i + 1]
        if act == "relu":
            bound = np.sqrt(6.0 / fan_in)
        else:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((W, np.zeros(fan_out)))
    return params_from_layers(spec, layers)


def _check_batch(spec: NetworkSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ShapeError(f"batch shape {X.shape} does not match input_dim {spec.input_dim}")
    return X


def forward_batch(spec: NetworkSpec, params: ParamVector, X: np.ndarray) -> np.ndarray:
    X = _check_batch(spec, X)
    h = X
    for (W, b), act in zip(split_params(spec, params), spec.layer_activations()):
        h = _act(act, h @ W.T + b)
    return h


def vjp(spec: NetworkSpec, params: ParamVector, X: np.ndarray, upstream: np.ndarray):
    """Gradient of sum_b upstream[b] . f(X[b]) w.r.t. params and inputs.

    Returns (param gradient as ParamVector, input gradient with X's shape).
    """
    X = _check_batch(spec, X)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], spec.output_dim):
        raise ShapeError(f"upstream shape {upstream.shape} does not match ({X.shape[0]}, {spec.output_dim})")
    layers = split_params(spec, params)
    acts = spec.layer_activations()

    pre = []
    post = [X]
    h = X
    for (W, b), act in zip(layers, acts):
        z = h @ W.T + b
        pre.append(z)
        h = _act(act, z)
        post.append(h)

    grads = [None] * len(layers)
    D = upstream
    for i in range(len(layers) - 1, -1, -1):
        D = D * _dact(acts[i], pre[i])
        gW = D.T @ post[i]
        gb = D.sum(axis=0)
        grads[i] = (gW, gb)
        D = D @ layers[i][0]
    return params_from_layers(spec, grads), D


@dataclass(frozen=True)
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray


def adam_init(n: int) -> AdamState:
    return AdamState(step=0, m=np.zeros(n), v=np.zeros(n))


def optimizer_step(
    params: ParamVector,
    grads: ParamVector,
    state: AdamState | None,
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
):
    """One Adam update. Returns (new params, new state)."""
    if grads.layout != params.layout:
        raise ShapeError("gradient layout does not match parameter layout")
    if state is None:
        state = adam_init(len(params))
    if state.m.shape != params.values.shape:
        raise ShapeError("optimizer state size does not match parameters")
    t = state.step + 1
    g = grads.values
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_values = params.values - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params.replace_values(new_values), AdamState(step=t, m=m, v=v)

