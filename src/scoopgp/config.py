"""Run configuration dataclasses and the flat key-value config file format.

Config files hold one `section.key = value` assignment per line; `#`
starts a comment. Keys map onto the fields of RunConfig's sections below,
so every key and its default is visible in one place. Only settings that
some run varies are keys; the fixed scoop rig (heightmap cell, observation
patch, appearance channels, reward noise) is a set of constants in
tasks.py, and the network shapes are ModelConfig's defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .nnet import NetworkSpec
from .serialize import read_file


@dataclass(frozen=True)
class ModelConfig:
    """Network shapes for the extractor and the two heads. No run varies
    them, so they are not config keys; the trainers take one as model_cfg."""

    feature_hidden: tuple = ((32, "relu"),)
    feature_dim: int = 16
    mean_hidden: tuple = ((16, "relu"),)
    # bounded activations keep the embedding finite far outside the data,
    # so kernel distances stay meaningful on unfamiliar terrain
    kernel_hidden: tuple = ((32, "tanh"), (16, "tanh"))
    embed_dim: int = 8

    def feature_spec(self, input_dim: int) -> NetworkSpec:
        return NetworkSpec(input_dim, self.feature_hidden, self.feature_dim)

    def mean_spec(self) -> NetworkSpec:
        return NetworkSpec(self.feature_dim, self.mean_hidden, 1)

    def kernel_spec(self) -> NetworkSpec:
        return NetworkSpec(self.feature_dim, self.kernel_hidden, self.embed_dim)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for mean and kernel training."""

    lr_kernel: float = 1e-2
    patience: int = 5
    max_epochs_mean: int = 200
    max_epochs_kernel: int = 150
    folds: int = 4                  # material folds of train_codega
    log_every: int = 0              # print a progress line every n epochs (0 = quiet)

    def __post_init__(self):
        if not (math.isfinite(self.lr_kernel) and self.lr_kernel > 0):
            raise ConfigError(f"train.lr_kernel must be finite and above 0, got {self.lr_kernel}")
        for key in ("patience", "max_epochs_mean", "max_epochs_kernel", "log_every"):
            if getattr(self, key) < 0:
                raise ConfigError(f"train.{key} must not be negative, got {getattr(self, key)}")
        if self.folds < 2:
            raise ConfigError(f"train.folds must be at least 2, got {self.folds}")


@dataclass(frozen=True)
class GenConfig:
    """Synthetic material, terrain and dataset generation settings."""

    n_train_materials: int = 8
    n_ood_materials: int = 4
    rho: float = 0.7                # appearance/latent correlation level
    n_train_tasks: int = 12
    train_records: int = 60
    n_test_tasks: int = 6
    test_records: int = 60


@dataclass(frozen=True)
class BenchConfig:
    """Evaluation protocol settings."""

    shots: tuple = (0, 5, 10)
    mae_trials: int = 30
    deploy_trials: int = 10
    budget: int = 20
    exclude_below: float = 5.0      # drop deployment tasks whose threshold is under this

    def __post_init__(self):
        try:
            check_shots(self.shots)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bench.shots: {exc}") from None
        for key in ("mae_trials", "deploy_trials", "budget"):
            if getattr(self, key) < 1:
                raise ConfigError(f"bench.{key} must be at least 1, got {getattr(self, key)}")
        if math.isnan(self.exclude_below):
            raise ConfigError(f"bench.exclude_below must be a number, got {self.exclude_below}")


def seed_sequence(seed, *words) -> np.random.SeedSequence:
    """The SeedSequence of a run seed, taken modulo 2**32, and a stream's
    tag words, each in [0, 2**32). Its entropy pool is the one of the list
    [seed & 0xFFFFFFFF, *words], so every draw is the same, but the words go
    in as one uint32 array rather than one Python int at a time."""
    for word in words:
        if not 0 <= word <= 0xFFFFFFFF:
            raise ValueError(f"seed word {word} is outside [0, 2**32)")
    return np.random.SeedSequence(np.array([int(seed) & 0xFFFFFFFF, *words], dtype=np.uint32))


def check_shots(shots) -> tuple:
    """Shot counts as a tuple of ints; raises ValueError unless they are
    non-empty, non-negative and distinct."""
    shots = tuple(int(s) for s in shots)
    if not shots or min(shots) < 0 or len(set(shots)) != len(shots):
        raise ValueError(f"shots must be distinct non-negative counts, got {shots}")
    return shots


@dataclass(frozen=True)
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    gen: GenConfig = field(default_factory=GenConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)


def _parse_value(raw: str, kind, key: str):
    raw = raw.strip()
    try:
        if kind is tuple:
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from exc


def parse_config_text(text: str) -> dict:
    """Flat `section.key = value` lines to a {key: raw string} dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} has no '=': {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for key, raw in overrides.items():
        if "." not in key:
            raise ConfigError(f"config key {key!r} must look like section.field")
        section, name = key.split(".", 1)
        if section not in sections or name not in {f.name for f in fields(sections[section])}:
            raise ConfigError(f"unknown config key {key!r}")
        kind = type(getattr(sections[section], name))
        sections[section] = replace(sections[section], **{name: _parse_value(raw, kind, key)})
    return RunConfig(**sections)


def load_config(path: str) -> RunConfig:
    data = read_file(path, "config file", ConfigError)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return apply_overrides(RunConfig(), parse_config_text(text))
