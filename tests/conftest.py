"""Session fixtures: one small synthetic world and models trained on it once."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from scoopgp.config import GenConfig, TrainConfig
from scoopgp.meta import train_codega, train_dkmt
from scoopgp.tasks import generate_materials, sample_ood_test_family, sample_task_family

WORLD_SEED = 11


@dataclass(frozen=True)
class World:
    pool: object
    train_tasks: tuple
    train_sets: tuple
    test_tasks: tuple
    test_sets: tuple


@pytest.fixture(scope="session")
def world() -> World:
    g = GenConfig()
    pool = generate_materials(g.n_train_materials, g.n_ood_materials, g.rho, WORLD_SEED)
    train_tasks, train_sets = sample_task_family(pool, 10, 24, WORLD_SEED)
    test_tasks, test_sets = sample_ood_test_family(pool, 4, 24, WORLD_SEED)
    return World(pool, tuple(train_tasks), tuple(train_sets),
                 tuple(test_tasks), tuple(test_sets))


@pytest.fixture(scope="session")
def fast_train() -> TrainConfig:
    # enough epochs to converge on the 10x24 family, small enough to stay fast
    return TrainConfig(max_epochs_mean=60, max_epochs_kernel=40, patience=4)


@pytest.fixture(scope="session")
def codega_result(world, fast_train):
    return train_codega(world.train_sets, seed=0, train_cfg=fast_train)


@pytest.fixture(scope="session")
def dkmt_result(world, fast_train):
    return train_dkmt(world.train_sets, seed=0, train_cfg=fast_train)
