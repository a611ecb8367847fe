"""Decision-making loop: posterior scoring, action selection, deployment.

A deployment episode scores every candidate action, executes the best
feasible one, observes a reward, and either stops (reward reached the
threshold) or adds the observation to the support set and repeats. The
support set only ever holds below-threshold observations. Dataset mode
replays logged scoops and removes each executed action from the pool;
live mode executes each scoop with tasks.execute_scoop on a copy of the
terrain, whose heightmap loses the scooped volume after every attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import seed_sequence
from .errors import SelectionError
from .gp import DeepGpModel, embed, mean_eval_batch, posterior_batch
from .tasks import STIFFNESS_LEVELS, ActionGrid, TaskDataset, TerrainTask, execute_scoop

SCORER_KINDS = ("ucb", "mean", "random")
UCB_GAMMA = 2.0     # ucb's exploration weight, fixed before any run looks at outcomes


def _check_scorer(model: DeepGpModel | None, kind: str) -> None:
    if kind not in SCORER_KINDS:
        raise ValueError(f"scorer kind must be one of {SCORER_KINDS}, got {kind!r}")
    if model is None and kind != "random":
        raise ValueError(f"scorer {kind!r} needs a model")


def score(model: DeepGpModel | None, kind: str, support_x, support_y, candidates, rng=None) -> np.ndarray:
    """Score every candidate row under one of SCORER_KINDS; the best
    feasible one is executed.

    ucb:    posterior mean + UCB_GAMMA * posterior std, conditioned on
            support_x (input rows) and support_y (rewards), the failures
            observed so far
    mean:   prior mean only, support ignored (the non-adaptive baseline)
    random: uniform random scores drawn from rng, no model involved

    ucb's candidates and support are input rows or Embedded sets; mean's
    candidates are input rows.
    """
    _check_scorer(model, kind)
    if kind == "random":
        return rng.random(len(candidates))
    if kind == "mean":
        return mean_eval_batch(model, candidates)
    mu, var = posterior_batch(model, support_x, support_y, candidates)
    return mu + UCB_GAMMA * np.sqrt(var)


def select_action(scores: np.ndarray, feasible: np.ndarray) -> int:
    """Index of the best feasible score; exact ties go to the lowest index.
    A NaN among the feasible scores raises SelectionError."""
    scores = np.asarray(scores, dtype=np.float64)
    feasible = np.asarray(feasible, dtype=bool)
    if scores.shape != feasible.shape:
        raise ValueError(f"scores shape {scores.shape} does not match mask shape {feasible.shape}")
    allowed = feasible.nonzero()[0]
    if not len(allowed):
        raise SelectionError("no feasible candidate action")
    # argmax returns the first maximum, and the first NaN when there is one;
    # taken over the feasible scores alone, it stays feasible when all are -inf
    best = int(allowed[scores[allowed].argmax()])
    if math.isnan(scores[best]):
        raise SelectionError(f"feasible candidate {best} has a NaN score")
    return best


@dataclass(frozen=True)
class EpisodeStep:
    """One executed step: the candidate's index in its target (a record or
    a grid action), its score, the observed reward, the support size after
    it and the executed action row (x, y, yaw_index, depth, stiffness bit);
    steps compare without the row."""

    index: int
    score: float
    reward: float
    support_size: int
    action: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class DeploymentTrace:
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
            x, y, yaw, depth, bit = e.action.tolist()
            lines.append(
                f"{i} {x:.9g} {y:.9g} {int(yaw)} {depth:.9g} {STIFFNESS_LEVELS[int(bit)]} "
                f"{e.score:.9g} {e.reward:.9g} {e.support_size}"
            )
        return "\n".join(lines) + "\n"


def _random_dataset_episode(ds: TaskDataset, rng: np.random.Generator, threshold: float,
                            budget: int) -> DeploymentTrace:
    """A dataset episode under the random scorer. Its scores are drawn as one
    rng.random((steps, n)) block, whose rows are the n scores that per-step
    rng.random(n) calls would give. After each step the executed record is
    set below every later draw, so one argmax picks what select_action
    would: the first best record still allowed. Each step executes a new
    record, so at most n steps run, and the episode ends there as on an
    exhausted pool."""
    rewards, n = ds.rewards(), len(ds)
    draws = rng.random((min(budget, n), n))
    failures, episodes, success = 0, [], False
    for scores in draws:
        idx = int(scores.argmax())
        reward = float(rewards[idx])
        success = bool(reward >= threshold)
        failures += not success
        episodes.append(EpisodeStep(idx, float(scores[idx]), reward, failures, ds.actions[idx]))
        if success:
            break
        draws[:, idx] = -1.0
    return DeploymentTrace(ds.task_id, float(threshold), int(budget), tuple(episodes), success)


def run_deployment(model, kind: str, target, threshold: float, budget: int, seed=0) -> DeploymentTrace:
    """Run one deployment until an at-threshold reward or budget exhaustion.

    kind is one of SCORER_KINDS. target is a TaskDataset, whose logged
    scoops are replayed, or a TerrainTask, whose full action grid is scored
    against a copy of the terrain. Every executed observation below the
    threshold is appended to the support set before the next episode, so
    ucb conditions on all failures so far. A step is recorded by its
    candidate index into the target's action rows (records or grid).

    A replayed episode builds its records' inputs once: ucb embeds them,
    and mean scores them once by their prior means, which never change.
    Under the random scorer it builds nothing and draws nothing from its
    generator but scores, so it runs as _random_dataset_episode: all its
    steps' scores in one draw. Live mode draws reward noise between steps,
    so its random scores stay one draw per step.
    """
    live = isinstance(target, TerrainTask)
    if not live and not isinstance(target, TaskDataset):
        raise TypeError(f"target must be a TaskDataset or a TerrainTask, got {type(target).__name__}")
    _check_scorer(model, kind)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    # only the random scorer and live reward noise draw, so only they build a generator
    rng = None
    if kind == "random" or live:
        rng = np.random.default_rng(seed_sequence(seed, 0xDE9107))

    if live:
        task, grid = target.copy(), ActionGrid()
        task_id, actions, allowed = task.id, grid.columns, grid.feasible
    else:
        ds = target
        if not len(ds):
            raise ValueError(f"task {ds.task_id} has no records to deploy against")
        rewards = ds.rewards()
        if rewards.max() < threshold:
            raise ValueError(
                f"task {ds.task_id}: no recorded reward reaches the threshold {threshold:.3g} "
                f"(max is {rewards.max():.3g})"
            )
        if kind == "random":
            return _random_dataset_episode(ds, rng, threshold, budget)
        task_id, actions, allowed = ds.task_id, ds.actions, np.ones(len(ds), dtype=bool)
        # ucb conditions on the embedded records; mean's scores are their prior means
        pool = embed(model, ds.gp_inputs()) if kind == "ucb" else mean_eval_batch(model, ds.gp_inputs())

    # the support: raw grid rows (live) or record indices into the pool (replayed)
    failed, support_y, episodes = [], [], []
    success = False
    while len(episodes) < budget:
        if live:
            X = grid.gp_inputs(task)
            scores = score(model, kind, failed if kind == "ucb" else None, support_y, X, rng)
        elif kind == "ucb":
            scores = score(model, kind, pool[failed], support_y, pool)
        else:
            scores = pool
        idx = select_action(scores, allowed)
        if live:
            reward = execute_scoop(task, actions[idx], rng)
        else:
            allowed[idx] = False
            reward = float(rewards[idx])
        success = bool(reward >= threshold)
        if not success:
            failed.append(X[idx] if live else idx)
            support_y.append(reward)
        episodes.append(EpisodeStep(idx, float(scores[idx]), reward, len(support_y), actions[idx]))
        if success or not np.count_nonzero(allowed):
            break
    return DeploymentTrace(task_id, float(threshold), int(budget), tuple(episodes), success)
