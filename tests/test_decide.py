"""Scoring, action selection, and the deployment loop."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scoopgp.bench import deployment_threshold
from scoopgp.decide import SCORER_KINDS, UCB_GAMMA, DeploymentTrace, run_deployment, score, select_action
from scoopgp.errors import SelectionError
from scoopgp.gp import DeepGpModel, mean_eval_batch, posterior_batch
from scoopgp.nnet import NetworkSpec

from helpers import (action_of_row, flat_task, identity_embedding_model, identity_params, params_from_layers,
                     random_model, reference_dataset_deployment, reference_feasible, reward_dataset, toy_dataset)


def _linear_mean_model(d, w, bias=0.0, log_noise=np.log(0.1)):
    fspec = NetworkSpec(d, (), d)
    mspec = NetworkSpec(d, (), 1)
    kspec = NetworkSpec(d, (), d)
    W = np.asarray(w, dtype=np.float64).reshape(1, d)
    mean = params_from_layers(mspec, [(W, np.array([bias]))])
    return DeepGpModel(
        feature_spec=fspec, feature_params=identity_params(fspec),
        mean_spec=mspec, mean_params=mean,
        kernel_spec=kspec, kernel_params=identity_params(kspec),
        log_lengthscale=0.0, log_outputscale=0.0, log_noise=float(log_noise),
    )


def _deploy_dataset(rewards, task_id="dep0"):
    """Distinct actions, features that expose the reward in coordinate 0."""
    return reward_dataset(rewards, task_id, period=7)


# ---------------------------------------------------------------------------
# scorers

def test_unknown_scorer_kinds_are_rejected():
    assert SCORER_KINDS == ("ucb", "mean", "random") and UCB_GAMMA == 2.0
    model = identity_embedding_model(2)
    ds = _deploy_dataset([1.0, 2.0, 3.0])
    for kind in ("thompson", "greedy", "UCB"):
        with pytest.raises(ValueError, match="scorer kind"):
            score(model, kind, [], [], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="scorer kind"):
            run_deployment(model, kind, ds, 3.0, budget=2)


def test_ucb_combines_mean_and_uncertainty():
    model = identity_embedding_model(2, log_outputscale=np.log(4.0),
                                     log_noise=np.log(0.5), mean_bias=5.0)
    candidates = np.array([[0.0, 0.0], [1.0, 2.0]])
    scores = score(model, "ucb", [], [], candidates)
    # empty support: mean bias plus UCB_GAMMA * sqrt(outputscale + noise var)
    assert np.allclose(scores, 5.0 + UCB_GAMMA * np.sqrt(4.0 + 0.25))

    xs, ys = np.array([[0.0, 0.0]]), np.array([9.0])
    mu, var = posterior_batch(model, xs, ys, candidates)
    assert np.array_equal(score(model, "ucb", xs, ys, candidates), mu + UCB_GAMMA * np.sqrt(var))


def test_mean_scorer_ignores_the_support_set():
    model = identity_embedding_model(2, mean_bias=3.0)
    candidates = np.array([[0.0, 0.0], [0.5, 0.5], [5.0, 5.0]])
    base = score(model, "mean", [], [], candidates)
    assert np.allclose(base, mean_eval_batch(model, candidates))

    xs, ys = [np.array([0.0, 0.0])], [50.0]
    assert np.array_equal(score(model, "mean", xs, ys, candidates), base)
    # the adaptive scorer does react to the same evidence
    adapted = score(model, "ucb", xs, ys, candidates)
    assert not np.allclose(adapted, base)
    assert adapted[0] > base[0]


# ---------------------------------------------------------------------------
# selection

def test_select_action_basics():
    scores = np.array([3.0, 9.0, 5.0])
    only_last = np.array([False, False, True])
    assert select_action(scores, only_last) == 2
    assert select_action(scores, np.ones(3, dtype=bool)) == 1
    with pytest.raises(SelectionError):
        select_action(scores, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        select_action(scores, np.ones(4, dtype=bool))


def test_select_action_rejects_a_nan_among_feasible_scores():
    scores = np.array([3.0, np.nan, 5.0])
    with pytest.raises(SelectionError, match="NaN"):
        select_action(scores, np.ones(3, dtype=bool))
    # an infeasible NaN is never looked at
    assert select_action(scores, np.array([True, False, True])) == 2


def test_select_action_stays_feasible_when_every_feasible_score_is_minus_inf():
    scores = np.array([1.0, -np.inf, -np.inf])
    assert select_action(scores, np.array([False, True, True])) == 1
    assert select_action(np.full(4, -np.inf), np.array([False, False, True, True])) == 2
    assert select_action(np.array([-np.inf, np.inf, 2.0]), np.array([True, False, True])) == 2


def test_select_action_breaks_ties_deterministically():
    scores = np.array([7.0, 7.0, 1.0, 7.0])
    mask = np.ones(4, dtype=bool)
    assert select_action(scores, mask) == 0
    mask[0] = False
    assert select_action(scores, mask) == 1


@st.composite
def _scores_and_mask(draw):
    n = draw(st.integers(1, 20))
    scores = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assume(any(mask))
    return np.asarray(scores), np.asarray(mask)


@given(_scores_and_mask())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_select_action_matches_masked_argmax(case):
    scores, mask = case
    oracle = int(np.argmax(np.where(mask, scores, -np.inf)))
    assert select_action(scores, mask) == oracle


# ---------------------------------------------------------------------------
# deployment, dataset mode

def test_deployment_rejects_hopeless_or_empty_targets():
    ds = _deploy_dataset([1.0, 4.0, 9.0])
    with pytest.raises(ValueError, match="dep0.*threshold"):
        run_deployment(None, "random", ds, 10.0, budget=5)
    # an empty target cannot be built: TaskDataset refuses a task of no records
    with pytest.raises(ValueError, match="dep1 has no records: n_records"):
        _deploy_dataset([], "dep1")
    with pytest.raises(ValueError, match="budget"):
        run_deployment(None, "random", ds, 1.0, budget=0)


def test_deployment_succeeds_immediately_when_everything_clears():
    ds = _deploy_dataset([5.0, 6.0, 7.0])
    trace = run_deployment(None, "random", ds, 5.0, budget=3)
    assert trace.success and trace.attempts == 1
    assert trace.episodes[0].support_size == 0
    assert trace.episodes[0].reward >= 5.0


def test_perfect_mean_model_goes_straight_to_the_best_record():
    rewards = [3.0, 7.0, 11.0, 5.0, 2.0]
    ds = _deploy_dataset(rewards)
    model = _linear_mean_model(3, (10.0, 0.0, 0.0))
    trace = run_deployment(model, "mean", ds, 11.0, budget=5)
    assert trace.success and trace.attempts == 1
    assert trace.episodes[0].reward == 11.0
    assert trace.episodes[0].index == 2 and np.array_equal(trace.episodes[0].action, ds.actions[2])


def test_failures_accumulate_without_repeats():
    rewards = [1.0, 2.0, 3.0, 4.0, 50.0, 5.0, 6.0, 7.0]
    ds = _deploy_dataset(rewards)
    trace = run_deployment(None, "random", ds, 50.0,
                           budget=len(rewards), seed=3)
    assert trace.success
    taken = [tuple(e.action) for e in trace.episodes]
    assert len(set(taken)) == len(taken)
    for e in trace.episodes[:-1]:
        assert e.reward < 50.0
    assert trace.episodes[-1].reward == 50.0
    # the support set holds exactly the failures seen before each episode
    assert [e.support_size for e in trace.episodes[:-1]] == list(range(1, trace.attempts))
    assert trace.episodes[-1].support_size == trace.attempts - 1


def test_ucb_episodes_condition_on_the_failures_before_them():
    rewards = [3.0, 7.0, 11.0, 5.0, 2.0, 9.0, 1.0, 4.0]
    ds = _deploy_dataset(rewards)
    model = _linear_mean_model(3, (-10.0, 0.0, 0.0))
    trace = run_deployment(model, "ucb", ds, 11.0, budget=len(rewards))
    assert trace.success and trace.attempts > 2
    X = ds.gp_inputs()
    index = {tuple(row): i for i, row in enumerate(ds.actions)}
    taken = [index[tuple(e.action)] for e in trace.episodes]
    assert taken == [e.index for e in trace.episodes]
    for n, (i, e) in enumerate(zip(taken, trace.episodes)):
        before = taken[:n]
        expected = score(model, "ucb", X[before], ds.rewards()[before], X)[i]
        assert e.score == expected
        assert e.support_size == n + (e.reward < 11.0)


def test_ucb_deployment_over_duplicate_rows_runs_to_budget():
    # every record has the same input row and the noise is far below any
    # trained floor, so every support of two or more rows needs jitter
    rewards = np.append(np.linspace(1.0, 5.0, 11), 50.0)
    ds = toy_dataset("dup0", np.tile([0.3, -0.2], (12, 1)), rewards)
    model = random_model(4, seed=41, log_noise=np.log(1e-9))
    trace = run_deployment(model, "ucb", ds, 50.0, budget=8, seed=1)
    assert not trace.success and trace.attempts == 8
    # equal scores go to the lowest index, so the records are taken in order
    assert [e.reward for e in trace.episodes] == list(rewards[:8])
    assert [e.support_size for e in trace.episodes] == list(range(1, 9))
    assert all(np.isfinite(e.score) for e in trace.episodes)


@pytest.mark.parametrize("kind", ["ucb", "mean", "random"])
def test_dataset_episodes_equal_the_reference_loop(world, codega_result, kind):
    # the index-based episode against the loop that gathered support rows
    # for every scorer and built each step's action: the world's test
    # tasks under a trained model, and a task of one repeated input row on
    # which every support of two or more rows needs jitter
    dup = toy_dataset("dup0", np.tile([0.3, -0.2], (12, 1)), np.append(np.linspace(1.0, 5.0, 11), 50.0))
    cases = [(codega_result.model, ds, deployment_threshold(ds), 20) for ds in world.test_sets]
    cases.append((random_model(4, seed=41, log_noise=np.log(1e-9)), dup, 50.0, 8))
    for model, ds, threshold, budget in cases:
        model = None if kind == "random" else model
        for seed in (0, 1, 7):
            trace = run_deployment(model, kind, ds, threshold, budget, seed)
            ref = reference_dataset_deployment(model, kind, ds, threshold, budget, seed)
            assert (trace.attempts, trace.success) == (ref.attempts, ref.success)
            for step, ref_step in zip(trace.episodes, ref.episodes):
                assert np.array_equal(step.action, ds.actions[step.index])
                assert action_of_row(step.action) == ref_step.action
                assert (step.score, step.reward, step.support_size) == (
                    ref_step.score, ref_step.reward, ref_step.support_size)
            assert trace.to_text() == ref.to_text()


@pytest.mark.parametrize("budget", [1, 3, 40])
def test_random_dataset_episodes_draw_once_and_equal_the_per_step_reference(budget):
    # one draw of every step's scores against the reference's rng.random(n)
    # per step and its select_action: at budget 1, below the record count,
    # and at a budget past it, where the pool runs out before the budget
    rewards = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
    ds = _deploy_dataset(rewards)
    attempts = set()
    for seed in range(40):
        trace = run_deployment(None, "random", ds, 9.0, budget, seed)
        ref = reference_dataset_deployment(None, "random", ds, 9.0, budget, seed)
        assert trace.to_text() == ref.to_text()
        assert [(e.score, e.reward, e.support_size) for e in trace.episodes] == \
            [(e.score, e.reward, e.support_size) for e in ref.episodes]
        assert len({e.index for e in trace.episodes}) == trace.attempts
        attempts.add(trace.attempts)
    assert max(attempts) == min(budget, len(ds))
    if budget > len(ds):
        # an episode that tried every record succeeded on the last one
        assert len(ds) in attempts


def test_budget_caps_the_episode_count():
    rewards = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0]
    ds = _deploy_dataset(rewards)
    found_failure = False
    for seed in range(6):
        trace = run_deployment(None, "random", ds, 100.0,
                               budget=2, seed=seed)
        assert trace.attempts <= 2
        if not trace.success:
            found_failure = True
            assert trace.attempts == 2
    assert found_failure


def test_deployment_is_deterministic_and_renders():
    ds = _deploy_dataset([1.0, 9.0, 2.0, 8.0, 3.0])
    a = run_deployment(None, "random", ds, 9.0, budget=5, seed=11)
    b = run_deployment(None, "random", ds, 9.0, budget=5, seed=11)
    assert a == b
    text = a.to_text()
    assert text.splitlines()[0].startswith("# deployment trace task=dep0")
    assert f"success={int(a.success)}" in text
    assert len(text.strip().splitlines()) == 2 + a.attempts


def test_adaptive_scorers_require_a_model():
    ds = _deploy_dataset([1.0, 2.0, 3.0])
    for kind in ("ucb", "mean"):
        with pytest.raises(ValueError, match="needs a model"):
            run_deployment(None, kind, ds, 3.0, budget=2)


def test_unknown_target_type_is_rejected():
    with pytest.raises(TypeError):
        run_deployment(None, "random", "not-a-target", 1.0, budget=2)


def test_random_policy_matches_the_sampling_odds():
    # 5 winners among 100 records: uniform draws without replacement stop
    # after (100 + 1) / (5 + 1) attempts on average
    rewards = np.zeros(100)
    rewards[[7, 23, 41, 66, 90]] = 2.0
    ds = _deploy_dataset(rewards)
    attempts = [
        run_deployment(None, "random", ds, 1.0, budget=100, seed=t).attempts
        for t in range(2500)
    ]
    assert abs(np.mean(attempts) - 101.0 / 6.0) < 1.0


# ---------------------------------------------------------------------------
# deployment, live mode

def _live_material():
    from scoopgp.tasks import Material
    return Material("live0", np.array([0.9, 0.05, 0.7, 0.0]), np.full(3, 0.5))


def test_live_deployment_runs_against_a_mutable_copy():
    task = flat_task(_live_material(), task_id="liveA")
    original = task.heightmap.copy()
    trace = run_deployment(None, "random", task,
                           threshold=1e9, budget=2, seed=4)
    assert not trace.success
    assert trace.attempts == 2
    assert all(e.reward >= 0.0 for e in trace.episodes)
    assert [e.support_size for e in trace.episodes] == [1, 2]
    assert np.array_equal(task.heightmap, original)
    assert trace.task_id == "liveA"


def test_live_deployment_stops_at_the_threshold():
    task = flat_task(_live_material(), task_id="liveB")
    trace = run_deployment(None, "random", task,
                           threshold=0.0, budget=3, seed=5)
    assert trace.success and trace.attempts == 1
    assert isinstance(trace, DeploymentTrace)


def test_live_candidates_equal_the_stacked_gp_input_rows(world, monkeypatch):
    import scoopgp.decide as decide
    from scoopgp.config import seed_sequence
    from scoopgp.tasks import assemble_gp_input, compute_features_batch, enumerate_action_grid, execute_scoop

    seen = []

    def recording_score(model, kind, support_x, support_y, candidates, rng=None):
        seen.append(candidates)
        return score(model, kind, support_x, support_y, candidates, rng)

    monkeypatch.setattr(decide, "score", recording_score)
    task = world.test_tasks[-1]
    trace = run_deployment(None, "random", task,
                           threshold=1e9, budget=2, seed=3)
    assert len(seen) == trace.attempts == 2
    actions = enumerate_action_grid()
    # replay the episode on its own copy, with the live loop's draws: a
    # random scorer's scores, then the executed scoop's noise seed
    state, rng = task.copy(), np.random.default_rng(seed_sequence(3, 0xDE9107))
    for X, step in zip(seen, trace.episodes):
        feats = compute_features_batch(state, actions)
        assert np.array_equal(X, np.stack([assemble_gp_input(f, a) for f, a in zip(feats, actions)]))
        rng.random(len(actions))
        assert execute_scoop(state, step.action, rng) == step.reward


def test_live_grid_matches_the_enumerated_grid(world):
    from scoopgp.tasks import (COMPOSITIONS, GRID_SETTINGS, GRID_XS, GRID_YS, N_YAWS, ActionGrid,
                               compute_features_batch, enumerate_action_grid)

    grid = ActionGrid()
    actions = enumerate_action_grid()
    assert len(grid.placements) * len(GRID_SETTINGS) == len(actions) == len(grid.feasible) == 11520
    # grid order: by x, then y, yaw index and setting
    nested = [(x, y, yaw, depth, bit) for x in GRID_XS for y in GRID_YS for yaw in range(N_YAWS)
              for depth, bit in GRID_SETTINGS]
    assert np.array_equal(grid.columns, nested) and np.array_equal(actions, nested)
    assert np.array_equal(grid.placements, actions[::len(GRID_SETTINGS), :3])
    assert np.array_equal(grid.feasible, [reference_feasible(a) for a in actions])
    assert not grid.columns.flags.writeable

    tasks = world.train_tasks + world.test_tasks
    for composition in COMPOSITIONS:
        task = next(t for t in tasks if t.composition == composition)
        features = compute_features_batch(task, grid.placements)
        assert np.array_equal(np.repeat(features, len(GRID_SETTINGS), axis=0),
                              compute_features_batch(task, actions))
