"""Synthetic world: materials, terrains, rewards, families, dataset files."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter
from scipy.optimize import linprog
from scipy.special import expit

from scoopgp.config import GenConfig
from scoopgp.errors import IngestError, SerializationError
import scoopgp.serialize
import scoopgp.tasks
from scoopgp.serialize import container_bytes, read_container, write_container
from scoopgp.tasks import (
    APPEARANCE_DIM,
    CELL,
    DEPTH_MAX,
    DEPTH_MIN,
    DRAG_LEN,
    FEATURE_BLOCK,
    GRID_SHAPE,
    GP_INPUT_DIM,
    HIDDEN_DEPTH,
    LATENT_PHYS_HI,
    LATENT_PHYS_LO,
    MAX_ELEVATION,
    MAX_SLOPE,
    NOISE_FLOOR_CM3,
    NOISE_FRAC,
    N_YAWS,
    OBS_DIM,
    PATCH_CELLS,
    RECORDS_HEADER,
    SCOOP_W,
    TRAIN_LATENT_HI,
    TRAIN_LATENT_LO,
    TRAY_H,
    TRAY_W,
    _YAW_COS,
    _YAW_SIN,
    ActionGrid,
    Material,
    TaskDataset,
    TerrainTask,
    _allocate,
    _blur_axis,
    _expit,
    _placements_feasible,
    assemble_gp_input,
    compute_features_batch,
    enumerate_action_grid,
    execute_scoop,
    generate_heightmap,
    generate_materials,
    generate_task,
    load_terrains,
    read_database,
    required_materials,
    reward_oracle,
    sample_ood_test_family,
    sample_task_family,
    save_terrains,
    write_database,
)

from helpers import (assert_columns_equal_reference, flat_task, random_model, reference_action, reference_feasible,
                     reference_features, reference_read_database, reference_reward, toy_dataset)


def _material(gain=0.8, jam=0.1, sens=0.6, slope=0.0, mat_id="m0"):
    return Material(mat_id, np.array([gain, jam, sens, slope]), np.full(3, 0.5))


# ---------------------------------------------------------------------------
# materials

def test_full_correlation_makes_appearance_affine_in_latent():
    pool = generate_materials(40, 0, rho=1.0, seed=0)
    latents = np.stack([m.latent for m in pool.training])
    apps = np.stack([m.appearance for m in pool.training])
    design = np.column_stack([latents, np.ones(len(pool.training))])
    _, residual, _, _ = np.linalg.lstsq(design, apps, rcond=None)
    assert residual.max() < 1e-8


def test_zero_correlation_makes_appearance_independent():
    pool = generate_materials(1000, 0, rho=0.0, seed=1)
    latents = np.stack([m.latent for m in pool.training])
    apps = np.stack([m.appearance for m in pool.training])
    for i in range(apps.shape[1]):
        for j in range(latents.shape[1]):
            corr = np.corrcoef(apps[:, i], latents[:, j])[0, 1]
            assert abs(corr) < 0.2


def _inside_hull(point, hull_points) -> bool:
    n = hull_points.shape[0]
    res = linprog(
        c=np.zeros(n),
        A_eq=np.vstack([hull_points.T, np.ones((1, n))]),
        b_eq=np.concatenate([point, [1.0]]),
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    return res.status == 0


def test_ood_latents_sit_outside_the_training_hull():
    pool = generate_materials(8, 4, rho=0.7, seed=2)
    train = np.stack([m.latent for m in pool.training])
    lo, hi = train.min(axis=0), train.max(axis=0)
    for m in pool.training:
        assert _inside_hull(m.latent, train)
    for m in pool.ood:
        assert not _inside_hull(m.latent, train)
        assert np.any((m.latent < lo) | (m.latent > hi))


def test_ood_pushes_leave_the_training_range_within_the_physical_bound():
    # the training box lies strictly inside the physical one, so a pushed
    # coordinate always has room past the training materials' range
    assert np.all(LATENT_PHYS_LO < TRAIN_LATENT_LO) and np.all(TRAIN_LATENT_LO < TRAIN_LATENT_HI)
    assert np.all(TRAIN_LATENT_HI < LATENT_PHYS_HI)
    # OOD material i pushes (coordinate, direction) number i % 4: gain low, jam
    # high, depth sensitivity high, gain high
    pushes = ((0, -1), (1, +1), (2, +1), (0, +1))
    for seed in range(20):
        for n_train in (2, 8):
            pool = generate_materials(n_train, 8, rho=0.7, seed=seed)
            train = np.stack([m.latent for m in pool.training])
            lo, hi = train.min(axis=0), train.max(axis=0)
            for i, m in enumerate(pool.ood):
                coord, sign = pushes[i % len(pushes)]
                value = m.latent[coord]
                if sign > 0:
                    assert hi[coord] < value <= LATENT_PHYS_HI[coord], (seed, n_train, i)
                else:
                    assert LATENT_PHYS_LO[coord] <= value < lo[coord], (seed, n_train, i)


def test_jamming_novelty_material_stays_shallow_scoopable():
    for seed in range(5):
        pool = generate_materials(8, 4, rho=0.7, seed=seed)
        jam_mat = pool.ood[1]
        assert jam_mat.jam > max(m.jam for m in pool.training)
        assert 0.55 <= jam_mat.scoop_gain <= 0.90


def test_material_pool_lookup_and_validation():
    pool = generate_materials(4, 2, rho=0.5, seed=3)
    assert [m.id for m in pool.training + pool.ood] == ["mat00", "mat01", "mat02", "mat03", "ood00", "ood01"]
    with pytest.raises(ValueError):
        generate_materials(0, 2, rho=0.5, seed=0)
    with pytest.raises(ValueError):
        generate_materials(4, 2, rho=1.5, seed=0)
    with pytest.raises(ValueError):
        Material("bad", np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="appearance"):
        Material("bad", np.zeros(4), np.zeros(2))


def test_material_arrays_are_immutable():
    m = _material()
    with pytest.raises(ValueError):
        m.latent[0] = 9.0
    with pytest.raises(ValueError):
        m.appearance[0] = 9.0


# ---------------------------------------------------------------------------
# terrains

def test_heightmap_respects_caps():
    for seed in range(5):
        h = generate_heightmap(np.random.default_rng(seed))
        assert h.shape == (60, 90)
        assert h.min() >= 0.0
        assert h.max() <= MAX_ELEVATION + 1e-12
        gy, gx = np.gradient(h, CELL)
        assert np.hypot(gx, gy).max() <= MAX_SLOPE + 1e-9


def test_heightmap_blur_equals_scipy_gaussian_filter_bit_for_bit():
    # generate_heightmap blurs without scipy.ndimage; every terrain, and so
    # every dataset and checkpoint, depends on the two agreeing in the last bit
    rng = np.random.default_rng(28)
    for _ in range(60):
        noise = rng.normal(size=GRID_SHAPE)
        blurred = _blur_axis(_blur_axis(noise, 0), 1)
        assert blurred.flags.c_contiguous
        assert np.array_equal(blurred, gaussian_filter(noise, sigma=6.0, mode="reflect"))


def test_expit_equals_scipy_expit_bit_for_bit():
    rng = np.random.default_rng(29)
    for scale in (1.0, 10.0, 100.0):
        v = rng.normal(size=20000) * scale
        assert np.array_equal(_expit(v), expit(v)), scale
    # where exp(-v) overflows math.exp raises and scipy gives 0.0
    edges = np.array([0.0, -0.0, 709.78, -709.78, 710.0, -710.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    ours, ref = _expit(edges), expit(edges)
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))
    assert _expit(edges.reshape(1, -1)).shape == (1, len(edges)) and _expit(np.empty(0)).shape == (0,)


def test_reward_oracle_on_a_steep_loaded_terrain_saturates_the_jamming_gate():
    # nothing bounds a loaded heightmap: a 100 m/m ramp drives the gate's
    # logistic to exp(1250), which overflows, in every downhill drag
    H, W = GRID_SHAPE
    ramp = np.tile(np.arange(W) * CELL * 100.0, (H, 1))
    task = TerrainTask(id="ramp0", composition="single", materials=(_material(),), heightmap=ramp,
                       region_map=np.zeros((H, W), dtype=np.int64))
    actions = np.array([[0.45, 0.3, yaw, depth, hard] for yaw in range(N_YAWS)
                        for depth in (DEPTH_MIN, DEPTH_MAX) for hard in (0.0, 1.0)])
    rewards = reward_oracle(task, actions)
    assert np.isfinite(rewards).all()
    assert np.array_equal(rewards, [reference_reward(task, a) for a in actions])


def test_single_composition_region_is_uniform():
    task = generate_task("t0", [_material()], "single", seed=0)
    assert np.array_equal(task.region_map, np.zeros_like(task.region_map))
    assert task.hidden_map is None


def test_partition_splits_on_a_vertical_boundary():
    mats = [_material(mat_id="a"), _material(mat_id="b")]
    task = generate_task("t1", mats, "partition", seed=1)
    region = task.region_map
    assert set(np.unique(region)) == {0, 1}
    # vertical boundary: columns are constant and transition 0 -> 1 once
    assert np.array_equal(region, np.tile(region[0], (region.shape[0], 1)))
    col = region[0]
    assert np.all(np.diff(col) >= 0)


def test_layers_hide_a_different_material_in_one_region():
    mats = [_material(mat_id="a"), _material(mat_id="b"), _material(mat_id="c")]
    for seed in range(4):
        task = generate_task("t2", mats, "layers", seed=seed)
        diff = task.hidden_map != task.region_map
        assert diff.any()
        matched = any(np.array_equal(diff, task.region_map == side) for side in (0, 1))
        assert matched
    two = generate_task("t3", mats[:2], "layers", seed=5)
    assert (two.hidden_map != two.region_map).any()


def test_composition_material_count_requirements():
    assert required_materials("single") == (1, 1)
    assert required_materials("mixture") == (2, 2)
    assert required_materials("layers") == (2, 3)
    with pytest.raises(ValueError):
        required_materials("marble")
    with pytest.raises(ValueError):
        generate_task("t4", [_material()], "mixture", seed=0)


def test_terrain_copy_is_independent():
    task = generate_task("t5", [_material()], "single", seed=2)
    clone = task.copy()
    clone.heightmap[0, 0] += 1.0
    assert task.heightmap[0, 0] != clone.heightmap[0, 0]


# ---------------------------------------------------------------------------
# actions

def test_action_row_validation():
    # test_task_dataset_validation rejects a row breaking each rule; a row on every rule's edge is kept
    edge = [[TRAY_W, 0.0, N_YAWS - 1, DEPTH_MAX, 1.0]]
    assert np.array_equal(TaskDataset("t", "single", ("a",), edge, [1.0], [[0.0]]).actions, edge)
    # yaw index 2 drags along +y
    assert (_YAW_COS[2], _YAW_SIN[2]) == (pytest.approx(0.0, abs=1e-15), 1.0)


@given(
    x=st.floats(0.0, TRAY_W),
    y=st.floats(0.0, TRAY_H),
    yaw_index=st.integers(0, N_YAWS - 1),
)
@settings(max_examples=200, deadline=None)
def test_feasibility_matches_drag_endpoint_rule(x, y, yaw_index):
    yaw = np.deg2rad(45.0 * yaw_index)
    ex = x + np.cos(yaw) * DRAG_LEN
    ey = y + np.sin(yaw) * DRAG_LEN
    margin = min(ex, TRAY_W - ex, ey, TRAY_H - ey)
    # only decide away from the boundary; the last ulp belongs to the impl
    if margin > 1e-9:
        assert _placements_feasible(x, y, yaw_index)
    elif margin < -1e-9:
        assert not _placements_feasible(x, y, yaw_index)


def test_action_grid_size_and_depth_spacing():
    actions = enumerate_action_grid()
    assert actions.shape == (11520, 5)
    depths = np.unique(actions[:, 3])
    assert len(depths) == 4
    assert depths[0] == DEPTH_MIN
    assert depths[-1] == pytest.approx(DEPTH_MAX, abs=1e-12)
    spacing = np.diff(depths)
    assert np.allclose(spacing, (DEPTH_MAX - DEPTH_MIN) / 3.0)
    assert all(reference_feasible(a) for a in actions)


# ---------------------------------------------------------------------------
# features

def test_feature_dimensions_line_up(world):
    assert OBS_DIM == PATCH_CELLS + 3 + APPEARANCE_DIM
    assert GP_INPUT_DIM == OBS_DIM + 2
    ds = world.train_sets[0]
    assert ds.feature_dim == OBS_DIM
    X = ds.gp_inputs()
    assert X.shape == (len(ds), GP_INPUT_DIM)
    assert np.all((X[:, -2] >= 0.0) & (X[:, -2] <= 1.0))
    assert set(np.unique(X[:, -1])) == {0.0, 1.0}


def test_stored_features_recompute_bit_exactly(world):
    task = world.train_tasks[0]
    ds = world.train_sets[0]
    feats = compute_features_batch(task, ds.actions)
    assert np.array_equal(feats, ds.features)
    # a list of rows, and placement rows alone, give the same features
    assert np.array_equal(compute_features_batch(task, list(ds.actions)), feats)
    assert np.array_equal(compute_features_batch(task, ds.actions[:, :3]), feats)
    one = compute_features_batch(task, [ds.actions[0]])[0]
    assert np.array_equal(one, feats[0])


def _edge_and_grid_actions() -> np.ndarray:
    """Every 13th grid action row, plus starts on and just inside the tray
    edges at every yaw, many of them infeasible."""
    xs = (0.0, 0.004, 0.5 * TRAY_W, TRAY_W - 0.004, TRAY_W)
    ys = (0.0, 0.006, 0.5 * TRAY_H, TRAY_H - 0.006, TRAY_H)
    edges = [(x, y, yaw, DEPTH_MAX, 1.0) for x in xs for y in ys for yaw in range(N_YAWS)]
    return np.concatenate([enumerate_action_grid()[::13], edges])


def test_feasibility_columns_equal_the_scalar_rule():
    # the grid's mask, computed over all placements at once, and the same
    # expression on edge placements, many of them infeasible, and on
    # boundary-hugging starts where the last ulp decides
    grid = ActionGrid()
    assert np.array_equal(grid.feasible[::8], [reference_feasible(p) for p in grid.placements])
    rng = np.random.default_rng(8)
    hugging = np.column_stack([rng.choice([DRAG_LEN, TRAY_W - DRAG_LEN, 0.5 * DRAG_LEN], 400),
                               rng.choice([DRAG_LEN, TRAY_H - DRAG_LEN, 0.5 * DRAG_LEN], 400),
                               rng.integers(0, N_YAWS, 400), np.full(400, DEPTH_MIN), np.zeros(400)])
    actions = np.concatenate([_edge_and_grid_actions(), hugging])
    x, y, yaw = actions[:, :3].T
    mask = _placements_feasible(x, y, yaw.astype(np.int64))
    assert np.array_equal(mask, [reference_feasible(a) for a in actions])
    # one action's values in, one bool out, as _sample_action calls it
    assert [bool(_placements_feasible(x, y, int(k))) for x, y, k in actions[:, :3].tolist()] == mask.tolist()
    assert 0 < mask.sum() < len(actions)


def test_blocked_features_equal_the_per_action_loop(world):
    actions = _edge_and_grid_actions()
    assert len(actions) % FEATURE_BLOCK and len(actions) > 2 * FEATURE_BLOCK
    assert not all(reference_feasible(a) for a in actions)
    tasks = {t.composition: t for t in world.train_tasks + world.test_tasks}
    assert sorted(tasks) == sorted(["single", "partition", "mixture", "layers"])
    for task in tasks.values():
        feats = compute_features_batch(task, actions)
        assert np.array_equal(feats, reference_features(task, actions)), task.composition
    assert compute_features_batch(task, []).shape == (0, OBS_DIM)


def test_reward_oracle_with_a_passed_gradient_equals_its_own(world):
    actions = _edge_and_grid_actions()[::5]
    for task in (world.train_tasks[0], world.test_tasks[-1]):
        gradient = np.gradient(task.heightmap, CELL)
        for seed, action in enumerate(actions):
            for rng in (None, seed):
                assert reward_oracle(task, [action], rng, gradient=gradient) == reward_oracle(task, [action], rng)


def test_batched_reward_oracle_equals_the_scalar_reference(world):
    actions = np.array([a for a in _edge_and_grid_actions() if reference_feasible(a)])
    depths = actions[:, 3]
    assert min(depths) < HIDDEN_DEPTH < max(depths) and set(actions[:, 4]) == {0.0, 1.0}
    tasks = {t.composition: t for t in world.train_tasks + world.test_tasks}
    assert sorted(tasks) == sorted(["single", "partition", "mixture", "layers"])
    for task in tasks.values():
        assert np.array_equal(reward_oracle(task, actions), [reference_reward(task, a) for a in actions])
        # one generator shared by sequential one-action calls gives the batched call's draws
        rng = np.random.default_rng(11)
        sequential = [reference_reward(task, a, rng) for a in actions]
        assert np.array_equal(reward_oracle(task, actions, np.random.default_rng(11)), sequential), task.composition
    assert reward_oracle(task, []).shape == (0,)


def test_gp_inputs_equal_the_per_record_rows_and_columns_are_read_only(world):
    for ds in world.train_sets[:3] + world.test_sets[:1]:
        rows = ds.gp_inputs()
        assert np.array_equal(rows, np.stack([assemble_gp_input(f, a) for f, a in zip(ds.features, ds.actions)]))
        for column in (ds.actions, ds.rewards(), ds.features):
            assert not column.flags.writeable
        task = next(t for t in world.train_tasks + world.test_tasks if t.id == ds.task_id)
        assert np.array_equal(reward_oracle(task, ds.actions), reward_oracle(task, list(ds.actions)))


def test_depth_normalization_in_gp_input():
    feats = np.zeros(4)
    shallow = assemble_gp_input(feats, [0.2, 0.2, 0, DEPTH_MIN, 0.0])
    deep = assemble_gp_input(feats, [0.2, 0.2, 0, DEPTH_MAX, 1.0])
    assert shallow.shape == (6,) and shallow[-2] == 0.0 and shallow[-1] == 0.0
    assert deep[-2] == 1.0 and deep[-1] == 1.0
    both = assemble_gp_input(np.zeros((2, 4)), [[0.2, 0.2, 0, DEPTH_MIN, 0.0], [0.2, 0.2, 0, DEPTH_MAX, 1.0]])
    assert np.array_equal(both, [shallow, deep])


# ---------------------------------------------------------------------------
# rewards

def test_reward_is_deterministic_per_seed():
    task = flat_task(_material())
    action = [0.4, 0.3, 0, 0.06, 0.0]
    assert reward_oracle(task, [action]) == reward_oracle(task, [action])
    assert reward_oracle(task, [action], 7) == reward_oracle(task, [action], 7)
    assert reward_oracle(task, [action], 7) != reward_oracle(task, [action], 8)


def test_zero_gain_material_never_yields_volume():
    task = flat_task(_material(gain=0.0))
    rng = np.random.default_rng(4)
    for _ in range(20):
        action = [rng.uniform(0, 0.8), rng.uniform(0, 0.5), 0, rng.uniform(DEPTH_MIN, DEPTH_MAX), 0.0]
        assert reward_oracle(task, [action])[0] == 0.0


def test_reward_monotone_in_depth_on_benign_flat_cell():
    task = flat_task(_material(gain=0.9, jam=0.0, sens=0.7))
    depths = [DEPTH_MIN + (DEPTH_MAX - DEPTH_MIN) / 3.0 * k for k in range(4)]
    rewards = [reward_oracle(task, [[0.4, 0.3, 0, d, 0.0]])[0] for d in depths]
    assert all(b > a for a, b in zip(rewards, rewards[1:]))


def test_high_jam_interlock_kills_deep_scoops():
    loose = flat_task(_material(jam=0.10))
    locked = flat_task(_material(jam=0.95))
    action = [0.4, 0.3, 0, DEPTH_MAX, 0.0]
    assert reward_oracle(locked, [action])[0] < 0.2 * reward_oracle(loose, [action])[0]
    # stiff scoops relieve jamming drag but not the interlock
    hard = [0.4, 0.3, 0, DEPTH_MAX, 1.0]
    assert reward_oracle(locked, [hard])[0] < 0.2 * reward_oracle(loose, [hard])[0]


def test_execute_scoop_removes_the_oracle_reward_from_the_drag_footprint():
    task = flat_task(_material())
    task.heightmap[:] = 0.1
    before = task.copy()
    action = np.array([0.4, 0.3, 2, 0.06, 0.0])  # yaw 2 drags along +y
    noise_seed = int(np.random.default_rng(5).integers(0, 2 ** 31 - 1))
    reward = execute_scoop(task, action, np.random.default_rng(5))
    assert reward > 0.0 and reward == reward_oracle(before, [action], noise_seed)[0]
    removed_cm3 = (before.heightmap - task.heightmap).sum() * CELL * CELL * 1e6
    assert abs(removed_cm3 - reward) < 1e-9 * reward
    rows, cols = np.nonzero(task.heightmap != before.heightmap)
    xs, ys = (cols + 0.5) * CELL, (rows + 0.5) * CELL
    assert np.all(np.abs(xs - 0.4) <= 0.5 * SCOOP_W)
    assert np.all((0.3 - 0.5 * SCOOP_W <= ys) & (ys <= 0.3 + DRAG_LEN + 0.5 * SCOOP_W))
    # a scoop that yields nothing leaves the terrain as it was
    empty = flat_task(_material(gain=0.0))
    assert execute_scoop(empty, action, np.random.default_rng(5)) == 0.0
    assert not empty.heightmap.any()


def test_noisy_rewards_are_nonnegative_and_centered():
    task = flat_task(_material())
    action = [0.4, 0.3, 0, 0.06, 0.0]
    clean = reward_oracle(task, [action])[0]
    rng = np.random.default_rng(5)
    draws = np.array([reward_oracle(task, [action], rng)[0] for _ in range(500)])
    assert np.all(draws >= 0.0)
    se = (NOISE_FRAC * clean + NOISE_FLOOR_CM3) / np.sqrt(500)
    assert abs(draws.mean() - clean) < 5 * se


def test_contact_material_switches_below_hidden_depth():
    # distinct gains, so a reward identifies the material that produced it
    mats = [_material(mat_id="a"), _material(gain=0.5, mat_id="b"), _material(gain=0.2, mat_id="c")]
    task = generate_task("t6", mats, "layers", seed=3)
    side = 0 if np.array_equal(task.hidden_map != task.region_map, task.region_map == 0) else 1
    rows, cols = np.where(task.region_map == side)
    # pick a drag midpoint well inside the replaced region
    r, c = rows[len(rows) // 2], cols[len(cols) // 2]
    x = (c + 0.5) * CELL - 0.5 * DRAG_LEN
    y = (r + 0.5) * CELL
    if not (0 <= x <= TRAY_W):
        x = min(max(x, 0.0), TRAY_W - DRAG_LEN)
    shallow = [x, y, 0, HIDDEN_DEPTH - 0.01, 0.0]
    deep = [x, y, 0, HIDDEN_DEPTH + 0.01, 0.0]

    def contact(action):
        """The materials whose flat single-material tray gives the layered tray's reward."""
        got = reward_oracle(task, [action])[0]
        return [m.id for m in mats if reward_oracle(flat_task(m), [action])[0] == got]

    task.heightmap[:] = 0.0  # flat, like the single-material trays
    assert len(contact(shallow)) == 1 and contact(shallow) != contact(deep)
    assert contact(deep) == ["c"]


def test_task_dataset_rejects_bad_rewards():
    actions = np.tile([0.1, 0.1, 0, 0.05, 0.0], (3, 1))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"reward {bad} must be finite and non-negative") as info:
            TaskDataset("t", "single", ("a",), actions, [1.0, bad, 2.0], np.zeros((3, 2)))
        assert (info.value.row, info.value.field) == (1, "reward")


# ---------------------------------------------------------------------------
# families

def test_allocation_follows_largest_remainder():
    assert _allocate(51, (8, 25, 18)) == [8, 25, 18]
    assert sum(_allocate(10, (8, 25, 18))) == 10
    assert _allocate(10, (1, 1, 1)) == [4, 3, 3]


def test_offline_database_matches_the_published_scale():
    pool = generate_materials(8, 4, rho=0.7, seed=6)
    datasets = sample_task_family(pool, 51, 100, seed=6)[1]
    assert len(datasets) == 51
    assert sum(len(ds) for ds in datasets) == 5100
    counts = {}
    for ds in datasets:
        counts[ds.composition] = counts.get(ds.composition, 0) + 1
    assert counts == {"single": 8, "partition": 25, "mixture": 18}
    rewards = np.concatenate([ds.rewards() for ds in datasets])
    assert np.all(rewards >= 0.0)
    # right-skewed: the bulk sits far below the top decile
    top_decile = np.quantile(rewards, 0.9)
    assert rewards.mean() < np.median(rewards[rewards >= top_decile])


def test_training_family_uses_training_materials_only(world):
    train_ids = {m.id for m in world.pool.training}
    for task, ds in zip(world.train_tasks, world.train_sets):
        assert ds.task_id == task.id
        assert set(ds.material_ids) <= train_ids
        assert len(ds) == 24


def test_test_family_always_contains_a_novel_material(world):
    ood_ids = {m.id for m in world.pool.ood}
    rotation = ("single", "partition", "mixture", "layers")
    for i, (task, ds) in enumerate(zip(world.test_tasks, world.test_sets)):
        assert task.composition == rotation[i % 4]
        assert set(ds.material_ids) & ood_ids
        if task.composition == "layers":
            # the novel material is the buried one
            assert task.materials[-1].id in ood_ids
            buried = np.unique(task.hidden_map[task.hidden_map != task.region_map])
            assert buried.tolist() == [2]


def test_test_family_requires_an_ood_pool():
    pool = generate_materials(4, 0, rho=0.7, seed=7)
    with pytest.raises(ValueError):
        sample_ood_test_family(pool, 2, 8, seed=7)


def test_family_generation_is_deterministic():
    pool = generate_materials(8, 4, rho=0.7, seed=8)
    _, a = sample_task_family(pool, 4, 6, seed=9)
    _, b = sample_task_family(pool, 4, 6, seed=9)
    for da, db in zip(a, b):
        assert da.task_id == db.task_id
        assert np.array_equal(da.rewards(), db.rewards())
        assert np.array_equal(da.gp_inputs(), db.gp_inputs())


# ---------------------------------------------------------------------------
# dataset files

def _assert_same_datasets(a, b):
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert da.task_id == db.task_id
        assert da.composition == db.composition
        assert da.material_ids == db.material_ids
        assert len(da) == len(db)
        assert np.array_equal(da.actions, db.actions)
        assert np.array_equal(da.rewards(), db.rewards())
        assert np.array_equal(da.features, db.features)


def test_database_round_trip_is_stable(tmp_path, world):
    p1 = str(tmp_path / "fam1")
    write_database(p1, world.train_sets[:3])
    first = read_database(p1)
    p2 = str(tmp_path / "fam2")
    write_database(p2, first)
    second = read_database(p2)
    _assert_same_datasets(first, second)
    with open(p1 + ".records.txt", "rb") as fh:
        bytes1 = fh.read()
    with open(p2 + ".records.txt", "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2
    # read accepts the records path as well as the prefix
    again = read_database(p2 + ".records.txt")
    _assert_same_datasets(second, again)


def test_read_database_validates_schema(tmp_path, world):
    prefix = str(tmp_path / "fam")
    write_database(prefix, world.train_sets[:2])
    records_path = prefix + ".records.txt"

    def expect(match, line, field):
        with pytest.raises(IngestError, match=match) as info:
            read_database(prefix)
        assert (info.value.path, info.value.line, info.value.field) == (records_path, line, field)

    with pytest.raises(IngestError, match="not found") as info:
        read_database(str(tmp_path / "missing"))
    assert (info.value.line, info.value.field) == (0, "")

    with open(records_path) as fh:
        lines = fh.readlines()
    n_first = len(world.train_sets[0])
    second = n_first + 2  # the index of the second task's header line
    assert lines[1].split()[:2] == ["task", "task000"] and lines[second].split()[:2] == ["task", "task001"]

    def rewrite(broken):
        with open(records_path, "w") as fh:
            fh.writelines(broken)

    # a fault in the last record of the file, whose task is not the first
    body = len(lines) - 1

    def broken_field(index, column, token):
        broken = lines.copy()
        parts = broken[index].split()
        parts[column] = token
        broken[index] = " ".join(parts) + "\n"
        return broken

    rewrite(broken_field(body, 4, "squishy"))
    expect("stiffness must be one of .*'squishy'", body + 1, "action")

    rewrite(broken_field(body, 5, "-5.0"))
    expect("reward", body + 1, "reward")

    for column, token, field in ((0, "abc", "x"), (1, "1.2.3", "y"), (2, "2.0", "yaw_index"),
                                 (3, "deep", "depth"), (5, "lots", "reward"), (9, "?", "features")):
        rewrite(broken_field(body, column, token))
        expect("cannot parse", body + 1, field)

    for column, token, match in ((0, "1.5", "outside the tray"), (1, "nan", "outside the tray"),
                                 (2, "8", r"yaw_index must be in \[0, 8\), got 8"), (3, "0.2", "depth 0.2 outside")):
        rewrite(broken_field(body, column, token))
        expect(match, body + 1, "action")

    for token in ("nan", "inf", "-Infinity", "1e999"):
        rewrite(broken_field(body, 9, token))
        expect("feature 3 is .*, must be finite", body + 1, "features")

    broken = lines.copy()
    broken[body] = " ".join(broken[body].split()[:-1]) + "\n"
    rewrite(broken)
    expect("feature count", body + 1, "features")

    # a truncated file: its last task has fewer records than its header declares
    rewrite(lines[:-1])
    expect(f"task001 has {len(lines) - second - 2} records, its header declares", second + 1, "n_records")

    # a task that ends early, at the next header
    rewrite(broken_field(1, 4, str(n_first + 1)))
    expect(f"task000 has {n_first} records, its header declares {n_first + 1}", 2, "n_records")

    rewrite(lines + lines[-1:])
    expect("expected a task header line after the .* records of task task001", len(lines) + 1, "")

    rewrite(lines[:1] + lines[2:])
    expect(r"expected a task header line \| file", 2, "")

    rewrite(broken_field(second, 2, "marble"))
    expect("unknown composition 'marble'", second + 1, "composition")

    rewrite(broken_field(second, 1, "task000"))
    expect("duplicate task 'task000'", second + 1, "task_id")

    rewrite(broken_field(second, 3, lines[second].split()[3] + ","))
    expect("material ids .* are not each one non-empty token", second + 1, "material_ids")

    for column, field in ((4, "n_records"), (5, "feature_dim")):
        rewrite(broken_field(second, column, "2.5"))
        expect("cannot parse int", second + 1, field)

    rewrite(broken_field(second, 5, "-1"))
    expect("feature_dim -1 is negative", second + 1, "feature_dim")

    broken = lines.copy()
    broken[second] = " ".join(broken[second].split()[:-1]) + "\n"
    rewrite(broken)
    expect("task header has 5 fields, expected 6", second + 1, "")

    # the previous format, a records file with a separate manifest, is rejected by its version line
    rewrite(["# scoopgp records v1\n"] + lines[1:])
    expect("first line '# scoopgp records v1' is not '# scoopgp records v2'", 1, "")

    rewrite(lines)
    with open(records_path, "ab") as fh:
        fh.write(b"\xff\xfe not UTF-8\n")
    expect("not UTF-8", 0, "")


def test_read_database_columns_equal_the_reference_reader(tmp_path, world):
    prefix = str(tmp_path / "fam")
    for sets in (world.train_sets, world.test_sets):
        write_database(prefix, sets)
        datasets = read_database(prefix)
        assert_columns_equal_reference(datasets, reference_read_database(prefix))


# a records file to mutate: two tasks of two features, the first line of each task at lines 2 and 6
_RECORD_LINES = [
    "# scoopgp records v2\n",
    "task a single m1 3 2\n",
    "0.1 0.2 3 0.05 soft 12.5 1.0 2.0\n",
    "0.3 0.25 0 0.04 hard 7 -0.5 3e-2\n",
    "0.5 0.3 7 0.06 soft 0 0 0\n",
    "task b mixture m1,m2 2 2\n",
    "0.2 0.2 1 0.05 hard 4.5 1 1\n",
    "0.4 0.1 2 0.03 soft 6 2 2\n",
]


def _token(line: int, column: int, token: str):
    def edit(lines):
        parts = lines[line].split()
        parts[column] = token
        lines[line] = " ".join(parts) + "\n"
    return edit


def _insert(line: int, text: str):
    return lambda lines: lines.insert(line, text)


def _separators(line: int, sep: str):
    def edit(lines):
        lines[line] = sep.join(lines[line].split()) + "\n"
    return edit


# (case, edit, the (line, field) of the IngestError or None when the file reads)
_READER_CASES = [
    ("valid", lambda lines: None, None),
    ("underscore digits", _token(2, 5, "1_0"), None),
    ("arabic-indic digits", _token(3, 7, "٣.٥"), None),
    ("arabic-indic yaw", _token(3, 2, "٣"), None),
    ("fullwidth digit", _token(6, 6, "０"), None),
    ("yaw 5.0", _token(2, 2, "5.0"), (3, "yaw_index")),
    ("yaw -0", _token(4, 2, "-0"), None),
    ("hash token", _token(3, 6, "#"), (4, "features")),
    ("hash comment", lambda lines: lines.__setitem__(3, lines[3].rstrip("\n") + " # note\n"), (4, "features")),
    ("bad stiffness", _token(7, 4, "squishy"), (8, "action")),
    ("blank line in a block", _insert(3, "\n"), (4, "features")),
    ("blank line of spaces in a block", _insert(6, "   \n"), (7, "features")),
    ("task line in a block", _insert(3, "task c single m1 0 2\n"), (2, "n_records")),
    ("block cut short by EOF", lambda lines: lines.pop(), (6, "n_records")),
    ("zero-record task", _insert(5, "task z layers m3 0 2\n"), (6, "n_records")),
    ("zero-record task at the end", _insert(8, "task z single m3 0 0\n"), (9, "n_records")),
    ("tab separators", _separators(2, "\t"), None),
    ("form-feed separators", _separators(6, "\x0c"), None),
    ("mixed separators", _separators(4, " \t\x0b\x1f\xa0"), None),
    ("one record of another width", _token(4, 7, "1 2"), (5, "features")),
    ("every record of another width", lambda lines: lines.__setitem__(
        slice(6, 8), [line.rstrip("\n") + " 9\n" for line in lines[6:8]]), (7, "features")),
]


# the readable cases whose numbers only Python's float() reads, so a block goes line by line
_PYTHON_ONLY_NUMBERS = {"underscore digits", "arabic-indic digits", "fullwidth digit"}


@pytest.mark.parametrize("case, edit, fault", _READER_CASES, ids=[c[0] for c in _READER_CASES])
def test_read_database_blocks_equal_the_reference_reader(tmp_path, monkeypatch, case, edit, fault):
    """Each task's block is parsed in one C call, or line by line when the C
    parse refuses it; either way the values, or the IngestError's line and
    field, are the record-at-a-time reference reader's."""
    lines = list(_RECORD_LINES)
    edit(lines)
    path = tmp_path / "db.records.txt"
    path.write_text("".join(lines), encoding="utf-8")
    line_by_line = []
    parse_records = scoopgp.tasks._parse_records
    monkeypatch.setattr(scoopgp.tasks, "_parse_records",
                        lambda block, *args: line_by_line.append(len(block)) or parse_records(block, *args))
    if fault is not None:
        for reader in (read_database, reference_read_database):
            with pytest.raises(IngestError) as info:
                reader(str(path))
            assert (info.value.line, info.value.field) == fault, reader.__name__
        return
    datasets = read_database(str(path))
    assert_columns_equal_reference(datasets, reference_read_database(str(path)))
    # a block of records goes line by line only for a number that float() alone reads
    assert any(line_by_line) == (case in _PYTHON_ONLY_NUMBERS)
    if case == "yaw -0":
        # as float("-0") reads it; array_equal does not tell the zeros apart
        assert np.signbit(datasets[0].actions[2, 2])


def test_shared_interpolation_weights_equal_per_grid_interpolation(world):
    # random placements over and past the tray, and points on its clamped
    # border, against the per-action references built on the per-grid _bilinear
    rng = np.random.default_rng(17)
    n = 300
    scattered = np.column_stack([rng.uniform(-0.1, TRAY_W + 0.1, n), rng.uniform(-0.1, TRAY_H + 0.1, n),
                                 rng.integers(0, N_YAWS, n), rng.uniform(DEPTH_MIN, DEPTH_MAX, n),
                                 rng.integers(0, 2, n)])
    edges_x = (-0.1, 0.0, 0.5 * CELL, TRAY_W - 0.5 * CELL, TRAY_W, TRAY_W + 0.1)
    edges_y = (-0.1, 0.0, 0.5 * CELL, TRAY_H - 0.5 * CELL, TRAY_H, TRAY_H + 0.1)
    border = np.array([(x, y, k, DEPTH_MAX, k % 2) for x in edges_x for y in edges_y for k in range(N_YAWS)])
    actions = np.concatenate([scattered, border])
    for task in {t.composition: t for t in world.train_tasks + world.test_tasks}.values():
        assert np.array_equal(compute_features_batch(task, actions), reference_features(task, actions))
        assert np.array_equal(reward_oracle(task, actions), [reference_reward(task, a) for a in actions])


@pytest.mark.parametrize("task_id, composition, materials, match", [
    ("a b", "single", ("m1",), "task id"),
    ("", "single", ("m1",), "task id"),
    ("a\xa0b", "single", ("m1",), "task id"),
    ("t", "marble", ("m1",), "composition 'marble'"),
    ("t", "single", ("m 1",), "material ids"),
    ("t", "single", ("",), "material ids"),
    ("t", "mixture", ("m1", "m\t2"), "material ids"),
    ("t", "mixture", ("m1", "m,2"), "contains ','"),
    ("good", "single", ("m1",), "duplicate"),
])
def test_write_database_refuses_header_fields_the_reader_would_reject(tmp_path, task_id, composition,
                                                                     materials, match):
    """No records file gets a header line the reader rejects: TaskDataset
    refuses every rule of one task's header when it is built, and
    write_database the one rule across tasks, a repeated task id."""
    good = toy_dataset("good", [[1.0], [2.0]], [3.0, 4.0])
    if match != "duplicate":
        with pytest.raises(ValueError, match=match):
            toy_dataset(task_id, [[1.0]], [2.0], composition, materials)
        return
    bad = toy_dataset(task_id, [[1.0]], [2.0], composition, materials)
    with pytest.raises(ValueError, match=f"task {re.escape(repr(task_id))} is a duplicate"):
        write_database(str(tmp_path / "db"), [good, bad])
    assert list(tmp_path.iterdir()) == []


def test_ids_with_other_punctuation_round_trip(tmp_path):
    ids = [("t-1.a_b:c/d'e\"f(g)[h]{i}", ("m.1", "m-2;x")), ("ü#7=+", ("mat|ü", "m@3", "#")),
           ("task", ("task",))]
    written = [toy_dataset(task_id, [[0.5, 1.5]], [2.0], "partition" if len(mats) == 2 else "single", mats)
               for task_id, mats in ids]
    write_database(str(tmp_path / "db"), written)
    back = read_database(str(tmp_path / "db"))
    assert [(ds.task_id, ds.material_ids) for ds in back] == ids
    assert_columns_equal_reference(back, reference_read_database(str(tmp_path / "db")))


def test_read_database_refuses_an_empty_dataset(tmp_path):
    empty = str(tmp_path / "empty")
    open(empty + ".records.txt", "w").close()
    with pytest.raises(IngestError):
        read_database(empty)
    # write_database refuses both files below, so they are written by hand
    with open(empty + ".records.txt", "w") as fh:
        fh.write(f"{RECORDS_HEADER}\n")
    with pytest.raises(IngestError, match="dataset is empty"):
        read_database(empty)
    # a task that declares no records is refused at its header line, before its next task
    with open(empty + ".records.txt", "w") as fh:
        fh.write(f"{RECORDS_HEADER}\ntask t0 single matA 0 3\ntask t1 single matA 1 0\n0.1 0.1 0 0.05 soft 1\n")
    with pytest.raises(IngestError, match="t0 has no records") as info:
        read_database(empty)
    assert (info.value.line, info.value.field) == (2, "n_records")


@pytest.mark.parametrize("n_tasks", [0, 1, 3])
def test_write_database_refuses_a_dataset_without_records(tmp_path, n_tasks):
    # a zero-record task cannot be built, so a dataset without records is an empty list
    for i in range(n_tasks):
        with pytest.raises(ValueError, match=f"t{i} has no records: n_records"):
            toy_dataset(f"t{i}", np.empty((0, 3)), [])
    with pytest.raises(ValueError, match="no tasks"):
        write_database(str(tmp_path / "db"), [])
    assert list(tmp_path.iterdir()) == []
    # one task of one record is a dataset the reader accepts
    write_database(str(tmp_path / "db"), [toy_dataset("last", [[1.0, 2.0, 3.0]], [4.0])])
    assert [len(ds) for ds in read_database(str(tmp_path / "db"))] == [1]


def test_terrain_bundle_round_trip(tmp_path, world):
    path = str(tmp_path / "terrains.bin")
    tasks = list(world.train_tasks[:2]) + [t for t in world.test_tasks if t.hidden_map is not None][:1]
    save_terrains(path, tasks)
    loaded = load_terrains(path)
    assert [t.id for t in loaded] == [t.id for t in tasks]
    for orig, back in zip(tasks, loaded):
        assert back.composition == orig.composition
        assert back.material_ids == orig.material_ids
        assert np.array_equal(back.heightmap, orig.heightmap)
        assert np.array_equal(back.region_map, orig.region_map)
        if orig.hidden_map is None:
            assert back.hidden_map is None
        else:
            assert np.array_equal(back.hidden_map, orig.hidden_map)
        for m_orig, m_back in zip(orig.materials, back.materials):
            assert np.array_equal(m_orig.latent, m_back.latent)
            assert np.array_equal(m_orig.appearance, m_back.appearance)
    with pytest.raises(SerializationError):
        load_terrains(__file__)

    # the streamed file is container_bytes, also for the blocks the writer converts: a
    # non-contiguous float block, an int64 one, a bool one and a big-endian float one
    blocks = [np.arange(12.0).reshape(3, 4)[:, ::2], np.arange(-3, 3), np.array([[True, False, True]]),
              np.arange(3.0, dtype=">f8")]
    write_container(path, "probe", {"k": 1}, blocks)
    with open(path, "rb") as fh:
        data = fh.read()
    assert data == container_bytes("probe", {"k": 1}, blocks)
    assert data.split(b"\n", 1)[1] == b"".join(
        np.asarray(b, dtype="<f8" if b.dtype.kind == "f" else "<i8").tobytes() for b in blocks)
    _, back = read_container(path, "probe")
    assert all(np.array_equal(got, orig) for got, orig in zip(back, blocks))


@pytest.mark.parametrize("writer", ["save_terrains", "write_database"])
def test_writers_stream_their_files_rather_than_build_them(tmp_path, writer):
    """A writer formats and writes its file part by part: on a 20-task family
    its traced peak stays under a quarter of the bytes it writes (building
    the whole file first peaks above three times them)."""
    g = GenConfig()
    pool = generate_materials(g.n_train_materials, g.n_ood_materials, g.rho, 3)
    tasks, datasets = sample_task_family(pool, 20, 100, 3)
    terrains = str(tmp_path / "t.bin")
    write = {"save_terrains": lambda: save_terrains(terrains, tasks) or (terrains,),
             "write_database": lambda: write_database(str(tmp_path / "db"), datasets)}[writer]
    tracemalloc.start()
    try:
        paths = write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(os.path.getsize(p) for p in paths)
    assert peak < written / 4, f"{writer} peaked at {peak} bytes writing {written}"


def test_load_terrains_reads_blocks_straight_into_their_arrays(tmp_path):
    """A bundle's blocks are read into their arrays, not copied out of the
    file's bytes: on a 20-task family the traced peak stays within 1.2x the
    file (holding the bytes beside the blocks peaks at 2x)."""
    g = GenConfig()
    pool = generate_materials(g.n_train_materials, g.n_ood_materials, g.rho, 3)
    tasks, _ = sample_task_family(pool, 20, 10, 3)
    path = str(tmp_path / "t.bin")
    save_terrains(path, tasks)
    tracemalloc.start()
    try:
        loaded = load_terrains(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(tasks)
    size = os.path.getsize(path)
    assert peak <= 1.2 * size, f"load_terrains peaked at {peak} bytes reading {size}"


def test_terrain_bundle_without_material_ids_is_a_serialization_error(tmp_path, world):
    path = str(tmp_path / "terrains.bin")
    save_terrains(path, list(world.train_tasks[:1]))
    meta, blocks = read_container(path, "terrains")
    del meta["material_ids"]
    write_container(path, "terrains", meta, blocks)
    with pytest.raises(SerializationError, match="material_ids"):
        load_terrains(path)


@pytest.mark.parametrize("change, message", [("cell", "cell 0.02"), ("appearance_dim", "appearance_dim 4"),
                                             ("appearance_block", r"appearance must have shape \(3,\)")])
def test_terrain_bundle_from_another_rig_is_a_serialization_error(tmp_path, world, change, message):
    path = str(tmp_path / "terrains.bin")
    save_terrains(path, list(world.train_tasks[:1]))
    meta, blocks = read_container(path, "terrains")
    if change == "appearance_block":
        blocks[1] = np.hstack([blocks[1], blocks[1][:, :1]])
    else:
        meta[change] = {"cell": 0.02, "appearance_dim": 4}[change]
    write_container(path, "terrains", meta, blocks)
    with pytest.raises(SerializationError, match=message):
        load_terrains(path)


@pytest.mark.parametrize("change", ["subsampled", "shape_entry"])
def test_terrain_bundle_whose_grids_miss_the_tray_grid_is_a_serialization_error(tmp_path, world, change):
    path = str(tmp_path / "terrains.bin")
    layered = [t for t in world.test_tasks if t.hidden_map is not None][:1]
    save_terrains(path, list(world.train_tasks[:1]) + layered)
    meta, blocks = read_container(path, "terrains")
    if change == "subsampled":
        # the layered task's heightmap, region and hidden blocks, every other row and column
        blocks[-3:] = [b[::2, ::2].copy() for b in blocks[-3:]]
        meta["tasks"][-1]["shape"] = list(blocks[-1].shape)
    else:
        meta["tasks"][0]["shape"] = [30, 45]
    write_container(path, "terrains", meta, blocks)
    with pytest.raises(SerializationError, match="the tray grid is"):
        load_terrains(path)


class _HalfWriter:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def _writers():
    from scoopgp.bench import DeployReport, DeployRow, MaeReport, MaeRow, write_deploy_report, write_mae_report
    from scoopgp.gp import save_model

    def mae(v):
        return MaeReport("kshot-mae", v, "c0", 1, (0,), (MaeRow("t0", 0, 1.0 + v, 2.0),))

    def database(path, v):
        write_database(path, [toy_dataset(f"t{v}", np.full((v + 2, 3), float(v)), np.arange(v + 2.0))])

    def terrains(path, v):
        save_terrains(path, [generate_task(f"t{v}", generate_materials(2, 0, 0.7, v).training, "mixture", v)])

    return {
        "container": lambda path, v: write_container(path, "x", {"v": v}, [np.arange(10.0 * v)]),
        "model": lambda path, v: save_model(path, random_model(3, seed=v)),
        "mae-report": lambda path, v: write_mae_report(path, mae(v)),
        "deploy-report": lambda path, v: write_deploy_report(
            path, DeployReport("ucb", v, "c0", 5, 1, (DeployRow("t0", 0, v, True),))),
        "database": database,
        "terrains": terrains,
    }


@pytest.mark.parametrize("writer", sorted(_writers()))
def test_a_write_failing_midway_leaves_the_old_file_intact(tmp_path, monkeypatch, writer):
    write = _writers()[writer]
    path = str(tmp_path / "artifact")
    write(path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(scoopgp.serialize, "open", lambda p, mode: _HalfWriter(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="no space"):
        write(path, 2)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    write(path, 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} != before


def test_write_atomic_whose_parts_fail_midway_leaves_every_target_as_it_was(tmp_path):
    paths = [str(tmp_path / name) for name in ("a.txt", "b.txt")]
    for path in paths:
        with open(path, "w") as fh:
            fh.write(f"old {path}")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def parts():
        yield "first part\n"
        raise RuntimeError("part two failed")

    with pytest.raises(RuntimeError, match="part two failed"):
        scoopgp.serialize.write_atomic({paths[0]: "new a", paths[1]: parts()})
    # the complete temporary of a.txt is not moved over it either, and neither temporary is left behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_database_write_failing_midstream_keeps_the_old_records_file(tmp_path):
    prefix = str(tmp_path / "db")
    write_database(prefix, [toy_dataset("t1", np.ones((3, 3)), np.arange(3.0))])
    with open(prefix + ".records.txt", "rb") as fh:
        old = fh.read()

    def datasets():
        yield toy_dataset("t2", np.zeros((4, 3)), np.arange(4.0))
        raise OSError("the source of the next task failed")

    with pytest.raises(OSError, match="next task failed"):
        write_database(prefix, datasets())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.records.txt"]
    with open(prefix + ".records.txt", "rb") as fh:
        assert fh.read() == old
    back = read_database(prefix)
    assert [ds.task_id for ds in back] == ["t1"]
    assert np.array_equal(back[0].rewards(), np.arange(3.0))


def test_task_dataset_validation():
    actions = np.tile([0.1, 0.1, 0, 0.05, 0.0], (2, 1))
    with pytest.raises(ValueError, match="material_ids"):
        TaskDataset("t", "single", (), actions, [1.0, 1.0], np.zeros((2, 3)))
    for cols in ((actions[:, :4], [1.0, 1.0], np.zeros((2, 3))), (actions, [1.0], np.zeros((2, 3))),
                 (actions, [1.0, 1.0], np.zeros((3, 3))), (actions, [1.0, 1.0], np.zeros(6)),
                 (actions, [[1.0, 1.0]], np.zeros((1, 3)))):
        with pytest.raises(ValueError, match="are not"):
            TaskDataset("t", "single", ("a",), *cols)
    # zero rows of any feature width break the header's n_records rule
    for width in (0, 3):
        with pytest.raises(ValueError, match="n_records") as info:
            TaskDataset("t", "single", ["a"], np.empty((0, 5)), [], np.empty((0, width)))
        assert (info.value.field, info.value.row) == ("n_records", -1)

    # each column rule names the first row that breaks it, with the message of the per-value rules
    for column, value, message in ((0, 1.5, r"scoop start \(1.5, 0.1\) outside the tray"),
                                   (0, -0.1, r"scoop start \(-0.1, 0.1\) outside the tray"),
                                   (1, -0.1, r"scoop start \(0.1, -0.1\) outside the tray"),
                                   (2, 8.0, r"yaw_index must be in \[0, 8\), got 8$"),
                                   (2, 2.5, r"yaw_index must be in \[0, 8\), got 2.5"),
                                   (2, np.inf, r"got inf"),
                                   (3, 0.2, r"depth 0.2 outside \[0.03, 0.08\]"),
                                   (3, 0.02, r"depth 0.02 outside \[0.03, 0.08\]"),
                                   (4, 0.5, r"stiffness must be one of \('soft', 'hard'\), got 0.5")):
        bad = np.tile([0.1, 0.1, 0, 0.05, 0.0], (4, 1))
        bad[2:, column] = value
        with pytest.raises(ValueError, match=message) as info:
            TaskDataset("t", "single", ("a",), bad, np.ones(4), np.zeros((4, 3)))
        assert (info.value.row, info.value.field) == (2, "action")
    for x, y, yaw, depth in ((1.5, 0.1, 0, 0.05), (0.1, -0.1, 0, 0.05), (0.1, 0.1, 8, 0.05), (0.1, 0.1, 0, 0.2)):
        with pytest.raises(ValueError) as scalar:
            reference_action(x, y, yaw, depth, "soft")
        with pytest.raises(ValueError) as column:
            TaskDataset("t", "single", ("a",), [[x, y, yaw, depth, 0.0]], [1.0], [[0.0]])
        assert str(column.value) == str(scalar.value)

    for value in (np.nan, np.inf, -np.inf):
        feats = np.zeros((3, 4))
        feats[1, 2] = value
        with pytest.raises(ValueError, match=f"feature 2 is {value}, must be finite") as info:
            TaskDataset("t", "single", ("a",), np.tile(actions[0], (3, 1)), np.ones(3), feats)
        assert (info.value.row, info.value.field) == (1, "features")


