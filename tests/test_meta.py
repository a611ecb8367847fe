"""Meta-training: supervised means, fold splits, residual kernels, pipelines."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scoopgp.config import ModelConfig, TrainConfig
from scoopgp.errors import ConfigError
from scoopgp.gp import mean_eval_batch, model_to_bytes, posterior_batch
from scoopgp.meta import (
    NOISE_FLOOR,
    MeanResult,
    ResidualGroup,
    TrainingReport,
    build_residual_dataset,
    make_fold_splits,
    train_codega,
    train_dkmt,
    train_kernel_codega,
    train_mean,
    _mean_predict,
)
from scoopgp.nnet import ParamVector, forward_batch

from helpers import identity_params, toy_dataset


def _linear_toys(seed, n=120, w=(3.0, -2.0, 1.0), shift=20.0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 3))
    y = shift + X @ np.asarray(w)
    if noise:
        y = y + rng.normal(scale=noise, size=n)
    half = n // 2
    return [
        toy_dataset("lin0", X[:half], y[:half]),
        toy_dataset("lin1", X[half:], y[half:]),
    ]


_SMALL_MODEL = ModelConfig(
    feature_hidden=((16, "relu"),),
    feature_dim=8,
    mean_hidden=((8, "relu"),),
    kernel_hidden=(),
    embed_dim=4,
)


# ---------------------------------------------------------------------------
# supervised mean

def test_mean_fits_a_constant():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(100, 3))
    y = np.full(100, 40.0)
    datasets = [toy_dataset("c0", X[:50], y[:50]), toy_dataset("c1", X[50:], y[50:])]
    cfg = TrainConfig(max_epochs_mean=300, patience=20)
    res = train_mean(datasets, seed=0, model_cfg=_SMALL_MODEL, train_cfg=cfg)
    fspec = _SMALL_MODEL.feature_spec(5)
    mspec = _SMALL_MODEL.mean_spec()
    pool = np.concatenate([ds.gp_inputs() for ds in datasets])
    pred = _mean_predict(fspec, res.feature_params, mspec, res.mean_params, pool)
    assert np.mean((pred - 40.0) ** 2) < 1e-3 * 40.0**2
    assert np.abs(pred - 40.0).max() < 4.0


def test_mean_matches_the_least_squares_oracle_on_linear_targets():
    datasets = _linear_toys(seed=1, noise=0.1)
    pool_X = np.concatenate([ds.gp_inputs() for ds in datasets])
    pool_y = np.concatenate([ds.rewards() for ds in datasets])
    design = np.column_stack([pool_X, np.ones(len(pool_y))])
    coef, _, _, _ = np.linalg.lstsq(design, pool_y, rcond=None)
    lstsq_mse = float(np.mean((design @ coef - pool_y) ** 2))

    # identity activations end to end, so the stack is affine and the
    # least-squares optimum is representable
    model_cfg = ModelConfig(feature_hidden=(), feature_dim=4, mean_hidden=(), kernel_hidden=(), embed_dim=2)
    cfg = TrainConfig(max_epochs_mean=400, patience=30)
    res = train_mean(datasets, seed=2, model_cfg=model_cfg, train_cfg=cfg)
    fspec = model_cfg.feature_spec(5)
    mspec = model_cfg.mean_spec()
    pred = _mean_predict(fspec, res.feature_params, mspec, res.mean_params, pool_X)
    net_mse = float(np.mean((pred - pool_y) ** 2))
    assert net_mse >= lstsq_mse - 1e-9
    assert net_mse < 2.5 * lstsq_mse


def test_mean_seeds_change_parameters_not_quality():
    datasets = _linear_toys(seed=3, noise=0.1)
    cfg = TrainConfig(max_epochs_mean=200, patience=15)
    res_a = train_mean(datasets, seed=10, model_cfg=_SMALL_MODEL, train_cfg=cfg)
    res_b = train_mean(datasets, seed=11, model_cfg=_SMALL_MODEL, train_cfg=cfg)
    assert not np.array_equal(res_a.feature_params.values, res_b.feature_params.values)
    fspec = _SMALL_MODEL.feature_spec(5)
    mspec = _SMALL_MODEL.mean_spec()
    X = np.concatenate([ds.gp_inputs() for ds in datasets])
    y = np.concatenate([ds.rewards() for ds in datasets])
    for res in (res_a, res_b):
        pred = _mean_predict(fspec, res.feature_params, mspec, res.mean_params, X)
        # both seeds land near the 0.1-noise floor on the pooled data
        assert np.mean((pred - y) ** 2) < 0.05


def test_mean_restores_the_best_validation_epoch():
    datasets = _linear_toys(seed=4, noise=0.3)
    res = train_mean(datasets, seed=5, model_cfg=_SMALL_MODEL,
                     train_cfg=TrainConfig(max_epochs_mean=60, patience=3))
    report = res.report
    vals = [e.val_loss for e in report.entries]
    assert report.entries[report.best_epoch - 1].val_loss == min(vals)
    text = report.to_text()
    assert f"# best_epoch {report.best_epoch}" in text
    assert len(text.strip().splitlines()) == 3 + len(report.entries)


def test_mean_requires_data():
    with pytest.raises(ValueError):
        train_mean([], seed=0)
    with pytest.raises(ValueError, match="at least two records"):
        train_mean([_one_record_task("e", ["m"])], seed=0)


# ---------------------------------------------------------------------------
# fold splits

def _one_record_task(task_id, materials):
    return toy_dataset(task_id, [[0.0]], [1.0], materials=tuple(materials))


def test_single_material_tasks_split_into_singleton_folds():
    datasets = [_one_record_task(f"t{i}", [m]) for i, m in enumerate("abcd")]
    splits = make_fold_splits(datasets, folds=4, seed=0)
    assert len(splits) == 4
    buckets = [s.materials for s in splits]
    assert all(len(b) == 1 for b in buckets)
    assert set().union(*buckets) == set("abcd")
    for split in splits:
        for ds in datasets:
            touches = bool(set(ds.material_ids) & split.materials)
            assert (ds.task_id in split.kernel_task_ids) == touches
            assert (ds.task_id in split.mean_task_ids) == (not touches)


def test_fold_split_argument_validation():
    datasets = [_one_record_task("t0", ["a"]), _one_record_task("t1", ["b"])]
    with pytest.raises(ValueError):
        make_fold_splits(datasets, folds=1, seed=0)
    with pytest.raises(ValueError):
        make_fold_splits(datasets, folds=3, seed=0)


def test_fold_split_is_deterministic():
    datasets = [_one_record_task(f"t{i}", [f"m{i % 5}", f"m{(i + 2) % 5}"]) for i in range(8)]
    a = make_fold_splits(datasets, folds=3, seed=9)
    b = make_fold_splits(datasets, folds=3, seed=9)
    assert a == b


@st.composite
def _material_families(draw):
    n_mats = draw(st.integers(2, 6))
    universe = [f"m{i}" for i in range(n_mats)]
    tasks = draw(st.lists(
        st.lists(st.sampled_from(universe), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=8,
    ))
    used = sorted({m for mats in tasks for m in mats})
    assume(len(used) >= 2)
    folds = draw(st.integers(2, len(used)))
    return tasks, folds


@given(_material_families())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fold_membership_matches_brute_force(family):
    tasks, folds = family
    datasets = [_one_record_task(f"t{i}", mats) for i, mats in enumerate(tasks)]
    splits = make_fold_splits(datasets, folds=folds, seed=13)
    used = {m for ds in datasets for m in ds.material_ids}

    buckets = [s.materials for s in splits]
    assert set().union(*buckets) == used
    for i, a in enumerate(buckets):
        for b in buckets[i + 1:]:
            assert not (a & b)

    for split in splits:
        for ds in datasets:
            touches = bool(set(ds.material_ids) & split.materials)
            assert (ds.task_id in split.kernel_task_ids) == touches
            assert (ds.task_id in split.mean_task_ids) == (not touches)

    # every task donates residuals somewhere
    covered = set().union(*(set(s.kernel_task_ids) for s in splits))
    assert covered == {ds.task_id for ds in datasets}


# ---------------------------------------------------------------------------
# residual collection

def test_residuals_recompute_from_the_stored_checkpoints(world, fast_train):
    splits = make_fold_splits(world.train_sets, folds=3, seed=5)
    residuals, checkpoints = build_residual_dataset(splits, world.train_sets, seed=5, train_cfg=fast_train)
    by_id = {ds.task_id: ds for ds in world.train_sets}
    kernel_ids = {s.fold_index: set(s.kernel_task_ids) for s in splits}
    model_cfg = ModelConfig()
    fspec = model_cfg.feature_spec(world.train_sets[0].feature_dim + 2)
    mspec = model_cfg.mean_spec()
    assert residuals
    for g in residuals:
        assert g.task_id in kernel_ids[g.fold_index]
        ds = by_id[g.task_id]
        ck = checkpoints[g.fold_index]
        assert np.array_equal(g.inputs, ds.gp_inputs())
        expect = ds.rewards() - _mean_predict(fspec, ck.feature_params, mspec, ck.mean_params, g.inputs)
        assert np.allclose(g.residuals, expect, atol=1e-10)
    # pooled, the groups hold one residual per record of every fold's kernel set
    pooled = np.concatenate([g.residuals for g in residuals])
    assert len(pooled) == sum(len(by_id[t]) for s in splits for t in s.kernel_task_ids)


def test_residual_collection_rejects_starved_folds():
    datasets = [toy_dataset(f"t{i}", np.random.default_rng(i).uniform(size=(4, 3)),
                            np.full(4, 5.0), materials=("A", "B")) for i in range(3)]
    splits = make_fold_splits(datasets, folds=2, seed=0)
    with pytest.raises(ConfigError, match="no mean-training tasks"):
        build_residual_dataset(splits, datasets, seed=0)


# ---------------------------------------------------------------------------
# kernel training on residual groups

_ID_MODEL = ModelConfig(feature_hidden=(), feature_dim=4, mean_hidden=(), kernel_hidden=(), embed_dim=4)


def _identity_checkpoint(model_cfg, input_dim):
    fspec = model_cfg.feature_spec(input_dim)
    mspec = model_cfg.mean_spec()
    return MeanResult(
        feature_params=identity_params(fspec),
        mean_params=ParamVector(np.zeros(mspec.param_count()), mspec.param_layout()),
        report=TrainingReport("stub", (), 0),
    )


def test_zero_residuals_drive_noise_to_the_floor():
    rng = np.random.default_rng(6)
    groups = tuple(
        ResidualGroup(f"t{i}", 0, rng.normal(size=(20, 4)), np.zeros(20)) for i in range(2)
    )
    checkpoints = {0: _identity_checkpoint(_ID_MODEL, 4)}
    cfg = TrainConfig(lr_kernel=0.3, max_epochs_kernel=80, patience=80)
    kr = train_kernel_codega(groups, checkpoints, seed=7,
                             model_cfg=_ID_MODEL, train_cfg=cfg)
    assert kr.log_noise == math.log(NOISE_FLOOR)
    assert kr.log_outputscale < math.log(1e-4)


def test_small_groups_are_skipped_and_empty_sets_rejected(caplog):
    rng = np.random.default_rng(8)
    groups = tuple([
        ResidualGroup("tiny", 0, rng.normal(size=(1, 4)), rng.normal(size=1)),
        ResidualGroup("full", 0, rng.normal(size=(12, 4)), rng.normal(size=12)),
    ])
    checkpoints = {0: _identity_checkpoint(_ID_MODEL, 4)}
    cfg = TrainConfig(max_epochs_kernel=3, patience=3)
    kr = train_kernel_codega(groups, checkpoints, seed=9,
                             model_cfg=_ID_MODEL, train_cfg=cfg)
    assert kr.report.entries
    assert [r.getMessage() for r in caplog.records if r.name == "scoopgp" and r.levelno == logging.WARNING] \
        == ["[kernel] skipping task tiny (fold 0): 1 residuals < min_group_size 2"]
    only_tiny = groups[:1]
    with pytest.raises(ValueError, match="min_group_size"):
        train_kernel_codega(only_tiny, checkpoints, seed=9, model_cfg=_ID_MODEL, train_cfg=cfg)


def _kernel_matrix(kr, inputs):
    """The learned kernel on inputs, through _ID_MODEL's identity extractor."""
    Z = forward_batch(_ID_MODEL.kernel_spec(), kr.kernel_params, inputs)
    D2 = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1)
    return math.exp(kr.log_outputscale) * np.exp(-0.5 * D2 * math.exp(-2.0 * kr.log_lengthscale))


def test_kernel_training_recovers_a_known_lengthscale():
    rng = np.random.default_rng(10)
    inputs = {f"t{i}": rng.normal(size=(48, 4)) for i in range(5)}
    checkpoints = {0: _identity_checkpoint(_ID_MODEL, 4)}
    # zero epochs return the seeded initial head, which draws the data
    probe = tuple(ResidualGroup(t, 0, X, np.zeros(len(X))) for t, X in inputs.items())
    kernel = train_kernel_codega(probe, checkpoints, seed=21, model_cfg=_ID_MODEL,
                                 train_cfg=TrainConfig(max_epochs_kernel=0)).kernel_params

    kspec = _ID_MODEL.kernel_spec()
    embeds = {t: forward_batch(kspec, kernel, X) for t, X in inputs.items()}
    pooled = np.concatenate(list(embeds.values()))
    diffs = pooled[:, None, :] - pooled[None, :, :]
    dists = np.sqrt((diffs**2).sum(-1))
    true_ls = 0.5 * float(np.median(dists[np.triu_indices(len(pooled), k=1)]))
    tau = 0.05

    groups = []
    for tid, E in embeds.items():
        D2 = ((E[:, None, :] - E[None, :, :]) ** 2).sum(-1)
        K = np.exp(-0.5 * D2 / true_ls**2) + tau**2 * np.eye(len(E))
        y = np.linalg.cholesky(K) @ rng.normal(size=len(E))
        groups.append(ResidualGroup(tid, 0, inputs[tid], y))

    cfg = TrainConfig(lr_kernel=0.02, max_epochs_kernel=150, patience=10)
    kr = train_kernel_codega(tuple(groups), checkpoints, seed=21,
                             model_cfg=_ID_MODEL, train_cfg=cfg)
    # the head trains with the lengthscale, so only their joint kernel is
    # identifiable: compare it with the generating one on the pooled inputs
    assert 0.3 < math.exp(kr.log_outputscale) < 3.0
    assert math.exp(kr.log_noise) < 3.0 * tau
    X = np.concatenate(list(inputs.values()))
    K_true = np.exp(-0.5 * dists**2 / true_ls**2)
    assert np.linalg.norm(_kernel_matrix(kr, X) - K_true) < 0.5 * np.linalg.norm(K_true)


def test_each_residual_group_trains_on_its_own_residuals():
    # a task whose materials fall in two folds has one group per fold, with
    # the same task id, its fold's extractor and that fold's residuals
    rng = np.random.default_rng(14)
    X = rng.normal(size=(16, 4))
    fold1 = _identity_checkpoint(_ID_MODEL, 4)
    fold1 = MeanResult(fold1.feature_params.replace_values(2.0 * fold1.feature_params.values),
                       fold1.mean_params, fold1.report)
    checkpoints = {0: _identity_checkpoint(_ID_MODEL, 4), 1: fold1}
    r0, r1 = rng.normal(size=16), 3.0 * rng.normal(size=16)
    cfg = TrainConfig(max_epochs_kernel=5, patience=5)

    def train(id0, id1):
        groups = (ResidualGroup(id0, 0, X, r0), ResidualGroup(id1, 1, X, r1))
        return train_kernel_codega(groups, checkpoints, seed=15, model_cfg=_ID_MODEL, train_cfg=cfg)

    shared, distinct = train("t0", "t0"), train("t0", "t1")
    assert np.array_equal(shared.kernel_params.values, distinct.kernel_params.values)
    assert (shared.log_lengthscale, shared.log_outputscale, shared.log_noise) == \
        (distinct.log_lengthscale, distinct.log_outputscale, distinct.log_noise)
    assert shared.report.to_text() == distinct.report.to_text()


# ---------------------------------------------------------------------------
# full pipelines

def test_codega_pipeline_is_deterministic(world, fast_train, codega_result):
    again = train_codega(world.train_sets, seed=0, train_cfg=fast_train)
    assert model_to_bytes(again.model) == model_to_bytes(codega_result.model)


def test_codega_splits_cover_the_family(world, codega_result):
    all_ids = {ds.task_id for ds in world.train_sets}
    covered = set()
    for split in codega_result.splits:
        kernel, mean = set(split.kernel_task_ids), set(split.mean_task_ids)
        assert kernel | mean == all_ids
        assert not (kernel & mean)
        covered |= kernel
        for ds in world.train_sets:
            touches = bool(set(ds.material_ids) & split.materials)
            assert (ds.task_id in kernel) == touches
    assert covered == all_ids
    assert sorted(codega_result.fold_checkpoints) == [s.fold_index for s in codega_result.splits]


def test_codega_final_mean_is_a_fresh_supervised_fit(world, fast_train, codega_result):
    ss = np.random.SeedSequence([0, 0xC0DE6A])
    seeds = [int(c.generate_state(1)[0]) for c in ss.spawn(4)]
    mean_seed = int(np.random.SeedSequence([seeds[1] & 0xFFFFFFFF, 0x2E51D]).generate_state(1)[0])
    final = train_mean(world.train_sets, mean_seed, ModelConfig(), fast_train, label="final-mean")
    assert np.array_equal(final.feature_params.values, codega_result.model.feature_params.values)
    assert np.array_equal(final.mean_params.values, codega_result.model.mean_params.values)
    assert codega_result.mean_report.label == "final-mean"


def test_codega_reports_track_their_optima(codega_result):
    kr = codega_result.kernel_report
    trains = [e.train_loss for e in kr.entries]
    assert kr.entries[kr.best_epoch - 1].train_loss == min(trains)
    mr = codega_result.mean_report
    vals = [e.val_loss for e in mr.entries]
    assert mr.entries[mr.best_epoch - 1].val_loss == min(vals)


def test_codega_support_shrinks_posterior_variance(world, codega_result):
    model = codega_result.model
    ds = world.test_sets[0]
    X = ds.gp_inputs()
    Xs, ys = X[:8], ds.rewards()[:8]
    prior = model.outputscale + model.noise_std**2
    _, var_support = posterior_batch(model, Xs, ys, Xs)
    _, var_other = posterior_batch(model, Xs, ys, X[8:])
    assert var_support.mean() < var_other.mean()
    assert var_support.mean() < 0.5 * prior


def test_dkmt_pipeline_is_deterministic(world, fast_train, dkmt_result):
    again = train_dkmt(world.train_sets, seed=0, train_cfg=fast_train)
    assert model_to_bytes(again.model) == model_to_bytes(dkmt_result.model)


def test_trained_kernel_heads_keep_a_zero_output_bias(codega_result, dkmt_result):
    # the RBF kernel cannot see a common shift of the embeddings, so the
    # kernel head's output bias gets an exactly zero gradient and stays at
    # its initial zero under Adam
    for model in (codega_result.model, dkmt_result.model):
        k = model.kernel_spec.output_dim
        assert np.all(model.kernel_params.values[-k:] == 0.0)


def test_dkmt_learns_a_constant_mean():
    rng = np.random.default_rng(12)
    datasets = [
        toy_dataset(f"c{i}", rng.uniform(size=(24, 3)), np.full(24, 7.0))
        for i in range(2)
    ]
    cfg = TrainConfig(lr_kernel=0.05, max_epochs_kernel=80, patience=80)
    res = train_dkmt(datasets, seed=13, model_cfg=_SMALL_MODEL, train_cfg=cfg)
    pred = mean_eval_batch(res.model, np.concatenate([ds.gp_inputs() for ds in datasets]))
    assert np.abs(pred - 7.0).mean() < 1.5
    assert res.model.log_noise >= math.log(NOISE_FLOOR) - 1e-12


def test_dkmt_tracks_its_optimum_and_rejects_empty_input(dkmt_result, caplog):
    report = dkmt_result.report
    trains = [e.train_loss for e in report.entries]
    assert report.entries[report.best_epoch - 1].train_loss == min(trains)
    with pytest.raises(ValueError, match="min_group_size"):
        train_dkmt([_one_record_task("s", ["m"])])
    assert [r.getMessage() for r in caplog.records if r.name == "scoopgp" and r.levelno == logging.WARNING] \
        == ["[joint] skipping task s: 1 records < min_group_size 2"]
