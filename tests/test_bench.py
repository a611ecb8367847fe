"""Evaluation protocols: k-shot MAE, simulated deployment, report files."""

import numpy as np
import pytest
from scipy.stats import binomtest

import scoopgp.bench
import scoopgp.gp
from scoopgp.bench import (
    THRESHOLD_RANK,
    TOP_K,
    DeployReport,
    DeployRow,
    MaeReport,
    MaeRow,
    _support_order,
    deployment_threshold,
    eval_kshot_mae,
    eval_simulated_deployment,
    mean_model_mae,
    paired_sign_test,
    pool_mae_reports,
    query_split,
    read_deploy_report,
    read_mae_report,
    render_deploy_table,
    render_mae_table,
    write_deploy_report,
    write_mae_report,
)
from scoopgp.config import RunConfig, apply_overrides, seed_sequence
from scoopgp.decide import run_deployment
from scoopgp.errors import ConfigError, IngestError
from scoopgp.gp import DeepGpModel, checkpoint_id, condition, embed, posterior_batch
from scoopgp.nnet import NetworkSpec
from scoopgp.tasks import TaskDataset, sample_ood_test_family

from helpers import (identity_params, params_from_layers, random_model, reference_kshot_mae,
                     reference_simulated_deployment, reward_dataset, toy_dataset)


def _linear_mean_model(d, w, bias=0.0):
    fspec = NetworkSpec(d, (), d)
    mspec = NetworkSpec(d, (), 1)
    kspec = NetworkSpec(d, (), d)
    W = np.asarray(w, dtype=np.float64).reshape(1, d)
    mean = params_from_layers(mspec, [(W, np.array([bias]))])
    return DeepGpModel(
        feature_spec=fspec, feature_params=identity_params(fspec),
        mean_spec=mspec, mean_params=mean,
        kernel_spec=kspec, kernel_params=identity_params(kspec),
        log_lengthscale=0.0, log_outputscale=0.0, log_noise=np.log(0.1),
    )


def _reward_dataset(rewards, task_id="bench0"):
    return reward_dataset(rewards, task_id, period=5)


# ---------------------------------------------------------------------------
# query splits

def test_query_split_is_deterministic_and_partitions():
    q1, p1 = query_split(seed=3, task_id="taskX", trial=2, n_records=24)
    q2, p2 = query_split(seed=3, task_id="taskX", trial=2, n_records=24)
    assert np.array_equal(q1, q2) and np.array_equal(p1, p2)
    assert len(q1) == 19 and len(p1) == 5
    assert sorted(np.concatenate([q1, p1]).tolist()) == list(range(24))

    q3, _ = query_split(seed=3, task_id="taskX", trial=3, n_records=24)
    assert not np.array_equal(q1, q3)
    q4, _ = query_split(seed=3, task_id="taskY", trial=2, n_records=24)
    assert not np.array_equal(q1, q4)

    q, p = query_split(seed=0, task_id="t", trial=0, n_records=2)
    assert len(q) == 1 and len(p) == 1


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, -1, 2 ** 40 + 5])
def test_seed_words_give_the_list_forms_entropy_and_draws(seed):
    # every seeding site builds its SeedSequence from one uint32 array; the
    # list form it replaced must give the same pool, state, draws and children
    for words in [(), (0x9E41,), (0xDE9107,), (2 ** 32 - 1, 0, 7), (0x51A9, 2 ** 32 - 1, 59, 0x9E41)]:
        fast, listed = seed_sequence(seed, *words), np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *words])
        assert np.array_equal(fast.pool, listed.pool)
        assert np.array_equal(fast.generate_state(4), listed.generate_state(4))
        assert np.array_equal(np.random.default_rng(fast).permutation(100),
                              np.random.default_rng(listed).permutation(100))
        for a, b in zip(fast.spawn(3), listed.spawn(3)):
            assert np.array_equal(a.generate_state(2), b.generate_state(2))
    for word in (-1, 2 ** 32, 2 ** 64, np.int64(-1)):
        with pytest.raises(ValueError, match="outside"):
            seed_sequence(seed, 1, word)


def test_support_order_shuffles_the_pool():
    pool = np.arange(40, 50)
    a = _support_order(seed=1, task_id="t", trial=0, pool=pool)
    b = _support_order(seed=1, task_id="t", trial=0, pool=pool)
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == pool.tolist()
    c = _support_order(seed=1, task_id="t", trial=1, pool=pool)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# k-shot protocol

def test_zero_shot_rows_equal_the_mean_model_protocol(world):
    model = random_model(16, seed=3)
    kshot = eval_kshot_mae(model, world.test_sets, shots=(0,), trials=5, seed=9)
    mean_only = mean_model_mae(model, world.test_sets, trials=5, seed=9)
    assert len(kshot.rows) == len(mean_only.rows)
    for rk, rm in zip(kshot.rows, mean_only.rows):
        assert rk.task_id == rm.task_id and rk.shot == rm.shot == 0
        assert rk.mae == rm.mae
        assert rk.top_mae == rm.top_mae
    assert kshot.aggregate(0) == mean_only.aggregate(0)
    assert kshot.label == "kshot-mae" and mean_only.label == "mean-only-mae"
    assert kshot.checkpoint == mean_only.checkpoint


def test_zero_shot_evaluation_runs_only_the_mean_head(world, monkeypatch):
    model = random_model(16, seed=3)
    expected = eval_kshot_mae(model, world.test_sets, shots=(0,), trials=3, seed=2)

    def unused(*args, **kwargs):
        raise AssertionError("a 0-shot evaluation formed a kernel embedding or Gram matrix")

    monkeypatch.setattr(scoopgp.gp, "embed_batch", unused)
    monkeypatch.setattr(scoopgp.bench, "kernel_matrix", unused)
    assert eval_kshot_mae(model, world.test_sets, shots=(0,), trials=3, seed=2) == expected
    assert mean_model_mae(model, world.test_sets, trials=3, seed=2).rows == expected.rows


def test_perfect_model_scores_zero_at_every_shot():
    rng = np.random.default_rng(4)
    datasets = [_reward_dataset(rng.uniform(1.0, 30.0, size=30), f"p{i}") for i in range(2)]
    model = _linear_mean_model(3, (10.0, 0.0, 0.0))
    report = eval_kshot_mae(model, datasets, shots=(0, 3, 5), trials=3, seed=0)
    assert len(report.rows) == 2 * 3
    for row in report.rows:
        assert row.mae < 1e-9
        assert row.top_mae < 1e-9


def test_kshot_report_matches_a_hand_computed_trial():
    # 12 records: 9 queries, so the top MAE averages over a strict subset of them
    rewards = np.array([4.0, 11.0, 7.0, 2.0, 9.0, 5.0, 14.0, 1.0, 8.0, 3.0, 12.0, 6.0])
    ds = _reward_dataset(rewards, "hand0")
    model = random_model(3, seed=8)
    shot, seed = 2, 31
    report = eval_kshot_mae(model, [ds], shots=(shot,), trials=1, seed=seed)

    X, y = ds.gp_inputs(), ds.rewards()
    q_idx, pool = query_split(seed, "hand0", 0, len(ds))
    order = _support_order(seed, "hand0", 0, pool)
    sup = order[:shot]
    mu, _ = posterior_batch(model, X[sup], y[sup], X[q_idx])
    err = np.abs(mu - y[q_idx])
    assert TOP_K == 5 and len(q_idx) == 9
    top_idx = np.argsort(-y[q_idx])[:TOP_K]
    assert report.rows[0].mae == pytest.approx(err.mean(), abs=1e-12)
    assert report.rows[0].top_mae == pytest.approx(err[top_idx].mean(), abs=1e-12)


def test_kshot_validates_pool_and_record_counts():
    model = _linear_mean_model(3, (10.0, 0.0, 0.0))
    small = _reward_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="exceed"):
        eval_kshot_mae(model, [small], shots=(0, 3), trials=1)
    lone = _reward_dataset([2.0])
    with pytest.raises(ValueError, match="too few"):
        eval_kshot_mae(model, [lone], shots=(0,), trials=1)
    for protocol in (eval_kshot_mae, mean_model_mae):
        with pytest.raises(ValueError, match="at least 1"):
            protocol(model, [small], trials=0)


def test_kshot_rejects_negative_and_duplicate_shots():
    model = _linear_mean_model(3, (10.0, 0.0, 0.0))
    ds = _reward_dataset(np.arange(1.0, 21.0))
    for shots in ((0, -1), (5, 0, 5), ()):
        with pytest.raises(ValueError, match="distinct non-negative"):
            eval_kshot_mae(model, [ds], shots=shots, trials=1)
    for raw in ("0,-1", "5,0,5", "", "5:relu"):
        with pytest.raises(ConfigError, match="bench.shots"):
            apply_overrides(RunConfig(), {"bench.shots": raw})
    assert apply_overrides(RunConfig(), {"bench.shots": "10,0,5"}).bench.shots == (10, 0, 5)


def test_kshot_conditions_each_shot_alone_when_the_largest_support_needs_jitter():
    # three distinct feature rows, ten copies each, and noise far below any
    # trained floor: a support with a repeated row is singular without jitter
    feats = np.repeat(np.array([[0.2, -0.4], [1.1, 0.3], [-0.7, 0.9]]), 10, axis=0)
    rewards = np.repeat(np.array([4.0, 9.0, 6.0]), 10)
    ds = toy_dataset("dup0", feats, rewards)
    model = random_model(4, seed=33, log_noise=np.log(1e-9))
    shots, seed = (0, 1, 2, 6), 5
    report = eval_kshot_mae(model, [ds], shots=shots, trials=1, seed=seed)

    rows, y = embed(model, ds.gp_inputs()), ds.rewards()
    q_idx, pool = query_split(seed, "dup0", 0, len(ds))
    order = _support_order(seed, "dup0", 0, pool)
    assert condition(model, rows[order[:6]], y[order[:6]], rows[q_idx])[2] > 0.0
    top_idx = np.argsort(-y[q_idx])[:TOP_K]
    for row, s in zip(report.rows, shots):
        mu, _ = posterior_batch(model, rows[order[:s]], y[order[:s]], rows[q_idx])
        err = np.abs(mu - y[q_idx])
        assert row.shot == s
        assert row.mae == pytest.approx(err.mean(), abs=1e-12)
        assert row.top_mae == pytest.approx(err[top_idx].mean(), abs=1e-12)


def _assert_matches_reference(report, reference):
    """Rows agree with the per-trial reference within 1e-12 relative, and
    the 0-shot rows, which involve no factor, exactly."""
    assert [(r.task_id, r.shot) for r in report.rows] == [(r.task_id, r.shot) for r in reference.rows]
    for row, ref in zip(report.rows, reference.rows):
        if row.shot == 0:
            assert (row.mae, row.top_mae) == (ref.mae, ref.top_mae)
        assert row.mae == pytest.approx(ref.mae, rel=1e-12, abs=0.0)
        assert row.top_mae == pytest.approx(ref.top_mae, rel=1e-12, abs=0.0)


def test_kshot_per_task_matches_the_per_trial_reference(world):
    model = random_model(16, seed=12)
    # the world's 24-record tasks leave 5 records outside the query set, so
    # 10 shots need a family with more records per task
    _, larger = sample_ood_test_family(world.pool, 3, 60, 12)
    for datasets, shots in ((world.test_sets, (0, 1, 2, 5)), (larger, (0, 1, 2, 5, 10))):
        report = eval_kshot_mae(model, datasets, shots=shots, trials=12, seed=3)
        _assert_matches_reference(report, reference_kshot_mae(model, datasets, shots=shots, trials=12, seed=3))


def test_kshot_per_task_matches_the_reference_with_and_without_jitter(monkeypatch):
    # five rows repeated and noise far below any trained floor: a support
    # holding both copies of a row needs jitter, one holding neither does not
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(40, 2))
    rewards = rng.uniform(1.0, 20.0, size=40)
    feats[35:], rewards[35:] = feats[:5], rewards[:5]
    ds = toy_dataset("dup1", feats, rewards)
    model = random_model(4, seed=33, log_noise=np.log(1e-9))
    jitters = []
    real = scoopgp.bench.condition_gram

    def recording(*args):
        # one stacked call per task: collect the jitter of every support in it
        out = real(*args)
        jitters.extend(np.ravel(out[2]))
        return out

    monkeypatch.setattr(scoopgp.bench, "condition_gram", recording)
    shots = (0, 1, 2, 6)
    report = eval_kshot_mae(model, [ds], shots=shots, trials=12, seed=2)
    assert len(jitters) == 12
    assert any(j > 0.0 for j in jitters) and any(j == 0.0 for j in jitters)
    _assert_matches_reference(report, reference_kshot_mae(model, [ds], shots=shots, trials=12, seed=2))


def test_aggregates_recompute_from_rows(world):
    model = random_model(16, seed=5)
    report = eval_kshot_mae(model, world.test_sets, shots=(0, 2), trials=2, seed=1)
    for shot in (0, 2):
        maes = [r.mae for r in report.rows if r.shot == shot]
        tops = [r.top_mae for r in report.rows if r.shot == shot]
        agg = report.aggregate(shot)
        assert agg[0] == pytest.approx(np.mean(maes), abs=1e-15)
        assert agg[1] == pytest.approx(np.mean(tops), abs=1e-15)


# ---------------------------------------------------------------------------
# report files

def test_mae_report_round_trip(tmp_path, world):
    model = random_model(16, seed=6)
    report = eval_kshot_mae(model, world.test_sets, shots=(0, 2), trials=2, seed=7)
    path = str(tmp_path / "mae.txt")
    write_mae_report(path, report)
    back = read_mae_report(path)
    assert back.label == report.label
    assert back.seed == report.seed
    assert back.checkpoint == report.checkpoint
    assert back.trials == report.trials
    assert back.shots == report.shots
    assert len(back.rows) == len(report.rows)
    for orig, rt in zip(report.rows, back.rows):
        assert rt.task_id == orig.task_id and rt.shot == orig.shot
        assert rt.mae == float("%.9g" % orig.mae)
        assert rt.top_mae == float("%.9g" % orig.top_mae)
    # a rewrite of the parsed report is byte-identical
    path2 = str(tmp_path / "mae2.txt")
    write_mae_report(path2, back)
    assert open(path).read() == open(path2).read()


def test_mae_report_rejects_tampering(tmp_path, world):
    model = random_model(16, seed=6)
    report = eval_kshot_mae(model, world.test_sets, shots=(0,), trials=1, seed=7)
    path = str(tmp_path / "mae.txt")
    write_mae_report(path, report)
    lines = open(path).read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("#aggregate"))
    parts = lines[idx].split()
    parts[2] = "9" + parts[2]
    lines[idx] = " ".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="rows recompute"):
        read_mae_report(path)

    write_mae_report(path, report)
    lines = open(path).read().splitlines()
    body = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines.insert(body, "broken 0 1.5")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="expected 4"):
        read_mae_report(path)


def test_deploy_report_round_trip(tmp_path):
    rows = tuple(DeployRow(f"t{i % 3}", i // 3, 1 + i % 7, i % 2 == 0) for i in range(12))
    report = DeployReport(method="probe", seed=4, checkpoint="abc123", budget=20,
                          trials=4, rows=rows, excluded=("t9", "t10"))
    path = str(tmp_path / "deploy.txt")
    write_deploy_report(path, report)
    back = read_deploy_report(path)
    assert back == report
    path2 = str(tmp_path / "deploy2.txt")
    write_deploy_report(path2, back)
    assert open(path).read() == open(path2).read()

    no_excluded = DeployReport(method="p2", seed=0, checkpoint="none", budget=5,
                               trials=1, rows=rows[:2], excluded=())
    write_deploy_report(path, no_excluded)
    assert read_deploy_report(path).excluded == ()


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_mae_report_rejects_an_aggregate_for_an_unlisted_shot(tmp_path):
    path = str(tmp_path / "mae.txt")
    _write_lines(path, [
        "# scoopgp mae-report v1",
        "# label=kshot-mae seed=0 checkpoint=abc trials=1 shots=0",
        "# columns: task_id shot mae top_mae",
        "t0 0 1.5 2",
        "#aggregate 0 1.5 2",
        "#aggregate 5 1.5 2",
    ])
    with pytest.raises(IngestError, match="shot 5"):
        read_mae_report(path)


def test_deploy_report_checks_its_aggregate_line(tmp_path):
    path = str(tmp_path / "deploy.txt")
    head = [
        "# scoopgp deploy-report v1",
        "# method=ucb seed=0 checkpoint=abc budget=20 trials=1 excluded=none",
        "# columns: task_id trial attempts success",
        "t0 0 3 1",
    ]
    _write_lines(path, head + ["#aggregate avg=3 max=3 success_rate=1"])
    assert read_deploy_report(path).avg_attempts == 3.0
    for bad in ("avg=99 max=3 success_rate=1", "avg=3 max=4 success_rate=1",
                "avg=3 max=3 success_rate=0.5", "avg=3 max=3", "avg=x max=3 success_rate=1"):
        _write_lines(path, head + [f"#aggregate {bad}"])
        with pytest.raises(IngestError):
            read_deploy_report(path)
    _write_lines(path, head[:3] + ["#aggregate avg=3 max=3 success_rate=1"])
    with pytest.raises(IngestError):
        read_deploy_report(path)


def test_report_readers_reject_fields_that_do_not_parse_and_headerless_files(tmp_path):
    path = str(tmp_path / "report.txt")
    deploy = ["# scoopgp deploy-report v1",
              "# method=ucb seed=0 checkpoint=abc budget=20 trials=1 excluded=none",
              "t0 0 3 1"]
    mae = ["# scoopgp mae-report v1",
           "# label=kshot-mae seed=0 checkpoint=abc trials=1 shots=0",
           "t0 0 1.5 2"]
    cases = [
        (read_deploy_report, [deploy[0], deploy[1].replace("seed=0", "seed=x"), deploy[2]], 2),
        (read_deploy_report, deploy[:2] + ["t0 x 3 1"], 3),
        (read_deploy_report, deploy[:2] + ["t0 0 3 2"], 3),
        (read_mae_report, mae[:2] + ["t0 0 abc 1.0"], 3),
        (read_mae_report, [mae[0], mae[2]], 0),
        (read_deploy_report, [deploy[0], deploy[2]], 0),
        (read_mae_report, [mae[0], mae[1].replace("shots=0", "shots=0,5"), mae[2]], 0),
        (read_mae_report, mae + ["t0 5 1.5 2"], 4),
    ]
    for reader, lines, lineno in cases:
        _write_lines(path, lines)
        with pytest.raises(IngestError) as info:
            reader(path)
        assert info.value.path == path and info.value.line == lineno
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe")
    missing = str(tmp_path / "missing.txt")
    for reader in (read_mae_report, read_deploy_report):
        for bad in (path, missing):
            with pytest.raises(IngestError) as info:
                reader(bad)
            assert info.value.path == bad


# ---------------------------------------------------------------------------
# simulated deployment

def test_deployment_threshold_is_the_fifth_largest():
    assert THRESHOLD_RANK == 5
    ds = _reward_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert deployment_threshold(ds) == 4.0
    # exactly THRESHOLD_RANK records: the smallest is the threshold; one fewer is too few
    assert deployment_threshold(_reward_dataset([6.0, 2.0, 9.0, 4.0, 7.0])) == 2.0
    short = _reward_dataset([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="bench0.*4 records, needs at least 5"):
        deployment_threshold(short)


def test_simulated_deployment_runs_and_excludes(world):
    rng = np.random.default_rng(9)
    good = _reward_dataset(rng.uniform(6.0, 40.0, size=20), "good0")
    weak = _reward_dataset(rng.uniform(0.0, 2.0, size=20), "weak0")
    model = _linear_mean_model(3, (10.0, 0.0, 0.0))
    methods = [(model, "mean"), (None, "random")]
    out = {kind: eval_simulated_deployment(m, kind, [good, weak], budget=10, trials=4, seed=2)
           for m, kind in methods}
    assert sorted(out) == ["mean", "random"]
    for kind, rep in out.items():
        assert rep.method == kind
        assert rep.excluded == ("weak0",)
        assert len(rep.rows) == 4
        assert {r.task_id for r in rep.rows} == {"good0"}
        assert rep.max_attempts <= 10
        assert len(rep.attempts_by_cell()) == 4
    assert out["random"].checkpoint == "none"
    # the perfect mean model finds the best record on the first attempt
    assert out["mean"].avg_attempts == 1.0
    assert out["mean"].success_rate == 1.0

    again = eval_simulated_deployment(None, "random", [good, weak], budget=10, trials=4, seed=2)
    assert again == out["random"]
    # random never reads the model, so deploying it with one changes only the checkpoint named
    with_model = eval_simulated_deployment(model, "random", [good, weak], budget=10, trials=4, seed=2)
    assert with_model.rows == out["random"].rows and with_model.checkpoint == checkpoint_id(model)

    with pytest.raises(ValueError, match="below the deployment threshold"):
        eval_simulated_deployment(model, "mean", [weak], budget=10, trials=2, seed=2)


def test_deterministic_scorers_replay_one_episode_per_task(world, codega_result, monkeypatch):
    import scoopgp.bench as bench
    import scoopgp.decide as decide

    calls = []

    def counting_run_deployment(model, kind, ds, *args):
        calls.append((kind, ds.task_id))
        return run_deployment(model, kind, ds, *args)

    embedded, mean_evaluated, built = [], [], []
    real_gp_inputs = TaskDataset.gp_inputs

    def counting_embed(model, X):
        embedded.append(len(X))
        return scoopgp.gp.embed(model, X)

    def counting_mean_eval_batch(model, X):
        mean_evaluated.append(len(X))
        return scoopgp.gp.mean_eval_batch(model, X)

    def counting_gp_inputs(ds):
        built.append(ds.task_id)
        return real_gp_inputs(ds)

    model = codega_result.model
    trials = 5
    sizes = {ds.task_id: len(ds) for ds in world.test_sets}
    expected = {kind: reference_simulated_deployment(model, kind, world.test_sets, budget=8, trials=trials, seed=3)
                for kind in ("ucb", "mean", "random")}
    monkeypatch.setattr(bench, "run_deployment", counting_run_deployment)
    monkeypatch.setattr(decide, "embed", counting_embed)
    monkeypatch.setattr(decide, "mean_eval_batch", counting_mean_eval_batch)
    monkeypatch.setattr(TaskDataset, "gp_inputs", counting_gp_inputs)
    for kind in ("ucb", "mean", "random"):
        embedded.clear()
        mean_evaluated.clear()
        built.clear()
        out = eval_simulated_deployment(model, kind, world.test_sets, budget=8, trials=trials, seed=3)
        included = sorted({r.task_id for r in out.rows})
        assert included
        assert out == expected[kind]
        # each task's records are built once: ucb embeds them through both networks,
        # mean evaluates their prior means once; random builds no candidate rows at all
        if kind == "random":
            assert built == [] and embedded == [] and mean_evaluated == []
        else:
            assert sorted(built) == included
            once = [sizes[t] for t in built]
            assert (embedded, mean_evaluated) == ((once, []) if kind == "ucb" else ([], once))
        per_task = [task for k, task in calls if k == kind]
        assert sorted(per_task) == sorted(included * (1 if kind != "random" else trials))


def test_equal_rewards_need_exactly_one_attempt():
    ds = _reward_dataset(np.full(8, 9.0), "flat0")
    out = eval_simulated_deployment(None, "random", [ds], budget=5, trials=6, seed=0)
    assert out.avg_attempts == 1.0
    assert out.success_rate == 1.0


# ---------------------------------------------------------------------------
# sign test

def test_paired_sign_test_closed_forms():
    a = np.arange(10.0)
    assert paired_sign_test(a, a + 1.0) == pytest.approx(0.5**10)
    assert paired_sign_test(a, a) == 1.0
    assert paired_sign_test(a + 1.0, a) == pytest.approx(1.0)
    b = a.copy()
    b[:7] += 1.0
    b[7:] -= 1.0
    expect = binomtest(7, 10, alternative="greater").pvalue
    assert paired_sign_test(a, b) == pytest.approx(expect)
    assert paired_sign_test(a, b) == pytest.approx(176.0 / 1024.0)
    with pytest.raises(ValueError):
        paired_sign_test(np.zeros(3), np.zeros(4))


def test_sign_test_drops_ties():
    a = np.array([1.0, 1.0, 1.0, 5.0])
    b = np.array([1.0, 1.0, 2.0, 5.0])
    # one win, three ties
    assert paired_sign_test(a, b) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# pooling and rendering

def test_pooling_averages_rows_across_reports():
    r1 = MaeReport("kshot-mae", 0, "c1", 1, (0,), (MaeRow("a", 0, 2.0, 4.0),))
    r2 = MaeReport("kshot-mae", 1, "c2", 1, (0,), (MaeRow("a", 0, 6.0, 8.0),))
    pooled = pool_mae_reports([r1, r2])
    assert pooled == {0: (4.0, 6.0)}


def test_tables_render_every_method():
    r1 = MaeReport("kshot-mae", 0, "c1", 1, (0, 5), (
        MaeRow("a", 0, 2.0, 4.0), MaeRow("a", 5, 1.0, 2.0)))
    r2 = MaeReport("mean-only-mae", 0, "c2", 1, (0,), (MaeRow("a", 0, 3.0, 5.0),))
    table = render_mae_table({"codega": [r1], "mean-only": [r2]})
    lines = table.strip().splitlines()
    assert len(lines) == 3
    assert "codega" in table and "mean-only" in table
    assert "0-shot MAE" in lines[0] and "5-shot MAE" in lines[0]

    deploy = DeployReport("ucb", 0, "c1", 20, 2,
                          (DeployRow("a", 0, 3, True), DeployRow("a", 1, 5, False)), ())
    out = render_deploy_table({"ucb": deploy})
    assert "ucb" in out and "4.0" in out and "0.50" in out
