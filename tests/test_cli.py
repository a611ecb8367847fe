"""End-to-end tests for the command line workflow.

Every invocation goes through ``scoopgp.cli.main(argv)`` in process, so
exit codes, stdout/stderr and file outputs are all observable without
spawning an interpreter. Scales are kept tiny; the module-scoped family
and checkpoints are shared across tests.
"""

import ast
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scoopgp.bench import read_deploy_report, read_mae_report, read_report
from scoopgp.cli import build_parser, main
from scoopgp.config import RunConfig, apply_overrides
from scoopgp.errors import IngestError
from scoopgp.gp import load_model, mean_eval_batch
from scoopgp.tasks import read_database

FAST_TRAIN = (
    "--set", "train.max_epochs_mean=40",
    "--set", "train.max_epochs_kernel=25",
    "--set", "train.patience=3",
)

SMALL_GEN = (
    "--set", "gen.n_train_materials=6",
    "--set", "gen.n_ood_materials=4",
    "--set", "gen.n_train_tasks=6",
    "--set", "gen.train_records=12",
    "--set", "gen.n_test_tasks=2",
    "--set", "gen.test_records=12",
)

SMALL_EVAL = ("--set", "bench.shots=0,2", "--set", "bench.mae_trials=3")

SMALL_DEPLOY = (
    "--set", "bench.budget=5",
    "--set", "bench.deploy_trials=2",
    "--set", "bench.exclude_below=0.0",
)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen", "--seed", "5", "--prefix", str(root / "fam"), *SMALL_GEN])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def codega_ckpt(cli_dir):
    out = cli_dir / "codega.model.bin"
    rc = main([
        "train", "--seed", "3", "--data", str(cli_dir / "fam.train.records.txt"),
        "--method", "codega", "--set", "train.folds=2", "--out", str(out), *FAST_TRAIN,
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def mae_report_path(cli_dir, codega_ckpt):
    out = cli_dir / "kshot.mae.txt"
    rc = main([
        "eval-mae", "--data", str(cli_dir / "fam.test.records.txt"),
        "--model", str(codega_ckpt), "--out", str(out), *SMALL_EVAL,
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def deploy_report_path(cli_dir, codega_ckpt):
    out = cli_dir / "ucb.deploy.txt"
    rc = main([
        "deploy", "--data", str(cli_dir / "fam.test.records.txt"),
        "--model", str(codega_ckpt), "--scorer", "ucb", "--out", str(out),
        *SMALL_DEPLOY,
    ])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_database_and_terrains(cli_dir):
    assert sorted(p.name for p in cli_dir.glob("fam.*")) == ["fam.terrains.bin", "fam.test.records.txt",
                                                             "fam.train.records.txt"]
    train = read_database(str(cli_dir / "fam.train.records.txt"))
    test = read_database(str(cli_dir / "fam.test.records.txt"))
    assert len(train) == 6 and all(len(ds) == 12 for ds in train)
    assert len(test) == 2 and all(len(ds) == 12 for ds in test)


def test_gen_prints_summary_and_is_deterministic(tmp_path, capsys):
    args = ["gen", "--seed", "9",
            "--set", "gen.n_train_materials=4", "--set", "gen.n_ood_materials=2",
            "--set", "gen.n_train_tasks=2", "--set", "gen.train_records=8",
            "--set", "gen.n_test_tasks=2", "--set", "gen.test_records=8"]
    assert main(args + ["--prefix", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "a.train.records.txt (16 records, 2 tasks)" in out
    assert "a.test.records.txt (16 records, 2 tasks)" in out
    assert "a.terrains.bin" in out

    assert main(args + ["--prefix", str(tmp_path / "b")]) == 0
    for suffix in ("train.records.txt", "test.records.txt", "terrains.bin"):
        a = (tmp_path / f"a.{suffix}").read_bytes()
        b = (tmp_path / f"b.{suffix}").read_bytes()
        assert a == b, suffix


# ---------------------------------------------------------------------------
# train

def test_train_codega_checkpoint_loads(cli_dir, codega_ckpt):
    model = load_model(str(codega_ckpt))
    test = read_database(str(cli_dir / "fam.test.records.txt"))
    preds = mean_eval_batch(model, test[0].gp_inputs())
    assert np.all(np.isfinite(preds))


def _report_labels(path) -> list:
    prefix = "# training report: "
    return [ln[len(prefix):] for ln in path.read_text().splitlines() if ln.startswith(prefix)]


def test_train_writes_its_training_curves_beside_the_checkpoint(cli_dir, codega_ckpt, tmp_path):
    curves = codega_ckpt.parent / (codega_ckpt.name + ".train.txt")
    assert _report_labels(curves) == ["fold0-mean", "fold1-mean", "kernel", "final-mean"]
    # every section holds at least its first epoch's row
    text = curves.read_text()
    assert text.count("\n1 ") == 4
    out = tmp_path / "dkmt.bin"
    rc = main(["train", "--seed", "2", "--data", str(cli_dir / "fam.train.records.txt"),
               "--method", "dkmt", "--out", str(out), "--set", "train.max_epochs_kernel=3"])
    assert rc == 0
    dkmt_curves = tmp_path / "dkmt.bin.train.txt"
    assert _report_labels(dkmt_curves) == ["joint"]
    rows = [ln for ln in dkmt_curves.read_text().splitlines() if not ln.startswith("#")]
    assert [int(r.split()[0]) for r in rows] == [1, 2, 3]


def test_train_mean_only_prints_checkpoint_and_repeats(cli_dir, tmp_path, capsys):
    data = str(cli_dir / "fam.train.records.txt")
    out1 = tmp_path / "m1.bin"
    rc = main(["train", "--seed", "4", "--data", data, "--method", "mean-only",
               "--out", str(out1), *FAST_TRAIN])
    assert rc == 0
    text = capsys.readouterr().out
    assert f"wrote {out1}" in text and "checkpoint" in text

    out2 = tmp_path / "m2.bin"
    rc = main(["train", "--seed", "4", "--data", data, "--method", "mean-only",
               "--out", str(out2), *FAST_TRAIN])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert _report_labels(tmp_path / "m1.bin.train.txt") == ["mean"]
    model = load_model(str(out1))
    assert np.isfinite(model.log_lengthscale)


def test_train_dkmt_checkpoint_loads(cli_dir, tmp_path):
    out = tmp_path / "dkmt.bin"
    rc = main(["train", "--seed", "2", "--data", str(cli_dir / "fam.train.records.txt"),
               "--method", "dkmt", "--out", str(out),
               "--set", "train.max_epochs_kernel=10", "--set", "train.patience=3"])
    assert rc == 0
    assert load_model(str(out)).kernel_params is not None


def test_train_too_many_folds_fails(cli_dir, tmp_path, capsys):
    rc = main(["train", "--data", str(cli_dir / "fam.train.records.txt"),
               "--set", "train.folds=7", "--out", str(tmp_path / "x.bin"), *FAST_TRAIN])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "folds" in err


# ---------------------------------------------------------------------------
# eval-mae

def test_eval_mae_report_and_determinism(cli_dir, codega_ckpt, mae_report_path,
                                         tmp_path, capsys):
    out2 = tmp_path / "again.mae.txt"
    rc = main([
        "eval-mae", "--data", str(cli_dir / "fam.test.records.txt"),
        "--model", str(codega_ckpt), "--out", str(out2), *SMALL_EVAL,
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0-shot: mae" in text and "2-shot: mae" in text
    assert out2.read_bytes() == mae_report_path.read_bytes()

    rep = read_mae_report(str(mae_report_path))
    assert rep.label == "kshot-mae"
    assert rep.shots == (0, 2)
    assert rep.trials == 3
    assert len(rep.rows) == 2 * 2  # tasks x shots, trials averaged in


def test_eval_mae_mean_only_matches_zero_shot(cli_dir, codega_ckpt, mae_report_path,
                                              tmp_path):
    out = tmp_path / "mean.mae.txt"
    rc = main([
        "eval-mae", "--data", str(cli_dir / "fam.test.records.txt"),
        "--model", str(codega_ckpt), "--out", str(out), "--mean-only", *SMALL_EVAL,
    ])
    assert rc == 0
    mean_rep = read_mae_report(str(out))
    kshot_rep = read_mae_report(str(mae_report_path))
    assert mean_rep.label == "mean-only-mae"
    assert mean_rep.shots == (0,)
    # the prior mean and the 0-shot posterior are the same protocol
    zero = [(r.task_id, r.mae, r.top_mae) for r in kshot_rep.rows if r.shot == 0]
    got = [(r.task_id, r.mae, r.top_mae) for r in mean_rep.rows]
    assert got == zero
    assert mean_rep.aggregate(0) == kshot_rep.aggregate(0)


# ---------------------------------------------------------------------------
# deploy

def test_deploy_dataset_report_and_determinism(cli_dir, codega_ckpt,
                                               deploy_report_path, tmp_path, capsys):
    out2 = tmp_path / "again.deploy.txt"
    rc = main([
        "deploy", "--data", str(cli_dir / "fam.test.records.txt"),
        "--model", str(codega_ckpt), "--scorer", "ucb", "--out", str(out2),
        *SMALL_DEPLOY,
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ucb: avg attempts" in text and "success rate" in text
    assert out2.read_bytes() == deploy_report_path.read_bytes()

    rep = read_deploy_report(str(deploy_report_path))
    assert rep.method == "ucb"
    assert rep.budget == 5
    assert len(rep.rows) == 2 * 2  # tasks x trials
    assert all(1 <= row.attempts <= 5 for row in rep.rows)


def test_deploy_random_scorer_needs_no_model(cli_dir, tmp_path):
    out = tmp_path / "rand.deploy.txt"
    rc = main([
        "deploy", "--data", str(cli_dir / "fam.test.records.txt"),
        "--scorer", "random", "--out", str(out), *SMALL_DEPLOY,
    ])
    assert rc == 0
    rep = read_deploy_report(str(out))
    assert rep.method == "random"
    assert rep.checkpoint == "none"


@pytest.mark.parametrize("setting", ["bench.deploy_trials=0", "bench.budget=0", "bench.exclude_below=nan"])
def test_out_of_range_bench_settings_exit_1_naming_the_key(cli_dir, tmp_path, capsys, setting):
    # unchecked, zero trials exits 1 with "max() arg is an empty sequence"
    # and a NaN exclude_below excludes nothing
    out = tmp_path / "rand.deploy.txt"
    rc = main(["deploy", "--data", str(cli_dir / "fam.test.records.txt"), "--scorer", "random",
               "--out", str(out), *SMALL_DEPLOY, "--set", setting])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting.split("=")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["gen.n_train_materials=1", "gen.n_ood_materials=0", "gen.rho=-0.1",
                                     "gen.rho=1.5", "gen.rho=nan", "gen.n_train_tasks=0", "gen.train_records=0",
                                     "gen.n_test_tasks=-1", "gen.test_records=-2"])
def test_out_of_range_gen_settings_exit_1_naming_the_key(tmp_path, capsys, setting):
    # unchecked, a negative test_records exits 1 with "no records to write"
    # after the training records file is already written
    rc = main(["gen", "--prefix", str(tmp_path / "fam"), *SMALL_GEN, "--set", setting])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting.split("=")[0] in err
    assert list(tmp_path.iterdir()) == []


def test_deploy_live_mode_runs_episodes(cli_dir, tmp_path):
    out = tmp_path / "live.txt"
    rc = main([
        "deploy", "--data", str(cli_dir / "fam.test.records.txt"),
        "--scorer", "random", "--mode", "live",
        "--terrains", str(cli_dir / "fam.terrains.bin"),
        "--threshold", "0.0", "--out", str(out),
        "--set", "bench.budget=2",
    ])
    assert rc == 0
    text = out.read_text()
    # reward is non-negative, so a zero threshold succeeds on the first scoop
    assert text.count("attempts=1 success=1") == 2
    for ds in read_database(str(cli_dir / "fam.test.records.txt")):
        assert ds.task_id in text


# ---------------------------------------------------------------------------
# report

def test_report_renders_tables(mae_report_path, deploy_report_path, capsys):
    rc = main(["report", str(mae_report_path), str(deploy_report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0-shot MAE" in out and "2-shot top MAE" in out
    assert "kshot-mae" in out
    assert "avg attempts" in out and "ucb" in out


def test_report_keeps_each_models_rows_apart(cli_dir, codega_ckpt, mae_report_path,
                                             deploy_report_path, tmp_path, capsys):
    data = str(cli_dir / "fam.test.records.txt")
    dkmt = tmp_path / "dkmt.bin"
    assert main(["train", "--data", str(cli_dir / "fam.train.records.txt"), "--method", "dkmt",
                 "--out", str(dkmt), *FAST_TRAIN]) == 0
    assert main(["eval-mae", "--data", data, "--model", str(dkmt), "--out", str(tmp_path / "dkmt.mae.txt"),
                 *SMALL_EVAL]) == 0
    assert main(["deploy", "--data", data, "--model", str(dkmt), "--out", str(tmp_path / "dkmt.deploy.txt"),
                 *SMALL_DEPLOY]) == 0
    capsys.readouterr()
    maes = [read_mae_report(str(p)) for p in (mae_report_path, tmp_path / "dkmt.mae.txt")]
    deploys = [read_deploy_report(str(p)) for p in (deploy_report_path, tmp_path / "dkmt.deploy.txt")]
    assert maes[0].checkpoint != maes[1].checkpoint

    assert main(["report", str(mae_report_path), str(tmp_path / "dkmt.mae.txt"),
                 str(deploy_report_path), str(tmp_path / "dkmt.deploy.txt")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    for rep in maes:
        cells = [f"{rep.aggregate(s)[i]:.1f}" for i in (0, 1) for s in rep.shots]
        assert rows.count([f"kshot-mae@{rep.checkpoint}", *cells]) == 1
    for rep in deploys:
        cells = [f"{rep.avg_attempts:.1f}", str(rep.max_attempts), f"{rep.success_rate:.2f}"]
        assert rows.count([f"ucb@{rep.checkpoint}", *cells]) == 1

    again = tmp_path / "again.deploy.txt"
    again.write_bytes(deploy_report_path.read_bytes())
    assert main(["report", str(deploy_report_path), str(again)]) == 1
    err = capsys.readouterr().err
    assert str(deploy_report_path) in err and str(again) in err


def test_report_rejects_unknown_file(tmp_path, capsys):
    bogus = tmp_path / "notes.txt"
    bogus.write_text("hello\n")
    rc = main(["report", str(bogus)])
    assert rc == 1
    assert "not a recognized report file" in capsys.readouterr().err


def test_report_reads_each_file_once_and_names_a_missing_or_undecodable_one(mae_report_path, tmp_path, capsys,
                                                                             monkeypatch):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    missing = tmp_path / "missing.txt"
    for path, cause in ((binary, "UnicodeDecodeError"), (missing, "FileNotFoundError")):
        with pytest.raises(IngestError, match=cause) as info:
            read_report(str(path))
        assert info.value.path == str(path)
        assert main(["report", str(mae_report_path), str(path)]) == 1
        assert f"file={path}" in capsys.readouterr().err

    import builtins
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["report", str(mae_report_path)]) == 0
    assert opened.count(str(mae_report_path)) == 1


# ---------------------------------------------------------------------------
# config handling

def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny family\n"
        "gen.n_train_materials = 4\n"
        "gen.n_ood_materials = 2\n"
        "gen.n_train_tasks = 3\n"
        "gen.train_records = 6\n"
        "gen.n_test_tasks = 2\n"
        "gen.test_records = 6\n"
    )
    rc = main(["gen", "--prefix", str(tmp_path / "fam"), "--config", str(cfg),
               "--set", "gen.train_records=8"])
    assert rc == 0
    capsys.readouterr()
    train = read_database(str(tmp_path / "fam.train.records.txt"))
    assert len(train) == 3
    assert all(len(ds) == 8 for ds in train)  # --set beats the file


def test_missing_config_file(tmp_path, capsys):
    rc = main(["gen", "--prefix", str(tmp_path / "x"), "--config",
               str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"gen.rho = 0.5  # \xe9\n")
    rc = main(["gen", "--prefix", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == 1
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_bad_overrides_exit_1(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    rc = main(["gen", "--prefix", prefix, "--set", "gen.n_train_tasks"])
    assert rc == 1
    assert "--set expects KEY=VALUE" in capsys.readouterr().err

    rc = main(["gen", "--prefix", prefix, "--set", "gen.bogus=3"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err

    rc = main(["gen", "--prefix", prefix, "--set", "rho=0.5"])
    assert rc == 1
    assert "section.field" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["train.lr_kernel=-1", "train.lr_kernel=0", "train.lr_kernel=nan",
                                     "train.lr_kernel=inf", "train.max_epochs_mean=-1",
                                     "train.max_epochs_kernel=-1", "train.patience=-1",
                                     "train.log_every=-1", "train.folds=1", "train.folds=0"])
def test_out_of_range_train_settings_exit_1_naming_the_key(cli_dir, tmp_path, capsys, setting):
    # unchecked, a negative lr_kernel climbs the NLML and exits 0, nan or inf
    # fail mid-training as "parameters must be finite", and a negative
    # log_every prints every epoch
    out = tmp_path / "m.bin"
    rc = main(["train", "--data", str(cli_dir / "fam.train.records.txt"), "--method", "dkmt",
               "--out", str(out), "--set", setting])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting.split("=")[0] in err
    assert not out.exists()


def test_calls_in_one_process_share_the_parser_but_not_its_values(tmp_path, capsys):
    assert build_parser() is build_parser()
    rc = main(["gen", "--seed", "9", "--prefix", str(tmp_path / "x"), "--set", "gen.bogus=3"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err
    # neither the first call's --set nor its --seed reaches the second
    rc = main(["gen", "--prefix", str(tmp_path / "y"), *SMALL_GEN])
    assert rc == 0
    args = build_parser().parse_args(["gen", "--prefix", "z"])
    assert args.set is None and args.seed == 0


@pytest.mark.parametrize("key", ["gen.grid_cell", "train.lr_mean", "bench.query_fraction",
                                 "train.train_kernel_head", "train.kernel_extractor_fold",
                                 "model.feature_hidden", "model.feature_dim", "model.mean_hidden",
                                 "model.kernel_hidden", "model.embed_dim", "bench.gamma", "bench.top_k"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, key):
    prefix = str(tmp_path / "x")
    rc = main(["gen", "--prefix", prefix, "--set", f"{key}=0.5"])
    assert rc == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 0.5\n")
    rc = main(["gen", "--prefix", prefix, "--config", str(cfg)])
    assert rc == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_readme_lists_every_config_key_and_their_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    sections = {f.name: getattr(RunConfig(), f.name) for f in dataclasses.fields(RunConfig)}
    # a bullet ends at the next bullet or at a blank line
    bullets = {b.split("`", 2)[1]: b.split("\n\n", 1)[0] for b in section.split("\n- ") if b.startswith("`")}
    for name, cfg in sections.items():
        listed = re.findall(r"`(\w+)`", bullets[f"{name}.*"])
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(cfg)), name
    total = sum(len(dataclasses.fields(cfg)) for cfg in sections.values())
    assert re.search(r"\b(\d+) keys in all", section).group(1) == str(total)


# ---------------------------------------------------------------------------
# exit codes and env

def test_missing_data_file_exits_1(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "missing.records.txt"),
               "--out", str(tmp_path / "x.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "records file not found" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["train"])  # missing required --data/--out
    assert ei.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    capsys.readouterr()

    # the fold count is the config key train.folds
    with pytest.raises(SystemExit) as ei:
        main(["train", "--data", "x.records.txt", "--out", "x.bin", "--folds", "2"])
    assert ei.value.code == 2
    assert "--folds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ingest", "--data", "x"], ["report", "--seed", "1", "f"],
                                  ["report", "--config", "c", "f"], ["report", "--set", "bench.budget=3", "f"]])
def test_no_ingest_and_report_takes_only_files(argv, capsys):
    # report reads no seed or config, so it accepts none rather than ignore them
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    capsys.readouterr()


def test_deploy_live_requires_terrains(cli_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["deploy", "--data", str(cli_dir / "fam.test.records.txt"),
              "--scorer", "random", "--mode", "live",
              "--out", str(tmp_path / "x.txt")])
    assert ei.value.code == 2
    assert "--mode live requires --terrains" in capsys.readouterr().err


def test_deploy_threshold_requires_live_mode(cli_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["deploy", "--data", str(cli_dir / "fam.test.records.txt"),
              "--scorer", "random", "--threshold", "5",
              "--out", str(tmp_path / "x.txt")])
    assert ei.value.code == 2
    assert "--threshold requires --mode live" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_deploy_adaptive_scorer_requires_model(cli_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["deploy", "--data", str(cli_dir / "fam.test.records.txt"),
              "--scorer", "ucb", "--out", str(tmp_path / "x.txt")])
    assert ei.value.code == 2
    assert "--scorer ucb requires --model" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads via /proc")
def test_threads_env_caps_blas_before_numpy_loads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(SCOOPGP_THREADS="1", PYTHONPATH=src)
    probe = ("import os, scoopgp.cli; "
             "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["1", "1"]

    # an explicit setting wins over the cap
    env["OMP_NUM_THREADS"] = "3"
    probe = "import os, scoopgp.cli; print(os.environ['OMP_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["3"]


def test_package_import_loads_no_scipy_subpackage_but_linalg():
    # gp.py's LAPACK wrappers are the package's one scipy use; ndimage and
    # special alone held ~5 MiB of every process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, scoopgp.cli; print(*sorted(name for name, m in sys.modules.items() "
             "if name.startswith('scipy.') and name.count('.') == 1 and not name[6:].startswith('_') "
             "and hasattr(m, '__path__')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["scipy.linalg"]


def test_benchmark_config_keys_are_all_accepted():
    """perfbench/run.py passes its scenario settings to every stage as --set
    keys; one the config no longer has would fail the stages that pass it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    names = ("SCENARIO", "OFFLINE", "QUICK_SCENARIO", "QUICK_OFFLINE")
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names:
            found[node.targets[0].id] = [ast.literal_eval(d) for d in ast.walk(node.value)
                                         if isinstance(d, ast.Dict)]
    assert sorted(found) == sorted(names)
    for dicts in found.values():
        for overrides in dicts:
            assert overrides
            apply_overrides(RunConfig(), {key: str(value) for key, value in overrides.items()})


def _load_script(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_perfbench_run(run: Path, iteration_s: float, attempted=9, failed=0, correct=None, contended=False,
                         mae_10shot=14.5):
    """A perfbench run record: result.json and env.json in their own directory."""
    run.mkdir(parents=True)
    metrics = {"iteration_s": {"value": iteration_s, "unit": "s"}, "mae_10shot": {"value": mae_10shot, "unit": "cm3"}}
    correct = failed == 0 if correct is None else correct
    (run / "result.json").write_text(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                                                 "metrics": metrics}))
    (run / "env.json").write_text(json.dumps({"git_sha": run.parent.name, "nproc": 2, "contended": contended}))


def test_bench_record_pairs_runs_by_workload_and_seed(tmp_path, capsys, monkeypatch):
    bench_record = _load_script("bench_record")

    for seed, (parent_s, change_s) in enumerate([(10.0, 5.0), (8.0, 6.0), (12.0, 3.0)]):
        _write_perfbench_run(tmp_path / "parent" / f"online-s{seed}-t0-a", parent_s)
        _write_perfbench_run(tmp_path / "change" / f"online-s{seed}-t0-b", change_s, attempted=9 + seed,
                             contended=seed == 1)
    # no parent run at seed 9: not paired, so its failed check does not count
    _write_perfbench_run(tmp_path / "change" / "online-s9-t0-c", 1.0, failed=1)
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--pr", "1", "--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "online: 3 pairs, quality identical True, contended runs parent 0 change 1" in printed
    online = json.loads(out.read_text())["workloads"]["online"]
    assert online["seeds"] == [0, 1, 2]
    assert online["pairs"]["iteration_s"] == {"median_ratio": 0.5, "ratios": [0.5, 0.75, 0.25]}
    change = online["change"]
    assert change["metrics"]["iteration_s"]["median"] == 5.0 and change["metrics"]["iteration_s"]["min"] == 3.0
    assert online["parent"]["metrics"]["iteration_s"]["iqr_over_median"] == 0.2
    assert change["checks"] == {"attempted": [9, 10, 11], "failed": [0, 0, 0]}
    assert change["env"][0]["git_sha"] == "change"
    assert online["quality_identical"] is True
    # a claim needs its pair counts by BENCHMARK.json's direction and a median
    # gain beyond the parent's IQR (parent quartiles 9 and 11)
    assert online["claim"]["iteration_s"] == {"better": "lower", "won": 3, "lost": 0, "tied": 0, "median_gain": 5.0,
                                              "parent_iqr": 2.0, "gain_exceeds_parent_iqr": True}
    assert online["claim"]["mae_10shot"] == {"better": "lower", "won": 0, "lost": 0, "tied": 3, "median_gain": 0.0,
                                             "parent_iqr": 0.0, "gain_exceeds_parent_iqr": False}
    # every end-to-end metric gets its own printed line, not only iteration_s
    assert ("  iteration_s: median parent 10 change 5, change/parent 0.500, won 3 lost 0 tied 0, "
            "median gain 5 > parent IQR 2") in printed
    assert "  mae_10shot: median parent 14.5 change 14.5, change/parent 1.000, won 0 lost 0 tied 3, " in printed
    monkeypatch.setitem(bench_record.BETTER, "iteration_s", "higher")
    assert bench_record.main(["--pr", "1", "--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    flipped = json.loads(out.read_text())["workloads"]["online"]["claim"]["iteration_s"]
    assert (flipped["won"], flipped["lost"], flipped["median_gain"]) == (0, 3, -5.0)
    assert flipped["gain_exceeds_parent_iqr"] is False
    monkeypatch.undo()
    capsys.readouterr()

    # one quality value that differs in one pair clears the flag
    _write_perfbench_run(tmp_path / "parent" / "offline-s0-t0-a", 4.0)
    _write_perfbench_run(tmp_path / "change" / "offline-s0-t0-b", 3.0)
    _write_perfbench_run(tmp_path / "parent" / "offline-s1-t0-a", 4.0)
    _write_perfbench_run(tmp_path / "change" / "offline-s1-t0-b", 3.0, mae_10shot=14.500000001)
    assert bench_record.main(["--pr", "1", "--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["online"]["quality_identical"] is True and workloads["offline"]["quality_identical"] is False
    printed = capsys.readouterr().out
    assert "offline: 2 pairs, quality identical False" in printed
    assert "  mae_10shot: median parent 14.5 change 14.5, change/parent 1.000, won 0 lost 1 tied 1, " in printed
    assert workloads["offline"]["claim"]["iteration_s"]["won"] == 2


@pytest.mark.parametrize("fault", [{"failed": 1}, {"correct": False}])
def test_bench_record_refuses_a_paired_run_that_failed_a_check(tmp_path, fault):
    bench_record = _load_script("bench_record")
    for seed in (0, 1):
        _write_perfbench_run(tmp_path / "parent" / f"offline-s{seed}-t0-a", 4.0)
        _write_perfbench_run(tmp_path / "change" / f"offline-s{seed}-t0-b", 3.0, **(fault if seed else {}))
    out = tmp_path / "BENCH_1.json"
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--pr", "1", "--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change"), "--out", str(out)])
    assert "change run offline-s1-t0" in str(exc.value.code) and "offline-s0" not in str(exc.value.code)
    assert not out.exists()


def test_run_benchmark_drives_every_stage_and_reruns_identically(tmp_path, capsys):
    run_benchmark = _load_script("run_benchmark")
    argv = ["--seed", "5", "--set", "train.folds=2", *SMALL_GEN, *FAST_TRAIN, *SMALL_EVAL, *SMALL_DEPLOY]
    for out in ("a", "b"):
        assert run_benchmark.main(argv + ["--out", str(tmp_path / out)]) == 0
    capsys.readouterr()

    a = tmp_path / "a"
    stems = [f"{m}-s0" for m in ("codega", "dkmt", "mean-only")]
    expected = ["fam.train.records.txt", "fam.test.records.txt", "fam.terrains.bin", "mean.deploy.txt",
                "random.deploy.txt", "HEADLINE.txt", *(f"{stem}.bin" for stem in stems),
                *(f"{stem}.mae.txt" for stem in stems), *(f"{stem}.ucb.deploy.txt" for stem in stems)]
    assert [name for name in expected if not (a / name).exists()] == []
    checkpoints = {m: read_mae_report(str(a / f"{m}-s0.mae.txt")).checkpoint for m in ("codega", "dkmt", "mean-only")}
    assert len(set(checkpoints.values())) == 3
    headline = (a / "HEADLINE.txt").read_text()
    for m, ckpt in checkpoints.items():
        assert read_deploy_report(str(a / f"{m}-s0.ucb.deploy.txt")).checkpoint == ckpt
        assert f"kshot-mae@{ckpt}" in headline and f"ucb@{ckpt}" in headline
        label = "untrained kernel" if m == "mean-only" else m
        assert f"{ckpt}  {label} seed 0" in headline
    # the untrained kernel is evaluated at every shot, not only at 0
    assert read_mae_report(str(a / "mean-only-s0.mae.txt")).shots == read_mae_report(str(a / "codega-s0.mae.txt")).shots
    assert "codega-ucb vs dkmt-ucb" in headline and "2-shot MAE, codega vs dkmt" in headline
    for m in ("codega", "dkmt"):
        assert f"{m}-ucb vs untrained-kernel-ucb" in headline and f"MAE, {m} vs untrained kernel" in headline
    assert (tmp_path / "b" / "HEADLINE.txt").read_bytes() == (a / "HEADLINE.txt").read_bytes()
