"""Golden digests: CLI outputs pinned byte for byte across commits.

A small fixed `gen` and a one-task live deployment under the random scorer
(which needs no model, yet runs the grid columns, the feasibility mask,
the reward oracle, the terrain update and the trace text) must keep
these sha256 digests. So must a mean-only model trained on that family,
its k-shot and mean-only MAE reports, its dataset-mode deploy reports
under each scorer, and its live ucb and mean traces. A change that means
to alter these bytes updates the digests and says why; any other change
that moves them is a regression.
The digests were taken with numpy 2.4 and scipy 1.17.
"""

import hashlib

import numpy as np

from scoopgp.cli import main
from scoopgp.decide import run_deployment
from scoopgp.gp import load_model
from scoopgp.tasks import enumerate_action_grid, load_terrains

GEN = ("--set", "gen.n_train_materials=4", "--set", "gen.n_ood_materials=2", "--set", "gen.n_train_tasks=3",
       "--set", "gen.train_records=12", "--set", "gen.n_test_tasks=1", "--set", "gen.test_records=12")

GEN_DIGESTS = {
    "g.terrains.bin": "32495f5a7dd740612e5de10c0340e6750ab3f922d5e1ac176b233ea38b1336b6",
    "g.test.records.txt": "07d4c3c2ca6171e169fd02ba9f631908862c27faaaa85fce69ae6a62ff444196",
    "g.train.records.txt": "04f9c9d83ad9b09eebdef0867932e5694e0f1ee9695a0573300b64140c42dd6b",
}
LIVE_DIGEST = "c0e90ee5b87b281fc7bfe0f58ad66e5a1cf715e39d8b5e371f3d2911a7891e79"

# the test task's 12 records leave 3 outside each query set, so 3 shots is the most;
# on it ucb needs 7 attempts and mean 5, so both condition past their first step
EVAL = ("--set", "bench.shots=0,1,3", "--set", "bench.mae_trials=4", "--set", "bench.deploy_trials=3")

EVAL_DIGESTS = {
    "m.bin": "da1396583c21ad0613d727e1171760cdc3dfc0b48b4d4e9178229fa698545789",
    "mae.txt": "10c689be8f71e7f62925318ba046d3523cbfdee5ab491f6862fd695c01de696b",
    "mae_mean.txt": "97565c2ac034a4be7bf5046e7a2f760bcd91ad8c7802707be3ef21108ba6ce33",
    "deploy_ucb.txt": "11abc71289d696985cbeb43ebe0c789e01c1d84620aee27f4173692952354f8c",
    "deploy_mean.txt": "122e0cddabdf9f4b3ecfeebb76a8e2ce0f186af6907d731709a2e730ca57b715",
    "deploy_random.txt": "102d54984f9e55c7015da497f6ae0a04591b5965041a7bc22fa72ee4c9257343",
}

# four live scoops under the mean-only model: ucb conditions on each failure and both
# rescore the terrain the earlier scoops lowered
LIVE_MODEL_DIGESTS = {
    "ucb": "784c0fce3b1041deb196aec799645a986f4413cad11a360e08dfc9de6fcf1d63",
    "mean": "6597997a6329baf5014f69be1c802f5d8645aa42d28c8c1d1be343f92803dd15",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(tmp_path) -> None:
    assert main(["gen", "--seed", "9", "--prefix", str(tmp_path / "g"), *GEN]) == 0


def test_gen_and_live_random_trace_keep_their_digests(tmp_path, capsys):
    _gen(tmp_path)
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == GEN_DIGESTS
    # an unreachable threshold runs the whole budget: eight scoops, enough for a later
    # reward to read terrain an earlier scoop lowered
    trace = tmp_path / "live.txt"
    assert main(["deploy", "--mode", "live", "--scorer", "random", "--seed", "4",
                 "--data", str(tmp_path / "g.test.records.txt"), "--terrains", str(tmp_path / "g.terrains.bin"),
                 "--threshold", "1e9", "--set", "bench.budget=8", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert trace.read_text().count("\n") == 2 + 8 + 1
    assert _sha256(trace) == LIVE_DIGEST


def _train(tmp_path):
    model = tmp_path / "m.bin"
    assert main(["train", "--seed", "9", "--data", str(tmp_path / "g.train.records.txt"),
                 "--method", "mean-only", "--out", str(model)]) == 0
    return model


def test_mae_and_dataset_deploy_reports_keep_their_digests(tmp_path, capsys):
    _gen(tmp_path)
    model = _train(tmp_path)
    common = ["--seed", "5", "--data", str(tmp_path / "g.test.records.txt"), "--model", str(model), *EVAL]
    assert main(["eval-mae", *common, "--out", str(tmp_path / "mae.txt")]) == 0
    assert main(["eval-mae", "--mean-only", *common, "--out", str(tmp_path / "mae_mean.txt")]) == 0
    for scorer in ("ucb", "mean", "random"):
        assert main(["deploy", "--scorer", scorer, *common, "--out", str(tmp_path / f"deploy_{scorer}.txt")]) == 0
    capsys.readouterr()
    assert {name: _sha256(tmp_path / name) for name in EVAL_DIGESTS} == EVAL_DIGESTS


def test_live_model_traces_keep_their_digests(tmp_path, capsys):
    _gen(tmp_path)
    model = _train(tmp_path)
    (task,) = [t for t in load_terrains(str(tmp_path / "g.terrains.bin")) if t.id == "test000"]
    grid = enumerate_action_grid()
    for kind, digest in LIVE_MODEL_DIGESTS.items():
        trace = tmp_path / f"live_{kind}.txt"
        assert main(["deploy", "--mode", "live", "--scorer", kind, "--seed", "4", "--model", str(model),
                     "--data", str(tmp_path / "g.test.records.txt"), "--terrains", str(tmp_path / "g.terrains.bin"),
                     "--threshold", "1e9", "--set", "bench.budget=4", "--out", str(trace)]) == 0
        capsys.readouterr()
        assert trace.read_text().count("\n") == 2 + 4 + 1
        assert _sha256(trace) == digest
        # the same episode in process: every step holds the grid row its index names
        episode = run_deployment(load_model(str(model)), kind, task, 1e9, 4, 4)
        assert episode.to_text() + "\n" == trace.read_text()
        for step in episode.episodes:
            assert np.array_equal(step.action, grid[step.index])
