"""Golden digests: CLI outputs pinned byte for byte across commits.

A small fixed `gen` and a one-task live deployment under the random scorer
(which needs no model, yet runs the grid columns, the feasibility mask,
the reward oracle, the terrain update and the trace text) must keep
these sha256 digests. A change that means to alter these bytes updates
the digests and says why; any other change that moves them is a
regression. The digests were taken with numpy 2.4 and scipy 1.17.
"""

import hashlib

from scoopgp.cli import main

GEN = ("--set", "gen.n_train_materials=4", "--set", "gen.n_ood_materials=2", "--set", "gen.n_train_tasks=3",
       "--set", "gen.train_records=12", "--set", "gen.n_test_tasks=1", "--set", "gen.test_records=12")

GEN_DIGESTS = {
    "g.terrains.bin": "32495f5a7dd740612e5de10c0340e6750ab3f922d5e1ac176b233ea38b1336b6",
    "g.test.records.txt": "07d4c3c2ca6171e169fd02ba9f631908862c27faaaa85fce69ae6a62ff444196",
    "g.train.records.txt": "04f9c9d83ad9b09eebdef0867932e5694e0f1ee9695a0573300b64140c42dd6b",
}
LIVE_DIGEST = "c0e90ee5b87b281fc7bfe0f58ad66e5a1cf715e39d8b5e371f3d2911a7891e79"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_and_live_random_trace_keep_their_digests(tmp_path, capsys):
    assert main(["gen", "--seed", "9", "--prefix", str(tmp_path / "g"), *GEN]) == 0
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
