"""The committed headline reproduces: its seed-0 checkpoints and table rows.

results/rho-0.7/HEADLINE.txt starts with the command that made it. This
test reruns that command at one model seed, in a child process with one
BLAS thread: gen, then train, eval-mae and deploy ucb for codega, dkmt and
mean-only at model seed 0, the mean and random deploys, and report. The
seed-0 checkpoint ids must equal the headline's legend, and each table row
of the rerun must equal the headline's row of the same name, field by
field. A change that moves a checkpoint id or a reported number therefore
regenerates results/ with scripts/run_benchmark.py in the same change.

README's Results table quotes sign-test lines of the committed headlines;
the second test checks each quote against the line it cites, so a change
that regenerates results/ updates README too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADLINE = ROOT / "results" / "rho-0.7" / "HEADLINE.txt"
LEVELS = ("rho-1.0", "rho-0.7", "rho-0.3")


def _command(first_line: str) -> list:
    """The driver arguments of a headline's first line, at one model seed."""
    prefix = "scoopgp headline: "
    assert first_line.startswith(prefix), first_line
    args = first_line[len(prefix):].split()
    i = args.index("--model-seeds")
    return args[:i] + ["--model-seeds", "1"] + args[i + 2:]


def _rows(text: str) -> dict:
    """{method: fields} for each row of the report tables: the lines whose
    first field names a method at a checkpoint, such as ucb@3505409abc3b."""
    return {f[0]: f for f in (line.split() for line in text.splitlines()) if f and "@" in f[0]}


def _seed0_legend(text: str) -> dict:
    """{model label: checkpoint id} of the legend's seed-0 lines."""
    return {" ".join(f[1:-2]): f[0] for f in (line.split() for line in text.splitlines())
            if f[-2:] == ["seed", "0"] and len(f) >= 4}


def test_committed_headline_reproduces_at_model_seed_0(tmp_path):
    committed = HEADLINE.read_text(encoding="utf-8")
    env = dict(os.environ, SCOOPGP_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), "--out", str(tmp_path / "run"),
            *_command(committed.splitlines()[0])]
    run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    rerun = (tmp_path / "run" / "HEADLINE.txt").read_text(encoding="utf-8")

    legend = _seed0_legend(committed)
    assert sorted(legend) == ["codega", "dkmt", "untrained kernel"]
    assert _seed0_legend(rerun) == legend
    rows, expected = _rows(rerun), _rows(committed)
    for ckpt in legend.values():
        assert f"kshot-mae@{ckpt}" in rows and f"ucb@{ckpt}" in rows
    assert {name: expected.get(name) for name in rows} == rows


def _results_table() -> dict:
    """{claim: {column: cell}} of README's Results table, a claim being the
    C1 of a first cell such as "C1: CoDeGa predicts ..."."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Results\n", 1)[1].split("\n## ", 1)[0]
    header, _, *rows = ([c.strip() for c in line.strip("|").split("|")]
                        for line in section.splitlines() if line.startswith("|"))
    return {row[0].split(":")[0]: dict(zip(header, row)) for row in rows}


def test_readme_results_quote_the_committed_headline_lines():
    table = _results_table()
    assert sorted(table) == ["C1", "C2", "C3", "C4"]
    for claim, row in table.items():
        assert row["verdict"].split(":")[0] in ("supported", "not supported", "not testable here"), row
        for level in LEVELS:
            lines = (ROOT / "results" / level / "HEADLINE.txt").read_text(encoding="utf-8").splitlines()
            quotes = re.findall(r"`(\d+): ([^`]*)`", row[level])
            # every testable claim quotes at least one line at each level
            assert quotes or row["verdict"].startswith("not testable"), (claim, level)
            for number, quoted in quotes:
                assert re.fullmatch(r"\d+ lower, \d+ higher, \d+ tied, p = \S+", quoted), (claim, quoted)
                assert lines[int(number) - 1].endswith(": " + quoted), (claim, level, number)
