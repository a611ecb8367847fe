"""Every reader of a file the package writes either returns or raises one of
the package's typed errors, whatever the bytes it is given.

Each case starts from a valid file and applies a few random mutations:
a token swapped for a troublesome one, bytes replaced (non-UTF-8 included),
or the file cut short. Binary containers are mutated in their JSON header
line, where a change reaches the reader's own checks rather than the raw
blocks.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoopgp.bench import (DeployReport, DeployRow, MaeReport, MaeRow, read_deploy_report,
                           read_mae_report, write_deploy_report, write_mae_report)
from scoopgp.config import load_config
from scoopgp.errors import ConfigError, IngestError, SerializationError
from scoopgp.gp import load_model, model_from_bytes, model_to_bytes
from scoopgp.serialize import container_bytes, parse_container, read_container
from scoopgp.tasks import (generate_materials, generate_task, load_terrains, read_database,
                           save_terrains, write_database)

from helpers import assert_columns_equal_reference, random_model, reference_read_database, toy_dataset

TYPED = (ConfigError, IngestError, SerializationError)

TOKENS = [b"", b"0", b"-1", b"2", b"1e999", b"-1e400", b"Infinity", b"NaN", b"nan", b"-inf", b"x", b"\xff\xfe", b",", b"=", b"#", b":",
          b"\n", b"{}", b"[]", b"null", b"true", b'"a"', b"99999999999", b"0.5", b"single", b"none"]

_SEPARATORS = re.compile(rb"([\s,:=\[\]{}\"]+)")


def _config_text() -> bytes:
    return (b"# run\ngen.rho = 0.3\ntrain.folds = 2\ntrain.log_every = 0\n"
            b"bench.shots = 0,5\nbench.exclude_below = 2.5\n")


def _write_samples(root) -> dict:
    """{case: (files, reader)}: the valid bytes of each file a case reads, by
    path, and a call that reads them back."""
    p = str(root)
    write_database(f"{p}/db", [toy_dataset("a", [[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0]),
                               toy_dataset("b", [[0.5, 0.5]], [1.0], "mixture", ("m1", "m2"))])
    write_mae_report(f"{p}/r.mae.txt", MaeReport("kshot-mae", 0, "c1", 2, (0, 5), (
        MaeRow("a", 0, 2.0, 4.0), MaeRow("a", 5, 1.5, 3.0))))
    write_deploy_report(f"{p}/r.deploy.txt", DeployReport(
        "ucb", 0, "c1", 20, 2, (DeployRow("a", 0, 3, True), DeployRow("a", 1, 20, False)), ("b",)))
    pool = generate_materials(2, 1, 0.7, 0)
    save_terrains(f"{p}/t.bin", [generate_task("t0", pool.training[:2], "layers", 0)])
    with open(f"{p}/run.conf", "wb") as fh:
        fh.write(_config_text())
    model = model_to_bytes(random_model(4, 0))
    container = container_bytes("probe", {"k": [1, 2]}, [[1.0, 2.0], [[3]]])

    def files(*names):
        out = {}
        for name in names:
            with open(f"{p}/{name}", "rb") as fh:
                out[f"{p}/{name}"] = fh.read()
        return out

    return {
        "read_database": (files("db.records.txt"), lambda: read_database(f"{p}/db")),
        "read_mae_report": (files("r.mae.txt"), lambda: read_mae_report(f"{p}/r.mae.txt")),
        "read_deploy_report": (files("r.deploy.txt"), lambda: read_deploy_report(f"{p}/r.deploy.txt")),
        "load_terrains": (files("t.bin"), lambda: load_terrains(f"{p}/t.bin")),
        "load_config": (files("run.conf"), lambda: load_config(f"{p}/run.conf")),
        "parse_container": ({f"{p}/c.bin": container}, lambda: parse_container(_read(f"{p}/c.bin"))),
        "model_from_bytes": ({f"{p}/m.bin": model}, lambda: model_from_bytes(_read(f"{p}/m.bin"))),
    }


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    # containers: mutate the JSON header line and keep the blocks after it
    binary = data.startswith(b'{"blocks"')
    head, tail = (data.split(b"\n", 1)[0], data[data.index(b"\n"):]) if binary else (data, b"")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "bytes", "cut"]))
        if kind == "token":
            parts = _SEPARATORS.split(head)  # separators at the odd indices
            parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(TOKENS))
            head = b"".join(parts)
        elif kind == "bytes":
            i = draw(st.integers(0, len(head)))
            head = head[:i] + draw(st.binary(min_size=0, max_size=3)) + head[i + draw(st.integers(0, 3)):]
        else:
            cut = draw(st.integers(0, len(head) + len(tail)))
            head, tail = (head + tail)[:cut], b""
    return head + tail


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    return _write_samples(tmp_path_factory.mktemp("readers"))


CASES = ["read_database", "read_mae_report", "read_deploy_report",
         "load_terrains", "load_config", "parse_container", "model_from_bytes"]


@pytest.mark.parametrize("case", CASES)
def test_readers_accept_the_valid_files(samples, case):
    files, reader = samples[case]
    for path, valid in files.items():
        with open(path, "wb") as fh:
            fh.write(valid)
    assert reader()


@pytest.mark.parametrize("case", CASES)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_readers_raise_only_typed_errors_on_mutated_files(samples, case, data):
    files, reader = samples[case]
    target = data.draw(st.sampled_from(sorted(files)))
    for path, valid in files.items():
        with open(path, "wb") as fh:
            fh.write(data.draw(_mutated(valid)) if path == target else valid)
    try:
        reader()
    except TYPED:
        pass


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize("reader, error, name", [
    (load_model, SerializationError, "input"), (load_terrains, SerializationError, "input"),
    (load_config, ConfigError, "input"),
    (read_database, IngestError, "input.records.txt"),
], ids=["load_model-SerializationError", "load_terrains-SerializationError", "load_config-ConfigError",
        "read_database-records"])
def test_file_readers_name_a_missing_or_unreadable_path(tmp_path, reader, error, name, where):
    path = tmp_path / name
    if where == "directory":
        path.mkdir()
    with pytest.raises(error, match="not found" if where == "missing" else "Is a directory") as info:
        reader(str(tmp_path / "input"))
    assert str(path) in str(info.value)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_read_database_accepts_exactly_what_the_reference_reader_accepts(samples, data):
    """The columnar reader against the record-at-a-time one it replaced: the
    same files pass, with the same values, except that non-finite features
    are now an IngestError; every other file raises IngestError in both."""
    files, reader = samples["read_database"]
    target = data.draw(st.sampled_from(sorted(files)))
    for path, valid in files.items():
        with open(path, "wb") as fh:
            fh.write(data.draw(_mutated(valid)) if path == target else valid)
    try:
        reference = reference_read_database(target)
    except IngestError:
        with pytest.raises(IngestError):
            reader()
        return
    if all(np.isfinite(r.features).all() for ds in reference for r in ds.records):
        assert_columns_equal_reference(reader(), reference)
    else:
        with pytest.raises(IngestError) as info:
            reader()
        assert info.value.field == "features"


@pytest.mark.parametrize("reader", ["parse_container", "read_container"])
def test_container_readers_check_declared_sizes_before_allocating(tmp_path, reader):
    """A header that declares 1e11 float64 elements (745 GiB), as a mutated
    header once did, is a truncated container, found without allocating
    the block; a short file is truncated, a long one has trailing bytes,
    and an empty block of more axes, or a longer one, than numpy allows is
    a bad shape."""
    valid = container_bytes("probe", {}, [np.arange(4.0)])
    path = tmp_path / "c.bin"

    def declaring(shape):
        return json.dumps({"magic": "SGPC1", "kind": "probe", "meta": {},
                           "blocks": [{"dtype": "<f8", "shape": shape}]}).encode() + b"\n"

    def read(data):
        path.write_bytes(data)
        return parse_container(data, "probe") if reader == "parse_container" else read_container(str(path), "probe")

    for data, message in [(declaring([10 ** 5, 10 ** 6]) + valid.split(b"\n", 1)[1], "truncated"),
                          (valid[:-1], "truncated"), (valid + b"\0", "trailing bytes"),
                          (declaring([0, 10 ** 30]), "bad block shape"), (declaring([0] * 70), "bad block shape")]:
        tracemalloc.start()
        try:
            with pytest.raises(SerializationError, match=message):
                read(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    _, blocks = read(valid)
    assert np.array_equal(blocks[0], np.arange(4.0))
