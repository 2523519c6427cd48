"""Golden CLI runs: every subcommand on seeded `gen` inputs.

Each case runs in a fresh copy of the input directory, with relative
paths, and pins the sha256 of the printed output, the exit code and the
sha256 of every file the run wrote or changed. The expected values live
in cli_golden.json next to this file; to record them again, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import pathlib
import shutil

import pytest
from click.testing import CliRunner

from coarsetd.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

# Inputs, in order; each is itself a golden case.
GEN = [
    ("gen-k-tree", ["--seed", "1", "gen", "--family", "k-tree",
                    "--param", "k=2", "--param", "n=12", "-o", "kt"]),
    ("gen-grid-slice", ["gen", "--family", "grid-slice",
                        "--param", "rows=3", "--param", "cols=4", "-o", "grid"]),
    ("gen-subdivided-k-tree", ["--seed", "3", "gen", "--family",
                               "subdivided-k-tree", "--param", "k=1",
                               "--param", "n=6", "--param", "s=1", "-o", "sub"]),
    ("gen-random-branch-decomposition", ["--seed", "4", "gen", "--family",
                                         "random-branch-decomposition",
                                         "--param", "n=8", "--param", "p=0.3",
                                         "-o", "rbd"]),
    ("bipartite-partition-k-tree", ["bipartite-partition", "--graph", "kt/g.gr",
                                    "--td", "kt/t.td", "-o", "kt/p.part"]),
]

KT = ["--graph", "kt/g.gr", "--td", "kt/t.td"]
GRID = ["--graph", "grid/g.gr", "--td", "grid/t.td"]
SUB = ["--graph", "sub/g.gr", "--host", "sub/base.gr", "--map", "sub/m.map"]
RBD = ["--graph", "rbd/g.gr", "--bd", "rbd/b.bd"]

CASES = [
    ("validate-td", ["validate-td", *KT]),
    ("validate-td-path-shape", ["--shape", "path", "validate-td", *GRID]),
    ("validate-td-host-mismatch", ["validate-td", "--graph", "sub/base.gr",
                                   "--td", "kt/t.td"]),
    ("metrics", ["metrics", *KT]),
    ("metrics-centred", ["metrics", *KT, "--k", "2", "--d", "2"]),
    ("metrics-uncentred", ["metrics", *GRID, "--k", "1", "--d", "1"]),
    ("metrics-k-only", ["metrics", *KT, "--k", "1"]),
    ("metrics-cap-too-small", ["--cap", "2", "metrics", *KT]),
    ("centred-check-td", ["centred-check", *KT, "--k", "2", "--d", "2"]),
    ("centred-check-set", ["centred-check", "--graph", "grid/g.gr",
                           "--set", "1,2,3,4,5,6", "--k", "2", "--d", "2"]),
    ("centred-check-heuristic", ["centred-check", *GRID, "--k", "1", "--d", "1",
                                 "--mode", "heuristic"]),
    ("augment", ["augment", *KT, "--d", "2", "-o", "aug"]),
    ("quotient", ["quotient", "--graph", "kt/g.gr", "--part", "kt/p.part",
                  "-o", "q.gr"]),
    ("bipartite-partition", ["bipartite-partition", *GRID, "-o", "grid.part"]),
    ("bipartite-partition-budget-0", ["bipartite-partition", *KT,
                                      "--budget", "0"]),
    ("push-td", ["push-td", *KT, "--part", "kt/p.part", "-o", "pushed.td"]),
    ("pipeline", ["pipeline", *KT, "--k", "3", "--d", "1", "-o", "pipe"]),
    ("pipeline-grid", ["--shape", "path", "pipeline", *GRID, "--k", "2",
                       "--d", "2", "-o", "pipe"]),
    ("pipeline-uncentred", ["pipeline", *GRID, "--k", "1", "--d", "1",
                            "-o", "pipe"]),
    ("pipeline-skip-centred-check", ["pipeline", *GRID, "--k", "1", "--d", "1",
                                     "--skip-centred-check", "-o", "pipe"]),
    ("pipeline-budget-0", ["pipeline", *KT, "--k", "3", "--d", "1",
                           "--budget", "0", "-o", "pipe"]),
    ("pullback", ["pullback", *SUB, "--host-td", "sub/base.td", "--c", "2",
                  "-o", "pb.td"]),
    ("pullback-cap-too-small", ["--cap", "2", "pullback", *SUB,
                                "--host-td", "sub/base.td", "--c", "2",
                                "-o", "pb.td"]),
    ("qi-constant", ["qi-constant", *SUB]),
    ("qi-constant-qmax-1", ["qi-constant", *SUB, "--qmax", "1"]),
    ("compose", ["compose", "--graph", "sub/g.gr", "--mid", "sub/base.gr",
                 "--host", "sub/base.gr", "--map1", "sub/m.map",
                 "--map2", "sub/id.map", "-o", "c.map"]),
    ("simval", ["simval", "--graph", "rbd/g.gr", "--set", "1,2,3,4"]),
    ("simval-cap-too-small", ["--cap", "2", "simval", "--graph", "rbd/g.gr",
                              "--set", "1,2,3,4"]),
    ("sim-to-td", ["sim-to-td", *RBD, "-o", "s.td"]),
    ("sim-pipeline", ["sim-pipeline", *RBD, "-o", "sp"]),
    ("exact-tw", ["exact-tw", "--graph", "grid/g.gr", "-o", "w.td"]),
    ("exact-tw-cap-too-small", ["--cap", "4", "exact-tw", "--graph", "kt/g.gr"]),
    ("gen-path", ["gen", "--family", "path", "--param", "n=5", "-o", "gp"]),
    ("gen-bad-param", ["gen", "--family", "path", "--param", "n", "-o", "gp"]),
]


def _hashes(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run(workdir, args, monkeypatch):
    """Run one CLI call in workdir; its digest of output, exit code, files."""
    before = _hashes(workdir)
    monkeypatch.chdir(workdir)
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.output
    )
    after = _hashes(workdir)
    return {
        "output": hashlib.sha256(result.output.encode()).hexdigest(),
        "exit_code": result.exit_code,
        "files": {k: v for k, v in after.items() if before.get(k) != v},
    }


def _build_inputs(workdir, monkeypatch):
    workdir.mkdir()
    records = {name: _run(workdir, args, monkeypatch) for name, args in GEN}
    (workdir / "sub" / "id.map").write_text(
        "".join(f"{v} {v}\n" for v in range(1, 7))
    )
    return records


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    monkeypatch = pytest.MonkeyPatch()
    workdir = tmp_path_factory.mktemp("golden") / "inputs"
    try:
        yield workdir, _build_inputs(workdir, monkeypatch)
    finally:
        monkeypatch.undo()


def _run_case(inputs_dir, workdir, args, monkeypatch):
    shutil.copytree(inputs_dir, workdir)
    return _run(workdir, args, monkeypatch)


@pytest.mark.parametrize("name", [name for name, _ in GEN])
def test_golden_inputs(inputs, name):
    assert inputs[1][name] == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name,args", CASES, ids=[name for name, _ in CASES])
def test_golden_case(inputs, tmp_path, monkeypatch, name, args):
    record = _run_case(inputs[0], tmp_path / "w", args, monkeypatch)
    assert record == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import tempfile

    monkeypatch = pytest.MonkeyPatch()
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        golden = _build_inputs(root / "inputs", monkeypatch)
        for name, args in CASES:
            golden[name] = _run_case(root / "inputs", root / name, args, monkeypatch)
        monkeypatch.undo()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
