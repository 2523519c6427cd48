import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import coarsetd
from coarsetd.cli import main
from coarsetd.fileio import emit_bd, emit_graph, emit_td
from coarsetd.generators import generate_corpus
from helpers import cycle_graph, path_graph


def write_c6(tmp_path):
    inst = generate_corpus("cycle", {"n": 6})
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text(emit_graph(inst.graph))
    td.write_text(emit_td(inst.decomposition, inst.graph.n))
    return gr, td


def run(args):
    return CliRunner().invoke(main, args)


def test_validate_td_ok(tmp_path):
    gr, td = write_c6(tmp_path)
    result = run(["validate-td", "--graph", str(gr), "--td", str(td)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["checks"]["valid"] is True
    assert payload["ok"] is True


def test_validate_td_catches_violation(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text("p tw 3 3\n1 2\n2 3\n1 3\n")
    td.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    result = run(["validate-td", "--graph", str(gr), "--td", str(td)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["checks"]["valid"] is False
    assert payload["details"]["violation"]["kind"] == "edge_uncovered"


def test_metrics(tmp_path):
    gr, td = write_c6(tmp_path)
    result = run(["metrics", "--graph", str(gr), "--td", str(td)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["measured"]["width"] == 2


@pytest.mark.parametrize("kd,code,centred", [
    (["--k", "2", "--d", "2"], 0, True),
    (["--k", "1", "--d", "1"], 1, False),
    (["--k", "1"], 0, None),
])
def test_metrics_centred_verdict(tmp_path, kd, code, centred):
    gr, td = write_c6(tmp_path)
    result = run(["metrics", "--graph", str(gr), "--td", str(td), *kd])
    assert result.exit_code == code, result.output
    checks = json.loads(result.output)["checks"]
    assert checks.get("centred") is centred
    assert checks["domination_le_independence"] is True


def test_centred_check_set(tmp_path):
    gr, _ = write_c6(tmp_path)
    result = run([
        "centred-check", "--graph", str(gr), "--set", "1,2,3,4,5,6",
        "--k", "2", "--d", "2",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["measured"]["verdict"] == "true"
    assert payload["details"]["witness"] == [[1, 2, 3], [4, 5, 6]]
    result = run([
        "centred-check", "--graph", str(gr), "--set", "1,2,3,4,5,6",
        "--k", "1", "--d", "2",
    ])
    assert result.exit_code == 1


def test_pipeline_writes_artifacts(tmp_path):
    gr, td = write_c6(tmp_path)
    out = tmp_path / "out"
    result = run([
        "pipeline", "--graph", str(gr), "--td", str(td),
        "--k", "2", "--d", "1", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    for name in ("h.gr", "h.td", "map.map", "report.json"):
        assert (out / name).exists()
    payload = json.loads((out / "report.json").read_text())
    for key in ("k", "d", "width_out", "stage_constants", "composed_constant",
                "claimed_bound", "partition_diameter"):
        assert key in payload
    assert payload["k"] == 2 and payload["d"] == 1
    assert payload["ok"] is True
    assert payload["bounds"]["width_out"]["formula"] == "2k-1"


def test_pipeline_rejects_uncentred(tmp_path):
    gr, td = write_c6(tmp_path)
    out = tmp_path / "out"
    result = run([
        "pipeline", "--graph", str(gr), "--td", str(td),
        "--k", "1", "--d", "1", "-o", str(out),
    ])
    assert result.exit_code != 0
    assert "centred" in result.output


def test_qi_constant_and_compose(tmp_path):
    g = path_graph(5)
    h = cycle_graph(6)
    gr = tmp_path / "g.gr"
    hr = tmp_path / "h.gr"
    mp = tmp_path / "m.map"
    gr.write_text(emit_graph(g))
    hr.write_text(emit_graph(h))
    mp.write_text("".join(f"{v} {v}\n" for v in range(1, 6)))
    result = run([
        "qi-constant", "--graph", str(gr), "--host", str(hr), "--map", str(mp),
    ])
    assert result.exit_code == 0, result.output
    q = json.loads(result.output)["measured"]["q"]
    assert isinstance(q, int)

    out_map = tmp_path / "c.map"
    (tmp_path / "id.map").write_text("".join(f"{v} {v}\n" for v in range(1, 6)))
    result = run([
        "compose", "--graph", str(gr), "--mid", str(gr), "--host", str(hr),
        "--map1", str(tmp_path / "id.map"), "--map2", str(mp),
        "-o", str(out_map),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["bounds"]["composed"]["formula"] == "q(c+2)"
    assert out_map.exists()


def test_pullback(tmp_path):
    gr, td = write_c6(tmp_path)
    k1 = tmp_path / "host.gr"
    k1.write_text("p tw 1 0\n")
    host_td = tmp_path / "host.td"
    host_td.write_text("s td 1 1 1\nb 1 1\n")
    mp = tmp_path / "m.map"
    mp.write_text("".join(f"{v} 1\n" for v in range(1, 7)))
    out = tmp_path / "out.td"
    result = run([
        "pullback", "--graph", str(gr), "--host", str(k1), "--map", str(mp),
        "--host-td", str(host_td), "--c", "2", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["checks"]["valid"] is True
    assert payload["checks"]["centred"] is True
    assert payload["bounds"]["centred_diameter"]["value"] == 12
    assert out.exists()


def test_simval_and_sim_pipeline(tmp_path):
    gr, _ = write_c6(tmp_path)
    result = run(["simval", "--graph", str(gr), "--set", "1,2,3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["measured"]["simval"] == 2

    inst = generate_corpus("random-branch-decomposition", {"n": 7, "p": 0.3}, seed=2)
    g2 = tmp_path / "g2.gr"
    bdf = tmp_path / "b.bd"
    g2.write_text(emit_graph(inst.graph))
    bdf.write_text(emit_bd(inst.branch_decomposition))
    out_td = tmp_path / "s.td"
    result = run(["sim-to-td", "--graph", str(g2), "--bd", str(bdf), "-o", str(out_td)])
    assert result.exit_code == 0, result.output
    assert out_td.exists()

    out = tmp_path / "simout"
    result = run(["sim-pipeline", "--graph", str(g2), "--bd", str(bdf), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "report.json").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["bounds"]["width_out"]["formula"] == "12k-1"


def test_exact_tw(tmp_path):
    gr, _ = write_c6(tmp_path)
    out = tmp_path / "w.td"
    result = run(["exact-tw", "--graph", str(gr), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["measured"]["treewidth"] == 2
    assert out.exists()


def test_gen_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["--seed", "5", "gen", "--family", "k-tree",
            "--param", "k=2", "--param", "n=9"]
    assert run(args + ["-o", str(out1)]).exit_code == 0
    assert run(args + ["-o", str(out2)]).exit_code == 0
    assert (out1 / "g.gr").read_text() == (out2 / "g.gr").read_text()
    assert (out1 / "t.td").read_text() == (out2 / "t.td").read_text()


def test_gen_subdivided_writes_map(tmp_path):
    out = tmp_path / "sub"
    result = run([
        "--seed", "3", "gen", "--family", "subdivided-k-tree",
        "--param", "k=1", "--param", "n=5", "--param", "s=1", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    for name in ("g.gr", "base.gr", "base.td", "m.map"):
        assert (out / name).exists()


def test_parse_error_reported(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 2 1\n1 5\n")
    result = run(["exact-tw", "--graph", str(bad)])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_augment_and_partition_flow(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text(emit_graph(path_graph(5)))
    td.write_text("s td 2 3 5\nb 1 1 2 3\nb 2 3 4 5\n1 2\n")
    out = tmp_path / "aug"
    result = run([
        "augment", "--graph", str(gr), "--td", str(td), "--d", "2",
        "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["measured"]["identity_constant"] == 2
    assert payload["measured"]["added_edges"] == 2
    for name in ("h.gr", "h.td", "map.map", "report.json"):
        assert (out / name).exists()

    # partition the augmented graph, then quotient and push through it
    part = tmp_path / "p.part"
    result = run([
        "bipartite-partition", "--graph", str(out / "h.gr"),
        "--td", str(out / "h.td"), "-o", str(part),
    ])
    assert result.exit_code == 0, result.output
    assert part.exists()
    qout = tmp_path / "q.gr"
    result = run([
        "quotient", "--graph", str(out / "h.gr"), "--part", str(part),
        "-o", str(qout),
    ])
    assert result.exit_code == 0, result.output
    pushed = tmp_path / "pushed.td"
    result = run([
        "push-td", "--graph", str(out / "h.gr"), "--td", str(out / "h.td"),
        "--part", str(part), "-o", str(pushed),
    ])
    assert result.exit_code == 0, result.output
    result = run(["validate-td", "--graph", str(qout), "--td", str(pushed)])
    assert result.exit_code == 0, result.output


def test_shape_flag_enforced(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text("p tw 4 3\n1 2\n1 3\n1 4\n")
    td.write_text(
        "s td 4 2 4\nb 1 1 2\nb 2 1 3\nb 3 1 4\nb 4 1\n4 1\n4 2\n4 3\n"
    )
    assert run(["validate-td", "--graph", str(gr), "--td", str(td)]).exit_code == 0
    result = run([
        "--shape", "path", "validate-td", "--graph", str(gr), "--td", str(td),
    ])
    assert result.exit_code != 0
    assert "degree" in result.output


@pytest.mark.parametrize("args", [
    ["centred-check", "--graph", "{g}", "--set", "1,2", "--k", "0", "--d", "1"],
    ["centred-check", "--graph", "{p3}", "--set", "1,9", "--k", "1", "--d", "1"],
    ["augment", "--graph", "{g}", "--td", "{td}", "--d", "-1", "-o", "{out}"],
    ["pipeline", "--graph", "{g}", "--td", "{td}", "--k", "0", "--d", "1",
     "-o", "{out}"],
    ["qi-constant", "--graph", "{g}", "--host", "{g}", "--map", "{map}",
     "--qmax", "0"],
    ["simval", "--graph", "{g}", "--set", "7"],
    ["validate-td", "--graph", "{dir}", "--td", "{td}"],
    ["pipeline", "--graph", "{g}", "--td", "{td}", "--k", "2", "--d", "1",
     "-o", "{g}"],
])
def test_rejected_arguments_exit_cleanly(tmp_path, args):
    gr, td = write_c6(tmp_path)
    p3 = tmp_path / "p3.gr"
    p3.write_text(emit_graph(path_graph(3)))
    mp = tmp_path / "id.map"
    mp.write_text("".join(f"{v} {v}\n" for v in range(1, 7)))
    paths = {"g": gr, "td": td, "p3": p3, "map": mp, "out": tmp_path / "out",
             "dir": tmp_path}
    result = run([arg.format(**paths) for arg in args])
    assert result.exit_code == 1
    assert "Error:" in result.output
    assert "Traceback" not in result.output


def test_closed_stdout_exits_quietly(tmp_path):
    gr, td = write_c6(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = pathlib.Path(coarsetd.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "coarsetd.cli", "validate-td",
         "--graph", str(gr), "--td", str(td)],
        stdout=write_end, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("command", [
    ["augment", "--d", "1", "-o", "{out}"],
    ["bipartite-partition"],
    ["pipeline", "--k", "2", "--d", "1", "-o", "{out}"],
])
def test_invalid_decomposition_rejected(tmp_path, command):
    gr, _ = write_c6(tmp_path)
    td = tmp_path / "bad.td"
    td.write_text("s td 2 3 6\nb 1 1 2 3\nb 2 4 5 6\n1 2\n")  # (3,4) uncovered
    out = str(tmp_path / "out")
    result = run([
        command[0], "--graph", str(gr), "--td", str(td),
        *(arg.format(out=out) for arg in command[1:]),
    ])
    assert result.exit_code != 0
    assert "decomposition invalid" in result.output
