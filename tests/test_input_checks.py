"""Every input check of the library and CLI that no other test reaches,
pinned by exception type and exact message, like PARSE_ERRORS for the
file parsers."""

import itertools

import pytest
from click.testing import CliRunner

from coarsetd import (
    BranchDecomposition,
    DisconnectedError,
    EmptySetError,
    Graph,
    MalformedDecompositionError,
    Partition,
    QuasiIsometryMap,
    TooLargeError,
    TreeDecomposition,
    bipartite_partition,
    centred_check,
    decomposition_from_order,
    dominating_partition,
    exact_treewidth,
    identity_map,
    minimum_diameter_bipartite_partition,
    power_graph,
    pullback_decomposition,
    qi_constant,
    quotient_map,
    run_pipeline,
    simwidth_pipeline,
    validate_decomposition,
)
from coarsetd.cli import main
from coarsetd.fileio import emit_graph, emit_partition, emit_td
from helpers import path_graph, single_bag_td

P3 = path_graph(3)
EDGE = Graph(2, [(1, 2)])

INPUT_ERRORS = [
    pytest.param(*row, id=row[0]) for row in [
        ("td-shape", lambda: TreeDecomposition(Graph(1), {1: frozenset({1})}, shape="star"),
         MalformedDecompositionError, "unknown shape 'star'"),
        ("order-not-a-permutation", lambda: decomposition_from_order(P3, [1, 2]),
         ValueError, "order must enumerate every vertex exactly once"),
        ("centred-d", lambda: centred_check(P3, {1}, 1, -1),
         ValueError, "d must be non-negative"),
        ("centred-mode", lambda: centred_check(P3, {1}, 1, 1, mode="fast"),
         ValueError, "unknown mode 'fast'"),
        ("treewidth-empty", lambda: exact_treewidth(Graph(0)),
         EmptySetError, "treewidth of the empty graph is undefined"),
        ("power-exponent", lambda: power_graph(P3, -1, P3.vertices),
         ValueError, "power graph exponent must be >= 0"),
        ("quotient-d", lambda: quotient_map(Partition(P3, [{1}, {2}, {3}]), 0),
         ValueError, "d must be a positive integer"),
        ("partition-empty", lambda: bipartite_partition(Graph(0)),
         EmptySetError, "cannot partition the empty graph"),
        ("search-empty", lambda: minimum_diameter_bipartite_partition(Graph(0)),
         EmptySetError, "cannot partition the empty graph"),
        ("search-disconnected", lambda: minimum_diameter_bipartite_partition(Graph(2)),
         DisconnectedError, "partition search needs a connected graph"),
        ("pipeline-d", lambda: run_pipeline(P3, single_bag_td(P3), 1, -1),
         ValueError, "d must be non-negative"),
        ("pipeline-empty", lambda: run_pipeline(Graph(0), single_bag_td(Graph(0)), 1, 1),
         EmptySetError, "cannot run the pipeline on the empty graph"),
        ("qi-empty", lambda: qi_constant(Graph(0), P3, QuasiIsometryMap(Graph(0), P3, {}), 1),
         EmptySetError, "quasi-isometry needs non-empty graphs"),
        ("pullback-c", lambda: pullback_decomposition(
            P3, P3, identity_map(P3, P3), single_bag_td(P3), 0),
         ValueError, "c must be a positive integer"),
        ("leaf-map-keys", lambda: BranchDecomposition(EDGE, {1: 1, 3: 2}),
         MalformedDecompositionError, "leaf map must cover vertices 1..n exactly"),
        # the certificates read g.balls(1), where entry 0 is 0 and entry -1 a
        # real mask, so only the vertex check stops an id outside 1..n
        *[(f"partition-vertex-{v}", lambda v=v: dominating_partition(P3, {v}),
           ValueError, f"vertex {v} outside range 1..3") for v in (0, -1, 4)],
        ("partition-cap", lambda: dominating_partition(P3, {0, 1, 2}, cap=2),
         TooLargeError, "graph has size 3, exceeding the exact-solver cap 2"),
        ("certificate-cap", lambda: simwidth_pipeline(
            EDGE, BranchDecomposition(EDGE, {1: 1, 2: 2}), cap=1),
         TooLargeError, "bag 1 has size 2, exceeding the exact-solver cap 1"),
        ("side-not-an-edge",
         lambda: BranchDecomposition(Graph(3, [(1, 2), (2, 3)]), {1: 1, 2: 3}).side((1, 3)),
         ValueError, "(1,3) is not a tree edge"),
    ]
]


@pytest.mark.parametrize("name, call, exc, message", INPUT_ERRORS)
def test_input_error_messages(name, call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message


@pytest.mark.parametrize("args, message", [
    (["--set", "1,x"], "Error: bad vertex set '1,x'\n"),
    ([], "Error: pass exactly one of --td or --set\n"),
    (["--set", "1", "--td", "t.td"], "Error: pass exactly one of --td or --set\n"),
])
def test_centred_check_cli_input_errors(tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gr").write_text(emit_graph(P3))
    (tmp_path / "t.td").write_text(emit_td(single_bag_td(P3), P3.n))
    result = CliRunner().invoke(
        main, ["centred-check", "--graph", "g.gr", "--k", "1", "--d", "1", *args]
    )
    assert result.exit_code == 1
    assert result.output == message


# P3's decomposition with vertex 2 in bags 1 and 3 but not in bag 2
GAP_TD = "s td 3 2 3\nb 1 1 2\nb 2 3\nb 3 2 3\n1 2\n2 3\n"


@pytest.mark.parametrize("args", [
    ["metrics"],
    ["metrics", "--k", "1", "--d", "2"],
    ["centred-check", "--k", "1", "--d", "2"],
    ["push-td", "--part", "p.part", "-o", "o.td"],
    ["augment", "--d", "1", "-o", "aug"],
    ["bipartite-partition", "-o", "o.part"],
    ["pipeline", "--k", "1", "--d", "2", "-o", "pipe"],
])
def test_commands_that_use_a_td_refuse_an_invalid_one(tmp_path, monkeypatch, args):
    """Every command that reads a .td as a decomposition of its graph, all
    but validate-td, which reports the violation, refuses an invalid one
    with one line and writes nothing. At d = 2 the gap's bags are one piece
    each, so an unvalidated centred check would pass it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gr").write_text(emit_graph(P3))
    (tmp_path / "t.td").write_text(GAP_TD)
    (tmp_path / "p.part").write_text(emit_partition([[1], [2], [3]]))
    result = CliRunner().invoke(main, [args[0], "--graph", "g.gr", "--td", "t.td", *args[1:]])
    assert result.exit_code == 1
    assert result.output == "Error: decomposition invalid: trace_disconnected at 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.gr", "p.part", "t.td"]


def test_push_td_reports_an_invalid_td_before_a_disconnected_part(tmp_path, monkeypatch):
    """The .td is validated where it is read, before --part is."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gr").write_text(emit_graph(P3))
    (tmp_path / "gap.td").write_text(GAP_TD)
    (tmp_path / "t.td").write_text(emit_td(single_bag_td(P3), P3.n))
    (tmp_path / "p.part").write_text(emit_partition([[1, 3], [2]]))
    outputs = {
        td: CliRunner().invoke(main, ["push-td", "--graph", "g.gr", "--td", td,
                                      "--part", "p.part", "-o", "o.td"]).output
        for td in ("t.td", "gap.td")
    }
    assert outputs == {
        "t.td": "Error: part [1, 3] does not induce a connected subgraph\n",
        "gap.td": "Error: decomposition invalid: trace_disconnected at 2\n",
    }


def test_centred_check_refuses_td_and_set_before_reading_the_graph(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gr").write_text("p tw 2 1\n1 3\n")
    (tmp_path / "t.td").write_text(emit_td(single_bag_td(P3), P3.n))
    args = ["centred-check", "--graph", "g.gr", "--k", "1", "--d", "1"]
    assert CliRunner().invoke(main, [*args, "--set", "1"]).output == (
        "Error: line 2: vertex id outside 1..2\n"
    )
    result = CliRunner().invoke(main, [*args, "--td", "t.td", "--set", "1"])
    assert result.exit_code == 1
    assert result.output == "Error: pass exactly one of --td or --set\n"


# a malformed file for each input of pullback and compose, and its error
MALFORMED = {
    "--graph": ("p tw 2 1\n1 3\n", "line 2: vertex id outside 1..2"),
    "--mid": ("p tw 3 2\n1 2\n1 2\n", "line 3: duplicate edge (1, 2)"),
    "--host": ("p tw 3 1\n1 4\n", "line 2: vertex id outside 1..3"),
    "--map": ("1 1\n2\n", "line 2: expected '<source_vertex> <target_vertex>'"),
    "--map1": ("1 1\n2\n", "line 2: expected '<source_vertex> <target_vertex>'"),
    "--map2": ("1 1\n2 2\n3 3\n4 4\n", "line 4: source vertex outside 1..3"),
    "--host-td": ("s td 1 2\n", "line 1: expected header 's td <bags> <max_bag_size> <n>'"),
}


def write_inputs(tmp_path, flags):
    """P3, its identity map and its one-bag decomposition as `<flag>.ok`,
    and each flag's malformed file as `<flag>.bad`."""
    well_formed = {
        "gr": emit_graph(P3),
        "map": "1 1\n2 2\n3 3\n",
        "td": emit_td(single_bag_td(P3), P3.n),
    }
    for flag in flags:
        kind = "td" if flag.endswith("td") else "map" if "map" in flag else "gr"
        (tmp_path / f"{flag[2:]}.ok").write_text(well_formed[kind])
        (tmp_path / f"{flag[2:]}.bad").write_text(MALFORMED[flag][0])


@pytest.mark.parametrize("command, flags, tail", [
    ("pullback", ["--graph", "--host", "--map", "--host-td"], ["--c", "1", "-o", "o.td"]),
    ("compose", ["--graph", "--mid", "--host", "--map1", "--map2"], []),
])
def test_the_earlier_of_two_malformed_inputs_is_reported(tmp_path, monkeypatch,
                                                         command, flags, tail):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, flags)
    assert len({MALFORMED[flag][1] for flag in flags}) == len(flags)
    for bad in [*itertools.combinations(flags, 1), *itertools.combinations(flags, 2)]:
        args = [arg for flag in flags
                for arg in (flag, flag[2:] + (".bad" if flag in bad else ".ok"))]
        result = CliRunner().invoke(main, [command, *args, *tail])
        assert result.exit_code == 1
        assert result.output == f"Error: {MALFORMED[bad[0]][1]}\n", bad


def test_compose_measures_its_first_map_before_it_reads_the_second(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["--graph", "--mid", "--host", "--map1", "--map2"]
    write_inputs(tmp_path, flags)
    args = ["compose", "--qmax", "0", "--graph", "graph.ok", "--mid", "mid.ok",
            "--host", "host.ok"]
    outputs = [
        CliRunner().invoke(main, [*args, "--map1", f"map1.{a}", "--map2", f"map2.{b}"]).output
        for a, b in (("bad", "ok"), ("ok", "bad"))
    ]
    assert outputs == [
        f"Error: {MALFORMED['--map1'][1]}\n",
        "Error: qmax must be a positive integer\n",
    ]


def test_a_failed_validation_is_false():
    td = TreeDecomposition(EDGE, {1: frozenset({1}), 2: frozenset({2})})
    report = validate_decomposition(EDGE, td)
    assert not report
    assert report.kind == "edge_uncovered"
    assert validate_decomposition(EDGE, single_bag_td(EDGE))


def test_a_graph_equals_no_other_type():
    assert Graph(1).__eq__(1) is NotImplemented
    assert Graph(1) != 1 and Graph(0) != ()
