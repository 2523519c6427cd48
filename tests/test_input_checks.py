"""Every input check of the library and CLI that no other test reaches,
pinned by exception type and exact message, like PARSE_ERRORS for the
file parsers."""

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
from coarsetd.fileio import emit_graph, emit_td
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


def test_a_failed_validation_is_false():
    td = TreeDecomposition(EDGE, {1: frozenset({1}), 2: frozenset({2})})
    report = validate_decomposition(EDGE, td)
    assert not report
    assert report.kind == "edge_uncovered"
    assert validate_decomposition(EDGE, single_bag_td(EDGE))


def test_a_graph_equals_no_other_type():
    assert Graph(1).__eq__(1) is NotImplemented
    assert Graph(1) != 1 and Graph(0) != ()
