"""The per-bag driver `each_bag` and the entry points built on it."""

import pytest
from click.testing import CliRunner

import coarsetd.exact
import coarsetd.pipeline
from coarsetd import (
    BagStat,
    BranchDecomposition,
    CentredResult,
    Graph,
    TooLargeError,
    TreeDecomposition,
    bag_metrics,
    centred_check_decomposition,
    generate_corpus,
    run_pipeline,
    sim_to_td,
    simwidth_pipeline,
)
from coarsetd.cli import main
from coarsetd.decomposition import each_bag
from coarsetd.fileio import emit_bd, emit_graph, emit_td
from coarsetd.simwidth import branch_width_sim
from helpers import cycle_graph, path_graph


def p3_wide_td():
    """P3 with bag 1 = {1, 2} and bag 2 = {1, 2, 3}: only bag 2 exceeds cap 2."""
    return TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2}, 2: {1, 2, 3}})


def p3_star_bd():
    """P3 on a star branch tree with centre node 4; sim_to_td puts {1, 2}
    in bag 1 and {1, 2, 3} in bag 2, and every cut has at most 2 edges."""
    return BranchDecomposition(Graph(4, [(1, 4), (2, 4), (3, 4)]), {1: 1, 2: 2, 3: 3})


def with_empty_bag_td():
    return TreeDecomposition(
        Graph(3, [(1, 2), (2, 3)]), {1: {1, 2}, 2: {2, 3}, 3: set()}
    )


def test_each_bag_node_order_skips_empty_bags():
    td = TreeDecomposition(
        Graph(4, [(1, 2), (2, 3), (3, 4)]),
        {1: {3, 4}, 2: set(), 3: {1}, 4: {1, 2, 3}},
    )
    seen = []

    def solve(bag):
        seen.append(bag)
        return len(bag)

    assert each_bag(td, solve) == {1: 2, 3: 1, 4: 3}
    assert list(each_bag(td, len)) == [1, 3, 4]
    assert seen == [frozenset({3, 4}), frozenset({1}), frozenset({1, 2, 3})]


def test_each_bag_passes_other_errors_through():
    def solve(bag):
        raise ValueError("not a cap")

    with pytest.raises(ValueError, match="not a cap"):
        each_bag(p3_wide_td(), solve)


@pytest.mark.parametrize("call", [
    lambda g: bag_metrics(g, p3_wide_td(), cap=2),
    lambda g: centred_check_decomposition(g, p3_wide_td(), 1, 2, cap=2),
    # the independence gate, which a waived run_pipeline runs before ind_to_tw
    lambda g: run_pipeline(g, p3_wide_td(), 2, 1, check_centred=False, cap=2),
    lambda g: simwidth_pipeline(g, p3_star_bd(), cap=2),
], ids=["bag_metrics", "centred_check_decomposition", "ind_to_tw",
        "simwidth_pipeline"])
def test_bag_over_cap_is_named(call):
    with pytest.raises(TooLargeError) as err:
        call(path_graph(3))
    assert str(err.value) == "bag 2 has size 3, exceeding the exact-solver cap 2"
    assert isinstance(err.value.__cause__, TooLargeError)


def test_independence_gate_solves_only_bags_over_k(monkeypatch):
    """A bag of at most k vertices cannot hold k + 1 independent ones, so
    the gate of a waived run_pipeline neither solves it nor holds it to the
    cap."""
    sizes = []
    solve = coarsetd.pipeline.independent_mask

    def counting(adj):
        sizes.append(len(adj))
        return solve(adj)

    monkeypatch.setattr(coarsetd.pipeline, "independent_mask", counting)
    # bag 2 has cap + 1 = 3 <= k vertices: it passes
    assert run_pipeline(
        path_graph(3), p3_wide_td(), 3, 1, check_centred=False, cap=2
    ).final_decomposition
    assert sizes == []
    inst = generate_corpus(
        "random-branch-decomposition", {"n": 20, "p": 0.2}, seed=3
    )
    g = inst.graph
    td = sim_to_td(g, inst.branch_decomposition)
    k = bag_metrics(g, td, cap=64).independence_number
    sizes.clear()
    run_pipeline(g, td, k, 1, check_centred=False, cap=64)
    bags = [len(td.bag(t)) for t in td.nodes]
    assert sizes == [size for size in bags if size > k]
    assert 0 < len(sizes) < len(bags)


def write_inputs(tmp_path, g, td=None, bd=None):
    (tmp_path / "g.gr").write_text(emit_graph(g))
    if td is not None:
        (tmp_path / "t.td").write_text(emit_td(td, g.n))
    if bd is not None:
        (tmp_path / "b.bd").write_text(emit_bd(bd))


def cli_args(tmp_path, command):
    gr = str(tmp_path / "g.gr")
    if command == "bipartite-partition":
        return [command, "--graph", gr, "--td", str(tmp_path / "t.td")]
    return [command, "--graph", gr, "--bd", str(tmp_path / "b.bd"),
            "-o", str(tmp_path / "out.td")]


@pytest.mark.parametrize("command", ["bipartite-partition", "sim-to-td"])
def test_cli_bag_over_cap_is_named(tmp_path, command):
    write_inputs(tmp_path, path_graph(3), td=p3_wide_td(), bd=p3_star_bd())
    result = CliRunner().invoke(main, ["--cap", "2", *cli_args(tmp_path, command)])
    assert result.exit_code == 1
    assert result.output == (
        "Error: bag 2 has size 3, exceeding the exact-solver cap 2\n"
    )


def test_empty_bags_pass_and_get_no_certificate():
    g = path_graph(3)
    centred = centred_check_decomposition(g, with_empty_bag_td(), 1, 1)
    assert list(centred.per_bag) == [1, 2, 3]
    assert centred.per_bag[3] == CentredResult(True, ())
    assert centred.all_centred is True
    metrics = bag_metrics(g, with_empty_bag_td())
    assert list(metrics.per_bag) == [1, 2, 3]
    assert metrics.per_bag[3] == BagStat(0, 0, 0)
    # an edgeless graph on a star branch tree leaves the centre bag empty
    star = BranchDecomposition(Graph(4, [(1, 2), (1, 3), (1, 4)]), {1: 2, 2: 3, 3: 4})
    report = simwidth_pipeline(Graph(3), star)
    assert report.decomposition.bag(1) == frozenset()
    assert sorted(report.certificates) == [2, 3, 4]


@pytest.fixture
def mis_calls(monkeypatch):
    """Sizes of the independent-set solves, through every module that binds
    the kernel."""
    calls = []
    kernel = coarsetd.exact.independent_mask

    def counting(adj):
        calls.append(len(adj))
        return kernel(adj)

    for module in (coarsetd.exact, coarsetd.decomposition, coarsetd.pipeline,
                   coarsetd.simwidth):
        monkeypatch.setattr(module, "independent_mask", counting)
    return calls


def test_bipartite_partition_cli_solves_no_independence(tmp_path, mis_calls):
    g = cycle_graph(6)
    td = TreeDecomposition(Graph(1), {1: frozenset(g.vertices)})
    write_inputs(tmp_path, g, td=td)
    result = CliRunner().invoke(main, cli_args(tmp_path, "bipartite-partition"))
    assert result.exit_code == 0, result.output
    assert mis_calls == []


@pytest.mark.parametrize("g", [Graph(3), path_graph(3)], ids=["edgeless", "p3"])
def test_sim_to_td_cli_solves_no_bag_independence(tmp_path, mis_calls, g):
    bd = p3_star_bd()
    write_inputs(tmp_path, g, bd=bd)
    branch_width_sim(g, bd)
    cut_calls = len(mis_calls)  # the cut values are independence numbers
    mis_calls.clear()
    result = CliRunner().invoke(main, cli_args(tmp_path, "sim-to-td"))
    assert result.exit_code == 0, result.output
    assert len(mis_calls) == cut_calls
    if g.m == 0:
        assert mis_calls == []
