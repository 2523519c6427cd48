import random

import pytest

from coarsetd import (
    EmptySetError,
    Graph,
    MalformedDecompositionError,
    TooLargeError,
    TreeDecomposition,
    bag_metrics,
    centred_check,
    centred_check_decomposition,
    decomposition_from_order,
    exact_treewidth,
    validate_decomposition,
    weak_diameter,
)
from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    single_bag_td,
)
from oracles import centred_brute


def p3_td():
    return TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2}, 2: {2, 3}})


def test_validate_ok():
    assert validate_decomposition(path_graph(3), p3_td()).ok


def test_validate_uncovered_edge():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    report = validate_decomposition(g, p3_td())
    assert not report.ok
    assert report.kind == "edge_uncovered"
    assert report.witness == (1, 3)


def test_validate_disconnected_trace():
    td = TreeDecomposition(
        Graph(3, [(1, 2), (2, 3)]), {1: {1}, 2: {2}, 3: {1}}
    )
    report = validate_decomposition(Graph(2), td)
    assert not report.ok
    assert report.kind == "trace_disconnected"
    assert report.witness == 1


def test_validate_missing_vertex():
    td = TreeDecomposition(Graph(1), {1: {1}})
    report = validate_decomposition(Graph(2), td)
    assert not report.ok
    assert report.kind == "vertex_uncovered"
    assert report.witness == 2


def test_malformed():
    with pytest.raises(MalformedDecompositionError):
        TreeDecomposition(Graph(2), {1: set(), 2: set()})  # not a tree
    with pytest.raises(MalformedDecompositionError):
        TreeDecomposition(Graph(2, [(1, 2)]), {1: set()})  # missing bag
    with pytest.raises(MalformedDecompositionError):
        TreeDecomposition(
            Graph(4, [(1, 2), (1, 3), (1, 4)]),
            {1: set(), 2: set(), 3: set(), 4: set()},
            shape="path",
        )
    with pytest.raises(MalformedDecompositionError):
        validate_decomposition(Graph(2), TreeDecomposition(Graph(1), {1: {5}}))


def test_relabeling_invariance():
    g = cycle_graph(6)
    _, td = exact_treewidth(g)
    perm = {t: td.tree.n - t + 1 for t in td.nodes}
    permuted = TreeDecomposition(
        Graph(td.tree.n, [(perm[u], perm[v]) for u, v in td.tree.edges]),
        {perm[t]: td.bag(t) for t in td.nodes},
        shape=td.shape,
    )
    assert validate_decomposition(g, permuted).ok


def test_width():
    singles = TreeDecomposition(
        Graph(3, [(1, 2), (2, 3)]), {1: {1}, 2: {2}, 3: {3}}
    )
    assert singles.width == 0
    assert p3_td().width == 1
    _, witness = exact_treewidth(cycle_graph(6))
    assert witness.width == 2


def test_bag_metrics_c6():
    g = cycle_graph(6)
    metrics = bag_metrics(g, single_bag_td(g))
    assert metrics.independence_number == 3
    assert metrics.domination_number == 2
    assert metrics.per_bag[1].size == 6


def test_bag_metrics_cliques_and_singletons():
    g = complete_graph(4)
    assert bag_metrics(g, single_bag_td(g)).independence_number == 1
    singles = TreeDecomposition(
        Graph(4, [(1, 2), (2, 3), (3, 4)]), {i: {i} for i in range(1, 5)}
    )
    metrics = bag_metrics(g, singles)
    assert metrics.independence_number == 1
    assert metrics.domination_number == 1


def test_bag_metrics_too_large_names_bag():
    g = Graph(25)
    with pytest.raises(TooLargeError) as err:
        bag_metrics(g, single_bag_td(g))
    assert "bag 1" in str(err.value)


def test_centred_clique():
    g = complete_graph(5)
    result = centred_check(g, g.vertices, 1, 1)
    assert result.centred is True
    assert result.parts == (frozenset(g.vertices),)


def test_centred_c6():
    g = cycle_graph(6)
    assert centred_check(g, g.vertices, 1, 2).centred is False
    result = centred_check(g, g.vertices, 2, 2)
    assert result.centred is True
    assert result.parts == (frozenset({1, 2, 3}), frozenset({4, 5, 6}))


def test_centred_d0():
    g = path_graph(3)
    assert centred_check(g, {1, 3}, 2, 0).centred is True
    assert centred_check(g, {1, 2, 3}, 2, 0).centred is False


def test_centred_witness_reverified():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        s = [v for v in g.vertices if rng.random() < 0.7] or [1]
        k = rng.randint(1, 3)
        d = rng.randint(0, 3)
        result = centred_check(g, s, k, d)
        assert result.centred == centred_brute(g, s, k, d)
        if result.centred:
            assert len(result.parts) <= k
            assert set().union(*result.parts) == set(s)
            for part in result.parts:
                diam = weak_diameter(g, part)
                assert isinstance(diam, int) and diam <= d


def test_centred_exact_cap():
    g = complete_graph(6)
    with pytest.raises(TooLargeError):
        centred_check(g, g.vertices, 1, 1, cap=5)
    # heuristic mode ignores the cap
    assert centred_check(g, g.vertices, 1, 1, cap=5, mode="heuristic").centred


def test_centred_heuristic_never_false():
    # two triangles joined by a perfect matching: greedy coloring of the
    # complement spends 3 colors where 2 suffice
    g = Graph(6, [(1, 3), (1, 5), (3, 5), (2, 4), (2, 6), (4, 6),
                  (1, 2), (3, 4), (5, 6)])
    exact = centred_check(g, g.vertices, 2, 1, mode="exact")
    assert exact.centred is True
    assert exact.parts == (frozenset({1, 3, 5}), frozenset({2, 4, 6}))
    heur = centred_check(g, g.vertices, 2, 1, mode="heuristic")
    assert heur.centred is None
    assert centred_check(g, g.vertices, 3, 1, mode="heuristic").centred is True


def test_heuristic_witness_is_the_exact_witness():
    # first-fit in id order is the first leaf of the exact search, so a
    # heuristic True carries the exact mode's parts
    rng = random.Random(23)
    agreed = unknown = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5)))
        s = rng.sample(list(g.vertices), rng.randint(1, g.n))
        k, d = rng.randint(1, 4), rng.randint(1, 3)
        heur = centred_check(g, s, k, d, mode="heuristic")
        exact = centred_check(g, s, k, d)
        if heur.centred:
            assert heur.parts == exact.parts
            agreed += 1
        else:
            assert heur.centred is None and heur.parts is None
            unknown += 1
    assert agreed > 100 and unknown > 10


def test_centred_check_builds_only_the_power_graph(monkeypatch):
    g = cycle_graph(9)
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for mode in ("exact", "heuristic"):
        built.clear()
        assert centred_check(g, [1, 2, 3, 5, 6, 8], 3, 2, mode=mode).centred
        assert built == [6]


def test_one_piece_builds_no_graph(monkeypatch):
    # members pairwise within d are answered from the level masks
    g = cycle_graph(9)
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for mode in ("exact", "heuristic"):
        result = centred_check(g, [8, 9, 1], 1, 2, mode=mode)
        assert result.centred is True
        assert result.parts == (frozenset({8, 9, 1}),)
        # one far pair, 8 and 2, sends the set to the power graph
        assert centred_check(g, [8, 9, 1, 2], 2, 2, mode=mode).centred
    assert built == [4, 4]


def test_centred_check_deeper_than_recursion_limit():
    # one piece: the search assigns 1200 vertices in turn, deeper than
    # the interpreter's default recursion limit
    result = centred_check(path_graph(1200), range(1, 1201), 2, 1200, cap=5000)
    assert result.centred is True
    assert result.parts == (frozenset(range(1, 1201)),)


def test_centred_empty_set_rejected():
    with pytest.raises(EmptySetError):
        centred_check(path_graph(2), set(), 1, 1)


def test_centred_decomposition():
    g = path_graph(4)
    singles = TreeDecomposition(
        Graph(4, [(1, 2), (2, 3), (3, 4)]), {i: {i} for i in range(1, 5)}
    )
    assert centred_check_decomposition(g, singles, 1, 0).all_centred is True
    pairs = TreeDecomposition(
        Graph(3, [(1, 2), (2, 3)]), {i: {i, i + 1} for i in range(1, 4)}
    )
    assert centred_check_decomposition(g, pairs, 1, 1).all_centred is True
    g6 = cycle_graph(6)
    result = centred_check_decomposition(g6, single_bag_td(g6), 1, 2)
    assert result.all_centred is False
    assert result.per_bag[1].centred is False


def test_domination_bound_implies_3_centred():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), 0.35)
        td = single_bag_td(g)
        metrics = bag_metrics(g, td)
        gamma = metrics.domination_number
        result = centred_check_decomposition(g, td, gamma, 3)
        assert result.all_centred is True


def test_decomposition_from_order_valid():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        order = list(g.vertices)
        rng.shuffle(order)
        td = decomposition_from_order(g, order)
        assert validate_decomposition(g, td).ok
