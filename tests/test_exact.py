import pytest

from coarsetd import (
    EmptySetError,
    Graph,
    TooLargeError,
    exact_chromatic_number,
    exact_treewidth,
    maximum_independent_set,
    minimum_dominating_set,
    validate_decomposition,
)
from coarsetd.exact import _first_k_coloring, k_coloring
from helpers import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
    random_graph,
    star_graph,
)
from oracles import brute_alpha, brute_chromatic, brute_gamma, brute_treewidth

import random
import sys


def test_chromatic_examples():
    assert exact_chromatic_number(cycle_graph(4)) == 2
    assert exact_chromatic_number(cycle_graph(5)) == 3 == brute_chromatic(cycle_graph(5))
    assert exact_chromatic_number(complete_graph(4)) == 4
    assert exact_chromatic_number(Graph(0)) == 0
    # no vertex needs no colour; a vertex with no colour to take fails
    for k in (-1, 0, 1):
        assert k_coloring(Graph(0), k) == []
        assert _first_k_coloring([()], k, backtrack=False) == []
    for k in (-1, 0):
        assert k_coloring(Graph(1), k) is None
        assert k_coloring(cycle_graph(4), k) is None
        assert _first_k_coloring([(), ()], k, backtrack=False) is None
    assert k_coloring(cycle_graph(4), 2) == [0, 1, 0, 1]


def test_independence_examples():
    assert len(maximum_independent_set(edgeless_graph(5))) == 5
    assert len(maximum_independent_set(complete_graph(4))) == 1
    assert len(maximum_independent_set(cycle_graph(6))) == 3 == brute_alpha(cycle_graph(6))


def test_independent_set_is_independent():
    g = cycle_graph(7)
    mis = maximum_independent_set(g)
    assert len(mis) == 3
    for u in mis:
        for v in mis:
            assert u == v or not g.has_edge(u, v)


def test_domination_examples():
    assert len(minimum_dominating_set(star_graph(3))) == 1
    assert len(minimum_dominating_set(cycle_graph(6))) == 2 == brute_gamma(cycle_graph(6))
    assert len(minimum_dominating_set(Graph(1))) == 1
    with pytest.raises(EmptySetError):
        minimum_dominating_set(Graph(0))


def test_dominating_set_dominates():
    g = cycle_graph(9)
    dom = minimum_dominating_set(g)
    assert len(dom) == 3
    for v in g.vertices:
        assert v in dom or g.adjacency[v] & dom


def test_treewidth_examples():
    for tree in (path_graph(5), star_graph(4)):
        tw, witness = exact_treewidth(tree)
        assert tw == 1
        assert validate_decomposition(tree, witness).ok
    tw, witness = exact_treewidth(cycle_graph(6))
    assert tw == 2 == brute_treewidth(cycle_graph(6))
    assert witness.width == 2
    assert validate_decomposition(cycle_graph(6), witness).ok
    assert exact_treewidth(complete_graph(4))[0] == 3


def test_treewidth_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), 0.4)
        tw, witness = exact_treewidth(g)
        assert tw == brute_treewidth(g)
        assert witness.width == tw
        assert validate_decomposition(g, witness).ok


def test_caps():
    big = edgeless_graph(25)
    with pytest.raises(TooLargeError):
        maximum_independent_set(big)
    assert len(maximum_independent_set(big, cap=25)) == 25
    with pytest.raises(TooLargeError):
        exact_treewidth(edgeless_graph(17))


def test_chromatic_matches_oracle_on_random_graphs():
    rng = random.Random(29)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        assert exact_chromatic_number(g) == brute_chromatic(g)


def test_gamma_le_alpha_desk_scale():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, 0.3)
        assert len(minimum_dominating_set(g)) <= len(maximum_independent_set(g))


def test_exact_treewidth_single_vertex():
    tw, td = exact_treewidth(Graph(1))
    assert tw == 0
    assert td.tree == Graph(1)
    assert td.bags == {1: frozenset({1})}


def test_searches_deeper_than_recursion_limit():
    # each search goes one level deeper per vertex here, past the
    # interpreter's recursion limit
    n = sys.getrecursionlimit() + 50
    assert maximum_independent_set(complete_graph(n), cap=n) == frozenset({1})
    # a star on 1..6 and isolated vertices: each isolated vertex is its own
    # only candidate, so the search takes them one level at a time
    g = Graph(n, [(1, v) for v in range(2, 7)])
    assert minimum_dominating_set(g, cap=n) == frozenset({1, *range(7, n + 1)})
