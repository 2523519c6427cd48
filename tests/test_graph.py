import random

import pytest

from coarsetd import (
    EmptySetError,
    Graph,
    centred_check,
    induced_subgraph,
    is_bipartite,
    is_tree,
    power_graph,
    simval,
    weak_diameter,
)
from coarsetd.graph import bfs, near_pairs
from helpers import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
    random_graph,
)
from oracles import distance_rows


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_duplicate_edges_collapse():
    g = Graph(3, [(1, 2), (2, 1), (1, 2)])
    assert g.m == 1


def test_distances_on_path():
    g = path_graph(5)
    assert distance_rows(g)[1][5] == 4
    assert distance_rows(g)[3][3] == 0


def test_distances_cross_component():
    g = Graph(4, [(1, 2), (3, 4)])
    assert distance_rows(g)[1][3] is None
    assert distance_rows(g)[1][2] == 1


def test_distances_antipodal_cycle():
    g = cycle_graph(6)
    assert distance_rows(g)[1][4] == 3


def test_weak_diameter():
    g = cycle_graph(6)
    assert weak_diameter(g, {1}) == 0
    assert weak_diameter(g, {1, 2, 3}) == 2
    with pytest.raises(EmptySetError):
        weak_diameter(g, set())


def test_weak_diameter_across_components():
    g = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    assert weak_diameter(g, {1, 4}) is None


def test_power_graph_identity():
    g = cycle_graph(6)
    assert power_graph(g, 1, g.vertices) == g


def test_power_graph_c6():
    g = cycle_graph(6)
    p2 = power_graph(g, 2, g.vertices)
    assert all(p2.degree(v) == 4 for v in p2.vertices)
    assert power_graph(g, 5, g.vertices) == complete_graph(6)


def test_power_graph_restricted_relabels():
    g = path_graph(5)
    # restrict to {2, 4}: distance 2, so adjacent at d=2 but not d=1
    assert power_graph(g, 2, {2, 4}).m == 1
    assert power_graph(g, 1, {2, 4}).m == 0


def test_induced_subgraph():
    g = cycle_graph(6)
    sub, vs = induced_subgraph(g, {2, 3, 4})
    assert vs == [2, 3, 4]
    assert sub.edges == frozenset({(1, 2), (2, 3)})


def test_induced_subgraph_matches_edge_filter():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        chosen = {v for v in g.vertices if rng.random() < 0.5}
        singleton = {rng.randint(1, g.n)} if g.n else set()
        for s in (set(), singleton, set(g.vertices), chosen):
            sub, vs = induced_subgraph(g, s)
            index = {v: i + 1 for i, v in enumerate(sorted(s))}
            expected = Graph(len(s), [
                (index[u], index[v]) for u, v in g.edges
                if u in s and v in s
            ])
            assert vs == sorted(s)
            assert sub == expected
        assert induced_subgraph(g, set(g.vertices))[0] is g
    with pytest.raises(ValueError, match="vertex 0 outside range 1..2"):
        induced_subgraph(Graph(2, [(1, 2)]), {0, 2})


def test_components():
    g = Graph(5, [(1, 2), (4, 5)])
    comps = g.connected_components()
    assert comps == [frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()


def test_components_cached_and_returned_fresh():
    g = Graph(5, [(1, 2), (4, 5)])
    comps = g.connected_components()
    comps.pop()
    again = g.connected_components()
    assert again is not comps
    assert again == [frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]
    assert all(a is b for a, b in zip(again, g.connected_components()))


def test_is_tree():
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(Graph(3, [(1, 2)]))


def test_bipartite_c6():
    ok, coloring = is_bipartite(cycle_graph(6))
    assert ok
    assert all(coloring[u] != coloring[v] for u, v in cycle_graph(6).edges)


def test_bipartite_edgeless():
    ok, _ = is_bipartite(edgeless_graph(4))
    assert ok


def test_odd_cycle_witness():
    g = cycle_graph(5)
    ok, cycle = is_bipartite(g)
    assert not ok
    assert len(cycle) % 2 == 1
    for i, v in enumerate(cycle):
        assert g.has_edge(v, cycle[(i + 1) % len(cycle)])


def reachable_depths(adj, sources, within):
    """Fixed-point oracle: depth i holds the vertices first reached at step i."""
    depth = dict.fromkeys(sources, 0)
    frontier = set(depth)
    step = 0
    while frontier:
        step += 1
        frontier = {
            w for u in frontier for w in adj[u]
            if w not in depth and (within is None or w in within)
        }
        depth.update(dict.fromkeys(frontier, step))
    return depth


def test_bfs_matches_fixed_point_oracle():
    rng = random.Random(71)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 25), rng.choice((0.05, 0.15, 0.3)))
        sources = rng.sample(list(g.vertices), rng.randint(1, min(3, g.n)))
        within = None
        if rng.random() < 0.7:
            within = {v for v in g.vertices if rng.random() < 0.6}
        got = bfs(g.adjacency, sources, within=within)
        assert got == reachable_depths(g.adjacency, sources, within)
        assert list(got.values()) == sorted(got.values())  # visit order
        radius = rng.randint(0, 4)
        assert bfs(g.adjacency, sources, within=within, radius=radius) == {
            v: depth for v, depth in got.items() if depth <= radius
        }


def test_bipartite_coloring_proper_and_witness_odd_closed():
    rng = random.Random(72)
    seen = set()
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 16), rng.choice((0.1, 0.2, 0.4)))
        ok, got = is_bipartite(g)
        seen.add(ok)
        if ok:
            assert set(got) == set(g.vertices)
            assert set(got.values()) <= {0, 1}
            assert all(got[u] != got[v] for u, v in g.edges)
        else:
            assert len(got) % 2 == 1 and len(set(got)) == len(got)
            for i, v in enumerate(got):
                assert g.has_edge(v, got[(i + 1) % len(got)])
    assert seen == {True, False}


@pytest.mark.parametrize("call", [
    lambda g: weak_diameter(g, {0, 2}),
    lambda g: power_graph(g, 1, {0, 2}),
    lambda g: induced_subgraph(g, {0, 2}),
    lambda g: centred_check(g, {0, 2}, 1, 1),
    lambda g: simval(g, {0, 2}),
], ids=["weak_diameter", "power_graph", "induced_subgraph", "centred_check",
        "simval"])
def test_vertex_range_error(call):
    with pytest.raises(ValueError) as err:
        call(Graph(2, [(1, 2)]))
    assert str(err.value) == "vertex 0 outside range 1..2"


def test_negative_radius_is_refused():
    """On a fresh path and on one whose levels have settled, which a
    negative index would read as every pair near."""
    for warm in (False, True):
        g = path_graph(4)
        if warm:
            g.balls(3)
        with pytest.raises(ValueError, match="radius -1 is negative"):
            g.balls(-1)
        with pytest.raises(ValueError, match="radius -1 is negative"):
            near_pairs(g, -1, [1, 2, 3])
        assert g.balls(0) == [0, 2, 4, 8, 16]
