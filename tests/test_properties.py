"""Property tests over randomly drawn graphs."""


from hypothesis import given, settings, strategies as st

from coarsetd import (
    Graph,
    Partition,
    bag_metrics,
    exact_treewidth,
    maximum_independent_set,
    minimum_dominating_set,
    power_graph,
    push_decomposition,
    validate_decomposition,
)
from oracles import brute_treewidth, distance_rows


@st.composite
def graphs(draw, max_n=8, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, picks) if keep])


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_distance_matrix_is_a_metric(g):
    dm = distance_rows(g)
    for u in g.vertices:
        assert dm[u][u] == 0
        for v in g.vertices:
            assert dm[u][v] is dm[v][u] or dm[u][v] == dm[v][u]
    for u in g.vertices:
        for v in g.vertices:
            for w in g.vertices:
                duv, duw, dwv = dm[u][v], dm[u][w], dm[w][v]
                if duw is not None and dwv is not None:
                    assert duv is not None
                    assert duv <= duw + dwv


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_unreachable_iff_cross_component(g):
    comps = {frozenset(c) for c in g.connected_components()}
    comp_of = {}
    for comp in comps:
        for v in comp:
            comp_of[v] = comp
    dm = distance_rows(g)
    for u in g.vertices:
        for v in g.vertices:
            if comp_of[u] is comp_of[v]:
                assert dm[u][v] is not None
            else:
                assert dm[u][v] is None


@given(graphs(max_n=10, min_n=0))
@settings(max_examples=80, deadline=None)
def test_components_match_union_find(g):
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    groups = {}
    for v in g.vertices:
        groups.setdefault(find(v), set()).add(v)
    expected = sorted((frozenset(s) for s in groups.values()), key=min)
    # a fresh graph asked is_connected first fills its cache that way
    fresh = Graph(g.n, g.edges)
    assert fresh.is_connected() == (len(expected) <= 1)
    assert fresh.connected_components() == expected
    comps = g.connected_components()
    assert comps == expected
    assert g.is_connected() == (len(comps) <= 1)
    again = g.connected_components()
    assert again == comps and again is not comps


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_power_one_is_identity(g):
    assert power_graph(g, 1, g.vertices) == g


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_domination_at_most_independence(g):
    assert len(minimum_dominating_set(g)) <= len(maximum_independent_set(g))


@given(graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_treewidth_witness_and_oracle(g):
    tw, witness = exact_treewidth(g)
    assert tw == brute_treewidth(g)
    assert witness.width == tw
    assert validate_decomposition(g, witness).ok


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_push_preserves_validity_and_independence(g, rng):
    _, td = exact_treewidth(g)
    part_of = {v: v for v in g.vertices}

    def find(v):
        while part_of[v] != v:
            part_of[v] = part_of[part_of[v]]
            v = part_of[v]
        return v

    for u, v in sorted(g.edges):
        if rng.random() < 0.5:
            part_of[find(u)] = find(v)
    groups = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    p = Partition(g, groups.values())
    pushed = push_decomposition(td, p)
    q = p.quotient
    assert validate_decomposition(q, pushed).ok
    assert (
        bag_metrics(q, pushed).independence_number
        <= bag_metrics(g, td).independence_number
    )
