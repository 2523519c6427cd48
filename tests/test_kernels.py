"""The two distance kernels: level masks on short graphs, BFS rows on the
rest. Every answer must be the same whichever kernel gives it."""

import random
import sys
import threading
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from coarsetd import (
    CoarseTDError,
    Graph,
    Partition,
    QuasiIsometryMap,
    augment,
    decomposition_from_order,
    generate_corpus,
    identity_map,
    power_graph,
    qi_constant,
    weak_diameter,
)
from coarsetd.generators import FAMILIES, gen_ktree, gen_path
from coarsetd.pipeline import layered_parts

PARAMS = {
    "path": st.fixed_dictionaries({"n": st.integers(1, 12)}),
    "cycle": st.fixed_dictionaries({"n": st.integers(3, 12)}),
    "random-tree": st.fixed_dictionaries({"n": st.integers(1, 12)}),
    "k-tree": st.integers(1, 3).flatmap(
        lambda k: st.fixed_dictionaries({
            "k": st.just(k),
            "n": st.integers(k + 1, 12),
            "layout": st.sampled_from(["random", "path"]),
        })
    ),
    "subdivided-k-tree": st.integers(1, 2).flatmap(
        lambda k: st.fixed_dictionaries({
            "k": st.just(k), "n": st.integers(k + 1, 5), "s": st.integers(1, 2)
        })
    ),
    "grid-slice": st.fixed_dictionaries(
        {"rows": st.integers(1, 4), "cols": st.integers(1, 4)}
    ),
    "random-branch-decomposition": st.fixed_dictionaries(
        {"n": st.integers(1, 10), "p": st.sampled_from([0.0, 0.2, 0.5])}
    ),
}


def test_every_family_is_drawn():
    assert set(PARAMS) == set(FAMILIES)


@st.composite
def family_graphs(draw):
    family = draw(st.sampled_from(FAMILIES))
    params = draw(PARAMS[family])
    return generate_corpus(family, params, seed=draw(st.integers(0, 999))).graph


@st.composite
def inputs(draw):
    """A family graph, or the disjoint union of two with their vertex ids
    shuffled together."""
    g = draw(family_graphs())
    if not draw(st.booleans()):
        return g
    other = draw(family_graphs())
    ids = draw(st.permutations(list(range(1, g.n + other.n + 1))))
    edges = [(ids[u - 1], ids[v - 1]) for u, v in g.edges]
    edges += [(ids[g.n + u - 1], ids[g.n + v - 1]) for u, v in other.edges]
    return Graph(g.n + other.n, edges)


def both_kernels(make, call):
    """call(*make()) with the masks forced, then with the rows forced, each
    on fresh graphs; a CoarseTDError counts as its type and message."""
    out = []
    for short in (True, False):
        with patch.object(Graph, "short", lambda self, short=short: short):
            args = make()
            try:
                out.append(call(*args))
            except CoarseTDError as exc:
                out.append((type(exc), str(exc)))
    return out


def fresh(g):
    return Graph(g.n, g.edges)


@given(inputs())
@settings(max_examples=80, deadline=None)
def test_level_masks_are_the_balls_of_the_rows(g):
    dm = g.distances()
    for r in range(g.n + 1):
        ball = g.balls(r)
        for u in g.vertices:
            assert ball[u] == sum(
                1 << v for v in g.vertices if dm[u][v] is not None and dm[u][v] <= r
            )


@given(inputs(), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_kernels_agree_on_local_questions(g, d, data):
    members = data.draw(st.sets(st.sampled_from(list(g.vertices)), min_size=1))
    order = data.draw(st.permutations(list(g.vertices)))
    td = decomposition_from_order(g, order)
    power = both_kernels(lambda: (fresh(g),), lambda x: power_graph(x, d, members))
    assert power[0] == power[1]
    diam = both_kernels(lambda: (fresh(g),), lambda x: weak_diameter(x, members))
    assert diam[0] == diam[1]
    if g.is_connected():
        assert diam[0] == max(
            g.distances()[u][v] for u in members for v in members
        )
    aug = both_kernels(lambda: (fresh(g),), lambda x: augment(x, td, d)[0].edges)
    assert aug[0] == aug[1]


@given(inputs(), inputs(), st.integers(1, 30), st.data())
@settings(max_examples=100, deadline=None)
def test_kernels_agree_on_qi_constant(g, h, qmax, data):
    kind = data.draw(st.sampled_from(["random", "augment", "quotient"]))
    if kind == "quotient" and g.is_connected():
        parts = layered_parts(g)

        def make():
            src = fresh(g)
            p = Partition(src, parts)
            return src, p.quotient, dict(p.index)
    elif kind == "augment":
        td = decomposition_from_order(g, data.draw(st.permutations(list(g.vertices))))
        d = data.draw(st.integers(0, 3))

        def make():
            src = fresh(g)
            return src, augment(src, td, d)[0], {v: v for v in g.vertices}
    else:
        images = data.draw(
            st.lists(st.sampled_from(list(h.vertices)), min_size=g.n, max_size=g.n)
        )

        def make():
            return fresh(g), fresh(h), dict(zip(g.vertices, images))

    def call(src, dst, mapping):
        return qi_constant(src, dst, QuasiIsometryMap(src, dst, mapping), qmax)

    got = both_kernels(make, call)
    assert got[0] == got[1]


def spider(e, n):
    """Two legs of length e from vertex 1, the other vertices leaves of 1:
    the root's depth is e and the diameter 2e, the most levels e allows."""
    edges = [(1, 2), (1, e + 2)]
    edges += [(v, v + 1) for leg in (2, e + 2) for v in range(leg, leg + e - 1)]
    edges += [(1, v) for v in range(2 * e + 2, n + 1)]
    return Graph(n, edges)


def test_selection_rule():
    assert gen_ktree(2, 200, random.Random(0)).graph.short()
    assert not gen_path(200).graph.short()
    # masks at 2e + 1 levels would outgrow the rows
    assert not spider(12, 96).short()


@pytest.mark.parametrize("e", [1, 2, 3, 5, 8])
def test_masks_never_outgrow_the_rows(e):
    # the smallest n at which a spider of depth e is short
    n = next(n for n in range(2 * e + 1, 1000) if spider(e, n).short())
    g = spider(e, n)
    assert not spider(e, n - 1).short()
    g.balls(g.n)
    levels = {id(level): level for level in g._masks}.values()
    assert len(levels) == 2 * e + 1
    masks = sum(sys.getsizeof(level) + sum(map(sys.getsizeof, level)) for level in levels)
    rows = g.distances()
    assert masks <= sys.getsizeof(rows) + sum(map(sys.getsizeof, rows[1:]))


def test_threads_extending_one_graphs_levels():
    """Threads that extend the same graph's levels at once must each see
    the balls of the rows at every radius, never a level settled early."""
    base = gen_ktree(2, 120, random.Random(1)).graph
    assert base.short()
    dm = base.distances()
    diam = max(max(row[1:]) for row in dm[1:])
    want = [
        [0] + [sum(1 << v for v in base.vertices if dm[u][v] <= r) for u in base.vertices]
        for r in range(diam + 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            g = fresh(base)
            got = []

            def work(first_qi):
                out = [qi_constant(g, g, identity_map(g, g), 9)] if first_qi else []
                out.append([g.balls(r) for r in range(diam + 2)])
                out.append(weak_diameter(g, g.vertices))
                out.append(qi_constant(g, g, identity_map(g, g), 9))
                got.append(out[-4:])

            threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(map(len, got)) == [3, 3, 4, 4]
            for out in got:
                assert out[-3:] == [want, diam, 1]
                assert len(out) == 3 or out[0] == 1
    finally:
        sys.setswitchinterval(interval)
