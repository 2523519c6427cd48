"""The kernels against their slow paths. The two distance kernels: level
masks where `Graph.fits` allows them, uncached BFS rows elsewhere; every
answer must be the same whichever kernel gives it, and the same as the
oracle rows, which relax the edge set and share no code with either. The
exact bitmask solvers on masks built straight from the host graph: the
same witnesses as the Graph solvers on the induced subgraph, and the
sizes of the brute-force oracles; the dominating-partition certificates
against the oracle rows, and the exact centred check against the
independence gate it stands in for. The tree questions on the component
sweep: paths, branch widths, bags and validation against a BFS parent
table, the sides of the tree edges and a per-trace search."""

import random
import sys
import threading
from math import inf
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import coarsetd.graph
import coarsetd.pipeline
import coarsetd.simwidth
from coarsetd import (
    CoarseTDError,
    Graph,
    NotWithinError,
    Partition,
    PreconditionError,
    QuasiIsometryMap,
    TooLargeError,
    TreeDecomposition,
    augment,
    bag_metrics,
    branch_width_sim,
    centred_check,
    centred_check_decomposition,
    decomposition_from_order,
    dominating_mask,
    dominating_partition,
    exact_domination_number,
    generate_corpus,
    identity_map,
    independent_mask,
    induced_masks,
    induced_subgraph,
    maximum_independent_set,
    minimum_dominating_set,
    power_graph,
    pullback_decomposition,
    qi_constant,
    run_pipeline,
    sim_to_td,
    simval,
    simwidth_pipeline,
    validate_decomposition,
    weak_diameter,
)
from coarsetd.cli import main
from coarsetd.fileio import emit_bd, emit_graph
from coarsetd.generators import (
    FAMILIES,
    gen_ktree,
    gen_path,
    gen_random_tree,
    gen_subdivided_ktree,
)
from coarsetd.graph import single_source_distances, sweep_path
from coarsetd.pipeline import layered_parts
from helpers import path_graph, single_bag_td
from oracles import (
    brute_alpha,
    brute_gamma,
    centred_brute,
    distance_rows,
    qi_constant_brute,
    scan_sweep_path,
    side_cut_bags,
    simval_brute,
    validation_by_search,
)

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
    for fits in (True, False):
        with patch.object(Graph, "fits", lambda self, r, fits=fits: fits):
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
    dm = distance_rows(g)
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
    dm = distance_rows(g)

    def near(u, v):
        return dm[u][v] is not None and dm[u][v] <= d

    vs = sorted(members)
    power = both_kernels(lambda: (fresh(g),), lambda x: power_graph(x, d, members))
    assert power[0] == power[1] == Graph(len(vs), [
        (i + 1, j + 1)
        for i in range(len(vs)) for j in range(i + 1, len(vs)) if near(vs[i], vs[j])
    ])
    diam = both_kernels(lambda: (fresh(g),), lambda x: weak_diameter(x, members))
    dists = [dm[u][v] for u in members for v in members]
    assert diam[0] == diam[1] == (None if None in dists else max(dists))
    aug = both_kernels(lambda: (fresh(g),), lambda x: augment(x, td, d)[0].edges)
    assert aug[0] == aug[1] == g.edges | {
        (u, v) for t in td.nodes for u in td.bag(t) for v in td.bag(t)
        if u < v and near(u, v)
    }


@given(inputs(), st.integers(0, 6), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_one_piece_shortcut_matches_the_colouring(g, d, k, data):
    """centred_check against the power-graph colouring (the shortcut is
    skipped when g does not fit d) and, for small sets, the brute force."""
    members = data.draw(
        st.sets(st.sampled_from(list(g.vertices)), min_size=1, max_size=12)
    )
    for mode in ("exact", "heuristic"):
        fast = centred_check(fresh(g), members, k, d, cap=64, mode=mode)
        with patch.object(Graph, "fits", lambda self, r: False):
            slow = centred_check(fresh(g), members, k, d, cap=64, mode=mode)
        assert fast == slow
    if len(members) <= 7:
        want = centred_brute(g, members, k, d)
        assert centred_check(g, members, k, d, cap=64).centred is want
        heur = centred_check(g, members, k, d, mode="heuristic").centred
        assert heur is None or heur is want is True


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
    src, dst, mapping = make()
    if src.is_connected() and dst.is_connected():
        want = qi_constant_brute(src, dst, mapping, qmax)
        if want is None:
            assert got[0] == (NotWithinError, str(NotWithinError(qmax)))
        else:
            assert got[0] == want


@st.composite
def with_isolated(draw):
    """An input plus up to three isolated vertices, all ids shuffled."""
    g = draw(inputs())
    n = g.n + draw(st.integers(0, 3))
    ids = draw(st.permutations(list(range(1, n + 1))))
    return Graph(n, [(ids[u - 1], ids[v - 1]) for u, v in g.edges])


@given(with_isolated())
@settings(max_examples=150, deadline=None)
def test_rows_are_the_oracle_rows(g):
    """The row from every vertex, on a fresh graph and on one whose sweep
    and masks are cached; the neighbour tuples are built by the first row
    and kept, and equality and hash stay those of the edge set."""
    want = distance_rows(g)
    for warm in (False, True):
        x = fresh(g)
        if warm:
            x.connected_components()
            x.balls(min(x.n, 55))
        assert x._nbrs is None
        assert [single_source_distances(x, u) for u in x.vertices] == want[1:]
        nbrs = x._nbrs
        assert single_source_distances(x, x.n) == want[x.n]
        assert x._nbrs is nbrs
        assert x == g and hash(x) == hash(g)


@pytest.mark.parametrize("k, n, s", [(1, 30, 1), (1, 30, 2), (2, 40, 1), (2, 30, 2)])
def test_streamed_qi_constant_on_long_subdivided_ktrees(k, n, s):
    """The pullback's shape: a path-layout subdivided k-tree does not fit
    every radius, so its constant is streamed from rows, and it is the
    oracle's below, at and above the measured q."""
    for seed in range(2):
        inst = gen_subdivided_ktree(k, n, s, random.Random(seed), "path")
        g, h, phi = inst.graph, inst.base_graph, inst.qi_map
        assert not g.fits(inf)
        q = qi_constant(g, h, phi, g.n)
        for qmax in (q - 1, q, q + 1):
            want = qi_constant_brute(g, h, phi.mapping, qmax)
            if want is None:
                assert qmax < q
                with pytest.raises(NotWithinError):
                    qi_constant(fresh(g), fresh(h), phi, qmax)
            else:
                assert qi_constant(fresh(g), fresh(h), phi, qmax) == want == q


def spider(e, n):
    """Two legs of length e from vertex 1, the other vertices leaves of 1:
    the root's depth is e and the diameter 2e, the most levels e allows."""
    edges = [(1, 2), (1, e + 2)]
    edges += [(v, v + 1) for leg in (2, e + 2) for v in range(leg, leg + e - 1)]
    edges += [(1, v) for v in range(2 * e + 2, n + 1)]
    return Graph(n, edges)


def test_selection_rule():
    # fits(r) is min(r, 2e) < 56, e the depth of the component sweep
    assert gen_ktree(2, 200, random.Random(0)).graph.fits(inf)
    path = gen_path(200).graph
    assert path.fits(55) and not path.fits(56) and not path.fits(inf)
    assert spider(27, 60).fits(inf)
    assert spider(28, 60).fits(55) and not spider(28, 60).fits(56)


def levels(g):
    """Distinct mask levels g holds; a settled list repeats its last one."""
    return len({id(level) for level in g._masks or ()})


@pytest.mark.parametrize("e", [1, 2, 3, 5, 8])
def test_masks_never_outgrow_the_rows(e):
    """Asked for a radius far past the diameter, a spider of depth e keeps
    one level per distance its rows hold (2e + 1), each the balls of the
    rows, and no more mask bits than the 64 per pair of a row table."""
    for n in (2 * e + 1, 4 * e + 2, 60):
        g = spider(e, n)
        assert g.fits(inf)
        rows = distance_rows(g)
        diam = max(max(row[1:]) for row in rows[1:])
        assert diam == 2 * e
        g.balls(10 * n)
        assert levels(g) == diam + 1
        for r in range(diam + 2):
            assert g.balls(r) == [0] + [
                sum(1 << v for v in g.vertices if rows[u][v] <= r) for u in g.vertices
            ]
        assert levels(g) == diam + 1
        held = {id(level): level for level in g._masks}.values()
        bits = sum(mask.bit_length() for level in held for mask in level)
        assert bits <= 64 * n * n


def test_no_graph_holds_more_than_56_levels():
    """Each public distance question, asked at radii far past 56 of graphs
    whose diameter is past 56 too."""
    path = path_graph(300)
    ends = {1, 100, 300}
    td = decomposition_from_order(path, list(path.vertices))
    inst = gen_subdivided_ktree(1, 40, 2, random.Random(3), "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    calls = [
        lambda: weak_diameter(path, ends),
        lambda: power_graph(path, 200, ends),
        lambda: centred_check(path, ends, 2, 150),
        lambda: augment(path, td, 100),
        lambda: qi_constant(path, path, identity_map(path, path), 9),
        lambda: pullback_decomposition(g, h, phi, inst.base_decomposition, 3),
    ]
    for call in calls:
        call()
        assert max(map(levels, (path, g, h))) <= 56
    assert levels(path) == 56
    with pytest.raises(ValueError, match="more than 56 mask levels"):
        path.balls(56)
    assert levels(path) == 56


def test_large_radius_on_a_long_path():
    """Radii past the rule read rows: no level list as long as the path."""
    g = path_graph(1500)
    assert centred_check(g, {1, 1500}, 1, 1499).centred is True
    assert levels(g) <= 56
    g = path_graph(1500)
    assert weak_diameter(g, {1, 750, 1500}) == 1499
    assert levels(g) <= 56


def test_threads_extending_one_graphs_levels():
    """Threads that extend the same graph's levels at once must each see
    the balls of the rows at every radius, never a level settled early."""
    base = gen_ktree(2, 120, random.Random(1)).graph
    assert base.fits(inf)
    dm = distance_rows(base)
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


def test_threads_building_one_graphs_rows():
    """Threads that build the same long graph's first rows at once must
    each walk whole neighbour tuples: every row is the oracle's."""
    base = gen_subdivided_ktree(2, 30, 2, random.Random(2), "path").graph
    assert not base.fits(inf)
    dm = distance_rows(base)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            g = fresh(base)
            got = []

            def work(start):
                rows = range(start, g.n + 1, 4)
                got.append(all(single_source_distances(g, v) == dm[v] for v in rows))

            threads = [threading.Thread(target=work, args=(i + 1,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [True] * 4
    finally:
        sys.setswitchinterval(interval)


def members(mask, vs):
    return frozenset(v for i, v in enumerate(vs) if mask >> i & 1)


@given(inputs(), st.data())
@settings(max_examples=150, deadline=None)
def test_mask_solvers_match_the_graph_solvers(g, data):
    """On any vertex list, singletons and all of V included, the kernels on
    `induced_masks` give the witnesses of the Graph solvers on the induced
    subgraph, and for up to 10 vertices the sizes of the oracles; simval
    gives the brute-force value on cuts of up to 12 edges."""
    everything = list(g.vertices)
    vs = sorted(data.draw(st.one_of(
        st.just(everything),
        st.sets(st.sampled_from(everything), min_size=1, max_size=1),
        st.sets(st.sampled_from(everything), min_size=1),
    )))
    adj = induced_masks(g, vs)
    sub, _ = induced_subgraph(g, vs)
    assert adj == [
        sum(1 << (u - 1) for u in sub.adjacency[i + 1]) for i in range(len(vs))
    ]
    mis = members(independent_mask(adj), vs)
    mds = members(dominating_mask(adj), vs)
    assert mis == {vs[u - 1] for u in maximum_independent_set(sub, len(vs))}
    assert mds == {vs[u - 1] for u in minimum_dominating_set(sub, len(vs))}
    if len(vs) <= 10:
        assert len(mis) == brute_alpha(sub)
        assert len(mds) == brute_gamma(sub)
    side = data.draw(st.sets(st.sampled_from(everything)))
    cut = [e for e in g.edges if (e[0] in side) != (e[1] in side)]
    if len(cut) <= 12:
        assert simval(g, side, cap=12) == simval_brute(g, side)


@given(inputs(), st.data())
@settings(max_examples=150, deadline=None)
def test_dominating_partition_is_a_certificate(g, data):
    """The pieces of `dominating_partition` are disjoint, cover the set,
    number its domination number and have weak diameter at most 2 by the
    oracle rows, so nothing downstream needs to measure them."""
    s = data.draw(st.sets(st.sampled_from(list(g.vertices)), min_size=1))
    parts = dominating_partition(g, s, cap=64)
    assert sum(map(len, parts)) == len(s) and frozenset().union(*parts) == s
    sub, _ = induced_subgraph(g, sorted(s))
    assert len(parts) == exact_domination_number(sub, cap=64)
    if sub.n <= 10:
        assert len(parts) == brute_gamma(sub)
    dm = distance_rows(g)
    for part in parts:
        assert all(dm[u][v] is not None and dm[u][v] <= 2 for u in part for v in part)


@st.composite
def centred_inputs(draw):
    """A family graph, a decomposition of it, d, and the least k at which
    the exact centred check passes (with some slack drawn on top)."""
    family = draw(st.sampled_from(FAMILIES))
    inst = generate_corpus(
        family, draw(PARAMS[family]), seed=draw(st.integers(0, 999))
    )
    g, td = inst.graph, inst.decomposition
    if inst.branch_decomposition is not None:
        td = sim_to_td(g, inst.branch_decomposition)
    elif td is None:
        td = decomposition_from_order(g, list(g.vertices))
    d = draw(st.integers(0, 3))
    k = 1
    while not centred_check_decomposition(g, td, k, d).all_centred:
        k += 1
    return g, td, k + draw(st.integers(0, 1)), d


@given(centred_inputs())
@settings(max_examples=100, deadline=None)
def test_passed_centred_check_bounds_bag_independence(case):
    """Once the exact centred check passes at (k, d), augment makes every
    bag k cliques, so the independence gate it replaces could only pass:
    the checked and the waived run give the same report and objects."""
    g, td, k, d = case
    h, _ = augment(g, td, d)
    assert bag_metrics(h, td).independence_number <= k
    checked = run_pipeline(g, td, k, d)
    waived = run_pipeline(g, td, k, d, check_centred=False)
    assert checked.to_dict() == waived.to_dict()
    assert checked.final_graph.edges == waived.final_graph.edges
    assert checked.final_decomposition.bags == waived.final_decomposition.bags
    assert checked.final_decomposition.tree.edges == waived.final_decomposition.tree.edges
    assert checked.final_map.mapping == waived.final_map.mapping


def test_bag_and_cut_solves_build_no_graph(monkeypatch):
    """The cut values, the certificates, the bag metrics and the
    independence gate of a waived run_pipeline read masks straight from
    g."""
    inst = generate_corpus(
        "random-branch-decomposition", {"n": 20, "p": 0.2}, seed=3
    )
    g, bd = inst.graph, inst.branch_decomposition
    td = sim_to_td(g, bd)
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    assert branch_width_sim(g, bd, cap=64) > 0
    for t in td.nodes:
        assert dominating_partition(g, td.bag(t), cap=64)
    alpha = bag_metrics(g, td, cap=64).independence_number
    assert alpha > 1
    # the gate refuses before the partition is built
    with pytest.raises(PreconditionError, match="bag independence"):
        run_pipeline(g, td, alpha - 1, 1, check_centred=False, cap=64)
    assert built == []


@given(st.integers(1, 40), st.integers(0, 999), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_path_is_the_tree_path(n, seed, data):
    """Between any two nodes of a random tree, sweep_path gives the walk up
    a BFS parent table rooted at node 1 to the meeting node and down."""
    tree = gen_random_tree(n, random.Random(seed)).graph
    a, b = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    parent, order = {1: None}, [1]
    for x in order:
        for y in tree.adjacency[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)

    def to_root(x):
        path = []
        while x is not None:
            path.append(x)
            x = parent[x]
        return path

    up_a, up_b = to_root(a), to_root(b)
    while len(up_a) > 1 and len(up_b) > 1 and up_a[-2] == up_b[-2]:
        up_a.pop()
        up_b.pop()
    assert sweep_path(fresh(tree), a, b) == up_a + up_b[-2::-1]


@given(family_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_path_is_the_scan_rule(g, data):
    """On a connected graph, sweep_path's cached step-up neighbours give the
    path of the scan rule, for every pair asked of one graph in turn."""
    x = fresh(g)
    for _ in range(3):
        a, b = data.draw(st.integers(1, g.n)), data.draw(st.integers(1, g.n))
        if x.is_connected():
            assert sweep_path(x, a, b) == scan_sweep_path(g, a, b)


def test_row_fallback_reads_one_row_per_vertex_at_most(monkeypatch):
    """Past the 56-level rule augment reads one row per vertex that has a
    bag-mate above it not yet adjacent, never one per bag member."""
    rows = []
    row = single_source_distances

    def counting_row(g, source):
        rows.append(source)
        return row(g, source)

    # both bindings, so a row read through graph.py's helpers counts too
    for module in (coarsetd.graph, coarsetd.pipeline):
        monkeypatch.setattr(module, "single_source_distances", counting_row)
    path = path_graph(300)
    td = decomposition_from_order(path, list(path.vertices))
    assert not path.fits(100)
    assert augment(path, td, 100)[0] is path
    assert len(rows) <= path.n
    rows.clear()
    path = path_graph(100)
    h, _ = augment(path, single_bag_td(path), 60)
    assert h.m == 4170
    assert rows == list(range(1, 99))


def test_power_graph_rows_skip_the_last_member(monkeypatch):
    """Past the 56-level rule `near_pairs` reads no row for the last member,
    whose pairs the earlier rows have all counted."""
    rows = []
    row = single_source_distances

    def counting_row(g, source):
        rows.append(source)
        return row(g, source)

    monkeypatch.setattr(coarsetd.graph, "single_source_distances", counting_row)
    path = path_graph(300)
    assert not path.fits(200)
    pg = power_graph(path, 200, {1, 100, 300})
    assert rows == [1, 100]
    assert pg.n == 3 and pg.edges == {(1, 2), (2, 3)}


def test_branch_width_skips_cuts_that_cannot_raise_it(monkeypatch):
    """A cut with no more edges, first ends or second ends than the best
    value so far is not solved."""
    inst = generate_corpus(
        "random-branch-decomposition", {"n": 20, "p": 0.2}, seed=3
    )
    g, bd = inst.graph, inst.branch_decomposition
    calls = []
    kernel = coarsetd.simwidth.independent_mask

    def counting(adj):
        calls.append(len(adj))
        return kernel(adj)

    monkeypatch.setattr(coarsetd.simwidth, "independent_mask", counting)
    assert branch_width_sim(g, bd, cap=64) == 4
    cut = [e for e in bd.tree.edges if any(
        (u in bd.side(e)) != (v in bd.side(e)) for u, v in g.edges
    )]
    assert len(cut) == 37
    assert len(calls) == 15


@st.composite
def decompositions(draw):
    """A family graph with its own decomposition, some bag memberships
    toggled; or any graph with random bags on a random tree. Mostly
    invalid, in each of the three ways."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(["path", "cycle", "random-tree", "k-tree", "grid-slice"]))
        inst = generate_corpus(family, draw(PARAMS[family]), seed=draw(st.integers(0, 999)))
        g, tree, bags = inst.graph, inst.decomposition.tree, dict(inst.decomposition.bags)
        for _ in range(draw(st.integers(0, 3))):
            t = draw(st.sampled_from(list(tree.vertices)))
            bags[t] = bags[t] ^ {draw(st.sampled_from(list(g.vertices)))}
    else:
        g = draw(inputs())
        tree = gen_random_tree(draw(st.integers(1, 10)), random.Random(draw(st.integers(0, 999)))).graph
        bags = {t: draw(st.sets(st.sampled_from(list(g.vertices)))) for t in tree.vertices}
    return g, TreeDecomposition(tree, bags)


@given(decompositions())
@settings(max_examples=300, deadline=None)
def test_validation_counts_as_the_trace_search_finds(case):
    g, td = case
    report = validate_decomposition(g, td)
    assert (report.ok, report.kind, report.witness) == validation_by_search(g, td)


@given(
    st.integers(1, 12),
    st.sampled_from([0.1, 0.2, 0.35, 0.5]),
    st.integers(0, 999),
    st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_branch_width_is_the_widest_side_cut(n, p, seed, cap):
    """The cuts collected along leaf-to-leaf paths value as the sides do,
    and the first side over the cap raises the same error."""
    inst = generate_corpus("random-branch-decomposition", {"n": n, "p": p}, seed=seed)
    g, bd = inst.graph, inst.branch_decomposition

    def outcome(call):
        try:
            return call()
        except TooLargeError as exc:
            return str(exc)

    assert outcome(lambda: branch_width_sim(g, bd, cap)) == outcome(lambda: max(
        (simval(g, bd.side(e), cap) for e in sorted(bd.tree.edges)), default=0
    ))


@given(
    st.integers(1, 12),
    st.sampled_from([0.1, 0.2, 0.35, 0.5]),
    st.integers(0, 999),
)
@settings(max_examples=200, deadline=None)
def test_sim_to_td_bags_are_the_side_cut_bags(n, p, seed):
    """The bags filled along leaf-to-leaf paths are the bags the sides of
    the tree edges at each node give."""
    inst = generate_corpus("random-branch-decomposition", {"n": n, "p": p}, seed=seed)
    g, bd = inst.graph, inst.branch_decomposition
    assert sim_to_td(g, bd).bags == side_cut_bags(g, bd)


def test_one_walk_per_branch_decomposition(tmp_path, monkeypatch):
    """The pipeline and the sim-to-td command read the cuts and the bags
    off one leaf-to-leaf path per graph edge."""
    inst = generate_corpus(
        "random-branch-decomposition", {"n": 20, "p": 0.2}, seed=3
    )
    g, bd = inst.graph, inst.branch_decomposition
    calls = []

    def counting_sweep_path(*args):
        calls.append(args)
        return sweep_path(*args)

    monkeypatch.setattr(coarsetd.simwidth, "sweep_path", counting_sweep_path)
    assert simwidth_pipeline(g, bd, simval_cap=64).branch_width > 0
    assert len(calls) == g.m == 48
    calls.clear()
    (tmp_path / "g.gr").write_text(emit_graph(g))
    (tmp_path / "b.bd").write_text(emit_bd(bd))
    result = CliRunner().invoke(main, [
        "--cap", "64", "sim-to-td", "--graph", str(tmp_path / "g.gr"),
        "--bd", str(tmp_path / "b.bd"), "-o", str(tmp_path / "t.td"),
    ])
    assert result.exit_code == 0, result.output
    assert len(calls) == g.m


def test_tree_questions_run_no_bfs(monkeypatch):
    """On a built branch decomposition, its conversion, the validation of
    the result and the branch width read the tree's cached sweep."""
    inst = generate_corpus(
        "random-branch-decomposition", {"n": 20, "p": 0.2}, seed=3
    )
    g, bd = inst.graph, inst.branch_decomposition
    calls = []
    bfs = sys.modules["coarsetd.graph"].bfs

    def counting_bfs(*args, **kwargs):
        calls.append(args)
        return bfs(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("coarsetd") and getattr(module, "bfs", None) is bfs:
            monkeypatch.setattr(module, "bfs", counting_bfs)
    td = sim_to_td(g, bd)
    assert validate_decomposition(g, td).ok
    assert branch_width_sim(g, bd, cap=64) > 0
    assert calls == []
    bd.side(min(bd.tree.edges))  # the wrapper sees the reference's search
    assert len(calls) == 1
