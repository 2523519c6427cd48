import gc
import json
import pathlib
import random
import tempfile
import time
import weakref
from math import inf
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings, strategies as st

import coarsetd.cli
import coarsetd.graph
import coarsetd.quasiiso

from coarsetd import (
    CompositionMismatchError,
    DisconnectedError,
    Graph,
    InvalidDecompositionError,
    InvalidMapError,
    NotWithinError,
    PreconditionError,
    QuasiIsometryMap,
    TreeDecomposition,
    centred_check_decomposition,
    compose,
    decomposition_from_order,
    identity_map,
    measure,
    pullback_decomposition,
    qi_constant,
    validate_decomposition,
    weak_diameter,
)
from coarsetd.generators import gen_ktree, gen_subdivided_ktree, random_connected_graph
from coarsetd.cli import main
from coarsetd.fileio import emit_graph, emit_map, emit_td
from coarsetd.graph import _climb, bfs, single_source_distances
from coarsetd.pipeline import Partition, layered_parts
from coarsetd.quasiiso import _fibres, _floor, _lifts, _pullback
from helpers import cycle_graph, path_graph
from oracles import distance_rows, plain_lifts, qi_constant_brute


def all_to_one(g):
    k1 = Graph(1)
    return k1, QuasiIsometryMap(g, k1, {v: 1 for v in g.vertices})


def test_identity_is_one():
    g = cycle_graph(5)
    assert qi_constant(g, g, identity_map(g, g), 5) == 1


def test_collapse_c6():
    g = cycle_graph(6)
    k1, phi = all_to_one(g)
    assert qi_constant(g, k1, phi, 10) == 2


def test_chords_stretch():
    g = path_graph(5)
    h = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (3, 5)])
    assert qi_constant(g, h, identity_map(g, h), 10) == 2


def test_coverage_drives_constant():
    k1 = Graph(1)
    g = cycle_graph(6)
    phi = QuasiIsometryMap(k1, g, {1: 1})
    assert qi_constant(k1, g, phi, 10) == 3  # farthest vertex sits 3 away


def test_not_within():
    g = cycle_graph(6)
    k1, phi = all_to_one(g)
    with pytest.raises(NotWithinError):
        qi_constant(g, k1, phi, 1)


def test_disconnected_rejected():
    g = Graph(4, [(1, 2), (3, 4)])
    h = path_graph(4)
    with pytest.raises(DisconnectedError):
        qi_constant(g, h, identity_map(g, h), 5)
    with pytest.raises(DisconnectedError):
        qi_constant(h, g, identity_map(h, g), 5)


def test_graphs_must_be_the_maps_own():
    p4, c4 = path_graph(4), cycle_graph(4)
    phi = identity_map(p4, c4)
    assert qi_constant(p4, c4, phi, 5) == 2
    # an equal graph built separately is the same graph
    assert measure(Graph(4, p4.edges), c4, phi, 5).measured_q == 2
    with pytest.raises(InvalidMapError):
        measure(c4, c4, phi, 5)  # would read 1, the constant of c4 -> c4
    with pytest.raises(InvalidMapError):
        qi_constant(p4, p4, phi, 5)
    td = TreeDecomposition(Graph(1), {1: set(c4.vertices)})
    with pytest.raises(InvalidMapError):
        pullback_decomposition(c4, c4, phi, td, 2)


def test_map_validation():
    g = path_graph(3)
    with pytest.raises(InvalidMapError):
        QuasiIsometryMap(g, g, {1: 1, 2: 2})  # not total
    with pytest.raises(InvalidMapError):
        QuasiIsometryMap(g, g, {1: 1, 2: 2, 3: 9})  # outside target


def _satisfies_at(g, h, mapping, q):
    """Direct re-check of the three defining conditions at a fixed q."""
    dg, dh = distance_rows(g), distance_rows(h)
    for u in g.vertices:
        for v in g.vertices:
            a = dg[u][v]
            b = dh[mapping[u]][mapping[v]]
            if not ((1 / q) * a - q <= b <= q * a + q):
                return False
    return all(
        min(dh[x][mapping[v]] for v in g.vertices) <= q
        for x in h.vertices
    )


def test_monotone_consistency_and_minimality():
    from coarsetd.generators import random_connected_graph

    rng = random.Random(3)
    checked = 0
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 8), 0.3, rng)
        h = random_connected_graph(rng.randint(1, 6), 0.3, rng)
        mapping = {v: rng.randint(1, h.n) for v in g.vertices}
        phi = QuasiIsometryMap(g, h, mapping)
        try:
            q = qi_constant(g, h, phi, 12)
        except NotWithinError:
            continue
        checked += 1
        for q2 in range(q, q + 4):
            assert _satisfies_at(g, h, mapping, q2)
        for q2 in range(1, q):
            assert not _satisfies_at(g, h, mapping, q2)
    assert checked > 0


def test_matches_brute_force():
    from coarsetd.generators import random_connected_graph

    rng = random.Random(9)
    seen = set()
    for i in range(120):
        g = random_connected_graph(1 if i < 4 else rng.randint(1, 25), 0.2, rng)
        h = random_connected_graph(rng.randint(1, 12), 0.3, rng)
        mapping = {v: rng.randint(1, h.n) for v in g.vertices}
        phi = QuasiIsometryMap(g, h, mapping)
        qmax = rng.randint(1, 5)
        expected = qi_constant_brute(g, h, mapping, qmax)
        if expected is None:
            with pytest.raises(NotWithinError):
                qi_constant(g, h, phi, qmax)
        else:
            assert qi_constant(g, h, phi, qmax) == expected
        seen.add(("n=1", g.n == 1))
        seen.add(("large", g.n >= 20))
        image = set(mapping.values())
        seen.add(("injective", len(image) == g.n))
        seen.add(("onto", image == set(h.vertices)))
        seen.add(("within", expected is not None))
    # every kind of case, each way round, was checked
    assert len(seen) == 10


def test_fold_weighs_every_pair_at_the_final_constant():
    """The slack that decides a fibre's test is read at the q the fold
    ends on, not at the smaller q that an earlier pair saw."""
    from coarsetd.quasiiso import _fold

    # (10, 2) raises q to 3, with slack 15 - 10; (0, 9) raises it to 9, at
    # which the slacks are 99 - 10 and 162, so q^2 = 81 is the least
    assert _fold(1, [(10, 2), (0, 9)]) == (9, 81)
    assert _fold(1, [(0, 0), (4, 1)]) == (2, 2)
    assert _fold(3, []) == (3, 9)


def test_solved_constant_is_the_least_budget_that_passes():
    from coarsetd.generators import random_connected_graph

    rng = random.Random(17)
    seen = set()
    for i in range(90):
        g = random_connected_graph(rng.randint(1, 14), 0.25, rng)
        h = random_connected_graph(rng.randint(1, 9), 0.3, rng)
        kind = ("collapsing", "onto", "random")[i % 3]
        if kind == "collapsing":
            mapping = dict.fromkeys(g.vertices, rng.randint(1, h.n))
        else:
            mapping = {v: rng.randint(1, h.n) for v in g.vertices}
            if kind == "onto" and g.n >= h.n:
                mapping.update(zip(rng.sample(list(g.vertices), h.n), h.vertices))
        phi = QuasiIsometryMap(g, h, mapping)
        q = qi_constant(g, h, phi, 10 ** 6)
        assert qi_constant(g, h, phi, q) == q
        if q > 1:
            with pytest.raises(NotWithinError):
                qi_constant(g, h, phi, q - 1)
        seen.add((kind, set(mapping.values()) == set(h.vertices), q > 1))
    wanted = {("collapsing", False, True), ("onto", True, True), ("onto", True, False)}
    assert wanted <= seen  # (kind, onto, q > 1)


def test_map_is_frozen():
    from dataclasses import FrozenInstanceError

    g = path_graph(3)
    phi = measure(g, g, identity_map(g, g), 3)
    with pytest.raises(FrozenInstanceError):
        phi.measured_q = 2
    with pytest.raises(FrozenInstanceError):
        phi.mapping = {1: 1, 2: 1, 3: 1}
    assert phi.measured_q == 1 and phi.mapping == {1: 1, 2: 2, 3: 3}


def test_compose_identities():
    g = cycle_graph(6)
    idm = measure(g, g, identity_map(g, g), 5)
    composed = compose(idm, idm)
    assert composed.measured_q == 1


def test_compose_bound_formula():
    g = cycle_graph(6)
    k1, phi = all_to_one(g)
    phi = measure(g, k1, phi, 5)  # c = 2
    idk = measure(k1, k1, identity_map(k1, k1), 5)  # q = 1
    composed = compose(phi, idk)
    assert composed.measured_q <= 1 * (2 + 2)  # q(c+2)


def test_compose_mismatch():
    g = path_graph(3)
    h = path_graph(4)
    m1 = measure(g, g, identity_map(g, g), 3)
    m2 = measure(h, h, identity_map(h, h), 3)
    with pytest.raises(CompositionMismatchError):
        compose(m1, m2)
    with pytest.raises(PreconditionError):
        compose(identity_map(g, g), m1)  # first map unmeasured


def test_pullback_p3_identity():
    g = path_graph(3)
    td_h = TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2}, 2: {2, 3}})
    out = pullback_decomposition(g, g, identity_map(g, g), td_h, 1)
    assert out.bag(1) == out.bag(2) == frozenset({1, 2, 3})
    assert validate_decomposition(g, out).ok
    assert centred_check_decomposition(g, out, 2, 3).all_centred is True


def test_pullback_subdivided_p3():
    g = Graph(5, [(1, 4), (4, 2), (2, 5), (5, 3)])  # P3, each edge subdivided
    h = path_graph(3)
    phi = QuasiIsometryMap(g, h, {1: 1, 2: 2, 3: 3, 4: 1, 5: 2})
    assert qi_constant(g, h, phi, 5) == 2
    td_h = TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2}, 2: {2, 3}})
    out = pullback_decomposition(g, h, phi, td_h, 2)
    assert validate_decomposition(g, out).ok
    assert centred_check_decomposition(g, out, 2, 12).all_centred is True


def test_pullback_single_bag_host():
    g = cycle_graph(6)
    k1, phi = all_to_one(g)
    td_h = TreeDecomposition(Graph(1), {1: {1}})
    out = pullback_decomposition(g, k1, phi, td_h, 2)
    assert out.bag(1) == frozenset(g.vertices)
    assert centred_check_decomposition(g, out, 1, 12).all_centred is True
    assert centred_check_decomposition(g, out, 2, 12).all_centred is True


def test_pullback_rejects_invalid_host_decomposition():
    g = path_graph(3)
    td_h = TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2}, 2: {3}})
    with pytest.raises(InvalidDecompositionError, match="host decomposition invalid"):
        pullback_decomposition(g, g, identity_map(g, g), td_h, 1)


def test_pullback_checks_inputs_once(monkeypatch):
    from coarsetd.generators import gen_subdivided_ktree

    inst = gen_subdivided_ktree(1, 6, 2, random.Random(2))
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    checked = []
    is_connected = Graph.is_connected

    def counting(self):
        checked.append(self)
        return is_connected(self)

    monkeypatch.setattr(Graph, "is_connected", counting)
    pullback_decomposition(g, h, phi, inst.base_decomposition, 3)
    assert [x is g for x in checked].count(True) == 1
    assert [x is h for x in checked].count(True) == 1


@pytest.mark.parametrize("k, s", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_pulled_back_bags_build_no_power_graph(monkeypatch, k, s):
    # shaped like the CLI pullback: a subdivided path-layout k-tree pulled
    # back at c = s + 1 and checked (k+1, 3c^2)-centred; every bag is one
    # piece, answered from the level masks
    import coarsetd.decomposition
    from coarsetd.generators import gen_subdivided_ktree

    rng = random.Random(k * 10 + s)
    inst = gen_subdivided_ktree(k, 300 // (1 + k * s), s, rng, "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    c = s + 1
    out = pullback_decomposition(g, h, phi, inst.base_decomposition, c)
    calls = []
    power_graph = coarsetd.decomposition.power_graph

    def counting(*args):
        calls.append(args)
        return power_graph(*args)

    monkeypatch.setattr(coarsetd.decomposition, "power_graph", counting)
    result = centred_check_decomposition(g, out, k + 1, 3 * c * c, cap=128)
    assert result.all_centred is True
    assert calls == []
    assert all(r.parts == (out.bag(t),) for t, r in result.per_bag.items())


def test_pullback_invalid_host_reported_before_weak_constant():
    g = cycle_graph(6)
    k1, phi = all_to_one(g)
    td_h = TreeDecomposition(Graph(1), {1: set()})  # leaves vertex 1 out
    with pytest.raises(InvalidDecompositionError):
        pullback_decomposition(g, k1, phi, td_h, 2)
    with pytest.raises(InvalidDecompositionError):  # phi is not a 1-qi either
        pullback_decomposition(g, k1, phi, td_h, 1)


def test_pullback_rejects_weak_constant():
    g = cycle_graph(6)
    k1, phi = all_to_one(g)
    td_h = TreeDecomposition(Graph(1), {1: {1}})
    with pytest.raises(NotWithinError):
        pullback_decomposition(g, k1, phi, td_h, 1)


def test_pullback_bags_are_ball_unions():
    from coarsetd.generators import gen_subdivided_ktree

    rng = random.Random(31)
    inst = gen_subdivided_ktree(2, 6, 1, rng)
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    td_h = inst.base_decomposition
    c = 2
    out = pullback_decomposition(g, h, phi, td_h, c)
    dh = distance_rows(h)
    k = td_h.width
    for t in out.nodes:
        bag, host_bag = out.bag(t), td_h.bag(t)
        assert len(host_bag) <= k + 1
        pieces = []
        for x in sorted(host_bag):
            ball = frozenset(
                v for v in g.vertices
                if dh[phi.mapping[v]][x] is not None
                and dh[phi.mapping[v]][x] <= c
            )
            pieces.append(ball)
            if ball:
                diam = weak_diameter(g, ball)
                assert isinstance(diam, int) and diam <= 3 * c * c
        assert frozenset().union(*pieces) == bag


def test_pullback_preserves_shape():
    g = path_graph(4)
    td_h = TreeDecomposition(
        Graph(3, [(1, 2), (2, 3)]),
        {1: {1, 2}, 2: {2, 3}, 3: {3, 4}},
        shape="path",
    )
    out = pullback_decomposition(g, g, identity_map(g, g), td_h, 1)
    assert out.shape == "path"


@st.composite
def perturbed_subdivisions(draw):
    """A subdivided k-tree (k, s <= 2) under its natural map, with up to two
    vertices re-mapped to a neighbour of their image."""
    k, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = draw(st.integers(k + 1, 10))
    layout = draw(st.sampled_from(["path", "random"]))
    inst = gen_subdivided_ktree(k, n, s, random.Random(draw(st.integers(0, 999))), layout)
    g, h = inst.graph, inst.base_graph
    mapping = dict(inst.qi_map.mapping)
    for v in draw(st.lists(st.sampled_from(list(g.vertices)), max_size=2)):
        mapping[v] = draw(st.sampled_from(sorted(h.adjacency[mapping[v]])))
    return g, h, mapping


@st.composite
def cluster_maps(draw):
    """A random connected graph mapped onto its quotient by clusters: each
    vertex goes to its nearest centre, or, for scattered clusters, to a
    drawn label."""
    g = random_connected_graph(
        draw(st.integers(1, 16)), draw(st.sampled_from([0.1, 0.3])),
        random.Random(draw(st.integers(0, 999))),
    )
    if draw(st.booleans()):
        centres = draw(st.lists(st.sampled_from(list(g.vertices)), min_size=1, max_size=5))
        dg = distance_rows(g)
        labels = [min(centres, key=lambda x: (dg[v][x], x)) for v in g.vertices]
    else:
        labels = draw(st.lists(st.integers(1, 5), min_size=g.n, max_size=g.n))
    ids = {}
    mapping = {v: ids.setdefault(x, len(ids) + 1) for v, x in zip(g.vertices, labels)}
    h = Graph(len(ids), [(mapping[u], mapping[v]) for u, v in g.edges if mapping[u] != mapping[v]])
    return g, h, mapping


@st.composite
def onto_maps(draw):
    """A random map of a random connected graph onto a smaller one."""
    rng = random.Random(draw(st.integers(0, 999)))
    g = random_connected_graph(draw(st.integers(2, 8)), 0.3, rng)
    h = random_connected_graph(draw(st.integers(2, g.n)), 0.3, rng)
    mapping = {v: rng.randint(1, h.n) for v in g.vertices}
    mapping.update(zip(rng.sample(list(g.vertices), h.n), h.vertices))
    return g, h, mapping


@given(st.one_of(perturbed_subdivisions(), cluster_maps(), onto_maps()), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_lifts_passes_only_quasi_isometries(maps, c):
    """Whenever the row-free certificate passes, the oracle's constant is at
    most c."""
    g, h, mapping = maps
    passed = _lifts(g, h, _fibres(g, h, QuasiIsometryMap(g, h, mapping), c), c)
    event(f"certificate passes: {passed}")
    if passed:
        assert qi_constant_brute(g, h, mapping, c) is not None


def test_lifts_needs_each_edge_to_map_within_one_step():
    """Edge 1-2 of g maps to the ends of h's path 1-4-3-2, and the map is
    not a 1-quasi-isometry; every other condition of the certificate holds
    at c = 1."""
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    h = Graph(4, [(1, 4), (4, 3), (3, 2)])
    mapping = {1: 1, 2: 2, 3: 4, 4: 3}
    assert qi_constant_brute(g, h, mapping, 1) is None
    assert not _lifts(g, h, _fibres(g, h, QuasiIsometryMap(g, h, mapping), 1), 1)


@st.composite
def path_ktree_quotients(draw):
    """A path-layout k-tree (k <= 3) contracted onto the quotient of its
    BFS layer parts: the pipeline's stage-2 map."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 40))
    g = gen_ktree(k, n, random.Random(draw(st.integers(0, 999))), "path").graph
    p = Partition(g, layered_parts(g))
    return g, p.quotient, dict(p.index)


@given(st.one_of(path_ktree_quotients(), perturbed_subdivisions(), cluster_maps()))
@settings(max_examples=300, deadline=None)
def test_floor_the_certificate_holds_at_is_the_constant(maps):
    """Where the certificate holds at the floor that the widest fibre sets,
    the floor is the oracle's constant."""
    g, h, mapping = maps
    fibres = _fibres(g, h, QuasiIsometryMap(g, h, mapping), 1)
    lo = _floor(g, h, fibres)
    met = lo is not None and _lifts(g, h, fibres, lo)
    event(f"floor meets certificate: {met}")
    if met:
        assert lo == qi_constant_brute(g, h, mapping, g.n + h.n)


@given(
    st.one_of(perturbed_subdivisions(), cluster_maps(), onto_maps(), path_ktree_quotients()),
    st.integers(1, 5),
)
@settings(max_examples=300, deadline=None)
def test_lifts_agrees_with_the_plain_iteration(maps, c):
    """The cached reach masks give the verdict of the per-member iteration."""
    g, h, mapping = maps
    fibres = _fibres(g, h, QuasiIsometryMap(g, h, mapping), c)
    passed = _lifts(g, h, fibres, c)
    event(f"certificate passes: {passed}")
    assert passed == plain_lifts(g, h, fibres, c)


@pytest.mark.parametrize("k, s, c, verdict", [(2, 1, 2, True), (1, 2, 2, False)])
def test_lifts_agrees_where_potentials_rise(k, s, c, verdict):
    """Small subdivided path-layout k-trees under their natural maps, where
    some member has no neighbouring fibre within c at potential 0, so
    potentials rise before the verdict: a 2-tree (s = 1) that lifts at
    c = 2 after 17 rises over 3 passes, and a path (s = 2) that does not.
    A reach mask kept past a rise in its fibre would pass the path."""
    inst = gen_subdivided_ktree(k, 10, s, random.Random(0), "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    fibres = _fibres(g, h, phi, c)
    dg = distance_rows(g)
    assert any(
        min(dg[w][v] for v in fibres[y]) > c
        for x, fibre in fibres.items() for y in h.adjacency[x] for w in fibre
    )
    assert _lifts(g, h, fibres, c) == plain_lifts(g, h, fibres, c) == verdict


def count_rows(monkeypatch):
    """Record the sources of every BFS row read, through either module."""
    rows = []

    def counting(g, *sources):
        rows.append(sources)
        return single_source_distances(g, *sources)

    for module in (coarsetd.graph, coarsetd.quasiiso):
        monkeypatch.setattr(module, "single_source_distances", counting)
    return rows


def count_solves(monkeypatch):
    """Record every exact measurement that pullback_decomposition falls back to."""
    solves = []
    solve = coarsetd.quasiiso._solve

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(coarsetd.quasiiso, "_solve", counting)
    return solves


def ball_unions(g, h, mapping, td_h, c):
    """The pulled-back bags, from the oracle rows of h."""
    dh = distance_rows(h)
    return {
        t: frozenset(v for v in g.vertices for x in td_h.bag(t) if dh[mapping[v]][x] <= c)
        for t in td_h.nodes
    }


@pytest.mark.parametrize("k, s", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_natural_subdivision_map_lifts_at_s_plus_one(monkeypatch, k, s):
    """The benchmark's shape: a subdivided path-layout k-tree under its
    natural map, an exact (s+1)-quasi-isometry. The certificate passes at
    c = s + 1 and fails at c = s, and the pullback at s + 1 reads no BFS
    row and measures no constant."""
    inst = gen_subdivided_ktree(k, 300 // (1 + k * s), s, random.Random(k * 10 + s), "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    assert not g.fits(inf)  # qi_constant would stream rows here
    fibres = _fibres(g, h, phi, s + 1)
    assert _lifts(g, h, fibres, s + 1) and not _lifts(g, h, fibres, s)
    rows, solves = count_rows(monkeypatch), count_solves(monkeypatch)
    out = pullback_decomposition(g, h, phi, inst.base_decomposition, s + 1)
    assert rows == [] and solves == []
    td_h = inst.base_decomposition
    assert out.bags == ball_unions(g, h, phi.mapping, td_h, s + 1)


def far_member_map():
    """A subdivided path with one subdivision vertex re-mapped to a branch
    vertex three hops from its image: a 3-quasi-isometry whose re-mapped
    edges join images three apart, so the certificate cannot pass."""
    inst = gen_subdivided_ktree(1, 30, 1, random.Random(0), "path")
    g, h = inst.graph, inst.base_graph
    mapping = dict(inst.qi_map.mapping)
    w = h.n + 1
    mapping[w] = min(x for x, depth in bfs(h.adjacency, [mapping[w]]).items() if depth == 3)
    return g, h, QuasiIsometryMap(g, h, mapping), inst.base_decomposition


def test_pullback_measures_a_map_the_certificate_rejects(monkeypatch):
    g, h, phi, td_h = far_member_map()
    assert qi_constant_brute(g, h, phi.mapping, 10) == 3
    assert not _lifts(g, h, _fibres(g, h, phi, 3), 3)
    solves = count_solves(monkeypatch)
    out = pullback_decomposition(g, h, phi, td_h, 3)
    assert len(solves) == 1
    assert out.bags == ball_unions(g, h, phi.mapping, td_h, 3)
    assert out.tree == td_h.tree and out.shape == td_h.shape


def test_pullback_checks_the_host_decomposition_before_the_map(monkeypatch):
    """The far-member map fails the certificate, so a pullback would measure
    it from rows; a broken host decomposition is refused before either."""
    g, h, phi, td_h = far_member_map()
    broken = TreeDecomposition(td_h.tree, {**td_h.bags, 1: td_h.bag(1) - {min(td_h.bag(1))}})
    assert not validate_decomposition(h, broken).ok
    rows, solves = count_rows(monkeypatch), count_solves(monkeypatch)
    with pytest.raises(InvalidDecompositionError, match="host decomposition invalid"):
        pullback_decomposition(g, h, phi, broken, 3)
    assert rows == [] and solves == []


def test_pullback_below_the_constant_raises_the_measured_error():
    g, h, phi, td_h = far_member_map()
    with pytest.raises(NotWithinError) as raised:
        pullback_decomposition(g, h, phi, td_h, 2)
    assert str(raised.value) == str(NotWithinError(2)) and raised.value.qmax == 2


def test_pullback_at_a_constant_far_past_the_diameter_is_answered_at_once(monkeypatch):
    """The 16-vertex subdivided path at c = 10^5: the certificate holds
    there as it does at 2e + 1, past g's diameter, so it reads no more
    levels than that, measures no constant, and gives the oracle's bags."""
    inst = gen_subdivided_ktree(1, 6, 2, random.Random(0))
    g, h, phi, td_h = inst.graph, inst.base_graph, inst.qi_map, inst.base_decomposition
    assert g.n == 16
    solves = count_solves(monkeypatch)
    start = time.perf_counter()
    out = pullback_decomposition(g, h, phi, td_h, 10 ** 5)
    assert time.perf_counter() - start < 1
    assert not solves
    assert out.bags == ball_unions(g, h, phi.mapping, td_h, 10 ** 5)


def test_pullback_measures_a_map_that_is_not_onto(monkeypatch):
    g, h = path_graph(5), path_graph(7)
    phi = identity_map(g, h)  # 6 and 7 are not in the image: coverage radius 2
    td_h = TreeDecomposition(
        path_graph(6), {t: {t, t + 1} for t in range(1, 7)}, shape="path"
    )
    solves = count_solves(monkeypatch)
    out = pullback_decomposition(g, h, phi, td_h, 2)
    assert len(solves) == 1
    assert out.bags == ball_unions(g, h, phi.mapping, td_h, 2)
    with pytest.raises(NotWithinError, match="q <= 1 satisfies"):
        pullback_decomposition(g, h, phi, td_h, 1)


def test_floor_settles_a_long_graph_with_no_row(monkeypatch):
    """A subdivided path-layout 2-tree under its natural map, on a graph too
    long for every radius: the floor, 2, is the constant once the
    certificate holds at it, and a smaller qmax is refused, with no row
    read either way."""
    inst = gen_subdivided_ktree(2, 40, 1, random.Random(0), "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    assert not g.fits(inf)
    rows = count_rows(monkeypatch)
    assert qi_constant(g, h, phi, 5) == 2
    with pytest.raises(NotWithinError) as raised:
        qi_constant(g, h, phi, 1)
    assert str(raised.value) == str(NotWithinError(1))
    assert rows == []
    assert qi_constant_brute(g, h, phi.mapping, 5) == 2


def test_a_long_map_the_certificate_rejects_streams_rows(monkeypatch):
    """The far-member map stretches an edge, so the certificate cannot hold
    and no floor is read: its pairs are streamed from rows, none of them
    kept."""
    g, h, phi, _ = far_member_map()
    assert not g.fits(inf)
    fibres = _fibres(g, h, phi, 10)
    assert _floor(g, h, fibres) is None and not _lifts(g, h, fibres, 3)

    class Row(list):
        """A list that can be weakly referenced."""

    refs = []

    def building(x, *sources):
        row = Row(single_source_distances(x, *sources))
        refs.append(weakref.ref(row))
        return row

    monkeypatch.setattr(coarsetd.quasiiso, "single_source_distances", building)
    assert qi_constant(g, h, phi, 10) == qi_constant_brute(g, h, phi.mapping, 10) == 3
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_a_long_map_whose_floor_is_below_its_constant_streams_rows(monkeypatch):
    """A subdivided path under its natural map: the fibres give the floor 1,
    where the certificate fails, and the constant 2 is streamed from rows."""
    inst = gen_subdivided_ktree(1, 60, 1, random.Random(0), "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    assert not g.fits(inf)
    fibres = _fibres(g, h, phi, 10)
    assert _floor(g, h, fibres) == 1 and not _lifts(g, h, fibres, 1)
    rows = count_rows(monkeypatch)
    assert qi_constant(g, h, phi, 10) == qi_constant_brute(g, h, phi.mapping, 10) == 2
    assert rows


def test_pullback_refusal_runs_the_certificate_at_c_and_at_the_floor(monkeypatch):
    """The same subdivided path at c = 1: the pullback's certificate fails
    at c, and the measurement that refuses c runs it once more, at its
    floor, which is c too."""
    inst = gen_subdivided_ktree(1, 60, 1, random.Random(0), "path")
    g, h, phi = inst.graph, inst.base_graph, inst.qi_map
    calls = []

    def counting(g, h, fibres, c):
        calls.append(c)
        return _lifts(g, h, fibres, c)

    monkeypatch.setattr(coarsetd.quasiiso, "_lifts", counting)
    with pytest.raises(NotWithinError) as raised:
        pullback_decomposition(g, h, phi, inst.base_decomposition, 1)
    assert str(raised.value) == str(NotWithinError(1)) and raised.value.qmax == 1
    assert calls == [1, 1]


def test_a_long_map_that_is_not_onto_streams_rows(monkeypatch):
    """The identity of a long path into a longer one has no floor: its
    constant, the coverage radius 2, is streamed from rows."""
    g, h = path_graph(60), path_graph(62)
    phi = identity_map(g, h)
    assert not g.fits(inf) and _floor(g, h, _fibres(g, h, phi, 10)) is None
    rows = count_rows(monkeypatch)
    assert qi_constant(g, h, phi, 10) == qi_constant_brute(g, h, phi.mapping, 10) == 2
    assert rows


def pullback_cli(g, h, mapping, td_h, c, cap):
    """The CLI pullback on files of these objects: its printed report, its
    exit code and the .td it wrote (None if it wrote none)."""
    with tempfile.TemporaryDirectory() as tmp:
        folder = pathlib.Path(tmp)
        files = {"g.gr": emit_graph(g), "h.gr": emit_graph(h), "m.map": emit_map(mapping),
                 "h.td": emit_td(td_h, h.n)}
        for name, text in files.items():
            (folder / name).write_text(text)
        result = CliRunner().invoke(main, [
            "--cap", str(cap), "pullback", "--graph", str(folder / "g.gr"),
            "--host", str(folder / "h.gr"), "--map", str(folder / "m.map"),
            "--host-td", str(folder / "h.td"), "--c", str(c), "-o", str(folder / "out.td"),
        ])
        out = folder / "out.td"
        return result.output, result.exit_code, out.read_text() if out.exists() else None


@given(
    st.one_of(perturbed_subdivisions(), cluster_maps(), onto_maps(), path_ktree_quotients()),
    st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_pullback_witness_agrees_with_the_exact_check(maps, c):
    """Every bag the pullback builds is the union of its host bag's pieces.
    Where one climb puts every piece within 3c^2, the exact check finds
    every bag (k+1, 3c^2)-centred; and the CLI prints and writes what a run
    forced onto the exact check prints and writes."""
    g, h, mapping = maps
    phi = QuasiIsometryMap(g, h, mapping)
    td_h = decomposition_from_order(h, list(h.vertices))
    try:
        out, pieces = _pullback(g, h, phi, td_h, c)
    except NotWithinError:
        event("not a c-quasi-isometry")
        return
    assert out.bags == {
        t: frozenset(v for x in td_h.bag(t) for v in pieces[x]) for t in td_h.nodes
    }
    k, d = td_h.width, 3 * c * c
    r, done = _climb(g, pieces.values(), d)
    event(f"climb verifies: {done}")
    if done:
        assert r is not None and r <= d
        exact = centred_check_decomposition(g, out, k + 1, d, cap=g.n)
        assert all(result.centred is True for result in exact.per_bag.values())
    witness = pullback_cli(g, h, mapping, td_h, c, g.n)
    # a climb that never settles sends the CLI to the exact check
    with mock.patch.object(coarsetd.cli, "_climb", lambda g, sets, cap: (0, False)):
        assert pullback_cli(g, h, mapping, td_h, c, g.n) == witness
    assert witness[1] == 0


def test_a_widened_piece_sends_the_cli_to_the_exact_check(monkeypatch):
    """A piece widened to all of g, far past 3c^2, stops the climb at its
    cap: the CLI then runs the exact check once, over the real bags, and
    reports its verdict."""
    inst = gen_subdivided_ktree(1, 30, 1, random.Random(0), "path")
    g, h, phi, td_h = inst.graph, inst.base_graph, inst.qi_map, inst.base_decomposition
    c, d = 2, 12
    assert weak_diameter(g, g.vertices) > d

    def widened(*args):
        out, pieces = _pullback(*args)
        return out, {**pieces, 1: list(g.vertices)}

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return centred_check_decomposition(*args, **kwargs)

    monkeypatch.setattr(coarsetd.cli, "_pullback", widened)
    monkeypatch.setattr(coarsetd.cli, "centred_check_decomposition", counting)
    report, code, written = pullback_cli(g, h, phi.mapping, td_h, c, 128)
    assert len(calls) == 1
    out = pullback_decomposition(g, h, phi, td_h, c)
    exact = centred_check_decomposition(g, out, td_h.width + 1, d, cap=128).all_centred
    assert json.loads(report)["checks"]["centred"] is (exact is True)
    assert (code, written) == (0, emit_td(out, g.n))


def test_pullback_refuses_the_first_bag_over_the_cap():
    """P8 onto itself at c = 1, through host bags {1,2}, {2..5}, {5..8}:
    the pulled-back bags have 3, 6 and 5 vertices, so at --cap 4 bag 2 is
    the first over the cap, before bag 3, and nothing is written."""
    g = path_graph(8)
    td_h = TreeDecomposition(path_graph(3), {1: {1, 2}, 2: {2, 3, 4, 5}, 3: {5, 6, 7, 8}})
    mapping = {v: v for v in g.vertices}
    sizes = pullback_decomposition(g, g, identity_map(g, g), td_h, 1).bags
    assert [len(sizes[t]) for t in (1, 2, 3)] == [3, 6, 5]
    assert pullback_cli(g, g, mapping, td_h, 1, 4) == (
        "Error: bag 2 has size 6, exceeding the exact-solver cap 4\n", 1, None
    )
    assert pullback_cli(g, g, mapping, td_h, 1, 6)[1:] == (
        0, emit_td(pullback_decomposition(g, g, identity_map(g, g), td_h, 1), g.n)
    )
