import random
from math import inf

import pytest

from coarsetd import (
    BudgetExceededError,
    CoarseTDError,
    DisconnectedError,
    Graph,
    InvalidDecompositionError,
    InvalidPartitionError,
    Partition,
    PreconditionError,
    QuasiIsometryMap,
    TreeDecomposition,
    augment,
    bag_metrics,
    bipartite_partition,
    centred_check_decomposition,
    compose,
    exact_treewidth,
    generate_corpus,
    identity_map,
    ind_to_tw,
    induced_subgraph,
    is_bipartite,
    maximum_independent_set,
    minimum_diameter_bipartite_partition,
    push_decomposition,
    qi_constant,
    quotient_map,
    run_pipeline,
    validate_decomposition,
)
from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    single_bag_td,
)
from oracles import distance_rows


def p5_bags_td():
    return TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2, 3}, 2: {3, 4, 5}})


def connected_partition(rng, g):
    """Random partition into connected parts by merging across random edges."""
    part_of = {v: v for v in g.vertices}

    def find(v):
        while part_of[v] != v:
            part_of[v] = part_of[part_of[v]]
            v = part_of[v]
        return v

    edges = sorted(g.edges)
    rng.shuffle(edges)
    for u, v in edges[: rng.randint(0, len(edges))]:
        part_of[find(u)] = find(v)
    groups = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    return Partition(g, groups.values())


# ---------------------------------------------------------------- Partition


def test_partition_validation():
    g = path_graph(4)
    with pytest.raises(InvalidPartitionError):
        Partition(g, [{1, 2}])  # not covering
    with pytest.raises(InvalidPartitionError):
        Partition(g, [{1, 2}, {2, 3, 4}])  # overlap
    with pytest.raises(InvalidPartitionError):
        Partition(g, [{1, 4}, {2, 3}])  # disconnected part
    with pytest.raises(InvalidPartitionError):
        Partition(g, [{1, 2}, set(), {3, 4}])  # empty part


def test_partition_canonical_order():
    g = path_graph(4)
    p = Partition(g, [{3, 4}, {1, 2}])
    assert p.parts == (frozenset({1, 2}), frozenset({3, 4}))
    assert p.index[4] == 2


# ----------------------------------------------------------------- quotient


def test_quotient_singletons():
    g = cycle_graph(5)
    p = Partition(g, [{v} for v in g.vertices])
    assert p.quotient == g


def test_quotient_c6_pairs():
    g = cycle_graph(6)
    p = Partition(g, [{1, 2}, {3, 4}, {5, 6}])
    assert p.quotient == complete_graph(3)


def test_quotient_whole():
    g = cycle_graph(6)
    assert Partition(g, [set(g.vertices)]).quotient == Graph(1)


def test_quotient_map_measured():
    g = cycle_graph(6)
    singles = Partition(g, [{v} for v in g.vertices])
    assert singles.diameter == 0
    assert quotient_map(singles).measured_q == 1
    pairs = Partition(g, [{1, 2}, {3, 4}, {5, 6}])
    assert pairs.diameter == 1
    assert quotient_map(pairs).measured_q == 2
    assert quotient_map(pairs).target is pairs.quotient
    whole = Partition(g, [set(g.vertices)])
    assert whole.diameter == 3
    assert quotient_map(whole).measured_q <= 4


# ----------------------------------------------------------------- push


def test_push_singletons_isomorphic():
    g = cycle_graph(5)
    _, td = exact_treewidth(g)
    p = Partition(g, [{v} for v in g.vertices])
    pushed = push_decomposition(td, p)
    assert pushed.bags == td.bags
    assert validate_decomposition(p.quotient, pushed).ok


def test_push_p5_augmented():
    g = path_graph(5)
    td = p5_bags_td()
    h, _ = augment(g, td, 2)
    p = Partition(h, [{1, 2, 3}, {4, 5}])
    pushed = push_decomposition(td, p)
    assert all(len(pushed.bag(t)) <= 2 for t in pushed.nodes)
    q = p.quotient
    assert validate_decomposition(q, pushed).ok
    for t in pushed.nodes:
        sub, _ = induced_subgraph(q, pushed.bag(t))
        assert len(maximum_independent_set(sub)) <= 1


def test_push_whole_part():
    g = cycle_graph(6)
    td = single_bag_td(g)
    p = Partition(g, [set(g.vertices)])
    pushed = push_decomposition(td, p)
    assert pushed.bag(1) == frozenset({1})


def test_push_validity_and_independence_random():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        _, td = exact_treewidth(g)
        p = connected_partition(rng, g)
        pushed = push_decomposition(td, p)
        q = p.quotient
        assert validate_decomposition(q, pushed).ok
        before = bag_metrics(g, td).independence_number
        after = bag_metrics(q, pushed).independence_number
        assert after <= before


# ----------------------------------------------------------------- augment


def test_augment_d1_keeps_graph():
    g = path_graph(5)
    h, phi = augment(g, p5_bags_td(), 1)
    assert h is g
    assert phi.measured_q == 1


def test_pipeline_d1_row_builds(monkeypatch):
    import coarsetd.graph
    from coarsetd.generators import gen_ktree

    original = coarsetd.graph.single_source_distances
    rows = []

    def building(graph, *sources):
        rows.append((graph, sources))
        return original(graph, *sources)

    _patch_everywhere(monkeypatch, original, building)
    for n, layout in ((200, "random"), (60, "path")):
        inst = gen_ktree(2, n, random.Random(5), layout)
        g, td = inst.graph, inst.decomposition
        rows.clear()
        report = run_pipeline(g, td, 2, 1)
        quotient = report.components[0].stage2.map.target
        assert report.components[0].stage1.target is g
        if layout == "random":
            # g (shared with h) and its quotient fit every radius: both
            # read level masks, and no row is built
            assert g.fits(inf) and quotient.fits(inf)
            assert rows == []
        else:
            # g is too deep for masks at every radius, but the layered
            # map's floor, read off g's masks, meets the certificate: the
            # constant is settled and no row is built
            assert not g.fits(inf)
            assert report.components[0].stage2.map.measured_q == 1
            assert rows == []


D1_PARAMS = {
    "path": {"n": 7},
    "cycle": {"n": 9},
    "random-tree": {"n": 12},
    "k-tree": {"k": 2, "n": 14},
    "subdivided-k-tree": {"k": 1, "n": 6, "s": 2},
    "grid-slice": {"rows": 3, "cols": 4},
    "random-branch-decomposition": {"n": 9, "p": 0.3},
}


@pytest.mark.parametrize("family", sorted(D1_PARAMS))
def test_d1_composite_is_stage2_map(family):
    inst = generate_corpus(family, D1_PARAMS[family], seed=3)
    g = inst.graph
    td = inst.decomposition or exact_treewidth(g)[1]
    k = bag_metrics(g, td).independence_number
    (run,) = run_pipeline(g, td, k, 1, check_centred=False).components
    phi1 = run.stage1
    assert run.stage1.target is g
    assert phi1.measured_q == qi_constant(g, g, identity_map(g, g), 1)
    assert run.composed is run.stage2.map
    assert run.composed.measured_q == compose(phi1, run.stage2.map).measured_q


def test_connected_d1_run_measures_and_validates_each_map_once(monkeypatch):
    import coarsetd.quasiiso
    from coarsetd.generators import gen_ktree

    inst = gen_ktree(2, 40, random.Random(5))
    measured, validated = [], []
    qi = coarsetd.quasiiso.qi_constant
    post_init = QuasiIsometryMap.__post_init__

    def counting_qi(*args):
        measured.append(args)
        return qi(*args)

    def counting_post_init(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(coarsetd.quasiiso, "qi_constant", counting_qi)
    monkeypatch.setattr(QuasiIsometryMap, "__post_init__", counting_post_init)
    run_pipeline(inst.graph, inst.decomposition, 2, 1)
    # the contraction map alone; then the identity, the contraction and
    # the final map are each validated once
    assert len(measured) == 1
    assert len(validated) == 3


def test_connected_run_is_its_own_component():
    g = cycle_graph(6)
    report = run_pipeline(g, single_bag_td(g), 2, 2)
    (run,) = report.components
    assert run.stage1.source is g
    assert run.vertices == tuple(g.vertices)
    assert report.final_map.measured_q == run.composed.measured_q


def test_augment_p5():
    g = path_graph(5)
    h, phi = augment(g, p5_bags_td(), 2)
    assert h.edges - g.edges == {(1, 3), (3, 5)}
    assert phi.measured_q == 2
    metrics = bag_metrics(h, p5_bags_td())
    assert metrics.independence_number == 1


def test_augment_c6_single_bag():
    g = cycle_graph(6)
    h, phi = augment(g, single_bag_td(g), 3)
    assert h == complete_graph(6)
    assert phi.measured_q <= 3
    assert bag_metrics(h, single_bag_td(g)).independence_number == 1


def test_augment_distance_sandwich():
    rng = random.Random(43)
    for _ in range(25):
        from coarsetd.generators import random_connected_graph

        g = random_connected_graph(rng.randint(2, 12), 0.3, rng)
        d = rng.randint(1, 3)
        _, td = exact_treewidth(g)
        h, _ = augment(g, td, d)
        assert h.edges >= g.edges and h.n == g.n
        dg, dh = distance_rows(g), distance_rows(h)
        for u in g.vertices:
            for v in g.vertices:
                assert dh[u][v] <= dg[u][v] <= d * dh[u][v]


# ------------------------------------------------------- bipartite partition


def test_bipartite_partition_bipartite_graph_gives_singletons():
    g = cycle_graph(6)
    result = bipartite_partition(g)
    assert result.max_diameter == 0
    assert all(len(p) == 1 for p in result.partition.parts)


def test_bipartite_partition_c6_layering():
    g = cycle_graph(6)
    result = bipartite_partition(g)
    assert result.partition.parts == tuple(
        frozenset({v}) for v in range(1, 7)
    )
    bip, _ = is_bipartite(result.partition.quotient)
    assert bip


def test_bipartite_partition_c5():
    g = cycle_graph(5)
    result = bipartite_partition(g)
    assert result.max_diameter == 1
    bip, _ = is_bipartite(result.partition.quotient)
    assert bip
    part, diam = minimum_diameter_bipartite_partition(g)
    assert diam == 1
    assert part.parts == (
        frozenset({1, 2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({5}),
    )


def test_bipartite_partition_budget():
    g = cycle_graph(5)
    ok = bipartite_partition(g, budget=1)
    assert ok.max_diameter == 1
    with pytest.raises(BudgetExceededError):
        bipartite_partition(g, budget=0)


def test_bipartite_partition_disconnected():
    g = Graph(4, [(1, 2), (3, 4)])
    with pytest.raises(DisconnectedError):
        bipartite_partition(g)


def test_exact_partition_matches_layering_quality_or_better():
    rng = random.Random(47)
    from coarsetd.generators import random_connected_graph

    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 8), 0.35, rng)
        layered = bipartite_partition(g)
        _, best = minimum_diameter_bipartite_partition(g)
        assert best <= layered.max_diameter


# ----------------------------------------------------------------- ind_to_tw


def test_ind_to_tw_clique_bags():
    g = path_graph(5)
    h, _ = augment(g, p5_bags_td(), 2)
    result = ind_to_tw(h, p5_bags_td())
    assert result.decomposition.width <= 1
    assert validate_decomposition(result.map.target, result.decomposition).ok


def test_ind_to_tw_k6_single_bag():
    g = complete_graph(6)
    result = ind_to_tw(g, single_bag_td(g))
    assert all(len(result.decomposition.bag(t)) <= 2 for t in result.decomposition.nodes)


def test_ind_to_tw_precondition():
    """The bag independence gate runs in run_pipeline when the centred
    check is waived; ind_to_tw checks nothing, and an old positional k
    fails loudly rather than becoming a budget."""
    g = cycle_graph(6)
    with pytest.raises(
        PreconditionError, match="^bag independence number 3 exceeds 1$"
    ):
        run_pipeline(g, single_bag_td(g), 1, 1, check_centred=False)
    with pytest.raises(TypeError):
        ind_to_tw(g, single_bag_td(g), 1)


# ---------------------------------------------------------------- pipeline


def test_pipeline_path():
    from coarsetd.generators import gen_path

    inst = gen_path(7)
    report = run_pipeline(inst.graph, inst.decomposition, 1, 1)
    assert report.width_out <= 1
    assert report.ok
    assert validate_decomposition(report.final_graph, report.final_decomposition).ok
    assert report.final_decomposition.shape == "path"


def test_pipeline_c6_single_bag():
    g = cycle_graph(6)
    report = run_pipeline(g, single_bag_td(g), 2, 2)
    assert report.width_out <= 3
    assert report.ok
    assert report.composed_constant <= report.claimed_bound


def test_pipeline_rejects_uncentred():
    g = cycle_graph(6)
    with pytest.raises(PreconditionError):
        run_pipeline(g, single_bag_td(g), 1, 2)


def test_pipeline_shape_path_preserved():
    from coarsetd.generators import gen_grid_slice

    inst = gen_grid_slice(2, 5)
    g, td = inst.graph, inst.decomposition
    centred = centred_check_decomposition(g, td, 2, 2)
    assert centred.all_centred is True
    report = run_pipeline(g, td, 2, 2)
    assert report.final_decomposition.shape == "path"
    assert all(
        report.final_decomposition.tree.degree(t) <= 2
        for t in report.final_decomposition.nodes
    )
    assert report.width_out <= 3


def test_pipeline_quasiquasi_ledger():
    g = cycle_graph(6)
    report = run_pipeline(g, single_bag_td(g), 2, 2)
    run = report.components[0]
    assert run.stage1.measured_q <= 2
    assert run.composed.measured_q <= run.stage2.map.measured_q * (
        run.stage1.measured_q + 2
    )
    assert run.claimed_bound == (2 + 2) * run.stage2.map.measured_q


def test_pipeline_disconnected_runs_per_component():
    g = Graph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 6)])
    tree = Graph(4, [(1, 2), (2, 3), (3, 4)])
    td = TreeDecomposition(
        tree, {1: {1, 2}, 2: {2, 3}, 3: {4, 5, 6}, 4: {6, 7}}
    )
    assert validate_decomposition(g, td).ok
    report = run_pipeline(g, td, 2, 2)
    assert len(report.components) == 2
    assert validate_decomposition(report.final_graph, report.final_decomposition).ok
    assert report.width_out <= 3
    assert report.final_map.measured_q is None
    for run in report.components:
        assert run.composed.measured_q <= run.claimed_bound
    # the joined map sends every original vertex somewhere in the final graph
    assert set(report.final_map.mapping) == set(g.vertices)


def test_pipeline_end_to_end_constant_verified():
    g = cycle_graph(6)
    report = run_pipeline(g, single_bag_td(g), 2, 3)
    measured = qi_constant(g, report.final_graph, report.final_map, 64)
    assert measured == report.final_map.measured_q
    assert measured <= report.claimed_bound


def test_pipeline_disconnected_path_shape():
    # two path components; the joined decomposition must stay a path
    g = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    tree = Graph(4, [(1, 2), (2, 3), (3, 4)])
    td = TreeDecomposition(
        tree, {1: {1, 2}, 2: {2, 3}, 3: {4, 5}, 4: {5, 6}}, shape="path"
    )
    report = run_pipeline(g, td, 1, 1)
    final = report.final_decomposition
    assert final.shape == "path"
    assert all(final.tree.degree(t) <= 2 for t in final.nodes)
    assert validate_decomposition(report.final_graph, final).ok
    assert report.width_out <= 1


def test_pipeline_single_vertex_component():
    g = Graph(4, [(1, 2), (2, 3)])  # vertex 4 isolated
    tree = Graph(3, [(1, 2), (2, 3)])
    td = TreeDecomposition(tree, {1: {1, 2}, 2: {2, 3}, 3: {4}})
    report = run_pipeline(g, td, 1, 1)
    assert len(report.components) == 2
    assert validate_decomposition(report.final_graph, report.final_decomposition).ok


# ------------------------------------------------- validation at the boundary


def disconnected_instance():
    g = Graph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 6)])
    tree = Graph(4, [(1, 2), (2, 3), (3, 4)])
    td = TreeDecomposition(
        tree, {1: {1, 2}, 2: {2, 3}, 3: {4, 5, 6}, 4: {6, 7}}
    )
    return g, td


def test_pipeline_rejects_invalid_decomposition():
    g = path_graph(4)
    uncovered = TreeDecomposition(Graph(2, [(1, 2)]), {1: {1, 2}, 2: {3, 4}})
    with pytest.raises(InvalidDecompositionError, match="edge_uncovered"):
        run_pipeline(g, uncovered, 2, 1)
    g, td = disconnected_instance()
    broken = TreeDecomposition(td.tree, {**td.bags, 4: {7}})  # edge (6,7) lost
    with pytest.raises(InvalidDecompositionError, match="edge_uncovered"):
        run_pipeline(g, broken, 2, 2)


@pytest.mark.parametrize("connected", [True, False])
def test_pipeline_validates_exactly_once(monkeypatch, connected):
    import sys

    import coarsetd.decomposition

    original = coarsetd.decomposition.validate_decomposition
    calls = []

    def counting(g, td):
        calls.append(g)
        return original(g, td)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coarsetd" and getattr(
            module, "validate_decomposition", None
        ) is original:
            monkeypatch.setattr(module, "validate_decomposition", counting)
    if connected:
        g = cycle_graph(6)
        td = single_bag_td(g)
    else:
        g, td = disconnected_instance()
    report = run_pipeline(g, td, 2, 2)
    assert len(report.components) == (1 if connected else 2)
    assert calls == [g]


@pytest.mark.parametrize("connected", [True, False])
def test_one_quotient_per_component(connected):
    if connected:
        g = cycle_graph(6)
        td = single_bag_td(g)
    else:
        g, td = disconnected_instance()
    report = run_pipeline(g, td, 2, 2)
    assert len(report.components) == (1 if connected else 2)
    for run in report.components:
        assert run.stage2.partition.quotient is run.stage2.map.target


# ------------------------------------------- disconnected runs, byte for byte


def disconnected_case(seed):
    """A seeded input of 2-4 components (plus an isolated vertex on every
    fifth seed) with shuffled, interleaved vertex ids and shuffled node ids,
    on one tree or one path; k is sometimes one short of the bag
    independence number, and d=0 often fails the centred check, so some
    cases raise."""
    from coarsetd.generators import gen_cycle, gen_ktree, gen_path, gen_random_tree

    rng = random.Random(seed)
    shape = rng.choice(["tree", "path"])
    makers = [
        lambda: gen_path(1),
        lambda: gen_path(rng.randint(2, 9)),
        lambda: gen_cycle(rng.randint(3, 9)),
        lambda: gen_ktree(2, rng.randint(3, 12), rng, layout="path"),
    ]
    if shape == "tree":
        makers += [
            lambda: gen_random_tree(rng.randint(2, 12), rng),
            lambda: gen_ktree(rng.randint(1, 3), rng.randint(4, 12), rng),
        ]
    pieces = [rng.choice(makers)() for _ in range(rng.randint(2, 4))]
    if seed % 5 == 0:
        pieces.append(gen_path(1))  # an isolated vertex
    n = sum(p.graph.n for p in pieces)
    ids = rng.sample(range(1, n + 1), n)
    total_nodes = sum(p.decomposition.tree.n for p in pieces)
    node_ids = rng.sample(range(1, total_nodes + 1), total_nodes)
    edges, bags, tree_edges = [], {}, []
    voff = toff = 0
    free_end = None
    for p in pieces:
        vid = lambda v, voff=voff: ids[voff + v - 1]
        nid = lambda t, toff=toff: node_ids[toff + t - 1]
        ptd = p.decomposition
        edges += [(vid(u), vid(v)) for u, v in p.graph.edges]
        tree_edges += [(nid(s), nid(t)) for s, t in ptd.tree.edges]
        ends = [t for t in ptd.nodes if ptd.tree.degree(t) <= 1]
        if free_end is not None:
            if shape == "path":
                tree_edges.append((free_end, nid(ends[0])))
            else:
                joined = rng.choice(sorted(bags))
                tree_edges.append((joined, nid(rng.choice(list(ptd.nodes)))))
        free_end = nid(ends[-1])
        for t in ptd.nodes:
            bags[nid(t)] = {vid(v) for v in ptd.bag(t)}
        voff += p.graph.n
        toff += ptd.tree.n
    g = Graph(n, edges)
    if shape == "tree" and rng.random() < 0.5:
        # a leaf node with an empty bag
        total_nodes += 1
        tree_edges.append((rng.randint(1, total_nodes - 1), total_nodes))
        bags[total_nodes] = set()
    td = TreeDecomposition(Graph(total_nodes, tree_edges), bags, shape=shape)
    alpha = bag_metrics(g, td).independence_number
    k = max(1, alpha - (rng.random() < 0.2))
    return g, td, k, rng.randint(0, 3), rng.random() < 0.5


def pipeline_record(g, td, k, d, check_centred):
    from coarsetd.fileio import emit_graph, emit_map, emit_td

    try:
        report = run_pipeline(g, td, k, d, check_centred=check_centred)
    except CoarseTDError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    final_td = report.final_decomposition
    assert validate_decomposition(report.final_graph, final_td).ok
    return {
        "report": report.to_dict(),
        "checks": report.checks,
        "graph": emit_graph(report.final_graph),
        "td": emit_td(final_td, report.final_graph.n),
        "shape": final_td.shape,
        "map": emit_map(report.final_map.mapping),
        "measured_q": report.final_map.measured_q,
        "components": [
            [
                list(run.vertices),
                run.stage1.measured_q,
                run.stage2.map.measured_q,
                run.composed.measured_q,
                run.claimed_bound,
                run.stage2.partition_diameter,
            ]
            for run in report.components
        ],
    }


def test_disconnected_runs_are_pinned_byte_for_byte():
    import hashlib
    import json

    records = []
    for seed in range(60):
        g, td, k, d, check_centred = disconnected_case(seed)
        assert not g.is_connected()
        record = pipeline_record(g, td, k, d, check_centred)
        records.append([seed, td.shape, d, check_centred, record])
    kinds = {(r[1], "error" in r[4]) for r in records}
    assert kinds == {("tree", False), ("tree", True), ("path", False), ("path", True)}
    assert {r[2] for r in records} == {0, 1, 2, 3}
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "9dad49640aec9a297d4ef7d78b77d9fb55b14a9af9c68f8a6aa3ce3a0373764a"
    )


def test_connected_run_sweeps_the_whole_graph_once(monkeypatch):
    import coarsetd.graph
    from coarsetd.generators import gen_ktree

    inst = gen_ktree(2, 200, random.Random(5))
    g, td = inst.graph, inst.decomposition
    report, calls = _run_counting(monkeypatch, coarsetd.graph.bfs, g, td)
    swept = [adj for adj, _, *within in calls if not within]
    final_tree = report.final_decomposition.tree
    # the split sweeps g, and the layering reads that sweep's depths; the
    # new final tree is swept once to check that it is a tree; td.tree's
    # components were cached when td was built, and every stage reads g's
    # cached components
    assert sum(adj is g.adjacency for adj in swept) == 1
    assert sum(adj is td.tree.adjacency for adj in swept) == 0
    assert sum(adj is final_tree.adjacency for adj in swept) == 1


def _patch_everywhere(monkeypatch, original, replacement):
    """Bind `replacement` in place of `original` in every coarsetd module."""
    import sys

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coarsetd":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _run_counting(monkeypatch, original, g, td):
    """One d=1 run on (g, td), recording the arguments of every call to
    `original` through any coarsetd module that binds it."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(args + tuple(kwargs.values()))
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, counting)
    return run_pipeline(g, td, 2, 1), seen


def _seed0_run_counting(monkeypatch, original):
    """_run_counting on the seed-0 200-vertex 2-tree."""
    from coarsetd.generators import gen_ktree

    inst = gen_ktree(2, 200, random.Random(0))
    return _run_counting(monkeypatch, original, inst.graph, inst.decomposition)


def test_each_part_diameter_measured_once(monkeypatch):
    import coarsetd.graph

    report, calls = _seed0_run_counting(monkeypatch, coarsetd.graph._climb)
    parts = report.components[0].stage2.partition.parts
    # bipartite_partition's maximum and quotient_map's budget both read the
    # partition's one diameter, from one climb over all its parts; no other
    # set's diameter is read
    assert len(parts) == 75
    assert [args[1] for args in calls] == [parts]


def test_certificates_are_not_remeasured(monkeypatch):
    """The sim-width route measures the weak diameter of the partition
    parts only, in one climb: its dominating-partition certificates are
    bounded by construction."""
    import coarsetd.graph
    from coarsetd import simwidth_pipeline

    calls = []
    kernel = coarsetd.graph._climb

    def counting(g, sets, *cap):
        calls.append(sets)
        return kernel(g, sets, *cap)

    _patch_everywhere(monkeypatch, kernel, counting)
    inst = generate_corpus(
        "random-branch-decomposition", {"n": 20, "p": 0.2}, seed=3
    )
    report = simwidth_pipeline(inst.graph, inst.branch_decomposition, cap=64)
    parts = report.pipeline.components[0].stage2.partition.parts
    assert len(report.pipeline.components) == 1 and len(parts) == 2
    assert calls == [parts]


def test_checked_run_solves_no_bag_independence(monkeypatch):
    """A passed centred check leaves every augmented bag k cliques, so the
    independence gate runs only when the check is waived, and then solves
    just the bags of more than k vertices."""
    import coarsetd.pipeline
    from coarsetd.generators import gen_ktree

    inst = gen_ktree(2, 200, random.Random(0))
    g, td = inst.graph, inst.decomposition
    sizes = []
    solve = coarsetd.pipeline._independent

    def counting(closed, start, beat):
        sizes.append(start.bit_count())
        return solve(closed, start, beat)

    monkeypatch.setattr(coarsetd.pipeline, "_independent", counting)
    checked = run_pipeline(g, td, 2, 1)
    assert sizes == []
    waived = run_pipeline(g, td, 2, 1, check_centred=False)
    assert len(sizes) == 198
    assert sizes == [len(td.bag(t)) for t in td.nodes if len(td.bag(t)) > 2]
    assert checked.to_dict() == waived.to_dict()


def test_connected_run_sweeps_the_quotient_once(monkeypatch):
    import coarsetd.graph

    report, sweeps = _seed0_run_counting(monkeypatch, coarsetd.graph.bfs)
    quotient = report.components[0].stage2.map.target
    # is_bipartite's sweep caches the components, so qi_constant's
    # connectivity check reads them, and the coverage radius comes from
    # the quotient's level masks
    assert sum(
        adj is quotient.adjacency and len(rest) < 2 for adj, *rest in sweeps
    ) == 1
    assert quotient.fits(inf)
