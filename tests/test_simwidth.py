import random

import pytest

import coarsetd.simwidth
from coarsetd import (
    BranchDecomposition,
    EmptySetError,
    Graph,
    MalformedDecompositionError,
    TooLargeError,
    branch_width_sim,
    dominating_partition,
    induced_subgraph,
    minimum_dominating_set,
    sim_to_td,
    simval,
    simwidth_pipeline,
    validate_decomposition,
    weak_diameter,
)
from coarsetd.generators import random_branch_decomposition, random_connected_graph
from helpers import complete_graph, cycle_graph, edgeless_graph, path_graph, star_graph
from oracles import (
    is_induced_matching,
    plain_dominating_mask,
    plain_independent_mask,
    simval_brute,
)


def star_bd():
    return BranchDecomposition(Graph(4, [(4, 1), (4, 2), (4, 3)]), {1: 1, 2: 2, 3: 3})


def caterpillar_bd(n):
    """Spine nodes carrying one leaf each; vertices in id order."""
    if n == 1:
        return BranchDecomposition(Graph(1), {1: 1})
    if n == 2:
        return BranchDecomposition(Graph(2, [(1, 2)]), {1: 1, 2: 2})
    edges = [(1, 3)]
    leaf_map = {1: 1}
    nxt = 3
    for v in range(2, n):
        inner = nxt
        leaf = nxt + 1
        nxt += 2
        leaf_map[v] = leaf
        edges.append((inner, leaf))
        if v < n - 1:
            edges.append((inner, inner + 2))
    leaf_map[n] = 2
    edges.append((nxt - 2, 2))
    return BranchDecomposition(Graph(nxt - 1, edges), leaf_map)


def test_caterpillar_is_valid():
    for n in range(1, 8):
        bd = caterpillar_bd(n)
        assert bd.n == n


def test_bd_validation():
    with pytest.raises(MalformedDecompositionError):
        BranchDecomposition(Graph(3, [(1, 2), (2, 3)]), {1: 1, 2: 3, 3: 2})
    with pytest.raises(MalformedDecompositionError):  # degree 4
        BranchDecomposition(
            Graph(5, [(5, 1), (5, 2), (5, 3), (5, 4)]),
            {1: 1, 2: 2, 3: 3, 4: 4},
        )
    with pytest.raises(MalformedDecompositionError):  # not a bijection
        BranchDecomposition(Graph(4, [(4, 1), (4, 2), (4, 3)]), {1: 1, 2: 1, 3: 2})
    with pytest.raises(MalformedDecompositionError):  # internal degree 2 with n >= 3
        BranchDecomposition(
            Graph(5, [(1, 4), (4, 5), (5, 2), (5, 3)]), {1: 1, 2: 2, 3: 3}
        )
    # degree-2 internal nodes are fine when the graph has <= 2 vertices
    BranchDecomposition(Graph(3, [(1, 2), (2, 3)]), {1: 1, 2: 3})


def test_simval_trivial_sides():
    g = cycle_graph(6)
    assert simval(g, set()) == 0
    assert simval(g, set(g.vertices)) == 0


def test_simval_star_leaf():
    g = star_graph(3)
    assert simval(g, {2}) == 1


def test_simval_c6():
    g = cycle_graph(6)
    assert simval(g, {1, 2, 3}) == 2 == simval_brute(g, {1, 2, 3})


def test_simval_symmetry():
    rng = random.Random(53)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 9), 0.35, rng)
        a = {v for v in g.vertices if rng.random() < 0.5}
        rest = set(g.vertices) - a
        assert simval(g, a) == simval(g, rest)


def test_simval_matches_brute():
    rng = random.Random(59)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 9), 0.3, rng)
        a = {v for v in g.vertices if rng.random() < 0.5}
        cut = sum(1 for u, v in g.edges if (u in a) != (v in a))
        if cut > 12:
            continue
        checked += 1
        assert simval(g, a) == simval_brute(g, a)
    assert checked >= 20


def test_simval_cap():
    g = complete_graph(10)
    with pytest.raises(TooLargeError):
        simval(g, {1, 2, 3, 4, 5}, cap=10)


def test_branch_width_p3_star():
    assert branch_width_sim(path_graph(3), star_bd()) == 1


def test_branch_width_edgeless():
    g = edgeless_graph(4)
    assert branch_width_sim(g, caterpillar_bd(4)) == 0


def test_branch_width_k4():
    assert branch_width_sim(complete_graph(4), caterpillar_bd(4)) == 1


def test_sim_to_td_p3_star():
    td = sim_to_td(path_graph(3), star_bd())
    assert td.bag(1) == frozenset({1, 2})
    assert td.bag(2) == frozenset({1, 2, 3})
    assert td.bag(3) == frozenset({2, 3})
    assert td.bag(4) == frozenset({1, 2, 3})
    assert validate_decomposition(path_graph(3), td).ok
    for t in td.nodes:
        sub, _ = induced_subgraph(path_graph(3), td.bag(t))
        assert len(minimum_dominating_set(sub)) <= 1


def test_sim_to_td_k2():
    g = Graph(2, [(1, 2)])
    td = sim_to_td(g, caterpillar_bd(2))
    assert td.bag(1) == td.bag(2) == frozenset({1, 2})
    assert validate_decomposition(g, td).ok


def test_sim_to_td_c6_caterpillar():
    g = cycle_graph(6)
    bd = caterpillar_bd(6)
    k = branch_width_sim(g, bd)
    td = sim_to_td(g, bd)
    assert validate_decomposition(g, td).ok
    for t in td.nodes:
        bag = td.bag(t)
        if not bag:
            continue
        sub, _ = induced_subgraph(g, bag)
        assert len(minimum_dominating_set(sub)) <= 6 * k


def test_sim_to_td_isolated_vertices():
    g = Graph(3, [(1, 2)])
    td = sim_to_td(g, star_bd())
    assert 3 in td.bag(3)
    assert validate_decomposition(g, td).ok


def test_sim_to_td_traces_end_at_own_leaf():
    rng = random.Random(61)
    for _ in range(15):
        g = random_connected_graph(rng.randint(2, 10), 0.3, rng)
        bd = random_branch_decomposition(g, rng)
        td = sim_to_td(g, bd)
        assert validate_decomposition(g, td).ok
        for v in g.vertices:
            trace = {t for t in td.nodes if v in td.bag(t)}
            assert bd.leaf_map[v] in trace


def test_direction_classes_partition_and_matching_bound():
    # the classes split the bag by tree direction, and any induced matching
    # from one class into the other two crosses a tree-edge cut, so its
    # size is capped by the branch width
    rng = random.Random(67)
    for _ in range(10):
        g = random_connected_graph(rng.randint(3, 9), 0.4, rng)
        bd = random_branch_decomposition(g, rng)
        k = branch_width_sim(g, bd)
        td = sim_to_td(g, bd)
        for t in td.nodes:
            if bd.tree.degree(t) != 3:
                continue
            classes = [
                td.bag(t) & bd.side((s, t)) for s in sorted(bd.tree.adjacency[t])
            ]
            assert frozenset().union(*classes) == td.bag(t)
            for i, cls in enumerate(classes):
                others = frozenset().union(
                    *(c for j, c in enumerate(classes) if j != i)
                )
                cut = [
                    (u, v) if u in cls else (v, u)
                    for u, v in sorted(g.edges)
                    if (u in cls and v in others) or (v in cls and u in others)
                ]
                best = 0
                for mask in range(1 << len(cut)):
                    chosen = [cut[x] for x in range(len(cut)) if mask >> x & 1]
                    if len(chosen) > best and is_induced_matching(g, chosen):
                        best = len(chosen)
                assert best <= k


def test_sides_of_every_edge_partition_the_vertices():
    rng = random.Random(73)
    for _ in range(20):
        g = random_connected_graph(rng.randint(1, 14), 0.3, rng)
        bd = random_branch_decomposition(g, rng)
        for a, b in bd.tree.edges:
            left, right = bd.side((a, b)), bd.side((b, a))
            assert not left & right
            assert left | right == frozenset(g.vertices)
            if bd.tree.degree(a) == 1:
                assert left == {v for v in g.vertices if bd.leaf_map[v] == a}


def test_leaf_bags_dominated_by_their_vertex():
    rng = random.Random(73)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 10), 0.35, rng)
        bd = random_branch_decomposition(g, rng)
        td = sim_to_td(g, bd)
        for v in g.vertices:
            bag = td.bag(bd.leaf_map[v])
            sub, _ = induced_subgraph(g, bag)
            assert len(minimum_dominating_set(sub)) <= 1


def hedgehog(m):
    """x_i matched to y_i with the y side a clique, plus one stray vertex.

    Branch width 1 (any two cut pairs are blocked by a y-y edge), yet the
    central bag of the path construction needs one dominator per pair:
    domination number m. A standing counterexample to the 6k bag bound and
    the per-class 2k bound.
    """
    edges = [(i, m + i) for i in range(1, m + 1)]
    edges += [
        (m + i, m + j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    ]
    g = Graph(2 * m + 1, edges)

    tree_edges = []
    counter = [2]

    def spine(count):
        if count == 1:
            leaf = counter[0]
            counter[0] += 1
            return leaf, [leaf]
        root = counter[0]
        counter[0] += 1
        leaves = []
        cur = root
        remaining = count
        while remaining > 2:
            leaf, inner = counter[0], counter[0] + 1
            counter[0] += 2
            tree_edges.append((cur, leaf))
            tree_edges.append((cur, inner))
            leaves.append(leaf)
            cur = inner
            remaining -= 1
        l1, l2 = counter[0], counter[0] + 1
        counter[0] += 2
        tree_edges.extend([(cur, l1), (cur, l2)])
        leaves.extend([l1, l2])
        return root, leaves

    rx, xleaves = spine(m)
    ry, yleaves = spine(m)
    zleaf = counter[0]
    counter[0] += 1
    tree_edges += [(1, rx), (1, ry), (1, zleaf)]
    leaf_map = {i: xleaves[i - 1] for i in range(1, m + 1)}
    leaf_map.update({m + i: yleaves[i - 1] for i in range(1, m + 1)})
    leaf_map[2 * m + 1] = zleaf
    return g, BranchDecomposition(Graph(counter[0] - 1, tree_edges), leaf_map)


def test_hedgehog_breaks_6k_bag_bound():
    # documented counterexample: the path construction can exceed the 6k
    # domination bound, so that bound is checked per run, never assumed
    g, bd = hedgehog(7)
    k = branch_width_sim(g, bd, cap=64)
    assert k == 1
    td = sim_to_td(g, bd)
    assert validate_decomposition(g, td).ok
    central = td.bag(1)
    sub, _ = induced_subgraph(g, central)
    assert len(minimum_dominating_set(sub, cap=32)) == 7 > 6 * k
    classes = [td.bag(1) & bd.side((s, 1)) for s in sorted(bd.tree.adjacency[1])]
    xs = frozenset(range(1, 8))
    assert xs in classes
    sub_x, _ = induced_subgraph(g, xs)
    assert len(minimum_dominating_set(sub_x)) == 7 > 2 * k
    # the pipeline still runs: the bag has weak diameter 3, so it is
    # (6k,3)-centred regardless, but the report flags the failed bound
    report = simwidth_pipeline(g, bd, cap=32, simval_cap=64)
    assert report.bag_domination_max == 7
    assert report.checks["bag_domination_le_6k"] is False
    assert report.checks["width_le_12k_minus_1"] is True
    assert not report.ok


def test_dominating_partition_star():
    g = star_graph(3)
    parts = dominating_partition(g, g.vertices)
    assert parts == (frozenset({1, 2, 3, 4}),)
    assert weak_diameter(g, parts[0]) == 2


def test_dominating_partition_c6():
    g = cycle_graph(6)
    parts = dominating_partition(g, g.vertices)
    assert parts == (frozenset({1, 2, 6}), frozenset({3, 4, 5}))
    for part in parts:
        assert weak_diameter(g, part) <= 2


def test_dominating_partition_clique():
    g = complete_graph(4)
    parts = dominating_partition(g, g.vertices)
    assert len(parts) == 1
    assert weak_diameter(g, parts[0]) == 1


def test_dominating_partition_subset_uses_induced_graph():
    g = cycle_graph(6)
    parts = dominating_partition(g, {1, 2, 3})
    assert len(parts) == len(minimum_dominating_set(induced_subgraph(g, {1, 2, 3})[0]))
    for part in parts:
        assert weak_diameter(g, part) <= 2


def test_dominating_partition_empty():
    with pytest.raises(EmptySetError):
        dominating_partition(cycle_graph(4), set())


def test_simwidth_pipeline_p3():
    report = simwidth_pipeline(path_graph(3), star_bd())
    assert report.branch_width == 1
    assert report.width_out <= 11
    assert report.ok


def test_simwidth_pipeline_tree():
    g = star_graph(4)
    rng = random.Random(71)
    bd = random_branch_decomposition(g, rng)
    report = simwidth_pipeline(g, bd)
    assert report.width_out <= 12 * report.branch_width - 1
    assert report.ok


def test_simwidth_pipeline_c6():
    g = cycle_graph(6)
    report = simwidth_pipeline(g, caterpillar_bd(6))
    k = report.branch_width
    assert report.bag_domination_max <= 6 * k
    assert report.width_out <= 12 * k - 1
    assert report.ok
    assert report.pipeline.final_map.measured_q is not None


def test_path_power_on_its_vertex_order_caterpillar(monkeypatch):
    """P_150^9 (u and v adjacent when 0 < |u - v| <= 9) on the caterpillar
    in vertex order: the first ends of any two edges across a cut lie
    within 9 of each other, so they are adjacent and the branch width is 1.
    The bounded kernels give the branch width and the certificates of the
    plain search."""
    n, reach = 150, 9
    g = Graph(n, [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, min(u + reach, n) + 1)
    ])
    bd = caterpillar_bd(n)
    report = simwidth_pipeline(g, bd, cap=64, simval_cap=64)
    assert report.branch_width == 1 and report.width_out == 1
    assert report.checks and all(report.checks.values())

    def plain_independent(adj, beat):
        found = plain_independent_mask(adj)
        return found if found.bit_count() > beat else 0

    monkeypatch.setattr(coarsetd.simwidth, "dominating_mask", plain_dominating_mask)
    monkeypatch.setattr(coarsetd.simwidth, "_independent", plain_independent)
    plain = simwidth_pipeline(g, bd, cap=64, simval_cap=64)
    assert plain.branch_width == 1
    assert report.certificates == plain.certificates


def test_simwidth_pipeline_edgeless_clamps():
    g = edgeless_graph(3)
    report = simwidth_pipeline(g, star_bd())
    assert report.branch_width == 0
    assert report.centred_k == 1
    assert report.ok


def test_simwidth_pipeline_disconnected():
    g = Graph(4, [(1, 2), (3, 4)])
    bd = caterpillar_bd(4)
    report = simwidth_pipeline(g, bd)
    assert len(report.pipeline.components) == 2
    assert validate_decomposition(
        report.pipeline.final_graph, report.pipeline.final_decomposition
    ).ok
    assert report.width_out <= 12 * report.branch_width - 1


def test_size_mismatch_is_one_error():
    """Each entry point checks once that the decomposition covers the graph;
    an empty graph fails that check, as every branch tree has a leaf."""
    for g, bd, n in [(path_graph(4), star_bd(), 3), (Graph(0), caterpillar_bd(1), 1)]:
        for call in (
            lambda: branch_width_sim(g, bd),
            lambda: sim_to_td(g, bd),
            lambda: simwidth_pipeline(g, bd),
        ):
            with pytest.raises(MalformedDecompositionError) as err:
                call()
            assert str(err.value) == (
                f"branch decomposition covers {n} vertices, graph has {g.n}"
            )
