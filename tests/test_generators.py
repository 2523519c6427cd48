import random
import time

import pytest

from coarsetd import (
    Graph,
    InvalidParamsError,
    bag_metrics,
    centred_check_decomposition,
    exact_treewidth,
    generate_corpus,
    qi_constant,
    validate_decomposition,
)
from coarsetd.fileio import emit_bd, emit_graph, emit_td
from coarsetd.generators import (
    FAMILIES,
    coarsen_decomposition,
    gen_ktree,
    gen_random_tree,
    random_branch_decomposition,
)
from helpers import cycle_graph, path_graph
from oracles import relabelling_coarsen, resorting_branch_decomposition, scan_random_tree


def test_cycle6():
    inst = generate_corpus("cycle", {"n": 6})
    assert inst.graph == cycle_graph(6)
    assert validate_decomposition(inst.graph, inst.decomposition).ok
    assert inst.decomposition.shape == "path"


def test_path_and_grid_are_paths():
    for family, params in (
        ("path", {"n": 5}),
        ("grid-slice", {"rows": 2, "cols": 4}),
    ):
        inst = generate_corpus(family, params)
        assert validate_decomposition(inst.graph, inst.decomposition).ok
        assert inst.decomposition.shape == "path"


def test_random_tree_width_one():
    inst = generate_corpus("random-tree", {"n": 9}, seed=4)
    assert inst.graph.m == 8
    assert inst.graph.is_connected()
    assert validate_decomposition(inst.graph, inst.decomposition).ok
    assert inst.decomposition.width == 1


def test_ktree_exact_treewidth():
    inst = generate_corpus("k-tree", {"k": 2, "n": 10}, seed=7)
    assert validate_decomposition(inst.graph, inst.decomposition).ok
    assert inst.decomposition.width == 2
    tw, _ = exact_treewidth(inst.graph)
    assert tw == 2


def test_ktree_path_layout():
    inst = generate_corpus("k-tree", {"k": 2, "n": 9, "layout": "path"}, seed=1)
    assert inst.decomposition.shape == "path"
    assert validate_decomposition(inst.graph, inst.decomposition).ok
    tw, _ = exact_treewidth(inst.graph)
    assert tw == 2


def test_subdivided_ktree_map_constant():
    inst = generate_corpus("subdivided-k-tree", {"k": 2, "n": 8, "s": 2}, seed=3)
    assert validate_decomposition(inst.base_graph, inst.base_decomposition).ok
    q = qi_constant(inst.graph, inst.base_graph, inst.qi_map, 5)
    assert q <= 3


def test_subdivided_ktree_s1():
    inst = generate_corpus("subdivided-k-tree", {"k": 1, "n": 6, "s": 1}, seed=9)
    q = qi_constant(inst.graph, inst.base_graph, inst.qi_map, 5)
    assert q <= 2


def test_random_branch_instance():
    inst = generate_corpus("random-branch-decomposition", {"n": 9, "p": 0.3}, seed=11)
    assert inst.graph.is_connected()
    assert inst.branch_decomposition.n == inst.graph.n


def test_seed_determinism_bytes():
    for family, params in (
        ("k-tree", {"k": 2, "n": 12}),
        ("random-tree", {"n": 10}),
        ("subdivided-k-tree", {"k": 1, "n": 7, "s": 2}),
        ("random-branch-decomposition", {"n": 8, "p": 0.25}),
    ):
        a = generate_corpus(family, params, seed=42)
        b = generate_corpus(family, params, seed=42)
        assert emit_graph(a.graph) == emit_graph(b.graph)
        if a.decomposition:
            assert emit_td(a.decomposition, a.graph.n) == emit_td(
                b.decomposition, b.graph.n
            )
        if a.branch_decomposition:
            assert emit_bd(a.branch_decomposition) == emit_bd(
                b.branch_decomposition
            )
    a = generate_corpus("random-tree", {"n": 12}, seed=42)
    c = generate_corpus("random-tree", {"n": 12}, seed=43)
    assert emit_graph(a.graph) != emit_graph(c.graph)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 300])
def test_generators_emit_the_bytes_of_their_quadratic_references(n):
    """The heap of leaves and the edge list kept sorted by insertion draw
    the same numbers and emit the same files as the scans they replace."""
    for seed in range(4):
        tree = gen_random_tree(n, random.Random(seed))
        g, td = scan_random_tree(n, random.Random(seed))
        assert emit_graph(tree.graph) == emit_graph(g)
        assert emit_td(tree.decomposition, n) == emit_td(td, n)
        for host in (tree.graph, path_graph(n)):
            rng, ref = random.Random(seed), random.Random(seed)
            got = random_branch_decomposition(host, rng)
            assert emit_bd(got) == emit_bd(resorting_branch_decomposition(host, ref))
            assert rng.random() == ref.random()


def test_generators_are_fast_at_scale():
    start = time.perf_counter()
    gen_random_tree(16000, random.Random(0))
    random_branch_decomposition(path_graph(4000), random.Random(0))
    assert time.perf_counter() - start < 2


def test_bad_params():
    with pytest.raises(InvalidParamsError):
        generate_corpus("k-tree", {"k": 0, "n": 5})
    with pytest.raises(InvalidParamsError):
        generate_corpus("cycle", {"n": 2})
    with pytest.raises(InvalidParamsError):
        generate_corpus("nonsense", {"n": 5})
    with pytest.raises(InvalidParamsError):
        generate_corpus("cycle", {"n": 5, "bogus": 1})
    with pytest.raises(InvalidParamsError):
        generate_corpus("cycle", {})


def test_coarsen_preserves_validity_and_shape():
    rng = random.Random(19)
    for layout, shape in (("random", "tree"), ("path", "path")):
        inst = generate_corpus(
            "k-tree", {"k": 2, "n": 10, "layout": layout}, seed=5
        )
        td = coarsen_decomposition(inst.decomposition, 2, rng)
        assert td.shape == shape
        assert validate_decomposition(inst.graph, td).ok
        # merged bags: (k,1)-centred with k = rounds+1
        result = centred_check_decomposition(inst.graph, td, 3, 1)
        assert result.all_centred is True
        metrics = bag_metrics(inst.graph, td)
        assert metrics.independence_number <= 3


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("layout", ["random", "path"])
def test_coarsening_emits_the_bytes_of_its_quadratic_reference(k, layout):
    """The one sorted edge list draws the same edges, emits the same files
    and leaves the same next draw as the relabelling it replaces, also
    with more rounds than edges."""
    n = 60
    for seed in range(4):
        td = gen_ktree(k, n, random.Random(seed), layout).decomposition
        for rounds in (0, 1, n // 6, n // 3, 10 * n):
            rng, ref = random.Random(seed), random.Random(seed)
            got = coarsen_decomposition(td, rounds, rng)
            want = relabelling_coarsen(td, rounds, ref)
            assert emit_td(got, n) == emit_td(want, n)
            assert got.shape == want.shape
            assert rng.random() == ref.random()


def test_coarsening_is_fast_at_scale():
    n = 8000
    td = gen_ktree(3, n, random.Random(0)).decomposition
    start = time.perf_counter()
    coarsen_decomposition(td, n // 6, random.Random(0))
    assert time.perf_counter() - start < 1


def test_two_vertex_branch_decomposition_pinned():
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        bd = random_branch_decomposition(Graph(2, [(1, 2)]), rng)
        order = [1, 2]
        ref.shuffle(order)
        assert bd.tree == Graph(2, [(1, 2)])
        assert bd.leaf_map == {order[0]: 1, order[1]: 2}
        assert rng.random() == ref.random()
    # pinned leaf maps of seeds 0-5
    assert [
        random_branch_decomposition(Graph(2), random.Random(seed)).leaf_map
        for seed in range(6)
    ] == [{1: 1, 2: 2}, {1: 2, 2: 1}, {1: 2, 2: 1}, {1: 2, 2: 1}, {1: 2, 2: 1},
          {1: 1, 2: 2}]


def test_family_table_and_messages():
    assert FAMILIES == (
        "path", "cycle", "random-tree", "k-tree", "subdivided-k-tree",
        "grid-slice", "random-branch-decomposition",
    )
    for family, params, message in (
        ("nonsense", {}, "unknown family 'nonsense'; choose from path, cycle, "
         "random-tree, k-tree, subdivided-k-tree, grid-slice, "
         "random-branch-decomposition"),
        ("k-tree", {"n": 5}, "k-tree requires parameter 'k'"),
        ("subdivided-k-tree", {"k": 1, "n": 3},
         "subdivided-k-tree requires parameter 's'"),
        ("grid-slice", {"rows": "x", "cols": 2},
         "bad parameters for grid-slice: invalid literal for int() with "
         "base 10: 'x'"),
        ("random-branch-decomposition", {"n": 4, "p": "z"},
         "bad parameters for random-branch-decomposition: could not convert "
         "string to float: 'z'"),
        ("path", {"n": 3, "q": 1}, "unused parameters for path: ['q']"),
    ):
        with pytest.raises(InvalidParamsError) as err:
            generate_corpus(family, params)
        assert str(err.value) == message
