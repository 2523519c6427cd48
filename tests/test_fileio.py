import pytest

from coarsetd import (
    Graph,
    MalformedDecompositionError,
    ParseError,
    TreeDecomposition,
)
from coarsetd.fileio import (
    emit_bd,
    emit_graph,
    emit_map,
    emit_partition,
    emit_td,
    parse_bd,
    parse_graph,
    parse_map,
    parse_partition,
    parse_td,
)
from coarsetd.generators import (
    gen_ktree,
    random_branch_decomposition,
    random_connected_graph,
)
import random
import time


def test_parse_k2():
    g = parse_graph("p tw 2 1\n1 2\n")
    assert g == Graph(2, [(1, 2)])


def test_parse_graph_comments_and_blanks():
    g = parse_graph("c hello\n\np tw 3 1\nc mid\n1 3\n")
    assert g == Graph(3, [(1, 3)])


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("p tw 2 1\n1 3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_graph("p tw 2 2\n1 2\n1 2\n")
    assert "duplicate edge" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("1 2\np tw 2 1\n")
    with pytest.raises(ParseError):
        parse_graph("p tw 2 5\n1 2\n")  # wrong edge count
    with pytest.raises(ParseError):
        parse_graph("p tw 2 1\n1 1\n")  # self-loop


def test_graph_round_trip():
    rng = random.Random(81)
    for _ in range(10):
        g = random_connected_graph(rng.randint(1, 10), 0.4, rng)
        text = emit_graph(g)
        assert parse_graph(text) == g
        assert emit_graph(parse_graph(text)) == text


def test_parse_td_basic():
    text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    td, host_n = parse_td(text)
    assert host_n == 3
    assert td.bag(1) == frozenset({1, 2})
    assert td.width == 1


def test_parse_td_errors():
    with pytest.raises(ParseError) as err:
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 4\n1 2\n")  # wait, 4 > 3
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_td("s td 2 2 3\nb 1 1 2\n1 2\n")  # missing bag 2
    with pytest.raises(ParseError):
        parse_td("s td 2 3 3\nb 1 1 2\nb 2 2 3\n1 2\n")  # wrong max size
    with pytest.raises(ParseError):
        parse_td("s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n")  # duplicate bag
    with pytest.raises(ParseError):
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n")  # missing tree edge
    with pytest.raises(MalformedDecompositionError):
        # 4 bags, 3 distinct edges forming a triangle plus an isolated node
        parse_td(
            "s td 4 2 3\nb 1 1 2\nb 2 2 3\nb 3 1 3\nb 4 3\n1 2\n2 3\n1 3\n"
        )


def test_parse_td_path_shape_enforced():
    star = "s td 4 1 4\nb 1 1\nb 2 2\nb 3 3\nb 4 4\n1 2\n1 3\n1 4\n"
    parse_td(star)  # fine as a tree
    with pytest.raises(MalformedDecompositionError):
        parse_td(star, shape="path")


def test_td_round_trip():
    rng = random.Random(83)
    for _ in range(10):
        inst = gen_ktree(rng.randint(1, 3), rng.randint(4, 9), rng)
        text = emit_td(inst.decomposition, inst.graph.n)
        td, host_n = parse_td(text)
        assert host_n == inst.graph.n
        assert td.bags == inst.decomposition.bags
        assert td.tree == inst.decomposition.tree
        assert emit_td(td, host_n) == text


def test_td_empty_bag_round_trip():
    td = TreeDecomposition(Graph(2, [(1, 2)]), {1: set(), 2: {1}})
    text = emit_td(td, 1)
    parsed, _ = parse_td(text)
    assert parsed.bag(1) == frozenset()
    assert emit_td(parsed, 1) == text


def test_bd_round_trip():
    rng = random.Random(87)
    for _ in range(10):
        g = random_connected_graph(rng.randint(1, 9), 0.3, rng)
        bd = random_branch_decomposition(g, rng)
        text = emit_bd(bd)
        parsed = parse_bd(text)
        assert parsed.leaf_map == bd.leaf_map
        assert parsed.tree == bd.tree
        assert emit_bd(parsed) == text


def test_parse_bd_errors():
    good = "s bd 4 3\ne 4 1\ne 4 2\ne 4 3\nl 1 1\nl 2 2\nl 3 3\n"
    parse_bd(good)
    with pytest.raises(ParseError):
        parse_bd(good.replace("l 3 3\n", ""))  # missing leaf line
    with pytest.raises(ParseError):
        parse_bd(good.replace("l 2 2", "l 1 2"))  # node mapped twice
    with pytest.raises(ParseError):
        parse_bd(good.replace("l 2 2", "x 2 2"))  # unknown line type
    with pytest.raises(MalformedDecompositionError):
        # vertex mapped to an internal node instead of a leaf
        parse_bd("s bd 3 2\ne 1 2\ne 2 3\nl 1 1\nl 2 2\n")


def test_map_round_trip_and_errors():
    mapping = {1: 3, 2: 1, 3: 3}
    text = emit_map(mapping)
    assert parse_map(text, n_source=3, n_target=3) == mapping
    assert emit_map(parse_map(text, 3, 3)) == text
    with pytest.raises(ParseError):
        parse_map("2 1\n1 1\n", 2, 2)  # not increasing
    with pytest.raises(ParseError):
        parse_map("1 1\n", n_source=2, n_target=2)  # incomplete
    with pytest.raises(ParseError):
        parse_map("1 9\n", n_source=1, n_target=3)


def test_partition_round_trip():
    parts = [[4, 5], [1, 2, 3]]
    text = emit_partition(parts)
    assert text == "2\n1 2 3\n4 5\n"
    assert parse_partition(text, n=5) == [[1, 2, 3], [4, 5]]
    with pytest.raises(ParseError):
        parse_partition("2\n1 2\n", n=2)  # count mismatch
    with pytest.raises(ParseError):
        parse_partition("1\n1 1\n", n=1)  # duplicate in part


def _rows(parse, *cases, **kw):
    return [
        pytest.param(parse, kw, text, message, id=f"{parse.__name__}-{name}")
        for name, text, message in cases
    ]


# one row per `raise ParseError` in fileio: the parser, its input and the
# exact message the user sees
PARSE_ERRORS = [
    *_rows(
        parse_graph,
        ("not-an-integer", "p tw x 1\n", "line 1: vertex count is not an integer: 'x'"),
        ("id-outside", "p tw 2 1\n1 3\n", "line 2: vertex id outside 1..2"),
        ("self-loop", "p tw 2 1\n1 1\n", "line 2: self-loop at 1"),
        ("duplicate-edge", "p tw 2 2\n1 2\n2 1\n", "line 3: duplicate edge (1, 2)"),
        ("duplicate-header", "p tw 1 0\np tw 1 0\n", "line 2: duplicate header"),
        ("bad-header", "p tw 1\n", "line 1: expected header 'p tw <n> <m>'"),
        ("negative-count", "p tw -1 0\n", "line 1: counts must be non-negative"),
        ("edge-before-header", "1 2\n", "line 1: edge line before the header"),
        ("bad-edge-line", "p tw 2 1\n1 2 3\n", "line 2: expected an edge line '<u> <v>'"),
        ("missing-header", "c only a comment\n", "missing header 'p tw <n> <m>'"),
        ("edge-count", "p tw 2 1\n", "header declares 1 edges, found 0"),
    ),
    *_rows(
        parse_td,
        ("duplicate-header", "s td 1 0 0\ns td 1 0 0\n", "line 2: duplicate header"),
        ("bad-header", "s td 1 0\n", "line 1: expected header 's td <bags> <max_bag_size> <n>'"),
        ("no-bags", "s td 0 0 0\n", "line 1: need at least one bag"),
        ("negative-count", "s td 1 -1 0\n", "line 1: counts must be non-negative"),
        ("bag-before-header", "b 1 1\n", "line 1: bag line before the header"),
        ("bad-bag-line", "s td 1 0 0\nb\n", "line 2: expected 'b <bag_id> <v1> ...'"),
        ("bag-id-outside", "s td 1 1 1\nb 2 1\n", "line 2: bag id outside 1..1"),
        ("duplicate-bag", "s td 2 1 1\nb 1 1\nb 1 1\n", "line 3: duplicate bag 1"),
        ("vertex-outside", "s td 1 1 1\nb 1 2\n", "line 2: vertex id outside 1..1"),
        ("duplicate-vertex", "s td 1 2 2\nb 1 1 1\n", "line 2: duplicate vertex 1 in bag 1"),
        ("duplicate-before-outside", "s td 1 2 2\nb 1 1 1 3\n", "line 2: duplicate vertex 1 in bag 1"),
        ("outside-before-duplicate", "s td 1 2 2\nb 1 3 1 1\n", "line 2: vertex id outside 1..2"),
        ("edge-before-header", "1 2\n", "line 1: tree edge before the header"),
        ("bad-tree-edge", "s td 2 1 1\nb 1 1\nb 2 1\n1 2 3\n", "line 4: expected a tree edge '<i> <j>'"),
        ("node-outside", "s td 2 1 1\nb 1 1\nb 2 1\n1 3\n", "line 4: node id outside 1..2"),
        ("tree-self-loop", "s td 2 1 1\nb 1 1\nb 2 1\n2 2\n", "line 4: self-loop at node 2"),
        ("duplicate-tree-edge", "s td 2 1 1\nb 1 1\nb 2 1\n1 2\n2 1\n", "line 5: duplicate tree edge (1, 2)"),
        ("missing-header", "", "missing header 's td <bags> <max_bag_size> <n>'"),
        ("missing-bags", "s td 3 1 1\nb 1 1\n1 2\n", "bags [2, 3] are not defined"),
        ("edge-count", "s td 2 1 1\nb 1 1\nb 2 1\n", "expected 1 tree edges, found 0"),
        ("max-size", "s td 1 2 1\nb 1 1\n", "header declares max bag size 2, found 1"),
        ("bags-past-lines", "s td 3 1 1\nb 1 1\n", "line 1: 3 bags cannot fit in 2 lines"),
    ),
    *_rows(
        parse_bd,
        ("duplicate-header", "s bd 1 1\ns bd 1 1\n", "line 2: duplicate header"),
        ("bad-header", "s bd 1\n", "line 1: expected header 's bd <tree_nodes> <n>'"),
        ("bad-counts", "s bd 0 1\n", "line 1: bad counts in header"),
        ("edge-before-header", "e 1 2\n", "line 1: tree edge before the header"),
        ("bad-tree-edge", "s bd 2 1\ne 1 2 3\n", "line 2: expected 'e <i> <j>'"),
        ("leaf-before-header", "l 1 1\n", "line 1: leaf line before the header"),
        ("bad-leaf-line", "s bd 1 1\nl 1\n", "line 2: expected 'l <node> <vertex>'"),
        ("node-outside", "s bd 1 1\nl 2 1\n", "line 2: node id outside 1..1"),
        ("vertex-outside", "s bd 1 1\nl 1 2\n", "line 2: vertex id outside 1..1"),
        ("duplicate-leaf", "s bd 2 2\nl 1 1\nl 2 1\n", "line 3: duplicate leaf line for vertex 1"),
        ("node-twice", "s bd 2 2\nl 1 1\nl 1 2\n", "line 3: node 1 mapped twice"),
        ("unknown-line", "s bd 1 1\nx 1 1\n", "line 2: unknown line type 'x'"),
        ("missing-header", "", "missing header 's bd <tree_nodes> <n>'"),
        ("leaf-count", "s bd 1 1\n", "expected 1 leaf lines, found 0"),
        ("nodes-past-lines", "s bd 4 1\nl 1 1\n", "line 1: 4 nodes cannot fit in 2 lines"),
    ),
    *_rows(
        parse_map,
        ("bad-line", "1\n", "line 1: expected '<source_vertex> <target_vertex>'"),
        ("not-increasing", "2 1\n1 1\n", "line 2: source vertices must be strictly increasing, got 1"),
        ("missing-lines", "1 1\n", "expected one line per source vertex (1..2)"),
        n_source=2,
        n_target=2,
    ),
    *_rows(
        parse_map,
        ("source-outside", "2 1\n", "line 1: source vertex outside 1..1"),
        ("target-outside", "1 2\n", "line 1: target vertex outside 1..1"),
        n_source=1,
        n_target=1,
    ),
    *_rows(
        parse_partition,
        ("bad-count-line", "1 2\n", "line 1: expected the part count on the first line"),
        ("no-parts", "0\n", "line 1: need at least one part"),
        ("vertex-outside", "1\n2\n", "line 2: vertex id outside 1..1"),
        ("duplicate-vertex", "1\n1 1\n", "line 2: duplicate vertex 1 in part"),
        ("duplicate-before-outside", "1\n1 1 2\n", "line 2: duplicate vertex 1 in part"),
        ("outside-before-duplicate", "1\n2 1 1\n", "line 2: vertex id outside 1..1"),
        ("missing-count", "c nothing\n", "missing part count"),
        ("part-count", "2\n1\n", "declared 2 parts, found 1"),
        n=1,
    ),
]


@pytest.mark.parametrize("parse, kw, text, message", PARSE_ERRORS)
def test_parse_error_messages(parse, kw, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, **kw)
    assert str(err.value) == message


@pytest.mark.parametrize("parse, text", [
    (parse_td, "s td 1000000000000 1 1\nb 1 1\n"),
    (parse_bd, "s bd 1000000000000 1\nl 1 1\n"),
])
def test_header_counts_past_the_file_fail_at_once(parse, text):
    """A header count the file cannot hold fails before any work in
    proportion to it: no list of missing bags, no tree of 10^12 nodes."""
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^line 1: 1000000000000 .* cannot fit in 2 lines$"):
        parse(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("parse, text", [
    (parse_td, "s td 1 40000 40000\nb 1 {}\n"),
    (lambda text: parse_partition(text, 40000), "1\n{}\n"),
], ids=["bag", "part"])
def test_a_40000_member_line_parses_at_once(parse, text):
    """Duplicate members are looked up in a set, not a list."""
    start = time.perf_counter()
    parse(text.format(" ".join(map(str, range(1, 40001)))))
    assert time.perf_counter() - start < 1


def test_header_counts_at_the_line_limit_pass_the_check():
    # as many bags as lines, and one tree node more than lines, reach the
    # checks after the header
    with pytest.raises(ParseError, match="^bags \\[2\\] are not defined$"):
        parse_td("s td 2 1 1\nb 1 1\n")
    with pytest.raises(MalformedDecompositionError, match="is not a tree"):
        parse_bd("s bd 3 1\nl 1 1\n")
