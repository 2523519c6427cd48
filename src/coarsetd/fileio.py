"""Parsers and emitters for the flat file formats.

All formats are line based; blank lines and lines starting with "c" are
comments and are skipped everywhere. Emitters write a canonical form
(sorted ids, single spaces, trailing newline), so emit(parse(text)) is
byte-identical for canonical input and parse(emit(x)) round-trips every
value exactly.

  .gr   PACE-style graph: "p tw <n> <m>" then m lines "<u> <v>".
  .td   PACE-style decomposition: "s td <bags> <max_bag_size> <n>",
        bag lines "b <id> <v1> ...", then bags-1 tree edges "<i> <j>";
        a header declaring more bags than the file has lines fails.
  .bd   branch decomposition: "s bd <tree_nodes> <n>", tree edges
        "e <i> <j>", then n leaf lines "l <node> <vertex>"; a header
        declaring more tree nodes than the file has lines, plus 1, fails.
  .map  one "<source_vertex> <target_vertex>" line per source vertex,
        strictly increasing in the source vertex.
  .part first line the part count, then one line of vertex ids per part.
"""

from __future__ import annotations

from .decomposition import TreeDecomposition
from .errors import ParseError
from .graph import Graph
from .simwidth import BranchDecomposition


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def _int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} is not an integer: {token!r}") from None


def _pair(tokens, lineno, hi, edges, tree=False):
    """Add the edge "<i> <j>" on ids 1..hi to `edges`, an insertion-ordered
    dict, rejecting self-loops and repeats; tree edges join decomposition
    nodes, the others join vertices."""
    what = "node" if tree else "vertex"
    i = _int(tokens[0], lineno, f"{what} id")
    j = _int(tokens[1], lineno, f"{what} id")
    if not (1 <= i <= hi and 1 <= j <= hi):
        raise ParseError(lineno, f"{what} id outside 1..{hi}")
    if i == j:
        raise ParseError(lineno, f"self-loop at {'node ' if tree else ''}{i}")
    key = (i, j) if i < j else (j, i)
    if key in edges:
        raise ParseError(lineno, f"duplicate {'tree ' if tree else ''}edge {key}")
    edges[key] = None


def parse_graph(text):
    n = m = None
    edges = {}
    for lineno, parts in _data_lines(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(lineno, "expected header 'p tw <n> <m>'")
            n = _int(parts[2], lineno, "vertex count")
            m = _int(parts[3], lineno, "edge count")
            if n < 0 or m < 0:
                raise ParseError(lineno, "counts must be non-negative")
        else:
            if n is None:
                raise ParseError(lineno, "edge line before the header")
            if len(parts) != 2:
                raise ParseError(lineno, "expected an edge line '<u> <v>'")
            _pair(parts, lineno, n, edges)
    if n is None:
        raise ParseError(None, "missing header 'p tw <n> <m>'")
    if len(edges) != m:
        raise ParseError(None, f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def emit_graph(g):
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_td(text, shape="tree"):
    """Parse a decomposition; returns (TreeDecomposition, declared host n)."""
    header = None
    bags = {}
    tree_edges = {}
    for lineno, parts in _data_lines(text):
        if parts[0] == "s":
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(
                    lineno, "expected header 's td <bags> <max_bag_size> <n>'"
                )
            header = tuple(
                _int(tok, lineno, what)
                for tok, what in zip(
                    parts[2:], ("bag count", "max bag size", "vertex count")
                )
            )
            if header[0] < 1:
                raise ParseError(lineno, "need at least one bag")
            if header[1] < 0 or header[2] < 0:
                raise ParseError(lineno, "counts must be non-negative")
            if header[0] > (lines := len(text.splitlines())):
                raise ParseError(lineno, f"{header[0]} bags cannot fit in {lines} lines")
        elif parts[0] == "b":
            if header is None:
                raise ParseError(lineno, "bag line before the header")
            if len(parts) < 2:
                raise ParseError(lineno, "expected 'b <bag_id> <v1> ...'")
            bag_id = _int(parts[1], lineno, "bag id")
            if not 1 <= bag_id <= header[0]:
                raise ParseError(lineno, f"bag id outside 1..{header[0]}")
            if bag_id in bags:
                raise ParseError(lineno, f"duplicate bag {bag_id}")
            members = set()
            for tok in parts[2:]:
                v = _int(tok, lineno, "vertex id")
                if not 1 <= v <= header[2]:
                    raise ParseError(lineno, f"vertex id outside 1..{header[2]}")
                if v in members:
                    raise ParseError(lineno, f"duplicate vertex {v} in bag {bag_id}")
                members.add(v)
            bags[bag_id] = frozenset(members)
        else:
            if header is None:
                raise ParseError(lineno, "tree edge before the header")
            if len(parts) != 2:
                raise ParseError(lineno, "expected a tree edge '<i> <j>'")
            _pair(parts, lineno, header[0], tree_edges, tree=True)
    if header is None:
        raise ParseError(None, "missing header 's td <bags> <max_bag_size> <n>'")
    nbags, max_size, host_n = header
    missing = [t for t in range(1, nbags + 1) if t not in bags]
    if missing:
        raise ParseError(None, f"bags {missing} are not defined")
    if len(tree_edges) != nbags - 1:
        raise ParseError(
            None, f"expected {nbags - 1} tree edges, found {len(tree_edges)}"
        )
    actual = max(len(b) for b in bags.values())
    if actual != max_size:
        raise ParseError(
            None, f"header declares max bag size {max_size}, found {actual}"
        )
    return TreeDecomposition(Graph(nbags, tree_edges), bags, shape=shape), host_n


def emit_td(td, host_n):
    max_size = max(len(b) for b in td.bags.values())
    lines = [f"s td {td.tree.n} {max_size} {host_n}"]
    for t in sorted(td.nodes):
        members = " ".join(str(v) for v in sorted(td.bag(t)))
        lines.append(f"b {t} {members}".rstrip())
    lines.extend(f"{i} {j}" for i, j in sorted(td.tree.edges))
    return "\n".join(lines) + "\n"


def parse_bd(text):
    header = None
    tree_edges = {}
    leaf_map = {}
    used_nodes = set()
    for lineno, parts in _data_lines(text):
        if parts[0] == "s":
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            if len(parts) != 4 or parts[1] != "bd":
                raise ParseError(lineno, "expected header 's bd <tree_nodes> <n>'")
            header = (
                _int(parts[2], lineno, "tree node count"),
                _int(parts[3], lineno, "vertex count"),
            )
            if header[0] < 1 or header[1] < 0:
                raise ParseError(lineno, "bad counts in header")
            if header[0] > (lines := len(text.splitlines())) + 1:
                raise ParseError(lineno, f"{header[0]} nodes cannot fit in {lines} lines")
        elif parts[0] == "e":
            if header is None:
                raise ParseError(lineno, "tree edge before the header")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'e <i> <j>'")
            _pair(parts[1:], lineno, header[0], tree_edges, tree=True)
        elif parts[0] == "l":
            if header is None:
                raise ParseError(lineno, "leaf line before the header")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'l <node> <vertex>'")
            node = _int(parts[1], lineno, "node id")
            vertex = _int(parts[2], lineno, "vertex id")
            if not 1 <= node <= header[0]:
                raise ParseError(lineno, f"node id outside 1..{header[0]}")
            if not 1 <= vertex <= header[1]:
                raise ParseError(lineno, f"vertex id outside 1..{header[1]}")
            if vertex in leaf_map:
                raise ParseError(lineno, f"duplicate leaf line for vertex {vertex}")
            if node in used_nodes:
                raise ParseError(lineno, f"node {node} mapped twice")
            leaf_map[vertex] = node
            used_nodes.add(node)
        else:
            raise ParseError(lineno, f"unknown line type {parts[0]!r}")
    if header is None:
        raise ParseError(None, "missing header 's bd <tree_nodes> <n>'")
    if len(leaf_map) != header[1]:
        raise ParseError(
            None, f"expected {header[1]} leaf lines, found {len(leaf_map)}"
        )
    return BranchDecomposition(Graph(header[0], tree_edges), leaf_map)


def emit_bd(bd):
    lines = [f"s bd {bd.tree.n} {bd.n}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(bd.tree.edges))
    lines.extend(
        f"l {bd.leaf_map[v]} {v}" for v in sorted(bd.leaf_map)
    )
    return "\n".join(lines) + "\n"


def parse_map(text, n_source, n_target):
    """Parse a vertex map from 1..n_source into 1..n_target, one line per
    source vertex; the source ids must be strictly increasing."""
    mapping = {}
    last = 0
    for lineno, parts in _data_lines(text):
        if len(parts) != 2:
            raise ParseError(lineno, "expected '<source_vertex> <target_vertex>'")
        v = _int(parts[0], lineno, "source vertex")
        x = _int(parts[1], lineno, "target vertex")
        if v <= last:
            raise ParseError(
                lineno, f"source vertices must be strictly increasing, got {v}"
            )
        if not 1 <= v <= n_source:
            raise ParseError(lineno, f"source vertex outside 1..{n_source}")
        if not 1 <= x <= n_target:
            raise ParseError(lineno, f"target vertex outside 1..{n_target}")
        mapping[v] = x
        last = v
    if len(mapping) != n_source:
        raise ParseError(
            None, f"expected one line per source vertex (1..{n_source})"
        )
    return mapping


def emit_map(mapping):
    lines = [f"{v} {mapping[v]}" for v in sorted(mapping)]
    return "\n".join(lines) + "\n"


def parse_partition(text, n):
    """Parse a partition file of vertices in 1..n into a list of vertex
    lists."""
    count = None
    parts = []
    for lineno, tokens in _data_lines(text):
        if count is None:
            if len(tokens) != 1:
                raise ParseError(lineno, "expected the part count on the first line")
            count = _int(tokens[0], lineno, "part count")
            if count < 1:
                raise ParseError(lineno, "need at least one part")
            continue
        members, seen = [], set()
        for tok in tokens:
            v = _int(tok, lineno, "vertex id")
            if not 1 <= v <= n:
                raise ParseError(lineno, f"vertex id outside 1..{n}")
            if v in seen:
                raise ParseError(lineno, f"duplicate vertex {v} in part")
            seen.add(v)
            members.append(v)
        parts.append(members)
    if count is None:
        raise ParseError(None, "missing part count")
    if len(parts) != count:
        raise ParseError(None, f"declared {count} parts, found {len(parts)}")
    return parts


def emit_partition(parts):
    ordered = sorted((sorted(part) for part in parts), key=lambda p: p[0])
    lines = [str(len(ordered))]
    lines.extend(" ".join(str(v) for v in part) for part in ordered)
    return "\n".join(lines) + "\n"
