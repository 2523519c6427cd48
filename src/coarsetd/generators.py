"""Seeded instance generators for tests and the CLI.

All randomness flows through one random.Random seeded explicitly, so the
same seed always yields byte-identical corpus files.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush

from .decomposition import TreeDecomposition
from .errors import InvalidParamsError
from .graph import Graph
from .quasiiso import QuasiIsometryMap
from .simwidth import BranchDecomposition

# family -> builder(take, rng); take(name) pops a required parameter and
# take(name, default) an optional one
_BUILDERS = {
    "path": lambda take, rng: gen_path(int(take("n"))),
    "cycle": lambda take, rng: gen_cycle(int(take("n"))),
    "random-tree": lambda take, rng: gen_random_tree(int(take("n")), rng),
    "k-tree": lambda take, rng: gen_ktree(
        int(take("k")), int(take("n")), rng, take("layout", "random")
    ),
    "subdivided-k-tree": lambda take, rng: gen_subdivided_ktree(
        int(take("k")), int(take("n")), int(take("s")), rng, take("layout", "random")
    ),
    "grid-slice": lambda take, rng: gen_grid_slice(
        int(take("rows")), int(take("cols"))
    ),
    "random-branch-decomposition": lambda take, rng: gen_random_branch_instance(
        int(take("n")), float(take("p", 0.2)), rng
    ),
}
FAMILIES = tuple(_BUILDERS)
_REQUIRED = object()


@dataclass(frozen=True)
class CorpusInstance:
    """A generated graph plus whatever structure the family carries."""

    graph: Graph
    decomposition: TreeDecomposition | None = None
    branch_decomposition: BranchDecomposition | None = None
    base_graph: Graph | None = None
    base_decomposition: TreeDecomposition | None = None
    qi_map: QuasiIsometryMap | None = None


def _require(cond, msg):
    if not cond:
        raise InvalidParamsError(msg)


def gen_path(n):
    _require(n >= 1, "path needs n >= 1")
    g = Graph(n, [(i, i + 1) for i in range(1, n)])
    if n == 1:
        td = TreeDecomposition(Graph(1), {1: frozenset([1])}, shape="path")
    else:
        bags = {i: frozenset([i, i + 1]) for i in range(1, n)}
        tree = Graph(n - 1, [(i, i + 1) for i in range(1, n - 1)])
        td = TreeDecomposition(tree, bags, shape="path")
    return CorpusInstance(g, decomposition=td)


def gen_cycle(n):
    _require(n >= 3, "cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    g = Graph(n, edges)
    bags = {i - 1: frozenset([1, i, i + 1]) for i in range(2, n)}
    tree = Graph(n - 2, [(i, i + 1) for i in range(1, n - 2)])
    td = TreeDecomposition(tree, bags, shape="path")
    return CorpusInstance(g, decomposition=td)


def gen_random_tree(n, rng):
    """Uniform random labelled tree via a Pruefer sequence."""
    _require(n >= 1, "random-tree needs n >= 1")
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges, leaves = [], [v for v in range(1, n + 1) if degree[v] == 1]
    for v in seq:
        leaf = heappop(leaves)  # the smallest leaf
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    if n > 1:
        last = [u for u in range(1, n + 1) if degree[u] == 1]
        edges.append((last[0], last[1]))
    g = Graph(n, edges)
    # bag v = {v, parent(v)} on the tree itself, rooted at 1 by the sweep
    depth = g._sweep()[0]
    bags = {
        v: frozenset([v, *(u for u in g.adjacency[v] if depth[u] < depth[v])])
        for v in g.vertices
    }
    td = TreeDecomposition(g, bags)
    return CorpusInstance(g, decomposition=td)


def gen_ktree(k, n, rng, layout="random"):
    """A k-tree with its natural width-k decomposition.

    layout="path" grows along the newest bag only, yielding a path-shaped
    decomposition; layout="random" attaches each new vertex to a random
    existing bag.
    """
    _require(k >= 1, "k-tree needs k >= 1")
    _require(n >= k + 1, "k-tree needs n >= k+1")
    _require(layout in ("random", "path"), f"unknown layout {layout!r}")
    edges = [
        (u, v) for u in range(1, k + 2) for v in range(u + 1, k + 2)
    ]
    bags = [frozenset(range(1, k + 2))]
    tree_edges = []
    for v in range(k + 2, n + 1):
        if layout == "path":
            parent = len(bags)
            base = bags[parent - 1]
            sub = frozenset(sorted(base)[1:])  # drop the oldest vertex
        else:
            parent = rng.randrange(1, len(bags) + 1)
            sub = frozenset(rng.sample(sorted(bags[parent - 1]), k))
        edges.extend((min(u, v), max(u, v)) for u in sub)
        bags.append(sub | {v})
        tree_edges.append((parent, len(bags)))
    g = Graph(n, edges)
    tree = Graph(len(bags), tree_edges)
    shape = "path" if layout == "path" else "tree"
    td = TreeDecomposition(
        tree, {i + 1: bag for i, bag in enumerate(bags)}, shape=shape
    )
    return CorpusInstance(g, decomposition=td)


def coarsen_decomposition(td, rounds, rng):
    """Merge `rounds` random adjacent bag pairs (tree edge contractions).

    Contraction preserves all decomposition properties and the path shape;
    the merged bags are unions of the original ones. The tree's edges stay
    one sorted list, and a merged node goes by its smallest original node.
    Those names sort as the contracted tree's labels 1..t would, so each
    round draws the same edge as it would from the relabelled tree, and
    the nodes are relabelled once, at the end.
    """
    edges = sorted(td.tree.edges)
    nbrs = {t: set(td.tree.adjacency[t]) for t in td.nodes}
    bags = dict(td.bags)
    for _ in range(min(rounds, len(edges))):
        a, b = rng.choice(edges)
        # b merges into a, and b's other edges move to a
        del edges[bisect_left(edges, (a, b))]
        nbrs[a].remove(b)
        for x in nbrs.pop(b) - {a}:
            del edges[bisect_left(edges, (min(b, x), max(b, x)))]
            insort(edges, (min(a, x), max(a, x)))
            nbrs[x].remove(b)
            nbrs[x].add(a)
            nbrs[a].add(x)
        bags[a] |= bags.pop(b)
    label = {t: i for i, t in enumerate(sorted(bags), 1)}
    tree = Graph(len(label), [(label[u], label[v]) for u, v in edges])
    return TreeDecomposition(
        tree, {label[t]: bag for t, bag in bags.items()}, shape=td.shape
    )


def gen_subdivided_ktree(k, n, s, rng, layout="random"):
    """Subdivide every edge of a k-tree s times.

    Carries the natural map sending each subdivision vertex to its nearest
    branch endpoint (ties to the smaller id); it is an (s+1)-quasi-isometry
    onto the base graph, which keeps its width-k decomposition.
    """
    _require(s >= 1, "subdivided-k-tree needs s >= 1")
    base = gen_ktree(k, n, rng, layout)
    h = base.graph
    mapping = {v: v for v in h.vertices}
    edges = []
    nxt = h.n + 1
    for u, v in sorted(h.edges):
        prev = u
        for i in range(1, s + 1):
            w = nxt
            nxt += 1
            edges.append((prev, w))
            if 2 * i < s + 1:
                mapping[w] = u
            elif 2 * i > s + 1:
                mapping[w] = v
            else:
                mapping[w] = min(u, v)
            prev = w
        edges.append((prev, v))
    g = Graph(nxt - 1, edges)
    phi = QuasiIsometryMap(g, h, mapping)
    return CorpusInstance(
        g,
        base_graph=h,
        base_decomposition=base.decomposition,
        qi_map=phi,
    )


def gen_grid_slice(rows, cols):
    """A rows x cols grid with its column-pair path decomposition."""
    _require(rows >= 1 and cols >= 1, "grid-slice needs rows, cols >= 1")

    def vid(r, c):
        return (c - 1) * rows + r

    edges = []
    for c in range(1, cols + 1):
        for r in range(1, rows + 1):
            if r < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if c < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
    g = Graph(rows * cols, edges)
    if cols == 1:
        td = TreeDecomposition(
            Graph(1), {1: frozenset(g.vertices)}, shape="path"
        )
    else:
        bags = {
            c: frozenset(
                vid(r, cc) for cc in (c, c + 1) for r in range(1, rows + 1)
            )
            for c in range(1, cols)
        }
        tree = Graph(cols - 1, [(c, c + 1) for c in range(1, cols - 1)])
        td = TreeDecomposition(tree, bags, shape="path")
    return CorpusInstance(g, decomposition=td)


def random_connected_graph(n, p, rng):
    """Random spanning tree plus each remaining pair with probability p."""
    _require(n >= 1, "need n >= 1")
    tree = gen_random_tree(n, rng).graph
    edges = set(tree.edges)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges)


def random_branch_decomposition(g, rng):
    """Random subcubic tree with the graph's vertices shuffled onto leaves."""
    n = g.n
    _require(n >= 1, "branch decomposition needs n >= 1")
    if n == 1:
        return BranchDecomposition(Graph(1), {1: 1})
    edges = [(1, 2)]
    leaves = [1, 2]
    nxt = 3
    for _ in range(n - 2):  # edges stay sorted, each as (lower, higher)
        a, b = edge = rng.choice(edges)
        inner, leaf = nxt, nxt + 1
        nxt += 2
        del edges[bisect_left(edges, edge)]
        for new in (a, inner), (b, inner), (inner, leaf):
            insort(edges, new)
        leaves.append(leaf)
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    leaf_map = {v: leaf for v, leaf in zip(vertices, leaves)}
    return BranchDecomposition(Graph(nxt - 1, edges), leaf_map)


def gen_random_branch_instance(n, p, rng):
    g = random_connected_graph(n, p, rng)
    return CorpusInstance(g, branch_decomposition=random_branch_decomposition(g, rng))


def generate_corpus(family, params, seed=0):
    """Dispatch to a family generator; deterministic under the seed."""
    rng = random.Random(seed)
    params = dict(params)
    if family not in FAMILIES:
        raise InvalidParamsError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
        )

    def take(name, default=_REQUIRED):
        if default is _REQUIRED and name not in params:
            raise InvalidParamsError(f"{family} requires parameter {name!r}")
        return params.pop(name, default)

    try:
        out = _BUILDERS[family](take, rng)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"bad parameters for {family}: {exc}") from exc
    if params:
        raise InvalidParamsError(
            f"unused parameters for {family}: {sorted(params)}"
        )
    return out
