"""Tree- and path-decompositions: validation, width, per-bag metrics, and
the (k,d)-centred bag check.

A path decomposition is a TreeDecomposition whose shape flag is "path" and
whose tree has maximum degree 2; every operation is shape-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import (
    EmptySetError,
    InvalidDecompositionError,
    MalformedDecompositionError,
    TooLargeError,
)
from .exact import (
    DEFAULT_CAP,
    _check_cap,
    _first_k_coloring,
    bag_masks,
    dominating_mask,
    independent_mask,
)
from .graph import (
    Graph,
    check_vertices,
    is_tree,
    power_graph,
)

SHAPES = ("tree", "path")


class TreeDecomposition:
    """A tree on nodes 1..t with one vertex bag per node."""

    __slots__ = ("tree", "bags", "shape")

    def __init__(self, tree, bags, shape="tree"):
        if shape not in SHAPES:
            raise MalformedDecompositionError(f"unknown shape {shape!r}")
        if not is_tree(tree):
            raise MalformedDecompositionError("decomposition tree is not a tree")
        if set(bags) != set(tree.vertices):
            raise MalformedDecompositionError(
                "bag node ids do not match the tree nodes"
            )
        if shape == "path" and any(tree.degree(t) > 2 for t in tree.vertices):
            raise MalformedDecompositionError("path decomposition has a degree-3 node")
        self.tree = tree
        self.bags = {t: frozenset(bags[t]) for t in tree.vertices}
        self.shape = shape

    @property
    def nodes(self):
        return self.tree.vertices

    def bag(self, t):
        return self.bags[t]

    @property
    def width(self):
        return max(len(b) for b in self.bags.values()) - 1

    def __repr__(self):
        return (
            f"TreeDecomposition(nodes={self.tree.n}, width={self.width}, "
            f"shape={self.shape!r})"
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    kind: str | None = None
    witness: object = None

    def __bool__(self):
        return self.ok


def validate_decomposition(g, td):
    """Check the three decomposition conditions of td against g.

    Returns an ok report, or the first violation (edge coverage first, then
    vertex traces) together with a witness. A vertex's bags span a subtree
    exactly when they hold one tree edge fewer than bags.
    """
    traces = {v: set() for v in g.vertices}
    for t, bag in td.bags.items():
        for v in bag:
            if v not in traces:
                raise MalformedDecompositionError(
                    f"bag {t} contains vertex {v} outside the host graph"
                )
            traces[v].add(t)
    for u, v in sorted(g.edges):
        if not traces[u] & traces[v]:
            return ValidationReport(False, "edge_uncovered", (u, v))
    for v in g.vertices:
        if not traces[v]:
            return ValidationReport(False, "vertex_uncovered", v)
    inner = dict.fromkeys(g.vertices, 0)
    for a, b in td.tree.edges:
        for v in td.bags[a] & td.bags[b]:
            inner[v] += 1
    for v in g.vertices:
        if inner[v] != len(traces[v]) - 1:
            return ValidationReport(False, "trace_disconnected", v)
    return ValidationReport(True)


def each_bag(td, solve):
    """{t: solve(bag)} for the non-empty bags of td in node order.

    A TooLargeError from the solver is re-raised naming the bag.
    """
    out = {}
    for t in td.nodes:
        bag = td.bags[t]
        if bag:
            try:
                out[t] = solve(bag)
            except TooLargeError as exc:
                raise TooLargeError(exc.size, exc.cap, f"bag {t}") from exc
    return out


def require_valid(g, td, what="decomposition"):
    """Raise InvalidDecompositionError naming the first violation, if any."""
    report = validate_decomposition(g, td)
    if not report.ok:
        raise InvalidDecompositionError(
            f"{what} invalid: {report.kind} at {report.witness}"
        )


def decomposition_from_order(g, order):
    """Decomposition realizing an elimination order; width = elimination width."""
    if sorted(order) != list(g.vertices):
        raise ValueError("order must enumerate every vertex exactly once")
    adj = {v: set(g.adjacency[v]) for v in g.vertices}
    pos = {v: i for i, v in enumerate(order)}
    bags = {}
    tree_edges = []
    for i, v in enumerate(order):
        nb = sorted(adj[v])
        bags[i + 1] = frozenset([v, *nb])
        if nb:
            succ = min(nb, key=lambda u: pos[u])
            tree_edges.append((i + 1, pos[succ] + 1))
        elif i + 1 < len(order):
            tree_edges.append((i + 1, i + 2))
        for a in nb:  # v's neighbours become a clique without v
            adj[a].update(nb)
            adj[a] -= {a, v}
        del adj[v]
    return TreeDecomposition(Graph(len(order), tree_edges), bags)


@dataclass(frozen=True)
class CentredResult:
    """Outcome of one (k,d)-centred check.

    `centred` is True/False in exact mode; heuristic mode reports True or
    None (unknown), never False. `parts` is the witness partition.
    """

    centred: bool | None
    parts: tuple[frozenset, ...] | None


def centred_check(g, s, k, d, cap=DEFAULT_CAP, mode="exact"):
    """Is `s` coverable by <= k pieces of weak diameter <= d?

    Exact mode reduces to k-colorability of the complement of the d-th
    power graph on s (pieces of pairwise distance <= d are power-graph
    cliques); the witness is the lexicographically smallest color-class
    partition under vertex id order. Heuristic mode colors first-fit in the
    same order, so a True verdict carries the same witness. A set whose
    members lie pairwise within d is answered as one piece from the level
    masks `g.balls(d)` when g fits d, before any power graph is built.
    """
    members = frozenset(s)
    if not members:
        raise EmptySetError("centred check of the empty set is undefined")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if d < 0:
        raise ValueError("d must be non-negative")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    vs = sorted(members)
    check_vertices(g, vs)
    if mode == "exact":
        _check_cap(len(vs), cap, "vertex set")

    # heuristic mode reports a miss as unknown, never False
    miss = CentredResult(False if mode == "exact" else None, None)
    if g.fits(d):
        # members pairwise within d are one piece: every member's ball
        # holds them all
        ball, target = g.balls(d), reduce(or_, (1 << v for v in vs))
        if all(ball[u] & target == target for u in vs):
            return CentredResult(True, (members,))

    pg = power_graph(g, d, vs)
    # members too far apart to share a piece: the earlier non-neighbours
    earlier = [()] + [
        [j for j in range(1, i) if j not in pg.adjacency[i]] for i in pg.vertices
    ]
    # heuristic mode stops at the first backtrack, which is first-fit
    colors = _first_k_coloring(earlier, k, backtrack=mode == "exact")
    if colors is None:
        return miss
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(vs[i])
    parts = tuple(frozenset(classes[c]) for c in sorted(classes))
    return CentredResult(True, parts)


@dataclass(frozen=True)
class CentredDecompositionResult:
    all_centred: bool | None
    per_bag: dict[int, CentredResult]


def centred_check_decomposition(g, td, k, d, cap=DEFAULT_CAP, mode="exact"):
    """Run centred_check on every bag; empty bags pass trivially."""
    solved = each_bag(td, lambda bag: centred_check(g, bag, k, d, cap, mode))
    empty = CentredResult(True, ())
    per_bag = {t: solved.get(t, empty) for t in td.nodes}
    # tri-state conjunction: any False, else any None (unknown), else True
    verdicts = {r.centred for r in per_bag.values()}
    all_centred = False if False in verdicts else None if None in verdicts else True
    return CentredDecompositionResult(all_centred, per_bag)


@dataclass(frozen=True)
class BagStat:
    size: int
    independence_number: int
    domination_number: int


@dataclass(frozen=True)
class BagMetrics:
    per_bag: dict[int, BagStat]
    independence_number: int
    domination_number: int


def bag_metrics(g, td, cap=DEFAULT_CAP):
    """Exact independence and domination numbers of every bag.

    The decomposition-level numbers are the maxima over bags; centred
    verdicts come from centred_check_decomposition.
    """

    def stat(bag):
        adj = bag_masks(g, bag, cap)
        alpha = independent_mask(adj).bit_count()
        return BagStat(len(bag), alpha, dominating_mask(adj).bit_count())

    solved = each_bag(td, stat)
    per_bag = {t: solved.get(t, BagStat(0, 0, 0)) for t in td.nodes}
    alpha_max = max(b.independence_number for b in per_bag.values())
    gamma_max = max(b.domination_number for b in per_bag.values())
    return BagMetrics(per_bag, alpha_max, gamma_max)
