"""Tree- and path-decompositions: validation, width, per-bag metrics, and
the (k,d)-centred bag check.

A path decomposition is a TreeDecomposition whose shape flag is "path" and
whose tree has maximum degree 2; every operation is shape-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EmptySetError,
    InvalidDecompositionError,
    MalformedDecompositionError,
    TooLargeError,
)
from .exact import (
    DEFAULT_CAP,
    _check_cap,
    exact_domination_number,
    exact_independence_number,
    greedy_coloring,
    k_coloring,
)
from .graph import (
    Graph,
    bfs,
    complement_graph,
    induced_subgraph,
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
    vertex traces) together with a witness.
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
    for v in g.vertices:
        trace = traces[v]
        if len(bfs(td.tree.adjacency, [next(iter(trace))], within=trace)) < len(trace):
            return ValidationReport(False, "trace_disconnected", v)
    return ValidationReport(True)


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
        for a in nb:
            for b in nb:
                if a != b and b not in adj[a]:
                    adj[a].add(b)
        for u in nb:
            adj[u].discard(v)
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
    mode: str
    k: int
    d: int


def centred_check(g, s, k, d, cap=DEFAULT_CAP, mode="exact"):
    """Is `s` coverable by <= k pieces of weak diameter <= d?

    Exact mode reduces to k-colorability of the complement of the d-th
    power graph on s (pieces of pairwise distance <= d are power-graph
    cliques); the witness is the lexicographically smallest color-class
    partition under vertex id order.
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
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside range 1..{g.n}")
    if mode == "exact":
        _check_cap(len(vs), cap, "vertex set")

    if d == 0:
        # pieces of weak diameter 0 are singletons
        if len(vs) <= k:
            parts = tuple(frozenset([v]) for v in vs)
            return CentredResult(True, parts, mode, k, d)
        if mode == "exact":
            return CentredResult(False, None, mode, k, d)
        return CentredResult(None, None, mode, k, d)

    comp = complement_graph(power_graph(g, d, vs))
    if mode == "exact":
        colors = k_coloring(comp, k)
        if colors is None:
            return CentredResult(False, None, mode, k, d)
    else:
        count, assignment = greedy_coloring(comp)
        if count > k:
            return CentredResult(None, None, mode, k, d)
        colors = [assignment[i] for i in comp.vertices]
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(vs[i])
    parts = tuple(frozenset(classes[c]) for c in sorted(classes))
    return CentredResult(True, parts, mode, k, d)


@dataclass(frozen=True)
class CentredDecompositionResult:
    all_centred: bool | None
    per_bag: dict[int, CentredResult]
    k: int
    d: int


def centred_check_decomposition(g, td, k, d, cap=DEFAULT_CAP, mode="exact"):
    """Run centred_check on every bag; empty bags pass trivially."""
    per_bag = {}
    for t in sorted(td.nodes):
        bag = td.bag(t)
        if not bag:
            per_bag[t] = CentredResult(True, (), mode, k, d)
            continue
        try:
            per_bag[t] = centred_check(g, bag, k, d, cap=cap, mode=mode)
        except TooLargeError as exc:
            raise TooLargeError(exc.size, exc.cap, f"bag {t}") from exc
    return CentredDecompositionResult(_all_centred(per_bag.values()), per_bag, k, d)


def _all_centred(results):
    """Tri-state conjunction of verdicts: any False, else any None (unknown),
    else True."""
    verdicts = [r.centred for r in results]
    if any(v is False for v in verdicts):
        return False
    if any(v is None for v in verdicts):
        return None
    return True


@dataclass(frozen=True)
class BagStat:
    size: int
    independence_number: int
    domination_number: int
    centred: CentredResult | None = None


@dataclass(frozen=True)
class BagMetrics:
    per_bag: dict[int, BagStat]
    independence_number: int
    domination_number: int
    queried: tuple[int, int] | None = None
    all_centred: bool | None = None


def bag_metrics(g, td, k=None, d=None, cap=DEFAULT_CAP, mode="exact"):
    """Exact independence and domination numbers of every bag.

    When (k, d) is supplied each bag also gets a centred verdict. The
    decomposition-level numbers are the maxima over bags.
    """
    per_bag = {}
    for t in sorted(td.nodes):
        bag = td.bag(t)
        if not bag:
            per_bag[t] = BagStat(0, 0, 0)
            continue
        sub, _ = induced_subgraph(g, bag)
        try:
            alpha = exact_independence_number(sub, cap)
            gamma = exact_domination_number(sub, cap)
        except TooLargeError as exc:
            raise TooLargeError(exc.size, exc.cap, f"bag {t}") from exc
        centred = None
        if k is not None and d is not None:
            centred = centred_check(g, bag, k, d, cap=cap, mode=mode)
        per_bag[t] = BagStat(len(bag), alpha, gamma, centred)
    alpha_max = max(stat.independence_number for stat in per_bag.values())
    gamma_max = max(stat.domination_number for stat in per_bag.values())
    if k is None or d is None:
        return BagMetrics(per_bag, alpha_max, gamma_max)
    all_centred = _all_centred(s.centred for s in per_bag.values() if s.centred)
    return BagMetrics(per_bag, alpha_max, gamma_max, (k, d), all_centred)
