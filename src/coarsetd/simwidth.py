"""Sim-width machinery: branch decompositions, the induced-matching cut
value, conversion to a domination-bounded tree decomposition (one walk of
the leaf-to-leaf paths reads both the cuts and the bags), and the
end-to-end run through the width-reducing pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_

from .decomposition import TreeDecomposition, each_bag
from .errors import EmptySetError, MalformedDecompositionError
from .exact import (
    DEFAULT_CAP,
    _check_cap,
    _independent,
    bag_masks,
    dominating_mask,
)
from .graph import bfs, check_vertices, is_tree, sweep_path
from .pipeline import PipelineReport, run_pipeline

SIMVAL_CAP = 32


def six_k(branch_width):
    """The 6k bound on bag domination, which is also the centred piece
    count; clamped to 1, since a non-empty bag needs one piece even at
    branch width 0 (an edgeless graph)."""
    return max(6 * branch_width, 1)


class BranchDecomposition:
    """A subcubic tree with the graph's vertices mapped bijectively onto
    its leaves. Removing any tree edge splits the vertex set in two."""

    __slots__ = ("tree", "leaf_map")

    def __init__(self, tree, leaf_map):
        if not is_tree(tree):
            raise MalformedDecompositionError("branch decomposition is not a tree")
        if any(tree.degree(t) > 3 for t in tree.vertices):
            raise MalformedDecompositionError("branch tree has a node of degree > 3")
        n = len(leaf_map)
        # a one-node tree's node is its leaf
        leaves = {t for t in tree.vertices if tree.degree(t) <= 1}
        if n >= 3:
            bad = [
                t
                for t in tree.vertices
                if t not in leaves and tree.degree(t) != 3
            ]
            if bad:
                raise MalformedDecompositionError(
                    f"internal nodes {bad} do not have degree 3"
                )
        if set(leaf_map.values()) != leaves or len(set(leaf_map.values())) != n:
            raise MalformedDecompositionError(
                "leaf map is not a bijection onto the leaves"
            )
        if set(leaf_map.keys()) != set(range(1, n + 1)):
            raise MalformedDecompositionError(
                "leaf map must cover vertices 1..n exactly"
            )
        self.tree = tree
        self.leaf_map = dict(leaf_map)

    @property
    def n(self):
        return len(self.leaf_map)

    def side(self, edge):
        """Vertices mapped into the component of edge[0] after removing edge."""
        a, b = edge
        if b not in self.tree.adjacency[a]:
            raise ValueError(f"({a},{b}) is not a tree edge")
        # every path from a to b's side runs through b, so barring b cuts it off
        seen = bfs(self.tree.adjacency, [a], within=set(self.tree.vertices) - {b})
        return frozenset(v for v, t in self.leaf_map.items() if t in seen)

    def __repr__(self):
        return f"BranchDecomposition(n={self.n}, tree_nodes={self.tree.n})"


def simval(g, a, cap=SIMVAL_CAP):
    """Maximum induced matching with one endpoint inside `a` and one outside."""
    inside = frozenset(a)
    check_vertices(g, inside)
    cut = sorted(
        (u, v) if u in inside else (v, u)
        for u, v in g.edges
        if (u in inside) != (v in inside)
    )
    _check_cap(len(cut), cap, "cut")
    return _cut_value(g, cut, 0)


def _cut_value(g, cut, beat):
    """simval of the cut whose edges are listed in `cut`, if it is more than
    `beat`; else 0.

    The cut edges conflict when they share an endpoint or any graph edge
    joins their endpoints; an induced matching is an independent set in
    that conflict graph, found exactly. Cut edge (u, v) conflicts with every
    cut edge at a vertex of {u, v} | N(u) | N(v), so its conflict mask is
    reach[u] | reach[v], where reach[w] holds the cut edges at w or at a
    neighbour of w.
    """
    at = {}
    for i, edge in enumerate(cut):
        for w in edge:
            at[w] = at.get(w, 0) | 1 << i
    reach = {
        w: reduce(or_, map(at.get, at.keys() & g.adjacency[w]), here)
        for w, here in at.items()
    }
    conflicts = [
        (reach[u] | reach[v]) & ~(1 << i) for i, (u, v) in enumerate(cut)
    ]
    return _independent(conflicts, beat).bit_count()


def _walk(g, bd, cap):
    """One pass over the leaf-to-leaf paths of the graph edges: an edge's
    ends join the bag of every node on its path, and the edge joins the cut
    of every tree edge on it. Returns the tree decomposition and the cuts in
    sorted tree-edge order, each as at most cap of its edges and its size."""
    if bd.n != g.n:
        raise MalformedDecompositionError(
            f"branch decomposition covers {bd.n} vertices, graph has {g.n}"
        )
    bags = {t: set() for t in bd.tree.vertices}
    for v in g.vertices:
        bags[bd.leaf_map[v]].add(v)
    cuts = {e: [] for e in sorted(bd.tree.edges)}
    sizes = dict.fromkeys(cuts, 0)
    for u, v in sorted(g.edges):
        path = sweep_path(bd.tree, bd.leaf_map[u], bd.leaf_map[v])
        for t in path:
            bags[t].update((u, v))
        for x, y in zip(path, path[1:]):
            e = (x, y) if x < y else (y, x)
            sizes[e] += 1
            if sizes[e] <= cap:
                cuts[e].append((u, v))
    return TreeDecomposition(bd.tree, bags), [(cuts[e], sizes[e]) for e in cuts]


def _width_and_td(g, bd, cap):
    """branch_width_sim and sim_to_td off one walk. An induced matching in a
    cut has distinct first ends and distinct second ends, so the fewer of
    the two bounds its value. Cuts are solved from the highest bound down,
    each only for a value above the best so far, until no bound is above
    it."""
    td, cuts = _walk(g, bd, cap)
    for _, size in cuts:
        _check_cap(size, cap, "cut")
    ends = [(min(len({u for u, _ in c}), len({v for _, v in c})), c) for c, _ in cuts]
    best = 0
    for bound, cut in sorted(ends, key=itemgetter(0), reverse=True):
        if bound <= best:
            break
        best = _cut_value(g, cut, best) or best
    return best, td


def branch_width_sim(g, bd, cap=SIMVAL_CAP):
    """Maximum cut value over the tree edges of the branch decomposition,
    read off the walk that fills sim_to_td's bags. The cut sizes are
    checked in sorted tree-edge order, so the first over the cap raises."""
    return _width_and_td(g, bd, cap)[0]


def sim_to_td(g, bd):
    """Tree decomposition on the branch tree, placing each edge's endpoints
    along the leaf-to-leaf path.

    Every vertex also sits in the bag of its own leaf, which keeps isolated
    vertices covered; leaf bags are dominated by their own vertex. With
    branch width k, every bag has domination number at most 6k (at most 1
    at the leaves).
    """
    return _walk(g, bd, 0)[0]


def dominating_partition(g, s, cap=DEFAULT_CAP):
    """Split `s` so every piece huddles around one member of a minimum
    dominating set of the induced subgraph.

    Non-dominators join their smallest-id adjacent dominator, so each piece
    has weak diameter at most 2 in g and there are exactly gamma(g[s])
    pieces: a certificate that s is (gamma, 3)-centred.
    """
    members = frozenset(s)
    if not members:
        raise EmptySetError("cannot partition the empty set")
    vs = sorted(members)
    adj = bag_masks(g, vs, cap)
    chosen = dominating_mask(adj)
    groups = {vs[i]: [vs[i]] for i in range(len(vs)) if chosen >> i & 1}
    for i, v in enumerate(vs):
        if v not in groups:
            # the lowest bit is the smallest-id adjacent dominator
            adjacent = adj[i] & chosen
            groups[vs[(adjacent & -adjacent).bit_length() - 1]].append(v)
    return tuple(frozenset(group) for group in groups.values())


@dataclass(frozen=True)
class SimwidthReport:
    """Record of a sim-width run: conversion, certificates, pipeline."""

    branch_width: int
    decomposition: TreeDecomposition
    bag_domination_max: int
    certificates: dict[int, tuple[frozenset, ...]]
    centred_k: int
    centred_d: int
    pipeline: PipelineReport

    @property
    def width_out(self):
        return self.pipeline.width_out

    @property
    def checks(self):
        checks = {
            "bag_domination_le_6k": self.bag_domination_max
            <= six_k(self.branch_width),
            "width_le_12k_minus_1": self.width_out
            <= 2 * self.centred_k - 1,
        }
        checks.update(
            {f"pipeline_{name}": ok for name, ok in self.pipeline.checks.items()}
        )
        return checks

    @property
    def ok(self):
        return all(self.checks.values())

    def to_dict(self):
        out = {
            "branch_width": self.branch_width,
            "bag_domination_max": self.bag_domination_max,
            "centred_k": self.centred_k,
            "centred_d": self.centred_d,
        }
        out.update(self.pipeline.to_dict())
        return out


def simwidth_pipeline(g, bd, cap=DEFAULT_CAP, simval_cap=SIMVAL_CAP, budget=None):
    """Branch decomposition to low-treewidth quasi-isometry, end to end.

    Converts to a tree decomposition, certifies each bag as (6k,3)-centred
    through a dominating partition (pieces of weak diameter at most 2 by
    construction, not re-measured), and hands the decomposition to the
    pipeline with parameters (6k, 3), centred check waived; the final width
    is then at most 12k-1, with 6k clamped as in six_k at branch width 0.
    """
    k, td = _width_and_td(g, bd, simval_cap)
    centred_k = six_k(k)

    certificates = each_bag(td, lambda bag: dominating_partition(g, bag, cap))
    gamma_max = max(map(len, certificates.values()), default=0)
    report = run_pipeline(
        g, td, centred_k, 3, check_centred=False, budget=budget, cap=cap
    )
    return SimwidthReport(k, td, gamma_max, certificates, centred_k, 3, report)

