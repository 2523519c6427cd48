"""Forward pipeline: from a (k,d)-centred decomposition to a quasi-isometric
graph of width at most 2k-1.

Stage 1 augments the graph with edges between bag-mates at distance <= d,
making every bag a union of at most k cliques (bag independence <= k).
Stage 2 partitions the augmented graph into connected parts so that the
quotient is bipartite, contracts, and pushes the decomposition through the
contraction; bags of a bipartite graph with independence <= k hold at most
2k vertices. Both stages are quasi-isometries, measured individually, and
composed at the end.

Every input runs per component (a connected one is its own single
component), and the quasi-isometry constants are reported per component
since cross-component distances are undefined. Each component's
decomposition keeps td.tree, with the bags restricted to the component, so
the final decomposition lays copy i of td.tree (T nodes) on nodes
i*T+1..(i+1)*T, holding component i's pushed bags; a node of copy i whose
original bag holds no vertex of component i has an empty bag. Consecutive
copies are linked end to end for a path (the last node of degree <= 1 in
copy i-1 to the first in copy i) and node 1 to node 1 for a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .decomposition import (
    TreeDecomposition,
    centred_check_decomposition,
    each_bag,
    require_valid,
)
from .errors import (
    BudgetExceededError,
    DiameterExceededError,
    DisconnectedError,
    EmptySetError,
    InvalidPartitionError,
    PreconditionError,
)
from .exact import DEFAULT_CAP, _check_cap, bag_masks, independent_mask
from .graph import (
    Graph,
    bfs,
    induced_subgraph,
    is_bipartite,
    single_source_distances,
    weak_diameter,
)
from .quasiiso import QuasiIsometryMap, compose, identity_map, measure

EXACT_PARTITION_LIMIT = 12


class Partition:
    """Partition of V(g) into connected parts, in canonical order.

    Parts are sorted by smallest member; part i corresponds to vertex i of
    `quotient`, which contracts each part to a single vertex (parts are
    adjacent exactly when some edge crosses between them).
    """

    __slots__ = ("graph", "parts", "index", "quotient", "_diameters")

    def __init__(self, g, parts):
        cleaned = []
        seen = set()
        for part in parts:
            members = frozenset(part)
            if not members:
                raise InvalidPartitionError("empty part")
            if members & seen:
                raise InvalidPartitionError(
                    f"parts overlap at {sorted(members & seen)}"
                )
            seen |= members
            cleaned.append(members)
        if seen != set(g.vertices):
            missing = sorted(set(g.vertices) - seen)
            extra = sorted(seen - set(g.vertices))
            raise InvalidPartitionError(
                f"parts do not cover the vertex set (missing {missing}, extra {extra})"
            )
        for members in cleaned:
            if len(bfs(g.adjacency, [min(members)], within=members)) < len(members):
                raise InvalidPartitionError(
                    f"part {sorted(members)} does not induce a connected subgraph"
                )
        self.graph = g
        self.parts = tuple(sorted(cleaned, key=min))
        self.index = {}
        for i, members in enumerate(self.parts, 1):
            for v in members:
                self.index[v] = i
        edges = set()
        for u, v in g.edges:
            a, b = self.index[u], self.index[v]
            if a != b:
                edges.add((a, b) if a < b else (b, a))
        self.quotient = Graph(len(self.parts), edges)
        self._diameters = None

    def diameters(self):
        """Weak diameter of each part, in part order; computed once. The
        parts are connected, so each is a number."""
        if self._diameters is None:
            self._diameters = tuple(weak_diameter(self.graph, p) for p in self.parts)
        return self._diameters

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition(parts={len(self.parts)}, n={self.graph.n})"


def quotient_map(p, d):
    """The contraction map p.graph -> p.quotient, measured; the parts must
    have weak diameter strictly below d."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    g = p.graph
    for part, diam in zip(p.parts, p.diameters()):
        if diam >= d:
            raise DiameterExceededError(part, diam, d)
    phi = QuasiIsometryMap(g, p.quotient, dict(p.index))
    return measure(g, p.quotient, phi, d)


def push_decomposition(td, p):
    """Decomposition of p.quotient: a part joins every bag it meets."""
    bags = {}
    for t in td.nodes:
        bags[t] = frozenset(p.index[v] for v in td.bag(t))
    return TreeDecomposition(td.tree, bags, shape=td.shape)


def augment(g, td, d):
    """Add an edge between any two bag-mates at distance <= d.

    Precondition: td is a valid decomposition of g (not rechecked here).
    Returns (h, identity quasi-isometry g -> h); td is a decomposition of h
    too: new edges stay inside bags, traces are untouched. When no edge is
    added, h is g itself, so the two share one sweep and one set of level
    masks. On a connected graph the identity map carries its constant: 1
    when h is g, by definition, else measured (at most max(d, 1)); on a
    disconnected one it is returned unmeasured.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    new = []
    if d > 1:  # bag-mates within distance 1 are adjacent already
        # co[u]: the vertices sharing a bag with u; u's new edges go to those
        # above u (the mask -(2 << u)) within distance d and not yet adjacent
        co = [0] * (g.n + 1)
        for bag in td.bags.values():
            mask = reduce(or_, (1 << v for v in bag), 0)
            for v in bag:
                co[v] |= mask
        if g.fits(d):
            ball, near = g.balls(1), g.balls(d)
            for u in g.vertices:
                new += [(u, v) for v in _bits(co[u] & near[u] & ~ball[u] & -(2 << u))]
        else:
            for u in g.vertices:
                mates = [v for v in _bits(co[u] & -(2 << u)) if v not in g.adjacency[u]]
                if mates:
                    row = single_source_distances(g, u)
                    new += [(u, v) for v in mates if row[v] is not None and row[v] <= d]
    h = Graph(g.n, g.edges.union(new)) if new else g
    if g.n == 0 or not g.is_connected():
        return h, identity_map(g, h)
    if h is g:
        return h, QuasiIsometryMap(g, h, {v: v for v in g.vertices}, measured_q=1)
    return h, measure(g, h, identity_map(g, h), max(d, 1))


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        yield (low := mask & -mask).bit_length() - 1
        mask ^= low


def layered_parts(g):
    """Connected components of each BFS layer, rooted at the smallest vertex
    of each component; the layers are those of g's component sweep.

    Same-layer edges stay inside parts and cross-layer edges only join
    consecutive layers, so layer parity properly 2-colors the quotient.
    """
    depth = g._sweep()[0]
    layers = {}
    for v in g.vertices:
        layers.setdefault(depth[v], set()).add(v)
    parts = []
    for layer in layers.values():
        remaining = set(layer)
        while remaining:
            part = frozenset(bfs(g.adjacency, [remaining.pop()], within=layer))
            parts.append(part)
            remaining -= part
    return parts


@dataclass(frozen=True)
class BipartitePartitionResult:
    partition: Partition
    max_diameter: int
    method: str


def bipartite_partition(g, budget=None):
    """Partition g into connected parts whose quotient is bipartite.

    The default is BFS layering; the achieved maximum weak diameter is
    measured and reported, not promised in advance. When a budget is given
    and layering misses it, graphs of up to 12 vertices fall back to the
    exhaustive minimum-diameter search before giving up.
    """
    if g.n == 0:
        raise EmptySetError("cannot partition the empty graph")
    if not g.is_connected():
        raise DisconnectedError("bipartite partition needs a connected graph")
    partition = Partition(g, layered_parts(g))
    diam = max(partition.diameters())
    method = "layering"
    if budget is not None and diam > budget:
        if g.n <= EXACT_PARTITION_LIMIT:
            partition, diam = minimum_diameter_bipartite_partition(g)
            method = "exact"
        if diam > budget:
            raise BudgetExceededError(diam, budget)
    bip, _ = is_bipartite(partition.quotient)
    if not bip:
        raise AssertionError("internal error: partition quotient is not bipartite")
    return BipartitePartitionResult(partition, diam, method)


def minimum_diameter_bipartite_partition(g):
    """Exhaustive search for the partition with connected parts, bipartite
    quotient, and the smallest possible maximum weak diameter.

    Iterative deepening on the diameter bound with monotone pruning;
    exponential, so limited to 12 vertices.
    """
    if g.n == 0:
        raise EmptySetError("cannot partition the empty graph")
    if not g.is_connected():
        raise DisconnectedError("partition search needs a connected graph")
    _check_cap(g.n, EXACT_PARTITION_LIMIT, "graph")
    dm = [None] + [single_source_distances(g, v) for v in g.vertices]
    for bound in range(weak_diameter(g, g.vertices) + 1):
        partition = _search_partition(g, dm, bound)
        if partition is not None:
            return partition, bound
    raise AssertionError("internal error: the one-part partition always works")


def _search_partition(g, dm, bound):
    n = g.n
    parts = []

    def feasible(v, members):
        row = dm[v]
        return all(row[u] <= bound for u in members)

    def extend(v):
        if v > n:
            try:
                partition = Partition(g, parts)
            except InvalidPartitionError:  # some part is disconnected
                return None
            return partition if is_bipartite(partition.quotient)[0] else None
        for part in parts:
            if feasible(v, part):
                part.append(v)
                got = extend(v + 1)
                if got is not None:
                    return got
                part.pop()
        parts.append([v])
        got = extend(v + 1)
        if got is not None:
            return got
        parts.pop()
        return None

    return extend(1)


@dataclass(frozen=True)
class IndToTwResult:
    """Output of the contraction stage; the quotient graph is map.target."""

    map: QuasiIsometryMap
    decomposition: TreeDecomposition
    partition: Partition
    partition_diameter: int


def ind_to_tw(g, td, k, budget=None, cap=DEFAULT_CAP):
    """Contract a bipartite-quotient partition and push the decomposition.

    Precondition: td is a valid decomposition of g (not rechecked here).
    Requires bag independence at most k; the pushed decomposition then has
    bags of at most 2k quotient vertices, i.e. width at most 2k-1. Only
    bags of more than k vertices are solved and held to the cap.
    """

    def independence(bag):
        if len(bag) <= k:
            return 0
        return independent_mask(bag_masks(g, bag, cap)).bit_count()

    alpha = max(each_bag(td, independence).values(), default=0)
    if alpha > k:
        raise PreconditionError(f"bag independence number {alpha} exceeds {k}")
    bp = bipartite_partition(g, budget=budget)
    qmap = quotient_map(bp.partition, bp.max_diameter + 1)
    pushed = push_decomposition(td, bp.partition)
    return IndToTwResult(qmap, pushed, bp.partition, bp.max_diameter)


@dataclass(frozen=True)
class PipelineComponentRun:
    """One connected component's trip through both stages.

    Vertex ids inside are component-local (1..len(vertices)); `vertices`
    lists the original ids, position i holding the original of local i+1.
    The component is stage1.source and its augmentation stage1.target.
    """

    vertices: tuple[int, ...]
    stage1: QuasiIsometryMap
    stage2: IndToTwResult
    composed: QuasiIsometryMap
    claimed_bound: int


@dataclass(frozen=True)
class PipelineReport:
    """End-to-end record of a pipeline run; the input graph is
    final_map.source."""

    k: int
    d: int
    shape: str
    components: tuple[PipelineComponentRun, ...]
    final_graph: Graph
    final_decomposition: TreeDecomposition
    final_map: QuasiIsometryMap

    @property
    def width_out(self):
        return self.final_decomposition.width

    @property
    def stage1_constant(self):
        return max(c.stage1.measured_q for c in self.components)

    @property
    def stage2_constant(self):
        return max(c.stage2.map.measured_q for c in self.components)

    @property
    def composed_constant(self):
        return max(c.composed.measured_q for c in self.components)

    @property
    def claimed_bound(self):
        return max(c.claimed_bound for c in self.components)

    @property
    def partition_diameter(self):
        return max(c.stage2.partition_diameter for c in self.components)

    @property
    def checks(self):
        return {
            "width_le_2k_minus_1": self.width_out <= 2 * self.k - 1,
            "composed_le_claimed": all(
                c.composed.measured_q <= c.claimed_bound for c in self.components
            ),
            "shape_preserved": self.final_decomposition.shape == self.shape,
        }

    @property
    def ok(self):
        return all(self.checks.values())

    def to_dict(self):
        return {
            "k": self.k,
            "d": self.d,
            "width_out": self.width_out,
            "stage_constants": [self.stage1_constant, self.stage2_constant],
            "composed_constant": self.composed_constant,
            "claimed_bound": self.claimed_bound,
            "partition_diameter": self.partition_diameter,
        }


def _pipeline_component(g, td, original_vertices, k, d, check_centred, budget, cap):
    if check_centred:
        res = centred_check_decomposition(g, td, k, d, cap=cap, mode="exact")
        if res.all_centred is not True:
            bad = sorted(
                t for t, r in res.per_bag.items() if r.centred is not True
            )
            raise PreconditionError(
                f"decomposition is not ({k},{d})-centred (bags {bad}); "
                "pass check_centred=False to waive"
            )
    h, phi1 = augment(g, td, d)
    stage2 = ind_to_tw(h, td, k, budget=budget, cap=cap)
    # after the identity of g onto itself, stage 2's map is the composite
    composed = stage2.map if h is g else compose(phi1, stage2.map)
    claimed = (d + 2) * stage2.map.measured_q
    return PipelineComponentRun(
        tuple(original_vertices), phi1, stage2, composed, claimed
    )


def run_pipeline(g, td, k, d, *, check_centred=True, budget=None, cap=DEFAULT_CAP):
    """Run both stages and report every measured constant and check.

    Precondition: td is a valid (k,d)-centred decomposition of g; the
    centred check is run in exact mode unless waived with
    check_centred=False, in which case only measured outputs are reported.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if d < 0:
        raise ValueError("d must be non-negative")
    if g.n == 0:
        raise EmptySetError("cannot run the pipeline on the empty graph")
    require_valid(g, td)
    runs = []
    for comp in g.connected_components():
        sub, vs = induced_subgraph(g, comp)
        sub_td = td  # a connected g is its own component, with td's bags
        if sub is not g:
            local = {v: i + 1 for i, v in enumerate(vs)}
            restricted = {
                t: frozenset(local[v] for v in td.bag(t) if v in comp) for t in td.nodes
            }
            sub_td = TreeDecomposition(td.tree, restricted, shape=td.shape)
        runs.append(
            _pipeline_component(sub, sub_td, vs, k, d, check_centred, budget, cap)
        )
    # copy i of td.tree carries run i, its vertices shifted past runs 0..i-1
    tree = td.tree
    if td.shape == "path":
        ends = [t for t in td.nodes if tree.degree(t) <= 1]
        last, first = ends[-1], ends[0]
    else:
        last = first = 1
    tree_edges, bags, edges, mapping = [], {}, [], {}
    offset = 0
    for i, run in enumerate(runs):
        base = i * tree.n
        tree_edges += [(s + base, t + base) for s, t in tree.edges]
        if i:
            tree_edges.append((last + base - tree.n, first + base))
        pushed = run.stage2.decomposition
        for t in td.nodes:
            bags[t + base] = frozenset(x + offset for x in pushed.bag(t))
        quotient = run.stage2.map.target
        edges += [(x + offset, y + offset) for x, y in quotient.edges]
        for local_v, target in run.composed.mapping.items():
            mapping[run.vertices[local_v - 1]] = target + offset
        offset += quotient.n
    final_graph = Graph(offset, edges)
    final_td = TreeDecomposition(
        Graph(len(runs) * tree.n, tree_edges), bags, shape=td.shape
    )
    measured = runs[0].composed.measured_q if len(runs) == 1 else None
    final_map = QuasiIsometryMap(g, final_graph, mapping, measured_q=measured)
    return PipelineReport(k, d, td.shape, tuple(runs), final_graph, final_td, final_map)
