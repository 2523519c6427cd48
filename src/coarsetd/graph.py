"""Simple undirected graphs with cached metric data.

Vertices are the integers 1..n. Graphs are immutable once built, so shared
instances are safe to read concurrently and every operation here is a pure
function of its arguments. Connected components, BFS depths, level masks,
neighbour tuples and step-up neighbours are computed lazily and cached on
the instance; no distance row, and so no whole-graph distance table, is
ever kept.

Level masks (`Graph.balls`) are bitsets of the vertices within distance r
of each vertex, built one radius at a time by OR-ing neighbours' masks.
The component sweep measures e, the largest depth reached from a
component's smallest vertex, so the diameter D lies between e and 2e and
the masks for radius r take at most min(r, 2e) + 1 levels. One rule,
`g.fits(r)`, caps them at 56 levels: n masks of up to n + 1 bits each, so
56 levels stay within the 8 bytes per pair of an n x n table. A distance
question at radius r reads the masks when g fits r, and otherwise one
uncached BFS row (`single_source_distances`) per member. Rows walk a list
of neighbour tuples, built by the first row and published whole like a
mask level, and read their own visit list as the queue.
"""

from __future__ import annotations

from functools import reduce
from math import inf
from operator import or_

from .errors import EmptySetError

MASK_LEVELS = 56  # the most level masks a graph holds; see the docstring


class Graph:
    """Simple, undirected, unweighted, finite graph on vertices 1..n."""

    __slots__ = (
        "n", "edges", "adjacency", "_components", "_depth", "_masks", "_nbrs", "_up"
    )

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        adjacency = {v: set() for v in range(1, n + 1)}
        for u, v in canon:
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.n = n
        self.edges = frozenset(canon)
        self.adjacency = {v: frozenset(nbrs) for v, nbrs in adjacency.items()}
        self._components = None
        self._depth = None
        self._masks = None
        self._nbrs = None
        self._up = None

    @property
    def vertices(self):
        return range(1, self.n + 1)

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return v in self.adjacency[u]

    def degree(self, v):
        return len(self.adjacency[v])

    def balls(self, r):
        """Level masks for radius r: entry v (entry 0 unused) has bit w set
        for every vertex w within distance r of v. Built one level per pass
        and cached; once a level repeats, it stands for every larger r.

        A published list is never changed: each new level publishes a new
        list, so a reader on another thread keeps a consistent snapshot and
        two threads extending at once only repeat work. A 57th level raises
        ValueError: callers ask only for radii that g fits."""
        masks = self._masks
        if masks is None:
            masks = self._masks = [[0] + [1 << v for v in self.vertices]]
        # a settled list ends in the same level object twice
        while len(masks) <= r and (len(masks) < 2 or masks[-1] is not masks[-2]):
            if len(masks) == MASK_LEVELS:
                raise ValueError(f"radius {r} needs more than {MASK_LEVELS} mask levels")
            level = spread(self.adjacency, masks[-1])
            masks = self._masks = masks + [masks[-1] if level == masks[-1] else level]
        return masks[min(r, len(masks) - 1)]

    def fits(self, r):
        """True when the level masks up to radius r stay within MASK_LEVELS
        (see the module docstring); e comes from the component sweep."""
        return min(r, 2 * self._sweep()[1]) < MASK_LEVELS

    def _sweep(self):
        """BFS from the smallest vertex of each component, in order, made
        once: caches the components and returns (depth, e), where depth[v]
        is v's depth (index 0 unused) and e the largest depth reached."""
        if self._depth is None:
            depth = [None] * (self.n + 1)
            comps = []
            for root in self.vertices:
                if depth[root] is None:
                    reached = bfs(self.adjacency, [root])
                    for v, dv in reached.items():
                        depth[v] = dv
                    comps.append(frozenset(reached))
            depth[0] = 0
            self._components = 1 if len(comps) == 1 else tuple(comps)
            self._depth = depth, max(depth)
        return self._depth

    def connected_components(self):
        """Components as frozensets, ordered by smallest member; computed
        once and cached, returned as a fresh list. A connected graph caches
        only its count, 1, rather than a copy of its vertex set."""
        self._sweep()
        if self._components == 1:
            return [frozenset(self.vertices)]
        return list(self._components)

    def is_connected(self):
        self._sweep()
        return self._components in (1, ())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def single_source_distances(g, source):
    """BFS distances from one vertex, None where there is no path; index 0
    is unused. The row is not cached; the neighbour tuples it walks are,
    built by g's first row and published as one list."""
    nbrs = g._nbrs
    if nbrs is None:
        nbrs = g._nbrs = [()] + [tuple(g.adjacency[v]) for v in g.vertices]
    dist = [None] * (g.n + 1)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the visit list is the queue
        du = dist[u] + 1
        for w in nbrs[u]:
            if dist[w] is None:
                dist[w] = du
                queue.append(w)
    return dist


def spread(adj, level):
    """The next level of masks: each vertex ORs in its neighbours' masks."""
    return [0] + [
        reduce(or_, map(level.__getitem__, adj[v]), level[v])
        for v in range(1, len(level))
    ]


def bfs(adj, sources, within=None, radius=inf):
    """Breadth-first search over the adjacency map `adj`.

    Returns {vertex: depth} in visit order, depth 0 at the sources. When
    `within` is given, only its members are entered besides the sources;
    no vertex deeper than `radius` is entered.
    """
    depth = dict.fromkeys(sources, 0)
    queue = list(depth)
    for u in queue:
        du = depth[u] + 1
        if du > radius:
            break
        for w in adj[u]:
            if w not in depth and (within is None or w in within):
                depth[w] = du
                queue.append(w)
    return depth


def sweep_path(g, a, b):
    """The path from a to b through the component sweep: the deeper end
    (both, at equal depth) steps to its smallest neighbour one level up
    until the ends meet. In a tree this is the tree path. The step-up
    neighbours are built by g's first path and published as one list."""
    depth, up = g._sweep()[0], g._up
    if up is None:
        up = g._up = [None] + [
            min((y for y in g.adjacency[x] if depth[y] == depth[x] - 1), default=None)
            for x in g.vertices
        ]
    up_a, up_b = [a], [b]
    while up_a[-1] != up_b[-1]:
        x, y = up_a[-1], up_b[-1]
        if depth[x] >= depth[y]:
            up_a.append(up[x])
        if depth[y] >= depth[x]:
            up_b.append(up[y])
    return up_a + up_b[-2::-1]


def check_vertices(g, vs):
    """Raise ValueError naming the first member of `vs` outside 1..n."""
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside range 1..{g.n}")


def weak_diameter(g, s):
    """Max distance between members of `s`, measured in the whole graph.

    Returns None when `s` straddles two components.
    """
    members = sorted(s)
    if not members:
        raise EmptySetError("weak diameter of the empty set is undefined")
    check_vertices(g, members)
    target = reduce(or_, (1 << v for v in members))
    r, ball = 0, g.balls(0)
    for i, u in enumerate(members):
        while ball[u] & target != target:
            if not g.fits(r + 1):
                # earlier members reach the whole set within r; u and the
                # later ones read one row each
                for w in members[i:]:
                    row = single_source_distances(g, w)
                    dists = [row[v] for v in members]
                    if None in dists:
                        return None
                    r = max(r, *dists)
                return r
            wider = g.balls(r + 1)
            if wider is ball:  # settled short of the whole set
                return None
            r, ball = r + 1, wider
    return r


def near_pairs(g, d, vs):
    """Index pairs (i, j), 1 <= i < j, of the members vs[i-1], vs[j-1] of
    the sorted list `vs` that lie within distance d of each other."""
    pairs = []
    if g.fits(d):
        ball, bits = g.balls(d), [1 << v for v in vs]
        for i, u in enumerate(vs, 1):
            mask = ball[u]
            pairs += [(i, j + 1) for j in range(i, len(vs)) if mask & bits[j]]
        return pairs
    for i, u in enumerate(vs[:-1], 1):  # the last row adds no pair
        row = single_source_distances(g, u)
        near = [x is not None and x <= d for x in map(row.__getitem__, vs)]
        pairs += [(i, j + 1) for j in range(i, len(vs)) if near[j]]
    return pairs


def power_graph(g, d, restrict=None):
    """Graph joining vertices of `restrict` at distance <= d in `g`.

    When `restrict` is a proper subset, the result is relabelled onto
    1..|restrict| with vertex i standing for the i-th smallest member;
    with `restrict` covering all of g the labels are unchanged and d=1
    reproduces g itself.
    """
    if d < 1:
        raise ValueError("power graph exponent must be >= 1")
    vs = sorted(restrict) if restrict is not None else list(g.vertices)
    check_vertices(g, vs)
    return Graph(len(vs), near_pairs(g, d, vs))


def induced_subgraph(g, s):
    """Induced subgraph relabelled onto 1..|s|, plus the id list mapping back;
    g itself (with its cached sweep and masks) when `s` is the whole vertex
    set."""
    vs = sorted(s)
    check_vertices(g, vs)
    if len(vs) == g.n:
        return g, vs
    index = {v: i + 1 for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v])
        for u in vs for v in g.adjacency[u]
        if u < v and v in index
    ]
    return Graph(len(vs), edges), vs


def is_tree(g):
    return g.n >= 1 and g.m == g.n - 1 and g.is_connected()


def is_bipartite(g):
    """Parity BFS. Returns (True, coloring) or (False, odd cycle).

    The coloring maps every vertex to 0/1; the odd cycle is a vertex list
    whose consecutive members (and the closing pair) are adjacent: the
    sweep path between the ends of an edge within one level.
    """
    depth = g._sweep()[0]
    for u, w in g.edges:
        if depth[u] == depth[w]:
            return False, sweep_path(g, u, w)
    return True, {v: depth[v] & 1 for v in g.vertices}
