"""Simple undirected graphs with cached metric data.

Vertices are the integers 1..n. Graphs are immutable once built, so shared
instances are safe to read concurrently and every operation here is a pure
function of its arguments. Connected components and distances are computed
lazily and cached on the instance.

Distances come from one of two kernels, chosen once per graph. A short
graph answers from level masks (`Graph.balls`): bitsets of the vertices
within distance r of each vertex, built one radius at a time by OR-ing
neighbours' masks. Every other graph reads all-pairs BFS rows
(`Graph.distances`). The component sweep measures e, the largest depth
reached from a component's smallest vertex; the diameter D then lies
between e and 2e, and the masks take at most D + 1 levels. A graph is
short when (2e + 1)(n + 280) <= 56n + 448, which keeps its masks (n ints
of up to n + 1 bits per level) no larger than the rows they replace (n
lists of n + 1 slots); that caps e below 28 and at n/8.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import or_

from .errors import EmptySetError


class Graph:
    """Simple, undirected, unweighted, finite graph on vertices 1..n."""

    __slots__ = (
        "n", "edges", "adjacency", "_components", "_distances", "_short", "_masks"
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
        self._distances = None
        self._short = None
        self._masks = None

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

    def distances(self):
        """All-pairs hop distances as rows, dm[u][v]; computed once and cached.

        Row 0 and index 0 of each row are unused; None marks "no path", and
        comparing or doing arithmetic with it raises.
        """
        if self._distances is None:
            rows = [None] * (self.n + 1)
            for v in self.vertices:
                rows[v] = single_source_distances(self, v)
            self._distances = rows
        return self._distances

    def balls(self, r):
        """Level masks for radius r: entry v (entry 0 unused) has bit w set
        for every vertex w within distance r of v. Built one level per pass
        and cached; once a level repeats, it stands for every larger r.

        A published list is never changed: each new level publishes a new
        list, so a reader on another thread keeps a consistent snapshot and
        two threads extending at once only repeat work."""
        masks = self._masks
        if masks is None:
            masks = self._masks = [[0] + [1 << v for v in self.vertices]]
        # a settled list ends in the same level object twice
        while len(masks) <= r and (len(masks) < 2 or masks[-1] is not masks[-2]):
            level = spread(self.adjacency, masks[-1])
            masks = self._masks = masks + [masks[-1] if level == masks[-1] else level]
        return masks[min(r, len(masks) - 1)]

    def short(self):
        """True when distance questions read level masks rather than rows
        (see the module docstring); decided by the component sweep."""
        if self._short is None:
            self._sweep()
        return self._short

    def _sweep(self):
        """BFS from the smallest vertex of each component, in order: caches
        the components and the kernel choice, and returns {vertex: depth}."""
        depth = {}
        comps = []
        for root in self.vertices:
            if root not in depth:
                reached = bfs(self.adjacency, [root])
                depth.update(reached)
                comps.append(frozenset(reached))
        self._components = 1 if len(comps) == 1 else tuple(comps)
        e = max(depth.values(), default=0)
        # at most 2e + 1 levels of n masks, each at most 40 + n/7 bytes with
        # its list slot, against n rows of 8n + 64 bytes
        self._short = (2 * e + 1) * (self.n + 280) <= 56 * self.n + 448
        return depth

    def connected_components(self):
        """Components as frozensets, ordered by smallest member; computed
        once and cached, returned as a fresh list. A connected graph caches
        only its count, 1, rather than a copy of its vertex set."""
        if self._components is None:
            self._sweep()
        if self._components == 1:
            return [frozenset(self.vertices)]
        return list(self._components)

    def is_connected(self):
        if self._components is None:
            self.connected_components()
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
    is unused."""
    dist = [None] * (g.n + 1)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] is None:
                dist[w] = du + 1
                queue.append(w)
    return dist


def spread(adj, level):
    """The next level of masks: each vertex ORs in its neighbours' masks."""
    return [0] + [
        reduce(or_, map(level.__getitem__, adj[v]), level[v])
        for v in range(1, len(level))
    ]


def bfs(adj, sources, within=None):
    """Breadth-first search over the adjacency map `adj`.

    Returns {vertex: depth} in visit order, depth 0 at the sources. When
    `within` is given, only its members are entered besides the sources.
    """
    depth = dict.fromkeys(sources, 0)
    queue = deque(depth)
    while queue:
        u = queue.popleft()
        du = depth[u] + 1
        for w in adj[u]:
            if w not in depth and (within is None or w in within):
                depth[w] = du
                queue.append(w)
    return depth


def _tree_paths(tree):
    """Parent/depth tables rooted at node 1, for path walks."""
    depth = bfs(tree.adjacency, [1])
    parent = {
        t: next((s for s in tree.adjacency[t] if depth[s] < depth[t]), None)
        for t in depth
    }
    return parent, depth


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
    if g.short():
        target = reduce(or_, (1 << v for v in members))
        r, ball = 0, g.balls(0)
        for u in members:
            while ball[u] & target != target:
                wider = g.balls(r + 1)
                if wider is ball:  # settled short of the whole set
                    return None
                r, ball = r + 1, wider
        return r
    dm = g.distances()
    best = 0
    for i, u in enumerate(members):
        row = dm[u]
        for v in members[i + 1:]:
            d = row[v]
            if d is None:
                return None
            if d > best:
                best = d
    return best


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
    edges = []
    if g.short():
        ball, bits = g.balls(d), [1 << v for v in vs]
        for i, u in enumerate(vs):
            mask = ball[u]
            edges += [(i + 1, j + 1) for j in range(i + 1, len(vs)) if mask & bits[j]]
        return Graph(len(vs), edges)
    dm = g.distances()
    for i, u in enumerate(vs):
        row = dm[u]
        for j in range(i + 1, len(vs)):
            dist = row[vs[j]]
            if dist is not None and dist <= d:
                edges.append((i + 1, j + 1))
    return Graph(len(vs), edges)


def induced_subgraph(g, s):
    """Induced subgraph relabelled onto 1..|s|, plus the id list mapping back;
    g itself (with its distance table) when `s` is the whole vertex set."""
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
    whose consecutive members (and the closing pair) are adjacent.
    """
    depth = g._sweep()
    for u, w in g.edges:
        if depth[u] == depth[w]:
            return False, _odd_cycle(g, depth, u, w)
    return True, {v: depth[v] & 1 for v in g.vertices}


def _odd_cycle(g, depth, u, w):
    """Adjacent u, w at equal BFS depth: climb both to their common ancestor."""
    up_u, up_w = [u], [w]
    while up_u[-1] != up_w[-1]:
        for path in (up_u, up_w):
            x = path[-1]
            path.append(min(y for y in g.adjacency[x] if depth[y] == depth[x] - 1))
    return up_u + up_w[-2::-1]
