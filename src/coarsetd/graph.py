"""Simple undirected graphs with cached metric data.

Vertices are the integers 1..n. Graphs are immutable once built, so shared
instances are safe to read concurrently and every operation here is a pure
function of its arguments. All-pairs distances are computed lazily and
cached on the instance.
"""

from __future__ import annotations

from collections import deque

from .errors import EmptySetError


class _Unreachable:
    """Marker for vertex pairs with no connecting path.

    A distinguished value rather than a sentinel integer: comparing or doing
    arithmetic with it raises, so disconnected inputs fail loudly.
    """

    __slots__ = ()

    def __repr__(self):
        return "Unreachable"


UNREACHABLE = _Unreachable()


class Graph:
    """Simple, undirected, unweighted, finite graph on vertices 1..n."""

    __slots__ = ("n", "edges", "adjacency", "_distances")

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
        self._distances = None

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
        """All-pairs hop distances, computed once and cached."""
        if self._distances is None:
            rows = [None] * (self.n + 1)
            for v in self.vertices:
                rows[v] = single_source_distances(self, v)
            self._distances = DistanceMatrix(self.n, rows)
        return self._distances

    def connected_components(self):
        """Components as frozensets, ordered by smallest member."""
        seen = set()
        comps = []
        for root in self.vertices:
            if root not in seen:
                comp = frozenset(bfs(self.adjacency, [root]))
                seen |= comp
                comps.append(comp)
        return comps

    def is_connected(self):
        return len(self.connected_components()) <= 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class DistanceMatrix:
    """Symmetric table of hop distances with explicit Unreachable entries."""

    __slots__ = ("n", "_rows")

    def __init__(self, n, rows):
        self.n = n
        self._rows = rows

    def dist(self, u, v):
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"vertex pair ({u},{v}) outside range 1..{self.n}")
        return self._rows[u][v]

    def row(self, u):
        return self._rows[u]

    def __repr__(self):
        return f"DistanceMatrix(n={self.n})"


def single_source_distances(g, source):
    """BFS distances from one vertex; index 0 is unused."""
    dist = [UNREACHABLE] * (g.n + 1)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] is UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


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


def distances_from_set(g, sources):
    """Multi-source BFS: distance from each vertex to the nearest source."""
    if not sources:
        raise EmptySetError("source set must be non-empty")
    dist = [UNREACHABLE] * (g.n + 1)
    for v, dv in bfs(g.adjacency, sources).items():
        dist[v] = dv
    return dist


def weak_diameter(g, s):
    """Max distance between members of `s`, measured in the whole graph.

    Returns UNREACHABLE when `s` straddles two components.
    """
    members = sorted(s)
    if not members:
        raise EmptySetError("weak diameter of the empty set is undefined")
    for v in members:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside range 1..{g.n}")
    dm = g.distances()
    best = 0
    for i, u in enumerate(members):
        row = dm.row(u)
        for v in members[i + 1:]:
            d = row[v]
            if d is UNREACHABLE:
                return UNREACHABLE
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
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside range 1..{g.n}")
    dm = g.distances()
    edges = []
    for i, u in enumerate(vs):
        row = dm.row(u)
        for j in range(i + 1, len(vs)):
            dist = row[vs[j]]
            if dist is not UNREACHABLE and dist <= d:
                edges.append((i + 1, j + 1))
    return Graph(len(vs), edges)


def induced_subgraph(g, s):
    """Induced subgraph relabelled onto 1..|s|, plus the id list mapping back."""
    vs = sorted(s)
    index = {v: i + 1 for i, v in enumerate(vs)}
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside range 1..{g.n}")
    edges = [
        (index[u], index[v])
        for u in vs for v in g.adjacency[u]
        if u < v and v in index
    ]
    return Graph(len(vs), edges), vs


def complement_graph(g):
    edges = [
        (u, v)
        for u in g.vertices
        for v in range(u + 1, g.n + 1)
        if v not in g.adjacency[u]
    ]
    return Graph(g.n, edges)


def is_tree(g):
    return g.n >= 1 and g.m == g.n - 1 and g.is_connected()


def is_bipartite(g):
    """Parity BFS. Returns (True, coloring) or (False, odd cycle).

    The coloring maps every vertex to 0/1; the odd cycle is a vertex list
    whose consecutive members (and the closing pair) are adjacent.
    """
    depth = {}
    for root in g.vertices:
        if root not in depth:
            depth.update(bfs(g.adjacency, [root]))
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
