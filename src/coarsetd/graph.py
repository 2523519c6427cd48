"""Simple undirected graphs with cached metric data.

Vertices are the integers 1..n. Graphs are immutable once built, so shared
instances are safe to read concurrently and every operation here is a pure
function of its arguments. Connected components, BFS depths, level masks,
neighbour tuples and step-up neighbours are computed lazily and cached on
the instance; no distance row, and so no whole-graph distance table, is
ever kept.

Level masks (`Graph.balls`) are bitsets of the vertices within distance r
of each vertex, built one radius at a time by OR-ing neighbours' masks
(the bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD 2013). `spread`
builds a level one neighbour column at a time: the vertices, laid out once
in degree order, take their j-th neighbours' masks in one C-level pass
per column while the column covers at least 32 vertices; the few of
higher degree, and every vertex of a graph too small for any column, fold
their remaining neighbours one at a time. Blocks of 128 vertices keep at
most one block of partial masks alive beside the finished level.
The component sweep measures e, the largest depth reached from a
component's smallest vertex, so the diameter D lies between e and 2e and
the masks for radius r take at most min(r, 2e) + 1 levels. One rule,
`g.fits(r)`, caps them at 56 levels: n masks of up to n + 1 bits each, so
56 levels stay within the 8 bytes per pair of an n x n table. A distance
question at radius r reads the masks when g fits r, and otherwise one
uncached BFS row (`single_source_distances`) per member. A row may start
from several vertices at once and then holds the distance to the nearest.
Rows walk a list of neighbour tuples, built by the first row or mask
level and published whole like a level, and read their own visit list as
the queue; the column layout is built from the same tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from math import inf
from operator import neg, or_

from .errors import EmptySetError

MASK_LEVELS = 56  # the most level masks a graph holds; see the docstring
_COLUMN_MIN = 32  # the fewest slots a neighbour column serves; see spread
_BLOCK = 128  # slots per block of partial masks; see spread


class Graph:
    """Simple, undirected, unweighted, finite graph on vertices 1..n."""

    __slots__ = (
        "n", "edges", "adjacency", "_components", "_depth", "_masks", "_nbrs",
        "_layout", "_up",
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
        self._layout = None
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
        two threads extending at once only repeat work. A negative radius
        or a 57th level raises ValueError: callers ask only for radii that
        g fits."""
        if r < 0:
            raise ValueError(f"radius {r} is negative")
        masks = self._masks
        if masks is None:
            masks = self._masks = [[0] + [1 << v for v in self.vertices]]
        # a settled list ends in the same level object twice
        while len(masks) <= r and (len(masks) < 2 or masks[-1] is not masks[-2]):
            if len(masks) == MASK_LEVELS:
                raise ValueError(f"radius {r} needs more than {MASK_LEVELS} mask levels")
            level = spread(self, masks[-1])
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


def single_source_distances(g, *sources):
    """BFS distances from the nearest of the given vertices (one or more),
    None where there is no path; index 0 is unused. The row is not cached;
    the neighbour tuples it walks are (`_neighbours`)."""
    nbrs = _neighbours(g)
    dist = [None] * (g.n + 1)
    for s in sources:
        dist[s] = 0
    queue = list(sources)
    for u in queue:  # the visit list is the queue
        du = dist[u] + 1
        for w in nbrs[u]:
            if dist[w] is None:
                dist[w] = du
                queue.append(w)
    return dist


def _neighbours(g):
    """g's neighbour tuples (index 0 empty), built by its first row or
    mask level and published as one list."""
    nbrs = g._nbrs
    if nbrs is None:
        nbrs = g._nbrs = [(), *map(tuple, g.adjacency.values())]
    return nbrs


def spread(g, level):
    """The next level of masks over g: each vertex ORs in its neighbours'
    masks.

    The slots are g's vertices in degree order, highest first, and column
    j holds the j-th neighbour of every slot whose degree is more than j,
    so one C-level map ORs a whole column into the slots' partial masks.
    Columns are kept while they cover at least _COLUMN_MIN slots; the few
    slots of higher degree then fold their remaining neighbours one at a
    time, and a graph too small for any column folds every neighbour that
    way. Slots go in blocks of _BLOCK, so at most one block of partial
    masks is alive beside the finished ones.
    """
    pos, blocks, tail = _layout(g)
    get, done = level.__getitem__, [0]
    for slots, columns in blocks:
        acc = list(map(get, slots))
        for col in columns:
            acc[:len(col)] = map(or_, acc, map(get, col))
        done += acc
    for i, rest in tail:
        done[i] = reduce(or_, map(get, rest), done[i])
    return list(map(done.__getitem__, pos))


def _layout(g):
    """(pos, blocks, tail) for spread, built from g's neighbour tuples once
    and published whole. Slots count from 1, and pos[v] is v's slot (pos[0]
    is 0); blocks holds, per block, its slots' vertices and the block's part
    of every column that reaches it; tail lists (slot, remaining
    neighbours) for the slots past the last column. Its numbers are int
    objects that g holds already, so it adds none."""
    layout = g._layout
    if layout is None:
        nbrs = _neighbours(g)
        deg = list(map(len, nbrs))
        order = sorted(g.adjacency, key=deg.__getitem__, reverse=True)
        below = sorted(map(neg, deg[1:]))  # the degrees negated, ascending
        columns = []  # c counts the slots of degree above len(columns)
        while (c := bisect_left(below, -len(columns))) >= _COLUMN_MIN:
            columns.append([nbrs[v][len(columns)] for v in order[:c]])
        slots = list(g.adjacency)  # slot i is the key i
        pos = [0, *sorted(slots, key=[0, *order].__getitem__)]
        blocks = [
            (order[s:s + _BLOCK], [col[s:s + _BLOCK] for col in columns if len(col) > s])
            for s in range(0, g.n, _BLOCK)
        ]
        tail = [(slots[i], nbrs[order[i]][len(columns):]) for i in range(c)]
        layout = g._layout = pos, blocks, tail
    return layout


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
    r, done = _climb(g, [members])
    if done:
        return r
    # g does not fit r + 1. A member the level at r covers is within r of
    # every other; the rest read one row each but the last, whose distances
    # are in those rows or at most r
    ball, target = g.balls(r), reduce(or_, (1 << v for v in members))
    for w in members[:-1]:
        if ball[w] & target != target:
            row = single_source_distances(g, w)
            dists = [row[v] for v in members]
            if None in dists:
                return None
            r = max(r, *dists)
    return r


def _climb(g, sets, cap=inf):
    """The largest weak diameter of the non-empty vertex sets, read off
    g's level masks in one pass in which the radius r only grows.

    Returns (r, True) with r that diameter, or (None, True) where a set
    straddles two components (the levels settled short of it). Returns
    (r, False) where it stopped at radius r short of the diameter: at the
    cap, or where g does not fit r + 1."""
    r, level = 0, g.balls(0)
    for s in sets:
        mask = reduce(or_, (1 << v for v in s))
        for u in s:
            while level[u] & mask != mask:
                if r == cap or not g.fits(r + 1):
                    return r, False
                wider = g.balls(r + 1)
                if wider is level:
                    return None, True
                r, level = r + 1, wider
    return r, True


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


def power_graph(g, d, restrict):
    """Graph joining the members of `restrict` at distance <= d in `g`,
    relabelled onto 1..|restrict| with vertex i standing for the i-th
    smallest member. With `restrict` all of g the labels are unchanged, so
    d = 1 reproduces g and d = 0 gives g's vertices with no edge.
    """
    if d < 0:
        raise ValueError("power graph exponent must be >= 0")
    vs = sorted(restrict)
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
