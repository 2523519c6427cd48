"""Exact exponential solvers for desk-scale graphs.

Each solver takes an explicit size cap and raises TooLargeError rather than
silently degrading. Greedy bounds are separate functions; their results are
upper bounds, never passed off as exact values.

The branch-and-bound kernels `independent_mask` and `dominating_mask` run on
adjacency bitmasks. `induced_masks` builds those straight from the host graph
for any list of its vertices, so a bag or a cut is solved without building a
Graph; `maximum_independent_set` and `minimum_dominating_set` wrap the
kernels for a whole Graph.
"""

from __future__ import annotations

from .errors import EmptySetError, TooLargeError
from .graph import check_vertices

DEFAULT_CAP = 20
TREEWIDTH_CAP = 16


def _check_cap(size, cap, what):
    if size > cap:
        raise TooLargeError(size, cap, what)


def induced_masks(g, vs):
    """Adjacency masks of g[vs]: entry i has bit j set when vs[i] and vs[j]
    are adjacent in g. No Graph is built."""
    check_vertices(g, vs)
    bit = {v: 1 << i for i, v in enumerate(vs)}
    keys = bit.keys()
    return [sum(map(bit.__getitem__, keys & g.adjacency[v])) for v in vs]


def bag_masks(g, bag, cap):
    """induced_masks of g[bag] in id order, once the bag passes the cap."""
    _check_cap(len(bag), cap, "graph")
    return induced_masks(g, sorted(bag))


def _members(mask, vs):
    return frozenset(v for i, v in enumerate(vs) if mask >> i & 1)


def independent_mask(adj):
    """A maximum independent set of the graph with adjacency masks `adj`
    (vertices 0..len(adj)-1), as a bitmask, by branch and bound."""
    return _independent(adj, 0)


def _independent(adj, beat):
    """independent_mask's search for a set of more than `beat` vertices: the
    first maximum one it finds, or 0 when there is none. A subtree is cut
    when its chosen vertices plus a greedy clique cover of the rest (each
    clique holds at most one member of an independent set) cannot beat the
    best so far, so only subtrees that cannot improve on it are cut and the
    witness is the one the search without the bound finds."""
    best_size, best = beat, 0
    # depth-first over an explicit stack, so depth is not bounded by the
    # interpreter's recursion limit; the take-v branch is popped first
    stack = [((1 << len(adj)) - 1, 0, 0)]
    while stack:
        mask, chosen, size = stack.pop()
        # one pass: vertices with no neighbour left in mask always join the
        # solution (dropping them changes no other degree); branch on a vertex
        # of maximum remaining degree, lowest id on ties
        free = 0
        v = -1
        vdeg = 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            i = bit.bit_length() - 1
            deg = (adj[i] & mask).bit_count()
            if deg == 0:
                free |= bit
            elif deg > vdeg:
                vdeg = deg
                v = i
        if free:
            chosen |= free
            size += free.bit_count()
            mask ^= free
        if mask == 0:
            if size > best_size:
                best_size, best = size, chosen
            continue
        # cover mask by cliques grown from its lowest vertex; give up once
        # the cover needs more cliques than the room left to beat best_size
        rest, cliques = mask, 0
        while rest and cliques < best_size - size:
            cliques += 1
            bit = rest & -rest
            rest ^= bit
            grow = rest & adj[bit.bit_length() - 1]
            while grow:
                bit = grow & -grow
                rest ^= bit
                grow &= adj[bit.bit_length() - 1]
        if not rest:
            continue
        vbit = 1 << v
        stack.append((mask & ~vbit, chosen, size))
        stack.append((mask & ~(adj[v] | vbit), chosen | vbit, size + 1))
    return best


def maximum_independent_set(g, cap=DEFAULT_CAP):
    """A maximum independent set, found by branch and bound over bitmasks."""
    _check_cap(g.n, cap, "graph")
    return _members(independent_mask(induced_masks(g, g.vertices)), g.vertices)


def dominating_mask(adj):
    """A minimum dominating set of the graph with adjacency masks `adj`
    (vertices 0..len(adj)-1, at least one), as a bitmask, by branch and
    bound."""
    n = len(adj)
    closed = [adj[i] | (1 << i) for i in range(n)]
    full = (1 << n) - 1
    max_cover = max(c.bit_count() for c in closed)
    # branch on the undominated vertex with the fewest candidates, lowest id
    # on ties: the first undominated one in this fixed order
    order = sorted(range(n), key=lambda i: (closed[i].bit_count(), i))

    # greedy upper bound: repeatedly take the vertex covering the most
    greedy = 0
    undom = full
    while undom:
        pick = -1
        gain = -1
        for i in range(n):
            got = (closed[i] & undom).bit_count()
            if got > gain:
                gain = got
                pick = i
        greedy |= 1 << pick
        undom &= ~closed[pick]
    best_count, best = greedy.bit_count(), greedy
    # depth-first over an explicit stack, as in independent_mask
    stack = [(full, 0, 0)]
    while stack:
        undominated, chosen, count = stack.pop()
        if undominated == 0:
            if count < best_count:
                best_count, best = count, chosen
            continue
        need = -(-undominated.bit_count() // max_cover)  # ceil
        if count + need >= best_count:
            continue
        # undominated vertices with pairwise disjoint closed neighbourhoods
        # need a dominator each; pack them greedily in branching order, so
        # the first one packed is the vertex to branch on
        need, packed, v = count, 0, -1
        for i in order:
            if undominated >> i & 1 and not closed[i] & packed:
                if v < 0:
                    v = i
                packed |= closed[i]
                need += 1
                if need >= best_count:
                    break
        if need >= best_count:
            continue
        # push the candidates from the highest id down, so they pop in id order
        m = closed[v]
        while m:
            u = m.bit_length() - 1
            bit = 1 << u
            m ^= bit
            stack.append((undominated & ~closed[u], chosen | bit, count + 1))
    return best


def minimum_dominating_set(g, cap=DEFAULT_CAP):
    """A minimum dominating set, by exact branch and bound."""
    if g.n == 0:
        raise EmptySetError("domination of the empty graph is undefined")
    _check_cap(g.n, cap, "graph")
    return _members(dominating_mask(induced_masks(g, g.vertices)), g.vertices)


def k_coloring(g, k):
    """Lexicographically smallest proper k-coloring, or None.

    Vertices are assigned in id order; colors are numbered by first use, so
    the first assignment found by the ordered search is the canonical one.
    """
    earlier = [()] + [[w for w in g.adjacency[v] if w < v] for v in g.vertices]
    return _first_k_coloring(earlier, k)


def _first_k_coloring(earlier, k, backtrack=True):
    """The search behind k_coloring, over conflict lists: vertices are
    1..len(earlier)-1, and earlier[v] holds the lower-numbered vertices v
    may not share a color with (earlier[0] is unused). Without `backtrack`
    it is first-fit coloring: None at the first vertex with no free color."""
    n = len(earlier) - 1
    colors = [-1] * (n + 1)
    # iterative depth-first search; used[v] counts the colors taken before v
    used = [0] * (n + 2)
    v = 1
    while v:
        if v > n:
            return colors[1:]
        blocked = {colors[w] for w in earlier[v]}
        limit = min(used[v] + 1, k)
        c = colors[v] + 1
        while c < limit and c in blocked:
            c += 1
        if c < limit:
            colors[v] = c
            used[v + 1] = max(used[v], c + 1)
            v += 1
        elif not backtrack:
            return None
        else:
            colors[v] = -1
            v -= 1
    return None


def greedy_clique(g):
    """A maximal clique found greedily; its size is a chromatic lower bound."""
    start = max(g.vertices, key=lambda v: (g.degree(v), -v))
    clique = {start}
    candidates = set(g.adjacency[start])
    while candidates:
        v = max(sorted(candidates), key=lambda u: len(g.adjacency[u] & candidates))
        clique.add(v)
        candidates &= g.adjacency[v]
    return frozenset(clique)


def exact_chromatic_number(g, cap=DEFAULT_CAP):
    """Minimum proper coloring size by exhaustive k-colorability tests."""
    _check_cap(g.n, cap, "graph")
    if g.n == 0:
        return 0
    for k in range(len(greedy_clique(g)), g.n + 1):
        if k_coloring(g, k) is not None:
            return k
    raise AssertionError("unreachable: every graph is n-colorable")


def _reach_boundary_count(adj, inside, v):
    """Future-degree of v once `inside` has been eliminated before it."""
    vbit = 1 << v
    allowed = inside | vbit
    seen = vbit
    frontier = vbit
    nbrs = 0
    while frontier:
        acc = 0
        m = frontier
        while m:
            bit = m & -m
            m ^= bit
            acc |= adj[bit.bit_length() - 1]
        nbrs |= acc
        frontier = acc & inside & ~seen
        seen |= frontier
    return (nbrs & ~allowed).bit_count()


def exact_treewidth(g, cap=TREEWIDTH_CAP):
    """Exact treewidth with a witness decomposition.

    Dynamic program over elimination-order prefixes; 2^n states, so keep n
    at desk scale.
    """
    from .decomposition import decomposition_from_order

    if g.n == 0:
        raise EmptySetError("treewidth of the empty graph is undefined")
    _check_cap(g.n, cap, "graph")
    n = g.n
    adj = induced_masks(g, g.vertices)
    size = 1 << n
    dp = [0] * size
    choice = [0] * size
    dp[0] = -1
    for mask in range(1, size):
        best = n
        bestv = -1
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            rest = mask ^ bit
            val = dp[rest]
            q = _reach_boundary_count(adj, rest, v)
            if q > val:
                val = q
            if val < best:
                best = val
                bestv = v
        dp[mask] = best
        choice[mask] = bestv
    order = []
    mask = size - 1
    while mask:
        v = choice[mask]
        order.append(v + 1)
        mask ^= 1 << v
    order.reverse()
    return dp[size - 1], decomposition_from_order(g, order)
