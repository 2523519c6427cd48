"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results straight from the definitions, by
exhaustive enumeration, and stays independent of the code paths it checks.
"""

from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

from coarsetd import BranchDecomposition, Graph, TreeDecomposition, weak_diameter
from coarsetd.graph import _climb
from coarsetd.quasiiso import _steps


def brute_alpha(g):
    vs = list(g.vertices)
    for size in range(g.n, 0, -1):
        for cand in combinations(vs, size):
            if all(not g.has_edge(u, v) for u, v in combinations(cand, 2)):
                return size
    return 0


def brute_gamma(g):
    vs = list(g.vertices)
    for size in range(1, g.n + 1):
        for cand in combinations(vs, size):
            chosen = set(cand)
            if all(
                v in chosen or g.adjacency[v] & chosen for v in vs
            ):
                return size
    raise AssertionError("graph has no dominating set")


def brute_chromatic(g):
    if g.n == 0:
        return 0
    vs = list(g.vertices)
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if all(colors[u - 1] != colors[v - 1] for u, v in g.edges):
                return k
    raise AssertionError("unreachable")


def elimination_width(g, order):
    adj = {v: set(g.adjacency[v]) for v in g.vertices}
    worst = 0
    for v in order:
        nb = adj[v]
        worst = max(worst, len(nb))
        for a in nb:
            for b in nb:
                if a != b:
                    adj[a].add(b)
        for u in nb:
            adj[u].discard(v)
        del adj[v]
    return worst


def brute_treewidth(g):
    return min(elimination_width(g, order) for order in permutations(g.vertices))


def distance_rows(g):
    """All-pairs hop distances as rows, dm[u][v], straight from the edge
    set: each row starts at 0 on its own vertex and relaxes every edge,
    both ways, until no entry changes. Row 0 and index 0 of each row are
    unused, and None marks "no path"."""
    arcs = sorted(g.edges)
    arcs += [(v, u) for u, v in reversed(arcs)]
    dm = [None]
    for source in g.vertices:
        row = [None] * (g.n + 1)
        row[source] = 0
        changed = True
        while changed:
            changed = False
            for u, v in arcs:
                if row[u] is not None and (row[v] is None or row[u] + 1 < row[v]):
                    row[v] = row[u] + 1
                    changed = True
        dm.append(row)
    return dm


def qi_constant_brute(g, h, mapping, qmax):
    """Literal float evaluation of the definition, scanning q upward."""
    dg = distance_rows(g)
    dh = distance_rows(h)
    for q in range(1, qmax + 1):
        ok = True
        for u in g.vertices:
            for v in g.vertices:
                a = dg[u][v]
                b = dh[mapping[u]][mapping[v]]
                if not ((1 / q) * a - q <= b <= q * a + q):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for x in h.vertices:
                if min(dh[x][mapping[v]] for v in g.vertices) > q:
                    ok = False
                    break
        if ok:
            return q
    return None


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield [[first]] + smaller


def centred_brute(g, s, k, d):
    """Exhaustive search over all partitions of s into at most k parts."""
    for parts in set_partitions(sorted(s)):
        if len(parts) > k:
            continue
        diams = [weak_diameter(g, part) for part in parts]
        if all(x is not None and x <= d for x in diams):
            return True
    return False


def is_induced_matching(g, edges):
    seen = [x for e in edges for x in e]
    if len(set(seen)) != len(seen):
        return False
    for i, (a1, b1) in enumerate(edges):
        for a2, b2 in edges[i + 1:]:
            for x in (a1, b1):
                for y in (a2, b2):
                    if g.has_edge(x, y):
                        return False
    return True


def simval_brute(g, a):
    inside = frozenset(a)
    cut = [
        (u, v) if u in inside else (v, u)
        for u, v in sorted(g.edges)
        if (u in inside) != (v in inside)
    ]
    best = 0
    for mask in range(1 << len(cut)):
        chosen = [cut[i] for i in range(len(cut)) if mask >> i & 1]
        if len(chosen) > best and is_induced_matching(g, chosen):
            best = len(chosen)
    return best


def validation_by_search(g, td):
    """(ok, kind, witness) of the three decomposition conditions, in the
    validator's order; each vertex trace is checked by a search of the tree
    restricted to that trace."""
    traces = {v: {t for t, bag in td.bags.items() if v in bag} for v in g.vertices}
    for u, v in sorted(g.edges):
        if not traces[u] & traces[v]:
            return False, "edge_uncovered", (u, v)
    for v in g.vertices:
        if not traces[v]:
            return False, "vertex_uncovered", v
    for v in g.vertices:
        trace = traces[v]
        start = min(trace)
        seen, stack = {start}, [start]
        while stack:
            for t in td.tree.adjacency[stack.pop()]:
                if t in trace and t not in seen:
                    seen.add(t)
                    stack.append(t)
        if seen != trace:
            return False, "trace_disconnected", v
    return True, None, None


def side_cut_bags(g, bd):
    """The bags of a branch decomposition's tree decomposition, read off the
    sides: each node holds its leaf's vertex and the ends of every graph
    edge cut by a tree edge at that node."""
    leaf_vertex = {t: v for v, t in bd.leaf_map.items()}
    bags = {}
    for t in bd.tree.vertices:
        bag = {leaf_vertex[t]} if t in leaf_vertex else set()
        for s in bd.tree.adjacency[t]:
            side = bd.side((t, s))
            bag.update(w for e in g.edges if (e[0] in side) != (e[1] in side) for w in e)
        bags[t] = frozenset(bag)
    return bags


def scan_sweep_path(g, a, b):
    """The path from a to b by the scan rule: BFS depths from the smallest
    vertex of each component, then the deeper end (both, at equal depth)
    scans its neighbours for the smallest one a level up, until the ends
    meet."""
    depth = {}
    for root in g.vertices:
        if root not in depth:
            depth[root], queue = 0, [root]
            for x in queue:
                for y in g.adjacency[x]:
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        queue.append(y)
    up_a, up_b = [a], [b]
    while up_a[-1] != up_b[-1]:
        deepest = max(depth[up_a[-1]], depth[up_b[-1]])
        for path in (up_a, up_b):
            x = path[-1]
            if depth[x] == deepest:
                path.append(min(y for y in g.adjacency[x] if depth[y] == deepest - 1))
    return up_a + up_b[-2::-1]


def plain_spread(adj, level):
    """The next level of masks by the per-vertex fold that graph.spread's
    neighbour columns stand in for: each vertex ORs in its neighbours'
    masks one at a time."""
    return [0] + [
        reduce(or_, map(level.__getitem__, adj[v]), level[v])
        for v in range(1, len(level))
    ]


def induced_masks(g, vs):
    """The relabelled masks of g[vs]: entry i has bit j set when vs[i] and
    vs[j] are adjacent in g (open neighbourhoods at positions
    0..len(vs)-1)."""
    pos = {v: i for i, v in enumerate(vs)}
    return [sum(1 << pos[w] for w in g.adjacency[v] if w in pos) for v in vs]


def relabelled(found, vs):
    """The vertices of vs at the set bits of a relabelled witness."""
    return frozenset(v for i, v in enumerate(vs) if found >> i & 1)


def plain_independent_mask(adj):
    """The branch and bound of exact._independent on open masks at
    positions 0..len(adj)-1, without its clique-cover bound: the same
    search order, cut only when the chosen vertices plus every vertex left
    cannot beat the best so far."""
    best_size, best = 0, 0
    stack = [((1 << len(adj)) - 1, 0, 0)]
    while stack:
        mask, chosen, size = stack.pop()
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
        if size + mask.bit_count() <= best_size:
            continue
        vbit = 1 << v
        stack.append((mask & ~vbit, chosen, size))
        stack.append((mask & ~(adj[v] | vbit), chosen | vbit, size + 1))
    return best


def plain_dominating_mask(adj):
    """The branch and bound of exact._dominating on open masks at positions
    0..len(adj)-1, without its packing bound: the same greedy start and
    search order, cut only by the count of undominated vertices over the
    largest closed neighbourhood."""
    n = len(adj)
    closed = [adj[i] | (1 << i) for i in range(n)]
    full = (1 << n) - 1
    max_cover = max(c.bit_count() for c in closed)
    order = sorted(range(n), key=lambda i: (closed[i].bit_count(), i))
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
    stack = [(full, 0, 0)]
    while stack:
        undominated, chosen, count = stack.pop()
        if undominated == 0:
            if count < best_count:
                best_count, best = count, chosen
            continue
        need = -(-undominated.bit_count() // max_cover)
        if count + need >= best_count:
            continue
        v = next(i for i in order if undominated >> i & 1)
        m = closed[v]
        while m:
            u = m.bit_length() - 1
            bit = 1 << u
            m ^= bit
            stack.append((undominated & ~closed[u], chosen | bit, count + 1))
    return best


def open_masks(closed, vs):
    """The closed masks at positions vs relabelled to open masks at
    positions 0..len(vs)-1."""
    pos = {v: i for i, v in enumerate(vs)}
    return [sum(1 << pos[w] for w in vs if w != v and closed[v] >> w & 1) for v in vs]


def plain_independent(closed, start, beat):
    """plain_independent_mask over any bit positions, with the signature of
    exact._independent: relabel the positions of start to 0..m-1, search,
    and map the witness back if it beats `beat`."""
    vs = [i for i in range(start.bit_length()) if start >> i & 1]
    found = plain_independent_mask(open_masks(closed, vs))
    if found.bit_count() <= beat:
        return 0
    return sum(1 << v for v in relabelled(found, vs))


def plain_dominating(closed, vs):
    """plain_dominating_mask over any bit positions, with the signature of
    exact._dominating: relabel the positions vs to 0..len(vs)-1, search,
    and map the witness back."""
    return sum(1 << v for v in relabelled(plain_dominating_mask(open_masks(closed, vs)), vs))


def relabelled_dominating_partition(g, s):
    """dominating_partition on the relabelled masks of g[s]: the dominating
    set of plain_dominating_mask(induced_masks(g, sorted(s))), and each
    other member in the piece of its smallest-id adjacent dominator."""
    vs = sorted(s)
    adj = induced_masks(g, vs)
    chosen = plain_dominating_mask(adj)
    groups = {vs[i]: [vs[i]] for i in range(len(vs)) if chosen >> i & 1}
    for i, v in enumerate(vs):
        if v not in groups:
            j = next(j for j in range(len(vs)) if (adj[i] & chosen) >> j & 1)
            groups[vs[j]].append(v)
    return tuple(frozenset(group) for group in groups.values())


def scan_random_tree(n, rng):
    """generators.gen_random_tree as it scanned every vertex for the
    smallest leaf at each Pruefer step: quadratic, kept as the reference
    for the heap of leaves."""
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    if n > 1:
        last = [u for u in range(1, n + 1) if degree[u] == 1]
        edges.append((last[0], last[1]))
    g = Graph(n, edges)
    depth = g._sweep()[0]
    bags = {
        v: frozenset([v, *(u for u in g.adjacency[v] if depth[u] < depth[v])])
        for v in g.vertices
    }
    return g, TreeDecomposition(g, bags)


def resorting_branch_decomposition(g, rng):
    """generators.random_branch_decomposition as it sorted its edge list
    twice per step: quadratic, kept as the reference for the list kept
    sorted by insertion."""
    n = g.n
    if n == 1:
        return BranchDecomposition(Graph(1), {1: 1})
    edges = [(1, 2)]
    leaves = [1, 2]
    nxt = 3
    for _ in range(n - 2):
        a, b = rng.choice(sorted(edges))
        inner, leaf = nxt, nxt + 1
        nxt += 2
        edges.remove((a, b))
        edges.extend([(a, inner), (inner, b), (inner, leaf)])
        edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        leaves.append(leaf)
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    leaf_map = {v: leaf for v, leaf in zip(vertices, leaves)}
    return BranchDecomposition(Graph(nxt - 1, edges), leaf_map)


def relabelling_coarsen(td, rounds, rng):
    """generators.coarsen_decomposition as it relabelled every node and
    rebuilt the tree at each contraction: quadratic, kept as the reference
    for the one sorted edge list."""
    tree, bags = td.tree, dict(td.bags)
    for _ in range(rounds):
        if tree.n <= 1:
            break
        a, b = rng.choice(sorted(tree.edges))
        # b merges into a; the other nodes keep their order
        rest = [t for t in tree.vertices if t != b]
        relabel = {t: i for i, t in enumerate(rest, 1)}
        relabel[b] = relabel[a]
        new_edges = set()
        for u, v in tree.edges:
            uu, vv = relabel[u], relabel[v]
            if uu != vv:
                new_edges.add((min(uu, vv), max(uu, vv)))
        bags = {relabel[t]: bags[t] | bags[b] if t == a else bags[t] for t in rest}
        tree = Graph(tree.n - 1, new_edges)
    return TreeDecomposition(tree, bags, shape=td.shape)


def plain_lifts(g, h, fibres, c):
    """quasiiso._lifts with its value iteration as it tested each member
    on its own: for every host vertex x and neighbour y, y's fibre grouped
    by potential in a fresh dict, and member w of x's fibre meeting a group
    at potential pv when levels[c + p(w) - pv][w] holds one of its bits.
    The same preconditions and the same least potentials, kept as the
    reference for the cached reach masks."""
    c = min(c, 2 * g._sweep()[1] + 1)
    top = c * c
    if not g.fits(c + top) or not _steps(g, h, fibres):
        return False
    d, done = _climb(g, fibres.values(), top)
    if not done:
        return False
    adj = h.adjacency
    levels = [g.balls(r) for r in range(c + top - d + 1)]
    p, changed = [0] * (g.n + 1), True
    while changed:
        changed = False
        for x, fibre in fibres.items():
            for y in adj[x]:
                groups = {}
                for v in fibres[y]:
                    groups[p[v]] = groups.get(p[v], 0) | 1 << v
                for w in fibre:
                    while not any(
                        levels[c + p[w] - pv][w] & mask
                        for pv, mask in groups.items() if pv <= c + p[w]
                    ):
                        if p[w] == top - d:
                            return False
                        p[w] += 1
                        changed = True
    return True
