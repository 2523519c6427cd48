"""Quasi-isometry maps between graphs.

A map phi: V(G) -> V(H) is a q-quasi-isometry when for all u, v

    q^-1 * dist_G(u,v) - q  <=  dist_H(phi(u), phi(v))  <=  q * dist_G(u,v) + q

and every vertex of H lies within distance q of the image. All three
conditions relax as q grows, so the minimal constant is solved for: the
largest q that any one pair, or the coverage radius, forces. Connected
inputs are required: where no path exists the defining inequalities have
no agreed meaning, so disconnected graphs are rejected outright.

When both graphs fit every radius (`Graph.fits`, see `graph`), the pairs
are reduced to a profile read from level masks: for each distance a in G,
the smallest and largest distance b in H among pairs at distance a. The
upper inequality binds at the largest b and the lower one at the
smallest, so the profile forces the same q as the full pair set.

Otherwise the pairs are streamed from BFS rows, fibre by fibre, and no
distance table is held. G's vertices are listed fibre by fibre, and each
pair is read once, at the earlier of its two fibres. For image vertex x,
one row of H gives b = dist_H(x, phi(v)) for every v listed from that
fibre on, which every member of the fibre of x shares, and one row of G
from all the members at once gives near[v], the distance from the fibre
to v. Each (near[v], b) is a real pair, and every member is at least
near[v] from v, so these pairs settle the upper inequality exactly.
Folded in, they also give the lower inequality's least slack,
q * (q + b) - near[v]. Every member is within the fibre's diameter of
the member nearest v, so when the members lie pairwise within the slack,
no pair of the fibre can raise q. The test is a BFS capped at half the
slack from the first member, or else one capped at the slack from each
member but the last. A fibre that fails this test, and a fibre of one
vertex, reads one row per member instead, each zipped with the same b
into the set of distinct pairs. A fibre is tested at the q folded from
the fibre rows before it, so one met before the rows that raise q may
read member rows that the final q would spare it; on the streamed maps
of coarsened path-layout k-trees and subdivided path k-trees none does.

`pullback_decomposition` needs only to know that phi is a c-quasi-
isometry, and first tries a certificate that reads no row. Suppose phi
is onto (coverage radius 0), maps each edge of G to a vertex or an edge
of H (so dist_H <= dist_G), every fibre has weak diameter at most
D <= c^2, and there are potentials p(w) in 0..c^2 - D such that for each
w and each neighbour y of phi(w) some w' in the fibre of y has
dist_G(w, w') + p(w') <= c + p(w). Lifting a geodesic of H from phi(u)
to phi(v) one fibre at a time gives a walk in G whose steps telescope to
dist_G(u, w) <= c * dist_H(phi(u), phi(v)) + p(u) for some w in the fibre
of phi(v), so dist_G(u, v) <= c * dist_H + p(u) + D <= c * dist_H + c^2.
The least potentials come from value iteration from 0, with distances
read off G's level masks at radii up to c + c^2; where the certificate
fails, the constant is measured as above. A pass reads them through one
reach mask per fibre and radius r, the OR of level r - p(w') at the
members w' with p(w') <= r: by symmetry w meets the fibre of y when bit w
of y's mask at c + p(w) is set. The masks serve every neighbour of y
until a potential in y's fibre rises and drops them; phi is onto, so H
has at most G's n vertices and they never outnumber the levels read.

The measurement tries the certificate too, before it streams a row. Two
members of one fibre lie at distance 0 in H, so a fibre of weak diameter
D forces D <= q^2, and q is at least lo = max(1, ceil(sqrt(D))). Where
the certificate holds at c = lo, q <= lo as well, so q = lo exactly. D
is read off G's level masks only for a map that is onto and sends each
edge to a vertex or an edge, and only up to the largest c^2 at which G
fits the certificate's radius c + c^2.

The pullback's bags come with their witness. The piece of host vertex x
is the set of g-vertices whose image lies within c of x, and bag t is the
union of the pieces of its host bag's members: at most k + 1 pieces, for
a host decomposition of width k.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import reduce
from math import inf, isqrt
from operator import or_

from .decomposition import TreeDecomposition, require_valid
from .errors import (
    CompositionMismatchError,
    DisconnectedError,
    EmptySetError,
    InvalidMapError,
    NotWithinError,
    PreconditionError,
)
from .graph import MASK_LEVELS, _climb, bfs, single_source_distances, spread


@dataclass(frozen=True)
class QuasiIsometryMap:
    """A total vertex map between two graphs, with its measured constant.

    `measured_q` is None until `measure` returns a copy carrying the minimal
    constant for which all three quasi-isometry conditions hold.
    """

    source: object
    target: object
    mapping: dict[int, int]
    measured_q: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        if set(self.mapping) != set(self.source.vertices):
            raise InvalidMapError("map is not total on the source vertices")
        for v, x in self.mapping.items():
            if not 1 <= x <= self.target.n:
                raise InvalidMapError(f"vertex {v} maps to {x}, outside the target")


def identity_map(g, h):
    """The identity v -> v, usable whenever h has at least g's vertices."""
    return QuasiIsometryMap(g, h, {v: v for v in g.vertices})


def qi_constant(g, h, phi, qmax):
    """Minimal q <= qmax making phi a q-quasi-isometry, else NotWithinError.

    Integer arithmetic throughout: the lower inequality is checked as
    dist_G <= q * dist_H + q^2. Where g or h does not fit every radius,
    the floor that phi's widest fibre sets is the constant if the lifting
    certificate holds at it; otherwise G is read by one multi-source row
    per fibre of phi, and a fibre whose members are too far apart for the
    slack that its row leaves the lower inequality reads one row per
    member (see the module docstring), so the constant is exact either way.
    """
    return _solve(g, h, phi, qmax, _fibres(g, h, phi, qmax))


def _fibres(g, h, phi, qmax):
    """Check qi_constant's inputs; return phi's fibres, image vertex ->
    members in increasing order, the images in order of first member."""
    if qmax < 1:
        raise ValueError("qmax must be a positive integer")
    if g.n == 0 or h.n == 0:
        raise EmptySetError("quasi-isometry needs non-empty graphs")
    if not g.is_connected() or not h.is_connected():
        raise DisconnectedError("quasi-isometry operations need connected graphs")
    if g != phi.source or h != phi.target:
        raise InvalidMapError("graphs differ from the map's source and target")
    fibres = {}
    for v in g.vertices:
        fibres.setdefault(phi.mapping[v], []).append(v)
    return fibres


def _solve(g, h, phi, qmax, fibres):
    """qi_constant on checked inputs, given phi's fibres."""
    if g.fits(inf) and h.fits(inf):
        cover, pairs = _profile(g, h, phi)
        q = _fold(max(1, cover), pairs)[0]
    elif (q := _floor(g, h, fibres, qmax)) is None:
        # the floor settles nothing, so the pairs are streamed. h is
        # connected, so the sweep from the image, the fibres' keys, reaches
        # every vertex
        q = max(1, *bfs(h.adjacency, fibres).values())
        # g's vertices fibre by fibre: the pairs of a vertex with the ones
        # after it are read from its row or its fibre's row
        order = [v for fibre in fibres.values() for v in fibre]
        images = list(map(phi.mapping.__getitem__, order))
        pairs, start = set(), 0
        for x, fibre in fibres.items():
            tail = order[start:]
            # bs[i] = dist_H(x, phi(tail[i])): the b of every pair
            # (u, tail[i]) with u in the fibre
            bs = list(map(single_source_distances(h, x).__getitem__, images[start:]))
            start += len(fibre)
            if len(fibre) > 1:
                row = single_source_distances(g, *fibre)
                q, slack = _fold(q, set(zip(map(row.__getitem__, tail), bs)))
                if _close(g, fibre, slack):
                    continue
            for u in fibre:
                row = single_source_distances(g, u)
                pairs.update(zip(map(row.__getitem__, tail), bs))
        q = _fold(q, pairs)[0]
    if q > qmax:
        raise NotWithinError(qmax)
    return q


def _floor(g, h, fibres, qmax):
    """The floor where it is the constant, else None. The floor is the
    least q with q^2 at least every fibre's weak diameter D (two members of
    a fibre lie 0 apart in h); it is the constant past qmax, where it is
    refused, and where the certificate holds at it. It is not read where
    the certificate cannot hold: for want of its first two conditions, or
    past the largest square c^2 at which g fits its radius c + c^2. The
    certificate at q needs only its potentials on the D climbed here:
    q^2 >= D, and D <= 2e keeps q within _lifts's clamp."""
    tops = [c * c for c in range(1, MASK_LEVELS) if g.fits(c + c * c)]
    if not tops or not _steps(g, h, fibres):
        return None
    d, done = _climb(g, fibres.values(), tops[-1])
    q = 1 + isqrt(max(d - 1, 0))
    return q if done and (q > qmax or _potentials(g, h, fibres, q, d)) else None


def _close(g, fibre, slack):
    """True when the members of the fibre lie pairwise within slack: all
    within slack // 2 of the first, or each within slack of the later ones."""
    first = bfs(g.adjacency, fibre[:1], radius=slack // 2)
    if all(w in first for w in fibre):
        return True
    balls = (bfs(g.adjacency, [u], radius=slack) for u in fibre[:-1])
    return all(all(w in ball for w in fibre[i:]) for i, ball in enumerate(balls))


def _fold(q, pairs):
    """(q', slack): q' is the least q' >= q for which every pair (a, b) of
    distances in G and in H meets both inequalities (each is monotone in
    q); slack is the least of q'^2 and q' * (q' + b) - a over the pairs,
    how much further apart in G than a the lower inequality lets them be."""
    q0, worst = q, 0
    for a, b in pairs:
        if b > q * (a + 1):  # upper: b <= q * (a + 1)
            q = -(-b // (a + 1))
        while q * (q + b) < a:  # lower: a <= q * (q + b)
            q += 1
        if a - q * b > worst:
            worst = a - q * b
    if q != q0:  # the earlier pairs were weighed at a smaller q
        worst = max(0, *[a - q * b for a, b in pairs])
    return q, q * q - worst


def _profile(g, h, phi):
    """Coverage radius and the profile pairs (a, min b), (a, max b).

    near[b][x] has bit v set for every g-vertex v whose image lies within
    distance b of x; it grows from the fibres of phi as g's level masks grow
    from single vertices. The ring of u at distance a is the difference of
    its balls of radius a and a - 1. Its smallest b is the first level of
    near at phi(u) that meets it, and its largest b the first that covers
    it; the running min and max only ever move outward, so each vertex
    costs two checks per distance plus the moves.
    """
    fibres = [0] * (h.n + 1)
    for v, x in phi.mapping.items():
        fibres[x] |= 1 << v
    near = [fibres]
    while (level := spread(h, near[-1])) != near[-1]:
        near.append(level)
    # h is connected, so the last level holds every g-vertex at every x
    cover = next(b for b, level in enumerate(near) if all(level[1:]))
    img = phi.mapping
    pairs = []
    inner = g.balls(0)
    for a in range(1, g.n):
        outer = g.balls(a)
        lo, hi = len(near), 0
        for u in g.vertices:
            ring = outer[u] ^ inner[u]
            if ring:
                x = img[u]
                while lo and ring & near[lo - 1][x]:
                    lo -= 1
                while ring & near[hi][x] != ring:
                    hi += 1
        if hi < lo:  # no ring at distance a, so no pair is this far apart
            break
        pairs += [(a, lo), (a, hi)]
        inner = outer
    return cover, pairs


def measure(g, h, phi, qmax):
    """Copy of phi with measured_q filled in.

    phi was validated when it was built, so the copy is not validated again.
    """
    measured = copy(phi)
    object.__setattr__(measured, "measured_q", qi_constant(g, h, phi, qmax))
    return measured


def compose(phi1, phi2):
    """Compose two measured maps; the result carries the constant q(c+2).

    With phi1 measured at c and phi2 at q, the composite is a q(c+2)-quasi-
    isometry, so remeasuring with that budget always succeeds; the new map
    carries its own (possibly smaller) minimal constant.
    """
    if phi1.target != phi2.source:
        raise CompositionMismatchError(
            "target of the first map differs from source of the second"
        )
    if phi1.measured_q is None or phi2.measured_q is None:
        raise PreconditionError("compose requires both maps to be measured")
    c = phi1.measured_q
    q = phi2.measured_q
    bound = q * (c + 2)
    mapping = {v: phi2.mapping[phi1.mapping[v]] for v in phi1.source.vertices}
    composed = QuasiIsometryMap(phi1.source, phi2.target, mapping)
    return measure(phi1.source, phi2.target, composed, bound)


def pullback_decomposition(g, h, phi, td_h, c):
    """Pull a decomposition of h back along a c-quasi-isometry phi: g -> h.

    Each node keeps its tree position; its new bag is the union, over the
    old bag's members x, of the set of g-vertices whose image lies within
    distance c of x. The result is a decomposition of g whose bags split
    into at most td_h.width + 1 pieces of weak diameter at most 3c^2.
    phi is checked by the certificate of the module docstring, or where
    that fails by measuring its constant.
    """
    return _pullback(g, h, phi, td_h, c)[0]


def _pullback(g, h, phi, td_h, c):
    """pullback_decomposition's decomposition and its witness: the pieces
    {x: the g-vertices whose image lies within c of x} for every vertex x
    of h, each bag being the union of its members' pieces."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    fibres = _fibres(g, h, phi, c)
    require_valid(h, td_h, "host decomposition")
    if not _lifts(g, h, fibres, c):
        _solve(g, h, phi, c, fibres)  # NotWithinError if not a c-qi
    # td_h is valid, so every vertex of h lies in some bag
    balls = {
        x: [v for y in bfs(h.adjacency, [x], radius=c) for v in fibres.get(y, ())]
        for x in h.vertices
    }
    bags = {t: frozenset().union(*map(balls.__getitem__, td_h.bag(t))) for t in td_h.nodes}
    return TreeDecomposition(td_h.tree, bags, shape=td_h.shape), balls


def _lifts(g, h, fibres, c):
    """True only when the map with these fibres is surely a c-quasi-isometry,
    by the certificate of the module docstring: read off g's level masks at
    radii up to c + c^2, with no distance row. False says nothing.

    g's diameter is at most 2e (e from its component sweep), so past 2e
    every pair lies within c and the certificate holds at c exactly when
    it holds at 2e + 1: c is clamped there, which bounds the levels read."""
    c = min(c, 2 * g._sweep()[1] + 1)
    top = c * c
    if not g.fits(c + top) or not _steps(g, h, fibres):
        return False
    d, done = _climb(g, fibres.values(), top)
    return done and _potentials(g, h, fibres, c, d)


def _potentials(g, h, fibres, c, d):
    """The certificate's last condition at c, for a map that meets its
    first two and whose fibres have largest weak diameter d <= c^2: True
    when potentials p(w) in 0..c^2 - d exist (module docstring).

    The least potentials come by value iteration from 0: reach[y][r] is y's
    reach mask, dropped when a potential in y's fibre rises; h.n <= g.n,
    so reach never holds more masks than levels."""
    top = c * c
    adj = h.adjacency
    levels = [g.balls(r) for r in range(c + top - d + 1)]
    p, reach, changed = [0] * (g.n + 1), {}, True
    while changed:
        changed = False
        for x, fibre in fibres.items():
            for y in adj[x]:
                near = reach.setdefault(y, {})
                for w in fibre:
                    while True:
                        r = c + p[w]
                        if r not in near:
                            near[r] = reduce(
                                or_, (levels[r - p[v]][v] for v in fibres[y] if p[v] <= r), 0
                            )
                        if near[r] >> w & 1:
                            break
                        if p[w] == top - d:
                            return False
                        p[w] += 1
                        changed = True
                        reach.pop(x, None)
    return True


def _steps(g, h, fibres):
    """True when the map with these fibres is onto and sends each edge of g
    to a vertex or an edge of h: the certificate's first two conditions."""
    if len(fibres) < h.n:
        return False
    image = [0] * (g.n + 1)
    for x, fibre in fibres.items():
        for v in fibre:
            image[v] = x
    adj = h.adjacency
    return all(image[u] == image[v] or image[v] in adj[image[u]] for u, v in g.edges)

