"""Quasi-isometry maps between graphs.

A map phi: V(G) -> V(H) is a q-quasi-isometry when for all u, v

    q^-1 * dist_G(u,v) - q  <=  dist_H(phi(u), phi(v))  <=  q * dist_G(u,v) + q

and every vertex of H lies within distance q of the image. All three
conditions relax as q grows, so the minimal constant is found by scanning
q = 1, 2, ... Connected inputs are required: at Unreachable the defining
inequalities have no agreed meaning, so disconnected graphs are rejected
outright.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .decomposition import TreeDecomposition, require_valid
from .errors import (
    CompositionMismatchError,
    DisconnectedError,
    EmptySetError,
    InvalidMapError,
    NotWithinError,
    PreconditionError,
)
from .graph import UNREACHABLE, distances_from_set


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

    def image(self):
        return frozenset(self.mapping.values())


def identity_map(g, h):
    """The identity v -> v, usable whenever h has at least g's vertices."""
    return QuasiIsometryMap(g, h, {v: v for v in g.vertices})


def _check_inputs(g, h, phi):
    if g.n == 0 or h.n == 0:
        raise EmptySetError("quasi-isometry needs non-empty graphs")
    if not g.is_connected() or not h.is_connected():
        raise DisconnectedError("quasi-isometry operations need connected graphs")
    if set(phi.mapping) != set(g.vertices):
        raise InvalidMapError("map domain does not match the source graph")
    for x in phi.mapping.values():
        if not 1 <= x <= h.n:
            raise InvalidMapError(f"map image {x} outside the target graph")


def qi_constant(g, h, phi, qmax):
    """Minimal q <= qmax making phi a q-quasi-isometry, else NotWithinError.

    Integer arithmetic throughout: the lower inequality is checked as
    dist_G <= q * dist_H + q^2.
    """
    if qmax < 1:
        raise ValueError("qmax must be a positive integer")
    _check_inputs(g, h, phi)
    dg = g.distances()
    dh = h.distances()
    img = [0] + [phi.mapping[v] for v in g.vertices]
    pairs = set()
    for u in g.vertices:
        row_h = dh.row(img[u])
        pairs.update(zip(dg.row(u)[u + 1:], map(row_h.__getitem__, img[u + 1:])))
    coverage = distances_from_set(h, phi.image())
    cov_max = max(coverage[x] for x in h.vertices)
    for q in range(1, qmax + 1):
        if cov_max > q:
            continue
        qq = q * q
        if all(b <= q * a + q and a <= q * b + qq for a, b in pairs):
            return q
    raise NotWithinError(qmax)


def measure(g, h, phi, qmax):
    """Copy of phi with measured_q filled in."""
    return replace(phi, measured_q=qi_constant(g, h, phi, qmax))


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


def shortest_path_lex(h, a, b):
    """Lexicographically smallest shortest (a,b)-path, as a vertex list."""
    dist = h.distances()
    if dist.dist(a, b) is UNREACHABLE:
        raise DisconnectedError(f"no path between {a} and {b}")
    path = [a]
    cur = a
    while cur != b:
        d = dist.dist(cur, b)
        cur = min(w for w in h.adjacency[cur] if dist.dist(w, b) == d - 1)
        path.append(cur)
    return path


def middle_vertex(h, a, b):
    """Vertex at position ceil(length/2) on the lexicographically smallest
    shortest (a,b)-path; a deterministic midpoint within distance
    ceil(length/2) of a and floor(length/2) of b."""
    path = shortest_path_lex(h, a, b)
    return path[len(path) // 2]


def pullback_decomposition(g, h, phi, td_h, c):
    """Pull a decomposition of h back along a c-quasi-isometry phi: g -> h.

    Each node keeps its tree position; its new bag is the union, over the
    old bag's members x, of the set of g-vertices whose image lies within
    distance c of x. The result is a decomposition of g whose bags split
    into at most td_h.width + 1 pieces of weak diameter at most 3c^2.
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    _check_inputs(g, h, phi)
    require_valid(h, td_h, "host decomposition")
    qi_constant(g, h, phi, c)  # raises NotWithinError if phi is not a c-qi
    dh = h.distances()
    by_image = {}
    for v in g.vertices:
        by_image.setdefault(phi.mapping[v], []).append(v)
    balls = {}

    def ball(x):
        got = balls.get(x)
        if got is None:
            row = dh.row(x)
            got = frozenset(
                v
                for y, vs in by_image.items()
                if row[y] is not UNREACHABLE and row[y] <= c
                for v in vs
            )
            balls[x] = got
        return got

    bags = {}
    for t in td_h.nodes:
        members = set()
        for x in td_h.bag(t):
            members |= ball(x)
        bags[t] = frozenset(members)
    return TreeDecomposition(td_h.tree, bags, shape=td_h.shape)
