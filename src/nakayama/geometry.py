"""Arcs and triangulations of a punctured polygon, and their module dictionary.

Boundary points 1..n sit counterclockwise on a once-punctured n-gon.  An
inner arc runs from point i to point j along the boundary path of length
t in [2, n] (i = j gives the loop of length n around the puncture); a
projective arc joins the puncture to a boundary point.  Crossing is read off
the universal cover of the boundary, where the inner arc <i, i+t> lifts to
the integer interval [i, i+t]: two arcs cross when some of their lifts
interleave strictly, and a projective arc crosses an inner arc when its
point lies strictly inside a lift.  No coordinates, no case analysis.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import le
from typing import NamedTuple, Optional

from . import modcat, tautilt
from .algebra import standard_arrows
from .errors import (
    ArcNotPresent,
    ArcTooLong,
    InvalidModule,
    InvariantViolation,
    LoewyTooSmall,
    NotInDomain,
    NotTauRigid,
)
from .modcat import Indec


class Arc(NamedTuple):
    """Admissible arc: inner ``<i,j>`` when i is a point, projective
    ``<*,j>`` when i is None."""

    i: Optional[int]
    j: int

    @property
    def is_projective(self):
        return self.i is None

    def length(self, n):
        """Length of an inner arc: t in [2, n] with j = i + t around."""
        if self.i is None:
            raise NotInDomain(f"projective arc {self} has no length")
        return (self.j - self.i - 1) % n + 1

    def __str__(self):
        return f"<*,{self.j}>" if self.i is None else f"<{self.i},{self.j}>"

    def to_json(self):
        if self.i is None:
            return {"kind": "proj", "j": self.j}
        return {"kind": "inner", "i": self.i, "j": self.j}

    @staticmethod
    def from_json(data):
        kind, j = data["kind"], data["j"]
        i = data["i"] if kind == "inner" else None
        if type(j) is not int or not (kind == "proj" or kind == "inner" and type(i) is int):
            raise NotInDomain(f"arc {data} needs kind proj or inner and integer points")
        return Arc(i, j)

    @staticmethod
    def parse(text):
        m = re.fullmatch(r"<\s*(\*|[0-9]+)\s*,\s*([0-9]+)\s*>", text.strip())
        if not m:
            raise NotInDomain(f"cannot parse arc {text!r}")
        i = None if m.group(1) == "*" else int(m.group(1))
        return Arc(i, int(m.group(2)))


def _arc_key(a):
    return (0, a.j, 0) if a.i is None else (1, a.i, a.j)


def all_arcs(n):
    """All admissible arcs: the projective arcs by point, then the inner
    arcs by start and length (not canonical order; _arc_table sorts them)."""
    arcs = [Arc(None, j) for j in range(1, n + 1)]
    for i in range(1, n + 1):
        for t in range(2, n + 1):
            arcs.append(Arc(i, (i + t - 1) % n + 1))
    return arcs


@lru_cache(maxsize=None)
def _arc_table(n):
    """(arcs, index, compat): the admissible arcs in canonical order, the
    position of each, and compat[x] the bitmask of arcs compatible with
    arcs[x], itself included; shared per n by the two readers that need
    every arc, _triangulations and flip."""
    arcs = tuple(sorted(all_arcs(n), key=_arc_key))
    k = len(arcs)
    compat = [1 << x for x in range(k)]
    for x in range(k):
        for y in range(x + 1, k):
            if not crossing(arcs[x], arcs[y], n):
                compat[x] |= 1 << y
                compat[y] |= 1 << x
    return arcs, {a: x for x, a in enumerate(arcs)}, tuple(compat)


def crossing(a, b, n):
    """Whether two admissible arcs cross: with a lifted to [a.i, a.i+s] and
    b to [b.i, b.i+t] shifted by d = (b.i - a.i) % n, b starts strictly
    inside a and ends beyond it, or its lift one turn back ends strictly
    inside a.  A projective arc at p crosses an inner arc <i, i+t> when
    0 < (p - i) % n < t."""
    if a.is_projective:
        if b.is_projective:
            return False
        a, b = b, a
    s = a.length(n)
    if b.is_projective:
        return 0 < (b.j - a.i) % n < s
    t = b.length(n)
    d = (b.i - a.i) % n
    return 0 < d < s < d + t or 0 < d + t - n < s


class Triangulation(NamedTuple):
    """Maximal set of pairwise compatible admissible arcs (always n arcs,
    at least one projective)."""

    n: int
    arcs: tuple

    def __str__(self):
        return " ".join(str(a) for a in self.arcs)

    def to_json(self):
        return {"n": self.n, "arcs": [a.to_json() for a in self.arcs]}

    @staticmethod
    def from_json(data):
        return make_triangulation(data["n"], [Arc.from_json(a) for a in data["arcs"]])


def admissible(a, n):
    """Whether a is an Arc on int points in 1..n (i is None when projective)
    that is not a boundary edge, the inner arc of length 1: the one test of
    what an arc is.  Equality cannot see the types, as True == 1 and a plain
    tuple equals an Arc, so every cache or memo of arcs asks it first."""
    if type(a) is not Arc:
        return False
    i, j = a
    return type(j) is int and 0 < j <= n and (
        i is None or type(i) is int and 0 < i <= n and (j - i - 1) % n != 0)


def make_triangulation(n, arcs):
    """The triangulation on the given arcs, in canonical order; NotInDomain
    unless n is an int and they are n pairwise compatible admissible arcs,
    one projective.  Every arc is checked admissible, in input order, on
    every call; only then does the cache of accepted tuples see them."""
    if type(n) is not int:
        raise NotInDomain(f"triangulation needs an integer n, not {n!r}")
    arcs = tuple(arcs)
    for a in arcs:
        if not admissible(a, n):
            raise NotInDomain(f"{a} is not an admissible arc for n = {n}")
    return _triangulation_on(n, arcs)


@lru_cache(maxsize=2048)  # kept for all Kupisch series of n
def _triangulation_on(n, arcs):
    """make_triangulation on admissible arcs: crossing per pair of distinct
    arcs in canonical order, then the count and the projective arc."""
    out = sorted(set(arcs), key=_arc_key)
    for x, a in enumerate(out):
        for b in out[x + 1:]:
            if crossing(a, b, n):
                raise NotInDomain(f"arcs {a} and {b} cross")
    if len(out) != n:
        raise NotInDomain(f"expected {n} arcs, got {len(out)}")
    if not (out and out[0].is_projective):
        raise NotInDomain("triangulation must contain a projective arc")
    return Triangulation(n, tuple(out))


class SignedTriangulation(NamedTuple):
    triangulation: Triangulation
    sign: int  # +1 or -1

    def __str__(self):
        return f"{self.triangulation} [{'+' if self.sign > 0 else '-'}]"


def enumerate_triangulations(n):
    """All triangulations, in the order of a DFS over the arcs of all_arcs."""
    return [x for x, _ in _triangulations(n)]


@lru_cache(maxsize=None)
def _triangulations(n):
    """Every triangulation with the length of its longest inner arc at
    each terminal 1..n (0 where there is none); like the arc table this
    depends on n alone.

    The triangulations are the maximal cliques of the arc table's graph,
    each with n arcs, ordered as a DFS over the arcs of all_arcs meets them.
    """
    table, _, compat = _arc_table(n)
    nbr = [mask & ~(1 << x) for x, mask in enumerate(compat)]
    rank = {a: r for r, a in enumerate(all_arcs(n))}
    cliques = modcat.maximal_cliques(nbr, (1 << len(table)) - 1, table, n)
    out = []
    for clique in sorted(cliques, key=lambda c: sorted(map(rank.get, c))):
        x = Triangulation(n, tuple(sorted(clique, key=_arc_key)))
        if not x.arcs[0].is_projective:
            raise InvariantViolation(f"clique {x} has no projective arc")
        out.append((x, longest_inner_arcs(n, x.arcs)))
    return tuple(out)


def longest_inner_arcs(n, arcs):
    """Per terminal j = 1..n, the length of the longest inner arc of arcs
    ending at j (0 where there is none)."""
    longest = [0] * n
    for a in arcs:
        if not a.is_projective:
            longest[a.j - 1] = max(longest[a.j - 1], a.length(n))
    return tuple(longest)


def length_caps(n, bounds):
    """Per terminal j = 1..n, the largest longest_inner_arcs entry that
    bounds (boundary point -> max length) admits: a terminal without an
    inner arc passes any bound there, a negative one included."""
    return [max(bounds[j], 0) for j in range(1, n + 1)]


def enumerate_restricted(n, bounds):
    """Triangulations whose inner arcs respect per-terminal length bounds
    (bounds maps boundary point -> max length), in the order of
    enumerate_triangulations."""
    caps = length_caps(n, bounds)
    return [x for x, longest in _triangulations(n) if all(map(le, longest, caps))]


# -- dictionary between arcs and modules ------------------------------------


def _arc_dictionary(alg):
    """Memos (arc -> module, module -> arc) of the dictionary over alg.

    The dictionary needs vertices 1..n whose edges all lie on the standard
    cycle ``standard_arrows(n, True)``; both cyclic and linear quivers in
    the standard labelling qualify.  The algebra is immutable, so the memos
    are kept on it once its labels pass; an algebra that fails keeps
    nothing and raises again on every call.
    """
    memo = alg.__dict__.get("_arc_dictionary")
    if memo is None:
        n = alg.n
        if n == 0 or alg.vertices != tuple(range(1, n + 1)):
            raise NotInDomain("arc dictionary needs vertices labelled 1..n")
        if not alg.next_down.items() <= standard_arrows(n, True).items():
            raise NotInDomain("arc dictionary needs arrows along the cycle order")
        memo = alg.__dict__["_arc_dictionary"] = ({}, {})
    return memo


def arc_to_indec(alg, arc):
    """Projective arcs give projectives; an inner arc of length t with
    terminal j gives the module with top j and length t - 1.  The arc is
    checked admissible before the memo."""
    modules = _arc_dictionary(alg)[0]
    if not admissible(arc, alg.n):
        raise NotInDomain(f"{arc} is a boundary edge or has an end outside the points 1..{alg.n}")
    m = modules.get(arc)
    if m is None:
        if arc.is_projective:
            m = Indec(arc.j, alg.loewy[arc.j])
        else:
            t = arc.length(alg.n)
            if t > alg.loewy[arc.j]:
                raise ArcTooLong(f"{arc} has length {t} > loewy({arc.j})")
            m = Indec(arc.j, t - 1)
        modules[arc] = m
    return m


def indec_to_arc(alg, m):
    """Inverse of arc_to_indec on tau-rigid indecomposables, each a
    modcat.typed_indec, checked before the memo."""
    arcs = _arc_dictionary(alg)[1]
    if not modcat.typed_indec(m):
        raise InvalidModule(f"{m!r} is not an Indec with integer top and length")
    arc = arcs.get(m)
    if arc is None:
        if not modcat.is_tau_rigid_indec(alg, m):
            raise NotTauRigid(f"{m} is not tau-rigid")
        if m.length == alg.loewy[m.top]:
            arc = Arc(None, m.top)
        else:
            arc = Arc((m.top - m.length - 2) % alg.n + 1, m.top)
        arcs[m] = arc
    return arc


def triangulation_to_tau_tilt(alg, x):
    """Arcwise image of a (suitably restricted) triangulation: a tau-tilting
    pair with empty killed set."""
    _arc_dictionary(alg)
    if x.n != alg.n:
        raise NotInDomain(f"{x} triangulates the punctured {x.n}-gon, not the {alg.n}-gon")
    module = [arc_to_indec(alg, a) for a in x.arcs]
    pair = tautilt.is_support_tau_tilting(alg, module)
    if pair is None or pair.killed:
        raise NotInDomain("image is not tau-tilting")
    return pair


def tau_tilt_to_triangulation(alg, pair):
    _arc_dictionary(alg)
    if pair.killed:
        raise NotInDomain("pair must be tau-tilting")
    return make_triangulation(alg.n, [indec_to_arc(alg, m) for m in pair.module])


def _signed_dictionary(alg):
    """Check that alg passes the arc dictionary's label check and has every
    Loewy length at least n, as the signed model needs."""
    _arc_dictionary(alg)
    if any(alg.loewy[j] < alg.n for j in alg.vertices):
        raise LoewyTooSmall("every Loewy length must be at least n")


def signed_to_stt(alg, sx):
    """Signed-triangulation dictionary (needs every Loewy length >= n): sign
    + is triangulation_to_tau_tilt; with sign - inner arcs give the module,
    and the projective arcs must end at shift_killed of the killed set."""
    _signed_dictionary(alg)
    if sx.sign > 0:
        return triangulation_to_tau_tilt(alg, sx.triangulation)
    module = [arc_to_indec(alg, a) for a in sx.triangulation.arcs if not a.is_projective]
    pair = tautilt.is_support_tau_tilting(alg, module)
    if pair is None:
        raise InvariantViolation(f"image of {sx} is not support tau-tilting")
    points = {a.j for a in sx.triangulation.arcs if a.is_projective}
    if tautilt.shift_killed(alg, pair.killed) != points:
        raise InvariantViolation(f"image of {sx} kills {pair.killed}, expected a shift onto {points}")
    return pair


def stt_to_signed(alg, pair):
    """Inverse of signed_to_stt; sign - reads the arcs of the proper lift."""
    _signed_dictionary(alg)
    if not pair.killed:
        return SignedTriangulation(tau_tilt_to_triangulation(alg, pair), +1)
    lifted = [Indec(v, alg.loewy[v]) for v in tautilt.shift_killed(alg, pair.killed)]
    arcs = [indec_to_arc(alg, m) for m in pair.module + tuple(lifted)]
    return SignedTriangulation(make_triangulation(alg.n, arcs), -1)


def flip(sx, arc):
    """Flip a signed triangulation at one of its arcs.

    A projective arc inside a self-folded triangle pops the sign; any other
    arc is exchanged for the unique different arc completing the rest.
    """
    x = sx.triangulation
    if arc not in x.arcs:
        raise ArcNotPresent(f"{arc} not in triangulation")
    n = x.n
    # self-folded: the loop at the same point is present (the punctured
    # monogon is self-folded with no room for a loop arc)
    if arc.is_projective and (n == 1 or Arc(arc.j, arc.j) in x.arcs):
        return SignedTriangulation(x, -sx.sign)
    table, index, compat = _arc_table(n)
    clique = sum(1 << index[a] for a in x.arcs)
    found = modcat.exchange(compat, clique, index[arc])
    if found.bit_count() != 1:
        raise InvariantViolation(
            f"flipping {arc} in {x} has replacements {[str(table[y]) for y in modcat.bits(found)]}"
        )
    arcs = [a for a in x.arcs if a != arc] + [table[found.bit_length() - 1]]
    return SignedTriangulation(make_triangulation(n, arcs), sx.sign)


# -- triangles and DOT export ------------------------------------------------


def triangles(x):
    """The n triangles of a triangulation, each a tuple of its bounding
    arcs (boundary edges omitted, so self-folded pieces show two arcs).

    A side over [lo, hi] on the universal cover is keyed by its start and
    length: an inner arc, or a boundary edge (None) when hi = lo + 1.
    Between consecutive projective arcs at j and k come the triangle at
    the puncture, then, shortest arc first, the triangle under each inner
    arc inside [j, k], found by the one corner that splits it.
    """
    n = x.n
    sides = {(i, 1): None for i in range(1, n + 1)}
    sides.update(((a.i, a.length(n)), a) for a in x.arcs if not a.is_projective)

    def key(lo, hi):
        return (lo - 1) % n + 1, hi - lo

    proj = sorted(a.j for a in x.arcs if a.is_projective)
    tris = []
    for j, k in zip(proj, proj[1:] + proj[:1]):
        gap = (k - j - 1) % n + 1
        center = (Arc(None, j),) if len(proj) == 1 else (Arc(None, j), Arc(None, k))
        if gap >= 2:
            if (j, gap) not in sides:
                raise InvariantViolation(f"fan over {j} of span {gap} has no chord")
            center += (sides[j, gap],)
        tris.append(center)
        for t, lo in sorted((t, j + (i - j) % n) for i, t in sides if 1 < t <= gap - (i - j) % n):
            hi = lo + t
            mids = [m for m in range(lo + 1, hi) if key(lo, m) in sides and key(m, hi) in sides]
            if len(mids) != 1:
                raise InvariantViolation(f"fan over {j}: side {(lo, hi)} has split corners {mids}")
            arcs = (sides[key(lo, mids[0])], sides[key(mids[0], hi)], sides[key(lo, hi)])
            tris.append(tuple(a for a in arcs if a is not None))
    if len(tris) != n:
        raise InvariantViolation(f"{x} splits into {len(tris)} triangles, not {n}")
    return tris


def triangulation_dot(x):
    """DOT graph with one node per arc and an edge whenever two arcs bound
    a common triangle."""
    lines = ['graph "triangulation" {']
    ids = {a: f"a{i}" for i, a in enumerate(x.arcs)}
    for a in x.arcs:
        lines.append(f'  {ids[a]} [label="{a}"];')
    seen = set()
    for tri in triangles(x):
        for p in range(len(tri)):
            for q in range(p + 1, len(tri)):
                e = tuple(sorted((ids[tri[p]], ids[tri[q]])))
                if e not in seen:
                    seen.add(e)
                    lines.append(f"  {e[0]} -- {e[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
