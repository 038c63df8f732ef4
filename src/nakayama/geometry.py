"""Arcs and triangulations of a punctured polygon, and their module dictionary.

Boundary points 1..n sit counterclockwise on a once-punctured n-gon.  An
inner arc runs from point i to point j along the boundary path of length
t in [2, n] (i = j gives the loop of length n around the puncture); a
projective arc joins the puncture to a boundary point.  Crossing is decided
purely combinatorially by cyclic-interval conditions; no coordinates.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, Optional

from . import modcat, tautilt
from .errors import (
    ArcNotPresent,
    ArcTooLong,
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
        if data["kind"] == "proj":
            return Arc(None, int(data["j"]))
        return Arc(int(data["i"]), int(data["j"]))

    @staticmethod
    def parse(text):
        m = re.fullmatch(r"<\s*(\*|\d+)\s*,\s*(\d+)\s*>", text.strip())
        if not m:
            raise NotInDomain(f"cannot parse arc {text!r}")
        i = None if m.group(1) == "*" else int(m.group(1))
        return Arc(i, int(m.group(2)))


def _arc_key(a):
    return (0, a.j, 0) if a.i is None else (1, a.i, a.j)


def all_arcs(n):
    """All admissible arcs, projective first, canonically ordered."""
    arcs = [Arc(None, j) for j in range(1, n + 1)]
    for i in range(1, n + 1):
        for t in range(2, n + 1):
            arcs.append(Arc(i, (i + t - 1) % n + 1))
    return arcs


@lru_cache(maxsize=None)
def _arc_table(n):
    """(arcs, index, compat) with compat[x] the bitmask of arcs compatible
    with arcs[x]; crossing depends only on n, so this is shared."""
    arcs = tuple(all_arcs(n))
    k = len(arcs)
    compat = [0] * k
    for x in range(k):
        for y in range(x + 1, k):
            if compatible(arcs[x], arcs[y], n):
                compat[x] |= 1 << y
                compat[y] |= 1 << x
    return arcs, {a: x for x, a in enumerate(arcs)}, tuple(compat)


def _in_window(x, a, width, n):
    """x in {a, a+1, ..., a+width} read mod n (window of width+1 points)."""
    if width >= n - 1:
        return True
    return (x - a) % n <= width


def crossing(a, b, n):
    """Combinatorial crossing test for two admissible arcs."""
    if a.is_projective and b.is_projective:
        return False
    if a.is_projective or b.is_projective:
        p, inner = (a.j, b) if a.is_projective else (b.j, a)
        t = inner.length(n)
        # p strictly inside the boundary path of the inner arc
        return t >= 2 and _in_window(p, inner.i + 1, t - 2, n)
    s, t = a.length(n), b.length(n)
    if _in_window(a.j, b.i + 1, t - 2, n) and _in_window((b.i + 1) % n or n, a.i + 2, s - 2, n):
        return True
    if _in_window(b.j, a.i + 1, s - 2, n) and _in_window((a.i + 1) % n or n, b.i + 2, t - 2, n):
        return True
    return False


def compatible(a, b, n):
    return not crossing(a, b, n)


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
        return make_triangulation(
            int(data["n"]), [Arc.from_json(a) for a in data["arcs"]]
        )


def make_triangulation(n, arcs):
    arcs = tuple(sorted(set(arcs), key=_arc_key))
    _, index, compat = _arc_table(n)
    try:
        ids = [index[a] for a in arcs]
    except KeyError as e:
        raise NotInDomain(f"{e.args[0]} is not an admissible arc for n = {n}") from None
    for p, x in enumerate(ids):
        for y in ids[p + 1:]:
            if not compat[x] >> y & 1:
                raise NotInDomain(f"arcs {arcs[p]} and {all_arcs(n)[y]} cross")
    if len(arcs) != n:
        raise NotInDomain(f"expected {n} arcs, got {len(arcs)}")
    if not any(a.is_projective for a in arcs):
        raise NotInDomain("triangulation must contain a projective arc")
    return Triangulation(n, arcs)


class SignedTriangulation(NamedTuple):
    triangulation: Triangulation
    sign: int  # +1 or -1

    def __str__(self):
        return f"{self.triangulation} [{'+' if self.sign > 0 else '-'}]"


def enumerate_triangulations(n, max_len=None):
    """All triangulations, restricted so inner arcs with terminal j have
    length at most max_len[j] when bounds are given.

    DFS over canonically ordered arcs with bitmask compatibility pruning;
    every compatible n-set is maximal, which is checked through the projective
    arc requirement in make_triangulation.
    """
    full_arcs, _, full_compat = _arc_table(n)
    keep = [
        x
        for x, a in enumerate(full_arcs)
        if a.is_projective or max_len is None or a.length(n) <= max_len[a.j]
    ]
    arcs = [full_arcs[x] for x in keep]
    k = len(arcs)
    compat = [0] * k
    for new_x, x in enumerate(keep):
        mask = 0
        for new_y, y in enumerate(keep):
            if full_compat[x] >> y & 1:
                mask |= 1 << new_y
        compat[new_x] = mask
    out = []

    def extend(chosen, candidates):
        if len(chosen) == n:
            out.append(make_triangulation(n, chosen))
            return
        if len(chosen) + candidates.bit_count() < n:
            return
        cs = candidates
        while cs:
            x = (cs & -cs).bit_length() - 1
            cs &= cs - 1
            chosen.append(arcs[x])
            extend(chosen, cs & compat[x])
            chosen.pop()

    extend([], (1 << k) - 1)
    return out


def enumerate_restricted(n, bounds):
    """Triangulations whose inner arcs respect per-terminal length bounds
    (bounds maps boundary point -> max length)."""
    capped = {j: min(bounds[j], n) for j in range(1, n + 1)}
    return enumerate_triangulations(n, capped)


def fan_arcs(x, i, j):
    """Inner arcs of x inside the fan spanned by the projective arcs at i
    and j and the counterclockwise boundary path from i to j (i = j spans
    the whole boundary)."""
    n = x.n
    width = (j - i - 1) % n + 1
    out = []
    for a in x.arcs:
        if a.is_projective:
            continue
        off = (a.i - i) % n
        if off + a.length(n) <= width:
            out.append(a)
    return tuple(out)


# -- dictionary between arcs and modules ------------------------------------


def _require_standard_labels(alg):
    """The arc dictionary needs vertices 1..n with arrows along j -> j-1
    (cyclically); both cyclic and linear quivers qualify."""
    n = alg.n
    if n == 0 or alg.vertices != tuple(range(1, n + 1)):
        raise NotInDomain("arc dictionary needs vertices labelled 1..n")
    for j, k in alg.next_down.items():
        if k != (j - 2) % n + 1:
            raise NotInDomain("arc dictionary needs arrows along the cycle order")


def arc_to_indec(alg, arc):
    """Projective arcs give projectives; an inner arc of length t with
    terminal j gives the module with top j and length t - 1."""
    _require_standard_labels(alg)
    if arc.is_projective:
        return Indec(arc.j, alg.loewy[arc.j])
    t = arc.length(alg.n)
    if t > alg.loewy[arc.j]:
        raise ArcTooLong(f"{arc} has length {t} > loewy({arc.j})")
    return Indec(arc.j, t - 1)


def indec_to_arc(alg, m):
    """Inverse of arc_to_indec on tau-rigid indecomposables."""
    _require_standard_labels(alg)
    modcat.check_valid(alg, m)
    if not modcat.is_tau_rigid_indec(alg, m):
        raise NotTauRigid(f"{m} is not tau-rigid")
    if modcat.is_projective(alg, m):
        return Arc(None, m.top)
    n = alg.n
    return Arc((m.top - m.length - 2) % n + 1, m.top)


def triangulation_to_tau_tilt(alg, x):
    """Arcwise image of a (suitably restricted) triangulation: a tau-tilting
    pair with empty killed set."""
    _require_standard_labels(alg)
    module = [arc_to_indec(alg, a) for a in x.arcs]
    pair = tautilt.is_support_tau_tilting(alg, module)
    if pair is None or pair.killed:
        raise NotInDomain("image is not tau-tilting")
    return pair


def tau_tilt_to_triangulation(alg, pair):
    _require_standard_labels(alg)
    if pair.killed:
        raise NotInDomain("pair must be tau-tilting")
    return make_triangulation(alg.n, [indec_to_arc(alg, m) for m in pair.module])


def signed_to_stt(alg, sx):
    """Signed-triangulation dictionary (needs every Loewy length >= n):
    inner arcs give their modules for both signs; a projective arc gives
    the projective with sign + and kills the next vertex around with -."""
    _require_standard_labels(alg)
    n = alg.n
    if any(alg.loewy[j] < n for j in alg.vertices):
        raise LoewyTooSmall("every Loewy length must be at least n")
    module = []
    for a in sx.triangulation.arcs:
        if a.is_projective and sx.sign < 0:
            continue
        module.append(arc_to_indec(alg, a))
    pair = tautilt.is_support_tau_tilting(alg, module)
    if pair is None:
        raise InvariantViolation(f"image of {sx} is not support tau-tilting")
    if sx.sign < 0:
        expected = tuple(
            sorted(a.j % n + 1 for a in sx.triangulation.arcs if a.is_projective)
        )
    else:
        expected = ()
    if pair.killed != expected:
        raise InvariantViolation(
            f"image of {sx} kills {pair.killed}, expected {expected}"
        )
    return pair


def stt_to_signed(alg, pair):
    """Inverse of signed_to_stt."""
    _require_standard_labels(alg)
    n = alg.n
    if any(alg.loewy[j] < n for j in alg.vertices):
        raise LoewyTooSmall("every Loewy length must be at least n")
    if not pair.killed:
        return SignedTriangulation(tau_tilt_to_triangulation(alg, pair), +1)
    arcs = [indec_to_arc(alg, m) for m in pair.module]
    arcs += [Arc(None, (v - 2) % n + 1) for v in pair.killed]
    return SignedTriangulation(make_triangulation(n, arcs), -1)


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
    rest = [a for a in x.arcs if a != arc]
    replacements = [
        b
        for b in all_arcs(n)
        if b != arc
        and b not in rest
        and all(compatible(b, a, n) for a in rest)
    ]
    if len(replacements) != 1:
        raise InvariantViolation(
            f"flipping {arc} in {x} has replacements {[str(b) for b in replacements]}"
        )
    return SignedTriangulation(
        make_triangulation(n, rest + replacements), sx.sign
    )


# -- triangles and DOT export ------------------------------------------------


def triangles(x):
    """The n triangles of a triangulation, each a tuple of its bounding
    arcs (boundary edges omitted, so self-folded pieces show two arcs)."""
    n = x.n
    proj = sorted(a.j for a in x.arcs if a.is_projective)
    tris = []
    r = len(proj)
    for idx, j in enumerate(proj):
        jplus = proj[(idx + 1) % r]
        gap = (jplus - j - 1) % n + 1
        center = [Arc(None, j)] if r == 1 else [Arc(None, j), Arc(None, jplus)]
        chord = Arc(j, (j + gap - 1) % n + 1)
        if gap >= 2:
            tris.append(tuple(center + [chord]))
        else:
            tris.append(tuple(center))
        # polygon part of the fan: inner arcs under the chord
        tris.extend(_polygon_triangles(fan_arcs(x, j, jplus), j, gap, n))
    if len(tris) != n:
        raise InvariantViolation(f"{x} splits into {len(tris)} triangles, not {n}")
    return tris


def _polygon_triangles(fan, base, width, n):
    """Triangles of the triangulated (width+1)-gon sitting over the chord
    from base of span width; corners are offsets 0..width from base.
    Boundary edges are tracked as None and omitted from the output."""
    if width < 2:
        return []
    sides = {}
    for a in fan:
        off = (a.i - base) % n
        sides[(off, off + a.length(n))] = a
    if (0, width) not in sides:
        raise InvariantViolation(f"fan over {base} of span {width} has no chord")
    for off in range(width):
        sides.setdefault((off, off + 1), None)
    tris = []
    for lo, hi in sorted(sides, key=lambda s: (s[1] - s[0], s)):
        if hi - lo < 2:
            continue
        # split corner: the unique mid with both (lo,mid),(mid,hi) present
        mids = [m for m in range(lo + 1, hi) if (lo, m) in sides and (m, hi) in sides]
        if len(mids) != 1:
            raise InvariantViolation(
                f"fan over {base}: side {(lo, hi)} has split corners {mids}"
            )
        m = mids[0]
        arcs = [sides[s] for s in ((lo, m), (m, hi), (lo, hi)) if sides[s] is not None]
        tris.append(tuple(arcs))
    return tris


def triangulation_dot(x, name="triangulation"):
    """DOT graph with one node per arc and an edge whenever two arcs bound
    a common triangle."""
    lines = [f'graph "{name}" {{']
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
