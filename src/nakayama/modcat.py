"""Indecomposable modules over a Nakayama algebra and their Hom/tau calculus.

Every indecomposable is uniserial and is written as its simple top together
with its Loewy length; a basic module is a sorted tuple of such pairs.  All
operations take the ambient algebra explicitly: module values are plain data
and stay comparable across rejection steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidModule, InvariantViolation


class Indec(NamedTuple):
    """Indecomposable module: simple top and Loewy length."""

    top: int
    length: int

    def to_json(self):
        return {"top": self.top, "len": self.length}

    @staticmethod
    def from_json(data):
        return Indec(int(data["top"]), int(data["len"]))


def check_valid(alg, m):
    if m.top not in alg.loewy:
        raise InvalidModule(f"top {m.top} is not a vertex")
    if not 1 <= m.length <= alg.loewy[m.top]:
        raise InvalidModule(f"length {m.length} not in [1, loewy({m.top})]")
    return m


def comp_factors(alg, m):
    """Composition factors from top to socle (list of vertices)."""
    cache = alg.__dict__.setdefault("_factors", {})
    hit = cache.get(m)
    if hit is not None:
        return hit
    check_valid(alg, m)
    out = [m.top]
    v = m.top
    for _ in range(m.length - 1):
        v = alg.next_down[v]
        out.append(v)
    cache[m] = out
    return out


def socle_vertex(alg, m):
    check_valid(alg, m)
    v = alg.walk_down(m.top, m.length - 1)
    if v is None:
        raise InvariantViolation(f"{m} runs off the quiver before its socle")
    return v


def is_projective(alg, m):
    check_valid(alg, m)
    return m.length == alg.loewy[m.top]


def tau(alg, m):
    """Auslander-Reiten translate: None for projectives, else the module
    with the same length and top shifted one step down the quiver."""
    if is_projective(alg, m):
        return None
    return Indec(alg.next_down[m.top], m.length)


def hom_nonzero(alg, m, n):
    """Whether Hom(m, n) != 0.

    Uniserial overlap witness: some length-t top quotient of m coincides
    with the length-t submodule of n, i.e. top(m) is among the len(m)
    factors of n nearest its socle.  Works uniformly on cyclic and linear
    components; across components it is vacuously false.
    """
    check_valid(alg, m)
    return m.top in comp_factors(alg, n)[-m.length:]


def is_tau_rigid_indec(alg, m):
    """Projectives and everything on a linear component are tau-rigid; on a
    cyclic component only lengths below the cycle size are."""
    check_valid(alg, m)
    return _rigid(alg, m)


def _rigid(alg, m):
    """is_tau_rigid_indec for a module already checked."""
    return (
        m.length == alg.loewy[m.top]
        or not alg.component_is_cyclic(m.top)
        or m.length < alg.component_size(m.top)
    )


def pair_tau_rigid(alg, x, y):
    """Whether x + y is tau-rigid (both rigid, no Hom into the other's tau)."""
    cache = alg.__dict__.setdefault("_pair_rigid", {})
    key = (x, y) if x <= y else (y, x)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = _pair_tau_rigid(alg, x, y)
    cache[key] = out
    return out


def _pair_tau_rigid(alg, x, y):
    check_valid(alg, x)
    check_valid(alg, y)
    return (
        _rigid(alg, x)
        and _rigid(alg, y)
        and not _hom_into_tau(alg, x, y)
        and not _hom_into_tau(alg, y, x)
    )


def _hom_into_tau(alg, x, y):
    """Whether Hom(x, tau y) != 0 for checked x and y; tau y has the
    length of y and the top one step down, and is a module of alg."""
    if y.length == alg.loewy[y.top]:
        return False
    return x.top in comp_factors(alg, Indec(alg.next_down[y.top], y.length))[-x.length:]


def in_fac(alg, x, module):
    """Whether x lies in Fac of the basic module.

    A uniserial is a factor of a sum iff it is a quotient of a single
    summand: same top, no greater length.
    """
    check_valid(alg, x)
    return any(s.top == x.top and s.length >= x.length for s in module)


def bits(mask):
    """Positions of the set bits of a nonnegative mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class BitIndex(dict):
    """Bit positions of the indecomposables of one algebra, filled lazily.

    Maps each indecomposable to its bit position; a missing one gets the
    next free position on lookup, after check_valid, so holding a position
    means being valid.  supp[p] is its support as a mask over alg.vertices
    (bit i for alg.vertices[i]).  Row p of the pair table is filled on its
    own: tested[p] masks the positions q that p has been tested against
    through pair_tau_rigid, compat[p] those where the pair is tau-rigid;
    bit p of compat[p] is the indecomposable's own tau-rigidity.  Filling
    row q later asks for the same pair again, and pair_tau_rigid's cache
    answers it.
    """

    def __init__(self, alg):
        super().__init__()
        self.alg = alg
        self.vertex_bit = {v: 1 << i for i, v in enumerate(alg.vertices)}
        self.indecs = []
        self.supp = []
        self.tested = []
        self.compat = []
        self._vertex_tuples = {}

    def __missing__(self, m):
        supp = 0
        for v in comp_factors(self.alg, m):
            supp |= self.vertex_bit[v]
        p = self[m] = len(self.indecs)
        self.indecs.append(m)
        self.supp.append(supp)
        self.tested.append(0)
        self.compat.append(0)
        return p

    def test(self, p, mask):
        """Fill row p for the positions of mask it has not been tested
        against yet."""
        todo = mask & ~self.tested[p]
        self.tested[p] |= todo
        x, indecs = self.indecs[p], self.indecs
        for q in bits(todo):
            if pair_tau_rigid(self.alg, x, indecs[q]):
                self.compat[p] |= 1 << q

    def vertices(self, mask):
        """The vertices whose bits are set in mask, in order."""
        out = self._vertex_tuples.get(mask)
        if out is None:
            out = tuple(v for v, bit in self.vertex_bit.items() if mask & bit)
            self._vertex_tuples[mask] = out
        return out


def bit_index(alg):
    """The algebra's BitIndex, created empty on first use."""
    index = alg.__dict__.get("_bit_index")
    if index is None:
        index = alg.__dict__["_bit_index"] = BitIndex(alg)
    return index


def support(alg, module):
    """Set of vertices occurring as composition factors."""
    index = bit_index(alg)
    mask = 0
    for s in module:
        mask |= index.supp[index[s]]
    return set(index.vertices(mask))


def all_indecs(alg):
    """All indecomposables, ordered by (top, length)."""
    return [
        Indec(j, l)
        for j in alg.vertices
        for l in range(1, alg.loewy[j] + 1)
    ]


def all_tau_rigid_indecs(alg):
    return [m for m in all_indecs(alg) if is_tau_rigid_indec(alg, m)]
