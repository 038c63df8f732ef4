"""Indecomposable modules over a Nakayama algebra and their Hom/tau calculus.

Every indecomposable is uniserial and is written as its simple top together
with its Loewy length; a basic module is a sorted tuple of such pairs.  All
operations take the ambient algebra explicitly: module values are plain data
and stay comparable across rejection steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import clamps
from .errors import InvalidModule, InvariantViolation


class Indec(NamedTuple):
    """Indecomposable module: simple top and Loewy length."""

    top: int
    length: int

    def to_json(self):
        return {"top": self.top, "len": self.length}

    @staticmethod
    def from_json(data):
        top, length = data["top"], data["len"]
        if type(top) is not int or type(length) is not int:
            raise InvalidModule(f"summand {data} needs integer top and len")
        return Indec(top, length)


def typed_indec(m):
    """Whether m is an Indec with int top and length: the part of validity
    that equality cannot see, as True == 1 and a plain tuple equals an
    Indec.  geometry.indec_to_arc asks it on every call, before its memo;
    BitIndex asks it on a miss, before a module enters the index."""
    return type(m) is Indec and type(m.top) is int and type(m.length) is int


def untyped_summand(module):
    """The InvalidModule for a module with a summand that cannot be hashed
    or ordered, raised in place of the TypeError that met it."""
    return InvalidModule(f"{module!r} has a summand that is not an Indec with integer top and length")


def check_valid(alg, m):
    try:
        if m.top not in alg.loewy:
            raise InvalidModule(f"top {m.top} is not a vertex")
        if not 1 <= m.length <= alg.loewy[m.top]:
            raise InvalidModule(f"length {m.length} not in [1, loewy({m.top})]")
    except TypeError:  # a top that cannot be hashed or a length that cannot be compared
        raise InvalidModule(f"{m!r} is not an Indec with integer top and length") from None
    return m


def comp_factors(alg, m):
    """Composition factors from top to socle (tuple of vertices)."""
    check_valid(alg, m)
    return alg.factors(m.top, m.length)


def is_projective(alg, m):
    check_valid(alg, m)
    return m.length == alg.loewy[m.top]


def is_tau_rigid_indec(alg, m):
    """Whether m is tau-rigid: the diagonal of the pair test."""
    return pair_tau_rigid(alg, m, m)


def pair_tau_rigid(alg, x, y):
    """Whether x + y is tau-rigid (both rigid, no Hom into the other's tau)."""
    cache = alg.__dict__.get("_pair_rigid") or alg.__dict__.setdefault("_pair_rigid", {})
    try:
        key = (x, y) if x <= y else (y, x)
        out = cache.get(key)
    except TypeError:  # a part that cannot be ordered or hashed
        raise untyped_summand((x, y)) from None
    if out is None:
        out = cache[key] = _pair_tau_rigid(alg, x, y)
    return out


def _pair_tau_rigid(alg, x, y):
    """pair_tau_rigid uncached: both rigid (the guard, the one per-module
    statement: a non-projective on a cycle of size vertices, 0 on a path, is
    shorter than it; Adachi-Iyama-Reiten), and no Hom(a, tau b) either way;
    for b not projective it is nonzero when top(a) is a step d in [len b -
    len a, len b) below top(tau b) on the universal cover of the arrow walk
    (least lift past the lower end)."""
    (top_x, len_x), (top_y, len_y) = x, y
    loewy_x, loewy_y = alg.loewy.get(top_x, 0), alg.loewy.get(top_y, 0)
    if not (1 <= len_x <= loewy_x and 1 <= len_y <= loewy_y):
        check_valid(alg, x)
        check_valid(alg, y)
    size, walk, pos_x = alg._components[top_x]
    size_y, walk_y, pos_y = alg._components[top_y]
    if size and size <= len_x < loewy_x or size_y and size_y <= len_y < loewy_y:
        return False
    if walk is not walk_y:
        return True
    for a, b, d, loewy_b in ((len_x, len_y, pos_x - pos_y - 1, loewy_y),
                             (len_y, len_x, pos_y - pos_x - 1, loewy_x)):
        if b < loewy_b:
            lo = b - a if b > a else 0
            if size:
                d = lo + (d - lo) % size
            if lo <= d < b:
                return False
    return True


def bits(mask):
    """Positions of the set bits of a nonnegative mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def maximal_cliques(nbr, nodes, labels, size):
    """The maximal cliques among the nodes mask, as tuples of the labels
    of their members in search order (nodes at len(labels) and beyond have
    no label); nbr[p] masks the neighbours of node p, p itself excluded.

    Bron-Kerbosch with the Tomita pivot.  Every maximal clique must have
    size members; on no nodes the one clique is the empty one.
    """
    if not nodes:
        if size:
            raise InvariantViolation(f"the empty graph has no clique of {size} members")
        return [()]
    base, found, chosen = len(labels), [], []

    def expand(cand, done, depth):
        # cand is never empty: a branch that would empty it is a leaf,
        # taken below; a pivot that leaves at most one branch is taken at once
        best, rest, enough = -1, cand | done, cand.bit_count() - 1
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            count = (cand & nbr[w]).bit_count()
            if count > best:
                best, pivot = count, w
                if count >= enough:
                    break
        todo = cand & ~nbr[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            row = nbr[v]
            if v < base:
                chosen.append(labels[v])
            if cand & row:
                expand(cand & row, done & row, depth + 1)
            elif not done & row:
                if depth + 1 != size:
                    raise InvariantViolation(
                        f"maximal clique on {chosen} has {depth + 1} members, not {size}"
                    )
                found.append(tuple(chosen))
            if v < base:
                chosen.pop()
            todo, cand, done = todo ^ low, cand ^ low, done | low  # todo lies in cand

    expand(nodes, 0, 0)
    return found


def exchange(nbr, clique, v):
    """The mask of the nodes outside clique that are adjacent to every
    member but v: the other completions of clique without v."""
    out = (1 << len(nbr)) - 1 & ~clique
    for p in bits(clique & ~(1 << v)):
        out &= nbr[p]
    return out


class BitIndex(dict):
    """Bit positions of the indecomposables of one algebra, filled lazily.

    A missing indecomposable gets the next free position on lookup, after
    typed_indec and check_valid, so holding a position means being valid.
    supp[p] is its support as a mask over vertex_bit, bit i for
    alg.vertices[i].  Row p of the pair table is filled on its own:
    tested[p] masks the positions q that p has been tested against through
    pair_tau_rigid, compat[p] those where the pair is tau-rigid; bit p of
    compat[p] is the indecomposable's own tau-rigidity.  The relation is
    symmetric, so tilting_support fills row p only at the positions from p
    on and asks for each unordered pair once; a full-row fill asks for the
    pair again from row q, and pair_tau_rigid's cache answers it.  graph
    holds the algebra's compatibility graph once tautilt.compatibility_graph
    has built it.
    """

    def __init__(self, alg):
        super().__init__()
        self.alg = alg
        self.vertex_bit = {v: 1 << i for i, v in enumerate(alg.vertices)}
        self.graph = None
        self.indecs = []
        self.supp = []
        self.tested = []
        self.compat = []
        self._vertex_tuples = {}

    def __missing__(self, m):
        if not typed_indec(m):
            raise InvalidModule(f"{m!r} is not an Indec with integer top and length")
        supp = 0  # one turn of the walk holds every factor
        for v in self.alg.factors(check_valid(self.alg, m).top, min(m.length, self.alg.n)):
            supp |= self.vertex_bit[v]
        p = self[m] = len(self.indecs)
        self.indecs.append(m)
        self.supp.append(supp)
        self.tested.append(0)
        self.compat.append(0)
        return p

    def test(self, p, mask):
        """Fill row p for the positions of mask it has not been tested
        against yet, and return compat[p]."""
        row, todo = self.compat[p], mask & ~self.tested[p]
        self.tested[p] |= todo
        alg, x, indecs = self.alg, self.indecs[p], self.indecs
        while todo:
            low = todo & -todo
            todo ^= low
            if pair_tau_rigid(alg, x, indecs[low.bit_length() - 1]):
                row |= low
        self.compat[p] = row
        return row

    def encode(self, module):
        """The summand mask of module: the bits of its summands."""
        mask = 0
        for s in module:
            mask |= 1 << self[s]
        return mask

    def decode(self, mask):
        """The summands of a summand mask, as a sorted tuple."""
        return tuple(sorted(self.indecs[p] for p in bits(mask)))

    def tilting_support(self, mask):
        """The support of a summand mask if its module is support
        tau-tilting (pairwise tau-rigid, as many summands as support
        vertices), else None."""
        supp, rest = 0, mask
        while rest:
            p = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            supp |= self.supp[p]
            upper = mask >> p << p
            if upper & ~self.compat[p] and upper & ~self.test(p, upper):
                return None
        return supp if supp.bit_count() == mask.bit_count() else None

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
    try:
        for s in module:
            mask |= index.supp[index[s]]
    except TypeError:  # a summand that cannot be hashed
        raise untyped_summand(module) from None
    return set(index.vertices(mask))


def all_tau_rigid_indecs(alg):
    """The tau-rigid indecomposables by (top, length): at each top the
    non-projectives shorter than its entry of clamps(alg), then the projective."""
    clamped, out = clamps(alg), []
    for j in alg.vertices:
        top = alg.loewy[j]
        out += [Indec(j, l) for l in range(1, clamped.get(j, top))] + [Indec(j, top)]
    return out
