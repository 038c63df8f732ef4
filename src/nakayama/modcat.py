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
    BitIndex and pair_tau_rigid ask it on a miss, before a module enters
    their store."""
    return type(m) is Indec and type(m.top) is int and type(m.length) is int


def untyped_summand(module):
    """The InvalidModule for a module with a summand that cannot be hashed
    or ordered, raised in place of the TypeError that met it."""
    return InvalidModule(f"{module!r} has a summand that is not an Indec with integer top and length")


def check_valid(alg, m):
    top, length = m.top, m.length
    if type(top) is not int or type(length) is not int:  # True == 1 and 2.0 == 2
        raise InvalidModule(f"{m!r} is not an Indec with integer top and length")
    if not 1 <= length <= alg.loewy.get(top, 0):
        if top not in alg.loewy:
            raise InvalidModule(f"top {top} is not a vertex")
        raise InvalidModule(f"length {length} not in [1, loewy({top})]")
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
    """Whether x + y is tau-rigid (both rigid, no Hom into the other's tau).

    Answered from the algebra's BitIndex when both parts are indexed and
    the pair is tested, else from the algebra's _pair_rigid cache, else,
    for two typed_indec parts, by a one-element _rigid_row, kept in the
    cache under the unordered pair."""
    cache = alg.__dict__.get("_pair_rigid") or alg.__dict__.setdefault("_pair_rigid", {})
    index = alg.__dict__.get("_bit_index")
    try:
        if index is not None:
            p, q = index.get(x), index.get(y)
            if p is not None and q is not None and index.tested[p] >> q & 1:
                return index.compat[p] >> q & 1 == 1
        key = (x, y) if x <= y else (y, x)
        out = cache.get(key)
    except TypeError:  # a part that cannot be ordered or hashed
        raise untyped_summand((x, y)) from None
    if out is None:
        if not (typed_indec(x) and typed_indec(y)):  # only typed modules enter the cache
            raise untyped_summand((x, y))
        out = cache[key] = _rigid_row(alg, x, (y,)) == 1
    return out


def _rigid_row(alg, x, ys):
    """The mask whose bit i says whether x + ys[i] is tau-rigid: the one
    statement of the pair rule.  Both parts are rigid (the guard, the one
    per-module statement: a non-projective on a cycle of size vertices, 0
    on a path, is shorter than it; Adachi-Iyama-Reiten), and no Hom(a, tau
    b) either way; for b not projective it is nonzero when top(a) is a step
    d in [len b - len a, len b) below top(tau b) on the universal cover of
    the arrow walk (least lift past the lower end).  A part outside its
    range goes to check_valid, which raises InvalidModule naming it."""
    loewy, components = alg.loewy, alg._components
    top_x, len_x = x
    loewy_x = loewy.get(top_x, 0)
    if not 1 <= len_x <= loewy_x:
        check_valid(alg, x)
    size, walk, pos_x = components[top_x]
    rigid_x = not (size and size <= len_x < loewy_x)
    row = 0
    for i, y in enumerate(ys):
        top_y, len_y = y
        loewy_y = loewy.get(top_y, 0)
        if not 1 <= len_y <= loewy_y:
            check_valid(alg, y)
        size_y, walk_y, pos_y = components[top_y]
        if not rigid_x or size_y and size_y <= len_y < loewy_y:
            continue
        if walk_y is walk:  # one component, so size_y is size
            if len_y < loewy_y:  # Hom(x, tau y)
                lo = len_y - len_x if len_y > len_x else 0
                d = pos_x - pos_y - 1
                if size:
                    d = lo + (d - lo) % size
                if lo <= d < len_y:
                    continue
            if len_x < loewy_x:  # Hom(y, tau x)
                lo = len_x - len_y if len_x > len_y else 0
                d = pos_y - pos_x - 1
                if size:
                    d = lo + (d - lo) % size
                if lo <= d < len_x:
                    continue
        row |= 1 << i
    return row


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
    alg.vertices[i].  The pair table is symmetric: tested[p] masks the
    positions q that p has been tested against, compat[p] those where
    the pair is tau-rigid, and bit q of row p equals bit p of row q; bit p
    of compat[p] is the indecomposable's own tau-rigidity.  test fills a
    row with one _rigid_row call and writes each result into both rows,
    so each unordered pair is computed once.  graph holds the algebra's
    compatibility graph once tautilt.compatibility_graph has built it.
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
        """Fill row p, and the mirror bit in each other row, for the
        positions of mask it has not been tested against yet, and return
        compat[p]."""
        todo = mask & ~self.tested[p]
        if todo:
            qs = list(bits(todo))
            row = _rigid_row(self.alg, self.indecs[p], [self.indecs[q] for q in qs])
            tested, compat, bit, got = self.tested, self.compat, 1 << p, 0
            for q in qs:
                tested[q] |= bit
                if row & 1:
                    got |= 1 << q
                    compat[q] |= bit
                row >>= 1
            tested[p] |= todo
            compat[p] |= got
        return self.compat[p]

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
        vertices), else None.  A row it needs is filled once, against
        every position the index holds."""
        supp, rest, supp_of, compat = 0, mask, self.supp, self.compat
        while rest:
            p = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            supp |= supp_of[p]
            if mask & ~compat[p] and mask & ~self.test(p, (1 << len(self.indecs)) - 1):
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
