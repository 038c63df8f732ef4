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
        top, length = data["top"], data["len"]
        if type(top) is not int or type(length) is not int:
            raise InvalidModule(f"summand {data} needs integer top and len")
        return Indec(top, length)


def check_valid(alg, m):
    if m.top not in alg.loewy:
        raise InvalidModule(f"top {m.top} is not a vertex")
    if not 1 <= m.length <= alg.loewy[m.top]:
        raise InvalidModule(f"length {m.length} not in [1, loewy({m.top})]")
    return m


def comp_factors(alg, m):
    """Composition factors from top to socle (tuple of vertices)."""
    check_valid(alg, m)
    return alg.factors(m.top, m.length)


def is_projective(alg, m):
    check_valid(alg, m)
    return m.length == alg.loewy[m.top]


def is_tau_rigid_indec(alg, m):
    """Projectives and everything on a linear component are tau-rigid; on a
    cyclic component only lengths below the cycle size are."""
    check_valid(alg, m)
    return _rigid(alg, m)


def _rigid(alg, m):
    """is_tau_rigid_indec for a checked module; size is the cycle size, 0 on a path."""
    size = alg._components[m.top][0]
    return not size or m.length < size or m.length == alg.loewy[m.top]


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
    """Whether Hom(x, tau y) != 0 for checked x and y: top(x) lies at a step
    d in [len y - len x, len y) below top(tau y) on the universal cover of
    the arrow walk (the least lift past the lower end, on a cycle)."""
    if y.length == alg.loewy[y.top]:
        return False
    size, walk, pos_x = alg._components[x.top]
    _, walk_y, pos_y = alg._components[y.top]
    if walk is not walk_y:
        return False
    lo, d = max(0, y.length - x.length), pos_x - pos_y - 1
    if size:
        d = lo + (d - lo) % size
    return lo <= d < y.length


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
    size members.
    """
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
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if v < base:
                chosen.append(labels[v])
            if cand & nbr[v]:
                expand(cand & nbr[v], done & nbr[v], depth + 1)
            elif not done & nbr[v]:
                if depth + 1 != size:
                    raise InvariantViolation(
                        f"maximal clique on {chosen} has {depth + 1} members, not {size}"
                    )
                found.append(tuple(chosen))
            if v < base:
                chosen.pop()
            cand &= ~(1 << v)
            done |= 1 << v

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
    check_valid, so holding a position means being valid.  supp[p] is its
    support as a mask over vertex_bit, bit i for alg.vertices[i].  Row p
    of the pair table is filled on its own: tested[p] masks the positions q
    that p has been tested against through pair_tau_rigid, compat[p] those
    where the pair is tau-rigid; bit p of compat[p] is the indecomposable's
    own tau-rigidity.  The relation is symmetric, so tilting_support fills
    row p only at the positions from p on and asks for each unordered pair
    once; a full-row fill asks for the pair again from row q, and
    pair_tau_rigid's cache answers it.  graph holds the algebra's
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
        against yet, and return compat[p]."""
        todo = mask & ~self.tested[p]
        self.tested[p] |= todo
        x, indecs = self.indecs[p], self.indecs
        for q in bits(todo):
            if pair_tau_rigid(self.alg, x, indecs[q]):
                self.compat[p] |= 1 << q
        return self.compat[p]

    def encode(self, module):
        """The summand mask of module: the bits of its summands."""
        return sum(1 << p for p in {self[s] for s in module})

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
