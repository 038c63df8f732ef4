"""The support tau-tilting poset, its Hasse quiver, and the rejection engine.

Order: one pair dominates another when its Fac contains the other's; covers
are exactly mutations, so the Hasse quiver of a connected algebra is regular
of degree the number of vertices.  The quiver can be built directly from the
enumeration or recursively through socle rejection and a poset-doubling
step; both routes must agree label-for-label.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from . import modcat, tautilt
from .algebra import components, projective_injectives, reject, socle_vertex_of_projective
from .errors import InvalidPoset, InvariantViolation, NotProjectiveInjective
from .modcat import Indec
from .tautilt import SttPair


def geq(alg, m, n):
    """Whether m >= n, i.e. every summand of n is a factor of m."""
    return all(modcat.in_fac(alg, s, m.module) for s in n.module)


def _bits(mask):
    """Indices of the set bits of a nonnegative mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class Plus(NamedTuple):
    """Marker for the shifted copy of a vertex in a doubled poset/quiver."""

    base: Any

    def __repr__(self):
        return f"{self.base!r}+"


class Poset:
    """Finite poset on an ordered element list; down[i] is the bitmask of
    indices j with elements[j] <= elements[i]."""

    def __init__(self, elements, down):
        self.elements = list(elements)
        self.down = list(down)
        self._covers = self._check()

    def _check(self):
        """Raise InvalidPoset unless down is a partial order, and return
        for each element the mask of the elements it covers: those strictly
        below it and not strictly below another element strictly below it.
        """
        k, elements = len(self.elements), self.elements
        if len(self.down) != k:
            raise InvalidPoset(f"{len(self.down)} down-sets for {k} elements")
        strict = []
        for i, mask in enumerate(self.down):
            if mask >> k:
                raise InvalidPoset(f"down-set of {elements[i]!r} has bits outside the elements")
            if not mask >> i & 1:
                raise InvalidPoset(f"not reflexive at {elements[i]!r}")
            strict.append(mask & ~(1 << i))
        covers = []
        for i, below in enumerate(strict):
            not_covered = 0
            for j in _bits(below):
                not_covered |= strict[j]
            if not_covered & ~self.down[i]:
                raise InvalidPoset(f"not transitive below {elements[i]!r}")
            covers.append(below & ~not_covered)
        # given transitivity, x <= y <= x means equal down-sets
        first = {}
        for i, mask in enumerate(self.down):
            j = first.setdefault(mask, i)
            if j != i:
                raise InvalidPoset(f"not antisymmetric: {elements[j]!r} and {elements[i]!r}")
        return covers

    def index(self, x):
        return self.elements.index(x)

    def le(self, x, y):
        return self.down[self.index(y)] >> self.index(x) & 1 == 1

    def hasse(self):
        """Covering relations as a HasseQuiver (arrows point downward)."""
        arrows = [(i, j) for i, mask in enumerate(self._covers) for j in _bits(mask)]
        return HasseQuiver(tuple(self.elements), tuple(arrows))


class HasseQuiver(NamedTuple):
    """Vertices (pairs or abstract labels) and downward covering arrows as
    index pairs."""

    vertices: tuple
    arrows: tuple

    def degree_sequence(self):
        deg = [0] * len(self.vertices)
        for a, b in self.arrows:
            deg[a] += 1
            deg[b] += 1
        return deg

    def labelled_arrows(self):
        return {(self.vertices[a], self.vertices[b]) for a, b in self.arrows}

    def same_labelled_graph(self, other):
        return (
            set(self.vertices) == set(other.vertices)
            and len(self.vertices) == len(other.vertices)
            and self.labelled_arrows() == other.labelled_arrows()
        )

    def to_json(self):
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "arrows": [list(a) for a in self.arrows],
        }


def stt_poset(alg, pairs=None):
    """The support tau-tilting poset (elements in canonical order).

    One pair lies below another when each of its summands is a quotient of
    a summand of the other: same top, no greater length.
    """
    if pairs is None:
        pairs = tautilt.enumerate_stt(alg)
    contains = {}
    for idx, pair in enumerate(pairs):
        for s in pair.module:
            contains[s] = contains.get(s, 0) | 1 << idx
    # longer[t][l]: the pairs with a summand of top t and length > l
    longer = {t: [0] * (alg.loewy[t] + 1) for t in alg.vertices}
    for x, mask in contains.items():
        for l in range(x.length):
            longer[x.top][l] |= mask
    full = (1 << len(pairs)) - 1
    down = []
    for pair in pairs:
        reach = dict.fromkeys(alg.vertices, 0)
        for s in pair.module:
            reach[s.top] = max(reach[s.top], s.length)
        outside = 0
        for t, l in reach.items():
            outside |= longer[t][l]
        down.append(full & ~outside)
    return Poset(pairs, down)


def hasse_direct(alg):
    """Hasse quiver from the enumeration and the Fac order.  Every arrow
    is checked once more against geq, the order's definition."""
    quiver = stt_poset(alg).hasse()
    for a, b in quiver.arrows:
        if not geq(alg, quiver.vertices[a], quiver.vertices[b]):
            raise InvalidPoset(f"cover {a} -> {b} is not in the Fac order")
    return quiver


def mutations(alg, pair, universe=None):
    """The neighbors of a pair: delete each of its slots (module summands
    and killed vertices) and take the unique other completion."""
    if universe is None:
        universe = tautilt.enumerate_stt(alg)
    # summands (Indec tuples) and killed vertices (labels) never collide
    slot_sets = [set(q.module).union(q.killed) for q in universe]
    mine = set(pair.module).union(pair.killed)
    out = []
    for slot in pair.module + pair.killed:
        keep = mine - {slot}
        found = [q for q, slots in zip(universe, slot_sets) if keep <= slots and q != pair]
        if len(found) != 1:
            raise InvariantViolation(f"{pair} has {len(found)} other completions without {slot}")
        out.append(found[0])
    return sorted(out, key=lambda p: p.module)


# -- poset doubling ----------------------------------------------------------


def double_poset(poset, chosen):
    """Adjoin a shifted copy of the chosen subposet above itself.

    chosen is a set of element indices; it must be order-convex, otherwise
    the doubled relation fails transitivity.  Plain elements of the chosen
    set never dominate a shifted copy.
    """
    k = len(poset.elements)
    plus = sorted(chosen)
    elements = list(poset.elements) + [Plus(poset.elements[i]) for i in plus]
    pos = {i: k + idx for idx, i in enumerate(plus)}
    down = []
    for i in range(k):
        mask = poset.down[i]
        if i not in chosen:
            for c in plus:
                if poset.down[i] >> c & 1:
                    mask |= 1 << pos[c]
        down.append(mask)
    for i in plus:
        mask = poset.down[i]
        for c in plus:
            if poset.down[i] >> c & 1:
                mask |= 1 << pos[c]
        down.append(mask)
    return Poset(elements, down)


def double_hasse(quiver, chosen):
    """The quiver-level doubling: same vertex extension, with arrows
    duplicated on the copy, arrows into the chosen set redirected to the
    copy, and one new arrow from each shifted vertex onto its original."""
    k = len(quiver.vertices)
    plus = sorted(chosen)
    pos = {i: k + idx for idx, i in enumerate(plus)}
    vertices = tuple(quiver.vertices) + tuple(Plus(quiver.vertices[i]) for i in plus)
    arrows = []
    for a, b in quiver.arrows:
        if a in chosen and b in chosen:
            arrows.append((a, b))
            arrows.append((pos[a], pos[b]))
        elif b in chosen:  # plain -> chosen gets redirected
            arrows.append((a, pos[b]))
        else:
            arrows.append((a, b))
    for i in plus:
        arrows.append((pos[i], i))
    return HasseQuiver(vertices, tuple(sorted(arrows)))


# -- rejection ---------------------------------------------------------------


def classify_quotient_pairs(alg, j, quotient_pairs):
    """Split the support tau-tilting pairs of alg/soc P_j into the three
    rejection classes.

    With Q = P_j and R = Q/soc Q: class 1 lacks R; class 2 contains R and
    avoids the socle vertex of Q among its composition factors (so Hom into
    Q vanishes); class 3 is the rest.  When Q is simple everything is
    class 2.  Returns three lists of indices into quotient_pairs.
    """
    if j not in projective_injectives(alg):
        raise NotProjectiveInjective(f"P_{j} is not injective")
    quotient_alg = reject(alg, j)
    socv = socle_vertex_of_projective(alg, j)
    radical = Indec(j, alg.loewy[j] - 1) if alg.loewy[j] > 1 else None
    n1, n2, n3 = [], [], []
    for idx, pair in enumerate(quotient_pairs):
        if radical is None:
            n2.append(idx)
        elif radical not in pair.module:
            n1.append(idx)
        elif socv not in modcat.support(quotient_alg, pair.module):
            n2.append(idx)
        else:
            n3.append(idx)
    return n1, n2, n3


def lift_through_rejection(alg, j, quotient_pairs):
    """One rejection step: the support tau-tilting pairs of alg from those
    of alg/soc P_j.

    With Q = P_j and R its radical, classes 1 and 2 lift unchanged (killed
    set recomputed over alg) and class 3 lifts with R replaced by Q; class
    2 lifts a second time with Q adjoined.  Returns (n2, lifts): the class
    2 indices, and the lifts in double_hasse vertex order, one per quotient
    pair and then one per class 2 pair.  Every lift is revalidated.
    """
    _, n2, n3 = classify_quotient_pairs(alg, j, quotient_pairs)
    q, radical = Indec(j, alg.loewy[j]), Indec(j, alg.loewy[j] - 1)
    modules = [pair.module for pair in quotient_pairs]
    for idx in n3:
        modules[idx] = tuple(m for m in modules[idx] if m != radical) + (q,)
    modules += [quotient_pairs[idx].module + (q,) for idx in n2]
    return n2, [_relift(alg, module) for module in modules]


def _relift(alg, module):
    pair = tautilt.is_support_tau_tilting(alg, module)
    if pair is None:
        raise InvariantViolation(f"lift {module} is not support tau-tilting")
    return pair


def _product_hasse(quivers):
    """Hasse quiver of a product of stt posets: vertices merge pairwise,
    covers change one factor at a time."""
    verts = [SttPair((), ())]
    arrs = []
    for q in quivers:
        merged = [
            SttPair(
                tuple(sorted(v.module + w.module)),
                tuple(sorted(v.killed + w.killed)),
            )
            for v in verts
            for w in q.vertices
        ]
        m = len(q.vertices)
        new_arrs = []
        for i in range(len(verts)):
            for a, b in q.arrows:
                new_arrs.append((i * m + a, i * m + b))
        for a, b in arrs:
            for x in range(m):
                new_arrs.append((a * m + x, b * m + x))
        verts, arrs = merged, new_arrs
    return _canonical(HasseQuiver(tuple(verts), tuple(arrs)))


def _canonical(quiver):
    order = sorted(range(len(quiver.vertices)), key=lambda i: quiver.vertices[i].module)
    rank = {old: new for new, old in enumerate(order)}
    vertices = tuple(quiver.vertices[i] for i in order)
    arrows = tuple(sorted((rank[a], rank[b]) for a, b in quiver.arrows))
    return HasseQuiver(vertices, arrows)


def hasse_by_rejection(alg, picks=None):
    """Hasse quiver built recursively by socle rejection.

    Zero algebra: a single vertex.  Disconnected: product over components.
    Connected: reject at the smallest projective-injective vertex (or the
    next forced pick), double the quotient's quiver along class 2, and
    relabel through the lift.  Output is label-identical to hasse_direct
    for every pick policy; forced picks apply while the chain stays
    connected and the default takes over after a component split.
    """
    picks = list(picks) if picks is not None else []

    def build(alg):
        if alg.is_zero():
            return HasseQuiver((SttPair((), ()),), ())
        comps = components(alg)
        if len(comps) > 1:
            picks.clear()
            return _product_hasse([build(c) for c in comps])
        j = picks.pop(0) if picks else min(projective_injectives(alg))
        sub = build(reject(alg, j))
        n2, lifts = lift_through_rejection(alg, j, sub.vertices)
        return _canonical(HasseQuiver(tuple(lifts), double_hasse(sub, set(n2)).arrows))

    return build(alg)


# -- poset isomorphism -------------------------------------------------------


def poset_isomorphic(p1, p2):
    """An order isomorphism elements(p1) -> elements(p2) if one exists.

    Backtracking over signature-compatible assignments; signatures start
    from (down-set size, up-set size, cover degrees) and are refined in
    lockstep by cover multisets until stable.
    """
    k = len(p1.elements)
    if k != len(p2.elements):
        return None

    def structure(poset):
        h = poset.hasse()
        covers_down = [[] for _ in range(k)]
        covers_up = [[] for _ in range(k)]
        for a, b in h.arrows:
            covers_down[a].append(b)
            covers_up[b].append(a)
        up = [0] * k
        for i in range(k):
            for j in range(k):
                if i != j and poset.down[i] >> j & 1:
                    up[j] |= 1 << i
        base = [
            (
                poset.down[i].bit_count(),
                up[i].bit_count(),
                len(covers_down[i]),
                len(covers_up[i]),
            )
            for i in range(k)
        ]
        return covers_down, covers_up, base

    cd1, cu1, sig1 = structure(p1)
    cd2, cu2, sig2 = structure(p2)
    table = {v: i for i, v in enumerate(sorted(set(sig1) | set(sig2)))}
    sig1 = [table[v] for v in sig1]
    sig2 = [table[v] for v in sig2]
    for _ in range(k):
        table = {}

        def refine(sig, cd, cu):
            out = []
            for i in range(k):
                key = (
                    sig[i],
                    tuple(sorted(sig[j] for j in cd[i])),
                    tuple(sorted(sig[j] for j in cu[i])),
                )
                out.append(table.setdefault(key, len(table)))
            return out

        new1 = refine(sig1, cd1, cu1)
        new2 = refine(sig2, cd2, cu2)
        if sorted(new1) != sorted(new2):
            return None
        stable = len(set(new1)) == len(set(sig1))
        sig1, sig2 = new1, new2
        if stable:
            break
    if sorted(sig1) != sorted(sig2):
        return None
    order = sorted(range(k), key=lambda i: (sig1.count(sig1[i]), i))
    image = [None] * k
    used = [False] * k

    def fits(i, j):
        for a in range(k):
            b = image[a]
            if b is None:
                continue
            if (p1.down[i] >> a & 1) != (p2.down[j] >> b & 1):
                return False
            if (p1.down[a] >> i & 1) != (p2.down[b] >> j & 1):
                return False
        return True

    def search(pos):
        if pos == k:
            return True
        i = order[pos]
        for j in range(k):
            if not used[j] and sig1[i] == sig2[j] and fits(i, j):
                image[i] = j
                used[j] = True
                if search(pos + 1):
                    return True
                image[i] = None
                used[j] = False
        return False

    if not search(0):
        return None
    return {p1.elements[i]: p2.elements[image[i]] for i in range(k)}


# -- rendering ---------------------------------------------------------------


def pair_label(alg, pair):
    """Compact text form: summands as stacked tops joined with '+', killed
    vertices in brackets."""
    if pair.module:
        parts = [
            "/".join(str(v) for v in modcat.comp_factors(alg, s))
            for s in pair.module
        ]
        label = " + ".join(parts)
    else:
        label = "0"
    if pair.killed:
        label += " [" + ",".join(str(v) for v in pair.killed) + "]"
    return label


def hasse_dot(alg, quiver, name="hasse"):
    lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
    for i, v in enumerate(quiver.vertices):
        lines.append(f'  n{i} [label="{pair_label(alg, v)}"];')
    for a, b in quiver.arrows:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_json(quiver):
    return json.dumps(quiver.to_json(), sort_keys=True, separators=(",", ":"))
