"""The support tau-tilting poset, its Hasse quiver, and the rejection engine.

Order: one pair dominates another when its Fac contains the other's; covers
are exactly mutations, so the Hasse quiver of a connected algebra is regular
of degree the number of vertices.  It is built from the enumeration, or up
the socle rejection chain, doubling per stage, with pairs as summand masks
over the input algebra's one BitIndex; both routes must agree
label-for-label.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import NamedTuple

from . import counting, modcat, tautilt
from .algebra import NakayamaAlgebra, clamps, reject, rejection_chain, socle_vertex_of_projective
from .errors import InvalidPoset, InvariantViolation, NotInDomain
from .modcat import Indec, bits


def _longest(module):
    """top -> the greatest length among the summands of that top."""
    out = {}
    for top, length in module:
        if length > out.get(top, 0):
            out[top] = length
    return out


def geq(alg, m, n):
    """Whether m >= n, i.e. every summand of n is a factor of m.

    A uniserial is a factor of a sum iff it is a quotient of one summand:
    same top, no greater length.  The summands of n up to the first that
    is not a factor are checked to be modules of alg (InvalidModule).
    """
    try:
        reach = _longest(m.module)
    except TypeError:  # a summand that cannot be hashed or compared
        raise modcat.untyped_summand(m.module) from None
    for s in n.module:
        if modcat.check_valid(alg, s).length > reach.get(s.top, 0):
            return False
    return True


class Poset:
    """Finite poset on an ordered element list; down[i] is the bitmask of
    indices j with elements[j] <= elements[i]."""

    def __init__(self, elements, down):
        self.elements = list(elements)
        self.down = list(down)
        self._covers = self._check()

    def _check(self):
        """Raise InvalidPoset unless down is a partial order, and return
        for each element the indices of the elements it covers, lowest
        first: those strictly below it and not strictly below another
        element strictly below it.
        """
        k, elements = len(self.elements), self.elements
        if len(self.down) != k:
            raise InvalidPoset(f"{len(self.down)} down-sets for {k} elements")
        strict, first = [], {}
        for i, mask in enumerate(self.down):
            if not isinstance(mask, int):
                kind = type(mask).__name__
                raise InvalidPoset(f"down-set of {elements[i]!r} is a {kind}, not an int")
            if mask >> k:
                raise InvalidPoset(f"down-set of {elements[i]!r} has bits outside the elements")
            if not mask >> i & 1:
                raise InvalidPoset(f"not reflexive at {elements[i]!r}")
            j = first.setdefault(mask, i)
            if j != i:
                raise InvalidPoset(f"not antisymmetric: {elements[j]!r} and {elements[i]!r}")
            strict.append(mask & ~(1 << i))
        # Visit strict[i] lowest first, skipping what lies strictly below a
        # visited element; the covers are the visited elements that lie
        # strictly below no other visited one.  Only visited elements are
        # checked for transitivity, and that is enough: each visited j has
        # down[j] inside down[i], and the down-sets are distinct, so down[j]
        # is smaller.  By induction on |down|, transitivity holds at j, so
        # an element skipped for lying below j has its down-set in down[j],
        # hence in down[i].
        covers = []
        for i, rest in enumerate(strict):
            not_covered, visited = 0, []
            while rest:
                j = (rest & -rest).bit_length() - 1
                visited.append(j)
                not_covered |= strict[j]
                rest &= ~not_covered & (rest - 1)
            if not_covered & ~self.down[i]:
                raise InvalidPoset(f"not transitive below {elements[i]!r}")
            covers.append([j for j in visited if not not_covered >> j & 1])
        return covers

    def hasse(self):
        """Covering relations as a HasseQuiver (arrows point downward)."""
        arrows = [(i, j) for i, below in enumerate(self._covers) for j in below]
        return HasseQuiver(tuple(self.elements), tuple(arrows))


class HasseQuiver(NamedTuple):
    """Vertices (pairs or abstract labels) and downward covering arrows as
    index pairs."""

    vertices: tuple
    arrows: tuple


def stt_poset(alg):
    """The support tau-tilting poset (elements in canonical order).

    One pair lies below another when each of its summands is a quotient of
    a summand of the other: same top, no greater length.
    """
    pairs = tautilt.enumerate_stt(alg)
    contains = {}
    for idx, pair in enumerate(pairs):
        for s in pair.module:
            contains[s] = contains.get(s, 0) | 1 << idx
    # longer[t][l]: the pairs with a summand of top t and length > l, for l
    # 0 or a summand length at top t, the only values _longest gives
    longer = {t: {0: 0} for t in alg.vertices}
    for x in contains:
        longer[x.top][x.length] = 0
    for x, mask in contains.items():
        for l in longer[x.top]:
            if l < x.length:
                longer[x.top][l] |= mask
    full = (1 << len(pairs)) - 1
    down = []
    for pair in pairs:
        reach = _longest(pair.module)
        outside = 0
        for t in alg.vertices:
            outside |= longer[t][reach.get(t, 0)]
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


def mutations(alg, pair):
    """The neighbors of a support tau-tilting pair: for each of its slots
    (module summands and killed vertices), the other completion of the
    rest, by the exchange rule on the pair compatibility graph."""
    if tautilt.is_support_tau_tilting(alg, pair.module) != pair:
        raise NotInDomain(f"{pair} is not a support tau-tilting pair")
    nbr, nodes, labels = tautilt.compatibility_graph(alg)
    index, base = modcat.bit_index(alg), len(labels)
    clique = index.encode(pair.module) | sum(index.vertex_bit[v] for v in pair.killed) << base
    out = []
    for v in bits(clique):
        found = modcat.exchange(nbr, clique, v) & nodes
        if found.bit_count() != 1:
            raise InvariantViolation(
                f"{pair} has {found.bit_count()} other completions without "
                f"{labels[v] if v < base else alg.vertices[v - base]}"
            )
        completion = clique & ~(1 << v) | found
        out.append(tautilt.make_pair(alg, [labels[p] for p in bits(completion) if p < base]))
    return sorted(out, key=lambda p: p.module)


# -- poset doubling ----------------------------------------------------------


def double_hasse(into, k, chosen):
    """The quiver-level doubling, in place, of the in-arrow table of a
    quiver on k vertices, into[b] the sources of the arrows into b.  The
    chosen vertices get copies k, k + 1, ... in increasing order; arrows
    among them are duplicated on the copies, arrows into them from
    elsewhere are redirected to the copy, and each copy gets one arrow
    onto its original.  Only the chosen vertices' entries are visited."""
    plus = sorted(chosen)
    copy = [0] * k  # the position of each chosen vertex's copy, 0 if none
    for pos, i in enumerate(plus, k):
        copy[i] = pos
    for pos, b in enumerate(plus, k):
        sources = into[b]
        into.append([copy[a] or a for a in sources])
        into[b] = [a for a in sources if copy[a]] + [pos]
    return into


# -- rejection ---------------------------------------------------------------


def classify_quotient_pairs(alg, index, j, masks):
    """Split the support tau-tilting pairs of alg/soc P_j, summand masks
    over the BitIndex of alg or of an algebra above it, into three classes.

    With Q = P_j and R = Q/soc Q: class 1 lacks R; class 2 contains R and
    avoids the socle vertex of Q among its composition factors (so Hom into
    Q vanishes); class 3 is the rest.  When Q is simple everything is
    class 2.  Returns three lists of indices into masks.

    j must be projective-injective, as reject(alg, j) checks.  A module of
    a quotient has the same composition factors over every algebra above
    it, so each test is one AND: with R's bit, and with the bits of the
    indecomposables whose support holds the socle vertex.
    """
    if alg.loewy[j] == 1:
        return [], list(range(len(masks))), []
    r = 1 << index[Indec(j, alg.loewy[j] - 1)]
    socv = index.vertex_bit[socle_vertex_of_projective(alg, j)]
    reaches = sum(1 << p for p, supp in enumerate(index.supp) if supp & socv)
    n1, n2, n3 = [], [], []
    for idx, mask in enumerate(masks):
        if not mask & r:
            n1.append(idx)
        elif not mask & reaches:
            n2.append(idx)
        else:
            n3.append(idx)
    return n1, n2, n3


def lift_through_rejection(alg, index, j, masks, supports):
    """One rejection step: the support tau-tilting pairs of alg from those
    of B = alg/soc P_j, as summand masks over one BitIndex (as for
    classify_quotient_pairs), with their supports over index.vertex_bit.

    With Q = P_j and R = Q/soc Q (P_j over B), classes 1 and 2 lift
    unchanged and class 3 lifts as mask ^ (R | Q); class 2 lifts a second
    time as mask | Q.  Returns (n2, lifts, supports): the class 2 indices,
    and the lifts with their supports in double_hasse vertex order, one
    per quotient pair and then one per class 2 pair.

    On B-modules tau agrees with tau over B away from R (Adachi-Iyama-
    Reiten), so only the lifts with R or Q, found by a scan of the lifts,
    are tested over alg, at the positions they hold; every lift needs as
    many summands as support vertices.  Otherwise InvariantViolation.
    """
    _, n2, n3 = classify_quotient_pairs(alg, index, j, masks)
    proj = Indec(j, alg.loewy[j])
    rad = Indec(j, proj.length - 1) if proj.length > 1 else proj  # Q simple: no R, no n3
    q, r, supp_q = 1 << index[proj], 1 << index[rad], index.supp[index[proj]]
    lifts, sups = list(masks), list(supports)
    for idx in n3:
        lifts[idx] ^= r | q
        sups[idx] |= supp_q  # which holds the support of R
    lifts += [masks[idx] | q for idx in n2]
    sups += [supports[idx] | supp_q for idx in n2]
    rq = r | q
    held, tested = [], rq  # the lifts with R or Q, or a wrong count, and their positions
    for mask, supp in zip(lifts, sups):
        if mask & rq or supp.bit_count() != mask.bit_count():
            held.append((mask, supp))
            tested |= mask
    of_alg = [(p, index.indecs[p]) for p in bits(tested)]
    of_alg = [(p, m) for p, m in of_alg if m.length <= alg.loewy.get(m.top, 0)]
    off_q = sum(1 << p for p, m in of_alg if not modcat.pair_tau_rigid(alg, proj, m))
    off_r = sum(1 << p for p, m in of_alg if not modcat.pair_tau_rigid(alg, rad, m))
    for mask, supp in held:
        off_row = mask & r and mask & off_r or mask & q and mask & off_q
        if off_row or supp.bit_count() != mask.bit_count():
            module = index.decode(mask)
            raise InvariantViolation(f"lift {module} is not support tau-tilting over {alg!r}")
    return n2, lifts, sups


def _canonical(vertices, into):
    order = sorted(range(len(vertices)), key=lambda i: vertices[i].module)
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation
    arrows = sorted((rank[a], rank[b]) for b, sources in enumerate(into) for a in sources)
    return HasseQuiver(tuple(map(vertices.__getitem__, order)), tuple(arrows))


def hasse_by_rejection(alg, picks=None):
    """Hasse quiver by socle rejection along rejection_chain(alg, picks).

    From the zero algebra's single vertex, each stage places the lifts of
    the quotient's pairs on its in-arrow table doubled along class 2.  A
    stage module is a module of alg with the same composition factors, so
    pairs are summand masks over alg's own BitIndex, with supports over
    its vertex bits; a component split needs no special case.  Forced
    picks apply at every step, then the default pick.  Checked distinct,
    counted against the interval DP (a pair the stages drop is caught
    there), checked over alg and sorted once; label-identical to
    hasse_direct.

    Without picks the chain is that of the reduced algebra, each Loewy
    length replaced by its entry of clamps(alg): rejecting a projective
    longer than its cycle keeps the poset (rejection_isomorphism), and the
    reduced algebra is a quotient of alg, so its pairs are masks over the
    same index once each clamped projective (j, m) is renamed (j, loewy[j]).
    """
    clamped = {} if picks else clamps(alg)
    top = NakayamaAlgebra(alg.vertices, alg.next_down, {**alg.loewy, **clamped}) if clamped else alg
    chain = rejection_chain(top, picks)[:-1]  # the zero algebra's one pair is masks[0]
    index = modcat.bit_index(alg)
    masks, supports, into = [0], [0], [[]]
    while chain:
        a, j = chain.pop()  # popped, so each stage algebra and its caches go once lifted
        n2, lifts, supports = lift_through_rejection(a, index, j, masks, supports)
        into = double_hasse(into, len(masks), n2)
        masks = lifts
    for j, m in clamped.items():
        swap = 1 << index[Indec(j, m)] | 1 << index[Indec(j, alg.loewy[j])]
        masks = [mask ^ swap if mask & swap else mask for mask in masks]
    if len(set(masks)) < len(masks):
        twice = next(m for m, c in Counter(masks).items() if c > 1)
        raise InvariantViolation(f"lift {index.decode(twice)} appears twice over {alg!r}")
    count = counting.dp_counts(alg)[2]
    if len(masks) != count:
        raise InvariantViolation(f"{len(masks)} lifts over {alg!r}, but the DP counts {count}")
    summand = index.indecs.__getitem__
    pairs = [tautilt.is_support_tau_tilting(alg, map(summand, bits(m))) for m in masks]
    if None in pairs:
        module = index.decode(masks[pairs.index(None)])
        raise InvariantViolation(f"lift {module} is not support tau-tilting over {alg!r}")
    return _canonical(pairs, into)


def rejection_isomorphism(alg, j):
    """The reduction step's order isomorphism stt(alg) -> stt(reject(alg,
    j)) for j a key of clamps(alg): P_j goes to P_j/soc P_j, every other
    summand and the killed set stay; by clamps' rule neither competes with
    another summand of top j.  Returns the map as a dict.

    NotInDomain for any other j; InvalidPoset if the map is not a
    bijection or does not carry each down-set onto its image's.
    """
    if j not in clamps(alg):
        raise NotInDomain(f"P_{j} is not longer than a cycle through {j} over {alg!r}")
    source, target = stt_poset(alg), stt_poset(reject(alg, j))
    p, r = Indec(j, alg.loewy[j]), Indec(j, alg.loewy[j] - 1)
    image = [
        tautilt.SttPair(tuple(sorted(r if s == p else s for s in pair.module)), pair.killed)
        for pair in source.elements
    ]
    where = {pair: i for i, pair in enumerate(target.elements)}
    perm = [where.get(pair) for pair in image]
    if len(perm) != len(where) or set(perm) != set(range(len(where))):
        raise InvalidPoset(f"P_{j} -> P_{j}/soc P_{j} is not a bijection of the pairs of {alg!r}")
    for i, down in enumerate(source.down):
        if sum(1 << perm[b] for b in bits(down)) != target.down[perm[i]]:
            raise InvalidPoset(f"{source.elements[i]} and {image[i]} have different down-sets")
    return dict(zip(source.elements, image))


# -- rendering ---------------------------------------------------------------


class _Memo(dict):
    """f(key) for each key, computed on the first lookup."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


def pair_label(alg, pair):
    """Compact text form: summands as stacked tops joined with '+', killed
    vertices in brackets."""
    return pair_labels(alg, [pair])[0]


def pair_labels(alg, pairs):
    """The pair_label of each pair, each distinct summand stacked once."""
    stack = _Memo(lambda s: "/".join(map(str, modcat.comp_factors(alg, s)))).__getitem__
    return [
        (" + ".join(map(stack, p.module)) or "0")
        + (" [" + ",".join(map(str, p.killed)) + "]" if p.killed else "")
        for p in pairs
    ]


def hasse_dot(alg, quiver):
    lines = ['digraph "hasse" {', "  rankdir=TB;"]
    for i, label in enumerate(pair_labels(alg, quiver.vertices)):
        lines.append(f'  n{i} [label="{label}"];')
    for a, b in quiver.arrows:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pairs_json(pairs):
    """json.dumps([p.to_json() for p in pairs], sort_keys=True, separators=
    (",", ":")), with each distinct summand and killed tuple dumped once and
    the keys written in sorted order.  Two caches, since Indec(2, 3) ==
    (2, 3)."""
    summand = _Memo(lambda s: json.dumps(s.to_json(), sort_keys=True, separators=(",", ":")))
    killed = _Memo(lambda k: json.dumps(list(k), separators=(",", ":")))
    return "[" + ",".join(
        '{"killed":' + killed[p.killed] + ',"summands":['
        + ",".join(map(summand.__getitem__, p.module)) + "]}"
        for p in pairs
    ) + "]"


def hasse_json(quiver):
    """The quiver as {"arrows": index pairs, "vertices": pairs_json}."""
    arrows = ",".join(f"[{a},{b}]" for a, b in quiver.arrows)
    return '{"arrows":[' + arrows + '],"vertices":' + pairs_json(quiver.vertices) + "}"
