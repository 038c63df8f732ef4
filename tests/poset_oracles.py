"""Reference implementations that the bitset order, the covers, the
poset check, the order test geq, the quiver doubling and the rejection
stage check in nakayama.poset are tested against (one predicate call per
ordered pair of elements, one scan per ordered pair of indices, the
strict down-set of every element below each element ORed, one Fac
membership test per summand, the doubling done on the order itself and
by a scan of every arrow, the stage check on every lift and every index
position), the neighbours of a pair by a scan of every pair, the JSON and
DOT renderings built one pair at a time through json.dumps and the
per-pair label, and the order and quiver queries, in-arrow tables,
copy labels and rotation certificate that only the tests use."""

import json
from typing import Any, NamedTuple

from module_oracles import factors_oracle, in_fac

from nakayama.errors import InvalidPoset, InvariantViolation
from nakayama.modcat import Indec, bits, pair_tau_rigid
from nakayama.poset import HasseQuiver, Poset, classify_quotient_pairs, double_hasse
from nakayama.tautilt import SttPair


class Plus(NamedTuple):
    """Label of the shifted copy of a vertex in a doubled poset or quiver."""

    base: Any

    def __repr__(self):
        return f"{self.base!r}+"


def le(poset, x, y):
    """Whether x <= y, for elements x and y of poset."""
    return poset.down[poset.elements.index(y)] >> poset.elements.index(x) & 1 == 1


def degree_sequence(quiver):
    """Per vertex, the number of arrows at it (in or out)."""
    deg = [0] * len(quiver.vertices)
    for a, b in quiver.arrows:
        deg[a] += 1
        deg[b] += 1
    return deg


def labelled_arrows(quiver):
    """The arrows of a quiver as pairs of vertex labels."""
    return {(quiver.vertices[a], quiver.vertices[b]) for a, b in quiver.arrows}


def same_labelled_graph(q1, q2):
    """Whether two quivers have the same vertex labels and labelled arrows,
    whatever their vertex order."""
    return (
        set(q1.vertices) == set(q2.vertices)
        and len(q1.vertices) == len(q2.vertices)
        and labelled_arrows(q1) == labelled_arrows(q2)
    )


def rotation_difference(quiver, n):
    """None if the rotation i -> i mod n + 1 of the vertex labels 1..n maps
    the vertices of a quiver of pairs bijectively onto themselves and
    every arrow onto an arrow, as on the Hasse quiver of cyclic(n, r);
    else the first vertex or arrow that it does not map so."""
    def turn(pair):
        return SttPair(tuple(sorted(Indec(t % n + 1, l) for t, l in pair.module)),
                       tuple(sorted(v % n + 1 for v in pair.killed)))

    where = {pair: i for i, pair in enumerate(quiver.vertices)}
    if len(where) != len(quiver.vertices):
        return "a vertex appears twice"
    image = []
    for pair in quiver.vertices:
        if turn(pair) not in where:
            return f"vertex {pair} turns to {turn(pair)}, not a vertex"
        image.append(where[turn(pair)])
    arrows = set(quiver.arrows)
    for a, b in quiver.arrows:
        if (image[a], image[b]) not in arrows:
            return f"arrow {quiver.vertices[a]} -> {quiver.vertices[b]} turns to no arrow"
    return None


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


def in_arrows(k, arrows):
    """The in-arrow table of an arrow list on k vertices: entry b lists the
    sources of the arrows into b."""
    into = [[] for _ in range(k)]
    for a, b in arrows:
        into[b].append(a)
    return into


def flat_arrows(into):
    """The arrows of an in-arrow table, sorted."""
    return sorted((a, b) for b, sources in enumerate(into) for a in sources)


def double_labelled(quiver, chosen):
    """double_hasse on a labelled quiver: the copies of the chosen vertices,
    in increasing order, are labelled Plus(original)."""
    k = len(quiver.vertices)
    into = double_hasse(in_arrows(k, quiver.arrows), k, chosen)
    copies = tuple(Plus(quiver.vertices[i]) for i in sorted(chosen))
    return HasseQuiver(tuple(quiver.vertices) + copies, tuple(flat_arrows(into)))


def double_hasse_by_scan(arrows, k, chosen):
    """The doubling of double_hasse on an arrow list, by a scan of every
    arrow; returns the new arrow list, not sorted."""
    plus = sorted(chosen)
    copy = dict(zip(plus, range(k, k + len(plus))))
    out = []
    for a, b in arrows:
        if b not in copy:  # into a plain vertex: unchanged
            out.append((a, b))
        elif a in copy:  # chosen -> chosen stays, and is copied
            out += [(a, b), (copy[a], copy[b])]
        else:  # plain -> chosen gets redirected
            out.append((a, copy[b]))
    return out + [(copy[i], i) for i in plus]


def lift_check_by_full_scan(alg, index, j, masks, supports):
    """lift_through_rejection with its check on every lift, and R's and
    Q's rows tested at every index position of a module of alg: raise
    InvariantViolation at the first lift with R or Q that one of them
    rejects, or with more or fewer summands than support vertices."""
    _, n2, n3 = classify_quotient_pairs(alg, index, j, masks)
    proj = Indec(j, alg.loewy[j])
    rad = Indec(j, proj.length - 1) if proj.length > 1 else proj
    q, r, supp_q = 1 << index[proj], 1 << index[rad], index.supp[index[proj]]
    of_alg = [(p, m) for p, m in enumerate(index.indecs) if m.length <= alg.loewy.get(m.top, 0)]
    off_q = sum(1 << p for p, m in of_alg if not pair_tau_rigid(alg, proj, m))
    off_r = sum(1 << p for p, m in of_alg if not pair_tau_rigid(alg, rad, m))
    lifts, sups = list(masks), list(supports)
    for idx in n3:
        lifts[idx] ^= r | q
        sups[idx] |= supp_q
    lifts += [masks[idx] | q for idx in n2]
    sups += [supports[idx] | supp_q for idx in n2]
    for mask, supp in zip(lifts, sups):
        off_row = mask & r and mask & off_r or mask & q and mask & off_q
        if off_row or supp.bit_count() != mask.bit_count():
            module = index.decode(mask)
            raise InvariantViolation(f"lift {module} is not support tau-tilting over {alg!r}")
    return n2, lifts, sups


def from_relation(elements, le):
    """Poset from a binary predicate le(x, y) meaning x <= y."""
    elements = list(elements)
    down = []
    for y in elements:
        mask = 0
        for j, x in enumerate(elements):
            if le(x, y):
                mask |= 1 << j
        down.append(mask)
    return Poset(elements, down)


def geq_by_fac(alg, m, n):
    """Whether m >= n, i.e. every summand of n is a factor of m."""
    return all(in_fac(alg, s, m.module) for s in n.module)


def fac_order(alg, pairs):
    """The support tau-tilting poset from the definitional order geq_by_fac."""
    return from_relation(pairs, lambda x, y: geq_by_fac(alg, y, x))


def covers_by_full_or(elements, down):
    """Raise InvalidPoset unless the int masks down are a partial order on
    elements, and return for each element the mask of the elements it
    covers: the strict down-set of every element below it is ORed, and what
    lies in none of them is covered."""
    k = len(elements)
    if len(down) != k:
        raise InvalidPoset(f"{len(down)} down-sets for {k} elements")
    strict = []
    for i, mask in enumerate(down):
        if mask >> k:
            raise InvalidPoset(f"down-set of {elements[i]!r} has bits outside the elements")
        if not mask >> i & 1:
            raise InvalidPoset(f"not reflexive at {elements[i]!r}")
        strict.append(mask & ~(1 << i))
    covers = []
    for i, below in enumerate(strict):
        not_covered = 0
        for j in bits(below):
            not_covered |= strict[j]
        if not_covered & ~down[i]:
            raise InvalidPoset(f"not transitive below {elements[i]!r}")
        covers.append(below & ~not_covered)
    # given transitivity, x <= y <= x means equal down-sets
    first = {}
    for i, mask in enumerate(down):
        j = first.setdefault(mask, i)
        if j != i:
            raise InvalidPoset(f"not antisymmetric: {elements[j]!r} and {elements[i]!r}")
    return covers


def transitive_reduction(poset):
    """Covering relations by definition: i > j with nothing strictly
    between them."""
    k = len(poset.elements)
    up = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and poset.down[i] >> j & 1:
                up[j] |= 1 << i
    arrows = []
    for i in range(k):
        for j in range(k):
            if i == j or not poset.down[i] >> j & 1:
                continue
            between = poset.down[i] & up[j] & ~(1 << i) & ~(1 << j)
            if between == 0:
                arrows.append((i, j))
    return HasseQuiver(tuple(poset.elements), tuple(sorted(arrows)))


def mutations_scan(alg, pair, universe):
    """The neighbors of a pair: delete each of its slots (module summands
    and killed vertices) and take the unique other completion, by a scan
    of universe, the list of every support tau-tilting pair of alg."""
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


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pairs_json_dumps(pairs):
    """A pair list as JSON: one to_json dict per pair through json.dumps."""
    return _dumps([p.to_json() for p in pairs])


def hasse_json_dumps(quiver):
    """A quiver as JSON: a dict of vertex dicts and arrow lists through
    json.dumps."""
    return _dumps({
        "vertices": [v.to_json() for v in quiver.vertices],
        "arrows": [list(a) for a in quiver.arrows],
    })


def pair_label_one(alg, pair):
    """The text label of one pair, every summand stacked afresh."""
    parts = ["/".join(str(v) for v in factors_oracle(alg, s)) for s in pair.module]
    label = " + ".join(parts) if parts else "0"
    if pair.killed:
        label += " [" + ",".join(str(v) for v in pair.killed) + "]"
    return label


def hasse_dot_one(alg, quiver):
    """The DOT text of a quiver, one pair_label_one call per vertex."""
    lines = ['digraph "hasse" {', "  rankdir=TB;"]
    lines += [f'  n{i} [label="{pair_label_one(alg, v)}"];' for i, v in enumerate(quiver.vertices)]
    lines += [f"  n{a} -> n{b};" for a, b in quiver.arrows]
    return "\n".join(lines + ["}"]) + "\n"
