"""Support tau-tilting pairs: enumeration and structural bijections.

A pair is a basic tau-rigid module together with the killed vertex set (the
support-complement idempotent); the module is tau-tilting over the quotient
by that idempotent.  A tau-rigid module is support tau-tilting precisely
when its number of summands equals the size of its support, which makes the
enumeration a plain DFS over canonically ordered tau-rigid indecomposables
with pairwise-rigidity pruning.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import modcat
from .algebra import components, quotient_by_idempotent
from .errors import NotCyclicConnected, NotInDomain, NotLinear, NotTauTilting
from .modcat import Indec


class SttPair(NamedTuple):
    """Basic support tau-tilting pair: module summands + killed vertices."""

    module: tuple          # sorted tuple of Indec
    killed: tuple          # sorted tuple of vertex labels

    def to_json(self):
        return {
            "summands": [s.to_json() for s in self.module],
            "killed": list(self.killed),
        }

    @staticmethod
    def from_json(data):
        return SttPair(
            tuple(sorted(Indec.from_json(s) for s in data["summands"])),
            tuple(sorted(data["killed"])),
        )


def make_pair(alg, module):
    """Pair with the killed set recomputed from the support (unique by
    sincerity over the quotient)."""
    module = tuple(sorted(module))
    supp = modcat.support(alg, module)
    killed = tuple(v for v in alg.vertices if v not in supp)
    return SttPair(module, killed)


def is_support_tau_tilting(alg, module):
    """The pair if the module is support tau-tilting, else None.

    Criterion: pairwise tau-rigid and number of summands = support size,
    i.e. summands and killed vertices together fill the vertex set.
    """
    module = tuple(sorted(set(module)))
    for s in module:
        modcat.check_valid(alg, s)
    for i, x in enumerate(module):
        for y in module[i:]:
            if not modcat.pair_tau_rigid(alg, x, y):
                return None
    pair = make_pair(alg, module)
    return pair if len(module) + len(pair.killed) == alg.n else None


def _enumerate_component(alg):
    """All support tau-tilting modules of a connected algebra, as summand
    tuples (killed sets are recomputed by the caller)."""
    rigid = modcat.all_tau_rigid_indecs(alg)
    k = len(rigid)
    compat = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if modcat.pair_tau_rigid(alg, rigid[i], rigid[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    factors = [modcat.comp_factors(alg, m) for m in rigid]
    found = []

    def extend(chosen, supp, candidates):
        assert len(chosen) <= len(supp)  # tau-rigid sets never exceed their support
        if len(chosen) == len(supp):
            found.append(tuple(chosen))
        cs = candidates
        while cs:
            i = (cs & -cs).bit_length() - 1
            cs &= cs - 1
            chosen.append(rigid[i])
            extend(chosen, supp | set(factors[i]), cs & compat[i])
            chosen.pop()

    extend([], set(), (1 << k) - 1)
    return found


def enumerate_stt(alg):
    """All basic support tau-tilting pairs, canonically ordered.

    Distributes over connected components by Cartesian product; the zero
    algebra contributes the single empty pair.
    """
    parts = [_enumerate_component(c) for c in components(alg)]
    pairs = []
    for combo in itertools.product(*parts) if parts else [()]:
        module = tuple(sorted(itertools.chain.from_iterable(combo)))
        pairs.append(make_pair(alg, module))
    pairs.sort(key=lambda p: p.module)
    return pairs


def enumerate_tau_tilt(alg):
    return [p for p in enumerate_stt(alg) if not p.killed]


def enumerate_ps_tau_tilt(alg):
    return [p for p in enumerate_stt(alg) if p.killed]


def np_part(alg, module):
    """Summands that are not projective."""
    return tuple(s for s in module if not modcat.is_projective(alg, s))


def pr_part(alg, module):
    """Projective summands."""
    return tuple(s for s in module if modcat.is_projective(alg, s))


def _require_cyclic_connected(alg):
    """The ambient edges must form one cycle through every vertex (the
    Loewy-length-one degenerations of the cyclic quiver are allowed)."""
    if alg.is_zero() or set(alg.next_down) != set(alg.vertices):
        raise NotCyclicConnected("quiver is not a cycle")
    v, seen = alg.vertices[0], set()
    while v not in seen:
        seen.add(v)
        v = alg.next_down[v]
    if len(seen) != alg.n:
        raise NotCyclicConnected("quiver is not a single cycle")


def shift_killed(alg, killed):
    """Shift an idempotent one step along the cycle arrows (e_i -> e_{i-1},
    reading indices around the cycle)."""
    _require_cyclic_connected(alg)
    return {alg.next_down[v] for v in killed}


def lift_proper_to_tau_tilting(alg, pair):
    """From a proper pair with no projective summand to a tau-tilting module:
    adjoin the projectives at the shifted killed set."""
    _require_cyclic_connected(alg)
    if not pair.killed:
        raise NotInDomain("pair is not proper")
    if pr_part(alg, pair.module):
        raise NotInDomain("module has a projective summand")
    extra = [Indec(v, alg.loewy[v]) for v in shift_killed(alg, pair.killed)]
    return make_pair(alg, pair.module + tuple(extra))


def drop_to_proper_part(alg, pair):
    """Inverse direction: strip the projective summands of a tau-tilting
    module, recomputing the killed set."""
    _require_cyclic_connected(alg)
    if pair.killed:
        raise NotTauTilting("pair has nonempty killed set")
    return make_pair(alg, np_part(alg, pair.module))


def split_at_source(alg, pair):
    """Over a connected linear algebra, remove the forced source projective
    from a tau-tilting module.

    Returns (killed_vertex, pair over the one-vertex idempotent quotient);
    the killed vertex is the unique one missing from the remainder's
    support and lies within reach of the source projective.
    """
    if alg.is_zero() or not alg.is_connected():
        raise NotLinear("algebra must be connected")
    s = alg.source_vertex()
    if pair.killed or len(pair.module) != alg.n:
        raise NotTauTilting("pair is not tau-tilting")
    ps = Indec(s, alg.loewy[s])
    if ps not in pair.module:
        raise NotTauTilting("tau-tilting module must contain the source projective")
    rest = tuple(m for m in pair.module if m != ps)
    quotient_killed = [v for v in alg.vertices if v not in modcat.support(alg, rest)]
    assert len(quotient_killed) == 1
    v = quotient_killed[0]
    assert v in modcat.comp_factors(alg, ps)
    sub = quotient_by_idempotent(alg, {v})
    out = is_support_tau_tilting(sub, rest)
    assert out is not None and not out.killed
    return v, out


def unsplit_at_source(alg, v, pair):
    """Inverse of split_at_source: adjoin the source projective back."""
    if alg.is_zero() or not alg.is_connected():
        raise NotLinear("algebra must be connected")
    s = alg.source_vertex()
    if pair.killed:
        raise NotTauTilting("pair must be tau-tilting over the quotient")
    out = is_support_tau_tilting(alg, pair.module + (Indec(s, alg.loewy[s]),))
    if out is None or out.killed:
        raise NotInDomain(f"completion at killed vertex {v} is not tau-tilting")
    return out
