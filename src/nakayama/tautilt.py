"""Support tau-tilting pairs: enumeration and structural bijections.

A pair is a basic tau-rigid module together with the killed vertex set (the
support-complement idempotent); the module is tau-tilting over the quotient
by that idempotent.  A tau-rigid module is support tau-tilting precisely
when its number of summands equals the size of its support.  Tau-rigidity
of a pair is a pairwise condition, and the support tau-tilting pairs are
exactly the maximal tau-rigid pairs, each with n members (Adachi-Iyama-
Reiten, Cor 2.13), so the enumeration lists the maximal cliques of one
compatibility graph on tau-rigid indecomposables and killed vertices.
"""

from __future__ import annotations

from typing import NamedTuple

from . import modcat
from .algebra import quotient_by_idempotent
from .errors import (
    InvalidModule,
    InvariantViolation,
    NotCyclicConnected,
    NotInDomain,
    NotTauTilting,
)
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
        summands, killed = data["summands"], data["killed"]
        if not (type(summands) is type(killed) is list and all(type(v) is int for v in killed)):
            raise NotInDomain(f"pair {data} needs a summand list and integer killed vertices")
        module = tuple(sorted({Indec.from_json(s) for s in summands}))
        if len(module) < len(summands) or len(set(killed)) < len(killed):
            raise NotInDomain(f"pair {data} repeats a summand or a killed vertex")
        return SttPair(module, tuple(sorted(killed)))


def make_pair(alg, module):
    """Pair with the killed set recomputed from the support (unique by
    sincerity over the quotient)."""
    module = tuple(sorted(module))
    supp = modcat.support(alg, module)
    killed = tuple(v for v in alg.vertices if v not in supp)
    return SttPair(module, killed)


def is_support_tau_tilting(alg, module):
    """The pair if the module is support tau-tilting, else None.

    Every summand is checked to be a module of alg before anything else;
    then BitIndex.tilting_support applies the criterion on the algebra's
    index, so only pairs it has not tested yet go to pair_tau_rigid.
    """
    try:
        module = tuple(sorted(set(module)))
    except TypeError:  # a summand that cannot be hashed or ordered
        raise InvalidModule(
            f"{module!r} has a summand that is not an Indec with integer top and length"
        ) from None
    index = modcat.bit_index(alg)
    supp = index.tilting_support(index.encode(module))
    return None if supp is None else SttPair(module, index.vertices(~supp))


def compatibility_graph(alg):
    """(nbr, nodes, labels): the graph whose maximal cliques are the
    support tau-tilting pairs, in the form of modcat.maximal_cliques.

    Its nodes are the tau-rigid indecomposables, at their index positions
    (labels holds every indexed indecomposable), and one node per vertex,
    at the positions after the index, standing for a killed vertex.  Two
    modules are adjacent when their sum is tau-rigid, a module and a vertex
    when the vertex is outside the module's support, and two vertices
    always.  Built once per algebra and kept on its BitIndex.
    """
    index = modcat.bit_index(alg)
    if index.graph is not None:
        return index.graph
    rigid = index.encode(modcat.all_tau_rigid_indecs(alg))
    labels, n = tuple(index.indecs), alg.n
    base, every_vertex = len(labels), (1 << n) - 1
    killable = every_vertex << base
    nbr = [0] * base + [killable & ~(1 << (base + i)) for i in range(n)]
    for p in modcat.bits(rigid):
        outside = every_vertex & ~index.supp[p]
        nbr[p] = (index.test(p, rigid) & rigid & ~(1 << p)) | (outside << base)
        for i in modcat.bits(outside):
            nbr[base + i] |= 1 << p
    index.graph = nbr, rigid | killable, labels
    return index.graph


def _clique_modules(alg, modules_only=False):
    """The module of each maximal clique of the algebra's compatibility
    graph (among the module nodes alone with modules_only), sorted; the
    zero algebra has one.  A graph that misses or gains an edge can still
    give cliques of n members, so their count must equal the interval DP's
    count of the pairs (of the tau-tilting modules with modules_only);
    InvariantViolation if not."""
    from .counting import dp_counts  # counting imports this module

    nbr, nodes, labels = compatibility_graph(alg)
    if modules_only:
        nodes &= (1 << len(labels)) - 1
    cliques = modcat.maximal_cliques(nbr, nodes, labels, alg.n)
    count = dp_counts(alg)[0 if modules_only else 2]
    if len(cliques) != count:
        raise InvariantViolation(
            f"{alg!r} has {len(cliques)} maximal cliques, but the DP counts {count}"
        )
    return sorted(tuple(sorted(clique)) for clique in cliques)


def enumerate_stt(alg):
    """All basic support tau-tilting pairs, canonically ordered."""
    return [make_pair(alg, module) for module in _clique_modules(alg)]


def enumerate_tau_tilt(alg):
    """All tau-tilting modules, in the order of enumerate_stt; each has n members
    by Bongartz completion (Adachi-Iyama-Reiten, Thm 2.10), and that is checked."""
    return [SttPair(module, ()) for module in _clique_modules(alg, modules_only=True)]


def enumerate_ps_tau_tilt(alg):
    return [p for p in enumerate_stt(alg) if p.killed]


def np_part(alg, module):
    """Summands that are not projective."""
    return tuple(s for s in module if not modcat.is_projective(alg, s))


def pr_part(alg, module):
    """Projective summands."""
    return tuple(s for s in module if modcat.is_projective(alg, s))


def _cycle(alg):
    """The ambient successor map of alg, once its edges form one cycle
    through every vertex (the Loewy-length-one degenerations of the cyclic
    quiver are allowed, and one vertex is its own cycle with or without its
    dead loop: make_linear([1]) is the algebra make_cyclic(1, 1)).  The
    algebra is immutable, so the map is kept on it once it passes; an
    algebra that fails keeps nothing and raises again on every call."""
    cycle = alg.__dict__.get("_cycle")
    if cycle is not None:
        return cycle
    if alg.n == 1:
        cycle = dict.fromkeys(alg.vertices, alg.vertices[0])
    elif alg.is_zero() or set(alg.next_down) != set(alg.vertices):
        raise NotCyclicConnected("quiver is not a cycle")
    else:
        v, seen = alg.vertices[0], set()
        while v not in seen:
            seen.add(v)
            v = alg.next_down[v]
        if len(seen) != alg.n:
            raise NotCyclicConnected("quiver is not a single cycle")
        cycle = alg.next_down
    alg.__dict__["_cycle"] = cycle
    return cycle


def shift_killed(alg, killed):
    """Shift an idempotent one step along the cycle arrows (e_i -> e_{i-1},
    reading indices around the cycle): the one statement of the shift."""
    cycle = _cycle(alg)
    if not cycle.keys() >= set(killed):
        raise NotInDomain(f"killed set {sorted(killed)} has a vertex outside the quiver")
    return {cycle[v] for v in killed}


def lift_proper_to_tau_tilting(alg, pair):
    """From a proper pair with no projective summand to a tau-tilting module:
    adjoin the projectives at the shifted killed set."""
    shifted = shift_killed(alg, pair.killed)
    if not pair.killed:
        raise NotInDomain("pair is not proper")
    if pr_part(alg, pair.module):
        raise NotInDomain("module has a projective summand")
    extra = [Indec(v, alg.loewy[v]) for v in shifted]
    return make_pair(alg, pair.module + tuple(extra))


def drop_to_proper_part(alg, pair):
    """Inverse direction: strip the projective summands of a tau-tilting
    module, recomputing the killed set."""
    _cycle(alg)
    if pair.killed:
        raise NotTauTilting("pair has nonempty killed set")
    return make_pair(alg, np_part(alg, pair.module))


def split_at_source(alg, pair):
    """Over a connected linear algebra, remove the forced source projective
    from a tau-tilting module.

    Returns (killed_vertex, pair over the one-vertex idempotent quotient);
    the killed vertex is the unique one missing from the remainder's
    support and lies within reach of the source projective.  NotLinear
    (from source_vertex) unless alg is connected and linear.
    """
    s = alg.source_vertex()
    checked = is_support_tau_tilting(alg, pair.module)
    if pair.killed or checked is None or checked.killed:
        raise NotTauTilting("pair is not tau-tilting")
    ps = Indec(s, alg.loewy[s])
    if ps not in checked.module:
        raise NotTauTilting("tau-tilting module must contain the source projective")
    rest = tuple(m for m in checked.module if m != ps)
    quotient_killed = make_pair(alg, rest).killed
    if len(quotient_killed) != 1:
        raise InvariantViolation(f"{rest} misses {len(quotient_killed)} vertices, not one")
    v = quotient_killed[0]
    if v not in modcat.comp_factors(alg, ps):
        raise InvariantViolation(f"killed vertex {v} is out of reach of {ps}")
    sub = quotient_by_idempotent(alg, {v})
    out = is_support_tau_tilting(sub, rest)
    if out is None or out.killed:
        raise InvariantViolation(f"{rest} is not tau-tilting over the quotient at {v}")
    return v, out


def unsplit_at_source(alg, v, pair):
    """Inverse of split_at_source: adjoin the source projective back."""
    s = alg.source_vertex()
    if pair.killed:
        raise NotTauTilting("pair must be tau-tilting over the quotient")
    out = is_support_tau_tilting(alg, pair.module + (Indec(s, alg.loewy[s]),))
    if out is None or out.killed:
        raise NotInDomain(f"completion at killed vertex {v} is not tau-tilting")
    return out
