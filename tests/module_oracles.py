"""Reference implementations that the projective-injective closed form
in nakayama.algebra, the Hom test, the pair test and the support masks in
nakayama.modcat, and the bit-index validation in nakayama.tautilt are
tested against."""

from nakayama.algebra import socle_vertex_of_projective
from nakayama.errors import ZeroAlgebra
from nakayama.modcat import (
    check_valid,
    comp_factors,
    hom_nonzero,
    is_tau_rigid_indec,
    pair_tau_rigid,
    tau,
)
from nakayama.tautilt import SttPair


def projective_injectives_socle_scan(alg):
    """Brute-force socle scan: P_j is injective iff no indecomposable
    longer than P_j has the same socle vertex."""
    if alg.is_zero():
        raise ZeroAlgebra("zero algebra has no projectives")
    longest_with_socle = {}
    for v in alg.vertices:
        for l in range(1, alg.loewy[v] + 1):
            s = alg.walk_down(v, l - 1)
            if longest_with_socle.get(s, 0) < l:
                longest_with_socle[s] = l
    return {
        j
        for j in alg.vertices
        if longest_with_socle[socle_vertex_of_projective(alg, j)] <= alg.loewy[j]
    }


def hom_dim_oracle(alg, m, n):
    """Hom dimension as the number of t for which the top-t factor list of
    m equals the bottom-t factor list of n (maps between uniserials are
    exactly these overlaps)."""
    fm = comp_factors(alg, m)
    fn = comp_factors(alg, n)
    count = 0
    for t in range(1, min(len(fm), len(fn)) + 1):
        if fm[:t] == fn[len(fn) - t:]:
            count += 1
    return count


def pair_tau_rigid_oracle(alg, x, y):
    """Whether x + y is tau-rigid, through the public primitives: both
    summands tau-rigid and no Hom from either into the other's tau."""
    if not (is_tau_rigid_indec(alg, x) and is_tau_rigid_indec(alg, y)):
        return False
    ty, tx = tau(alg, y), tau(alg, x)
    return not (
        (ty is not None and hom_nonzero(alg, x, ty))
        or (tx is not None and hom_nonzero(alg, y, tx))
    )


def support_oracle(alg, module):
    """Set of vertices occurring as composition factors, by set unions."""
    out = set()
    for s in module:
        out.update(comp_factors(alg, s))
    return out


def is_support_tau_tilting_oracle(alg, module):
    """The pair if the module is support tau-tilting, else None, by testing
    every pair of summands and counting the support as a set."""
    module = tuple(sorted(set(module)))
    for s in module:
        check_valid(alg, s)
    for i, x in enumerate(module):
        for y in module[i:]:
            if not pair_tau_rigid(alg, x, y):
                return None
    supp = support_oracle(alg, module)
    killed = tuple(v for v in alg.vertices if v not in supp)
    return SttPair(module, killed) if len(module) + len(killed) == alg.n else None
