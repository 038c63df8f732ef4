"""Reference implementations that the projective-injective scan in
nakayama.algebra, the Hom test and the support masks in nakayama.modcat,
and the bit-index validation in nakayama.tautilt are tested against."""

from nakayama.errors import ZeroAlgebra
from nakayama.modcat import check_valid, comp_factors, pair_tau_rigid
from nakayama.tautilt import SttPair


def projective_injectives_closed_form(alg):
    """j is projective-injective iff the vertex above j (if any) has Loewy
    length at most loewy(j)."""
    if alg.is_zero():
        raise ZeroAlgebra("zero algebra has no projectives")
    above = {alg.arrow_target(v): v for v in alg.vertices}
    return {
        j for j in alg.vertices if j not in above or alg.loewy[above[j]] <= alg.loewy[j]
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
