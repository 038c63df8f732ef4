"""Reference implementations that the projective-injective scan in
nakayama.algebra and the Hom test in nakayama.modcat are tested against."""

from nakayama.errors import ZeroAlgebra
from nakayama.modcat import comp_factors


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
