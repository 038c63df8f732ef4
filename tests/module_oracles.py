"""Reference implementations, and the list of every indecomposable, that
the component table, the arrow walk's composition factors and socles, the
idempotent quotient's Loewy clamp, the components and the
projective-injective closed form in nakayama.algebra, the Kupisch series
walks in nakayama.verify, the pair test with its Hom arithmetic and the
support masks in nakayama.modcat, the Fac order's reach test in
nakayama.poset, and the bit-index validation and the maximal-clique
enumeration in nakayama.tautilt are tested against.  The oracles find
composition factors by following next_down, not through the algebra's
component table."""

import itertools

from nakayama.algebra import NakayamaAlgebra
from nakayama.errors import InvariantViolation, ZeroAlgebra
from nakayama.modcat import (
    Indec,
    all_tau_rigid_indecs,
    bit_index,
    bits,
    check_valid,
)
from nakayama.tautilt import SttPair, enumerate_stt


def cyclic_series_filter(n, max_entry):
    """The Kupisch series of the n-cycle with entries at most max_entry, by
    filtering every tuple of entries in [1, max_entry]."""
    for ks in itertools.product(range(1, max_entry + 1), repeat=n):
        if all(ks[j] <= ks[j - 1] + 1 for j in range(n)):
            yield ks


def linear_series_filter(n, max_entry):
    """The Kupisch series of the n-path with entries at most max_entry, by
    filtering every tuple of entries in [1, max_entry]."""
    for ks in itertools.product(range(1, max_entry + 1), repeat=n):
        if ks[0] == 1 and all(ks[j] <= ks[j - 1] + 1 for j in range(1, n)):
            yield ks


def all_indecs(alg):
    """All indecomposables, ordered by (top, length)."""
    return [
        Indec(j, l)
        for j in alg.vertices
        for l in range(1, alg.loewy[j] + 1)
    ]


def component_table_oracle(alg):
    """vertex -> (sorted vertices of its component, whether it is a cycle),
    by a two-way search along the arrows and their reverses; a component is
    a cycle when every vertex of it has an arrow out."""
    up = {alg.arrow_target(v): v for v in alg.vertices if alg.arrow_target(v) is not None}
    table = {}
    for root in alg.vertices:
        if root in table:
            continue
        stack, seen = [root], {root}
        while stack:
            v = stack.pop()
            for w in (alg.arrow_target(v), up.get(v)):
                if w is not None and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp = tuple(sorted(seen))
        entry = (comp, all(alg.arrow_target(v) is not None for v in comp))
        for v in comp:
            table[v] = entry
    return table


def components_oracle(alg):
    """Components as sub-algebras built by hand: each component's vertices,
    the edges between them and their Loewy lengths unchanged."""
    out = []
    for comp in sorted({c for c, _ in component_table_oracle(alg).values()}):
        nd = {j: k for j, k in alg.next_down.items() if j in comp and k in comp}
        out.append(NakayamaAlgebra(comp, nd, {v: alg.loewy[v] for v in comp}))
    return out


def in_fac(alg, x, module):
    """Whether x lies in Fac of the basic module.

    A uniserial is a factor of a sum iff it is a quotient of a single
    summand: same top, no greater length.
    """
    check_valid(alg, x)
    return any(s.top == x.top and s.length >= x.length for s in module)


def factors_oracle(alg, m):
    """Composition factors from top to socle, by following next_down from
    the top."""
    check_valid(alg, m)
    out = [m.top]
    for _ in range(m.length - 1):
        out.append(alg.next_down[out[-1]])
    return tuple(out)


def quotient_loewy_clamp(alg, killed):
    """The Loewy lengths of the quotient by the killed vertices: from each
    survivor, the number of vertices reached along the edges that survive,
    at most its old Loewy length."""
    next_down = {j: k for j, k in alg.next_down.items() if j not in killed and k not in killed}
    loewy = {}
    for v in alg.vertices:
        if v in killed:
            continue
        depth, w = 0, v
        while depth < alg.loewy[v] - 1 and w in next_down:
            w = next_down[w]
            depth += 1
        loewy[v] = depth + 1
    return loewy


def projective_injectives_socle_scan(alg):
    """Brute-force socle scan: P_j is injective iff no indecomposable
    longer than P_j has the same socle vertex."""
    if alg.is_zero():
        raise ZeroAlgebra("zero algebra has no projectives")
    longest_with_socle = {}
    for v in alg.vertices:
        for l in range(1, alg.loewy[v] + 1):
            s = factors_oracle(alg, Indec(v, l))[-1]
            if longest_with_socle.get(s, 0) < l:
                longest_with_socle[s] = l
    return {
        j
        for j in alg.vertices
        if longest_with_socle[factors_oracle(alg, Indec(j, alg.loewy[j]))[-1]] <= alg.loewy[j]
    }


def hom_dim_oracle(alg, m, n):
    """Hom dimension as the number of t for which the top-t factor list of
    m equals the bottom-t factor list of n (maps between uniserials are
    exactly these overlaps)."""
    fm = factors_oracle(alg, m)
    fn = factors_oracle(alg, n)
    count = 0
    for t in range(1, min(len(fm), len(fn)) + 1):
        if fm[:t] == fn[len(fn) - t:]:
            count += 1
    return count


def hom_into_tau_cover(alg, x, y):
    """Whether Hom(x, tau y) != 0, by the arithmetic of the pair test in
    nakayama.modcat on its own: top(x) lies at a step d in
    [len y - len x, len y) below top(tau y) on the universal cover of the
    arrow walk (the least lift past the lower end, on a cycle)."""
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


def hom_into_tau_walk(alg, x, y):
    """Whether Hom(x, tau y) != 0, by walking the composition factors of
    tau y: top(x) is among the last len x of them."""
    if y.length == alg.loewy[y.top]:
        return False
    return x.top in factors_oracle(alg, Indec(alg.next_down[y.top], y.length))[-x.length:]


def _tau_oracle(alg, m):
    """tau m, the module of the same length one step down, or None when m
    is projective."""
    check_valid(alg, m)
    if m.length == alg.loewy[m.top]:
        return None
    return Indec(alg.next_down[m.top], m.length)


def pair_tau_rigid_oracle(alg, x, y):
    """Whether x + y is tau-rigid: no Hom from x or y into tau x or tau y,
    each Hom decided by hom_dim_oracle's factor-list overlap."""
    taus = [t for t in (_tau_oracle(alg, x), _tau_oracle(alg, y)) if t is not None]
    return all(hom_dim_oracle(alg, m, t) == 0 for m in (x, y) for t in taus)


def support_oracle(alg, module):
    """Set of vertices occurring as composition factors, by set unions."""
    out = set()
    for s in module:
        out.update(factors_oracle(alg, s))
    return out


def is_support_tau_tilting_oracle(alg, module):
    """The pair if the module is support tau-tilting, else None, by testing
    every pair of summands and counting the support as a set."""
    module = tuple(sorted(set(module)))
    for s in module:
        check_valid(alg, s)
    for i, x in enumerate(module):
        for y in module[i:]:
            if not pair_tau_rigid_oracle(alg, x, y):
                return None
    supp = support_oracle(alg, module)
    killed = tuple(v for v in alg.vertices if v not in supp)
    return SttPair(module, killed) if len(module) + len(killed) == alg.n else None


def enumerate_component_dfs(alg):
    """All support tau-tilting modules of a connected algebra, as summand
    tuples: a DFS over every tau-rigid module, pruned by pairwise
    rigidity, keeping those with as many summands as support vertices."""
    index = bit_index(alg)
    rigid = index.encode(all_tau_rigid_indecs(alg))
    for p in bits(rigid):
        index.test(p, rigid)
    indecs, supp_of, compat = index.indecs, index.supp, index.compat
    found = []

    def extend(chosen, supp, candidates):
        size = supp.bit_count()
        if len(chosen) > size:
            raise InvariantViolation(f"tau-rigid {chosen} has more summands than its support")
        if len(chosen) == size:
            found.append(tuple(chosen))
        cs = candidates
        while cs:
            i = (cs & -cs).bit_length() - 1
            cs &= cs - 1
            chosen.append(indecs[i])
            extend(chosen, supp | supp_of[i], cs & compat[i])
            chosen.pop()

    extend([], 0, rigid)
    return found


def enumerate_tau_tilt_filter(alg):
    """The tau-tilting modules as the support tau-tilting pairs with no
    killed vertex, in the order of enumerate_stt."""
    return [p for p in enumerate_stt(alg) if not p.killed]
