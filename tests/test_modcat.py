import json
import random

import pytest
from module_oracles import (
    _tau_oracle,
    all_indecs,
    factors_oracle,
    hom_dim_oracle,
    hom_into_tau_cover,
    hom_into_tau_walk,
    in_fac,
    pair_tau_rigid_oracle,
    quotient_loewy_clamp,
)

from nakayama.algebra import (
    NakayamaAlgebra,
    make_cyclic,
    make_gamma,
    make_linear,
    quotient_by_idempotent,
    rejection_chain,
    socle_vertex_of_projective,
)
from nakayama.errors import InvalidModule, InvariantViolation
from nakayama.modcat import (
    BitIndex,
    Indec,
    _rigid_row,
    all_tau_rigid_indecs,
    bits,
    comp_factors,
    exchange,
    is_projective,
    is_tau_rigid_indec,
    maximal_cliques,
    pair_tau_rigid,
    support,
    typed_indec,
)
from nakayama.tautilt import enumerate_stt, is_support_tau_tilting
from nakayama.verify import cyclic_algebra, valid_cyclic_series, valid_linear_series

L33 = make_cyclic(3, 3)
L45 = make_cyclic(4, 5)


def test_comp_factors_examples():
    assert comp_factors(L33, Indec(1, 3)) == (1, 3, 2)
    assert comp_factors(L33, Indec(2, 1)) == (2,)
    assert comp_factors(L45, Indec(3, 5)) == (3, 2, 1, 4, 3)


def test_comp_factors_cache_cannot_be_changed_through_a_result():
    alg = make_cyclic(3, 3)
    with pytest.raises(TypeError):
        comp_factors(alg, Indec(1, 3))[0] = 2
    assert comp_factors(alg, Indec(1, 3)) == (1, 3, 2)


def test_socle_vertex_examples():
    # the socle is the last composition factor
    assert comp_factors(L33, Indec(1, 3))[-1] == 2
    assert comp_factors(L33, Indec(2, 1))[-1] == 2
    assert comp_factors(L45, Indec(3, 5))[-1] == 3


def test_invalid_module_rejected():
    with pytest.raises(InvalidModule):
        comp_factors(L33, Indec(1, 4))
    with pytest.raises(InvalidModule):
        comp_factors(L33, Indec(5, 1))


def test_hom_examples():
    # the factor-list overlap that the pair test is checked against
    for m in all_indecs(L33):
        assert hom_dim_oracle(L33, m, m) > 0
    assert hom_dim_oracle(L33, Indec(2, 1), Indec(1, 2)) == 0
    assert hom_dim_oracle(L33, Indec(1, 3), Indec(3, 3)) > 0


def _interval_member(x, a, b, n):
    # {(a)_n, ..., (b)_n} for integers a <= b
    if b - a + 1 >= n:
        return True
    return (x - a) % n <= (b - a)


def _hom_by_intervals(n, m, other):
    # cyclic-interval criterion for Hom((j,l) -> (i,k)) over a cycle of size n
    j, l = m
    i, k = other
    return _interval_member(j, i - k + 1, i, n) and _interval_member(
        (i - k + 1) % n or n, j - l + 1, j, n
    )


def test_hom_agrees_with_dimension_oracle_and_intervals():
    # two independent Hom rules agree: factor-list overlap and intervals
    for size in range(1, 6):
        for r in range(1, 7):
            alg = make_cyclic(size, r)
            ms = all_indecs(alg)
            for m in ms:
                for other in ms:
                    got = hom_dim_oracle(alg, m, other) > 0
                    assert got == _hom_by_intervals(size, m, other)


def test_hom_dim_oracle_on_linear():
    # Hom into tau on the universal cover against the factor-list overlap,
    # for the oracle copy and for the library's pair test, which inlines it
    for ks in [[1, 2, 3], [1, 2, 2, 2], [1, 2, 3, 3, 4]]:
        alg = make_linear(ks)
        ms = all_indecs(alg)
        for m in ms:
            for other in ms:
                t = _tau_oracle(alg, other)
                want = t is not None and hom_dim_oracle(alg, m, t) > 0
                assert hom_into_tau_cover(alg, m, other) == want
                assert pair_tau_rigid(alg, m, other) == pair_tau_rigid_oracle(alg, m, other)


def test_hom_from_projective_cover():
    # for len m >= len tau y, Hom(m, tau y) != 0 iff Hom(P_top(m), tau y) != 0
    for alg in (L33, L45):
        for m in all_indecs(alg):
            p = Indec(m.top, alg.loewy[m.top])
            for other in all_indecs(alg):
                if m.length >= other.length:
                    assert hom_into_tau_cover(alg, m, other) == hom_into_tau_cover(alg, p, other)


def test_tau_rigid_criterion_examples():
    l34 = make_cyclic(3, 4)
    assert not is_tau_rigid_indec(l34, Indec(1, 3))  # length = cycle size
    assert is_tau_rigid_indec(l34, Indec(1, 4))      # projective
    for m in all_indecs(make_linear([1, 2, 3])):
        assert is_tau_rigid_indec(make_linear([1, 2, 3]), m)


def test_tau_rigid_criterion_against_direct_hom():
    # the pair test's diagonal, and the list read from clamps, against
    # Hom(m, tau m) by factor-list overlap: on cycles, and on the pair-test
    # grid of quotients, paths, rejection stages and out-of-order labels
    algs = [make_cyclic(size, r) for size in range(1, 7) for r in range(1, 9)]
    count = 0
    for alg in algs + list(_pair_test_algebras()):
        rigid = []
        for m in all_indecs(alg):
            t = _tau_oracle(alg, m)
            direct = t is None or hom_dim_oracle(alg, m, t) == 0
            assert is_tau_rigid_indec(alg, m) == direct, (alg, m)
            rigid += [m] * direct
            count += 1
        assert all_tau_rigid_indecs(alg) == rigid, alg
    assert count == 756 + 12465


def test_pair_examples():
    assert pair_tau_rigid(L33, Indec(1, 3), Indec(2, 3))
    assert not pair_tau_rigid(L33, Indec(1, 1), Indec(2, 1))
    for i in L33.vertices:
        for j in L33.vertices:
            assert pair_tau_rigid(L33, Indec(i, 3), Indec(j, 3))


def _quotient_oracle(alg, x, module):
    # x in Fac(module) iff x's factor list is a prefix of some summand's
    fx = factors_oracle(alg, x)
    return any(factors_oracle(alg, s)[: len(fx)] == fx for s in module)


def test_in_fac_examples_and_oracle():
    assert in_fac(L33, Indec(1, 1), (Indec(1, 3),))
    assert not in_fac(L33, Indec(2, 1), (Indec(1, 3),))
    for alg in (L33, make_linear([1, 2, 2, 3])):
        ms = all_indecs(alg)
        for x in ms:
            for s in ms:
                assert in_fac(alg, x, (s,)) == _quotient_oracle(alg, x, (s,))


def test_in_fac_reflexive_and_compatible():
    ms = all_indecs(L33)
    for x in ms:
        assert in_fac(L33, x, (x,))
    # nested Fac: if every summand of N is in Fac(M), quotients of N stay in Fac(M)
    module = (Indec(1, 3), Indec(2, 2))
    for x in ms:
        if in_fac(L33, x, module):
            for t in range(1, x.length + 1):
                assert in_fac(L33, Indec(x.top, t), module)


def test_support_count():
    assert len(support(L33, (Indec(1, 3),))) == 3
    assert len(support(L33, ())) == 0
    assert len(support(L33, (Indec(2, 1), Indec(2, 3)))) == 3


def test_all_indecs_counts():
    assert len(all_indecs(L33)) == 9
    assert len(all_tau_rigid_indecs(L33)) == 9
    l34 = make_cyclic(3, 4)
    assert len(all_indecs(l34)) == 12
    assert len(all_tau_rigid_indecs(l34)) == 9
    assert all_indecs(make_cyclic(4, 5)) and len(all_indecs(L45)) == 20



def test_tau_rigid_indecs_are_the_rigid_ones_in_order():
    algs = [cyclic_algebra(ks) for n in range(1, 5) for ks in valid_cyclic_series(n, 6)]
    algs += [make_linear(list(ks)) for n in range(1, 5) for ks in valid_linear_series(n, 4)]
    for alg in algs + [quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2})]:
        rigid = [m for m in all_indecs(alg) if is_tau_rigid_indec(alg, m)]
        assert all_tau_rigid_indecs(alg) == rigid, alg


def test_index_support_of_a_long_cyclic_module_is_the_cycle(monkeypatch):
    # a module at least a cycle long covers the cycle; its support is read
    # off one turn of the walk, never off all of its composition factors
    alg, small = make_cyclic(3, 10 ** 12), make_cyclic(3, 4)
    for m in (Indec(1, 2), Indec(2, 3), Indec(3, 10 ** 12)):
        assert support(alg, (m,)) == set(comp_factors(small, Indec(m.top, min(m.length, 4))))
    factors = alg.factors

    def one_turn(j, length):
        assert length <= alg.n, length
        return factors(j, length)

    monkeypatch.setattr(alg, "factors", one_turn)
    assert support(alg, (Indec(2, 10 ** 12 - 1),)) == {1, 2, 3}
    with pytest.raises(InvalidModule):
        support(alg, (Indec(2, 10 ** 12 + 1),))

def test_all_indecs_zero():
    from nakayama.algebra import ZERO

    assert all_indecs(ZERO) == []


def test_projectivity_split():
    g = make_gamma(4, 2)
    assert is_projective(g, Indec(3, 2))
    assert not is_projective(g, Indec(3, 1))


def test_rigid_count_bounded_by_vertices():
    # any pairwise tau-rigid set found by the enumerator has at most n summands
    from nakayama.tautilt import enumerate_stt

    for size in range(1, 5):
        for ks in valid_cyclic_series(size, size + 1):
            alg = cyclic_algebra(ks)
            for pair in enumerate_stt(alg):
                assert len(pair.module) <= alg.n


def _pair_test_algebras():
    """Cycles with entries at or past the cycle size and their idempotent
    quotients, paths, rejection stages with dead ambient edges, and a cycle
    and a path labelled out of arrow order."""
    cyclic = [cyclic_algebra(ks) for n in range(1, 5) for ks in valid_cyclic_series(n, n + 3)]
    for alg in cyclic:
        vs = alg.vertices
        for mask in range(1 << alg.n):
            yield quotient_by_idempotent(alg, {v for i, v in enumerate(vs) if mask >> i & 1})
    yield from (make_linear(list(ks)) for ks in valid_linear_series(4, 4))
    for alg in (make_cyclic(3, 4), make_cyclic(4, 5)):
        yield from (stage for stage, _ in rejection_chain(alg))
    yield NakayamaAlgebra([1, 2, 3, 5], {1: 5, 5: 2, 2: 3, 3: 1}, {1: 3, 2: 3, 3: 2, 5: 4})
    yield NakayamaAlgebra([1, 2, 3, 5], {5: 3, 3: 2, 2: 1}, {1: 1, 2: 2, 3: 3, 5: 3})


def test_pair_test_matches_public_primitives():
    # every pair, both orders, on a cold algebra: the pair test by arithmetic
    # on the universal cover agrees with Hom by factor-list overlap, and its
    # Hom into tau with the walk along tau's composition factors
    algs = list(_pair_test_algebras())
    count = 0
    for alg in algs:
        ms = all_indecs(alg)
        for x in ms:
            for y in ms:
                assert pair_tau_rigid(alg, x, y) == pair_tau_rigid_oracle(alg, x, y), (alg, x, y)
                assert hom_into_tau_cover(alg, x, y) == hom_into_tau_walk(alg, x, y), (alg, x, y)
                count += 1
    assert (len(algs), count) == (3486, 100517)


def test_rigid_row_matches_the_oracle_in_any_order():
    # the pair rule a row at a time: every x against every module of the
    # algebra, in the given, the reversed and a seeded shuffled order
    rng = random.Random(1)
    count = 0
    for alg in _pair_test_algebras():
        ms = all_indecs(alg)
        for x in ms:
            want = {y: pair_tau_rigid_oracle(alg, x, y) for y in ms}
            for ys in (ms, ms[::-1], rng.sample(ms, len(ms))):
                assert _rigid_row(alg, x, ys) == sum(want[y] << i for i, y in enumerate(ys)), (alg, x)
            count += len(ms)
    assert count == 100517


def _pairs(rows):
    return {(p, q) for p, row in enumerate(rows) for q in bits(row)}


def test_bit_index_rows_are_symmetric_and_match_the_oracle_in_any_fill_order():
    # modules indexed in a seeded order, rows filled at seeded masks and
    # then in full in a seeded order: after either phase the table is
    # symmetric, and every tested pair holds the oracle's answer
    rng = random.Random(2)
    for alg in _pair_test_algebras():
        ms = all_indecs(alg)
        index = BitIndex(alg)
        index.encode(rng.sample(ms, len(ms)))
        for phase in (lambda: rng.getrandbits(len(ms)), lambda: (1 << len(ms)) - 1):
            for p in rng.sample(range(len(ms)), len(ms)):
                index.test(p, phase())
            tested, compat = _pairs(index.tested), _pairs(index.compat)
            assert tested == {(q, p) for p, q in tested} and compat <= tested, alg
            want = {(p, q) for p, q in tested if pair_tau_rigid_oracle(alg, index.indecs[p], index.indecs[q])}
            assert compat == want, alg
        assert len(tested) == len(ms) ** 2, alg


def test_factors_socles_and_quotient_clamps_match_the_next_down_walk():
    # the slices of the component table's walk, repeated round a cycle,
    # against next_down
    # followed by hand: every module's factors, every projective's socle,
    # and the Loewy lengths of every idempotent quotient
    algs = list(_pair_test_algebras())
    quotients = 0
    for alg in algs:
        for m in all_indecs(alg):
            assert comp_factors(alg, m) == factors_oracle(alg, m), (alg, m)
        for j in alg.vertices:
            p = Indec(j, alg.loewy[j])
            assert socle_vertex_of_projective(alg, j) == factors_oracle(alg, p)[-1], (alg, j)
        vs = alg.vertices
        for mask in range(1 << alg.n):
            killed = {v for i, v in enumerate(vs) if mask >> i & 1}
            got = quotient_by_idempotent(alg, killed).loewy
            assert got == quotient_loewy_clamp(alg, killed), (alg, killed)
            quotients += 1
    assert (len(algs), quotients) == (3486, 17170)


def test_pair_test_checks_both_modules():
    # on a cold and on a warm algebra, an invalid module in either place
    # raises check_valid's error before anything is cached
    good = Indec(1, 1)
    for warm in (False, True):
        alg = make_cyclic(3, 3)
        if warm:
            pair_tau_rigid(alg, good, Indec(2, 2))
        before = dict(alg.__dict__.get("_pair_rigid", {}))
        for bad, message in ((Indec(1, 4), "length 4 not in"), (Indec(1, 0), "length 0 not in"),
                             (Indec(4, 1), "top 4 is not a vertex")):
            for x, y in ((bad, good), (good, bad)):
                with pytest.raises(InvalidModule, match=message):
                    pair_tau_rigid(alg, x, y)
                assert alg.__dict__.get("_pair_rigid", {}) == before


# the square a-b-c-d-a: its maximal cliques are its four sides
SQUARE = [0b1010, 0b0101, 0b1010, 0b0101]


def test_maximal_cliques_of_the_square():
    cliques = maximal_cliques(SQUARE, 0b1111, "abcd", 2)
    assert sorted("".join(sorted(c)) for c in cliques) == ["ab", "ad", "bc", "cd"]
    # nodes past the labels are members without a label
    assert sorted(maximal_cliques(SQUARE, 0b1111, "ab", 2)) == [(), ("a",), ("a", "b"), ("b",)]


def test_maximal_clique_of_the_wrong_size_raises():
    with pytest.raises(InvariantViolation, match="has 2 members, not 3"):
        maximal_cliques(SQUARE, 0b1111, "abcd", 3)


def test_maximal_cliques_of_the_empty_graph():
    # the empty clique is the one maximal clique, and it has no members
    assert maximal_cliques([], 0, (), 0) == [()]
    with pytest.raises(InvariantViolation, match="no clique of 2 members"):
        maximal_cliques([], 0, (), 2)


def test_a_bool_top_never_enters_the_bit_index():
    # the index finds modules by equality, and True == 1
    def listing(alg):
        return json.dumps([p.to_json() for p in enumerate_stt(alg)])

    bad = [Indec(True, 2), Indec(2, 2)]
    for listed_first in (False, True):
        alg = make_cyclic(2, 2)
        if listed_first:
            listing(alg)
            pair = is_support_tau_tilting(alg, bad)  # Indec(1, 2) is indexed: the lookup hits
            assert all(map(typed_indec, pair.module))  # the stored summand, not the caller's
            assert json.dumps(pair.to_json()).startswith('{"summands": [{"top": 1, "len": 2}')
        else:
            with pytest.raises(InvalidModule, match="not an Indec with integer top and length"):
                is_support_tau_tilting(alg, bad)
        assert all(map(typed_indec, alg._bit_index.indecs))
        assert listing(alg) == listing(make_cyclic(2, 2))


def test_exchange_gives_the_other_completion():
    # side ab without a is completed by c, without b by d
    assert exchange(SQUARE, 0b0011, 0) == 0b0100
    assert exchange(SQUARE, 0b0011, 1) == 0b1000
    # a one-node clique without its node: every other node
    assert exchange([0, 0, 0], 0b010, 1) == 0b101
