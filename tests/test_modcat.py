import pytest
from module_oracles import hom_dim_oracle, pair_tau_rigid_oracle

from nakayama.algebra import make_cyclic, make_gamma, make_linear
from nakayama.errors import InvalidModule, InvariantViolation
from nakayama.modcat import (
    Indec,
    all_indecs,
    all_tau_rigid_indecs,
    comp_factors,
    hom_nonzero,
    in_fac,
    is_projective,
    is_tau_rigid_indec,
    pair_tau_rigid,
    socle_vertex,
    support,
    tau,
)
from nakayama.verify import cyclic_algebra, valid_cyclic_series, valid_linear_series

L33 = make_cyclic(3, 3)
L45 = make_cyclic(4, 5)


def test_comp_factors_examples():
    assert comp_factors(L33, Indec(1, 3)) == [1, 3, 2]
    assert comp_factors(L33, Indec(2, 1)) == [2]
    assert comp_factors(L45, Indec(3, 5)) == [3, 2, 1, 4, 3]


def test_socle_vertex_examples():
    assert socle_vertex(L33, Indec(1, 3)) == 2
    assert socle_vertex(L33, Indec(2, 1)) == 2
    assert socle_vertex(L45, Indec(3, 5)) == 3


def test_invalid_module_rejected():
    with pytest.raises(InvalidModule):
        comp_factors(L33, Indec(1, 4))
    with pytest.raises(InvalidModule):
        comp_factors(L33, Indec(5, 1))


def test_tau_examples():
    assert tau(L45, Indec(1, 4)) == Indec(4, 4)
    assert tau(L45, Indec(2, 1)) == Indec(1, 1)
    assert tau(L45, Indec(1, 5)) is None  # projective


def test_tau_preserves_length():
    for alg in (L33, L45, make_linear([1, 2, 2, 3])):
        for m in all_indecs(alg):
            t = tau(alg, m)
            if t is not None:
                assert t.length == m.length


def test_hom_examples():
    for m in all_indecs(L33):
        assert hom_nonzero(L33, m, m)
    assert not hom_nonzero(L33, Indec(2, 1), Indec(1, 2))
    assert hom_nonzero(L33, Indec(1, 3), Indec(3, 3))


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
    for size in range(1, 6):
        for r in range(1, 7):
            alg = make_cyclic(size, r)
            ms = all_indecs(alg)
            for m in ms:
                for other in ms:
                    got = hom_nonzero(alg, m, other)
                    assert got == (hom_dim_oracle(alg, m, other) > 0)
                    assert got == _hom_by_intervals(size, m, other)


def test_hom_dim_oracle_on_linear():
    for ks in [[1, 2, 3], [1, 2, 2, 2], [1, 2, 3, 3, 4]]:
        alg = make_linear(ks)
        ms = all_indecs(alg)
        for m in ms:
            for other in ms:
                assert hom_nonzero(alg, m, other) == (hom_dim_oracle(alg, m, other) > 0)


def test_hom_from_projective_cover():
    # for l >= k, Hom(m, other) != 0 iff Hom(P_top(m), other) != 0
    for alg in (L33, L45):
        for m in all_indecs(alg):
            p = Indec(m.top, alg.loewy[m.top])
            for other in all_indecs(alg):
                if m.length >= other.length:
                    assert hom_nonzero(alg, m, other) == hom_nonzero(alg, p, other)


def test_tau_rigid_criterion_examples():
    l34 = make_cyclic(3, 4)
    assert not is_tau_rigid_indec(l34, Indec(1, 3))  # length = cycle size
    assert is_tau_rigid_indec(l34, Indec(1, 4))      # projective
    for m in all_indecs(make_linear([1, 2, 3])):
        assert is_tau_rigid_indec(make_linear([1, 2, 3]), m)


def test_tau_rigid_criterion_against_direct_hom():
    for size in range(1, 7):
        for r in range(1, 9):
            alg = make_cyclic(size, r)
            for m in all_indecs(alg):
                t = tau(alg, m)
                direct = t is None or not hom_nonzero(alg, m, t)
                assert is_tau_rigid_indec(alg, m) == direct


def test_pair_examples():
    assert pair_tau_rigid(L33, Indec(1, 3), Indec(2, 3))
    assert not pair_tau_rigid(L33, Indec(1, 1), Indec(2, 1))
    for i in L33.vertices:
        for j in L33.vertices:
            assert pair_tau_rigid(L33, Indec(i, 3), Indec(j, 3))


def _quotient_oracle(alg, x, module):
    # x in Fac(module) iff x's factor list is a prefix of some summand's
    fx = comp_factors(alg, x)
    return any(comp_factors(alg, s)[: len(fx)] == fx for s in module)


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


def test_pair_test_matches_public_primitives():
    # every pair, both orders, on a cold algebra: the one-check pair test
    # agrees with rigidity, tau and Hom through their public checks
    algs = [cyclic_algebra(ks) for ks in valid_cyclic_series(3, 4)]
    algs += [make_linear(list(ks)) for ks in valid_linear_series(4, 4)]
    for alg in algs:
        ms = all_indecs(alg)
        for x in ms:
            for y in ms:
                assert pair_tau_rigid(alg, x, y) == pair_tau_rigid_oracle(alg, x, y)


def test_pair_test_checks_both_modules():
    with pytest.raises(InvalidModule):
        pair_tau_rigid(L33, Indec(1, 1), Indec(1, 4))
    with pytest.raises(InvalidModule):
        pair_tau_rigid(L33, Indec(4, 1), Indec(1, 1))


def test_socle_off_the_quiver_raises(monkeypatch):
    alg = make_cyclic(3, 3)
    monkeypatch.setattr(alg, "walk_down", lambda j, steps: None)
    with pytest.raises(InvariantViolation, match="socle"):
        socle_vertex(alg, Indec(1, 2))
