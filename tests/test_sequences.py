import math

import pytest

from nakayama.errors import InvariantViolation, NotInDomain
from nakayama.geometry import Arc, enumerate_restricted, enumerate_triangulations, make_triangulation
from nakayama.sequences import (
    SeqA,
    _drop_position,
    enumerate_Y,
    enumerate_Z,
    enumerate_Z_restricted,
    in_restricted,
    terminal_length,
    top_of_triangulation,
    x_of_sequence,
)
from nakayama.verify import valid_cyclic_series


def test_seq_validation():
    SeqA((2, 1, 0))
    with pytest.raises(NotInDomain):
        SeqA((2, 2, 0))
    with pytest.raises(NotInDomain):
        SeqA((-1, 2, 2))


def test_profile_and_norm():
    a = SeqA((0, 4, 1, 0, 1, 0, 2, 0))
    assert a.profile == (-1, 2, 2, 1, 1, 0, 1, 0)
    assert a.norm == 2
    assert [a.delta(p) for p in range(1, 9)] == [0, 1, 1, 0, 0, 0, 0, 0]
    assert a.profile_at(0) == 0 == a.profile_at(8)


def test_profile_is_interval():
    for n in range(1, 7):
        for a in enumerate_Z(n):
            values = set(a.profile)
            assert values == set(range(min(values), max(values) + 1))


def test_top_of_triangulation_examples():
    n = 3
    all_proj = make_triangulation(n, [Arc(None, j) for j in range(1, 4)])
    assert top_of_triangulation(all_proj) == SeqA((1, 1, 1))
    x = make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)])
    assert top_of_triangulation(x) == SeqA((2, 1, 0))
    folded = make_triangulation(3, [Arc(None, 2), Arc(3, 2), Arc(2, 2)])
    assert top_of_triangulation(folded) == SeqA((0, 3, 0))


def test_x_of_sequence_examples():
    assert set(x_of_sequence(SeqA((2, 1, 0))).arcs) == {
        Arc(None, 1), Arc(None, 2), Arc(2, 1),
    }
    x = x_of_sequence(SeqA((0, 4, 1, 0, 1, 0, 2, 0)))
    assert {Arc(None, 2), Arc(None, 3), Arc(8, 2)} <= set(x.arcs)
    assert set(x_of_sequence(SeqA((1, 1, 1, 1))).arcs) == {
        Arc(None, j) for j in range(1, 5)
    }


def test_terminal_length_examples():
    ones = SeqA((1, 1, 1, 1))
    assert all(terminal_length(ones, j) == 0 for j in range(1, 5))
    assert terminal_length(SeqA((2, 1, 0)), 1) == 2
    assert terminal_length(SeqA((0, 3, 0)), 2) == 3


def test_round_trips():
    for n in range(1, 7):
        zs = enumerate_Z(n)
        assert len(zs) == math.comb(2 * n - 1, n - 1)
        xs = enumerate_triangulations(n)
        assert len(xs) == len(zs)
        for a in zs:
            assert top_of_triangulation(x_of_sequence(a)) == a
        for x in xs:
            assert x_of_sequence(top_of_triangulation(x)) == x


def test_projective_arc_iff_norm_attained():
    for n in range(1, 6):
        for x in enumerate_triangulations(n):
            a = top_of_triangulation(x)
            for j in range(1, n + 1):
                assert (Arc(None, j) in x.arcs) == (a.profile_at(j) == a.norm)


def test_terminal_length_matches_longest_arc():
    for n in range(1, 6):
        for a in enumerate_Z(n):
            x = x_of_sequence(a)
            for j in range(1, n + 1):
                lengths = [arc.length(n) for arc in x.arcs
                           if not arc.is_projective and arc.j == j]
                assert terminal_length(a, j) == (max(lengths) if lengths else 0)


def test_restricted_bijection():
    for n in range(1, 5):
        for ks in valid_cyclic_series(n, n + 2):
            bounds = dict(zip(range(1, n + 1), ks))
            xs = enumerate_restricted(n, bounds)
            zs = enumerate_Z_restricted(n, bounds)
            assert len(xs) == len(zs)
            assert {top_of_triangulation(x) for x in xs} == set(zs)
            for a in zs:
                assert in_restricted(top_of_triangulation(x_of_sequence(a)), bounds)


def test_catalan_subset():
    assert len(enumerate_Y(3)) == 5
    # norm-zero sequences match the triangulations containing the last
    # projective arc
    for n in range(1, 6):
        with_last = [
            x for x in enumerate_triangulations(n) if Arc(None, n) in x.arcs
        ]
        assert len(enumerate_Y(n)) == len(with_last)
        assert {top_of_triangulation(x) for x in with_last} == set(enumerate_Y(n))


def test_restricted_counts():
    assert len(enumerate_Z_restricted(4, {j: 4 for j in range(1, 5)})) == 35
    assert len(enumerate_Z(3)) == 10


def test_top_histogram_of_modules_is_bijective():
    # with every Loewy length >= n the multiset of summand tops determines
    # the tau-tilting module, and the histograms sweep the whole model
    from nakayama.algebra import make_cyclic
    from nakayama.tautilt import enumerate_tau_tilt

    for n in range(1, 6):
        for r in (n, n + 1):
            alg = make_cyclic(n, r)
            tops = []
            for pair in enumerate_tau_tilt(alg):
                counts = [0] * n
                for s in pair.module:
                    counts[s.top - 1] += 1
                tops.append(SeqA(counts))
            assert len(set(tops)) == len(tops)
            assert set(tops) == set(enumerate_Z(n))


def test_sequence_invariants_raise():
    seq = SeqA((2, 1, 0))
    seq.a = (2, 2, 0)  # past the constructor's check
    with pytest.raises(InvariantViolation, match="ends at 1"):
        seq.profile
    # the profile of (2,1,0) is (1,1,0): nothing lies 5 above a'_0
    with pytest.raises(InvariantViolation, match="no drop position"):
        _drop_position(SeqA((2, 1, 0)), 1, 5)
