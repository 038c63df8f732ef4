import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_oracles import arcs_by_scan, in_restricted

from nakayama import sequences
from nakayama.errors import InvariantViolation, NotInDomain
from nakayama.geometry import Arc, enumerate_restricted, enumerate_triangulations, make_triangulation
from nakayama.sequences import (
    SeqA,
    enumerate_Z,
    enumerate_Z_restricted,
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
    assert repr(SeqA((2, 1, 0))) == "SeqA(2, 1, 0)"


@pytest.mark.parametrize("a", [[2.5, 0], [2.0, 0], ["1", "1"], [True, True], (), "11"])
def test_seq_rejects_entries_that_are_not_integers_and_the_empty_tuple(a):
    # entries are never converted: a float, a string or a bool is not an entry
    with pytest.raises(NotInDomain):
        SeqA(a)


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
    assert SeqA((1, 1, 1, 1)).terminal_lengths == (0, 0, 0, 0)
    assert SeqA((2, 1, 0)).terminal_lengths == (2, 0, 0)
    assert SeqA((0, 3, 0)).terminal_lengths == (0, 3, 0)


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
                assert a.terminal_lengths[j - 1] == (max(lengths) if lengths else 0)


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


def test_restricted_models_agree_on_bounds_below_one():
    # a terminal without an inner arc passes any bound, 0 and negative ones
    # included, in both models alike
    for n in range(1, 6):
        for ks in itertools.product((-2, 0, 1, 2, n), repeat=n):
            bounds = dict(zip(range(1, n + 1), ks))
            tops = [top_of_triangulation(x) for x in enumerate_restricted(n, bounds)]
            zs = enumerate_Z_restricted(n, bounds)
            assert len(set(tops)) == len(tops) == len(zs) and set(tops) == set(zs), ks
            assert [a for a in enumerate_Z(n) if in_restricted(a, bounds)] == zs, ks
    assert len(enumerate_Z_restricted(2, {1: -1, 2: 2})) == 2
    assert len(enumerate_Z_restricted(2, {1: -2, 2: -2})) == 1


def test_catalan_subset():
    assert len([a for a in enumerate_Z(3) if a.norm == 0]) == 5
    # norm-zero sequences match the triangulations containing the last
    # projective arc
    for n in range(1, 6):
        ys = [a for a in enumerate_Z(n) if a.norm == 0]
        with_last = [
            x for x in enumerate_triangulations(n) if Arc(None, n) in x.arcs
        ]
        assert len(ys) == len(with_last)
        assert {top_of_triangulation(x) for x in with_last} == set(ys)


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


@pytest.mark.parametrize(
    "a, profile, l, s",
    [
        # flat: nothing lies 1 above a'_0, and the walk from l = 1 finds no s = 1
        ((2, 1, 0), (0, 0, 0), 1, 1),
        # the walk from l = 2 finds s = 1 at k = 0 and then no s = 2
        ((0, 3, 0), (-1, 0, 0), 2, 2),
    ],
)
def test_missing_drop_position_raises(a, profile, l, s):
    seq = SeqA(a)
    seq.__dict__["profile"] = profile  # past the profile's own check
    with pytest.raises(InvariantViolation, match=rf"^no drop position for l={l}, s={s} in "):
        seq.arcs


def test_drop_lookup_matches_scan_oracle():
    # the backward walk against arcs anchored by a linear scan, on every
    # sequence with n <= 8, fresh and shared
    cases = 0
    for n in range(1, 9):
        for seq in enumerate_Z(n):
            cases += 1
            expected = arcs_by_scan(seq)
            assert seq.arcs == expected == SeqA(seq.a).arcs, seq
    assert cases == 8788


def test_top_of_triangulation_returns_shared_sequences():
    x = x_of_sequence(SeqA((2, 1, 0)))
    shared = {seq.a: seq for seq in enumerate_Z(3)}
    assert top_of_triangulation(x) is shared[(2, 1, 0)]
    # sizes whose sequences were never built get a fresh instance
    assert 11 not in sequences._SEQUENCES
    ones = x_of_sequence(SeqA((1,) * 11))
    assert top_of_triangulation(ones) == SeqA((1,) * 11)
    assert 11 not in sequences._SEQUENCES


@st.composite
def compositions(draw):
    """An n-tuple of nonnegative integers summing to n, n <= 8: n stars
    and n - 1 bars, with the bars at a drawn set of places."""
    n = draw(st.integers(1, 8))
    bars = sorted(draw(st.sets(st.integers(0, 2 * n - 2), min_size=n - 1, max_size=n - 1)))
    parts, prev = [], -1
    for b in bars + [2 * n - 1]:
        parts.append(b - prev - 1)
        prev = b
    return tuple(parts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(compositions())
def test_sequence_round_trip_fresh_and_shared(c):
    fresh = SeqA(c)
    shared = sequences._all_sequences(len(c))[c]
    assert shared is not fresh
    x = x_of_sequence(fresh)
    assert x == x_of_sequence(shared)
    assert top_of_triangulation(x) is shared
    assert top_of_triangulation(x) == fresh
    assert fresh.terminal_lengths == shared.terminal_lengths
