import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_oracles import (
    crossing_windows,
    enumerate_restricted_dfs,
    fan_arcs,
    flip_scan,
    make_triangulation_by_table,
    signed_difference,
    triangles_by_fans,
)

from nakayama import geometry, modcat, tautilt
from nakayama.algebra import (
    NakayamaAlgebra,
    cyclic_algebra,
    make_cyclic,
    make_linear,
    quotient_by_idempotent,
)
from nakayama.errors import (
    ArcNotPresent,
    ArcTooLong,
    InvalidModule,
    InvariantViolation,
    LoewyTooSmall,
    NotInDomain,
    NotTauRigid,
)
from nakayama.geometry import (
    Arc,
    SignedTriangulation,
    Triangulation,
    all_arcs,
    arc_to_indec,
    crossing,
    enumerate_restricted,
    enumerate_triangulations,
    flip,
    indec_to_arc,
    make_triangulation,
    signed_to_stt,
    stt_to_signed,
    tau_tilt_to_triangulation,
    triangles,
    triangulation_dot,
    triangulation_to_tau_tilt,
)
from nakayama.modcat import Indec, all_tau_rigid_indecs, comp_factors, pair_tau_rigid
from nakayama.poset import mutations
from nakayama.sequences import SeqA, top_of_triangulation, x_of_sequence
from nakayama.tautilt import SttPair, enumerate_stt, enumerate_tau_tilt
from nakayama.verify import valid_cyclic_series, valid_linear_series

L33 = make_cyclic(3, 3)
L44 = make_cyclic(4, 4)


def test_arc_lengths():
    assert Arc(1, 3).length(4) == 2
    assert Arc(3, 1).length(4) == 2
    assert Arc(2, 2).length(4) == 4
    assert Arc(2, 1).length(3) == 2


def test_arc_text_roundtrip():
    for a in all_arcs(4):
        assert Arc.parse(str(a)) == a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.sampled_from(all_arcs(n))))
def test_arc_parse_round_trip(a):
    assert Arc.parse(str(a)) == a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.sampled_from(all_arcs(n))))
def test_arc_json_round_trip(a):
    assert Arc.from_json(json.loads(json.dumps(a.to_json()))) == a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_triangulations(n))))
def test_triangulation_json_round_trip(x):
    assert Triangulation.from_json(json.loads(json.dumps(x.to_json()))) == x


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "proj", "j": 1.7},
        {"kind": "proj", "j": 1.0},
        {"kind": "proj", "j": True},
        {"kind": "proj", "j": "1"},
        {"kind": "inner", "i": True, "j": 3},
        {"kind": "inner", "i": 1, "j": "3"},
        {"kind": "inner", "i": 2.0, "j": 3},
        {"kind": "inner", "i": None, "j": 3},
        {"kind": "loop", "i": 1, "j": 3},
    ],
)
def test_arc_from_json_takes_integers_only(data):
    with pytest.raises(NotInDomain):
        Arc.from_json(data)


@pytest.mark.parametrize("n", [3.9, 3.0, True, "3"])
def test_triangulation_from_json_takes_an_integer_n(n):
    good = enumerate_triangulations(3)[0].to_json()
    with pytest.raises(NotInDomain):
        Triangulation.from_json(dict(good, n=n))
    with pytest.raises(NotInDomain):
        Triangulation.from_json(dict(good, arcs=[{"kind": "proj", "j": 1.0}] + good["arcs"][1:]))


def test_compatible_examples():
    for j in range(1, 5):
        for k in range(1, 5):
            assert not crossing(Arc(None, j), Arc(None, k), 4)
    assert crossing(Arc(None, 3), Arc(2, 1), 3)
    # the loop at j tolerates only the projective arc at j
    for p in range(1, 5):
        expected = p == 2
        assert (not crossing(Arc(None, p), Arc(2, 2), 4)) == expected


def test_crossing_matches_window_oracle():
    # interleaved lifts against the cyclic-window case analysis, on every
    # ordered pair of admissible arcs with n <= 12
    cases = 0
    for n in range(1, 13):
        arcs = all_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            cases += 1
            assert crossing(a, b, n) == crossing_windows(a, b, n), (n, a, b)
    assert cases == 60_710


def test_enumeration_counts():
    assert len(enumerate_triangulations(3)) == 10
    assert len(enumerate_triangulations(4)) == 35
    assert len(enumerate_restricted(3, {1: 1, 2: 2, 3: 3})) == 5


def test_triangulation_shape():
    for x in enumerate_triangulations(4):
        assert len(x.arcs) == 4
        assert any(a.is_projective for a in x.arcs)
        # maximality: no further arc is compatible with everything
        for b in all_arcs(4):
            if b not in x.arcs:
                assert any(crossing(b, a, 4) for a in x.arcs)


def test_specific_triangulation():
    x = make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)])
    assert x in enumerate_triangulations(3)
    with pytest.raises(NotInDomain):
        make_triangulation(3, [Arc(None, 3), Arc(None, 2), Arc(2, 1)])


def test_fan_counting():
    # the oracle's fans: at most width - 1 inner arcs inside [i, j], and
    # exactly that many when the chord <i, j> is present
    for n in (3, 4, 5):
        for x in enumerate_triangulations(n):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    width = (j - i - 1) % n + 1
                    count = len(fan_arcs(x, i, j))
                    assert count <= width - 1
                    if width >= 2:
                        assert (count == width - 1) == (Arc(i, j) in x.arcs)


def test_restricted_enumeration_matches_dfs_oracle():
    # the filtered per-n list equals a DFS over the arcs within the bounds,
    # in the same order; the oracle reads the bounds capped at n only
    for n in range(1, 7):
        expected = {}
        for ks in itertools.chain(valid_cyclic_series(n, n + 2), valid_linear_series(n, n)):
            bounds = dict(zip(range(1, n + 1), ks))
            capped = tuple(min(k, n) for k in ks)
            if capped not in expected:
                expected[capped] = enumerate_restricted_dfs(n, bounds)
            assert enumerate_restricted(n, bounds) == expected[capped], ks
    # unrestricted, where the list is every maximal clique of the arc graph
    for n in (7, 8):
        bounds = dict.fromkeys(range(1, n + 1), n)
        expected = enumerate_restricted_dfs(n, bounds)
        assert enumerate_restricted(n, bounds) == enumerate_triangulations(n) == expected


def test_restricted_enumeration_out_of_range_bounds():
    # bounds below 2 admit no inner arc at their terminal, bounds above n
    # admit every arc
    full = enumerate_triangulations(3)
    assert enumerate_restricted(3, {1: 9, 2: 3, 3: 4}) == full
    for low in (-2, 0, 1):
        bounds = {1: low, 2: 3, 3: 3}
        assert enumerate_restricted(3, bounds) == enumerate_restricted_dfs(3, bounds)
        assert all(a.is_projective or a.j != 1 for x in enumerate_restricted(3, bounds)
                   for a in x.arcs)


def test_crossing_arcs_are_named():
    # checked once per pair of the given arcs; the message names both arcs
    # in canonical order, whatever the input order, and an arc set that was
    # rejected is checked again on every call
    for _ in range(2):
        with pytest.raises(NotInDomain, match=r"^arcs <1,3> and <2,4> cross$"):
            make_triangulation(4, [Arc(2, 4), Arc(1, 3), Arc(None, 1)])
    with pytest.raises(NotInDomain, match=r"^arcs <\*,3> and <2,1> cross$"):
        make_triangulation(3, [Arc(2, 1), Arc(None, 3), Arc(None, 2)])
    with pytest.raises(NotInDomain, match="not an admissible arc"):
        make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(None, 4)])
    with pytest.raises(NotInDomain, match="expected 3 arcs, got 2"):
        make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(None, 2)])


def _checked(check, n, arcs):
    try:
        return check(n, arcs)
    except NotInDomain as e:
        return str(e)


def test_make_triangulation_matches_table_oracle():
    # seeded arc lists for every n <= 5: a triangulation with one arc
    # swapped for an admissible arc, a boundary edge or a point off the
    # polygon, or a draw from all of those, with repeats and shuffled; the
    # check on the arcs alone and the mask check on the n-gon's arc table
    # give the same triangulation or the same message
    rng = random.Random(30)
    cases = [(0, []), (-1, []), (0, [Arc(None, 1)]), (-1, [Arc(None, 1)])]
    for n in range(1, 6):
        xs = enumerate_triangulations(n)
        edges = [Arc(i, i % n + 1) for i in range(1, n + 1)]
        off = [Arc(None, 0), Arc(None, n + 1), Arc(0, 1), Arc(n + 1, 1), Arc(1, n + 1)]
        pool = all_arcs(n) + edges + off
        for _ in range(400):
            arcs = list(rng.choice(xs).arcs)
            if rng.random() < 0.8:
                arcs[rng.randrange(n)] = rng.choice(pool)
            if rng.random() < 0.2:
                del arcs[rng.randrange(n)]
            if rng.random() < 0.2:
                arcs = rng.choices(pool, k=rng.randint(0, n + 1))
            arcs += rng.choices(arcs, k=rng.randint(0, 2)) if arcs else []
            rng.shuffle(arcs)
            cases.append((n, arcs))
    seen = set()
    for n, arcs in cases:
        got = _checked(make_triangulation, n, arcs)
        assert got == _checked(make_triangulation_by_table, n, arcs), (n, arcs)
        words = ("admissible", "cross", "expected", "projective")
        seen.add(next((w for w in words if w in got), None) if isinstance(got, str) else "ok")
    assert seen == {"ok", "admissible", "cross", "expected", "projective"}


@pytest.mark.parametrize(
    "n, arcs, message",
    [
        (0, [Arc(None, 1)], "<*,1> is not an admissible arc for n = 0"),
        (-1, [], "expected -1 arcs, got 0"),
        (3, [Arc("a", 1)], "<a,1> is not an admissible arc for n = 3"),
        (3, [Arc(None, 1), Arc(True, 1)], "<True,1> is not an admissible arc for n = 3"),
        (3, [(None, 1)], "(None, 1) is not an admissible arc for n = 3"),
        (3.0, [Arc(None, 1), Arc(None, 2), Arc(None, 3)], "triangulation needs an integer n, not 3.0"),
        (True, [Arc(None, 1)], "triangulation needs an integer n, not True"),
        ("3", [Arc(None, 1), Arc(None, 2), Arc(None, 3)], "triangulation needs an integer n, not '3'"),
        (None, [Arc(None, 1)], "triangulation needs an integer n, not None"),
    ],
)
def test_make_triangulation_refuses_what_is_not_an_arc(n, arcs, message):
    # a bool point and a plain tuple are no arcs, though the arc table
    # found them by hash equality
    with pytest.raises(NotInDomain, match=f"^{re.escape(message)}$"):
        make_triangulation(n, arcs)


def test_a_bool_point_is_refused_whether_or_not_its_int_twin_was_accepted():
    # the cache compares keys by equality, and True == 1
    bad = [Arc(None, True), Arc(None, 2), Arc(2, 1)]
    geometry._triangulation_on.cache_clear()
    for _ in range(2):
        with pytest.raises(NotInDomain, match=r"^<\*,True> is not an admissible arc for n = 3$"):
            make_triangulation(3, bad)
        assert make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)]) == X3


def test_an_unhashable_point_is_refused_whether_or_not_an_arc_set_was_accepted():
    geometry._triangulation_on.cache_clear()
    for _ in range(2):
        with pytest.raises(NotInDomain, match=r"^<\[1\],2> is not an admissible arc for n = 3$"):
            make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc([1], 2)])
        assert make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)]) == X3


def test_arc_to_indec_refuses_a_bool_point_whether_or_not_its_int_twin_was_looked_up():
    # the memo on the algebra compares arcs by equality, and True == 1
    for twin_first in (False, True):
        alg = make_cyclic(3, 3)
        if twin_first:
            assert arc_to_indec(alg, Arc(None, 1)) == Indec(1, 3)
        with pytest.raises(NotInDomain, match="outside the points 1..3"):
            arc_to_indec(alg, Arc(None, True))
        assert arc_to_indec(alg, Arc(None, 1)) == Indec(1, 3)


def test_indec_to_arc_refuses_a_bool_top_whether_or_not_its_int_twin_was_looked_up():
    # the memo on the algebra finds modules by equality, and True == 1
    for twin_first in (False, True):
        alg = make_cyclic(3, 3)
        if twin_first:
            assert str(indec_to_arc(alg, Indec(1, 3))) == "<*,1>"
            assert str(indec_to_arc(alg, Indec(True, 3))) == "<*,1>"  # the memo answers
        else:
            with pytest.raises(InvalidModule, match="not an Indec with integer top and length"):
                indec_to_arc(alg, Indec(True, 3))
        assert str(indec_to_arc(alg, Indec(1, 3))) == "<*,1>"


def test_indec_to_arc_refuses_an_unhashable_top():
    alg = make_cyclic(3, 3)
    for _ in range(2):
        with pytest.raises(InvalidModule, match="not an Indec with integer top and length"):
            indec_to_arc(alg, Indec([1], 3))
    assert str(indec_to_arc(alg, Indec(1, 3))) == "<*,1>"


def test_arc_sets_are_checked_without_the_arc_table(monkeypatch):
    # the 60-gon's table would hold 3600 arcs after about 6.5 million
    # crossing tests; none of these paths may build it
    monkeypatch.setattr(geometry, "_arc_table", lambda n: pytest.fail(f"arc table of n = {n}"))
    monkeypatch.setattr(geometry, "_triangulation_on", geometry._triangulation_on.__wrapped__)
    n = 60
    for a in ((1,) * n, (n,) + (0,) * (n - 1)):
        seq = SeqA(a)
        x = x_of_sequence(seq)
        assert len(x.arcs) == n and top_of_triangulation(x) == seq
        assert make_triangulation(n, reversed(x.arcs)) == x
        alg = make_cyclic(n, n)
        pair = triangulation_to_tau_tilt(alg, x)
        assert len(pair.module) == n and not pair.killed
        assert tau_tilt_to_triangulation(alg, pair) == x


def test_arc_dictionary_needs_arrows_along_the_cycle_order():
    # labelled 1..n, but the arrows run j -> j+1, against the cycle order
    backwards = NakayamaAlgebra((1, 2, 3), {1: 2, 2: 3, 3: 1}, {1: 2, 2: 2, 3: 2})
    for _ in range(2):
        with pytest.raises(NotInDomain, match="cycle order"):
            arc_to_indec(backwards, Arc(None, 1))
    assert "_arc_dictionary" not in backwards.__dict__
    # a subset of the cycle's edges qualifies: the linear quiver
    assert arc_to_indec(make_linear([1, 2, 3]), Arc(None, 3)) == Indec(3, 3)


def test_standard_label_memo_records_only_success():
    # vertices 1 and 3 are not labelled 1..n: every call raises, and the
    # algebra keeps no memo
    odd = quotient_by_idempotent(make_cyclic(3, 3), [2])
    assert odd.vertices == (1, 3)
    for _ in range(2):
        with pytest.raises(NotInDomain, match="labelled 1..n"):
            arc_to_indec(odd, Arc(None, 1))
        with pytest.raises(NotInDomain, match="labelled 1..n"):
            indec_to_arc(odd, Indec(1, 1))
    assert "_arc_dictionary" not in odd.__dict__
    alg = make_cyclic(3, 3)
    assert arc_to_indec(alg, Arc(None, 1)) == Indec(1, 3)
    assert "_arc_dictionary" in alg.__dict__
    # a failed lookup is not remembered either
    short = make_cyclic(3, 2)
    for _ in range(2):
        with pytest.raises(ArcTooLong):
            arc_to_indec(short, Arc(2, 2))


_PAIRS = {n: enumerate_tau_tilt(make_cyclic(n, n)) for n in range(1, 7)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.sampled_from(_PAIRS[n])))
def test_module_arcs_seq_round_trip(pair):
    # module -> arcs -> module and module -> arcs -> seq -> arcs -> module,
    # each example on a fresh algebra, so the arc dictionary starts cold
    n = len(pair.module)
    alg = make_cyclic(n, n)
    x = tau_tilt_to_triangulation(alg, pair)
    assert triangulation_to_tau_tilt(alg, x) == pair
    assert tau_tilt_to_triangulation(alg, pair) == x
    assert triangulation_to_tau_tilt(alg, x_of_sequence(top_of_triangulation(x))) == pair


def test_arc_module_dictionary():
    assert arc_to_indec(L33, Arc(None, 1)) == Indec(1, 3)
    assert arc_to_indec(L44, Arc(2, 1)) == Indec(1, 2)
    assert comp_factors(L44, Indec(1, 2)) == (1, 4)
    for m in all_tau_rigid_indecs(L44):
        assert arc_to_indec(L44, indec_to_arc(L44, m)) == m
    with pytest.raises(ArcTooLong):
        arc_to_indec(make_cyclic(3, 2), Arc(2, 2))


def test_compatibility_matches_pair_rigidity():
    for n in range(1, 7):
        alg = make_cyclic(n, n)
        arcs = [a for a in all_arcs(n) if a.is_projective or a.length(n) <= n]
        for a, b in itertools.combinations(arcs, 2):
            lhs = not crossing(a, b, n)
            rhs = pair_tau_rigid(alg, arc_to_indec(alg, a), arc_to_indec(alg, b))
            assert lhs == rhs, (a, b)


def test_triangulation_to_tau_tilt_rows():
    all_proj = make_triangulation(4, [Arc(None, j) for j in range(1, 5)])
    pair = triangulation_to_tau_tilt(L44, all_proj)
    assert set(pair.module) == {Indec(j, 4) for j in range(1, 5)}
    row = make_triangulation(4, [Arc(None, 1), Arc(None, 3), Arc(None, 4), Arc(1, 3)])
    pair = triangulation_to_tau_tilt(L44, row)
    assert sorted(s.top for s in pair.module) == [1, 3, 3, 4]


def test_triangulation_to_tau_tilt_checks_its_image(monkeypatch):
    monkeypatch.setattr(tautilt, "is_support_tau_tilting", lambda alg, module: None)
    with pytest.raises(NotInDomain, match="image is not tau-tilting"):
        triangulation_to_tau_tilt(make_cyclic(4, 4), enumerate_restricted(4, L44.loewy)[0])


def test_triangulation_bijection_counts():
    xs = enumerate_restricted(4, {j: 4 for j in range(1, 5)})
    assert len(xs) == 35 == len(enumerate_tau_tilt(L44))
    images = {triangulation_to_tau_tilt(L44, x) for x in xs}
    assert images == set(enumerate_tau_tilt(L44))
    for x in xs:
        assert tau_tilt_to_triangulation(L44, triangulation_to_tau_tilt(L44, x)) == x


def test_signed_examples():
    n2 = make_cyclic(2, 2)
    both = make_triangulation(2, [Arc(None, 1), Arc(None, 2)])
    pair = signed_to_stt(n2, SignedTriangulation(both, +1))
    assert set(pair.module) == {Indec(1, 2), Indec(2, 2)}
    pair = signed_to_stt(n2, SignedTriangulation(both, -1))
    assert pair.module == () and pair.killed == (1, 2)
    folded = make_triangulation(2, [Arc(None, 2), Arc(2, 2)])
    pair = signed_to_stt(n2, SignedTriangulation(folded, -1))
    assert pair.module == (Indec(2, 1),) and pair.killed == (1,)


def test_signed_bijection():
    pairs = set()
    for x in enumerate_triangulations(3):
        for sign in (+1, -1):
            sx = SignedTriangulation(x, sign)
            pair = signed_to_stt(L33, sx)
            assert stt_to_signed(L33, pair) == sx
            pairs.add(pair)
    assert pairs == set(enumerate_stt(L33))
    assert len(pairs) == 20


def test_signed_requires_large_loewy():
    with pytest.raises(LoewyTooSmall):
        signed_to_stt(
            make_cyclic(3, 2),
            SignedTriangulation(
                make_triangulation(3, [Arc(None, j) for j in (1, 2, 3)]), +1
            ),
        )
    small = make_cyclic(3, 2)
    with pytest.raises(LoewyTooSmall):
        stt_to_signed(small, enumerate_stt(small)[0])


def test_one_vertex_algebras_keep_their_signed_images():
    # make_linear([1]) is make_cyclic(1, 1) without the dead loop; both keep
    # the signed images they had before the - sheet read shift_killed
    x = make_triangulation(1, [Arc(None, 1)])
    for alg in (make_linear([1]), make_cyclic(1, 1)):
        images = {sign: signed_to_stt(alg, SignedTriangulation(x, sign)) for sign in (+1, -1)}
        assert images == {+1: SttPair((Indec(1, 1),), ()), -1: SttPair((), (1,))}
        for sign, pair in images.items():
            assert stt_to_signed(alg, pair) == SignedTriangulation(x, sign)
        assert signed_difference(alg) is None


def test_signed_model_on_the_cyclic_grid():
    # each cyclic series with n <= 4 and every Loewy length in [n, n+3]:
    # a bijection onto enumerate_stt, inverted by stt_to_signed, whose
    # flips are mutations
    grid = [ks for n in range(1, 5) for ks in valid_cyclic_series(n, n + 3) if min(ks) >= n]
    assert len(grid) == 124
    for ks in grid:
        assert signed_difference(cyclic_algebra(ks)) is None, ks


def test_flip_pop():
    folded = make_triangulation(2, [Arc(None, 2), Arc(2, 2)])
    sx = SignedTriangulation(folded, +1)
    popped = flip(sx, Arc(None, 2))
    assert popped.triangulation == folded and popped.sign == -1
    assert flip(popped, Arc(None, 2)) == sx


def test_flip_on_punctured_monogon_pops():
    x = make_triangulation(1, [Arc(None, 1)])
    sx = SignedTriangulation(x, +1)
    assert flip(sx, Arc(None, 1)) == SignedTriangulation(x, -1)
    k = make_cyclic(1, 1)
    for sign in (+1, -1):
        sx = SignedTriangulation(x, sign)
        image = signed_to_stt(k, sx)
        flipped = {signed_to_stt(k, flip(sx, a)) for a in x.arcs}
        assert flipped == set(mutations(k, image))


def test_flip_is_involutive():
    for n in (1, 2, 3, 4):
        for x in enumerate_triangulations(n):
            sx = SignedTriangulation(x, +1)
            for a in x.arcs:
                f = flip(sx, a)
                if f.triangulation == x:
                    assert f.sign == -sx.sign
                    assert flip(f, a) == sx
                else:
                    (b,) = set(f.triangulation.arcs) - set(x.arcs)
                    assert flip(f, b) == sx


def test_flip_matches_scan_oracle():
    # every arc of every signed triangulation with n <= 6
    for n in range(1, 7):
        for x in enumerate_triangulations(n):
            for sign in (+1, -1):
                sx = SignedTriangulation(x, sign)
                for a in x.arcs:
                    assert flip(sx, a) == flip_scan(sx, a), (sx, a)


def test_flip_missing_arc():
    x = make_triangulation(3, [Arc(None, j) for j in (1, 2, 3)])
    with pytest.raises(ArcNotPresent):
        flip(SignedTriangulation(x, 1), Arc(2, 1))


def test_flips_match_mutations():
    for alg in (L33, L44):
        n = alg.n
        for x in enumerate_triangulations(n):
            for sign in (+1, -1):
                sx = SignedTriangulation(x, sign)
                image = signed_to_stt(alg, sx)
                flipped = {signed_to_stt(alg, flip(sx, a)) for a in x.arcs}
                assert flipped == set(mutations(alg, image))


def test_flip_graph_connected_and_regular():
    for n in (1, 2, 3, 4):
        xs = enumerate_triangulations(n)
        nodes = [(x, s) for x in xs for s in (+1, -1)]
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            x, s = frontier.pop()
            sx = SignedTriangulation(x, s)
            nbrs = [flip(sx, a) for a in x.arcs]
            assert len(set(nbrs)) == n
            for f in nbrs:
                key = (f.triangulation, f.sign)
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
        assert len(seen) == 2 * len(xs)


def test_triangles_match_fan_oracle():
    xs = [x for n in range(1, 8) for x in enumerate_triangulations(n)]
    assert len(xs) == 2353
    for x in xs:
        assert triangles(x) == triangles_by_fans(x), x


def test_triangles_count_and_dot():
    for n in (1, 2, 3, 4, 5):
        for x in enumerate_triangulations(n):
            tris = triangles(x)
            assert len(tris) == n
    dot = triangulation_dot(make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)]))
    assert dot.startswith("graph") and "--" in dot


def test_dictionary_on_linear_algebras():
    # the restricted triangulations of the hereditary linear algebra
    # biject onto its tilting modules
    a3 = make_linear([1, 2, 3])
    xs = enumerate_restricted(3, {1: 1, 2: 2, 3: 3})
    images = {triangulation_to_tau_tilt(a3, x) for x in xs}
    assert len(images) == len(xs) == 5
    assert images == set(enumerate_tau_tilt(a3))


# -- invariants that must hold under python -O ---------------------------------

X3 = make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)])


def test_projective_arc_has_no_length():
    with pytest.raises(NotInDomain, match="no length"):
        Arc(None, 2).length(4)


def _uncrossed_table(table):
    # the arc table with crossing switched off
    def uncrossed(n):
        arcs, index, _ = table(n)
        return arcs, index, ((1 << len(arcs)) - 1,) * len(arcs)
    return uncrossed


def test_flip_without_unique_replacement_raises(monkeypatch):
    # with crossing switched off every other arc completes the rest
    monkeypatch.setattr(geometry, "_arc_table", _uncrossed_table(geometry._arc_table))
    with pytest.raises(InvariantViolation, match="replacements"):
        flip(SignedTriangulation(X3, +1), Arc(2, 1))


def test_arc_clique_of_the_wrong_size_raises(monkeypatch):
    # with crossing switched off all nine arcs of the triangle form one clique
    monkeypatch.setattr(geometry, "_arc_table", _uncrossed_table(geometry._arc_table))
    with pytest.raises(InvariantViolation, match="has 9 members, not 3"):
        geometry._triangulations.__wrapped__(3)


def test_clique_without_a_projective_arc_raises(monkeypatch):
    monkeypatch.setattr(modcat, "maximal_cliques", lambda *args: [(Arc(3, 3), Arc(1, 3), Arc(1, 1))])
    with pytest.raises(InvariantViolation, match=r"^clique <1,1> <1,3> <3,3> has no projective arc$"):
        geometry._triangulations.__wrapped__(3)


def test_signed_dictionary_guards_raise(monkeypatch):
    sx = SignedTriangulation(X3, -1)
    with monkeypatch.context() as mp:
        mp.setattr(tautilt, "is_support_tau_tilting", lambda alg, module: None)
        with pytest.raises(InvariantViolation, match="not support tau-tilting"):
            signed_to_stt(L33, sx)
    with monkeypatch.context() as mp:
        mp.setattr(tautilt, "is_support_tau_tilting",
                   lambda alg, module: SttPair(tuple(module), ()))
        with pytest.raises(InvariantViolation, match="expected"):
            signed_to_stt(L33, sx)


def test_triangle_guards_raise():
    # hand-built literals, which make_triangulation would refuse
    # no chord: the fan over 1 spans the whole boundary without the loop
    with pytest.raises(InvariantViolation, match="no chord"):
        triangles(Triangulation(3, (Arc(None, 1), Arc(2, 1))))
    # the loop at 1 over the crossing diagonals <1,3> and <2,4>: no corner
    # splits it
    x = Triangulation(4, (Arc(None, 1), Arc(1, 1), Arc(1, 3), Arc(2, 4)))
    with pytest.raises(InvariantViolation, match=re.escape("split corners []")):
        triangles(x)
    # the same diagonals in the square under the chord <1,4>: two corners
    # split it
    x = Triangulation(4, (Arc(None, 1), Arc(None, 4), Arc(1, 4), Arc(1, 3), Arc(2, 4)))
    with pytest.raises(InvariantViolation, match=re.escape("split corners [2, 3]")):
        triangles(x)
    # a projective arc listed twice gives two triangles at the puncture of
    # the monogon
    with pytest.raises(InvariantViolation, match="2 triangles, not 1"):
        triangles(Triangulation(1, (Arc(None, 1), Arc(None, 1))))


_OPTIMIZED_CHECK = """
import sys
from nakayama import algebra, geometry
from nakayama.algebra import make_linear
from nakayama.errors import InvariantViolation, NotInDomain
from nakayama.geometry import Arc, SignedTriangulation, flip, make_triangulation
from nakayama.sequences import SeqA
if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    Arc(None, 2).length(4)
    sys.exit("a projective arc got a length")
except NotInDomain:
    pass
seq = SeqA((2, 1, 0))
seq.a = (2, 2, 0)
try:
    seq.profile
    sys.exit("a profile that does not close up was accepted")
except InvariantViolation:
    pass
algebra.quotient_by_idempotent = lambda alg, killed: alg
try:
    algebra.reject(make_linear([1]), 1)
    sys.exit("a rejection that kept the dimension was accepted")
except InvariantViolation:
    pass
x = make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)])
arcs, index, _ = geometry._arc_table(3)
geometry._arc_table = lambda n: (arcs, index, ((1 << len(arcs)) - 1,) * len(arcs))
try:
    flip(SignedTriangulation(x, +1), Arc(2, 1))
except InvariantViolation:
    sys.exit(0)
sys.exit("a flip with several replacements went through")
"""


def test_geometry_and_sequence_invariants_hold_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )


def test_arcs_off_the_algebra_raise_not_in_domain():
    # the first triangulation of the square has the projective arc <*,4>
    with pytest.raises(NotInDomain, match="4-gon, not the 3-gon"):
        triangulation_to_tau_tilt(make_cyclic(3, 3), enumerate_triangulations(4)[0])
    # boundary edges <1,2> and <3,1> are not modules either, and no failed
    # lookup is memoized
    alg = make_cyclic(3, 3)
    for arc in (Arc(None, 7), Arc(7, 2), Arc(2, 0), Arc(1, 2), Arc(3, 1)):
        with pytest.raises(NotInDomain, match="outside the points 1..3"):
            arc_to_indec(alg, arc)
    assert geometry._arc_dictionary(alg) == ({}, {})


def test_dictionary_guards_raise():
    with pytest.raises(NotTauRigid, match="not tau-rigid"):
        indec_to_arc(make_cyclic(3, 4), Indec(1, 3))
    with pytest.raises(NotInDomain, match="must be tau-tilting"):
        tau_tilt_to_triangulation(L33, SttPair((Indec(2, 1),), (1,)))
