import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nakayama import geometry, tautilt
from nakayama.algebra import make_cyclic, make_linear
from nakayama.errors import (
    ArcNotPresent,
    ArcTooLong,
    InvariantViolation,
    LoewyTooSmall,
    NotInDomain,
)
from nakayama.geometry import (
    Arc,
    SignedTriangulation,
    Triangulation,
    _polygon_triangles,
    all_arcs,
    arc_to_indec,
    compatible,
    enumerate_restricted,
    enumerate_triangulations,
    fan_arcs,
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
from nakayama.tautilt import SttPair, enumerate_stt, enumerate_tau_tilt

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


def test_compatible_examples():
    for j in range(1, 5):
        for k in range(1, 5):
            assert compatible(Arc(None, j), Arc(None, k), 4)
    assert not compatible(Arc(None, 3), Arc(2, 1), 3)
    # the loop at j tolerates only the projective arc at j
    for p in range(1, 5):
        expected = p == 2
        assert compatible(Arc(None, p), Arc(2, 2), 4) == expected


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
                assert not all(compatible(b, a, 4) for a in x.arcs)


def test_specific_triangulation():
    x = make_triangulation(3, [Arc(None, 1), Arc(None, 2), Arc(2, 1)])
    assert x in enumerate_triangulations(3)
    with pytest.raises(NotInDomain):
        make_triangulation(3, [Arc(None, 3), Arc(None, 2), Arc(2, 1)])


def test_fan_counting():
    for n in (3, 4, 5):
        for x in enumerate_triangulations(n):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    width = (j - i - 1) % n + 1
                    count = len(fan_arcs(x, i, j))
                    assert count <= width - 1
                    if width >= 2:
                        assert (count == width - 1) == (Arc(i, j) in x.arcs)


def test_arc_module_dictionary():
    assert arc_to_indec(L33, Arc(None, 1)) == Indec(1, 3)
    assert arc_to_indec(L44, Arc(2, 1)) == Indec(1, 2)
    assert comp_factors(L44, Indec(1, 2)) == [1, 4]
    for m in all_tau_rigid_indecs(L44):
        assert arc_to_indec(L44, indec_to_arc(L44, m)) == m
    with pytest.raises(ArcTooLong):
        arc_to_indec(make_cyclic(3, 2), Arc(2, 2))


def test_compatibility_matches_pair_rigidity():
    for n in range(1, 7):
        alg = make_cyclic(n, n)
        arcs = [a for a in all_arcs(n) if a.is_projective or a.length(n) <= n]
        for a, b in itertools.combinations(arcs, 2):
            lhs = compatible(a, b, n)
            rhs = pair_tau_rigid(alg, arc_to_indec(alg, a), arc_to_indec(alg, b))
            assert lhs == rhs, (a, b)


def test_triangulation_to_tau_tilt_rows():
    all_proj = make_triangulation(4, [Arc(None, j) for j in range(1, 5)])
    pair = triangulation_to_tau_tilt(L44, all_proj)
    assert set(pair.module) == {Indec(j, 4) for j in range(1, 5)}
    row = make_triangulation(4, [Arc(None, 1), Arc(None, 3), Arc(None, 4), Arc(1, 3)])
    pair = triangulation_to_tau_tilt(L44, row)
    assert sorted(s.top for s in pair.module) == [1, 3, 3, 4]


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
    universe = enumerate_stt(k)
    for sign in (+1, -1):
        sx = SignedTriangulation(x, sign)
        image = signed_to_stt(k, sx)
        flipped = {signed_to_stt(k, flip(sx, a)) for a in x.arcs}
        assert flipped == set(mutations(k, image, universe))


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


def test_flip_missing_arc():
    x = make_triangulation(3, [Arc(None, j) for j in (1, 2, 3)])
    with pytest.raises(ArcNotPresent):
        flip(SignedTriangulation(x, 1), Arc(2, 1))


def test_flips_match_mutations():
    for alg in (L33, L44):
        n = alg.n
        universe = enumerate_stt(alg)
        for x in enumerate_triangulations(n):
            for sign in (+1, -1):
                sx = SignedTriangulation(x, sign)
                image = signed_to_stt(alg, sx)
                flipped = {signed_to_stt(alg, flip(sx, a)) for a in x.arcs}
                assert flipped == set(mutations(alg, image, universe))


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


def test_flip_without_unique_replacement_raises(monkeypatch):
    # with crossing switched off every other arc completes the rest
    monkeypatch.setattr(geometry, "compatible", lambda a, b, n: True)
    with pytest.raises(InvariantViolation, match="replacements"):
        flip(SignedTriangulation(X3, +1), Arc(2, 1))


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


def test_triangle_guards_raise(monkeypatch):
    # no chord: the fan over 1 spans the whole boundary without the loop
    with pytest.raises(InvariantViolation, match="no chord"):
        triangles(Triangulation(3, (Arc(None, 1), Arc(2, 1))))
    # the crossing diagonals <1,3> and <2,4> of the square both split it
    with pytest.raises(InvariantViolation, match="split corners"):
        _polygon_triangles((Arc(1, 4), Arc(1, 3), Arc(2, 4)), 1, 3, 4)
    monkeypatch.setattr(geometry, "_polygon_triangles", lambda fan, base, width, n: [])
    with pytest.raises(InvariantViolation, match="2 triangles, not 3"):
        triangles(X3)


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
geometry.compatible = lambda a, b, n: True
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
