"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every tolerance is exact integer/structural equality; the suite doubles as
the scripted check that the full pipeline reproduces the reference counts,
bijections, and quiver constructions at desk scale.
"""

import random
import time

from poset_oracles import degree_sequence, double_labelled, double_poset, same_labelled_graph

from nakayama import counting
from nakayama.algebra import make_cyclic, make_linear
from nakayama.geometry import SignedTriangulation, enumerate_triangulations, flip, signed_to_stt
from nakayama.poset import Poset, hasse_direct, mutations
from nakayama.tautilt import (
    drop_to_proper_part,
    enumerate_ps_tau_tilt,
    enumerate_stt,
    enumerate_tau_tilt,
    lift_proper_to_tau_tilting,
    pr_part,
)
from nakayama.verify import (
    cyclic_algebra,
    triple_bijection_holds,
    valid_cyclic_series,
    verify_rejection,
)


def report(name, ok, elapsed):
    status = "pass" if ok else "FAIL"
    print(f"acceptance {name}: {status} ({elapsed:.1f}s)")
    assert ok


def test_criterion_1_tables():
    start = time.time()
    reports = counting.verify_tables()
    ok = len(reports) == 50 and all(ok for _, ok in reports)
    elapsed = time.time() - start
    report("1 table verification", ok and elapsed < 10, elapsed)


def test_criterion_2_closed_forms():
    start = time.time()
    ok = True
    expected = [2, 6, 20, 70, 252, 924]
    for n in range(1, 7):
        ok &= len(enumerate_stt(make_cyclic(n, n))) == expected[n - 1]
    for n in range(1, 8):
        alg = make_linear(list(range(1, n + 1)))
        ok &= len(enumerate_tau_tilt(alg)) == counting.catalan(n)
    elapsed = time.time() - start
    report("2 closed forms", ok and elapsed < 60, elapsed)


def test_criterion_3_triple_bijection():
    start = time.time()
    ok = True
    for n in range(1, 6):
        for ks in valid_cyclic_series(n, n + 2):
            ok &= triple_bijection_holds(cyclic_algebra(ks))
    elapsed = time.time() - start
    report("3 triple bijection", ok and elapsed < 30, elapsed)


def test_criterion_4_lift_drop():
    start = time.time()
    ok = True
    algebras = []
    for n in range(1, 6):
        algebras.append(make_cyclic(n, n))
        algebras.append(make_cyclic(n, n + 1))
        mixed = tuple(n + (j % 2) for j in range(n))
        if all(mixed[j] <= mixed[j - 1] + 1 for j in range(n)):
            algebras.append(cyclic_algebra(mixed))
    for alg in algebras:
        tt = enumerate_tau_tilt(alg)
        ps = enumerate_ps_tau_tilt(alg)
        ok &= len(enumerate_stt(alg)) == 2 * len(tt) == len(tt) + len(ps)
        ok &= all(not pr_part(alg, p.module) for p in ps)
        ok &= all(
            drop_to_proper_part(alg, lift_proper_to_tau_tilting(alg, p)) == p
            for p in ps
        )
        ok &= all(
            lift_proper_to_tau_tilting(alg, drop_to_proper_part(alg, m)) == m
            for m in tt
        )
    elapsed = time.time() - start
    report("4 lift/drop identities", ok, elapsed)


def test_criterion_5_rejection_equivalence():
    start = time.time()
    ok = all(flag for _, flag in verify_rejection(4, 5))
    elapsed = time.time() - start
    report("5 rejection equivalence", ok and elapsed < 60, elapsed)


def test_criterion_6_structural_invariants():
    start = time.time()
    ok = True

    # Hasse regularity and two completions of every almost complete pair
    for alg in (make_cyclic(3, 3), make_cyclic(4, 4), make_linear([1, 2, 3])):
        h = hasse_direct(alg)
        ok &= set(degree_sequence(h)) == {alg.n}
        for p in h.vertices:
            ok &= len(mutations(alg, p)) == alg.n  # unique completions

    # every tau-tilting module keeps a projective summand
    for n in range(1, 5):
        for r in range(1, 6):
            alg = make_cyclic(n, r)
            ok &= all(pr_part(alg, m.module) for m in enumerate_tau_tilt(alg))

    # flips match mutations through the signed dictionary
    for alg in (make_cyclic(3, 3), make_cyclic(4, 4)):
        for x in enumerate_triangulations(alg.n):
            for sign in (+1, -1):
                sx = SignedTriangulation(x, sign)
                image = signed_to_stt(alg, sx)
                flipped = {signed_to_stt(alg, flip(sx, a)) for a in x.arcs}
                ok &= flipped == set(mutations(alg, image))

    # quiver doubling agrees with poset doubling on random posets
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(1, 12)
        down = [1 << i for i in range(k)]
        for j in range(k):
            for i in range(j):
                if rng.random() < 0.3:
                    down[j] |= down[i]
        p = Poset(list(range(k)), down)
        chosen = {i for i in range(k) if rng.random() < 0.35}
        changed = True
        while changed:  # close under betweenness so the doubling is defined
            changed = False
            for x in range(k):
                if x not in chosen and any(
                    p.down[n] >> x & 1 for n in chosen
                ) and any(p.down[x] >> n & 1 for n in chosen):
                    chosen.add(x)
                    changed = True
        ok &= same_labelled_graph(
            double_poset(p, chosen).hasse(), double_labelled(p.hasse(), chosen)
        )

    elapsed = time.time() - start
    report("6 structural invariants", ok and elapsed < 60, elapsed)
