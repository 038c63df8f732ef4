"""Cross-model verification bundles shared by the CLI and the test suite."""

from __future__ import annotations

import itertools

from . import geometry, poset, sequences, tautilt
from .algebra import cyclic_algebra, make_cyclic, make_linear, rejection_chain


def valid_cyclic_series(n, max_entry):
    """All Kupisch series of a connected cyclic quiver on n vertices with
    entries in [1, max_entry] (each entry at most its predecessor plus one,
    read around the cycle)."""
    for ks in itertools.product(range(1, max_entry + 1), repeat=n):
        if all(ks[j] <= ks[j - 1] + 1 for j in range(n)):
            yield ks


def valid_linear_series(n, max_entry):
    """All Kupisch series of the linear quiver on n vertices with entries
    at most max_entry."""
    for ks in itertools.product(range(1, max_entry + 1), repeat=n):
        if ks[0] == 1 and all(ks[j] <= ks[j - 1] + 1 for j in range(1, n)):
            yield ks


def triple_bijection_holds(alg):
    """Elementwise bijections between tau-tilting pairs, restricted
    triangulations, and restricted sequences, with identity round trips."""
    n = alg.n
    bounds = dict(alg.loewy)
    tt = tautilt.enumerate_tau_tilt(alg)
    xs = geometry.enumerate_restricted(n, bounds)
    zs = sequences.enumerate_Z_restricted(n, bounds)
    if not (len(tt) == len(xs) == len(zs)):
        return False
    images = set()
    for x in xs:
        pair = geometry.triangulation_to_tau_tilt(alg, x)
        if geometry.tau_tilt_to_triangulation(alg, pair) != x:
            return False
        images.add(pair)
    if images != set(tt):
        return False
    seq_images = set()
    for x in xs:
        seq = sequences.top_of_triangulation(x)
        if sequences.x_of_sequence(seq) != x:
            return False
        if not sequences.in_restricted(seq, bounds):
            return False
        seq_images.add(seq)
    return seq_images == set(zs)


def verify_bijections(n_max):
    """Triple-bijection bundle over every valid cyclic Kupisch series with
    entries at most n+2.  Yields (message, ok) per polygon size."""
    for n in range(1, n_max + 1):
        total, bad = 0, 0
        for ks in valid_cyclic_series(n, n + 2):
            total += 1
            if not triple_bijection_holds(cyclic_algebra(ks)):
                bad += 1
        ok = bad == 0
        yield (
            f"bijections n={n}: {total} cyclic Kupisch series, "
            f"{total - bad} in elementwise bijection",
            ok,
        )


def rejection_matches_direct(alg):
    return poset.hasse_by_rejection(alg) == poset.hasse_direct(alg)


def verify_rejection(n_max, r_max):
    """Rejection-vs-direct bundle: the label-exact equality over the whole
    cyclic and linear grid, plus the self-injective 5-vertex algebra and
    the published 10-step rejection chain when the grid covers them."""
    for n in range(1, n_max + 1):
        ok = all(
            rejection_matches_direct(make_cyclic(n, r)) for r in range(1, r_max + 1)
        )
        yield (f"rejection cyclic n={n}, r<={r_max}: label-exact equality", ok)
        ok = all(
            rejection_matches_direct(make_linear(list(ks)))
            for ks in valid_linear_series(n, r_max)
        )
        yield (f"rejection linear n={n}, entries<={r_max}: label-exact equality", ok)
    if n_max >= 4 and r_max >= 5:
        yield (
            "rejection cyclic n=5, r=5: label-exact equality",
            rejection_matches_direct(make_cyclic(5, 5)),
        )
        chain = rejection_chain(make_cyclic(3, 4), picks=[1, 2, 3, 1, 2, 1, 3, 2, 3])
        kupisch = [tuple(sorted(a.loewy.values())) for a, _ in chain[:10]]
        expected = [
            (4, 4, 4), (3, 4, 4), (3, 3, 4), (3, 3, 3), (2, 3, 3),
            (2, 2, 3), (1, 2, 3), (1, 2, 2), (1, 1, 2), (1, 1, 1),
        ]
        ok = kupisch == expected
        iso = poset.poset_isomorphic(
            poset.stt_poset(make_cyclic(3, 4)), poset.stt_poset(make_cyclic(3, 3))
        )
        yield ("rejection chain 3,4 reaches the semisimple stage as published", ok)
        yield ("stt posets of the 3-vertex algebras r=4 and r=3 isomorphic", iso is not None)
