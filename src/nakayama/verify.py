"""Cross-model verification bundles shared by the CLI and the test suite."""

from __future__ import annotations

from . import counting, geometry, poset, sequences, tautilt
from .algebra import cyclic_algebra, make_cyclic, make_linear, rejection_chain
from .errors import InvalidPoset


def _series(n, max_entry, first):
    """The tuples of n entries in [1, max_entry], the first entry at most
    first and each later one at most its predecessor plus one, in
    lexicographic order: each prefix grows only by the entries it allows."""
    level = [()]
    for _ in range(n):
        level = [ks + (k,) for ks in level
                 for k in range(1, min(max_entry, ks[-1] + 1 if ks else first) + 1)]
    return level


def valid_cyclic_series(n, max_entry):
    """All Kupisch series of a connected cyclic quiver on n vertices with
    entries in [1, max_entry] (each entry at most its predecessor plus one,
    read around the cycle), in lexicographic order."""
    return [ks for ks in _series(n, max_entry, max_entry) if not ks or ks[0] <= ks[-1] + 1]


def valid_linear_series(n, max_entry):
    """All Kupisch series of the linear quiver on n vertices with entries
    at most max_entry, in lexicographic order."""
    return _series(n, max_entry, 1)


def triple_bijection_holds(alg):
    """Elementwise bijections between tau-tilting pairs, restricted
    triangulations, and restricted sequences, with identity round trips."""
    return bijection_difference(alg) is None


def bijection_difference(alg):
    """As text, the first restricted triangulation whose round trip through
    its module or its sequence breaks, else the first whose module or
    sequence is not enumerated, else the first module or sequence that no
    triangulation reaches, else the three counts if they differ; None if
    there is none."""
    n, bounds = alg.n, dict(alg.loewy)
    tt = tautilt.enumerate_tau_tilt(alg)
    xs = geometry.enumerate_restricted(n, bounds)
    zs = sequences.enumerate_Z_restricted(n, bounds)
    modules, seqs = {}, {}  # each image -> the first triangulation that gives it

    def name(image):
        if isinstance(image, tautilt.SttPair):
            return f'module "{poset.pair_label(alg, image)}"'
        return f"sequence {image}"

    for x in xs:
        pair = geometry.triangulation_to_tau_tilt(alg, x)
        seq = sequences.top_of_triangulation(x)
        if geometry.tau_tilt_to_triangulation(alg, pair) != x:
            return f"triangulation {x}, whose round trip through its {name(pair)} breaks"
        if sequences.x_of_sequence(seq) != x:
            return f"triangulation {x}, whose round trip through its {name(seq)} breaks"
        modules.setdefault(pair, x)
        seqs.setdefault(seq, x)
    for enumerated, reached in ((tt, modules), (zs, seqs)):
        if reached.keys() != set(enumerated):
            for image, x in reached.items():
                if image not in enumerated:
                    return f"triangulation {x}, whose {name(image)} is not enumerated"
            for image in enumerated:
                if image not in reached:
                    return f"{name(image)}, which no triangulation reaches"
    if not len(tt) == len(xs) == len(zs):
        return (f"the counts {len(tt)}, {len(xs)} and {len(zs)} of modules, "
                "triangulations and sequences")
    return None


def _report(line, failing):
    """(line, ok) for a bundle check; a failing line names the first
    failing Kupisch series."""
    if failing:
        line += "; first failure: kupisch " + ",".join(map(str, failing[0]))
    return line, not failing


def verify_bijections(n_max):
    """Triple-bijection bundle over every valid cyclic Kupisch series with
    entries at most n+2.  Yields (message, ok) per polygon size; a failing
    line names the first failing series and what bijection_difference
    finds there."""
    for n in range(1, n_max + 1):
        series = list(valid_cyclic_series(n, n + 2))
        failing = [ks for ks in series if not triple_bijection_holds(cyclic_algebra(ks))]
        line, ok = _report(
            f"bijections n={n}: {len(series)} cyclic Kupisch series, "
            f"{len(series) - len(failing)} in elementwise bijection",
            failing,
        )
        where = failing and bijection_difference(cyclic_algebra(failing[0]))
        yield (f"{line} at {where}" if where else line), ok


def verify_counts(n_max):
    """dp_counts against enumerated_counts on every cyclic Kupisch series with
    entries at most n+2 and every linear one with entries at most n+1.  A
    failing line names the first failing series, its shape and both triples."""
    for n in range(1, n_max + 1):
        cyclic = [("cyclic", ks, cyclic_algebra(ks)) for ks in valid_cyclic_series(n, n + 2)]
        linear = [("linear", ks, make_linear(list(ks))) for ks in valid_linear_series(n, n + 1)]
        failing = [
            (shape, ks, alg) for shape, ks, alg in cyclic + linear
            if counting.dp_counts(alg) != counting.enumerated_counts(alg)
        ]
        line, ok = _report(
            f"counts n={n}: {len(cyclic)} cyclic and {len(linear)} linear Kupisch series, "
            f"{len(cyclic) + len(linear) - len(failing)} with DP counts equal to enumerated",
            [ks for _, ks, _ in failing],
        )
        if failing:
            shape, _, alg = failing[0]
            line += (f" ({shape}): DP {counting.dp_counts(alg)},"
                     f" enumerated {counting.enumerated_counts(alg)}")
        yield line, ok


def rejection_difference(alg, direct, rejection):
    """As text, the least vertex, else the least labelled arrow, that only
    one of the two Hasse quivers of alg has; None if they are equal."""
    if direct == rejection:
        return None
    quivers = direct, rejection
    vertices = [{(v,) for v in q.vertices} for q in quivers]
    arrows = [{(q.vertices[a], q.vertices[b]) for a, b in q.arrows} for q in quivers]
    for kind, (ours, theirs) in (("vertex", vertices), ("arrow", arrows)):
        if ours != theirs:
            first = min(ours ^ theirs)
            text = " -> ".join(f'"{poset.pair_label(alg, pair)}"' for pair in first)
            return f"{kind} {text} in the {'direct' if first in ours else 'rejection'} quiver only"
    return "an arrow that one quiver repeats"


def _rejection_failure(alg):
    """rejection_difference on the two Hasse quivers of alg, each built once."""
    return rejection_difference(alg, poset.hasse_direct(alg), poset.hasse_by_rejection(alg))


def verify_rejection(n_max, r_max):
    """Rejection-vs-direct bundle: the label-exact equality over the whole
    cyclic and linear grid, plus the self-injective 5-vertex algebra, the
    published 10-step rejection chain and the rejection isomorphisms of its
    first three steps when the grid covers them."""
    for n in range(1, n_max + 1):
        for grid, algs in (
            (f"cyclic n={n}, r<={r_max}",
             (((r,) * n, make_cyclic(n, r)) for r in range(1, r_max + 1))),
            (f"linear n={n}, entries<={r_max}",
             ((ks, make_linear(list(ks))) for ks in valid_linear_series(n, r_max))),
        ):
            failing = [(ks, where) for ks, alg in algs if (where := _rejection_failure(alg))]
            line, ok = _report(f"rejection {grid}: label-exact equality", [ks for ks, _ in failing])
            yield (f"{line} at {failing[0][1]}" if failing else line), ok
    if n_max >= 4 and r_max >= 5:
        yield (
            "rejection cyclic n=5, r=5: label-exact equality",
            _rejection_failure(make_cyclic(5, 5)) is None,
        )
        chain = rejection_chain(make_cyclic(3, 4), picks=[1, 2, 3, 1, 2, 1, 3, 2, 3])
        kupisch = [tuple(sorted(a.loewy.values())) for a, _ in chain[:10]]
        expected = [
            (4, 4, 4), (3, 4, 4), (3, 3, 4), (3, 3, 3), (2, 3, 3),
            (2, 2, 3), (1, 2, 3), (1, 2, 2), (1, 1, 2), (1, 1, 1),
        ]
        yield ("rejection chain 3,4 reaches the semisimple stage as published", kupisch == expected)
        try:  # the first three steps take (4,4,4) to (3,3,3)
            for a, j in chain[:3]:
                poset.rejection_isomorphism(a, j)
            iso = True
        except InvalidPoset:
            iso = False
        yield ("stt posets of the 3-vertex algebras r=4 and r=3 isomorphic", iso)
