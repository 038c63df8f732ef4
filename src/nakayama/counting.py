"""Interval-DP counts, closed forms, recurrences, and the table harness.

All arithmetic is exact (Python integers).  The reference table constants
cover both quiver shapes for 1 <= n, r <= 5 and both the tau-tilting and
support tau-tilting counts; verify_tables re-derives every entry by
counting maximal cliques and cross-checks the DP, recurrences and closed forms.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import modcat, tautilt
from .algebra import make_cyclic, make_gamma
from .errors import InvariantViolation

# rows r = 1..5, columns n = 1..5
TAU_TILT_LINEAR = (
    (1, 1, 1, 1, 1),
    (1, 2, 3, 5, 8),
    (1, 2, 5, 9, 18),
    (1, 2, 5, 14, 28),
    (1, 2, 5, 14, 42),
)
STT_LINEAR = (
    (2, 4, 8, 16, 32),
    (2, 5, 12, 29, 70),
    (2, 5, 14, 37, 98),
    (2, 5, 14, 42, 118),
    (2, 5, 14, 42, 132),
)
TAU_TILT_CYCLIC = (
    (1, 1, 1, 1, 1),
    (1, 3, 4, 7, 11),
    (1, 3, 10, 15, 31),
    (1, 3, 10, 35, 56),
    (1, 3, 10, 35, 126),
)
STT_CYCLIC = (
    (2, 4, 8, 16, 32),
    (2, 6, 14, 34, 82),
    (2, 6, 20, 50, 132),
    (2, 6, 20, 70, 182),
    (2, 6, 20, 70, 252),
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def central_binomial(n):
    return math.comb(2 * n, n)


@lru_cache(maxsize=None)
def count_gamma_recurrence(n, r):
    """Number of tau-tilting modules over the linear algebra with Kupisch
    series min(j, r), by the Catalan-weighted recurrence.

    Base: the empty algebra has exactly one (the empty module); negative
    sizes contribute nothing.
    """
    if n < 0:
        return 0
    if n == 0:
        return 1
    return sum(catalan(i - 1) * count_gamma_recurrence(n - i, r) for i in range(1, r + 1))


@lru_cache(maxsize=None)
def count_stt_gamma2_jasso(n):
    """Support tau-tilting count for the radical-square-zero linear algebra
    by the two-term recurrence (treated as a cross-check against the
    enumeration, not as ground truth)."""
    if n == 0:
        return 1
    if n == 1:
        return 2
    return 2 * count_stt_gamma2_jasso(n - 1) + count_stt_gamma2_jasso(n - 2)


def table_line(algebra, counts, expected, notes=()):
    """One verify report (line, ok): enumerated (tau_tilt, proper, stt)
    against the table's, with any failed cross-check as a note."""
    ok = counts == expected and not notes
    status = "ok" if ok else "MISMATCH"
    tail = ("  " + "; ".join(notes)) if notes else ""
    return f"{status:8s} {algebra:12s} counts={counts} expected={expected} [enumerated]{tail}", ok


def enumerated_counts(alg):
    """(tau_tilt, proper, stt) from the maximal cliques of the algebra's
    compatibility graph, without building pairs; only module nodes carry
    labels, so alg.n of them kill none."""
    cliques = modcat.maximal_cliques(*tautilt.compatibility_graph(alg), alg.n)
    tt = sum(len(q) == alg.n for q in cliques)
    return (tt, len(cliques) - tt, len(cliques))


def _chains(step, n):
    """chains[q][d] for 0 <= d < n: the sum, over q = x0 < ... < xk = q + d,
    of the products of step[x_i][x_{i+1} - x_i] (positions mod n)."""
    chains = [[1] + [0] * (n - 1) for _ in range(n)]
    for d in range(1, n):
        for q in range(n):
            chains[q][d] = sum(step[q][m] * chains[(q + m) % n][d - m] for m in range(1, d + 1))
    return chains


def _around(step, chains, n):
    """The sum over chains once around the cycle, by their least position s."""
    return sum(chains[s][p - s] * step[p][s + n - p] for s in range(n) for p in range(s, n))


def _component_counts(loewy):
    """(tau_tilt, stt) of one component from its Kupisch series in arrow
    order.  arc[q][w] counts the triangulations of the polygon under the
    arc [q, q + w] of the universal cover (terminal q, allowed when w <=
    loewy[q]); runs[q][d] counts the chains of projective arcs from q to
    q + d, which cut a restricted triangulation into such polygons.  A path
    is a cycle closed by a dead edge that no allowed arc crosses.  A pair
    with killed set E is a tau-tilting module over the quotient by E (AIR),
    so stt adds the chains of killed vertices with runs between them."""
    n = len(loewy)
    arc = [[0, 1] + [0] * (n - 1) for _ in range(n)]
    for w in range(2, n + 1):
        for q in range(n):
            if w <= loewy[q]:
                arc[q][w] = sum(arc[q][m] * arc[(q + m) % n][w - m] for m in range(1, w))
    runs = _chains(arc, n)
    tt = _around(arc, runs, n)
    killed = [[0] + [runs[(q + 1) % n][m - 1] for m in range(1, n + 1)] for q in range(n)]
    return tt, tt + _around(killed, _chains(killed, n), n)


def dp_counts(alg):
    """(tau_tilt, proper, stt) by the interval DP, a product over the
    components read in arrow order; enumerated_counts is its checker."""
    tt = stt = 1
    for walk in alg.arrow_orders():
        c_tt, c_stt = _component_counts([alg.loewy[v] for v in walk])
        if c_tt < 1:
            raise InvariantViolation(f"component {sorted(walk)} has {c_tt} tau-tilting modules")
        tt, stt = tt * c_tt, stt * c_stt
    return (tt, stt - tt, stt)


def verify_tables():
    """Re-derive all 100 table entries by counting and cross-check the
    recurrences and closed forms.  Returns one report (line, ok) per
    (shape, n, r)."""
    reports = []
    for shape, make, tt_table, stt_table in (
        ("linear", make_gamma, TAU_TILT_LINEAR, STT_LINEAR),
        ("cyclic", make_cyclic, TAU_TILT_CYCLIC, STT_CYCLIC),
    ):
        for r, n in itertools.product(range(1, 6), repeat=2):
            alg = make(n, r)
            counts = enumerated_counts(alg)
            tt, stt = tt_table[r - 1][n - 1], stt_table[r - 1][n - 1]
            notes = [] if dp_counts(alg) == counts else [f"DP gives {dp_counts(alg)}"]
            if shape == "linear":
                if count_gamma_recurrence(n, r) != counts[0]:
                    notes.append(f"recurrence gives {count_gamma_recurrence(n, r)}")
                if r == 2 and count_stt_gamma2_jasso(n) != counts[2]:
                    notes.append(f"two-term recurrence gives {count_stt_gamma2_jasso(n)}")
                if n <= r and counts[0] != catalan(n):
                    notes.append(f"hereditary count is not catalan({n})")
            else:
                if r == 1 and counts[2] != 2 ** n:
                    notes.append("semisimple count is not 2^n")
                if r >= n and counts[2] != central_binomial(n):
                    notes.append(f"count is not binom(2n,n)={central_binomial(n)}")
            reports.append(table_line(f"{shape} n={n} r={r}", counts, (tt, stt - tt, stt), notes))
    return reports
