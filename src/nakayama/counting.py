"""Closed forms, recurrences, and the table verification harness.

All arithmetic is exact (Python integers).  The reference table constants
cover both quiver shapes for 1 <= n, r <= 5 and both the tau-tilting and
support tau-tilting counts; verify_tables re-derives every entry by brute
enumeration and cross-checks the recurrences and closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from . import tautilt
from .algebra import make_cyclic, make_gamma

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


@dataclass
class CountReport:
    algebra: str
    counts: tuple            # (tau_tilt, proper, stt)
    method: str              # enumerated | recurrence | closed-form
    expected: Optional[tuple] = None
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        agrees = self.expected is None or self.counts == self.expected
        return agrees and not self.notes

    def __str__(self):
        status = "ok" if self.ok else "MISMATCH"
        exp = "" if self.expected is None else f" expected={self.expected}"
        notes = ("  " + "; ".join(self.notes)) if self.notes else ""
        return f"{status:8s} {self.algebra:12s} counts={self.counts}{exp} [{self.method}]{notes}"


def enumerated_counts(alg):
    pairs = tautilt.enumerate_stt(alg)
    tt = sum(1 for p in pairs if not p.killed)
    return (tt, len(pairs) - tt, len(pairs))


def verify_tables():
    """Re-derive all 100 table entries by enumeration and cross-check the
    recurrences and closed forms.  Returns one report per (shape, n, r)."""
    reports = []
    for r in range(1, 6):
        for n in range(1, 6):
            alg = make_gamma(n, r)
            counts = enumerated_counts(alg)
            expected_tt = TAU_TILT_LINEAR[r - 1][n - 1]
            expected_stt = STT_LINEAR[r - 1][n - 1]
            rep = CountReport(
                algebra=f"linear n={n} r={r}",
                counts=counts,
                method="enumerated",
                expected=(expected_tt, expected_stt - expected_tt, expected_stt),
            )
            if count_gamma_recurrence(n, r) != counts[0]:
                rep.notes.append(
                    f"recurrence gives {count_gamma_recurrence(n, r)}"
                )
            if r == 2 and count_stt_gamma2_jasso(n) != counts[2]:
                rep.notes.append(f"two-term recurrence gives {count_stt_gamma2_jasso(n)}")
            if n <= r and counts[0] != catalan(n):
                rep.notes.append(f"hereditary count is not catalan({n})")
            reports.append(rep)
    for r in range(1, 6):
        for n in range(1, 6):
            alg = make_cyclic(n, r)
            counts = enumerated_counts(alg)
            expected_tt = TAU_TILT_CYCLIC[r - 1][n - 1]
            expected_stt = STT_CYCLIC[r - 1][n - 1]
            rep = CountReport(
                algebra=f"cyclic n={n} r={r}",
                counts=counts,
                method="enumerated",
                expected=(expected_tt, expected_stt - expected_tt, expected_stt),
            )
            if r == 1 and counts[2] != 2 ** n:
                rep.notes.append("semisimple count is not 2^n")
            if r >= n and counts[2] != central_binomial(n):
                rep.notes.append(f"count is not binom(2n,n)={central_binomial(n)}")
            reports.append(rep)
    return reports
