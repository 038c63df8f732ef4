"""The integer-sequence model: nonnegative n-tuples summing to n.

Each sequence carries the shifted prefix-sum profile a'_i = sum_{j<=i}
(a_j - 1), read n-periodically (a'_0 = a'_n = 0); its value set is an
integer interval, the maximum is the norm, and positions attaining the
norm are flagged by delta.  The profile drives the explicit triangulation
construction and its terminal-length function.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .errors import InvariantViolation, NotInDomain
from .geometry import Arc, make_triangulation


class SeqA:
    """Element of the sequence model for a fixed n; equality on the tuple."""

    __slots__ = ("a", "__dict__")

    def __init__(self, a):
        self.a = tuple(int(x) for x in a)
        if any(x < 0 for x in self.a) or sum(self.a) != len(self.a):
            raise NotInDomain(f"{self.a} is not a nonnegative n-tuple summing to n")

    @property
    def n(self):
        return len(self.a)

    @cached_property
    def profile(self):
        """(a'_1, ..., a'_n); a'_n is always 0."""
        out, run = [], 0
        for x in self.a:
            run += x - 1
            out.append(run)
        if run != 0:
            raise InvariantViolation(f"profile of {self} ends at {run}, not 0")
        return tuple(out)

    def profile_at(self, p):
        """a'_p for any integer p, n-periodically."""
        return self.profile[(p - 1) % self.n]

    @cached_property
    def norm(self):
        return max(self.profile)

    def delta(self, p):
        return 1 if self.profile_at(p) == self.norm else 0

    def __eq__(self, other):
        return isinstance(other, SeqA) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return f"SeqA{self.a}"

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.a) + ")"


def top_of_triangulation(x):
    """Histogram of arc terminal points; lands in the sequence model."""
    counts = [0] * x.n
    for a in x.arcs:
        counts[a.j - 1] += 1
    return SeqA(counts)


def _drop_position(seq, l, s):
    """Largest k < l-1 with a'_k = a'_{l-1} + s (profile read periodically);
    exists within n steps by the interval property."""
    target = seq.profile_at(l - 1) + s
    for k in range(l - 2, l - 2 - seq.n, -1):
        if seq.profile_at(k) == target:
            return k
    raise InvariantViolation(f"no drop position for l={l}, s={s} in {seq}")


def x_of_sequence(seq):
    """The triangulation with the given terminal histogram: projective arcs
    at norm positions, plus for each terminal l one inner arc per unit of
    a_l above delta_l, anchored at the latest profile match."""
    n = seq.n
    arcs = [Arc(None, j) for j in range(1, n + 1) if seq.delta(j)]
    for l in range(1, n + 1):
        for s in range(1, seq.a[l - 1] - seq.delta(l) + 1):
            k = _drop_position(seq, l, s)
            arcs.append(Arc((k - 1) % n + 1, l))
    return make_triangulation(n, arcs)


def terminal_length(seq, j):
    """Maximal inner-arc length at terminal j in the triangulation of the
    sequence (0 when there is none)."""
    extra = seq.a[j - 1] - seq.delta(j)
    if extra == 0:
        return 0
    k = _drop_position(seq, j, extra)
    return (j - k - 1) % seq.n + 1


def in_restricted(seq, bounds):
    """Membership in the restricted model: terminal lengths within bounds."""
    return all(terminal_length(seq, j) <= bounds[j] for j in range(1, seq.n + 1))


@lru_cache(maxsize=None)
def _all_sequences(n):
    out = []
    for cuts in itertools.combinations(range(2 * n - 1), n - 1):
        prev, parts = -1, []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(2 * n - 1 - prev - 1)
        out.append(SeqA(parts))
    return tuple(out)


def enumerate_Z(n):
    """All sequences, in lexicographic order (stars and bars)."""
    return list(_all_sequences(n))


def enumerate_Z_restricted(n, bounds):
    return [seq for seq in enumerate_Z(n) if in_restricted(seq, bounds)]


def enumerate_Y(n):
    """Sequences with norm 0 (the Catalan subset)."""
    return [seq for seq in enumerate_Z(n) if seq.norm == 0]
