"""The integer-sequence model: nonnegative n-tuples summing to n.

Each sequence carries the shifted prefix-sum profile a'_i = sum_{j<=i}
(a_j - 1), read n-periodically (a'_0 = a'_n = 0); its value set is an
integer interval, the maximum is the norm, and positions attaining the
norm are flagged by delta.  The profile drives the explicit triangulation
construction: read backwards it rises by at most one per step, so one walk
back from each terminal meets the anchors of its inner arcs in order.  The
terminal lengths are read off those arcs.

Per-sequence data (profile, arcs, terminal lengths) is cached on the
sequence, and the sequences of each n are built once and shared, so that
data carries over from one algebra to the next.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import le

from .errors import InvariantViolation, NotInDomain
from .geometry import Arc, length_caps, longest_inner_arcs, make_triangulation


class SeqA:
    """Element of the sequence model for a fixed n; equality on the tuple."""

    def __init__(self, a):
        self.a = tuple(a)
        if (
            not self.a
            or any(type(x) is not int or x < 0 for x in self.a)
            or sum(self.a) != len(self.a)
        ):
            raise NotInDomain(f"{self.a} is not n >= 1 nonnegative integers summing to n")

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

    @cached_property
    def arcs(self):
        """The arcs of the triangulation with this terminal histogram:
        projective arcs at norm positions, plus for each terminal l one
        inner arc per unit of a_l above delta_l, anchored at the drop
        positions for s = 1, 2, ...: the largest k < l-1 with
        a'_k = a'_{l-1} + s (profile read periodically), which lies within
        n steps by the interval property.

        Read backwards the profile rises by at most one per step, since
        a'_{k-1} = a'_k + 1 - a_k, so a single walk back from l-1 meets the
        drop positions for s = 1, 2, ... in order.
        """
        prof, n, norm = self.profile, len(self.a), self.norm
        arcs = []
        for l, (a, p) in enumerate(zip(self.a, prof), 1):
            if p == norm:
                arcs.append(Arc(None, l))
                a -= 1
            k, level = l - 1, prof[l - 2]
            for s in range(1, a + 1):
                level += 1
                k -= 1
                while prof[(k - 1) % n] != level:
                    k -= 1
                    if k < l - 1 - n:
                        raise InvariantViolation(f"no drop position for l={l}, s={s} in {self}")
                arcs.append(Arc((k - 1) % n + 1, l))
        return tuple(arcs)

    @cached_property
    def terminal_lengths(self):
        """Per terminal j, the maximal inner-arc length at j in the
        triangulation of the sequence (0 when there is none)."""
        return longest_inner_arcs(self.n, self.arcs)

    def __eq__(self, other):
        return isinstance(other, SeqA) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return f"SeqA{self.a}"

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.a) + ")"


def top_of_triangulation(x):
    """Histogram of arc terminal points; lands in the sequence model.  Once
    the sequences of x.n are built (enumerate_Z), this is the shared
    instance, so its cached data carries over between calls."""
    counts = [0] * x.n
    for a in x.arcs:
        counts[a.j - 1] += 1
    seq = _SEQUENCES.get(x.n, {}).get(tuple(counts))
    return SeqA(counts) if seq is None else seq


def x_of_sequence(seq):
    """The triangulation with the given terminal histogram, on SeqA.arcs."""
    return make_triangulation(seq.n, seq.arcs)


# n -> {tuple: SeqA} in lexicographic order, filled by _all_sequences
_SEQUENCES = {}


def _all_sequences(n):
    """The shared sequences of n, keyed by their tuple; built once per n."""
    shared = _SEQUENCES.get(n)
    if shared is None:
        shared = {}
        for cuts in itertools.combinations(range(2 * n - 1), n - 1):
            prev, parts = -1, []
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(2 * n - 1 - prev - 1)
            seq = SeqA(parts)
            shared[seq.a] = seq
        _SEQUENCES[n] = shared
    return shared


def enumerate_Z(n):
    """All sequences, in lexicographic order (stars and bars)."""
    return list(_all_sequences(n).values())


def enumerate_Z_restricted(n, bounds):
    """The sequences with terminal lengths within bounds (the restricted
    model), in the order of enumerate_Z."""
    caps = length_caps(n, bounds)
    return [seq for seq in _all_sequences(n).values() if all(map(le, seq.terminal_lengths, caps))]
