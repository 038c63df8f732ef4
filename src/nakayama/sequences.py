"""The integer-sequence model: nonnegative n-tuples summing to n.

Each sequence carries the shifted prefix-sum profile a'_i = sum_{j<=i}
(a_j - 1), read n-periodically (a'_0 = a'_n = 0); its value set is an
integer interval, the maximum is the norm, and positions attaining the
norm are flagged by delta.  The profile drives the explicit triangulation
construction and its terminal-length function.

Per-sequence data (profile, drop positions, arcs, terminal lengths) is
cached on the sequence, and the sequences of each n are built once and
shared, so that data carries over from one algebra to the next.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import le

from .errors import InvariantViolation, NotInDomain
from .geometry import Arc, make_triangulation


class SeqA:
    """Element of the sequence model for a fixed n; equality on the tuple."""

    __slots__ = ("a", "_drop_tables", "__dict__")

    def __init__(self, a):
        self.a = tuple(int(x) for x in a)
        # per residue r of l-1 mod n, filled by drop_position on first use
        self._drop_tables = None
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

    def drop_position(self, l, s):
        """Largest k < l-1 with a'_k = a'_{l-1} + s (profile read
        periodically) and k >= l-1-n, or None when there is none.

        One backward scan from l-1 fills the table that serves every s;
        later calls are a lookup.
        """
        prof, n = self.profile, len(self.a)
        m = l - 1
        r = m % n
        tables = self._drop_tables
        if tables is None:
            tables = self._drop_tables = [None] * n
        table = tables[r]
        if table is None:
            # each profile value mapped to its distance back from l-1, over
            # the profile from l-1-n up to l-2: nearer positions overwrite
            start = (r - 1) % n
            ring = prof[start:] + prof[:start]
            table = tables[r] = {v: n - i for i, v in enumerate(ring)}
        d = table.get(prof[(m - 1) % n] + s)
        return None if d is None else m - d

    @cached_property
    def arcs(self):
        """The arcs of the triangulation with this terminal histogram:
        projective arcs at norm positions, plus for each terminal l one
        inner arc per unit of a_l above delta_l, anchored at the drop
        positions for s = 1, 2, ..."""
        prof, n, norm = self.profile, len(self.a), self.norm
        arcs = []
        for l, (a, p) in enumerate(zip(self.a, prof), 1):
            if p == norm:
                arcs.append(Arc(None, l))
                a -= 1
            for s in range(1, a + 1):
                arcs.append(Arc((_drop_position(self, l, s) - 1) % n + 1, l))
        return tuple(arcs)

    @cached_property
    def terminal_lengths(self):
        """Per terminal j, the maximal inner-arc length at j in the
        triangulation of the sequence (0 when there is none): the arc
        anchored at the drop for the largest s."""
        prof, n, norm = self.profile, len(self.a), self.norm
        out = []
        for j, (a, p) in enumerate(zip(self.a, prof), 1):
            extra = a - (p == norm)
            out.append((j - _drop_position(self, j, extra) - 1) % n + 1 if extra else 0)
        return tuple(out)

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


def _drop_position(seq, l, s):
    """Largest k < l-1 with a'_k = a'_{l-1} + s (profile read periodically);
    exists within n steps by the interval property."""
    k = seq.drop_position(l, s)
    if k is None:
        raise InvariantViolation(f"no drop position for l={l}, s={s} in {seq}")
    return k


def x_of_sequence(seq):
    """The triangulation with the given terminal histogram, on the arcs of
    SeqA.arcs; make_triangulation validates it on every call."""
    return make_triangulation(seq.n, seq.arcs)


def terminal_length(seq, j):
    """Maximal inner-arc length at terminal j in the triangulation of the
    sequence (0 when there is none)."""
    return seq.terminal_lengths[j - 1]


def in_restricted(seq, bounds):
    """Membership in the restricted model: terminal lengths within bounds."""
    return all(map(le, seq.terminal_lengths, [bounds[j] for j in range(1, seq.n + 1)]))


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
    """The sequences that satisfy in_restricted, in the order of
    enumerate_Z."""
    caps = [bounds[j] for j in range(1, n + 1)]
    return [seq for seq in _all_sequences(n).values() if all(map(le, seq.terminal_lengths, caps))]


def enumerate_Y(n):
    """Sequences with norm 0 (the Catalan subset)."""
    return [seq for seq in enumerate_Z(n) if seq.norm == 0]
