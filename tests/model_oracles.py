"""Reference implementations that the drop-position lookup in
nakayama.sequences, and the restricted triangulation enumeration and the
flips in nakayama.geometry, are tested against."""

from nakayama.errors import InvariantViolation
from nakayama.geometry import (
    Arc,
    SignedTriangulation,
    _arc_table,
    all_arcs,
    compatible,
    make_triangulation,
)


def drop_position_scan(seq, l, s):
    """Largest k < l-1 with a'_k = a'_{l-1} + s (profile read periodically)
    by a linear scan back over at most n positions; None when there is
    none."""
    prof, n = seq.profile, seq.n
    target = prof[(l - 2) % n] + s
    for k in range(l - 2, l - 2 - n, -1):
        if prof[(k - 1) % n] == target:
            return k
    return None


def enumerate_restricted_dfs(n, bounds):
    """Triangulations whose inner arcs with terminal j have length at most
    bounds[j], by a DFS over the admissible arcs (in all_arcs order) that
    respect the bounds, with bitmask compatibility pruning."""
    _, index, full_compat = _arc_table(n)
    arcs = [
        a for a in all_arcs(n) if a.is_projective or a.length(n) <= min(bounds[a.j], n)
    ]
    pos = [index[a] for a in arcs]
    compat = [
        sum(1 << new_y for new_y, y in enumerate(pos) if full_compat[x] >> y & 1)
        for x in pos
    ]
    out = []

    def extend(chosen, candidates):
        if len(chosen) == n:
            out.append(make_triangulation(n, chosen))
            return
        if len(chosen) + candidates.bit_count() < n:
            return
        cs = candidates
        while cs:
            x = (cs & -cs).bit_length() - 1
            cs &= cs - 1
            chosen.append(arcs[x])
            extend(chosen, cs & compat[x])
            chosen.pop()

    extend([], (1 << len(arcs)) - 1)
    return out


def flip_scan(sx, arc):
    """Flip of a signed triangulation at one of its arcs, by a scan of
    every admissible arc against the rest with compatible."""
    x = sx.triangulation
    n = x.n
    if arc.is_projective and (n == 1 or Arc(arc.j, arc.j) in x.arcs):
        return SignedTriangulation(x, -sx.sign)
    rest = [a for a in x.arcs if a != arc]
    replacements = [
        b
        for b in all_arcs(n)
        if b != arc
        and b not in rest
        and all(compatible(b, a, n) for a in rest)
    ]
    if len(replacements) != 1:
        raise InvariantViolation(
            f"flipping {arc} in {x} has replacements {[str(b) for b in replacements]}"
        )
    return SignedTriangulation(
        make_triangulation(n, rest + replacements), sx.sign
    )
