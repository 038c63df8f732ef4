"""Reference implementations that nakayama.geometry and nakayama.sequences
are tested against: the crossing test by cyclic windows, the triangulation
check by masks on the n-gon's arc table, the drop positions by a linear
scan (and the sequence arcs anchored at them), membership in the
restricted sequence model, the restricted triangulations by a DFS, the
flips by a scan of every arc and the triangles fan by fan, with each fan's
arcs re-based to offsets from its projective arc; and the signed model
checked element by element against the enumeration and the mutations."""

from operator import le

from nakayama.errors import InvariantViolation, NakayamaError, NotInDomain
from nakayama.geometry import (
    Arc,
    SignedTriangulation,
    Triangulation,
    _arc_table,
    all_arcs,
    crossing,
    enumerate_triangulations,
    flip,
    length_caps,
    make_triangulation,
    signed_to_stt,
    stt_to_signed,
)
from nakayama.poset import mutations
from nakayama.tautilt import enumerate_stt


def _in_window(x, a, width, n):
    """x in {a, a+1, ..., a+width} read mod n (window of width+1 points)."""
    if width >= n - 1:
        return True
    return (x - a) % n <= width


def crossing_windows(a, b, n):
    """Crossing test for two admissible arcs by cyclic windows: a point
    strictly inside the boundary path of an inner arc, or each inner arc
    ending strictly inside the other and starting outside it."""
    if a.is_projective and b.is_projective:
        return False
    if a.is_projective or b.is_projective:
        p, inner = (a.j, b) if a.is_projective else (b.j, a)
        t = inner.length(n)
        # p strictly inside the boundary path of the inner arc
        return t >= 2 and _in_window(p, inner.i + 1, t - 2, n)
    s, t = a.length(n), b.length(n)
    if _in_window(a.j, b.i + 1, t - 2, n) and _in_window((b.i + 1) % n or n, a.i + 2, s - 2, n):
        return True
    if _in_window(b.j, a.i + 1, s - 2, n) and _in_window((a.i + 1) % n or n, b.i + 2, t - 2, n):
        return True
    return False


def make_triangulation_by_table(n, arcs):
    """make_triangulation by the n-gon's arc table: each arc looked up by
    its position in the table, then one compatibility mask test per arc in
    canonical order, naming the lowest arc that crosses the first crossed."""
    table, index, compat = _arc_table(n)
    mask = 0
    for a in arcs:
        x = index.get(a)
        if x is None:
            raise NotInDomain(f"{a} is not an admissible arc for n = {n}")
        mask |= 1 << x
    out, rest = [], mask
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        crossed = mask & ~compat[x]
        if crossed:
            y = (crossed & -crossed).bit_length() - 1
            raise NotInDomain(f"arcs {table[x]} and {table[y]} cross")
        out.append(table[x])
    if len(out) != n:
        raise NotInDomain(f"expected {n} arcs, got {len(out)}")
    if not (out and out[0].is_projective):
        raise NotInDomain("triangulation must contain a projective arc")
    return Triangulation(n, tuple(out))


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


def arcs_by_scan(seq):
    """The arcs of SeqA.arcs, each inner arc anchored at drop_position_scan:
    a projective arc at each norm position, and for each terminal l one
    inner arc per unit of a_l above delta_l."""
    n, arcs = seq.n, []
    for l in range(1, n + 1):
        extra = seq.a[l - 1] - seq.delta(l)
        if seq.delta(l):
            arcs.append(Arc(None, l))
        for s in range(1, extra + 1):
            k = drop_position_scan(seq, l, s)
            if k is None:
                raise InvariantViolation(f"no drop position for l={l}, s={s} in {seq}")
            arcs.append(Arc((k - 1) % n + 1, l))
    return tuple(arcs)


def in_restricted(seq, bounds):
    """Membership in the restricted model: terminal lengths within bounds."""
    return all(map(le, seq.terminal_lengths, length_caps(seq.n, bounds)))


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
    every admissible arc against the rest with crossing."""
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
        and not any(crossing(b, a, n) for a in rest)
    ]
    if len(replacements) != 1:
        raise InvariantViolation(
            f"flipping {arc} in {x} has replacements {[str(b) for b in replacements]}"
        )
    return SignedTriangulation(
        make_triangulation(n, rest + replacements), sx.sign
    )


def signed_difference(alg, flips=True):
    """The first failure of the signed model over alg as text, else None:
    signed_to_stt must be a bijection from the signed triangulations onto
    enumerate_stt, stt_to_signed must invert it, and (with flips) the flips
    of each signed triangulation must map onto the mutations of its image.
    An error raised at an element is that element's failure."""
    images = {}
    for x in enumerate_triangulations(alg.n):
        for sign in (+1, -1):
            sx = SignedTriangulation(x, sign)
            try:
                image = signed_to_stt(alg, sx)
                if image in images:
                    return f"{sx} and {images[image]} both map to {image}"
                images[image] = sx
                back = stt_to_signed(alg, image)
                if back != sx:
                    return f"{sx} maps to {image}, which maps back to {back}"
                if flips:
                    flipped = {signed_to_stt(alg, flip(sx, a)) for a in x.arcs}
                    if flipped != set(mutations(alg, image)):
                        return f"the flips of {sx} are not the mutations of {image}"
            except NakayamaError as e:
                return f"{sx}: {type(e).__name__}: {e}"
    pairs = enumerate_stt(alg)
    missed = [p for p in pairs if p not in images]
    if missed:
        return f"{missed[0]} is the image of no signed triangulation"
    if len(images) != len(pairs):
        return f"{len(images)} signed images, but enumerate_stt lists {len(pairs)} pairs"
    return None


def fan_arcs(x, i, j):
    """Inner arcs of x inside the fan spanned by the projective arcs at i
    and j and the counterclockwise boundary path from i to j (i = j spans
    the whole boundary)."""
    n = x.n
    width = (j - i - 1) % n + 1
    out = []
    for a in x.arcs:
        if a.is_projective:
            continue
        off = (a.i - i) % n
        if off + a.length(n) <= width:
            out.append(a)
    return tuple(out)


def triangles_by_fans(x):
    """The triangles of geometry.triangles, fan by fan: the triangle at
    the puncture, then those of the polygon under the fan's chord."""
    n = x.n
    proj = sorted(a.j for a in x.arcs if a.is_projective)
    tris = []
    r = len(proj)
    for idx, j in enumerate(proj):
        jplus = proj[(idx + 1) % r]
        gap = (jplus - j - 1) % n + 1
        center = [Arc(None, j)] if r == 1 else [Arc(None, j), Arc(None, jplus)]
        chord = Arc(j, (j + gap - 1) % n + 1)
        if gap >= 2:
            tris.append(tuple(center + [chord]))
        else:
            tris.append(tuple(center))
        tris.extend(_polygon_triangles(fan_arcs(x, j, jplus), j, gap, n))
    if len(tris) != n:
        raise InvariantViolation(f"{x} splits into {len(tris)} triangles, not {n}")
    return tris


def _polygon_triangles(fan, base, width, n):
    """Triangles of the triangulated (width+1)-gon sitting over the chord
    from base of span width; corners are offsets 0..width from base.
    Boundary edges are tracked as None and omitted from the output."""
    if width < 2:
        return []
    sides = {}
    for a in fan:
        off = (a.i - base) % n
        sides[(off, off + a.length(n))] = a
    if (0, width) not in sides:
        raise InvariantViolation(f"fan over {base} of span {width} has no chord")
    for off in range(width):
        sides.setdefault((off, off + 1), None)
    tris = []
    for lo, hi in sorted(sides, key=lambda s: (s[1] - s[0], s)):
        if hi - lo < 2:
            continue
        # split corner: the unique mid with both (lo,mid),(mid,hi) present
        mids = [m for m in range(lo + 1, hi) if (lo, m) in sides and (m, hi) in sides]
        if len(mids) != 1:
            raise InvariantViolation(
                f"fan over {base}: side {(lo, hi)} has split corners {mids}"
            )
        m = mids[0]
        arcs = [sides[s] for s in ((lo, m), (m, hi), (lo, hi)) if sides[s] is not None]
        tris.append(tuple(arcs))
    return tris
