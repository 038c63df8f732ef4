"""Indecomposable modules over a Nakayama algebra and their Hom/tau calculus.

Every indecomposable is uniserial and is written as its simple top together
with its Loewy length; a basic module is a sorted tuple of such pairs.  All
operations take the ambient algebra explicitly: module values are plain data
and stay comparable across rejection steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidModule


class Indec(NamedTuple):
    """Indecomposable module: simple top and Loewy length."""

    top: int
    length: int

    def to_json(self):
        return {"top": self.top, "len": self.length}

    @staticmethod
    def from_json(data):
        return Indec(int(data["top"]), int(data["len"]))


def check_valid(alg, m):
    if m.top not in alg.loewy:
        raise InvalidModule(f"top {m.top} is not a vertex")
    if not 1 <= m.length <= alg.loewy[m.top]:
        raise InvalidModule(f"length {m.length} not in [1, loewy({m.top})]")
    return m


def comp_factors(alg, m):
    """Composition factors from top to socle (list of vertices)."""
    cache = alg.__dict__.setdefault("_factors", {})
    hit = cache.get(m)
    if hit is not None:
        return hit
    check_valid(alg, m)
    out = [m.top]
    v = m.top
    for _ in range(m.length - 1):
        v = alg.next_down[v]
        out.append(v)
    cache[m] = out
    return out


def socle_vertex(alg, m):
    check_valid(alg, m)
    v = alg.walk_down(m.top, m.length - 1)
    assert v is not None
    return v


def is_projective(alg, m):
    check_valid(alg, m)
    return m.length == alg.loewy[m.top]


def tau(alg, m):
    """Auslander-Reiten translate: None for projectives, else the module
    with the same length and top shifted one step down the quiver."""
    if is_projective(alg, m):
        return None
    return Indec(alg.next_down[m.top], m.length)


def hom_nonzero(alg, m, n):
    """Whether Hom(m, n) != 0.

    Uniserial overlap witness: some length-t top quotient of m coincides
    with the length-t submodule of n, i.e. the t-th factor of n from the
    socle equals top(m).  Works uniformly on cyclic and linear components;
    across components it is vacuously false.
    """
    check_valid(alg, m)
    fn = comp_factors(alg, n)
    k = len(fn)
    return any(fn[k - t] == m.top for t in range(1, min(m.length, k) + 1))


def is_tau_rigid_indec(alg, m):
    """Projectives and everything on a linear component are tau-rigid; on a
    cyclic component only lengths below the cycle size are."""
    check_valid(alg, m)
    if is_projective(alg, m):
        return True
    if not alg.component_is_cyclic(m.top):
        return True
    return m.length < alg.component_size(m.top)


def pair_tau_rigid(alg, x, y):
    """Whether x + y is tau-rigid (both rigid, no Hom into the other's tau)."""
    cache = alg.__dict__.setdefault("_pair_rigid", {})
    key = (x, y) if x <= y else (y, x)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = _pair_tau_rigid(alg, x, y)
    cache[key] = out
    return out


def _pair_tau_rigid(alg, x, y):
    if not (is_tau_rigid_indec(alg, x) and is_tau_rigid_indec(alg, y)):
        return False
    ty = tau(alg, y)
    if ty is not None and hom_nonzero(alg, x, ty):
        return False
    tx = tau(alg, x)
    if tx is not None and hom_nonzero(alg, y, tx):
        return False
    return True


def in_fac(alg, x, module):
    """Whether x lies in Fac of the basic module.

    A uniserial is a factor of a sum iff it is a quotient of a single
    summand: same top, no greater length.
    """
    check_valid(alg, x)
    return any(s.top == x.top and s.length >= x.length for s in module)


def support(alg, module):
    """Set of vertices occurring as composition factors."""
    out = set()
    for s in module:
        out.update(comp_factors(alg, s))
    return out


def all_indecs(alg):
    """All indecomposables, ordered by (top, length)."""
    return [
        Indec(j, l)
        for j in alg.vertices
        for l in range(1, alg.loewy[j] + 1)
    ]


def all_tau_rigid_indecs(alg):
    return [m for m in all_indecs(alg) if is_tau_rigid_indec(alg, m)]
