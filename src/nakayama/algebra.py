"""Nakayama algebras encoded by quiver shape and Kupisch series.

An algebra is a finite vertex set, a partial successor map ``next_down``
(the unique arrow out of each vertex, when the projective there is not
simple), and the Kupisch series ``loewy`` giving the Loewy length of each
indecomposable projective.  Connected pieces are directed paths or cycles;
disconnected algebras arise from idempotent quotients and rejection and are
first-class.  Vertex labels are stable: operations delete labels but never
renumber them, so modules and Hasse vertices can be compared across a
rejection chain.
"""

from __future__ import annotations

import json
from functools import cached_property

from .errors import (
    InvalidKupisch,
    InvariantViolation,
    NotLinear,
    NotProjectiveInjective,
    ZeroAlgebra,
)


class NakayamaAlgebra:
    """Immutable Nakayama algebra given by (vertices, next_down, loewy).

    The quiver has an arrow j -> next_down(j) exactly when loewy[j] >= 2
    (rad P_j != 0); entries of ``next_down`` at vertices with loewy 1 are
    kept as dead ambient edges (e.g. the self-loop of a one-vertex cyclic
    quiver) but carry no arrow of the algebra.
    """

    __slots__ = ("vertices", "next_down", "loewy", "__dict__")

    def __init__(self, vertices, next_down, loewy):
        self.vertices = tuple(sorted(vertices))
        self.next_down = dict(next_down)
        self.loewy = dict(loewy)
        self._validate()

    # -- construction and validation ------------------------------------

    def _validate(self):
        vs = set(self.vertices)
        if len(self.vertices) != len(vs):
            raise InvalidKupisch("duplicate vertex labels")
        if set(self.loewy) != vs:
            raise InvalidKupisch("loewy keys must equal the vertex set")
        for j, l in self.loewy.items():
            if not isinstance(l, int) or l < 1:
                raise InvalidKupisch(f"loewy({j}) = {l} must be a positive integer")
        indeg = {}
        for j, k in self.next_down.items():
            if j not in vs or k not in vs:
                raise InvalidKupisch(f"next_down {j}->{k} leaves the vertex set")
            indeg[k] = indeg.get(k, 0) + 1
            if indeg[k] > 1:
                raise InvalidKupisch(f"vertex {k} has two incoming edges")
            if j == k and len(vs) > 1 and self.loewy[j] >= 2:
                raise InvalidKupisch(f"self-loop at {j} in a multi-vertex algebra")
        for j in self.vertices:
            k = self.next_down.get(j)
            if k is None:
                if self.loewy[j] != 1:
                    raise InvalidKupisch(
                        f"vertex {j} has no outgoing edge but loewy {self.loewy[j]} > 1"
                    )
            elif self.loewy[j] > self.loewy[k] + 1:
                raise InvalidKupisch(
                    f"loewy({j}) = {self.loewy[j]} exceeds loewy({k}) + 1"
                )

    @property
    def n(self):
        return len(self.vertices)

    def is_zero(self):
        return not self.vertices

    def dimension(self):
        """Total dimension = sum of the Kupisch series."""
        return sum(self.loewy.values())

    def __eq__(self, other):
        if not isinstance(other, NakayamaAlgebra):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.next_down == other.next_down
            and self.loewy == other.loewy
        )

    def __hash__(self):
        return hash(
            (self.vertices, tuple(sorted(self.next_down.items())),
             tuple(sorted(self.loewy.items())))
        )

    def __repr__(self):
        ks = ",".join(f"{j}:{self.loewy[j]}" for j in self.vertices)
        return f"NakayamaAlgebra({{{ks}}})"

    # -- quiver navigation ----------------------------------------------

    def arrow_target(self, j):
        """Target of the arrow out of j in the Gabriel quiver, or None."""
        if self.loewy[j] >= 2:
            return self.next_down.get(j)
        return None

    @cached_property
    def _up(self):
        return {
            self.next_down[j]: j
            for j in self.vertices
            if self.loewy[j] >= 2 and j in self.next_down
        }

    def walk_down(self, j, steps):
        """Vertex reached from j after ``steps`` ambient edges; None if the
        path leaves the quiver."""
        v = j
        for _ in range(steps):
            v = self.next_down.get(v)
            if v is None:
                return None
        return v

    @cached_property
    def _component_of(self):
        comp = {}
        for root in self.vertices:
            if root in comp:
                continue
            stack, seen = [root], {root}
            while stack:
                v = stack.pop()
                for w in (self.arrow_target(v), self._up.get(v)):
                    if w is not None and w not in seen:
                        seen.add(w)
                        stack.append(w)
            label = min(seen)
            for v in seen:
                comp[v] = label
        return comp

    def component_vertices(self):
        """Vertex sets of the connected components, ordered by least label."""
        groups = {}
        for v in self.vertices:
            groups.setdefault(self._component_of[v], []).append(v)
        return [tuple(sorted(groups[k])) for k in sorted(groups)]

    def is_connected(self):
        return len(self.component_vertices()) <= 1

    @cached_property
    def _component_info(self):
        """component label -> (size, is_cyclic)."""
        stats = {}
        for v in self.vertices:
            c = self._component_of[v]
            size, cyc = stats.get(c, (0, True))
            stats[c] = (size + 1, cyc and self.arrow_target(v) is not None)
        return stats

    def component_is_cyclic(self, j):
        """True if j lies on a full cycle of arrows of the Gabriel quiver."""
        return self._component_info[self._component_of[j]][1]

    def component_size(self, j):
        return self._component_info[self._component_of[j]][0]

    def source_vertex(self, j=None):
        """The arrow-free end of a path component (its unique source).

        With no argument the algebra must be connected and linear.
        """
        if j is None:
            comps = self.component_vertices()
            if len(comps) != 1:
                raise NotLinear("algebra is not connected")
            j = comps[0][0]
        if self.component_is_cyclic(j):
            raise NotLinear("component is a cycle")
        comp = {v for v in self.vertices if self._component_of[v] == self._component_of[j]}
        sources = [v for v in comp if self._up.get(v) is None]
        if len(sources) != 1:
            raise InvariantViolation(f"path component of {j} has sources {sorted(sources)}")
        return sources[0]


def cyclic_algebra(kupisch):
    """Cyclic Nakayama algebra on vertices 1..n with the given Kupisch
    series (loewy(1), ..., loewy(n)): the quiver is a single oriented
    cycle, next_down(j) = j-1 and next_down(1) = n."""
    n = len(kupisch)
    if n < 1:
        raise InvalidKupisch("empty Kupisch series")
    vertices = range(1, n + 1)
    next_down = {j: (j - 1) if j > 1 else n for j in vertices}
    return NakayamaAlgebra(vertices, next_down, dict(zip(vertices, kupisch)))


def make_cyclic(n, r):
    """The cyclic Nakayama algebra on n vertices with constant Kupisch
    series r."""
    return cyclic_algebra([r] * n)


def make_linear(kupisch):
    """Linear Nakayama algebra with quiver n -> n-1 -> ... -> 1 and the
    given Kupisch series (loewy(1), ..., loewy(n))."""
    n = len(kupisch)
    if n < 1:
        raise InvalidKupisch("empty Kupisch series")
    if kupisch[0] != 1:
        raise InvalidKupisch("path sink must have loewy 1")
    for j in range(1, n):
        if kupisch[j] > kupisch[j - 1] + 1:
            raise InvalidKupisch(
                f"loewy({j + 1}) = {kupisch[j]} exceeds loewy({j}) + 1"
            )
    vertices = range(1, n + 1)
    next_down = {j: j - 1 for j in range(2, n + 1)}
    return NakayamaAlgebra(vertices, next_down, dict(zip(vertices, kupisch)))


ZERO = NakayamaAlgebra((), {}, {})


def make_gamma(n, r):
    """The linear algebra with Kupisch series min(j, r): radical-power-r
    quotient of the path algebra, source at vertex n."""
    return make_linear([min(j, r) for j in range(1, n + 1)])


def socle_vertex_of_projective(alg, j):
    v = alg.walk_down(j, alg.loewy[j] - 1)
    if v is None:
        raise InvariantViolation(f"P_{j} runs off the quiver before its socle")
    return v


def projective_injectives(alg):
    """Vertices j whose projective P_j is injective: j has no arrow coming
    in, or the vertex above j has Loewy length at most loewy(j).  (The
    socle scan over all indecomposables is the oracle in the tests.)"""
    if alg.is_zero():
        raise ZeroAlgebra("zero algebra has no projectives")
    up = alg._up
    return {j for j in alg.vertices if j not in up or alg.loewy[up[j]] <= alg.loewy[j]}


def quotient_by_idempotent(alg, killed):
    """Kill a set of vertices: delete them, sever arrows through them, and
    clamp each surviving Loewy length to (longest remaining path) + 1."""
    killed = set(killed)
    if not killed <= set(alg.vertices):
        raise InvalidKupisch("killed vertices not in the algebra")
    survivors = [v for v in alg.vertices if v not in killed]
    next_down = {
        j: k
        for j, k in alg.next_down.items()
        if j not in killed and k not in killed
    }
    loewy = {}
    for v in survivors:
        depth, w = 0, v
        while depth < alg.loewy[v] - 1 and w in next_down:
            w = next_down[w]
            depth += 1
        loewy[v] = depth + 1
    return NakayamaAlgebra(survivors, next_down, loewy)


def reject(alg, j):
    """Factor out the socle of the projective-injective P_j.

    The Kupisch series drops by one at j; if P_j was simple the vertex
    disappears (a cycle through j opens, a path splits).
    """
    if j not in projective_injectives(alg):
        raise NotProjectiveInjective(f"P_{j} is not injective")
    if alg.loewy[j] == 1:
        out = quotient_by_idempotent(alg, {j})
    else:
        loewy = dict(alg.loewy)
        loewy[j] -= 1
        out = NakayamaAlgebra(alg.vertices, alg.next_down, loewy)
    if out.dimension() != alg.dimension() - 1:
        raise InvariantViolation(
            f"rejecting {j} took dimension {alg.dimension()} to {out.dimension()}"
        )
    return out


def components(alg):
    """Connected components as standalone algebras, ordered by least label.
    A connected algebra is its own component, so its per-algebra caches
    are shared with it."""
    comps = alg.component_vertices()
    if len(comps) == 1:
        return [alg]
    out = []
    for comp in comps:
        cs = set(comp)
        nd = {j: k for j, k in alg.next_down.items() if j in cs and k in cs}
        out.append(NakayamaAlgebra(comp, nd, {v: alg.loewy[v] for v in comp}))
    return out


def rejection_chain(alg, picks=None):
    """Iterate rejection down to the zero algebra.

    Returns a list of (algebra, rejected_vertex) pairs ending with the zero
    algebra paired with None.  ``picks`` optionally forces the vertex chosen
    at each step; by default the smallest projective-injective label of the
    first component is used.
    """
    chain = []
    picks = list(picks) if picks is not None else None
    step = 0
    while not alg.is_zero():
        pis = projective_injectives(alg)
        if picks is not None and step < len(picks):
            j = picks[step]
            if j not in pis:
                raise NotProjectiveInjective(f"pick {j} is not projective-injective")
        else:
            first = alg.component_vertices()[0]
            j = min(v for v in pis if v in first)
        chain.append((alg, j))
        alg = reject(alg, j)
        step += 1
    chain.append((alg, None))
    return chain


# -- JSON algebra literals ----------------------------------------------

def algebra_to_json(alg):
    if alg.is_zero():
        return {"kind": "general", "vertices": [], "next_down": {}, "loewy": {}}
    standard = tuple(range(1, alg.n + 1))
    if alg.vertices == standard and alg.next_down == {
        j: (j - 1) if j > 1 else alg.n for j in standard
    }:
        return {"kind": "cyclic", "kupisch": [alg.loewy[j] for j in alg.vertices]}
    if alg.vertices == standard and alg.next_down == {
        j: j - 1 for j in range(2, alg.n + 1)
    }:
        return {"kind": "linear", "kupisch": [alg.loewy[j] for j in alg.vertices]}
    return {
        "kind": "general",
        "vertices": list(alg.vertices),
        "next_down": {str(j): k for j, k in sorted(alg.next_down.items())},
        "loewy": {str(j): l for j, l in sorted(alg.loewy.items())},
    }


def algebra_from_json(data):
    """Algebra from a JSON literal (text or already parsed); malformed
    literals raise InvalidKupisch."""
    try:
        if isinstance(data, str):
            data = json.loads(data)
        kind = data.get("kind")
        if kind == "cyclic":
            return cyclic_algebra(data["kupisch"])
        if kind == "linear":
            return make_linear(data["kupisch"])
        if kind == "general":
            return NakayamaAlgebra(
                data["vertices"],
                {int(j): k for j, k in data["next_down"].items()},
                {int(j): l for j, l in data["loewy"].items()},
            )
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise InvalidKupisch(f"malformed algebra literal ({type(e).__name__}: {e})") from None
    raise InvalidKupisch(f"unknown algebra kind {kind!r}")
