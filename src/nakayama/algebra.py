"""Nakayama algebras encoded by quiver shape and Kupisch series.

An algebra is a finite vertex set, a partial successor map ``next_down``
(the unique arrow out of each vertex, when the projective there is not
simple), and the Kupisch series ``loewy`` giving the Loewy length of each
indecomposable projective.  Connected pieces are directed paths or cycles,
read off one cached table per algebra (each vertex's component, whether it
is a cycle, and the arrow walk that gives composition factors); disconnected
algebras arise from idempotent quotients and rejection and are first-class,
and each component is the quotient by the other vertices.  Vertex labels
are stable: operations delete labels but never renumber them, so modules
and Hasse vertices can be compared across a rejection chain.  The connected
shapes are built, and recognised, in the standard labelling
``standard_arrows``: vertices 1..n, arrows j -> j-1, closed by 1 -> n on a
cycle.
"""

from __future__ import annotations

import json
from functools import cached_property

from .errors import (
    InvalidKupisch,
    InvariantViolation,
    NotInDomain,
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
        vertices = tuple(vertices)
        for v in vertices:  # before sorting, which would raise TypeError
            if type(v) is not int:
                raise InvalidKupisch(f"vertex label {v!r} must be an integer")
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
            if type(l) is not int or l < 1:
                raise InvalidKupisch(f"loewy({j}) = {l} must be a positive integer")
        indeg = {}
        for j, k in self.next_down.items():
            if type(j) is not int or type(k) is not int:  # True == 1 == 1.0 would pass below
                raise InvalidKupisch(f"next_down {j}->{k} must join integer vertices")
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
    def _components(self):
        """vertex -> (its cycle size, 0 on a path; its component's vertices
        in arrow order, one tuple shared by the whole component; the
        vertex's position in that order).  The arrows walked from each
        source trace the paths; the rest are cycles."""
        table = {}
        targets = {self.arrow_target(v) for v in self.vertices}
        for start in [v for v in self.vertices if v not in targets] + list(self.vertices):
            if start in table:
                continue
            walk, v = [start], self.arrow_target(start)
            while v is not None and v != start:
                walk.append(v)
                v = self.arrow_target(v)
            size, walk = len(walk) if v == start else 0, tuple(walk)
            for pos, w in enumerate(walk):
                table[w] = (size, walk, pos)
        return table

    def factors(self, j, length):
        """The composition factors, top to socle, of the uniserial with top j
        and that Loewy length: the arrow walk from j, repeated round a cycle."""
        size, walk, pos = self._components[j]
        return (walk * ((pos + length - 1) // size + 1) if size else walk)[pos:pos + length]

    def component_vertices(self):
        """Vertex sets of the connected components, ordered by least label."""
        return [tuple(sorted(walk)) for walk in self.arrow_orders()]

    def arrow_orders(self):
        """Each component's vertices in arrow order, from the source on a
        path, ordered by least label."""
        return sorted({walk for _, walk, _ in self._components.values()}, key=min)

    def component_is_cyclic(self, j):
        """True if j lies on a full cycle of arrows of the Gabriel quiver."""
        return self._components[j][0] > 0

    def component_size(self, j):
        return len(self._components[j][1])

    def source_vertex(self):
        """The arrow-free end of a connected linear algebra (its unique
        source)."""
        if len(self.component_vertices()) != 1:
            raise NotLinear("algebra is not connected")
        if self.component_is_cyclic(self.vertices[0]):
            raise NotLinear("component is a cycle")
        return self._components[self.vertices[0]][1][0]


def standard_arrows(n, cyclic):
    """The standard labelling of a connected quiver on vertices 1..n:
    next_down(j) = j-1, closed by next_down(1) = n when cyclic."""
    return {j: j - 1 or n for j in range(1 if cyclic else 2, n + 1)}


def _standard_algebra(kupisch, cyclic):
    n = len(kupisch)
    if n < 1:
        raise InvalidKupisch("empty Kupisch series")
    vertices = range(1, n + 1)
    return NakayamaAlgebra(vertices, standard_arrows(n, cyclic), dict(zip(vertices, kupisch)))


def cyclic_algebra(kupisch):
    """Cyclic Nakayama algebra on the standard cycle 1 -> n -> ... -> 2 -> 1
    with the given Kupisch series (loewy(1), ..., loewy(n))."""
    return _standard_algebra(kupisch, True)


def make_cyclic(n, r):
    """The cyclic Nakayama algebra on n vertices with constant Kupisch
    series r."""
    return cyclic_algebra([r] * n)


def make_linear(kupisch):
    """Linear Nakayama algebra with quiver n -> n-1 -> ... -> 1 and the
    given Kupisch series (loewy(1), ..., loewy(n))."""
    return _standard_algebra(kupisch, False)


ZERO = NakayamaAlgebra((), {}, {})


def make_gamma(n, r):
    """The linear algebra with Kupisch series min(j, r): radical-power-r
    quotient of the path algebra, source at vertex n."""
    return make_linear([min(j, r) for j in range(1, n + 1)])


def socle_vertex_of_projective(alg, j):
    """The last composition factor of P_j."""
    fs = alg.factors(j, alg.loewy[j])
    if len(fs) < alg.loewy[j]:
        raise InvariantViolation(f"P_{j} runs off the quiver before its socle")
    return fs[-1]


def projective_injectives(alg):
    """Vertices j whose projective P_j is injective: j has no arrow coming
    in, or the vertex above j (before it on the arrow walk) has Loewy length
    at most loewy(j).  (The socle scan over all indecomposables is the
    oracle in the tests.)"""
    if alg.is_zero():
        raise ZeroAlgebra("zero algebra has no projectives")
    return {j for j, (size, walk, pos) in alg._components.items()
            if not (pos or size) or alg.loewy[walk[pos - 1]] <= alg.loewy[j]}


def quotient_by_idempotent(alg, killed):
    """Kill a set of vertices: delete them, sever arrows through them, and
    cut each surviving projective before its first killed factor."""
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
        fs = alg.factors(v, alg.loewy[v])
        loewy[v] = next((i for i, w in enumerate(fs) if w in killed), len(fs))
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
    return [quotient_by_idempotent(alg, set(alg.vertices) - set(c)) for c in comps]


def rejection_chain(alg, picks=None):
    """Iterate rejection down to the zero algebra.

    Returns a list of (algebra, rejected_vertex) pairs ending with the zero
    algebra paired with None.  ``picks`` optionally forces the vertex chosen
    at each step; by default the smallest projective-injective label of the
    first component is used.  Picks left when the zero algebra is reached
    raise NotInDomain.
    """
    chain = []
    picks = list(picks or ())
    while not alg.is_zero():
        pis = projective_injectives(alg)
        if len(chain) < len(picks):
            j = picks[len(chain)]
            if j not in pis:
                raise NotProjectiveInjective(f"pick {j} is not projective-injective")
        else:
            j = min(pis & set(alg.component_vertices()[0]))
        chain.append((alg, j))
        alg = reject(alg, j)
    if len(chain) < len(picks):
        raise NotInDomain(f"picks {picks[len(chain):]} left over at the zero algebra")
    chain.append((alg, None))
    return chain


# -- JSON algebra literals ----------------------------------------------

def algebra_to_json(alg):
    if alg.is_zero():
        return {"kind": "general", "vertices": [], "next_down": {}, "loewy": {}}
    if alg.vertices == tuple(range(1, alg.n + 1)):
        for kind, cyclic in (("cyclic", True), ("linear", False)):
            if alg.next_down == standard_arrows(alg.n, cyclic):
                return {"kind": kind, "kupisch": [alg.loewy[j] for j in alg.vertices]}
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
