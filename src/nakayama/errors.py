"""Exception types shared across the package."""


class NakayamaError(Exception):
    """Base class for all library errors."""


class InvalidKupisch(NakayamaError):
    """Loewy-length data does not describe a Nakayama algebra."""


class ZeroAlgebra(NakayamaError):
    """Operation needs a nonzero algebra."""


class InvalidModule(NakayamaError):
    """An indecomposable (top, len) is not valid over the given algebra.

    Also covers modules handed to an operation over the wrong algebra.
    """


class NotProjectiveInjective(NakayamaError):
    """Rejection requested at a vertex whose projective is not injective."""


class NotCyclicConnected(NakayamaError):
    """Operation only defined on connected cyclic-quiver algebras."""


class NotLinear(NakayamaError):
    """Operation only defined on connected linear-quiver algebras."""


class NotTauTilting(NakayamaError):
    """Pair is not tau-tilting (killed set must be empty)."""


class NotInDomain(NakayamaError):
    """Input outside the domain of a bijection."""


class ArcTooLong(NakayamaError):
    """Inner arc longer than the Loewy length at its terminal point."""


class NotTauRigid(NakayamaError):
    """Module is not tau-rigid, so it has no arc."""


class ArcNotPresent(NakayamaError):
    """Flip requested at an arc that is not in the triangulation."""


class LoewyTooSmall(NakayamaError):
    """Signed-triangulation dictionary needs every Loewy length >= n."""


class InvalidPoset(NakayamaError):
    """Down-set masks that are not a partial order, or an order that
    disagrees with its definition."""


class InvariantViolation(NakayamaError):
    """A result the theory guarantees did not come out: a rejection lift
    that is not support tau-tilting, a maximal clique of compatible
    objects (tau-rigid pairs, or arcs) without n members (which Adachi-
    Iyama-Reiten, Cor 2.13, rules out for pairs), a slot of a pair or an
    arc of a triangulation without exactly one other completion under the
    exchange rule that serves both mutations and flips, a source split
    that does not give one killed vertex and a tau-tilting remainder, a
    triangle decomposition that does not close up, a signed-triangulation
    image on the - sheet that is not support tau-tilting or whose killed
    set does not shift (tautilt.shift_killed) onto the points of its
    projective arcs, a sequence profile without its drop position, or a
    module path that leaves the quiver."""
