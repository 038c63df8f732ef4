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
    that is not support tau-tilting, a slot of a pair without exactly one
    other completion, a tau-rigid set with more summands than its support,
    or a source split that does not give one killed vertex and a
    tau-tilting remainder."""
