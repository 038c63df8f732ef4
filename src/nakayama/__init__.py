"""Support tau-tilting modules over Nakayama algebras.

Three interchangeable combinatorial models (modules, punctured-polygon
triangulations, integer sequences) plus Hasse-quiver construction, both
direct and by iterated socle rejection.
"""

from .algebra import (
    NakayamaAlgebra,
    algebra_from_json,
    algebra_to_json,
    components,
    cyclic_algebra,
    make_cyclic,
    make_gamma,
    make_linear,
    projective_injectives,
    quotient_by_idempotent,
    reject,
    rejection_chain,
)
from .modcat import Indec
from .tautilt import (
    SttPair,
    enumerate_ps_tau_tilt,
    enumerate_stt,
    enumerate_tau_tilt,
    is_support_tau_tilting,
)
from .geometry import Arc, SignedTriangulation, Triangulation
from .sequences import SeqA
from .poset import (
    HasseQuiver,
    Poset,
    hasse_by_rejection,
    hasse_direct,
    mutations,
    poset_isomorphic,
    stt_poset,
)
from .counting import catalan, central_binomial, verify_tables

__version__ = "0.1.0"
