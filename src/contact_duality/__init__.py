"""Finite contact algebras, clusters, dual spaces, and the duality functors.

The package realizes the algebraic side of region-based topology at a scale
where every claim is machine-checkable: contact relations live on the atoms
of finite powerset algebras, points of dual spaces are clusters, and the two
contravariant functors between finite spaces and these structures are checked
by exhaustive round trips.  A rational-interval model of the line supplies
the one genuinely unbounded structure.
"""

from .boolalg import FiniteBooleanAlgebra
from .clusters import (
    Cluster,
    bounded_clusters,
    check_cluster,
    enumerate_clusters,
    grill_clusters,
    maximal_cliques,
)
from .contact import (
    ContactRelation,
    ElementContact,
    atom_restriction,
    check_axioms,
    extremal_contacts,
    overlap_contact,
    universal_contact,
)
from .duality import (
    AlgebraMorphism,
    DualSpace,
    check_closed_embedding,
    check_morphism,
    compose,
    dual_of_map,
    dual_of_morphism,
    dual_space,
    identity_morphism,
    point_embedding,
    regularize,
    roundtrip_report,
    verify_double_dual,
)
from .errors import (
    CapExceeded,
    ContactDualityError,
    IntegrityError,
    Refusal,
    StructureError,
)
from .localcontact import (
    BoundedIdeal,
    LocalContactAlgebra,
    alexandroff_certificate,
    alexandroff_extension,
    check_lca_axioms,
    infinity_cluster,
    nca_as_lca,
    overlap_companion,
)
from .regions import RationalRegion, affine_preimage, expand, interpolate
from .report import Report, Violation
from .spaces import (
    FiniteSpace,
    SpaceMap,
    dense_subspace_isomorphism,
    discrete_space,
    map_predicates,
    rc_algebra,
    regular_closed_sets,
    ro_algebra,
    space_predicates,
)

__version__ = "0.1.0"
