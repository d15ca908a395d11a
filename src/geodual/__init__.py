"""Translating between the two representations of a finite closure system.

A closure system over a finite ground set can be handed around either as
a unit implicational base or as the family of its meet-irreducible
closed sets.  This package converts each representation into the other
for ranked convex geometries, streaming results through hypergraph
dualization, and ships exhaustive brute-force references to check every
step at desk scale.
"""

from .ccm import (
    RankedSet,
    level_hypergraph,
    maximal_avoiding_sets,
    meet_irreducibles,
    seed_region,
)
from .critical import MinimalGenerator, critical_base, is_ranked_geometry, is_redundant
from .dualization import Antichain, check_dual, is_meet_family, reduce_dual_to_cmi
from .errors import (
    DuplicateImplicationWarning,
    DuplicateSetWarning,
    GeodualError,
    InputError,
    NotConvexGeometryError,
    NotRankedError,
    PreconditionError,
    SizeGuardError,
    VerificationError,
)
from .hypergraphs import (
    BergeBackend,
    DualizationBackend,
    Hypergraph,
    induced,
    maximal_independent_sets,
    minimal_transversals,
)
from .implications import (
    Implication,
    ImplicationalBase,
    closure,
    equivalent,
    implication,
    implication_graph,
    is_acyclic,
    is_closed,
    is_standard,
)
from .ranking import (
    RankConflict,
    RankFunction,
    UnrankedCertificate,
    check_unranked_certificate,
    compute_rank,
    validate_rank,
)
from .sets import ElementSet, GroundSet
from .sid import (
    MeetFamily,
    closure_from_meets,
    complement_hypergraph,
    partition_meets,
    predecessors,
    recover_critical_base,
)

__version__ = "0.1.0"

__all__ = [
    "Antichain",
    "BergeBackend",
    "DualizationBackend",
    "DuplicateImplicationWarning",
    "DuplicateSetWarning",
    "ElementSet",
    "GeodualError",
    "GroundSet",
    "Hypergraph",
    "Implication",
    "ImplicationalBase",
    "InputError",
    "MeetFamily",
    "MinimalGenerator",
    "NotConvexGeometryError",
    "NotRankedError",
    "PreconditionError",
    "RankConflict",
    "RankFunction",
    "RankedSet",
    "SizeGuardError",
    "UnrankedCertificate",
    "VerificationError",
    "check_dual",
    "check_unranked_certificate",
    "closure",
    "closure_from_meets",
    "complement_hypergraph",
    "compute_rank",
    "critical_base",
    "equivalent",
    "implication",
    "implication_graph",
    "induced",
    "is_acyclic",
    "is_closed",
    "is_meet_family",
    "is_ranked_geometry",
    "is_redundant",
    "is_standard",
    "level_hypergraph",
    "maximal_avoiding_sets",
    "maximal_independent_sets",
    "meet_irreducibles",
    "minimal_transversals",
    "partition_meets",
    "predecessors",
    "recover_critical_base",
    "reduce_dual_to_cmi",
    "seed_region",
    "validate_rank",
]
