"""Translating between the two representations of a finite closure system.

A closure system over a finite ground set can be handed around either as
a unit implicational base or as the family of its meet-irreducible
closed sets.  This package converts each representation into the other
for ranked convex geometries, streaming results through hypergraph
dualization, and ships exhaustive brute-force references to check every
step at desk scale.

Every public name is loaded from its submodule on first access (PEP 562),
so that importing the package, or running one command of its CLI, loads
only the modules that are used.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# Submodule -> the public names it provides.
_EXPORTS = {
    "ccm": (
        "RankedSet",
        "level_hypergraph",
        "maximal_avoiding_sets",
        "meet_irreducibles",
        "seed_region",
    ),
    "critical": ("MinimalGenerator", "critical_base", "is_ranked_geometry", "is_redundant"),
    "dualization": ("Antichain", "reduce_dual_to_cmi"),
    "errors": (
        "DuplicateImplicationWarning",
        "DuplicateSetWarning",
        "GeodualError",
        "InputError",
        "NotConvexGeometryError",
        "NotRankedError",
        "PreconditionError",
        "SizeGuardError",
        "VerificationError",
    ),
    "hypergraphs": (
        "BergeBackend",
        "DualizationBackend",
        "Hypergraph",
        "induced",
        "maximal_independent_sets",
        "minimal_transversals",
    ),
    "implications": (
        "Implication",
        "ImplicationalBase",
        "closure",
        "equivalent",
        "implication",
        "implication_graph",
        "is_acyclic",
        "is_closed",
        "is_standard",
    ),
    "oracle": ("check_dual", "is_meet_family"),
    "ranking": (
        "RankConflict",
        "RankFunction",
        "compute_rank",
        "validate_rank",
    ),
    "sets": ("ElementSet", "GroundSet"),
    "sid": (
        "MeetFamily",
        "closure_from_meets",
        "complement_hypergraph",
        "partition_meets",
        "predecessors",
        "recover_critical_base",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace; only names need caching.
        return _import(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
