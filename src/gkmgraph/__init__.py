"""Exact integer toolkit for GKM graphs.

Represents m-valent multigraphs whose darts carry integer weight vectors and
a connection, computes the congruence-coefficient invariant, the lattice of
compatible vertex labelings with its rank (the sharp bound for extending the
weights to a larger lattice), and constructs maximal extensions.

The public names are resolved lazily: ``_MODULES`` maps each name to the
submodule defining it, and that submodule is imported on first access, so
``import gkmgraph`` loads nothing else.  Names are looked up anew on every
access rather than cached here.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    name: module
    for module, names in {
        "axgroup": "AxialGroupBasis axial_group_basis propagate",
        "axial": "AmbiguousConnectionError AxiomFailure AxiomViolationError ConnectionNotFoundError"
        " ValidationReport infer_connection validate_axial validate_gkm",
        "congruence": "invariant_function permutation",
        "extension": "ExtensionCheck GraphMismatchError"
        " NotSurjectiveError RankExceededError extend_axial project_axial verify_extension",
        "families": "gen_grassmannian gen_projective gen_s6",
        "graph": "AxialError AxialFunction GkmError GkmGraph GraphError OrientedGraph build_graph reverse_name",
        "hermite": "IntegerMatrix hermite_normal_form integer_kernel_basis lattice_basis",
        "intlinalg": "NotInLatticeError complete_inside_lattice invariant_factors saturation",
        "io": "EdgeRecord GkmDocument ParseError SchemaError gkm_from_document load_gkm parse_gkm",
        "writer": "document_from_gkm emit_dot emit_gkm",
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
