"""Reducibility and conformal structure of left-invariant metrics.

The package works on metric Lie algebras: a Lie bracket plus a positive
definite inner product, either with exact rational scalars or floats
under an explicit tolerance policy. It computes holonomy algebras and
orthogonal metric splittings, validates locally conformally parallel
structure data, decides decomposability, and handles the integer-matrix
side of the compact quotient constructions.

The namespace is lazy (PEP 562): ``import lcplab`` loads no submodule
and no numpy. Each name in ``__all__`` is imported from its home module
on first access, as ``lcplab.make_algebra`` or ``from lcplab import
char_poly``, and then kept here; ``from lcplab import lattice`` still
gives the submodule.
"""
from importlib import import_module

__version__ = "0.1.0"

# the public names, by home module; a name listed under two homes would
# keep only one of them in _HOMES (tests/test_imports.py checks)
_EXPORTS = {
    "base": ("canonical_json",),
    "errors": ("InputError", "LcplabError", "NumericalAmbiguityError",
               "TheoremViolationError"),
    "fileio": ("algebra_to_dict", "dict_to_algebra", "load_algebra_file",
               "save_algebra_file"),
    "gallery": ("GalleryEntry", "QUARTIC", "all_entries", "expanding_rate",
                "fundamental_example", "product_example", "rotation_rate",
                "semidirect_sum", "sl_example", "strongly_irreducible_example"),
    "holonomy": ("DeRhamSplitting", "OperatorAlgebra", "ReducingPair",
                 "check_reducing_pair", "common_kernel", "de_rham_splitting",
                 "holonomy_algebra", "nabla_commutant", "reducibility_witness",
                 "symmetric_commutant", "verify_factor_subalgebras"),
    "lattice": ("ConjugacySolution", "LatticeData", "ProbeResult", "UnitRootProfile",
                "char_poly", "companion", "discreteness_probe", "is_irreducible_over_Z",
                "is_unimodular_matrix", "solve_conjugacy", "unit_root_profile",
                "verify_conjugacy"),
    "lcp": ("DecomposabilityReport", "LcpData", "LcpReport", "lcp_decomposable",
            "lee_form_from_splitting", "lee_sharp", "make_lcp_data", "validate_lcp",
            "weyl_connection"),
    "liealg": ("InvariantConnection", "MetricLieAlgebra", "ValidationReport",
               "ad_matrix", "bracket_table", "curvature_operator", "curvature_tensor",
               "direct_sum_algebra", "is_subalgebra", "is_unimodular", "levi_civita",
               "make_algebra", "metric_defect", "to_float_algebra", "torsion_defect",
               "transform_algebra", "validate_algebra"),
    "linalg": ("Subspace", "make_subspace"),
    "scalars": ("DEFAULT_TOL", "EXACT", "FLOAT", "Mode", "TolerancePolicy",
                "exact_array", "float_array"),
}
# the home module of each public name
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
