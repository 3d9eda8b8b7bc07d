"""Exact Chow stability of weighted point cycles with blowup invariants.

The exact layers (geometry, stability, hilbert, testconfig) work over
rational numbers throughout; balance is the one floating-point module.
The rank profile in exactcore multiplies residue matrices in float64, but
only on integers below 2^53, which float64 holds exactly.
"""

from .errors import (ChowstabError, DependentFamily, NonRationalCoordinate,
                     PolynomialityFailed, RankDrop, SchemaError,
                     SubspaceNotSpannedBySupport, VerificationFailed,
                     ZeroLeadingCoefficient, ZeroPoint)
from .exactcore import int_rank_profile, interpolate_poly, poly_eval
from .geometry import (Ambient, DiagonalOnePS, ProjectivePoint, WeightedCycle,
                       chow_multiplicities, collision_clusters, limit_point,
                       normalize_cycle)
from .hilbert import (ExpansionCoeffs, FatPointSpec, MonomialBasis,
                      base_coeffs, fat_point_length, futaki_from_coeffs,
                      h0_with_vanishing, level_weight, lifting_shift,
                      line_weight, predicted_central_coeffs, section_trace)
from .stability import (STABLE, STRICTLY_SEMISTABLE, UNSTABLE, Destabilizer,
                        InstabilityCertificate, RatioRecord, SearchResult,
                        StabilityVerdict, Subspace, chow_weight, classify,
                        destabilizer_from_subspace, exhaustive_ops_search,
                        mumford_weight)
from .testconfig import (CentralFibre, CentralFibreData, DFResult,
                         DegreeReport, ExpansionReport, TestConfigSpec,
                         central_fibre_cycle, central_fibre_sections,
                         df_invariant, expansion_comparison)

__version__ = "0.1.0"

__all__ = [
    "ChowstabError", "DependentFamily", "NonRationalCoordinate",
    "PolynomialityFailed", "RankDrop", "SchemaError",
    "SubspaceNotSpannedBySupport", "VerificationFailed",
    "ZeroLeadingCoefficient", "ZeroPoint",
    "int_rank_profile", "interpolate_poly", "poly_eval",
    "Ambient", "DiagonalOnePS", "ProjectivePoint", "WeightedCycle",
    "chow_multiplicities", "collision_clusters", "limit_point",
    "normalize_cycle",
    "ExpansionCoeffs", "FatPointSpec", "MonomialBasis", "base_coeffs",
    "fat_point_length", "futaki_from_coeffs", "h0_with_vanishing",
    "level_weight", "lifting_shift", "line_weight",
    "predicted_central_coeffs", "section_trace",
    "STABLE", "STRICTLY_SEMISTABLE", "UNSTABLE", "Destabilizer",
    "InstabilityCertificate", "RatioRecord", "SearchResult",
    "StabilityVerdict", "Subspace", "chow_weight", "classify",
    "destabilizer_from_subspace", "exhaustive_ops_search", "mumford_weight",
    "CentralFibre", "CentralFibreData", "DFResult", "DegreeReport",
    "ExpansionReport", "TestConfigSpec",
    "central_fibre_cycle", "central_fibre_sections", "df_invariant",
    "expansion_comparison",
    "__version__",
]
