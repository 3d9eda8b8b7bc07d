"""The package's public names.

A change to the exports has to edit this list, so it shows in review.
"""

import chowstab

EXPORTS = [
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


def test_public_names_are_pinned():
    assert len(EXPORTS) == 58
    assert chowstab.__all__ == EXPORTS

