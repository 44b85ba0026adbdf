"""Role extraction for directed graphs via neighborhood-pattern similarity.

The toolkit builds and recognizes block-structured ("ideal") graphs, computes
the neighborhood-pattern similarity matrix densely or as a truncated low-rank
factor, recovers role assignments by clustering nodes on the cosines between
their similarity rows, and provides a perturbation lab for studying how
singular-value gaps reveal the number of roles.
"""

from .graphcore import (
    SIGNED,
    STRUCTURE_KINDS,
    UNWEIGHTED,
    WEIGHTED,
    Adjacency,
    Assignment,
    EdgeListFormatError,
    RoleMatrix,
    SignMatrix,
    apply_rank_one_weights,
    as_adjacency,
    build_ideal,
    checkerboard_signature,
    generate_structure,
    ideal_adjacency,
    is_minimal_role_matrix,
    minimalize,
    read_edge_list,
    read_ground_truth,
    structure_role_matrix,
    write_edge_list,
    write_ground_truth,
)
from .similarity import (
    NonConvergenceError,
    PatternCount,
    SimilarityState,
    beta_bound,
    default_beta2,
    fixed_point,
    gamma,
    iterate,
    pattern_counts,
    scaled_fixed_point,
    scaled_iterate,
)
from .lowrank import LowRankState, estimate_rank, lowrank_iterate
from .extract import (
    ExtractionResult,
    SignedRoleSplit,
    cluster_rows,
    extract_roles,
    extraction_cost,
    reconstruct_B,
    split_signed_roles,
)
from .spectra import (
    PerturbationModel,
    SpectrumReport,
    expected_adjacency,
    ideal_singular_values,
    perturb,
    ratio_monotonicity_check,
    rng_for,
    spectrum_report,
    undirected_sigma_at_depth,
)

__version__ = "0.1.0"
