"""blocknets: block-grown random networks.

Grow hooking networks (blocks fused at a hook) and bipolar networks
(directed blocks splicing arcs) under linear preferential attachment,
derive the exact finite-type urn describing their degree census --
intensity matrix, spectrum, limit vector and limit covariance -- and
verify the normal limit law by seeded Monte-Carlo simulation.
"""

__version__ = "0.1.0"

from .model_io import (
    BIPOLAR,
    HOOKING,
    Block,
    BlockSet,
    BlockSetError,
    InternalConsistencyError,
    degree_of,
    load_blockset,
    load_example,
    parse_blockset,
    reverse_bipolar,
)
from .profile import (
    BalanceInfo,
    DegreeProfile,
    build_profile,
    essential_degrees,
)
from .urn import (
    STAR,
    ReplacementLaw,
    UrnModel,
    build_urn,
    covariance,
    intensity_matrix,
    irreducibility_check,
    second_moment_matrix,
)
from .growth import (
    CENSUS,
    GRAPH,
    GrowthState,
    ResourceLimitError,
    backend_name,
    census_vector,
    export_dot,
    export_edge_list,
    grow_step,
    grow_step_scripted,
    init_state,
    simulate,
    simulate_batch,
    write_trajectory_csv,
)
from .verify import (
    CheckResult,
    Tolerances,
    VerificationReport,
    covariance_check,
    mean_check,
    normality_check,
    run_replicates,
    verify_model,
    whiten_scores,
)

__all__ = [
    "BIPOLAR",
    "HOOKING",
    "STAR",
    "CENSUS",
    "GRAPH",
    "BalanceInfo",
    "Block",
    "BlockSet",
    "BlockSetError",
    "CheckResult",
    "DegreeProfile",
    "GrowthState",
    "InternalConsistencyError",
    "ReplacementLaw",
    "ResourceLimitError",
    "Tolerances",
    "UrnModel",
    "VerificationReport",
    "backend_name",
    "build_profile",
    "build_urn",
    "census_vector",
    "covariance",
    "covariance_check",
    "degree_of",
    "essential_degrees",
    "export_dot",
    "export_edge_list",
    "grow_step",
    "grow_step_scripted",
    "init_state",
    "intensity_matrix",
    "irreducibility_check",
    "load_blockset",
    "load_example",
    "mean_check",
    "normality_check",
    "parse_blockset",
    "reverse_bipolar",
    "run_replicates",
    "second_moment_matrix",
    "simulate",
    "simulate_batch",
    "verify_model",
    "whiten_scores",
    "write_trajectory_csv",
]
