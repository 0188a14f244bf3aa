"""lsrigid: sparse length-spectrum rigidity experiments on free groups.

Pipeline: build a geodesic coding of the free group, induce a locally
constant potential from a marked metric graph, solve the growth-rate root of
the pressure, sample a recurrent ray from the associated Gibbs data, extract
witness pairs for every conjugacy class, and verify that the resulting
arbitrarily sparse witness sets separate points of Outer Space.
"""

__version__ = "0.1.0"

from .coding import (
    AugmentedStructure,
    MarkovStructure,
    augment,
    build_free_group_coding,
    classify_components,
    find_loop_for_class,
    load_structure,
    scc_decompose,
    validate_strongly_markov,
)
from .errors import (
    BelowThresholdError,
    ConvergenceError,
    LsrigidError,
    NotFoundError,
    ResourceCapError,
    StageError,
    ValidationError,
)
from .psmeasure import (
    BallMeasure,
    RaySample,
    ball_measure,
    cylinder_mass_bounds,
    cylinder_mass_estimate,
    entry_weight_table,
    load_ray,
    measure_mass_band,
    partition_sum_check,
    partition_sums,
    recurrence_report,
    sample_ray,
    save_ray,
)
from .rigidity import (
    Budget,
    RigidSet,
    RigidSetEntry,
    RoughRay,
    build_rigid_set,
    occurrence_matrix,
    parse_budget,
    recover_lengths,
    rose_rank_check,
    rough_ray,
    separation_battery,
    verify_separation,
    witness_at,
    witness_deviation,
)
from .thermo import (
    GibbsChain,
    Potential,
    TransferData,
    check_rpf_sums,
    constant_potential,
    gibbs_cylinder_weight,
    potential_from_metric,
    pressure,
    solve_growth_rate,
    sweep_telescoping,
)
from .treemetric import (
    MetricGraph,
    MetricOracle,
    ball_counts,
    dilation,
    graph_from_json,
    gromov_product,
    load_graph,
    marked_rose,
    rose,
    tl_via_gromov,
    translation_length,
    word_metric,
)
from .words import ConjClass, Word, cyclic_reduce, enumerate_classes, enumerate_sphere, reduce
