"""Distances, diameters and path certificates in Schrijver graphs SG(n,k).

Three independent routes to the same numbers: exact BFS on the explicit
graph, constructive path machinery with verifiable certificates, and the
closed-form diameter results; the test suite cross-validates all of them.
"""

from .blocks import (
    Block,
    Component,
    Decomposition,
    EndSets,
    component_counts,
    decompose,
    decomposition_to_json,
    disjoint_middle_vertex,
    distance2_criterion,
    m_sum_bound,
)
from .certificates import (
    PathCertificate,
    certificate_to_json,
    check_certificate_data,
    parse_certificate,
    verify_certificate,
)
from .closedform import (
    DiameterResult,
    Sg2k2Coordinate,
    Sg2k2Model,
    classify_sg2k2_vertex,
    diameter_formula,
    sg2k2_diameter,
    sg2k2_model,
    sg2k2_vertex,
    witness_dist3,
    witness_lower4,
)
from .cyclic import (
    CycleParams,
    StableSet,
    enumerate_stable_sets,
    is_2_stable,
    parse_set_text,
    rotate,
    stable_count,
    stable_masks,
    stable_set,
)
from .errors import (
    CertificateError,
    DegenerateInputError,
    InvariantError,
    ParameterError,
    RegimeError,
    SchrijverError,
)
from .graph import DistanceRecord, SchrijverGraph
from .lift import (
    LiftStep,
    LiftTrace,
    bound_path_m_plus_3,
    bound_path_with_trace,
    op_down,
    op_minus,
    op_plus,
    op_up,
)
from .paths import (
    StarPair,
    build_star_pair,
    path_dist3,
    path_small_intersection,
    path_via_reduction,
    reduce_intersection,
)

__version__ = "0.1.0"
