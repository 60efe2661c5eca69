"""Exact negative-type analysis on metric graphs.

The package decides whether a compact metric graph admits a six-point
configuration violating the negative type inequality, locates such
configurations explicitly whenever the graph contains a theta subgraph,
and connects the resulting metrics to l1-embeddability through exact
cut-cone computations.  All core arithmetic is rational; floats appear
only as search heuristics whose output is re-certified exactly.
"""

from .analysis import (
    ChainReport,
    GapBracket,
    NegativeTypeResult,
    PSDTranscript,
    Weighting,
    check_chain,
    gamma,
    gap_bracket,
    is_negative_type,
    positive_eigenvalue_count,
    psd_decompose,
)
from .core import (
    Edge,
    EdgePoint,
    FiniteMetric,
    MetricGraph,
    Point,
    Vertex,
    as_rational,
    canonical_point,
    distance,
    distance_matrix,
    format_rational,
    point_label,
    scale,
    subdivide,
)
from .errors import (
    InternalCheckError,
    InvalidGraphError,
    InvalidMetricError,
    InvalidPointError,
    PreconditionError,
    ThetaGapError,
)
from .families import (
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)
from .graphio import (
    dumps_graph,
    dumps_points,
    graph_from_dict,
    graph_to_dict,
    loads_graph,
    loads_points,
    point_from_dict,
    point_to_dict,
)
from .l1cut import (
    Cut,
    CutDecomposition,
    FarkasCertificate,
    is_l1_embeddable,
    k4_explicit_decomposition,
)
from .theta import (
    Theta,
    contains_theta,
    minimal_theta,
)
from .witness import (
    SubdivisionWitness,
    Witness,
    construct_witness,
    gap,
    omega_from_witness,
    opposite_point,
    round_to_vertices,
    subdivision_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ChainReport",
    "Cut",
    "CutDecomposition",
    "Edge",
    "EdgePoint",
    "FamilySpec",
    "FarkasCertificate",
    "FiniteMetric",
    "GapBracket",
    "InternalCheckError",
    "InvalidGraphError",
    "InvalidMetricError",
    "InvalidPointError",
    "MetricGraph",
    "NegativeTypeResult",
    "PSDTranscript",
    "Point",
    "PreconditionError",
    "SubdivisionWitness",
    "Theta",
    "ThetaGapError",
    "Vertex",
    "Weighting",
    "Witness",
    "as_rational",
    "canonical_point",
    "check_chain",
    "construct_witness",
    "contains_theta",
    "distance",
    "distance_matrix",
    "dumps_graph",
    "dumps_points",
    "format_rational",
    "from_spec",
    "gamma",
    "gap",
    "gap_bracket",
    "graph_from_dict",
    "graph_to_dict",
    "is_l1_embeddable",
    "is_negative_type",
    "k4_explicit_decomposition",
    "loads_graph",
    "loads_points",
    "make_random_cactus",
    "make_random_connected",
    "make_theta",
    "minimal_theta",
    "omega_from_witness",
    "opposite_point",
    "point_from_dict",
    "point_label",
    "point_to_dict",
    "positive_eigenvalue_count",
    "psd_decompose",
    "round_to_vertices",
    "scale",
    "subdivide",
    "subdivision_witness",
]
