"""Toolkit for same-colour path covers of two-coloured complete graphs.

The public surface re-exports the working set: colouring and cover types
with their validator, the bipartite decomposition layer, the long-path
machinery, the exact small-n oracle, the solver, generators, and the flat
text codec.  The command line lives in monopath.cli.
"""

from .bipartite import (
    BipartiteView,
    DegreeClasses,
    decompose,
    decompose_full,
    long_path,
    ramsey_path,
)
from .codec import decode, encode
from .construct import (
    LongPathStructure,
    RedCliqueCertificate,
    ReductionWitness,
    SmallDegree,
    find_long_path_structure,
    maximal_path,
    refine_path,
    rotate_or_extend,
    two_path_cover,
)
from .core import (
    BLUE,
    RED,
    Colour,
    Colouring,
    CoverReport,
    FailureKind,
    GuardFailed,
    InvalidEdge,
    MonopathError,
    Path,
    PathCover,
    edge_count,
    iter_edges,
    validate_cover,
)
from .gen import (
    GENERATOR_NAME,
    GenSpec,
    adversarial_search,
    extremal,
    indexed_colouring,
    random_colouring,
)
from .oracle import (
    DEFAULT_ORACLE_THRESHOLD,
    OracleResult,
    TooLarge,
    exact_f,
    min_cover_colour,
)
from .solver import Guarantee, SolveResult, SolverConfig, cover_bounded, cover_sqrt, solve

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "BipartiteView",
    "Colour",
    "Colouring",
    "CoverReport",
    "DEFAULT_ORACLE_THRESHOLD",
    "DegreeClasses",
    "FailureKind",
    "GENERATOR_NAME",
    "GenSpec",
    "Guarantee",
    "GuardFailed",
    "InvalidEdge",
    "LongPathStructure",
    "MonopathError",
    "OracleResult",
    "Path",
    "PathCover",
    "RED",
    "RedCliqueCertificate",
    "ReductionWitness",
    "SmallDegree",
    "SolveResult",
    "SolverConfig",
    "TooLarge",
    "adversarial_search",
    "cover_bounded",
    "cover_sqrt",
    "decode",
    "decompose",
    "decompose_full",
    "edge_count",
    "encode",
    "exact_f",
    "extremal",
    "find_long_path_structure",
    "indexed_colouring",
    "iter_edges",
    "long_path",
    "maximal_path",
    "min_cover_colour",
    "ramsey_path",
    "random_colouring",
    "refine_path",
    "rotate_or_extend",
    "solve",
    "two_path_cover",
    "validate_cover",
    "__version__",
]
