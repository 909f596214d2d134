"""Single-input eigenvalue assignment toolkit.

A family of pole-placement algorithms for single-input systems
dx/dt = A x + B u, cross-validated against an exact big-rational
oracle, plus the commutator/anchor identities behind the quotient
constructions, a benchmark harness, and a closed-loop simulator.

Every public gain K satisfies: eigenvalues(A - B K) = requested poles.
"""

from . import algebroid, bench, cli, exactring, linalg, placement, sim
from .bench import (
    BenchRecord,
    ExampleFamily,
    evaluate_placement,
    gen_integer_example,
    gen_scaled_diagonal,
    run_suite,
)
from .errors import (
    ComplexBlockUnsupported,
    DegenerateProjection,
    DivergedState,
    FactorizationError,
    InvalidPoleSet,
    ParallelHyperplanes,
    PlacementError,
    PrecisionOverflow,
    SingularShift,
    SingularSystem,
    UncontrollableSystem,
    ZeroInputComponent,
)
from .exactring import ExactGain, nullspace_row, place_exact, ratio
from .linalg import (
    BITS32,
    BITS64,
    Precision,
    eigenvalues,
    poly_from_roots,
    qr_decompose,
    schur_decompose,
    solve_linear,
    svd_decompose,
)
from .placement import (
    ALGORITHMS,
    AnchorChain,
    ChainFeedback,
    StateSpace,
    ackermann_direct,
    ackermann_factored,
    build_anchor_chain,
    chain_controllability_report,
    controllability_matrix,
    feedback_eval,
    gain_from_chain,
    place_algebroid1,
    place_algebroid2,
    place_determinantal,
    place_miminis,
    place_sliding,
    place_varga,
)
from .sim import SimConfig, Trace, rk4_step, simulate, trace_diff

__version__ = "1.0.0"
