"""restricta: digit-restricted prime counting, circle-method arc
bookkeeping, Markov eigenvalue certificates, and exact-measure metric
Diophantine approximation experiments."""

__version__ = "0.1.0"

from .digit_systems import (  # noqa: F401
    CensusReport,
    DigitSystem,
    census,
    count_restricted,
    enumerate_restricted,
    prediction_constant,
)
from .errors import (  # noqa: F401
    CapExceeded,
    FactorizationTooHard,
    LimitExceeded,
    NotReached,
    OutOfRange,
    RestrictaError,
    Unsupported,
    UsageError,
)
from .fourier import (  # noqa: F401
    BoundReport,
    FourierProfile,
    farey_max_sum,
    generalized_margin,
    mean_l1,
    mean_l1_derivative,
    minimal_passing_q,
    moment_tail,
    pairwise_bound_sum,
    refined_digit_sum,
    restricted_exp_sum,
    sin_bound_sum,
    typical_growth_constant,
)
from .markov import (  # noqa: F401
    EigenCertificate,
    TransitionMatrix,
    build_matrix,
    certify_base,
    power_eigenvalue,
    row_sum_bound,
)
from .arcs import main_term_assembly  # noqa: F401
from .dioph import (  # noqa: F401
    IntervalUnion,
    PsiFunction,
    ds_counterexample,
    event_union,
    golden_gap,
    hausdorff_exponent,
    pair_overlap,
    quasi_independence_ratio,
    select_R,
    series_partial,
    truncated_limsup_measure,
)
from .gcdgraph import (  # noqa: F401
    BipartiteGcdGraph,
    GcdInstance,
    build_gcd_graph,
    chow_counterexample,
    compression_step,
    green_walker_ratio,
    model_problem_search,
)
from .primes import (  # noqa: F401
    PrimeTable,
    count_primes_ap,
    prime_exp_sum,
    ramanujan_sum,
    sieve_primes,
)
