"""Exact algebra for unbiased multinomial hypothesis tests.

Decides whether non-trivial / strictly unbiased tests exist for a
multinomial null hypothesis, computes unbiasedness thresholds and
separating polynomials from Groebner bases, and searches for UMPU tests
through exact coefficient-polytope vertex enumeration.  All algebra runs
over arbitrary-precision rationals; floats appear only in Monte-Carlo
validation and CSV grid export.
"""

from powerpoly.polynomial import (
    DEFAULT_ORDER,
    MonomialOrder,
    Polynomial,
)
from powerpoly.parser import (
    PolynomialSyntaxError,
    format_polynomial,
    parse_polynomial,
    parse_rational,
)
from powerpoly.groebner import (
    GroebnerBasis,
    StepCounter,
    StepLimitExceeded,
    buchberger_reduced,
    ideal_membership,
    radical_membership,
    reduce,
)

__all__ = [
    "kernel_backend",
    "DEFAULT_ORDER",
    "MonomialOrder",
    "Polynomial",
    "PolynomialSyntaxError",
    "format_polynomial",
    "parse_polynomial",
    "parse_rational",
    "GroebnerBasis",
    "StepCounter",
    "StepLimitExceeded",
    "buchberger_reduced",
    "ideal_membership",
    "radical_membership",
    "reduce",
    "NullHypothesis",
    "build_hypothesis",
    "polytope_existence",
    "log_odds_to_binomial",
    "sample_null_points",
    "TestFunction",
    "PowerPolynomial",
    "test_to_power",
    "recover_test",
    "box_check",
    "normalize_to_power",
    "exact_power",
    "monte_carlo_power",
    "symmetrize",
    "ThresholdReport",
    "UMPUPower",
    "sos_bounds",
    "principal_umpu",
    "semialgebraic_umpu",
    "union_separating",
    "rank_threshold",
    "CoefficientPolytope",
    "coefficient_polytope",
    "enumerate_vertices",
    "componentwise_max",
    "convex_peeling",
    "umpu_search",
    "UMPUVerdict",
]

__version__ = "0.1.0"

#: The one kernel implementation, pure Python; benchmark results record it.
kernel_backend = "pure"

from powerpoly.hypotheses import (  # noqa: E402
    NullHypothesis,
    build_hypothesis,
    log_odds_to_binomial,
    polytope_existence,
    sample_null_points,
)
from powerpoly.power import (  # noqa: E402
    PowerPolynomial,
    TestFunction,
    box_check,
    exact_power,
    monte_carlo_power,
    normalize_to_power,
    recover_test,
    symmetrize,
    test_to_power,
)
from powerpoly.threshold import (  # noqa: E402
    ThresholdReport,
    UMPUPower,
    principal_umpu,
    rank_threshold,
    semialgebraic_umpu,
    sos_bounds,
    union_separating,
)
from powerpoly.umpu import (  # noqa: E402
    CoefficientPolytope,
    UMPUVerdict,
    coefficient_polytope,
    componentwise_max,
    convex_peeling,
    enumerate_vertices,
    umpu_search,
)
