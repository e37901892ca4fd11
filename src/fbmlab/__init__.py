"""fbmlab: a numerical laboratory for the H = 1/6 fractional Brownian motion.

Exact path samplers, discrete variation functionals, the weak Stratonovich
limit oracle with its Ito correction, and a Monte Carlo harness that checks
the limit theorems, constants, and moment bounds at desk scale.
"""

from .errors import CapabilityError, ConfigError, DomainError, EmbeddingError
from .kernel import (
    KernelConstants,
    cov_r,
    endpoint_increment_cov,
    gram_matrix,
    hermite,
    kappa_constant,
    left_anchor_cube_sum,
    rho,
    rho_tail_bound,
    right_anchor_cube_sum,
)
from .sampler import (
    Grid,
    Method,
    Path,
    SeedPolicy,
    sample_bm,
    sample_fbm,
)
from .variations import (
    Endpoint,
    Family,
    SmoothMap,
    constant_map,
    monomial_map,
    parse_integrand,
    riemann_strat,
    signed_cubic,
    sin_map,
    weighted_hermite,
)
from .oracle import LimitSample, weak_strat_integral
from .analysis import (
    Estimator,
    TAYLOR_GAMMA,
    covar_bound_audit,
    ks_statistic,
    ks_two_sample,
    moment_scaling,
    orthogonality_audit,
    taylor_residual,
)
from .quadrature import (
    expect_gauss,
    expect_gauss_pair,
    hermite_mean_exact,
    hermite_mean_limit,
    hermite_variance_limit,
    time_integral_expect,
)

__version__ = "0.1.0"
