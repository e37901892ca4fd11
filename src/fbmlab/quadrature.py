"""Quadrature oracles for Gaussian expectations of the integrand families.

Gauss-Hermite rules compute E[f(X)] for X ~ N(0, var) and mixed moments
E[f(X) g(Y)] of a correlated Gaussian pair; Gauss-Legendre rules handle the
time integrals.  Together they evaluate the two limit functionals of the
weighted third-Hermite variation with left endpoints,

    mean:      -(1/8) int_0^t E[g'''(B_s)] ds,
    variance:  kappa^2 int_0^t E[g^2(B_s)] ds
               + (1/64) E[( int_0^t g'''(B_s) ds )^2] - mean^2,

where Var(B_s) = s^{1/3} and Cov(B_s, B_u) = R(s, u), plus the exact
finite-n mean sum_j E[g'''(B(t_{j-1}))] E[B(t_{j-1}) dB_j]^3.  For the
trig and exp families the inner pair moment E[g'''(B_s) g'''(B_u)] of the
double integral is a Gaussian characteristic function, evaluated in closed
form on the whole Gauss-Legendre grid; polynomials keep the bivariate
Gauss-Hermite rule, which is exact for them.

These are used as independent oracles by the statistical harness; they
never touch sampled paths.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import cov_r, endpoint_increment_cov
from .variations import Family, SmoothMap

GH_NODES = 64
GL_NODES = 64


@lru_cache(maxsize=8)
def _gauss_hermite(nodes: int):
    # physicists' weight e^{-x^2}; rescale to the standard normal measure
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


@lru_cache(maxsize=8)
def _gauss_legendre_01(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def expect_gauss(f, var: float, nodes: int = GH_NODES) -> float:
    """E[f(X)] for X ~ N(0, var)."""
    if var < 0:
        raise DomainError("variance must be nonnegative")
    if var == 0.0:
        return float(f(0.0))
    z, w = _gauss_hermite(nodes)
    return float(np.dot(w, f(np.sqrt(var) * z)))

def expect_gauss_pair(f, g, var_x: float, var_y: float, cov: float,
                      nodes: int = GH_NODES) -> float:
    """E[f(X) g(Y)] for centered jointly Gaussian (X, Y).

    Uses the Cholesky substitution Y = (cov/sx) Z1 + sqrt(var_y - cov^2/var_x) Z2
    on a tensor Gauss-Hermite grid.
    """
    if var_x < 0 or var_y < 0:
        raise DomainError("variances must be nonnegative")
    if var_x == 0.0:
        return float(f(0.0)) * expect_gauss(g, var_y, nodes)
    if var_y == 0.0:
        return expect_gauss(f, var_x, nodes) * float(g(0.0))
    corr = cov / np.sqrt(var_x * var_y)
    if abs(corr) > 1 + 1e-12:
        raise DomainError(f"|correlation| = {abs(corr)} exceeds 1")
    corr = float(np.clip(corr, -1.0, 1.0))
    z, w = _gauss_hermite(nodes)
    sx, sy = np.sqrt(var_x), np.sqrt(var_y)
    fx = np.asarray(f(sx * z))
    ygrid = sy * (corr * z[:, None] + np.sqrt(1.0 - corr * corr) * z[None, :])
    gy = np.asarray(g(ygrid))
    return float(np.einsum("i,j,i,ij->", w, w, fx, gy))


def time_integral_expect(f, t: float, nodes: int = GL_NODES) -> float:
    """int_0^t E[f(B_s)] ds via Gauss-Legendre over s and Gauss-Hermite in x.

    Substituting s = u^3 removes the s^{1/3} cusp of Var(B_s) at the origin,
    so the rule converges at spectral rate for the closed-form families.
    """
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    u, w = _gauss_legendre_01(nodes)
    u = t ** (1.0 / 3.0) * u
    vals = np.array([expect_gauss(f, uv) for uv in u])
    jac = 3.0 * t ** (1.0 / 3.0) * u**2
    return float(np.dot(w * jac, vals))


def hermite_mean_limit(g: SmoothMap, t: float) -> float:
    """Limit mean -(1/8) int_0^t E[g'''(B_s)] ds of the left-endpoint variation."""
    g3 = g.derivative(3)
    return -0.125 * time_integral_expect(g3, t)


def hermite_mean_exact(g: SmoothMap, n: int, t: float) -> float:
    """Exact finite-n mean sum_{j <= nt} E[g'''(B(t_{j-1}))] E[B(t_{j-1}) dB_j]^3."""
    if n < 1 or t < 0:
        raise DomainError("hermite_mean_exact requires n >= 1 and t >= 0")
    j = int(np.floor(n * t + 1e-9))
    if j == 0:
        return 0.0
    g3 = g.derivative(3)
    k = np.arange(1, j + 1)
    e = np.asarray(endpoint_increment_cov(n, k - 1, k))
    means = np.array(
        [expect_gauss(g3, ((kk - 1) / n) ** (1.0 / 3.0)) for kk in k]
    )
    return float(np.sum(means * e**3))


def closed_pair_moment(f: SmoothMap, var_x, var_y, cov):
    """E[f(X) f(Y)] for centered jointly Gaussian (X, Y) and a trig or exp f.

    For f = a sin(bx + c), sin A sin B = (cos(A - B) - cos(A + B)) / 2 gives
    (a^2/2) [e^{-b^2 Var(X-Y)/2} - cos(2c) e^{-b^2 Var(X+Y)/2}]; for
    f = a e^{bx} it is a^2 e^{b^2 Var(X+Y)/2}.  The arguments broadcast.
    """
    if f.family is Family.TRIG:
        a, b, c = f.params
        minus = np.exp(-0.5 * b * b * (var_x + var_y - 2.0 * cov))
        plus = np.exp(-0.5 * b * b * (var_x + var_y + 2.0 * cov))
        return 0.5 * a * a * (minus - math.cos(2.0 * c) * plus)
    if f.family is Family.EXP:
        a, b = f.params
        return a * a * np.exp(0.5 * b * b * (var_x + var_y + 2.0 * cov))
    raise DomainError("closed_pair_moment takes a trig or exp map")


def hermite_variance_limit(g: SmoothMap, t: float, kappa_sq: float,
                           nodes: int = GL_NODES) -> float:
    """Limit variance of the left-endpoint variation at time t.

    The limit second moment kappa^2 int_0^t E[g^2]
    + (1/64) int int E[g'''(B_s) g'''(B_u)] ds du less the squared limit
    mean hermite_mean_limit(g, t).  The double integral is a tensor
    Gauss-Legendre rule over (s, u) with the exact covariance R(s, u).  Its
    inner pair moment is closed_pair_moment, one array expression over the
    whole grid, for trig and exp maps; a polynomial keeps one bivariate
    Gauss-Hermite rule per node pair, which is exact for it.
    """
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    g3 = g.derivative(3)
    sq_term = kappa_sq * time_integral_expect(lambda x: np.asarray(g(x)) ** 2, t)
    s, w = _gauss_legendre_01(nodes)
    s = t * s
    var = s ** (1.0 / 3.0)
    cov = cov_r(s[:, None], s[None, :])
    if g3.family is Family.POLYNOMIAL:
        pair = np.array([
            [expect_gauss_pair(g3, g3, var[i], var[j], float(cov[i, j])) for j in range(len(s))]
            for i in range(len(s))
        ])
    else:
        pair = closed_pair_moment(g3, var[:, None], var[None, :], cov)
    double = 0.0
    for i in range(len(s)):
        double += w[i] * np.dot(w, pair[i])
    double *= t * t
    return float(sq_term + double / 64.0 - hermite_mean_limit(g, t) ** 2)
