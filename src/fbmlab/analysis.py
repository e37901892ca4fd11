"""Statistical verification harness.

The one-sample Kolmogorov-Smirnov distance from the standard normal, which
is the package's one KS test, log-log scaling fits for the windowed moment
bounds, the symmetric Taylor decomposition behind the trapezoid
correction, and exact covariance-envelope audits.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, DomainError
from .kernel import endpoint_increment_block, rho
from .sampler import Grid
from .variations import SmoothMap, cubic_terms, int_power, prefix_sums
from .quadrature import poly_pair_moment

KS_MIN_SAMPLES = 50
AUDIT_MAX_STEPS = 4096
# endpoint rows per block of covar_bound_audit: its three 4 x 4096 float64
# buffers take 0.38 MiB, and a 4096-step audit traces 0.8 MiB at its peak
# against 1.15 MiB at 8 rows, for about 15 % more audit time than at 8 rows
AUDIT_BLOCK_ROWS = 4

# Symmetric Taylor constant gamma = (5! 2^4)^{-1} - (4! 2^4)^{-1} = -1/480.
TAYLOR_GAMMA = 1.0 / 1920.0 - 1.0 / 384.0


def ks_normal(sample) -> float:
    """Exact sup distance between the empirical CDF of a finite sample and
    the standard normal CDF, Phi(x) = erfc(-x / sqrt 2) / 2."""
    x = np.sort(np.asarray(sample, dtype=float))
    if not np.all(np.isfinite(x)):
        raise DomainError("KS sample contains non-finite values")
    m = len(x)
    if m < KS_MIN_SAMPLES:  # rejects an empty sample too
        raise DomainError(f"KS needs a sample >= {KS_MIN_SAMPLES}")
    phi = 0.5 * np.frompyfunc(math.erfc, 1, 1)(x / -math.sqrt(2.0)).astype(float)
    steps = np.arange(m + 1) / m
    return float(max(np.max(steps[1:] - phi), np.max(phi - steps[:-1])))


class Estimator(enum.Enum):
    CUBIC_4TH = "cubic_4th"
    QUINTIC_2ND = "quintic_2nd"
    WEIGHTED_CUBIC_2ND = "weighted_cubic_2nd"


def _reversed_values(values: np.ndarray) -> np.ndarray:
    # time reversal of fGn is again fGn, so the reversed path obeys the same law
    return values[::-1] - values[-1]


def window_moments(estimator: Estimator, values: np.ndarray, gaps, g: SmoothMap) -> np.ndarray:
    """Window moments of one path's values, one column per gap.

    CUBIC_4TH returns one row: the mean of |sum_{j in window} dB_j^3|^4
    over all disjoint windows of each gap (the cubic sums are stationary
    in the anchor).  The weighted estimators use origin-anchored windows,
    where the moment bounds are gap-tight for weights vanishing at zero,
    and return two rows: half the squared window sum of the path, then of
    its time reversal.  Integer powers are products (int_power), which are
    fast for negative bases and round alike on every IEEE host.
    """
    if estimator is Estimator.CUBIC_4TH:
        cum = prefix_sums(cubic_terms(np.diff(values)))
        return np.array([[np.mean(int_power(np.diff(cum[::gv]), 4)) for gv in gaps]])
    power = 5 if estimator is Estimator.QUINTIC_2ND else 3
    rows = []
    for v in (values, _reversed_values(values)):
        d = np.diff(v)
        beta = 0.5 * (v[:-1] + v[1:])
        cum = np.cumsum(np.asarray(g(beta)) * int_power(d, power))
        rows.append(0.5 * cum[np.asarray(gaps) - 1] ** 2)
    return np.array(rows)


def moment_scaling(n: int, gaps, moments: np.ndarray, replications: int) -> dict:
    """Least-squares fit of log E[window moment] against log(gap / n): its
    slope, its r^2 and the (x, y) points.

    moments stacks the window_moments of every replication in replication
    order; its rows are summed one after another in that order, so the fit
    does not depend on how the replications were split between workers.
    """
    rows = np.asarray(moments).reshape(-1, len(gaps))
    x = np.log(np.array(gaps) / n)
    y = np.log(np.cumsum(rows, axis=0)[-1] / replications)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return {"slope": float(slope), "r_squared": r2, "points": np.column_stack([x, y]).tolist()}


def taylor_residual(g: SmoothMap, a, b):
    """R6 of the symmetric expansion around the midpoint x = (a+b)/2:

    g(b) - g(a) = (g'(a) + g'(b))/2 (b-a) - (1/12) g'''(x) (b-a)^3
                  + gamma g^{(5)}(x) (b-a)^5 + R6(a, b),

    with gamma = -1/480.  R6 vanishes for polynomials of degree <= 5.
    Elementwise over arrays a, b.
    """
    x = 0.5 * (a + b)
    d = b - a
    g1 = g.derivative(1)
    defect = g(b) - g(a) - 0.5 * (g1(a) + g1(b)) * d
    gamma_term = TAYLOR_GAMMA * g.derivative(5)(x) * d**5
    return defect + g.derivative(3)(x) * d**3 / 12.0 - gamma_term


def audit_grid(n: int) -> Grid:
    """The grid of covar_bound_audit on [0, 1]; refuses n > AUDIT_MAX_STEPS,
    and n < 2, where ratio (v) has no lag to compare."""
    grid = Grid(n)
    if grid.m < 2:
        raise DomainError(f"audit needs n >= 2, got {grid.m}")
    if grid.m > AUDIT_MAX_STEPS:
        raise CapabilityError(f"audit limited to n <= {AUDIT_MAX_STEPS}")
    return grid


def covar_bound_audit(n: int) -> dict:
    """Max ratios of exact Gaussian quantities to their decay envelopes.

    Envelopes (Dt = 1/n, q_+ = max(q, 1)):
      (i)   |E dB_i dB_j|        vs Dt^{1/3} |j-i|_+^{-5/3}
      (ii)  |E B(t_i) dB_j|      vs Dt^{1/3} (j^{-2/3} + |j-i|_+^{-2/3})
      (iii) |E beta_i dB_j|      vs the same envelope
      (iv)  |E beta_j dB_j|      vs Dt^{1/3} j^{-2/3}
      (v)   E|beta_j - beta_i|^2 vs |t_j - t_i|^{1/3}, two sided.

    (i) and (v) depend on the lag |j - i| alone and are reduced over lags;
    (ii) and (iii) run in place over blocks of AUDIT_BLOCK_ROWS endpoint rows.
    The report holds the max ratio of each, and the min ratio of (v).
    """
    grid = audit_grid(n)
    m = grid.m
    dt13 = grid.dt ** (1.0 / 3.0)
    j = np.arange(1, m + 1)
    lag = np.arange(0, m + 1)
    lag_pos = np.maximum(lag, 1)  # |j - i|_+

    # (i) stationary: E[dB_i dB_j] = Dt^{1/3} rho(j - i)
    ratio_i = float(np.max(np.abs(rho(lag[:-1])) * lag_pos[:-1] ** (5.0 / 3.0)))

    # (iv) diagonal midpoint coupling: E[beta_j dB_j] = (t_j^{1/3} - t_{j-1}^{1/3}) / 2
    diag = 0.5 * (np.cbrt(j / n) - np.cbrt((j - 1) / n))
    ratio_iv = float(np.max(np.abs(diag) / (dt13 * j ** (-2.0 / 3.0))))

    # (v) stationary increments: at lag d = |j - i| >= 1,
    # E|beta_j - beta_i|^2 / |t_j - t_i|^{1/3}
    #   = (2 d^{1/3} + (d-1)^{1/3} + (d+1)^{1/3} - 2) / (4 d^{1/3})
    d13 = np.cbrt(lag[1:-1])
    gap = (2.0 * d13 + np.cbrt(lag[:-2]) + np.cbrt(lag[2:]) - 2.0) / (4.0 * d13)

    # (ii) rows i = 0..m of E[B(t_i) dB_j]; (iii) midpoint row i >= 1 is the
    # mean of endpoint rows i - 1 and i, so each block carries its last row.
    # The envelope's lag term of row i is a window of the mirrored lag_env.
    ratio_ii = ratio_iii = 0.0
    j_env = j ** (-2.0 / 3.0)
    lag_env = np.maximum(np.abs(np.arange(-m, m + 1)), 1) ** (-2.0 / 3.0)  # [m + d] = |d|_+^{-2/3}
    env_lags = np.lib.stride_tricks.sliding_window_view(lag_env, m)
    rows = min(AUDIT_BLOCK_ROWS, m + 1)
    endpoint = np.zeros((rows + 1, m))  # row 0: the previous block's last row
    env, work = np.empty((2, rows, m))
    for lo in range(0, m + 1, rows):
        h = min(rows, m + 1 - lo)
        eb, v, w = endpoint_increment_block(n, m, lo, endpoint[1 : h + 1]), env[:h], work[:h]
        np.add(j_env, env_lags[m + 2 - lo - h : m + 2 - lo][::-1], out=v)
        v *= dt13  # v[r] = Dt^{1/3} (j^{-2/3} + |j - i|_+^{-2/3}) at i = lo + r
        ratio_ii = float(np.max(np.divide(np.abs(eb, out=w), v, out=w), initial=ratio_ii))
        np.add(endpoint[:h], eb, out=w)  # w[r]: midpoint row lo + r, none at i = 0
        w *= 0.5
        np.divide(np.abs(w, out=w), v, out=w)
        ratio_iii = float(np.max(w[int(lo == 0) :], initial=ratio_iii))
        endpoint[0] = eb[-1]

    return {
        "n": n,
        "i_increment_max": ratio_i,
        "ii_endpoint_max": ratio_ii,
        "iii_midpoint_max": ratio_iii,
        "iv_diagonal_max": ratio_iv,
        "v_gap_max": float(np.max(gap, initial=0.0)),
        "v_gap_min": float(np.min(gap, initial=np.inf)),
    }


@lru_cache(maxsize=None)
def _hermite_coefficients(order: int) -> tuple[float, ...]:  # of h_order, constant first
    prev, h = [], [1.0]
    for k in range(order):  # h_{k+1} = x h_k - k h_{k-1}
        nxt = [0.0, *h]
        for m, c in enumerate(prev):
            nxt[m] -= k * c
        prev, h = h, nxt
    return tuple(h)


def orthogonality_audit(p: int, q: int, correlation: float) -> float:
    """Deviation of E[h_p(U) h_q(V)] from Mehler's delta_pq p! c^p.

    U, V are standard normal with correlation c; the expectation is the
    Isserlis sum poly_pair_moment over the monomial coefficients of h_p and
    h_q, the function closed_pair_moment's polynomial branch rests on.
    """
    if p < 0 or q < 0 or p > 4 or q > 4:
        raise DomainError("orthogonality audit supports orders 0..4")
    if abs(correlation) > 1:
        raise DomainError("|correlation| must be at most 1")
    h_p, h_q = _hermite_coefficients(p), _hermite_coefficients(q)
    expected = float(math.factorial(p)) * correlation**p if p == q else 0.0
    return float(poly_pair_moment(h_p, h_q, 1.0, 1.0, correlation) - expected)
