"""Statistical verification harness.

Distribution-free two-sample Kolmogorov-Smirnov distances, plug-in moment
estimators with jackknife standard errors, log-log scaling fits for the
windowed moment bounds, the symmetric Taylor decomposition behind the
trapezoid correction, and exact covariance-envelope audits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError
from .kernel import cov_r, hermite, rho
from .sampler import Grid, Path
from .variations import SmoothMap
from .quadrature import expect_gauss_pair

# Asymptotic two-sample KS critical coefficient at alpha = 0.01:
# c(alpha) = sqrt(-ln(alpha/2) / 2) = 1.628...
KS_COEFF_001 = 1.628

KS_MIN_SAMPLES = 50
MOMENT_MAX_ORDER = 8
MOMENT_MIN_SAMPLES = 100
SCALING_MIN_REPLICATIONS = 200
AUDIT_MAX_STEPS = 4096

# Symmetric Taylor constant gamma = (5! 2^4)^{-1} - (4! 2^4)^{-1} = -1/480.
TAYLOR_GAMMA = 1.0 / 1920.0 - 1.0 / 384.0


@dataclass(frozen=True)
class SampleSet:
    """A vector of scalar Monte Carlo outputs plus provenance."""

    values: np.ndarray
    descriptor: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0:
            raise DomainError("empty sample set")
        if not np.all(np.isfinite(vals)):
            raise DomainError("sample set contains non-finite values")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical_001: float
    sample_sizes: tuple[int, int]

    @property
    def rejects_at_1pct(self) -> bool:
        return self.statistic > self.critical_001


def ks_statistic(a, b) -> float:
    """Exact sup distance between the two empirical CDFs (no size floor)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    grid.sort()
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_two_sample(a: SampleSet, b: SampleSet) -> KsResult:
    m1, m2 = len(a), len(b)
    if m1 < KS_MIN_SAMPLES or m2 < KS_MIN_SAMPLES:
        raise DomainError(f"KS needs both samples >= {KS_MIN_SAMPLES}")
    return KsResult(
        statistic=ks_statistic(a.values, b.values),
        critical_001=KS_COEFF_001 * float(np.sqrt((m1 + m2) / (m1 * m2))),
        sample_sizes=(m1, m2),
    )


def mc_moment(samples: SampleSet, order: int) -> tuple[float, float]:
    """Plug-in raw moment mean(x^order) with jackknife standard error."""
    if order < 1 or order > MOMENT_MAX_ORDER:
        raise DomainError(f"moment order must be in 1..{MOMENT_MAX_ORDER}")
    if len(samples) < MOMENT_MIN_SAMPLES:
        raise DomainError(f"need at least {MOMENT_MIN_SAMPLES} samples")
    y = samples.values**order
    m = len(y)
    estimate = float(np.mean(y))
    loo = (np.sum(y) - y) / (m - 1)
    se = float(np.sqrt((m - 1) / m * np.sum((loo - np.mean(loo)) ** 2)))
    return estimate, se


class Estimator(enum.Enum):
    CUBIC_4TH = "cubic_4th"
    QUINTIC_2ND = "quintic_2nd"
    WEIGHTED_CUBIC_2ND = "weighted_cubic_2nd"


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def fit_loglog(log_x, log_y) -> ScalingFit:
    x = np.asarray(log_x, dtype=float)
    y = np.asarray(log_y, dtype=float)
    if len(np.unique(x)) < 2:
        raise DomainError("degenerate regression: need at least two distinct gaps")
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        points=tuple(zip(x.tolist(), y.tolist())),
    )


def _reversed_values(values: np.ndarray) -> np.ndarray:
    # time reversal of fGn is again fGn, so the reversed path obeys the same law
    return values[::-1] - values[-1]


def scaling_ladder(
    n: int, gaps, replications: int, horizon: float | None = None
) -> tuple[Grid, list[int]]:
    """Validate a moment-scaling ladder; return its grid and its sorted gaps.

    The horizon defaults to the largest gap, so the longest window spans
    the whole grid.
    """
    gaps = sorted(int(gv) for gv in gaps)
    if len(set(gaps)) < 2:
        raise DomainError("degenerate ladder: need at least two distinct gaps")
    if min(gaps) < 1:
        raise DomainError("gaps must be positive")
    if replications < SCALING_MIN_REPLICATIONS:
        raise DomainError(f"need at least {SCALING_MIN_REPLICATIONS} replications")
    if horizon is None:
        horizon = max(gaps) / n
    grid = Grid(n, horizon)
    if max(gaps) > grid.m:
        raise DomainError(f"largest gap {max(gaps)} exceeds the grid ({grid.m} steps)")
    return grid, gaps


def window_moments(estimator: Estimator, path: Path, gaps, g: SmoothMap) -> np.ndarray:
    """Window moments of one path, one column per gap of a validated ladder.

    CUBIC_4TH returns one row: the mean of |sum_{j in window} dB_j^3|^4
    over all disjoint windows of each gap (the cubic sums are stationary
    in the anchor).  The weighted estimators use origin-anchored windows,
    where the moment bounds are gap-tight for weights vanishing at zero,
    and return two rows: half the squared window sum of the path, then of
    its time reversal.
    """
    if estimator is Estimator.CUBIC_4TH:
        cum = np.concatenate([[0.0], np.cumsum(path.increments() ** 3)])
        return np.array([[np.mean(np.diff(cum[::gv]) ** 4) for gv in gaps]])
    power = 5 if estimator is Estimator.QUINTIC_2ND else 3
    rows = []
    for values in (path.values, _reversed_values(path.values)):
        d = np.diff(values)
        beta = 0.5 * (values[:-1] + values[1:])
        cum = np.cumsum(np.asarray(g(beta)) * d**power)
        rows.append(0.5 * cum[np.asarray(gaps) - 1] ** 2)
    return np.array(rows)


def moment_scaling(n: int, gaps, moments: np.ndarray, replications: int) -> ScalingFit:
    """Fit log E[window moment] against log(gap / n).

    moments stacks the window_moments of every replication in replication
    order; its rows are summed one after another in that order, so the fit
    does not depend on how the replications were chunked.
    """
    rows = np.asarray(moments).reshape(-1, len(gaps))
    means = np.cumsum(rows, axis=0)[-1] / replications
    return fit_loglog(np.log(np.array(gaps) / n), np.log(means))


class TaylorPieces(NamedTuple):
    trapezoid_defect: float
    gamma_term: float
    r6: float


def taylor_residual(g: SmoothMap, a: float, b: float) -> TaylorPieces:
    """Pieces of the symmetric expansion around the midpoint x = (a+b)/2:

    g(b) - g(a) = (g'(a) + g'(b))/2 (b-a) - (1/12) g'''(x) (b-a)^3
                  + gamma g^{(5)}(x) (b-a)^5 + R6(a, b),

    with gamma = -1/480.  Returned are the trapezoid defect
    g(b) - g(a) - (g'(a)+g'(b))/2 (b-a), the gamma term, and R6; R6
    vanishes for polynomials of degree <= 5.
    """
    x = 0.5 * (a + b)
    d = b - a
    g1 = g.derivative(1)
    defect = float(g(b)) - float(g(a)) - 0.5 * (float(g1(a)) + float(g1(b))) * d
    gamma_term = TAYLOR_GAMMA * float(g.derivative(5)(x)) * d**5
    r6 = defect + float(g.derivative(3)(x)) * d**3 / 12.0 - gamma_term
    return TaylorPieces(trapezoid_defect=defect, gamma_term=gamma_term, r6=r6)


@dataclass(frozen=True)
class CovarAudit:
    """Max ratios of exact Gaussian quantities to their decay envelopes.

    Envelopes (Dt = 1/n, q_+ = max(q, 1)):
      (i)   |E dB_i dB_j|        vs Dt^{1/3} |j-i|_+^{-5/3}
      (ii)  |E B(t_i) dB_j|      vs Dt^{1/3} (j^{-2/3} + |j-i|_+^{-2/3})
      (iii) |E beta_i dB_j|      vs the same envelope
      (iv)  |E beta_j dB_j|      vs Dt^{1/3} j^{-2/3}
      (v)   E|beta_j - beta_i|^2 vs |t_j - t_i|^{1/3}, two sided.
    """

    n: int
    horizon: float
    increment_ratio_max: float
    endpoint_ratio_max: float
    midpoint_ratio_max: float
    diagonal_ratio_max: float
    midpoint_gap_ratio_max: float
    midpoint_gap_ratio_min: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "i_increment_max": self.increment_ratio_max,
            "ii_endpoint_max": self.endpoint_ratio_max,
            "iii_midpoint_max": self.midpoint_ratio_max,
            "iv_diagonal_max": self.diagonal_ratio_max,
            "v_gap_max": self.midpoint_gap_ratio_max,
            "v_gap_min": self.midpoint_gap_ratio_min,
        }


def _pos_clip(r):
    return np.maximum(np.abs(r), 1.0)


def covar_bound_audit(n: int, horizon: float = 1.0, block: int = 512) -> CovarAudit:
    """Exact covariance quantities against the envelopes, blockwise in memory."""
    grid = Grid(n, horizon)
    m = grid.m
    if m > AUDIT_MAX_STEPS:
        raise CapabilityError(f"audit limited to n * horizon <= {AUDIT_MAX_STEPS}")
    dt13 = grid.dt ** (1.0 / 3.0)
    j = np.arange(1, m + 1)
    tj = j / n
    tj_prev = (j - 1) / n

    # (i) stationary, reduce over lags
    lag = np.arange(0, m)
    ratio_i = float(np.max(np.abs(np.asarray(rho(lag))) * _pos_clip(lag) ** (5.0 / 3.0)))

    # (iv) diagonal midpoint coupling: E[beta_j dB_j] = (t_j^{1/3} - t_{j-1}^{1/3}) / 2
    diag = 0.5 * (np.cbrt(tj) - np.cbrt(tj_prev))
    ratio_iv = float(np.max(np.abs(diag) / (dt13 * j ** (-2.0 / 3.0))))

    ratio_ii = 0.0
    ratio_iii = 0.0
    ratio_v_max = 0.0
    ratio_v_min = np.inf

    def env_ij(idx):
        return dt13 * (
            j[None, :] ** (-2.0 / 3.0)
            + _pos_clip(j[None, :] - idx[:, None]) ** (-2.0 / 3.0)
        )

    for lo in range(0, m + 1, block):
        hi = min(lo + block, m + 1)
        ti = np.arange(lo, hi) / n  # endpoint times t_i, i = lo..hi-1
        # E[B(t_i) dB_j] = R(t_i, t_j) - R(t_i, t_{j-1})
        eb = np.asarray(cov_r(ti[:, None], tj[None, :])) - np.asarray(
            cov_r(ti[:, None], tj_prev[None, :])
        )
        ratio_ii = max(ratio_ii, float(np.max(np.abs(eb) / env_ij(np.arange(lo, hi)))))
        # midpoint rows need i >= 1: E[beta_i dB_j] = (E[B(t_{i-1}) dB_j] + E[B(t_i) dB_j]) / 2
        ilo = max(lo, 1)
        if ilo < hi:
            ti_prev = (np.arange(ilo, hi) - 1) / n
            eb_prev = np.asarray(cov_r(ti_prev[:, None], tj[None, :])) - np.asarray(
                cov_r(ti_prev[:, None], tj_prev[None, :])
            )
            emid = 0.5 * (eb[ilo - lo :, :] + eb_prev)
            ratio_iii = max(
                ratio_iii, float(np.max(np.abs(emid) / env_ij(np.arange(ilo, hi))))
            )
            # (v) E|beta_j - beta_i|^2 over the strict upper triangle of this block
            ii = np.arange(ilo, hi)
            var_i = 0.25 * (
                np.cbrt(ti_prev)
                + np.cbrt(ii / n)
                + 2.0 * np.asarray(cov_r(ti_prev, ii / n))
            )
            var_j = 0.25 * (np.cbrt(tj_prev) + np.cbrt(tj) + 2.0 * np.asarray(cov_r(tj_prev, tj)))
            cross = 0.25 * (
                np.asarray(cov_r(ti_prev[:, None], tj_prev[None, :]))
                + np.asarray(cov_r(ti_prev[:, None], tj[None, :]))
                + np.asarray(cov_r((ii / n)[:, None], tj_prev[None, :]))
                + np.asarray(cov_r((ii / n)[:, None], tj[None, :]))
            )
            gap2 = var_i[:, None] + var_j[None, :] - 2.0 * cross
            denom = np.cbrt(np.abs(tj[None, :] - (ii / n)[:, None]))
            off = ii[:, None] != j[None, :]
            ratios = gap2[off] / denom[off]
            if ratios.size:
                ratio_v_max = max(ratio_v_max, float(np.max(ratios)))
                ratio_v_min = min(ratio_v_min, float(np.min(ratios)))

    return CovarAudit(
        n=n,
        horizon=horizon,
        increment_ratio_max=ratio_i,
        endpoint_ratio_max=ratio_ii,
        midpoint_ratio_max=ratio_iii,
        diagonal_ratio_max=ratio_iv,
        midpoint_gap_ratio_max=ratio_v_max,
        midpoint_gap_ratio_min=ratio_v_min,
    )


def orthogonality_audit(p: int, q: int, correlation: float, nodes: int = 48) -> float:
    """Deviation of the quadrature value E[h_p(U) h_q(V)] from q! c^q [p == q].

    U, V are standard normal with correlation c; the expectation is computed
    by a bivariate Gauss-Hermite rule with at least 40 nodes per axis.
    """
    if p < 0 or q < 0 or p > 4 or q > 4:
        raise DomainError("orthogonality audit supports orders 0..4")
    if abs(correlation) > 1:
        raise DomainError("|correlation| must be at most 1")
    nodes = max(nodes, 40)
    value = expect_gauss_pair(
        lambda x: np.asarray(hermite(p, x)),
        lambda y: np.asarray(hermite(q, y)),
        1.0,
        1.0,
        correlation,
        nodes=nodes,
    )
    expected = float(math.factorial(q)) * correlation**q if p == q else 0.0
    return float(value - expected)
