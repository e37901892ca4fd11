"""Closed-form covariance machinery for the H = 1/6 fractional Brownian motion.

The process B is centered Gaussian with

    R(s, t) = E[B(s)B(t)] = (t^{1/3} + s^{1/3} - |t - s|^{1/3}) / 2,

so increments satisfy E|B(t) - B(s)|^2 = |t - s|^{1/3}.  On the uniform
grid t_j = j/n the increment sequence is stationary with

    E[dB_i dB_j] = n^{-1/3} * rho(i - j),
    rho(r) = (|r + 1|^{1/3} + |r - 1|^{1/3} - 2|r|^{1/3}) / 2,

and the limiting scale of the signed cubic variation is

    kappa^2 = 6 * sum_{r in Z} rho(r)^3  (about 5.391).

Everything here is a pure function of its arguments; all quantities are
double precision and |a|^{1/3} is always the sign-free cube root of the
absolute value, never a complex branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError

# H = 1/6 throughout.  The increment-variance exponent 2H = 1/3 is kept in
# one named constant so the hard-coded Hurst index stays auditable.
HURST = 1.0 / 6.0
INCREMENT_EXPONENT = 2.0 * HURST

# Recurrence-based evaluation is exact for the orders used in this package
# (h_3 for the variations, up to h_6 via quadrature checks).
HERMITE_MAX_ORDER = 12


def _cbrt_abs(x):
    """|x|^{1/3} elementwise."""
    return np.cbrt(np.abs(x))


def cov_r(s, t):
    """Covariance R(s, t) = (t^{1/3} + s^{1/3} - |t - s|^{1/3}) / 2.

    Accepts scalars or broadcastable arrays; rejects negative times.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("cov_r requires nonnegative times")
    out = 0.5 * (_cbrt_abs(t) + _cbrt_abs(s) - _cbrt_abs(t - s))
    return out if out.ndim else float(out)


def rho(r):
    """Normalized lag-r increment correlation of the grid noise.

    rho(r) = (|r+1|^{1/3} + |r-1|^{1/3} - 2|r|^{1/3}) / 2.  Even in r,
    rho(0) = 1, rho(r) < 0 for r != 0, and |rho(r)| ~ (1/9) r^{-5/3}.
    """
    r = np.asarray(r, dtype=float)
    out = 0.5 * (_cbrt_abs(r + 1) + _cbrt_abs(r - 1) - 2.0 * _cbrt_abs(r))
    return out if out.ndim else float(out)


def rho_tail_bound(radius: int) -> float:
    """Upper bound on 6 * sum_{|r| > radius} |rho(r)|^3.

    For r >= 2 the second-difference form gives |rho(r)| <= (1/9)(r-1)^{-5/3},
    hence the tail of the cubed series past radius x is below (1/243)(x-1)^{-4}.
    A short explicitly summed window keeps the bound tight (and monotone in
    the radius) for small truncations as well.
    """
    if radius < 0:
        raise DomainError("truncation radius must be nonnegative")
    window = 256
    lo = max(radius + 1, 1)
    hi = max(radius + window, 2)
    head = 12.0 * float(np.sum(np.abs(rho(np.arange(lo, hi + 1))) ** 3))
    analytic = (1.0 / 243.0) * (hi - 1.0) ** -4
    return head + analytic


@dataclass(frozen=True)
class KernelConstants:
    """kappa^2 = 6 * sum_{|r| <= R} rho(r)^3 together with its tail bound."""

    kappa_sq: float
    kappa: float
    truncation_radius: int
    tail_bound: float


# default lag radius of the truncated kappa^2 sum
DEFAULT_TRUNCATION = 10_000


def kappa_constant(truncation_radius: int = DEFAULT_TRUNCATION) -> KernelConstants:
    """Truncated evaluation of the signed-cubic-variation scale constant.

    The summand decays like r^{-5}, so radius 10^4 determines kappa^2 far
    beyond double-precision needs; the reported tail bound certifies it.
    """
    if truncation_radius < 0:
        raise DomainError("truncation radius must be nonnegative")
    lags = np.arange(-truncation_radius, truncation_radius + 1)
    kappa_sq = 6.0 * float(np.sum(rho(lags) ** 3))
    return KernelConstants(
        kappa_sq=kappa_sq,
        kappa=float(np.sqrt(kappa_sq)),
        truncation_radius=truncation_radius,
        tail_bound=rho_tail_bound(truncation_radius),
    )


def hermite(order: int, x):
    """Probabilists' Hermite polynomial h_order(x) by the three-term recurrence.

    h_0 = 1, h_1 = x, h_{k+1}(x) = x h_k(x) - k h_{k-1}(x); so h_2 = x^2 - 1
    and h_3 = x^3 - 3x.  Supports vector x.
    """
    if order < 0:
        raise DomainError("Hermite order must be nonnegative")
    if order > HERMITE_MAX_ORDER:
        raise CapabilityError(f"Hermite evaluation limited to order {HERMITE_MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if order == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, order):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)


def _cube_root_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    """step[k - 1] = k^{1/3} - (k-1)^{1/3}, k <= top; mirror[top + d] = |d|^{1/3}, |d| <= top."""
    root = np.cbrt(np.arange(top + 1.0))
    return root[1:] - root[:-1], np.concatenate([root[:0:-1], root])


def endpoint_increment_cov(n: int, i, k):
    """E[B(t_i) dB_k] in closed form, for the grid point t_i = i/n.

    E[B(t_i) dB_k] = (2 n^{1/3})^{-1} (k^{1/3} - (k-1)^{1/3}
                                       - |k - i|^{1/3} + |k - i - 1|^{1/3}),
    which equals cov_r(i/n, k/n) - cov_r(i/n, (k-1)/n).  The anchor is given
    by its integer index, so the lag k - i is exact: the 1/3-Hoelder kernel
    would amplify the rounding of n * (i/n) near the diagonal.  All four
    roots are read from one table.  Broadcasts over integer arrays i and k.
    """
    if n < 1:
        raise DomainError("endpoint_increment_cov requires n >= 1")
    i = np.asarray(i)
    k = np.asarray(k)
    if i.dtype.kind != "i" or k.dtype.kind != "i":
        raise DomainError("endpoint_increment_cov requires signed integer grid indices")
    if np.any(i < 0):
        raise DomainError("endpoint_increment_cov requires i >= 0")
    if np.any(k < 1):
        raise DomainError("endpoint_increment_cov requires k >= 1")
    top = max(np.max(i, initial=0), np.max(k, initial=1)) + 1
    step, mirror = _cube_root_tables(top)
    lag = k - i
    lag += top
    out = step[k - 1] - mirror.take(lag)
    lag -= 1
    out += mirror.take(lag)
    out /= 2.0 * np.cbrt(float(n))
    return out if out.ndim else float(out)


def endpoint_increment_block(n: int, m: int, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows i = lo, lo + 1, ... of E[B(t_i) dB_k], k = 1..m, written into out, each
    equal bit for bit to endpoint_increment_cov.  Both lag terms of row i are windows
    of the mirrored root table, the second also row i + 1's first: no index array."""
    if n < 1 or lo < 0 or lo + len(out) > m + 1 or out.shape[1:] != (m,):
        raise DomainError("endpoint_increment_block requires n >= 1 and rows within i = 0..m")
    step, mirror = _cube_root_tables(m + 1)
    lags = np.lib.stride_tricks.sliding_window_view(mirror, m)  # lags[m + 2 - i]: |k - i|^{1/3}
    win = lags[m + 2 - lo - len(out) : m + 3 - lo][::-1]  # win[r]: row lo + r
    np.subtract(step[:m], win[:-1], out=out)
    out += win[1:]
    out /= 2.0 * np.cbrt(float(n))
    return out


def left_anchor_cube_sum(n: int, t: float) -> float:
    """sum_{k <= floor(nt)} | E[B(t_{k-1}) dB_k]^3 + 1/(8n) |.

    Each term telescopes against the cube-root increments, giving the
    analytic bound (3/8) floor(nt)^{1/3} / n, so the sum vanishes like
    n^{-2/3} at fixed t.
    """
    if n < 1 or t < 0:
        raise DomainError("left_anchor_cube_sum requires n >= 1 and t >= 0")
    k = np.arange(1, int(np.floor(n * t + 1e-9)) + 1)
    e = endpoint_increment_cov(n, k - 1, k)
    return float(np.sum(np.abs(e**3 + 1.0 / (8.0 * n))))


def right_anchor_cube_sum(n: int, t: float) -> float:
    """sum_{k <= floor(nt)} | E[B(t_k) dB_k]^3 - 1/(8n) |, same decay."""
    if n < 1 or t < 0:
        raise DomainError("right_anchor_cube_sum requires n >= 1 and t >= 0")
    k = np.arange(1, int(np.floor(n * t + 1e-9)) + 1)
    e = endpoint_increment_cov(n, k, k)
    return float(np.sum(np.abs(e**3 - 1.0 / (8.0 * n))))
