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
from functools import lru_cache

import numpy as np

from .errors import DomainError

# H = 1/6 throughout.  The increment-variance exponent 2H = 1/3 is kept in
# one named constant so the hard-coded Hurst index stays auditable.
HURST = 1.0 / 6.0
INCREMENT_EXPONENT = 2.0 * HURST


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
    # 0.5 * (cbrt|r + 1| + cbrt|r - 1| - 2.0 * cbrt|r|) bit for bit, by the same
    # ufuncs on the same operands, in two buffers; out= keeps a 0-d input an array
    out, tmp = np.add(r, 1.0, out=np.empty_like(r)), np.subtract(r, 1.0, out=np.empty_like(r))
    for buf in (out, tmp):
        np.cbrt(np.abs(buf, out=buf), out=buf)
    out += tmp
    np.cbrt(np.abs(r, out=tmp), out=tmp)
    tmp *= 2.0
    out -= tmp
    out *= 0.5
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
    cubes = rho(lags)
    kappa_sq = 6.0 * float(np.sum(np.power(cubes, 3, out=cubes)))
    return KernelConstants(
        kappa_sq=kappa_sq,
        kappa=float(np.sqrt(kappa_sq)),
        truncation_radius=truncation_radius,
        tail_bound=rho_tail_bound(truncation_radius),
    )


def cubic_variance_exact(n: int) -> float:
    """Exact Var V_n(B, 1) of the signed cubic variation on n steps.

    By Wick's formula, Cov(dB_j^3, dB_k^3) = 9 n^{-2/3} E[dB_j dB_k] + 6 n^{-1} rho(j - k)^3,
    and the first term sums to 9 n^{-2/3} Var B(1), so
    Var V_n = 6 n^{-1} sum_{|l| < n} (n - |l|) rho(l)^3 + 9 n^{-2/3}, which tends to kappa^2.
    """
    if n < 1:
        raise DomainError("cubic_variance_exact requires n >= 1")
    lags = np.arange(1 - n, n)
    return 6.0 * float(np.dot(n - np.abs(lags), rho(lags) ** 3)) / n + 9.0 * n ** (-2.0 / 3.0)


@lru_cache(maxsize=8)
def _cube_root_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    """step[k - 1] = k^{1/3} - (k-1)^{1/3}, k <= top; mirror[top + d] = |d|^{1/3}, |d| <= top.

    Built once per top, for the last few tops, and shared by every caller, so both
    arrays are read-only: each block of covar_bound_audit reads the same pair."""
    root = np.cbrt(np.arange(top + 1.0))
    step, mirror = root[1:] - root[:-1], np.concatenate([root[:0:-1], root])
    step.flags.writeable = mirror.flags.writeable = False
    return step, mirror


def anchor_covariances(n: int) -> tuple[np.ndarray, np.ndarray]:
    """E[B(t_{k-1}) dB_k] and E[B(t_k) dB_k] = (k^{1/3} - (k-1)^{1/3} -+ 1) / (2 n^{1/3}),
    k = 1..n: the two diagonals of endpoint_increment_block, bit for bit."""
    if n < 1:
        raise DomainError("anchor_covariances requires n >= 1")
    step, scale = _cube_root_tables(n)[0], 2.0 * np.cbrt(float(n))
    return (step - 1.0) / scale, (step + 1.0) / scale


def endpoint_increment_block(n: int, m: int, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows i = lo, lo + 1, ... of E[B(t_i) dB_k] = cov_r(i/n, k/n) - cov_r(i/n, (k-1)/n)
    = (k^{1/3} - (k-1)^{1/3} - |k - i|^{1/3} + |k - i - 1|^{1/3}) / (2 n^{1/3}), k = 1..m,
    written into out.  The integer anchor i keeps the lag k - i exact, and both lag
    terms of row i are windows of the mirrored root table, the second also row i + 1's."""
    if n < 1 or lo < 0 or lo + len(out) > m + 1 or out.shape[1:] != (m,):
        raise DomainError("endpoint_increment_block requires n >= 1 and rows within i = 0..m")
    step, mirror = _cube_root_tables(m + 1)
    lags = np.lib.stride_tricks.sliding_window_view(mirror, m)  # lags[m + 2 - i]: |k - i|^{1/3}
    win = lags[m + 2 - lo - len(out) : m + 3 - lo][::-1]  # win[r]: row lo + r
    np.subtract(step[:m], win[:-1], out=out)
    out += win[1:]
    out /= 2.0 * np.cbrt(float(n))
    return out


def anchor_cube_sums(n: int) -> tuple[float, float]:
    """The left and right anchored cube defects on [0, 1],

        sum_{k <= n} | E[B(t_{k-1}) dB_k]^3 + 1/(8n) |,
        sum_{k <= n} | E[B(t_k) dB_k]^3 - 1/(8n) |.

    With s_k = k^{1/3} - (k-1)^{1/3} in (0, 1], the terms are (1 - (1 - s_k)^3)/(8n)
    <= 3 s_k/(8n) and ((1 + s_k)^3 - 1)/(8n) <= 7 s_k/(8n), and the s_k telescope
    to n^{1/3}: the sums are at most (3/8) n^{-2/3} and (7/8) n^{-2/3}.
    """
    left, right = anchor_covariances(n)
    return (
        float(np.sum(np.abs(left**3 + 1.0 / (8.0 * n)))),
        float(np.sum(np.abs(right**3 - 1.0 / (8.0 * n)))),
    )
