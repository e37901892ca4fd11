"""Quadrature oracles for Gaussian expectations of the integrand families.

Gauss-Hermite rules compute E[f(X)] for X ~ N(0, var) and mixed moments
E[f(X) g(Y)] of a correlated Gaussian pair; Gauss-Legendre rules handle the
time integrals.  Together they evaluate the two limit functionals of the
weighted third-Hermite variation with left endpoints,

    mean:      -(1/8) int_0^1 E[g'''(B_s)] ds,
    variance:  kappa^2 int_0^1 E[g^2(B_s)] ds
               + (1/64) E[( int_0^1 g'''(B_s) ds )^2] - mean^2,

where Var(B_s) = s^{1/3} and Cov(B_s, B_u) = R(s, u), plus the exact
finite-n mean sum_j E[g'''(B(t_{j-1}))] E[B(t_{j-1}) dB_j]^3 and, for the
trig and exp families, the exact finite-n variance.  For the trig and exp
families the inner pair moment E[g'''(B_s) g'''(B_u)] of the double integral is a
Gaussian characteristic function, evaluated in closed form on the whole
Gauss-Legendre grid; polynomials keep the bivariate Gauss-Hermite rule,
which is exact for them.  riemann_mean_exact is the exact finite-n mean of
the trapezoid sum less its antiderivative part, which centres converge's
pivots.

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


def time_integral_expect(f, nodes: int = GL_NODES) -> float:
    """int_0^1 E[f(B_s)] ds via Gauss-Legendre over s and Gauss-Hermite in x.

    Substituting s = u^3 removes the s^{1/3} cusp of Var(B_s) at the origin,
    so the rule converges at spectral rate for the closed-form families.
    """
    u, w = _gauss_legendre_01(nodes)
    vals = np.array([expect_gauss(f, uv) for uv in u])
    return float(np.dot(w * (3.0 * u**2), vals))


def hermite_mean_limit(g: SmoothMap) -> float:
    """Limit mean -(1/8) int_0^1 E[g'''(B_s)] ds of the left-endpoint variation."""
    return -0.125 * time_integral_expect(g.derivative(3))


def _grid_means(f, i: np.ndarray, n: int) -> np.ndarray:
    """E[f(B(t_i))] for each grid index in i, by the Gauss-Hermite rule."""
    z, w = _gauss_hermite(GH_NODES)
    sd = np.sqrt(np.cbrt(i / n))
    means = np.empty(len(i))
    for lo in range(0, len(i), 256):  # 256 x GH_NODES tables: 128 KiB each, not n x GH_NODES
        means[lo : lo + 256] = np.asarray(f(sd[lo : lo + 256, None] * z)) @ w
    return means


def hermite_mean_exact(g: SmoothMap, n: int) -> float:
    """Exact finite-n mean sum_{j <= n} E[g'''(B(t_{j-1}))] E[B(t_{j-1}) dB_j]^3."""
    if n < 1:
        raise DomainError("hermite_mean_exact requires n >= 1")
    k = np.arange(1, n + 1)
    e = np.asarray(endpoint_increment_cov(n, k - 1, k))
    return float(np.sum(_grid_means(g.derivative(3), k - 1, n) * e**3))


def riemann_mean_exact(g: SmoothMap, n: int) -> float:
    """Exact finite-n mean of R_n(g) = I_n(g, B, 1) - G(B(1)) + G(0), G' = g.

    Gaussian integration by parts, E[g(X) Y] = E[XY] E[g'(X)], gives
    E I_n = sum_k (E[B(t_{k-1}) dB_k] E g'(B(t_{k-1})) + E[B(t_k) dB_k] E g'(B(t_k))) / 2,
    and B(1) ~ N(0, 1).  O(n) time, like hermite_mean_exact.
    """
    if n < 1:
        raise DomainError("riemann_mean_exact requires n >= 1")
    k = np.arange(1, n + 1)
    left = np.asarray(endpoint_increment_cov(n, k - 1, k))
    right = np.asarray(endpoint_increment_cov(n, k, k))
    means = _grid_means(g.derivative(1), np.arange(n + 1), n)  # E g'(B(t_i)), i = 0..n
    big_g = g.antiderivative()
    riemann = 0.5 * float(np.sum(left * means[:-1] + right * means[1:]))
    return riemann - expect_gauss(big_g, 1.0) + float(big_g(0.0))


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


def hermite_variance_limit(g: SmoothMap, kappa_sq: float, nodes: int = GL_NODES) -> float:
    """Limit variance of the left-endpoint variation at time 1.

    The limit second moment kappa^2 int_0^1 E[g^2]
    + (1/64) int int E[g'''(B_s) g'''(B_u)] ds du less the squared limit
    mean hermite_mean_limit(g).  The double integral is a tensor
    Gauss-Legendre rule over (s, u) with the exact covariance R(s, u).  Its
    inner pair moment is closed_pair_moment, one array expression over the
    whole grid, for trig and exp maps; a polynomial keeps one bivariate
    Gauss-Hermite rule per node pair, which is exact for it.
    """
    g3 = g.derivative(3)
    sq_term = kappa_sq * time_integral_expect(lambda x: np.asarray(g(x)) ** 2)
    s, w = _gauss_legendre_01(nodes)
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
    return float(sq_term + double / 64.0 - hermite_mean_limit(g) ** 2)


def _wick_h3_terms(p_scale, r) -> list:
    """The p^m terms, m = 0..3, of S(p, r) = -p^3 + 9p^2 r - 18p r^2 + 6r^3,
    each with p_scale^m in place of p^m."""
    return [6.0 * r**3, -18.0 * r * r * p_scale, 9.0 * r * p_scale**2, -(p_scale**3)]


def hermite_variance_exact(g: SmoothMap, n: int) -> float:
    """Exact finite-n Var(G_n^-(g)) of the left-endpoint variation at time 1,
    for a trig or exp map.

    G_n^- = n^{-1/2} sum_j g(A_j) h_3(X_j), with A_j = B(t_{j-1}) and
    X_j = n^{1/6} dB_j.  For centred jointly Gaussian (L, U, V) with
    Var U = Var V = 1, r = Cov(U, V) and p = Cov(L, U) Cov(L, V), Wick's
    formula gives E[e^{iL} h_3(U) h_3(V)] = e^{-Var L/2} S(p, r), with
    S(p, r) = -p^3 + 9p^2 r - 18p r^2 + 6r^3, and for a real exponent
    E[e^L h_3(U) h_3(V)] = e^{Var L/2} S(-p, r).  The weights g(A_j) g(A_k)
    are (a^2/2)[cos(b(A_j - A_k)) - cos(b(A_j + A_k) + 2c)] for
    a sin(bx + c), and a^2 e^{b(A_j + A_k)} for a e^{bx}.

    With l = j - k, D(l) = |l|^{1/3} - |l-1|^{1/3} and h = n^{-1/6}/2,
    r = rho(l) = (D(l+1) - D(l))/2 and B has stationary increments, so:
      * A_j - A_k has variance (|l|/n)^{1/3} and p = (bh)^2 (D(l+1) - 1)(D(l) + 1):
        its n^2 pairs are one sum over the 2n - 1 lags, weighted n - |l|;
      * A_j + A_k has variance 2 Var A_j + 2 Var A_k - (|l|/n)^{1/3} and
        p = (bh)^2 (a_j - D(l+1))(a_k + D(l)), a_j = 2(j^{1/3} - (j-1)^{1/3}) - 1.
        Expanding S in powers of a_j and a_k leaves 16 cross-correlations of
        beta a^s with beta a^t, beta_j = e^{-+b^2 Var A_j}, one FFT each.
    So it costs O(n log n) time and O(n) memory.  The mean it subtracts is
    hermite_mean_exact(g, n).
    """
    if n < 1:
        raise DomainError("hermite_variance_exact requires n >= 1")
    if g.family is Family.TRIG:
        a, b, c = g.params
        sign = 1.0  # e^{iL}: S(p, r) under the damping e^{-Var L/2}
    elif g.family is Family.EXP:
        a, b = g.params
        sign = -1.0  # e^{L}: S(-p, r) under the growth e^{Var L/2}
    else:
        raise DomainError("hermite_variance_exact takes a trig or exp map")
    root = np.cbrt(np.abs(np.arange(-n, n + 1.0)))  # root[n + i] = |i|^{1/3}
    d = np.diff(root)  # d[n - 1 + l] = D(l), l = 1 - n .. n
    d_lo, d_hi = d[: 2 * n - 1], d[1:]  # D(l) and D(l + 1), l = 1 - n .. n - 1
    r = 0.5 * (d_hi - d_lo)
    lags = np.abs(np.arange(1 - n, n))
    bb = b * b
    bh_sq = bb * n ** (-1.0 / 3.0) / 4.0
    gap = np.cbrt(lags / n)  # Var(A_j - A_k)

    j = np.arange(1, n + 1)
    beta = np.exp(-sign * bb * np.cbrt((j - 1) / n))
    aj = 2.0 * (root[n + j] - root[n + j - 1]) - 1.0
    spectra = [np.fft.rfft(beta * aj**s, 2 * n) for s in range(4)]
    coef = _wick_h3_terms(sign * bh_sq, r)  # p^m terms of S(sign p, r)
    growth = np.exp(0.5 * sign * bb * gap)
    plus = 0.0  # sum over j, k of the A_j + A_k terms
    for s in range(4):
        for t in range(4):
            corr = np.fft.irfft(spectra[s] * spectra[t].conj(), 2 * n)
            corr = np.concatenate([corr[n + 1 :], corr[:n]])  # lags 1 - n .. n - 1
            weight = sum(
                coef[m] * (math.comb(m, s) * math.comb(m, t)) * (-d_hi) ** (m - s) * d_lo ** (m - t)
                for m in range(max(s, t), 4)
            )
            plus += float(np.dot(weight * growth, corr))
    mean = hermite_mean_exact(g, n)
    if g.family is Family.EXP:
        return a * a * plus / n - mean**2
    p = bh_sq * (d_hi - 1.0) * (d_lo + 1.0)
    minus = float(np.dot(n - lags, np.exp(-0.5 * bb * gap) * sum(_wick_h3_terms(p, r))))
    return 0.5 * a * a * (minus - math.cos(2.0 * c) * plus) / n - mean**2
