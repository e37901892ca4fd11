"""Exact Gaussian moments of the integrand families, and the Hermite targets.

Every target and limit here needs only E[f(X)] for X ~ N(0, var) and
E[f(X) f(Y)] for a centred Gaussian pair, and for the three integrand
families both have closed forms, closed_mean and closed_pair_moment:
Gaussian characteristic functions for a sin(bx + c) and a e^{bx}, and
Isserlis' theorem for polynomials.  Gauss-Legendre rules take the time
integrals of the two limit functionals of the left-endpoint weighted
third-Hermite variation,

    mean:      -(1/8) int_0^1 E[g'''(B_s)] ds,
    variance:  kappa^2 int_0^1 E[g^2(B_s)] ds
               + (1/64) E[( int_0^1 g'''(B_s) ds )^2] - mean^2,

where Var(B_s) = s^{1/3} and Cov(B_s, B_u) = R(s, u).  The exact finite-n
targets are the means of the left and right variations, the variance of
the left one for the trig and exp families, and riemann_mean_exact, which
centres converge's pivots.  poly_pair_moment, the Isserlis sum behind the
polynomials, also serves the Hermite orthogonality audit.  None of these
touches a sampled path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import _cube_root_tables, anchor_covariances, cov_r
from .variations import Family, SmoothMap

GL_NODES = 64


@lru_cache(maxsize=8)
def _gauss_legendre_01(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _normal_moment(k: int) -> int:
    """E[Z^k] for Z ~ N(0, 1): (k - 1)!! for even k, 0 for odd k."""
    return 0 if k % 2 else math.prod(range(k - 1, 0, -2))


def closed_mean(f: SmoothMap, var):
    """E[f(X)] for X ~ N(0, var), broadcasting over var.

    a sin(c) e^{-b^2 var/2} for f = a sin(bx + c), a e^{b^2 var/2} for
    f = a e^{bx}, and sum_k c_k E[Z^k] var^{k/2} for a polynomial.
    """
    if f.family is Family.TRIG:
        a, b, c = f.params
        return a * np.sin(c) * np.exp(-0.5 * b * b * var)
    if f.family is Family.EXP:
        a, b = f.params
        return a * np.exp(0.5 * b * b * var)
    return sum(c * _normal_moment(k) * var ** (k // 2) for k, c in enumerate(f.params))


def poly_pair_moment(p, q, var_x, var_y, cov):
    """E[P(X) Q(Y)] for centered jointly Gaussian (X, Y) and polynomials of coefficients
    p and q, constant first.  Isserlis: k factors of X^i pair with k of Y^j in
    C(i, k) C(j, k) k! ways, the rest among themselves.  The arguments broadcast."""
    return sum(
        pi * qj * math.comb(i, k) * math.comb(j, k) * math.factorial(k)
        * _normal_moment(i - k) * _normal_moment(j - k)
        * cov**k * var_x ** ((i - k) // 2) * var_y ** ((j - k) // 2)
        for i, pi in enumerate(p)
        for j, qj in enumerate(q)
        for k in range(min(i, j) + 1)
    )


def closed_pair_moment(f: SmoothMap, var_x, var_y, cov):
    """E[f(X) f(Y)] for centered jointly Gaussian (X, Y).

    For f = a sin(bx + c), sin A sin B = (cos(A - B) - cos(A + B)) / 2 gives
    (a^2/2) [e^{-b^2 Var(X-Y)/2} - cos(2c) e^{-b^2 Var(X+Y)/2}]; for
    f = a e^{bx} it is a^2 e^{b^2 Var(X+Y)/2}; for a polynomial it is
    poly_pair_moment(c, c, ...).  The arguments broadcast.
    """
    if f.family is Family.TRIG:
        a, b, c = f.params
        minus = np.exp(-0.5 * b * b * (var_x + var_y - 2.0 * cov))
        plus = np.exp(-0.5 * b * b * (var_x + var_y + 2.0 * cov))
        return 0.5 * a * a * (minus - math.cos(2.0 * c) * plus)
    if f.family is Family.EXP:
        a, b = f.params
        return a * a * np.exp(0.5 * b * b * (var_x + var_y + 2.0 * cov))
    return poly_pair_moment(f.params, f.params, var_x, var_y, cov)


def hermite_mean_limit(g: SmoothMap) -> float:
    """Limit mean -(1/8) int_0^1 E[g'''(B_s)] ds of the left-endpoint variation.

    Substituting s = u^3 removes the s^{1/3} cusp of Var(B_s) = u at the
    origin, so the Gauss-Legendre rule converges at spectral rate.
    """
    u, w = _gauss_legendre_01(GL_NODES)
    return -0.125 * float(np.dot(w * (3.0 * u**2), closed_mean(g.derivative(3), u)))


def _anchor_terms(g: SmoothMap, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """E[g^(p)(B(t_i))] E[B(t_i) dB_k]^p, k = 1..n, at the anchors i = k - 1 and i = k:
    by Gaussian integration by parts, E[g(A) h_p(X)] = Cov(A, X)^p E[g^(p)(A)] for
    Gaussian A and a standard normal X, the terms of the exact means."""
    left, right = anchor_covariances(n)
    means = closed_mean(g.derivative(p), np.cbrt(np.arange(n + 1) / n))  # i = 0..n
    return means[:-1] * left**p, means[1:] * right**p


def hermite_mean_exact(g: SmoothMap, n: int) -> tuple[float, float]:
    """Exact finite-n means of the left and right variations at time 1,
    sum_{k <= n} E[g'''(B(t_i))] E[B(t_i) dB_k]^3 with i = k - 1 and i = k."""
    left, right = _anchor_terms(g, n, 3)
    return float(np.sum(left)), float(np.sum(right))


def riemann_mean_exact(g: SmoothMap, n: int) -> float:
    """Exact finite-n mean of R_n(g) = I_n(g, B, 1) - G(B(1)) + G(0), G' = g.

    E I_n = sum_k (E[B(t_{k-1}) dB_k] E g'(B(t_{k-1})) + E[B(t_k) dB_k] E g'(B(t_k))) / 2,
    the p = 1 anchor terms, and B(1) ~ N(0, 1).  O(n) time, like hermite_mean_exact.
    """
    left, right = _anchor_terms(g, n, 1)
    big_g = g.antiderivative()
    riemann = 0.5 * float(np.sum(left + right))
    return riemann - float(closed_mean(big_g, 1.0)) + float(big_g(0.0))


def hermite_variance_limit(g: SmoothMap, kappa_sq: float, nodes: int = GL_NODES) -> float:
    """Limit variance of the left-endpoint variation at time 1.

    The limit second moment kappa^2 int_0^1 E[g^2]
    + (1/64) int int E[g'''(B_s) g'''(B_u)] ds du less the squared limit
    mean hermite_mean_limit(g).  The first integral takes the nodes as u in
    s = u^3, as hermite_mean_limit does; the double integral is a tensor
    Gauss-Legendre rule over (s, u) with the exact covariance R(s, u), its
    integrand closed_pair_moment, one array expression over the whole grid.
    """
    s, w = _gauss_legendre_01(nodes)
    sq_term = kappa_sq * float(np.dot(w * (3.0 * s**2), closed_pair_moment(g, s, s, s)))
    var = s ** (1.0 / 3.0)
    cov = cov_r(s[:, None], s[None, :])
    pair = closed_pair_moment(g.derivative(3), var[:, None], var[None, :], cov)
    return float(sq_term + (w @ pair @ w) / 64.0 - hermite_mean_limit(g) ** 2)


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
    the left mean of hermite_mean_exact(g, n).
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
    step, root = _cube_root_tables(n)  # root[n + i] = |i|^{1/3}
    d = np.diff(root)  # d[n - 1 + l] = D(l), l = 1 - n .. n
    d_lo, d_hi = d[: 2 * n - 1], d[1:]  # D(l) and D(l + 1), l = 1 - n .. n - 1
    r = 0.5 * (d_hi - d_lo)
    lags = np.abs(np.arange(1 - n, n))
    bb = b * b
    bh_sq = bb * n ** (-1.0 / 3.0) / 4.0
    gap = np.cbrt(lags / n)  # Var(A_j - A_k)

    j = np.arange(1, n + 1)
    beta = np.exp(-sign * bb * np.cbrt((j - 1) / n))
    aj = 2.0 * step - 1.0
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
    mean = hermite_mean_exact(g, n)[0]
    if g.family is Family.EXP:
        return a * a * plus / n - mean**2
    p = bh_sq * (d_hi - 1.0) * (d_lo + 1.0)
    minus = float(np.dot(n - lags, np.exp(-0.5 * bb * gap) * sum(_wick_h3_terms(p, r))))
    return 0.5 * a * a * (minus - math.cos(2.0 * c) * plus) / n - mean**2
