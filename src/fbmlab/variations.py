"""Discrete functionals of a sampled path.

For a path X on the grid t_j = j/n each functional F returns its prefix
sums as one array: entry k is F(X, t_k) = F(X, t) for t in [t_k, t_{k+1}),
entry 0 is 0.0 and the last entry is the value at the horizon.

* the signed cubic variation V_n(X, t) = sum_{j <= nt} dX_j^3;
* trapezoid Riemann sums I_n(g, X, t) = sum (g(X_{j-1}) + g(X_j))/2 dX_j;
* weighted third-Hermite variations
  n^{-1/2} sum g(X at an endpoint) h_3(n^{1/6} dX_j), left and right
  endpoints returned together.

Integrands live in one of three closed-form families (polynomial,
a*sin(bx+c), a*exp(bx)) so that derivatives up to any order used here and
one antiderivative are exact, keeping the identity tests free of numerical
differentiation error.  Summation is a fixed ascending prefix sum, so the
results do not depend on any parallel schedule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import hermite
from .sampler import Path


class Family(enum.Enum):
    POLYNOMIAL = "polynomial"
    TRIG = "trig"
    EXP = "exp"


@dataclass(frozen=True)
class SmoothMap:
    """One closed-form integrand g with exact derivatives and antiderivative.

    POLYNOMIAL params are ascending monomial coefficients; TRIG params
    (a, b, c) mean a*sin(b x + c) with b != 0; EXP params (a, b) mean
    a*exp(b x) with b != 0.  Every parameter must be finite.
    """

    family: Family
    params: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if not all(math.isfinite(p) for p in self.params):
            raise DomainError(f"integrand parameters must be finite: {self.params}")
        if self.family is Family.POLYNOMIAL:
            if len(self.params) == 0:
                raise DomainError("polynomial needs at least one coefficient")
        elif self.family is Family.TRIG:
            if len(self.params) != 3:
                raise DomainError("trig family takes params (a, b, c)")
            if self.params[1] == 0:
                raise DomainError("trig frequency b must be nonzero")
        elif self.family is Family.EXP:
            if len(self.params) != 2:
                raise DomainError("exp family takes params (a, b)")
            if self.params[1] == 0:
                raise DomainError("exp rate b must be nonzero")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.family is Family.POLYNOMIAL:
            out = np.polynomial.polynomial.polyval(x, self.params)
        elif self.family is Family.TRIG:
            a, b, c = self.params
            out = a * np.sin(b * x + c)
        else:
            a, b = self.params
            out = a * np.exp(b * x)
        return out if out.ndim else float(out)

    def _derivative_once(self) -> "SmoothMap":
        if self.family is Family.POLYNOMIAL:
            coeffs = self.params
            if len(coeffs) == 1:
                new = (0.0,)
            else:
                new = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
            return SmoothMap(Family.POLYNOMIAL, new, f"({self.label})'")
        if self.family is Family.TRIG:
            a, b, c = self.params
            return SmoothMap(Family.TRIG, (a * b, b, c + math.pi / 2), f"({self.label})'")
        a, b = self.params
        return SmoothMap(Family.EXP, (a * b, b), f"({self.label})'")

    def derivative(self, order: int = 1) -> "SmoothMap":
        """order-fold exact derivative (iterated, so mixed routes agree bitwise)."""
        if order < 0:
            raise DomainError("derivative order must be nonnegative")
        out = self
        for _ in range(order):
            out = out._derivative_once()
        return out

    def antiderivative(self) -> "SmoothMap":
        """One antiderivative G with G' = g (constant of integration 0)."""
        if self.family is Family.POLYNOMIAL:
            new = (0.0,) + tuple(c / (k + 1) for k, c in enumerate(self.params))
            return SmoothMap(Family.POLYNOMIAL, new, f"int({self.label})")
        if self.family is Family.TRIG:
            a, b, c = self.params
            return SmoothMap(Family.TRIG, (a / b, b, c - math.pi / 2), f"int({self.label})")
        a, b = self.params
        return SmoothMap(Family.EXP, (a / b, b), f"int({self.label})")

    @property
    def is_bounded(self) -> bool:
        """Bounded with all derivatives bounded (true only for TRIG)."""
        if self.family is Family.TRIG:
            return True
        if self.family is Family.POLYNOMIAL:
            return all(c == 0.0 for c in self.params[1:])
        return False


def monomial_map(power: int) -> SmoothMap:
    if power < 0:
        raise DomainError("monomial power must be nonnegative")
    return SmoothMap(
        Family.POLYNOMIAL, (0.0,) * power + (1.0,), "x" if power == 1 else f"x^{power}"
    )


def sin_map() -> SmoothMap:
    return SmoothMap(Family.TRIG, (1.0, 1.0, 0.0), "sin")


def parse_integrand(text: str) -> SmoothMap:
    """Parse the plain-text integrand grammar.

    Accepted forms: a float literal; "x"; "x^k"; "poly:c0,c1,...";
    "sin"; "cos"; "sin:a,b,c"; "exp"; "exp:a,b".
    """
    text = text.strip()
    if text == "x":
        return monomial_map(1)
    if text.startswith("x^"):
        try:
            return monomial_map(int(text[2:]))
        except ValueError as exc:
            raise DomainError(f"bad monomial spec {text!r}") from exc
    if text == "sin":
        return sin_map()
    if text == "cos":
        return SmoothMap(Family.TRIG, (1.0, 1.0, math.pi / 2), "cos")
    if text == "exp":
        return SmoothMap(Family.EXP, (1.0, 1.0), "exp")
    if ":" in text:
        head, _, tail = text.partition(":")
        try:
            params = tuple(float(p) for p in tail.split(","))
        except ValueError as exc:
            raise DomainError(f"bad parameters in {text!r}") from exc
        if head == "poly":
            return SmoothMap(Family.POLYNOMIAL, params, text)
        if head == "sin":
            if len(params) != 3:
                raise DomainError("sin:a,b,c needs three parameters")
            return SmoothMap(Family.TRIG, params, text)
        if head == "exp":
            if len(params) != 2:
                raise DomainError("exp:a,b needs two parameters")
            return SmoothMap(Family.EXP, params, text)
        raise DomainError(f"unknown integrand family {head!r}")
    try:
        return SmoothMap(Family.POLYNOMIAL, (float(text),), text)
    except ValueError as exc:
        raise DomainError(f"cannot parse integrand {text!r}") from exc


def int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1, as a product of x and its square.

    np.power takes a scalar path for negative bases on some hosts, about 40
    times slower, and rounds them differently from positive ones; the product
    is fast, the same on every IEEE host, and exactly odd or even in x.
    """
    square = x * x
    out = x if k % 2 else square
    for _ in range((k - 1) // 2):
        out = out * square
    return out


def _prefix(terms: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(terms)])


def signed_cubic(path: Path) -> np.ndarray:
    """V_n(X, t) = sum dX_j^3."""
    d = path.increments()
    # |d|^3 sgn(d) can differ from d**3 in the last bit; the reports keep the former
    return _prefix(np.abs(d) ** 3.0 * np.sign(d))


def riemann_strat(g: SmoothMap, path: Path) -> np.ndarray:
    """Trapezoid Riemann sum I_n(g, X, t)."""
    gv = np.asarray(g(path.values))
    w = 0.5 * (gv[:-1] + gv[1:])
    return _prefix(w * path.increments())


def weighted_hermite(g: SmoothMap, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """n^{-1/2} sum_{j <= nt} w_j h_3(n^{1/6} dX_j) at both endpoints.

    Returns the left prefix sums, with w_j = g(X(t_{j-1})), and the right
    ones, with w_j = g(X(t_j)); h_3 and g are evaluated once for both.
    """
    n = path.grid.n
    h3 = np.asarray(hermite(3, n ** (1.0 / 6.0) * path.increments()))
    w = np.asarray(g(path.values))
    root = np.sqrt(n)
    return _prefix((w[:-1] * h3) / root), _prefix((w[1:] * h3) / root)
