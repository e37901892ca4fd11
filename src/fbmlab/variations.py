"""Discrete functionals of a sampled path.

For a path X on the grid t_j = j/n each functional F returns its terms, one
per increment dX_j, from the increments and the integrand's grid values, so
a caller of several computes each once.  prefix_sums(terms)[k] is F(X, t_k)
= F(X, t) for t in [t_k, t_{k+1}); terms.sum() is the value at the horizon.

* the signed cubic variation V_n(X, t) = sum_{j <= nt} dX_j^3;
* trapezoid Riemann sums I_n(g, X, t) = sum (g(X_{j-1}) + g(X_j))/2 dX_j;
* weighted third-Hermite variations
  n^{-1/2} sum g(X at an endpoint) h_3(n^{1/6} dX_j), left and right
  endpoints returned together.

Integrands live in one of three closed-form families (polynomial,
a*sin(bx+c), a*exp(bx)) so that derivatives up to any order used here and
one antiderivative are exact, keeping the identity tests free of numerical
differentiation error; parse_integrand and parse_integrand_list read them
from the command line's plain-text grammar.  An ascending cumsum and
numpy's pairwise sum depend on no parallel schedule or BLAS build.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


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
            # Horner in numpy polyval's own order, so bit for bit its value
            out = self.params[-1] + x * 0.0
            for c in self.params[-2::-1]:
                out = c + out * x
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

    def second_derivative_square_sum(self, g2: "SmoothMap", x: np.ndarray, gx: np.ndarray) -> float:
        """sum g''(x)^2 given g2 = g'' and gx = g(x); b^4 sum gx^2 for trig and
        exp, where g'' = -+b^2 g, so only a polynomial evaluates g2."""
        if self.family is Family.POLYNOMIAL:
            return float(np.square(g2(x)).sum())
        return self.params[1] ** 4 * float(np.square(gx).sum())

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
    def constant(self) -> float | None:
        """The value of g if g is a constant polynomial, else None."""
        if self.family is Family.POLYNOMIAL and not any(self.params[1:]):
            return self.params[0]
        return None

    @property
    def is_bounded(self) -> bool:
        """Bounded with all derivatives bounded: TRIG, or a constant."""
        return self.family is Family.TRIG or self.constant is not None


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
    "sin"; "cos"; "sin:a,b,c"; "exp"; "exp:a,b".  An identically zero map
    (every coefficient, or the amplitude a, zero) is refused: converge's
    pivot of it would divide by sigma_n = 0.
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
        families = {"poly": Family.POLYNOMIAL, "sin": Family.TRIG, "exp": Family.EXP}
        if head not in families:
            raise DomainError(f"unknown integrand family {head!r}")
        g = SmoothMap(families[head], params, text)
    else:
        try:
            g = SmoothMap(Family.POLYNOMIAL, (float(text),), text)
        except ValueError as exc:
            raise DomainError(f"cannot parse integrand {text!r}") from exc
    if not any(g.params if g.family is Family.POLYNOMIAL else g.params[:1]):
        raise DomainError(f"integrand {text!r} is identically zero")
    return g


def parse_integrand_list(text: str) -> list[SmoothMap]:
    """Semicolon-separated integrand specs, e.g. "1; x; x^2; sin".

    A repeated label is refused: results are keyed by label, so a second
    copy would silently collapse into the first.
    """
    items = [part.strip() for part in text.split(";") if part.strip()]
    if not items:
        raise DomainError("empty integrand list")
    maps = [parse_integrand(item) for item in items]
    labels = [g.label for g in maps]
    if len(set(labels)) < len(labels):
        raise DomainError(f"integrand list repeats a label: {'; '.join(labels)}")
    return maps


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


def prefix_sums(terms: np.ndarray) -> np.ndarray:
    """F(X, t_k) for k = 0..m from the per-step terms of F: 0.0, then the ascending cumsum."""
    return np.concatenate([[0.0], np.cumsum(terms)])


def cubic_terms(dx: np.ndarray) -> np.ndarray:
    """dX_j^3, the terms of V_n(X, t), from the increments dx."""
    return int_power(dx, 3)


def riemann_terms(gv: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """(g(X_{j-1}) + g(X_j))/2 dX_j, the terms of I_n(g, X, t), from gv = g(X)."""
    return 0.5 * (gv[:-1] + gv[1:]) * dx


def hermite_terms(gv: np.ndarray, dx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n^{-1/2} w_j h_3(n^{1/6} dX_j) from gv = g(X), h_3(x) = x (x^2 - 3): the
    left terms, w_j = g(X(t_{j-1})), and the right ones, w_j = g(X(t_j))."""
    x = n ** (1.0 / 6.0) * dx
    h3 = x * (x * x - 3.0)
    return (gv[:-1] * h3) / np.sqrt(n), (gv[1:] * h3) / np.sqrt(n)
