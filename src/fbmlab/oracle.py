"""Sampling the limit law of the trapezoid Riemann sums.

The weak limit of I_n(g, B, .) at t = 1 is defined through an antiderivative
G of g and an ordinary Ito correction driven by a Brownian motion W
independent of B:

    int_0^1 g(B) dB = G(B(1)) - G(B(0)) + (1/12) int_0^1 g''(B) d<<B>>,
    <<B>>_t = kappa W(t).

The correction is the left-endpoint Ito sum (kappa/12) sum g''(B_{k-1}) dW_k
on a refinement grid of [0, 1].  W is independent of B, so given B the
vector of kappa W(1) and the corrections of all integrands is centred
Gaussian with Gram matrix kappa^2 dt F^T F, where F has the columns f_0 = 1
and f_i = g_i''(B_{k-1}) / 12.  A LimitSample draws B on the refinement
grid and then that vector directly, from one Gaussian per column: no W
path is sampled, and the law is exactly that of the left sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .sampler import Grid, Path, SeedPolicy, sample_fbm
from .variations import Family, SmoothMap


@lru_cache(maxsize=64)
def _parts(g: SmoothMap) -> tuple[SmoothMap, SmoothMap | float]:
    """G and g'' of one integrand, g'' as a float where it is constant."""
    g2 = g.derivative(2)
    if g2.family is Family.POLYNOMIAL and all(c == 0.0 for c in g2.params[1:]):
        return g.antiderivative(), g2.params[0]
    return g.antiderivative(), g2


@dataclass(frozen=True)
class LimitSample:
    """B on the refinement grid, kappa W(1) and the Ito correction of each integrand."""

    b_path: Path
    kappa_w: float
    corrections: dict[SmoothMap, float]

    @classmethod
    def draw(cls, refinement: int, seeds: SeedPolicy, kappa: float, integrands) -> "LimitSample":
        """Draw B on [0, 1], then kappa W(1) and the corrections given B.

        A constant g'' = c makes the correction exactly (c/12) kappa W(1)
        (zero when c = 0); only kappa W(1) and the other columns are drawn,
        through eigh of their Gram matrix with negative eigenvalues clipped
        to 0, so repeated or dependent columns are allowed.
        """
        b_path = sample_fbm(Grid(refinement), seeds)
        second = [_parts(g)[1] for g in integrands]
        left = b_path.values[:-1]
        cols = np.vstack(
            [np.ones_like(left)]
            + [np.asarray(g2(left)) / 12.0 for g2 in second if isinstance(g2, SmoothMap)]
        )
        gram = kappa**2 * b_path.grid.dt * (cols[:, None] * cols[None]).sum(axis=-1)
        eigval, eigvec = np.linalg.eigh(gram)
        z = seeds.normals(len(cols), "oracle:w")
        x = eigvec @ (np.sqrt(np.clip(eigval, 0.0, None)) * z)
        kappa_w = float(x[0])
        drawn = iter(x[1:])
        corrections = {
            g: float(next(drawn)) if isinstance(g2, SmoothMap) else g2 / 12.0 * kappa_w
            for g, g2 in zip(integrands, second)
        }
        return cls(b_path=b_path, kappa_w=kappa_w, corrections=corrections)


def weak_strat_integral(g: SmoothMap, sample: LimitSample) -> float:
    """int_0^1 g(B) dB = G(B(1)) - G(B(0)) + the Ito correction of g in sample."""
    if g not in sample.corrections:
        raise DomainError(f"integrand {g.label!r} was not drawn with this sample")
    b = sample.b_path.values
    anti = _parts(g)[0]
    return float(anti(b[-1])) - float(anti(b[0])) + sample.corrections[g]
