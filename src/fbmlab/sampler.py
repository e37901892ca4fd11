"""Exact Gaussian path sampling on uniform grids.

Two exact samplers for the H = 1/6 fractional Brownian motion are provided:

* CHOLESKY factors the m x m increment Gram matrix n^{-1/3} rho(i - j)
  directly (limited to m <= 4096); it is the reference the sampler
  validation compares CIRCULANT against;
* CIRCULANT, which every experiment samples with, embeds the increment
  autocovariance in a circulant of size 2m (Davies-Harte), diagonalizes it
  with one real FFT, and synthesizes the stationary noise from independent
  spectral Gaussians in O(m log m).

Both target the same exact law.  Randomness is counter based: every path
draws from a Philox stream keyed by (master_seed, stream_id, purpose tag),
and Gaussians come from the inverse normal CDF applied to the raw counter
output.  Replication-level parallelism therefore cannot reorder draws, and
identical (grid, seeds, method) reproduce byte-identical arrays.

The inverse normal CDF is scipy's ndtri, imported on the first draw (see
load_ndtri): importing scipy.special takes longer than the whole of the
commands that draw no random numbers, so they never import it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import CapabilityError, DomainError, EmbeddingError
from .kernel import INCREMENT_EXPONENT, rho

# Version of the random streams: bumped whenever a release draws different
# numbers for the same (grid, seeds, method).  2: the oracle draws its Ito
# correction from the "oracle:w" tag instead of a Brownian path on "bm".
RNG_STREAM_VERSION = 2

CHOLESKY_MAX_STEPS = 4096

# Relative floor for circulant eigenvalues: fGn embeddings are nonnegative
# in theory, so anything below -1e-8 * max eigenvalue aborts.
EIGENVALUE_RTOL = 1e-8

_MASK64 = (1 << 64) - 1

# largest double below 1: the ceiling of the uniforms fed to ndtri
_UNIFORM_MAX = 1.0 - 2.0**-53


def _mix64(x: int) -> int:
    """splitmix64 finalizer; the standard avalanche for seed derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _tag_word(tag: str) -> int:
    word = 0x9AE16A3B2F90404F
    for b in tag.encode("utf-8"):
        word = _mix64(word ^ b)
    return word


@cache
def load_ndtri():
    """scipy.special.ndtri, imported on the first call.

    A process that forks workers calls this before the fork, so the workers
    inherit the import instead of each importing scipy again.
    """
    from scipy.special import ndtri

    return ndtri


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words -> uniforms strictly inside (0, 1).

    The top 53 bits k give (k + 1/2) 2^-53.  For k = 2^53 - 1 that sum is a
    tie that rounds to exactly 1.0, so the result is clamped to the largest
    double below 1; every other k already lies below that ceiling.
    """
    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return np.minimum(u, _UNIFORM_MAX, out=u)


class Method(enum.Enum):
    CHOLESKY = "cholesky"
    CIRCULANT = "circulant"


@dataclass(frozen=True)
class Grid:
    """Uniform partition t_j = j/n of [0, horizon], with m = n * horizon steps.

    Construction is rejected unless n * horizon is integral, mirroring the
    uniformly spaced grids the variation functionals are defined on.
    """

    n: int
    horizon: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError("grid size n must be a positive integer")
        if not (self.horizon > 0):
            raise DomainError("horizon must be positive")
        steps = self.n * self.horizon
        if abs(steps - round(steps)) > 1e-9:
            raise DomainError(f"n * horizon = {steps} is not integral")

    @property
    def m(self) -> int:
        return int(round(self.n * self.horizon))

    @property
    def dt(self) -> float:
        return 1.0 / self.n

    def times(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.n


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based seeding: (master_seed, stream_id) names one stream.

    Distinct pairs give statistically independent Philox streams; the same
    pair reproduces identical draws.  Purpose tags (sampler internals)
    separate e.g. the fBm and BM substreams of one replication.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.stream_id < 0:
            raise DomainError("stream_id must be nonnegative")

    def _key(self, tag: str) -> np.ndarray:
        w0 = _mix64((self.master_seed & _MASK64) ^ _tag_word(tag))
        w1 = _mix64(w0 ^ (self.stream_id & _MASK64))
        return np.array([w0, w1], dtype=np.uint64)

    def normals(self, count: int, tag: str) -> np.ndarray:
        """Standard Gaussians by inverse CDF of the raw counter stream."""
        bitgen = np.random.Philox(key=self._key(tag))
        return load_ndtri()(_open_uniforms(bitgen.random_raw(count)))


@dataclass(frozen=True)
class Path:
    """A sampled path on a grid; values[0] = 0 and the array is immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


@lru_cache(maxsize=8)
def _cholesky_factor(n: int, m: int) -> np.ndarray:
    i = np.arange(m)
    gram = n ** (-INCREMENT_EXPONENT) * np.asarray(rho(i[:, None] - i[None, :]))
    return np.linalg.cholesky(gram)


@lru_cache(maxsize=8)
def _circulant_sqrt_eigs(n: int, m: int) -> np.ndarray:
    """sqrt of the (clipped) eigenvalues of the 2m circulant embedding."""
    lags = n ** (-INCREMENT_EXPONENT) * np.asarray(rho(np.arange(m + 1)))
    row = np.concatenate([lags, lags[-2:0:-1]]) if m > 1 else lags
    eigs = np.fft.rfft(row).real
    floor = -EIGENVALUE_RTOL * float(eigs.max())
    if eigs.min() < floor:
        raise EmbeddingError(
            f"circulant embedding eigenvalue {eigs.min():.3e} below {floor:.3e}"
        )
    return np.sqrt(np.clip(eigs, 0.0, None))


def _fgn_circulant(grid: Grid, z: np.ndarray) -> np.ndarray:
    """Synthesize m stationary increments from 2m spectral Gaussians.

    With eigenvalues lam_k of the size-M = 2m embedding, the half spectrum
    G_0 = sqrt(lam_0 M) z_0, G_m = sqrt(lam_m M) z_1 and
    G_k = sqrt(lam_k M / 2)(z_{2k} + i z_{2k+1}) makes irfft(G) an exact
    draw of the embedded stationary sequence; the first m entries are fGn.
    """
    m = grid.m
    big = 2 * m
    sq = _circulant_sqrt_eigs(grid.n, m)
    spectrum = np.empty(m + 1, dtype=complex)
    root = np.sqrt(float(big))
    spectrum[0] = sq[0] * root * z[0]
    spectrum[m] = sq[m] * root * z[1]
    if m > 1:
        spectrum[1:m] = sq[1:m] * (root / np.sqrt(2.0)) * (z[2::2] + 1j * z[3::2])
    return np.fft.irfft(spectrum, n=big)[:m]


def _assemble(grid: Grid, increments: np.ndarray) -> Path:
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return Path(grid=grid, values=values)


def sample_fbm(grid: Grid, seeds: SeedPolicy, method: Method = Method.CIRCULANT) -> Path:
    """Draw one exact H = 1/6 fBm path on the grid."""
    if method is Method.CHOLESKY:
        if grid.m > CHOLESKY_MAX_STEPS:
            raise CapabilityError(
                f"CHOLESKY limited to m <= {CHOLESKY_MAX_STEPS}; use CIRCULANT"
            )
        z = seeds.normals(grid.m, "fbm:cholesky")
        increments = _cholesky_factor(grid.n, grid.m) @ z
    elif method is Method.CIRCULANT:
        z = seeds.normals(2 * grid.m, "fbm:circulant")
        increments = _fgn_circulant(grid, z)
    else:
        raise DomainError(f"unknown sampling method {method!r}")
    return _assemble(grid, increments)


def sample_bm(grid: Grid, seeds: SeedPolicy) -> Path:
    """Draw one standard Brownian path, independent of any fBm draw.

    Independence from sample_fbm under the same SeedPolicy is enforced by a
    disjoint purpose tag, so paired (B, W) replications share a stream_id.
    """
    z = seeds.normals(grid.m, "bm")
    return _assemble(grid, np.sqrt(grid.dt) * z)
