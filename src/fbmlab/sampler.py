"""Exact Gaussian path sampling on uniform grids.

sample_fbm draws the H = 1/6 fractional Brownian motion exactly: it embeds
the increment autocovariance in a circulant of size 2m (Davies-Harte),
diagonalizes it with one real FFT, and synthesizes the stationary noise
from independent spectral Gaussians in O(m log m).  It is the one-row case
of sample_fbm_block, which every experiment samples with: one batched FFT
and one cumulative sum serve a block of paths, each byte-identical to its
sample_fbm draw.  The synthesis is linear in its Gaussians, so the paths it
makes of the unit vectors give the exact covariance of its draws, which
sampler_experiment compares with cov_r.

Randomness is counter based: every path draws from a Philox stream keyed
by (master_seed, stream_id, purpose tag), and Gaussians come from numpy's
ziggurat sampler on that stream.  Replication-level parallelism therefore
cannot reorder draws, and identical (grid, seeds) reproduce byte-identical
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import DomainError, EmbeddingError
from .kernel import INCREMENT_EXPONENT, rho

# Version of the random streams: bumped whenever a release draws different
# numbers for the same (grid, seeds) and sampler.  2: the oracle draws its Ito
# correction from the "oracle:w" tag instead of a Brownian path on "bm".
# 3: Gaussians come from numpy's ziggurat instead of scipy's inverse normal
# CDF of the raw counter words.
RNG_STREAM_VERSION = 3

# Relative floor for circulant eigenvalues: fGn embeddings are nonnegative
# in theory, so anything below -1e-8 * max eigenvalue aborts.
EIGENVALUE_RTOL = 1e-8

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; the standard avalanche for seed derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@cache
def _tag_word(tag: str) -> int:
    word = 0x9AE16A3B2F90404F
    for b in tag.encode("utf-8"):
        word = _mix64(word ^ b)
    return word


@dataclass(frozen=True)
class Grid:
    """Uniform partition t_j = j/n of [0, horizon], with m = n * horizon steps.

    Construction is rejected unless n * horizon is integral, mirroring the
    uniformly spaced grids the variation functionals are defined on.
    """

    n: int
    horizon: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or not 1 <= self.n < 2**1024:  # 2^1024 overflows a float
            raise DomainError("grid size n must be a positive integer below 2^1024")
        if not 0 < self.horizon < math.inf:  # refuses nan too
            raise DomainError("horizon must be positive and finite")
        steps = self.n * self.horizon
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
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
        """Standard Gaussians from numpy's ziggurat on the tag's Philox stream."""
        return np.random.Generator(np.random.Philox(key=self._key(tag))).standard_normal(count)


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
def _circulant_sqrt_eigs(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt of the (clipped) eigenvalues lam_k of the 2m circulant embedding,
    and the spectral scales _fgn_circulant multiplies its Gaussians by:
    sqrt(lam_k M) at k = 0 and k = m, sqrt(lam_k M / 2) in between (M = 2m).
    """
    lags = n ** (-INCREMENT_EXPONENT) * np.asarray(rho(np.arange(m + 1)))
    row = np.concatenate([lags, lags[-2:0:-1]])
    eigs = np.fft.rfft(row).real
    floor = -EIGENVALUE_RTOL * float(eigs.max())
    if eigs.min() < floor:
        raise EmbeddingError(
            f"circulant embedding eigenvalue {eigs.min():.3e} below {floor:.3e}"
        )
    sq = np.sqrt(np.clip(eigs, 0.0, None))
    root = np.sqrt(float(2 * m))
    scales = sq * (root / np.sqrt(2.0))
    scales[[0, m]] = sq[[0, m]] * root
    return sq, scales


def _fgn_circulant(grid: Grid, z: np.ndarray) -> np.ndarray:
    """Synthesize m stationary increments per row of z from its 2m spectral Gaussians.

    With eigenvalues lam_k of the size-M = 2m embedding, the half spectrum
    G_0 = sqrt(lam_0 M) z_0, G_m = sqrt(lam_m M) z_1 and
    G_k = sqrt(lam_k M / 2)(z_{2k} + i z_{2k+1}) makes irfft(G) an exact
    draw of the embedded stationary sequence; the first m entries are fGn.
    All rows share one batched irfft, which transforms each row exactly as
    a one-row call would.
    """
    m = grid.m
    scales = _circulant_sqrt_eigs(grid.n, m)[1]
    spectrum = np.zeros((len(z), m + 1), dtype=complex)
    re, im = spectrum.real, spectrum.imag  # views into spectrum
    np.multiply(scales[:m], z[:, 0::2], out=re[:, :m])  # z_0 and z_{2k}, k < m
    re[:, m] = scales[m] * z[:, 1]
    np.multiply(scales[1:m], z[:, 3::2], out=im[:, 1:m])
    return np.fft.irfft(spectrum, n=2 * m)[:, :m]


def _assemble(increments: np.ndarray) -> np.ndarray:
    """Path values from increments along the last axis, each row from 0."""
    values = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
    values[..., 0] = 0.0
    np.cumsum(increments, axis=-1, out=values[..., 1:])
    return values


def sample_fbm_block(grid: Grid, seeds: list[SeedPolicy]) -> list[Path]:
    """One exact H = 1/6 fBm path on the grid per seed policy, synthesised together.

    Path i is byte-identical to sample_fbm(grid, seeds[i]); all of them are
    rows of one fresh array.
    """
    z = np.empty((len(seeds), 2 * grid.m))
    for row, policy in zip(z, seeds):
        row[:] = policy.normals(2 * grid.m, "fbm:circulant")
    return [Path(grid=grid, values=row) for row in _assemble(_fgn_circulant(grid, z))]


def sample_fbm(grid: Grid, seeds: SeedPolicy) -> Path:
    """Draw one exact H = 1/6 fBm path on the grid by circulant embedding."""
    return sample_fbm_block(grid, [seeds])[0]


def sample_bm(grid: Grid, seeds: SeedPolicy) -> Path:
    """Draw one standard Brownian path, independent of any fBm draw.

    Independence from sample_fbm under the same SeedPolicy is enforced by a
    disjoint purpose tag, so paired (B, W) replications share a stream_id.
    """
    z = seeds.normals(grid.m, "bm")
    return Path(grid=grid, values=_assemble(np.sqrt(grid.dt) * z))
