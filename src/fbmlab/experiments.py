"""Batch Monte Carlo experiments behind the command-line harness.

Every Monte Carlo experiment is a set of per-path statistics of independent
replications on one grid, and all of them run through one engine,
run_paths.  Replication r draws its fBm path once, from its own seed
stream (master_seed, r), at the command's finest grid, and every
statistic is applied to that one path: a grid ladder reads each coarser
grid of n steps as values[::N // n] of the N-step path (fBm restricted to
a coarser grid is exactly fBm there), and scaling's weighted estimators
read its first quarter.  The engine splits the replication range into
one contiguous range per worker, and with more than one worker forks them
once per command (fanout.fork_map); each worker inherits the grid and
statistics by the fork, and only columns come back.  A worker synthesises
its paths in small blocks that share one batched FFT, each path
byte-identical to its one-row draw.  Columns come back in replication
order, and every reduction over them (medians, means, ordered sums) runs
in that order, so results are independent of the worker count.  Each
worker also returns the seconds it spent drawing and in statistics, which
TIMINGS sums for the manifest.  No experiment samples a limit law, and
every law is judged against its exact target: converge judges the paper's
conditional limit through pivots built from its own paths and exact
finite-n means, and sampler_experiment the sampler's exact covariance
against cov_r and its B(1) by a one-sample KS against N(0, 1).  The
experiments return measurements only; checks.CHECKS judges them.  Every
experiment runs on [0, 1].
"""

from __future__ import annotations

import math
import os
from collections import Counter
from functools import partial
from time import perf_counter

import numpy as np

from .analysis import (
    KS_MIN_SAMPLES,
    Estimator,
    TAYLOR_GAMMA,
    audit_grid,
    covar_bound_audit,
    ks_normal,
    moment_scaling,
    orthogonality_audit,
    taylor_residual,
    window_moments,
)
from .checks import SLOPE_FLOORS
from .errors import DomainError
from .kernel import anchor_cube_sums, cov_r, cubic_variance_exact, kappa_constant
from .quadrature import (
    hermite_mean_exact,
    hermite_mean_limit,
    hermite_variance_exact,
    hermite_variance_limit,
    riemann_mean_exact,
)
from .sampler import Grid, Path, SeedPolicy, _assemble, _fgn_circulant, sample_fbm_block
from .variations import (
    Family,
    SmoothMap,
    cubic_terms,
    hermite_terms,
    int_power,
    parse_integrand,
    prefix_sums,
    riemann_terms,
    sin_map,
)


def usable_cores() -> int:
    """The cores this process may run on, which caps the workers."""
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# Engine totals since the last clear, which the CLI writes to the manifest:
# draw_s and stats_s, the seconds workers spent drawing paths and applying
# statistics, summed in replication order, and pools, the times workers were forked.
TIMINGS = Counter()


def _pmap(worker, jobs):
    """[worker(job) for job in jobs], one forked worker per job if there are several."""
    if len(jobs) <= 1:
        return [worker(job) for job in jobs]
    from .fanout import fork_map  # loaded only by commands that fork

    TIMINGS["pools"] += 1
    return fork_map(worker, jobs)


# Rows per block of sample_fbm_block: at most 8, and at most 2^14 steps in
# all.  A batched irfft shares most of its work at two rows already, and
# bigger blocks of long paths would grow the heap past what a short run
# touched, so 16,384-step paths are synthesised one at a time.
FBM_BLOCK_ROWS, FBM_BLOCK_STEPS = 8, 1 << 14


def _replicate(grid: Grid, stats: dict, master_seed: int, bounds):
    """The columns of replications lo..hi-1, and their draw and statistics seconds."""
    lo, hi = bounds
    rows = max(1, min(FBM_BLOCK_ROWS, FBM_BLOCK_STEPS // grid.m))
    cols = {name: [] for name in stats}
    draw_s = stats_s = 0.0
    for first in range(lo, hi, rows):
        start = perf_counter()
        seeds = [SeedPolicy(master_seed, r) for r in range(first, min(first + rows, hi))]
        block = sample_fbm_block(grid, seeds)
        drawn = perf_counter()
        for path in block:
            for name, stat in stats.items():
                cols[name].append(stat(path))
        del block, path  # free this block before the next is drawn
        draw_s += drawn - start
        stats_s += perf_counter() - drawn
    return {name: np.array(values) for name, values in cols.items()}, (draw_s, stats_s)


def run_paths(grid: Grid, stats: dict, replications: int, master_seed: int,
              workers: int) -> dict[str, np.ndarray]:
    """Named columns of per-path statistics of the fBm paths on grid of the
    streams (master_seed, r), r = 0..replications-1, split into one
    contiguous range for each of at most workers usable cores.

    Each callable in stats maps one path to a scalar or an array; column
    name holds stats[name] of every replication, stacked along axis 0 in
    replication order.
    """
    # Before the fork, so the workers inherit it: freeing one 4 MiB block
    # raises glibc malloc's mmap threshold to 4 MiB and its trim threshold
    # to 8 MiB.  At their start values (128 KiB each) every array of at
    # least 128 KiB, such as the FFT buffers of scaling's 8,192-step paths
    # and of longer ones, is mapped, or trimmed off the heap, and faulted in
    # afresh for every path: about 100 page faults per 16,384-step path.
    np.empty(1 << 19)
    size = min(workers, replications, usable_cores())
    bounds = [replications * k // size for k in range(size + 1)]
    parts = _pmap(partial(_replicate, grid, stats, master_seed), list(zip(bounds, bounds[1:])))
    for _, (draw_s, stats_s) in parts:
        TIMINGS["draw_s"] += draw_s
        TIMINGS["stats_s"] += stats_s
    return {name: np.concatenate([cols[name] for cols, _ in parts]) for name in stats}


def _restricted(grid: Grid, stat, path):
    return stat(Path(grid, path.values[:: path.grid.n // grid.n]))


def _ladder(n_list, stat) -> tuple[Grid, dict]:
    """run_paths' grid and stats for a grid ladder: stat, keyed n, of the
    path on each grid n in n_list, read from one path on the largest grid N
    as Path(Grid(n), values[::N // n]); fBm restricted to a coarser grid is
    exactly fBm there.  Refuses an n that does not divide N."""
    top = max(n_list)
    uneven = [n for n in n_list if top % n]
    if uneven:
        raise DomainError(f"grid sizes {uneven} do not divide the largest, {top}")
    return Grid(top), {n: partial(_restricted, Grid(n), stat) for n in n_list}


# --- converge: the conditional limit law through exact-mean pivots ----------


def converge_row(
    n: int,
    cols: dict[str, np.ndarray],
    g2_sums: dict[str, np.ndarray],
    means: dict[str, float],
    integrands: list[SmoothMap],
    kappa: float,
) -> dict:
    """converge's report row from its columns, with pivots scaled by kappa.

    R_n(g) = I_n(g, B, 1) - G(B(1)) + G(0), G' = g, is the trapezoid sum
    less its antiderivative part.  Given B its limit is the Ito correction
    (kappa/12) int_0^1 g''(B) dW, which is N(0, sigma^2) with
    sigma_n^2 = (kappa^2/144) n^{-1} sum_k g''(B(t_{k-1}))^2, so each g with
    g'' != 0 has the pivot Z_g = (R_n(g) - m_n(g)) / sigma_n(g), where
    m_n = riemann_mean_exact(g, n) is means[label]; g2_sums holds the sums
    for each g whose g'' is not constant.  The row holds the KS distance of
    B(1) and of V_n(B, 1) / sqrt(Var V_n) under the exact variance from
    N(0, 1), per pivot its KS distance, the mean of R_n with its standard
    error and target m_n, and the variance of Z_g, and max |R_n(g)| of each
    g with g'' = 0, which telescopes to round-off.
    """
    b1 = cols["B"]
    replications = len(b1)
    pivots, identities = {}, {}
    for g in integrands:
        big_g = g.antiderivative()
        remainder = cols[f"int_{g.label}"] - big_g(b1) + big_g(0.0)
        const = g.derivative(2).constant
        if const == 0.0:
            identities[g.label] = float(np.max(np.abs(remainder)))
            continue
        mean_sq = const * const if const is not None else g2_sums[g.label] / n
        z = (remainder - means[g.label]) / (kappa / 12.0 * np.sqrt(mean_sq))
        pivots[g.label] = {
            "ks": ks_normal(z),
            "mean": float(np.mean(remainder)),
            "mean_se": float(np.std(remainder, ddof=1) / math.sqrt(replications)),
            "mean_exact": means[g.label],
            "variance": float(np.var(z, ddof=1)),
        }
    cubic_variance = cubic_variance_exact(n)
    return {
        "n": n,
        "replications": replications,
        "kappa": kappa,
        "B": {"ks": ks_normal(b1)},
        "cubic": {
            "ks": ks_normal(cols["cubic"] / math.sqrt(cubic_variance)),
            "variance_exact": cubic_variance,
        },
        "pivots": pivots,
        "identities": identities,
        "estimator_correlations": np.corrcoef(np.vstack(list(cols.values()))).tolist(),
    }


def _finite(target, g: SmoothMap, *args):
    """target(g, *args), an exact moment, refused naming g and target unless finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = target(g, *args)
    except OverflowError:  # a Python float past 1.8e308
        value = math.inf
    if np.all(np.isfinite(value)):
        return value
    raise DomainError(f"integrand {g.label!r}: {target.__name__} is non-finite ({value})")


def _converge_stats(integrands: list[SmoothMap], curved: list, path) -> np.ndarray:
    """[B(1), V_n(B, 1), I_n(g, B, 1) per g, sum_k g''(B(t_{k-1}))^2 per
    (index of g, g'') in curved] of one path, each the pairwise sum of its terms."""
    v, dx = path.values, path.increments()
    gvs = [g(v) for g in integrands]
    row = [v[-1], cubic_terms(dx).sum()] + [riemann_terms(gv, dx).sum() for gv in gvs]
    bent = [
        integrands[i].second_derivative_square_sum(g2, v[:-1], gvs[i][:-1]) for i, g2 in curved
    ]
    return np.array(row + bent)


def converge_experiment(
    n_list,
    replications: int,
    master_seed: int,
    integrands: list[SmoothMap],
    workers: int = 1,
) -> list[tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]]:
    """The estimator corpus (B(1), V_n(B, 1), I_n(g, B, 1)) and its row per grid.

    Returns, for each n in n_list, converge_row at the true kappa, the
    columns B, cubic and int_<label>, and, keyed by label,
    sum_k g''(B(t_{k-1}))^2 of each integrand whose g'' is not constant.
    Fewer than KS_MIN_SAMPLES replications, since every row holds a KS
    distance, and an m_n whose square is not finite are refused before any draw.
    """
    if replications < KS_MIN_SAMPLES:
        raise DomainError(f"converge needs at least {KS_MIN_SAMPLES} replications")
    means = {n: {g.label: _finite(riemann_mean_exact, g, n) for g in integrands} for n in n_list}
    # before run_paths raises malloc's mmap threshold: past it, the four
    # 160 KB arrays of kappa_constant would grow the heap for good
    kappa = kappa_constant().kappa
    for g, m_n in ((g, row[g.label]) for row in means.values() for g in integrands):
        if math.isinf(m_n * m_n):  # the pivots' sample variance squares values of order m_n
            raise DomainError(f"integrand {g.label!r}: riemann_mean_exact squared is non-finite")
    second = [(i, g.derivative(2)) for i, g in enumerate(integrands)]
    curved = [(i, g2) for i, g2 in second if g2.constant is None]
    grid, stats = _ladder(n_list, partial(_converge_stats, integrands, curved))
    cols = run_paths(grid, stats, replications, master_seed, workers)
    names = ["B", "cubic"] + [f"int_{g.label}" for g in integrands]
    runs = []
    for n in n_list:
        columns = [col.copy() for col in cols[n].T]  # contiguous, as plain columns sum
        est = dict(zip(names, columns))
        g2_sums = {integrands[i].label: col for (i, _), col in zip(curved, columns[len(names) :])}
        runs.append((converge_row(n, est, g2_sums, means[n], integrands, kappa), est, g2_sums))
    return runs


# --- variations: exact identities plus the cubic-variation law -------------


_IDENTITY_MAPS = tuple(parse_integrand(text) for text in ("1", "x", "x^2"))


def _identity_row(path) -> np.ndarray:
    """Relative residuals of the four pathwise identities, then B(1) and V_n(B, 1)."""
    n, v, dx = path.grid.n, path.values, path.increments()
    cubic = prefix_sums(cubic_terms(dx))
    scale = max(1.0, float(np.max(np.abs(v))) ** 3)
    const, lin, quad = (prefix_sums(riemann_terms(g(v), dx)) for g in _IDENTITY_MAPS)
    res_c = np.max(np.abs(const - (v - v[0])))
    res_l = np.max(np.abs(lin - 0.5 * (v**2 - v[0] ** 2)))
    res_q = np.max(np.abs(quad - (int_power(v, 3) - v[0] ** 3) / 3.0 - cubic / 6.0))
    hermite_one = prefix_sums(hermite_terms(np.ones_like(v), dx, n)[0])
    res_y = np.max(np.abs(cubic - hermite_one - 3.0 * n ** (-1.0 / 3.0) * v))
    residuals = np.array([res_c, res_l, res_q, res_y]) / scale
    return np.append(residuals, [v[-1], cubic[-1]])


def identity_experiment(
    n_list,
    replications: int,
    master_seed: int,
    workers: int = 1,
) -> list[tuple[dict, dict[str, np.ndarray]]]:
    """Pathwise telescoping identities and the signed-cubic-variation law.

    Returns, for each n in n_list, the report row (worst relative residual
    of each identity, the variance of V_n(B, 1) with the limit variance
    kappa_sq, and its correlation with B(1) with the exact value
    3 n^{-1/3} / sqrt(cubic_variance_exact(n)), by Wick's formula) and the
    columns B and cubic.  Fewer than 4 replications are refused: the Fisher
    z of a correlation has variance 1 / (M - 3)."""
    if replications < 4:
        raise DomainError("variations needs at least 4 replications")
    kappa_sq = kappa_constant().kappa_sq  # before the draws, as in converge_experiment
    cols = run_paths(*_ladder(n_list, _identity_row), replications, master_seed, workers)
    runs = []
    for n in n_list:
        rows = cols[n]
        worst = np.max(rows[:, :4], axis=0)
        b1, vn = rows[:, 4].copy(), rows[:, 5].copy()
        row = {
            "n": n,
            "max_rel_residuals": {
                "riemann_const": float(worst[0]),
                "riemann_linear": float(worst[1]),
                "riemann_quadratic": float(worst[2]),
                "hermite_rearrangement": float(worst[3]),
            },
            "cubic_variance": float(np.var(vn, ddof=1)),
            "cubic_b_corr": float(np.corrcoef(vn, b1)[0, 1]),
            "cubic_b_corr_exact": 3.0 * n ** (-1.0 / 3.0) / math.sqrt(cubic_variance_exact(n)),
            "kappa_sq": kappa_sq,
            "replications": replications,
        }
        runs.append((row, {"B": b1, "cubic": vn}))
    return runs


# --- sextic variation -------------------------------------------------------


def _sextic_row(path) -> tuple[float, float]:
    """sup_t |V^6_n(B, t) - 15 t| and V^6_n(B, 1) of one path.

    The sixth powers are products (int_power), so both are exactly even
    under B -> -B and the same on every IEEE host.
    """
    v6 = prefix_sums(int_power(path.increments(), 6))
    return np.max(np.abs(v6 - 15.0 * path.grid.times())), v6[-1]


def _median(x) -> float:
    """np.median of x, by its own partition and mean, without importing numpy.ma."""
    half = len(x) // 2
    return float(np.mean(np.partition(x, [half - 1, half])[half - 1 + len(x) % 2 : half + 1]))


def sextic_experiment(n_list, replications: int, master_seed: int, workers: int = 1) -> dict:
    """Median sup-deviation of V^6_n from 15t per grid level, plus the mean
    of V^6_n(B, 1) at the finest level against 15, as the report of the
    sextic command."""
    n_list = sorted(int(n) for n in n_list)
    cols = run_paths(*_ladder(n_list, _sextic_row), replications, master_seed, workers)
    final = cols[n_list[-1]][:, 1]  # the finest level's paths serve its median and the mean
    return {
        "n_list": n_list,
        "median_sup_deviation": [_median(cols[n][:, 0]) for n in n_list],
        "mean_n": n_list[-1],
        "mean_value": float(np.mean(final)),
        "mean_se": float(np.std(final, ddof=1) / math.sqrt(len(final))),
        "mean_target": 15.0,
    }


# --- weighted Hermite variations --------------------------------------------


def _hermite_stats(integrands: list[SmoothMap], path) -> np.ndarray:
    """[left, right] weighted third-Hermite variation at t = 1 per g: sums of terms."""
    v, dx = path.values, path.increments()
    return np.array([[t.sum() for t in hermite_terms(g(v), dx, path.grid.n)] for g in integrands])


def hermite_experiment(
    n_list,
    replications: int,
    master_seed: int,
    integrands=(sin_map(),),
    workers: int = 1,
) -> list[tuple[dict, dict[str, np.ndarray]]]:
    """Left/right endpoint weighted third-Hermite variations at t = 1.

    Returns, for each integrand and then each n in n_list, the report row
    (sample means with standard errors and exact finite-n targets, the left
    variance and its target, and the quadrature limits of the left mean and
    variance, which depend on the integrand alone and are computed once)
    and the columns left and right.  Every integrand reads the same paths
    of each grid, and every target is computed, a non-finite one refused,
    before any draw.  The variance target is the exact finite-n variance
    for trig and exp integrands (variance_target_kind "exact") and the limit
    for polynomials ("limit")."""
    kappa_sq = kappa_constant().kappa_sq
    # the exact targets first: the limits' leggauss maps LAPACK's code for
    # good, and the exact variance's transient would peak on top of it
    targets = {  # (integrand index, n): the exact means and, but for a polynomial, variance
        (i, n): (
            _finite(hermite_mean_exact, g, n),
            None if g.family is Family.POLYNOMIAL else _finite(hermite_variance_exact, g, n),
        )
        for i, g in enumerate(integrands)
        for n in n_list
    }
    limits = [
        {
            "mean_limit": _finite(hermite_mean_limit, g),
            "variance_limit": _finite(hermite_variance_limit, g, kappa_sq),
        }
        for g in integrands
    ]
    grid, stats = _ladder(n_list, partial(_hermite_stats, integrands))
    grids = run_paths(grid, stats, replications, master_seed, workers)
    runs = []
    for i, (integrand, limit) in enumerate(zip(integrands, limits)):
        exact = integrand.family is not Family.POLYNOMIAL
        for n in n_list:
            left, right = grids[n][:, i].T.copy()  # contiguous, as plain columns sum
            (left_exact, right_exact), variance_exact = targets[i, n]
            row = {
                "integrand": integrand.label,
                "bounded": integrand.is_bounded,
                "n": n,
                "left_mean": float(np.mean(left)),
                "left_se": float(np.std(left, ddof=1) / math.sqrt(len(left))),
                "left_mean_exact": left_exact,
                "right_mean": float(np.mean(right)),
                "right_se": float(np.std(right, ddof=1) / math.sqrt(len(right))),
                "right_mean_exact": right_exact,
                "left_variance": float(np.var(left, ddof=1)),
                **limit,
                "variance_target": variance_exact if exact else limit["variance_limit"],
                "variance_target_kind": "exact" if exact else "limit",
            }
            runs.append((row, {"left": left, "right": right}))
    return runs


# --- moment-bound scaling ----------------------------------------------------

# Per-estimator default windows on the first "steps" steps of one path on
# the grid of SCALING_N steps.  The cubic fourth moment needs gaps past the
# kurtosis crossover (about 120 steps) before the quadratic regime
# dominates; the weighted second moments are gap-tight only for windows
# anchored at the origin with gap << n, so they read the path on [0, 1/4].
# Each spec's gaps are sorted and distinct, at least two, and each between
# 1 and its steps, which are at most SCALING_N.
SCALING_N = 8192
DEFAULT_SCALING_SPECS: dict[Estimator, dict] = {
    Estimator.CUBIC_4TH: {"steps": 8192, "gaps": (512, 1024, 2048, 4096, 8192)},
    Estimator.QUINTIC_2ND: {"steps": 2048, "gaps": (64, 91, 128, 181, 256, 362, 512, 724, 1024)},
    Estimator.WEIGHTED_CUBIC_2ND: {"steps": 2048,
                                   "gaps": (64, 91, 128, 181, 256, 362, 512, 724, 1024)},
}

SCALING_MIN_REPLICATIONS = 200


def scaling_experiment(
    master_seed: int,
    replications: int = 500,
    integrand: SmoothMap = sin_map(),
    workers: int = 1,
) -> list[dict]:
    """The report row of each estimator in DEFAULT_SCALING_SPECS: its
    moment-bound scaling fit, slope floor and spec.  Every estimator reads
    the same paths, on Grid(SCALING_N).  Fewer than SCALING_MIN_REPLICATIONS
    replications are refused."""
    if replications < SCALING_MIN_REPLICATIONS:
        raise DomainError(f"scaling needs at least {SCALING_MIN_REPLICATIONS} replications")
    stats = {
        e: lambda path, e=e, spec=spec: window_moments(
            e, path.values[: spec["steps"] + 1], spec["gaps"], integrand
        )
        for e, spec in DEFAULT_SCALING_SPECS.items()
    }
    cols = run_paths(Grid(SCALING_N), stats, replications, master_seed, workers)
    return [
        {"estimator": e.value, **moment_scaling(SCALING_N, spec["gaps"], cols[e], replications),
         "slope_floor": SLOPE_FLOORS[e], "spec": spec}
        for e, spec in DEFAULT_SCALING_SPECS.items()
    ]


# --- symmetric Taylor corpus -------------------------------------------------


def taylor_experiment(pairs: int = 1000, poly_count: int = 25) -> dict:
    """R6 over a fixed corpus of degree <= 5 polynomials (must vanish) and
    the sin map (must stay below the sixth-derivative envelope), as the
    report of the taylor command.  The corpus draws nothing random: pair k of
    1..pairs is 2 frac(k s) - 1 for s the steps of the R2 sequence, 1/p and
    1/p^2 with p the plastic number, and polynomial i has degree i mod 6 and
    coefficients 2 frac((j + 7i) / phi) - 1, j = 1..degree + 1, with phi the
    golden ratio."""
    k = np.arange(1, pairs + 1)[:, None]
    a, b = (2.0 * (k * np.array([0.7548776662466927, 0.5698402909980532]) % 1.0) - 1.0).T
    max_poly = 0.0
    for i in range(poly_count):
        coeffs = tuple(2.0 * ((j + 7 * i) * 0.6180339887498949 % 1.0) - 1.0
                       for j in range(1, i % 6 + 2))
        g = SmoothMap(Family.POLYNOMIAL, coeffs, "poly")
        max_poly = max(max_poly, float(np.max(np.abs(taylor_residual(g, a, b)))))
    sin_r6 = taylor_residual(sin_map(), a, b)
    return {
        "pairs": pairs,
        "poly_count": poly_count,
        "max_poly_r6": max_poly,
        "gamma": TAYLOR_GAMMA,
        "sin_max_r6": float(np.max(np.abs(sin_r6))),
    }


# --- covariance and orthogonality audits -------------------------------------


def audit_experiment(n_list) -> dict:
    """Covariance-envelope ratios, anchored cube sums over the grid ladder,
    and the Hermite orthogonality grid for orders up to 4, as the report of
    the audit command."""
    n_list = sorted(int(n) for n in n_list)
    for n in n_list:  # refuse an over-size grid before any audit runs
        audit_grid(n)
    covar = [covar_bound_audit(n) for n in n_list]
    sums = [anchor_cube_sums(n) for n in n_list]
    anchor = [{"n": n, "left": left, "right": right} for n, (left, right) in zip(n_list, sums)]
    max_dev = max(abs(orthogonality_audit(p, q, c))
                  for p in range(5) for q in range(5) for c in (-0.75, -0.3, 0.0, 0.5, 0.9))
    return {
        "covariance_audits": covar,
        "anchored_cube_sums": anchor,
        "orthogonality_max_dev": max_dev,
    }


# --- sampler validation -------------------------------------------------------


def sampler_experiment(master_seed: int, n: int = 512, replications: int = 2000) -> dict:
    """The sampler row: covariance_max_dev, keyed m=<m> for m = 1, 2, 3 and
    n, the largest |V^T V - cov_r(t_i, t_j)| over t = 1/m, ..., 1, where row
    j of V is the path the circulant synthesis makes of the j-th of its 2m
    unit normals, so that V^T V is the exact covariance of its paths; and
    b1_ks, the KS distance of B(1) from N(0, 1) over the circulant paths of
    streams (master_seed, r)."""
    max_dev = {}
    for m in (1, 2, 3, n):
        grid = Grid(m)
        v = _assemble(_fgn_circulant(grid, np.eye(2 * m)))[:, 1:]
        t = grid.times()[1:]
        max_dev[f"m={m}"] = float(np.max(np.abs(v.T @ v - cov_r(t[:, None], t[None, :]))))
    cols = run_paths(Grid(n), {"b1": lambda path: path.values[-1]}, replications, master_seed, 1)
    return {"replications": replications, "covariance_max_dev": max_dev,
            "b1_ks": ks_normal(cols["b1"])}
