"""Batch Monte Carlo experiments behind the command-line harness.

Every Monte Carlo experiment is a set of per-path statistics of independent
replications on one or more grids, and all of them run through one engine,
run_tasks, which takes one (draw, stats) task per grid, or per sampler in
sampler_experiment.  Replication r draws its path once from its own seed
stream (master_seed, r), and every statistic of the task is applied to
that one path; fbm_draws synthesises the paths of a chunk in small blocks
that share one batched FFT, each path byte-identical to its one-row draw.
The engine splits the replication range into chunks and fans the chunks
of every task out together over one fork-only process pool, so a command
forks at most one pool; the tasks are left in a module-level slot before
the pool starts, so forked workers inherit them and only (task, lo, hi)
bounds cross the process boundary.  Columns come back concatenated in
replication order, and every reduction over them (medians, means, ordered
sums) runs in that order, so results are independent of chunking and of
the worker count.  Each chunk also returns the seconds it spent drawing
and in statistics, which TIMINGS sums for the manifest.  No experiment
samples a limit law, and every law is judged against its exact target:
converge judges the paper's conditional limit through pivots built from
its own paths and exact finite-n means, and sampler_experiment each
sampler's B(1) by a one-sample KS against N(0, 1).  Every experiment but
scaling, whose windows are sub-intervals, runs on [0, 1].
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
from .sampler import Grid, SeedPolicy, sample_fbm_block, sample_fbm_cholesky
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


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def usable_cores() -> int:
    """The cores this process may run on, which caps the pool and the chunk count."""
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# Engine totals since the last clear, which the CLI writes to the manifest:
# draw_s and stats_s, the seconds chunks spent drawing paths and applying
# statistics, summed in replication order, and pools, the pools forked.
TIMINGS = Counter()


def _pmap(worker, jobs, workers: int):
    size = min(workers, len(jobs), usable_cores())
    if size <= 1:
        return [worker(job) for job in jobs]
    from multiprocessing import get_context  # loaded only by commands that fork a pool

    TIMINGS["pools"] += 1
    with get_context("fork").Pool(size) as pool:
        return pool.map(worker, jobs, chunksize=1)


def _chunks(replications: int, workers: int):
    pieces = max(1, min(replications, 4 * min(workers, usable_cores())))
    bounds = np.linspace(0, replications, pieces + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


# (draw, stats) tasks of the running run_tasks call; forked workers inherit them
_TASKS = ()


def _replicate(job):
    """The columns of chunk (task, lo, hi), and its draw and statistics seconds."""
    task, lo, hi = job
    draw, stats = _TASKS[task]
    cols = {name: [] for name in stats}
    draw_s = stats_s = 0.0
    start = perf_counter()
    for path in draw(lo, hi):
        drawn = perf_counter()
        for name, stat in stats.items():
            cols[name].append(stat(path))
        del path
        end = perf_counter()
        draw_s += drawn - start
        stats_s += end - drawn
        start = end
    return {name: np.array(values) for name, values in cols.items()}, (draw_s, stats_s)


def run_tasks(tasks: list, replications: int, workers: int) -> list[dict]:
    """Named columns of per-path statistics over stream ids 0..replications-1,
    one dict per (draw, stats) task, from at most one process pool.

    draw(lo, hi) yields the paths (or any per-replication samples) of stream
    ids lo..hi-1 in order; each callable in stats maps one to a scalar or an
    array.  Column name of a task holds stats[name] of every replication,
    stacked along axis 0 in replication order.  The chunks of every task go
    to the pool together.
    """
    global _TASKS
    # Before the fork, so pool workers inherit it: freeing one 4 MiB block
    # raises glibc malloc's mmap threshold to 4 MiB and its trim threshold
    # to 8 MiB.  At their start values (128 KiB each) every array of at
    # least 128 KiB, such as the FFT buffers of scaling's 8,192-step paths
    # and of longer ones, is mapped, or trimmed off the heap, and faulted in
    # afresh for every path: about 100 page faults per 16,384-step path.
    np.empty(1 << 19)
    bounds = _chunks(replications, workers)
    jobs = [(task, lo, hi) for task in range(len(tasks)) for lo, hi in bounds]
    _TASKS = tasks
    try:
        parts = _pmap(_replicate, jobs, workers)
    finally:
        _TASKS = ()
    for _, (draw_s, stats_s) in parts:
        TIMINGS["draw_s"] += draw_s
        TIMINGS["stats_s"] += stats_s
    columns = []
    for i, (_, stats) in enumerate(tasks):
        own = [cols for cols, _ in parts[i * len(bounds) : (i + 1) * len(bounds)]]
        columns.append({name: np.concatenate([cols[name] for cols in own]) for name in stats})
    return columns


# Rows per block of fbm_draws: at most 8, and at most 2^14 steps in all.  A
# batched irfft shares most of its work at two rows already, and bigger
# blocks of long paths would grow the heap past what a short run touched,
# so 16,384-step paths are synthesised one at a time.
FBM_BLOCK_ROWS, FBM_BLOCK_STEPS = 8, 1 << 14


def fbm_draws(grid: Grid, master_seed: int):
    """draw for run_tasks: the circulant fBm paths of streams (master_seed, r),
    synthesised in blocks of up to FBM_BLOCK_ROWS rows, each a fresh array."""
    rows = max(1, min(FBM_BLOCK_ROWS, FBM_BLOCK_STEPS // grid.m))

    def draw(lo: int, hi: int):
        for first in range(lo, hi, rows):
            block = range(first, min(first + rows, hi))
            yield from sample_fbm_block(grid, [SeedPolicy(master_seed, r) for r in block])

    return draw


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
    for g, m_n in ((g, row[g.label]) for row in means.values() for g in integrands):
        if math.isinf(m_n * m_n):  # the pivots' sample variance squares values of order m_n
            raise DomainError(f"integrand {g.label!r}: riemann_mean_exact squared is non-finite")
    second = [(i, g.derivative(2)) for i, g in enumerate(integrands)]
    curved = [(i, g2) for i, g2 in second if g2.constant is None]
    stats = {"row": partial(_converge_stats, integrands, curved)}
    tasks = [(fbm_draws(Grid(n), master_seed), stats) for n in n_list]
    names = ["B", "cubic"] + [f"int_{g.label}" for g in integrands]
    kappa = kappa_constant().kappa
    runs = []
    for n, cols in zip(n_list, run_tasks(tasks, replications, workers)):
        columns = [col.copy() for col in cols["row"].T]  # contiguous, as plain columns sum
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
    tasks = [(fbm_draws(Grid(n), master_seed), {"identity": _identity_row}) for n in n_list]
    kappa_sq = kappa_constant().kappa_sq
    runs = []
    for n, cols in zip(n_list, run_tasks(tasks, replications, workers)):
        rows = cols["identity"]
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


def sextic_experiment(
    n_list,
    replications: int,
    master_seed: int,
    workers: int = 1,
) -> dict:
    """Median sup-deviation of V^6_n from 15t per grid level, plus the mean
    of V^6_n(B, 1) at the finest level against 15, as the report of the
    sextic command."""
    n_list = sorted(int(n) for n in n_list)
    tasks = [(fbm_draws(Grid(n), master_seed), {"sextic": _sextic_row}) for n in n_list]
    levels = [cols["sextic"] for cols in run_tasks(tasks, replications, workers)]
    medians = [float(np.median(rows[:, 0])) for rows in levels]
    final = levels[-1][:, 1]  # the finest level's paths serve its median and the mean
    return {
        "n_list": n_list,
        "median_sup_deviation": medians,
        "medians_decreasing": _decreasing(medians),
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
    limits = [
        {
            "mean_limit": _finite(hermite_mean_limit, g),
            "variance_limit": _finite(hermite_variance_limit, g, kappa_sq),
        }
        for g in integrands
    ]
    targets = {}  # (integrand index, n): the exact means and the variance target
    for i, (g, limit) in enumerate(zip(integrands, limits)):
        for n in n_list:
            variance = (
                limit["variance_limit"]
                if g.family is Family.POLYNOMIAL
                else _finite(hermite_variance_exact, g, n)
            )
            targets[i, n] = (_finite(hermite_mean_exact, g, n), variance)
    stats = {"hermite": partial(_hermite_stats, integrands)}
    tasks = [(fbm_draws(Grid(n), master_seed), stats) for n in n_list]
    grids = run_tasks(tasks, replications, workers)
    runs = []
    for i, (integrand, limit) in enumerate(zip(integrands, limits)):
        exact = integrand.family is not Family.POLYNOMIAL
        for n, cols in zip(n_list, grids):
            left, right = cols["hermite"][:, i].T.copy()  # contiguous, as plain columns sum
            (left_exact, right_exact), variance_target = targets[i, n]
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
                "variance_target": variance_target,
                "variance_target_kind": "exact" if exact else "limit",
            }
            runs.append((row, {"left": left, "right": right}))
    return runs


# --- moment-bound scaling ----------------------------------------------------

# Per-estimator default windows.  The cubic fourth moment needs gaps past
# the kurtosis crossover (about 120 steps) before the quadratic regime
# dominates; the weighted second moments are gap-tight only for windows
# anchored at the origin with gap << n.  Each spec's gaps are sorted and
# distinct, at least two, and each between 1 and the grid's step count.
DEFAULT_SCALING_SPECS: dict[Estimator, dict] = {
    Estimator.CUBIC_4TH: {
        "n": 8192,
        "horizon": 1.0,
        "gaps": (512, 1024, 2048, 4096, 8192),
    },
    Estimator.QUINTIC_2ND: {
        "n": 8192,
        "horizon": 0.25,
        "gaps": (64, 91, 128, 181, 256, 362, 512, 724, 1024),
    },
    Estimator.WEIGHTED_CUBIC_2ND: {
        "n": 8192,
        "horizon": 0.25,
        "gaps": (64, 91, 128, 181, 256, 362, 512, 724, 1024),
    },
}

SCALING_MIN_REPLICATIONS = 200


def scaling_experiment(
    master_seed: int,
    replications: int = 500,
    integrand: SmoothMap = sin_map(),
    workers: int = 1,
) -> list[dict]:
    """The report row of each estimator in DEFAULT_SCALING_SPECS: its
    moment-bound scaling fit, slope floor and spec.  Estimators on the same
    grid share one set of paths.  Fewer than SCALING_MIN_REPLICATIONS
    replications are refused."""
    if replications < SCALING_MIN_REPLICATIONS:
        raise DomainError(f"scaling needs at least {SCALING_MIN_REPLICATIONS} replications")
    stats = {}
    for e, spec in DEFAULT_SCALING_SPECS.items():
        grid = Grid(spec["n"], spec["horizon"])
        stats.setdefault(grid, {})[e] = partial(window_moments, e, gaps=spec["gaps"], g=integrand)
    tasks = [(fbm_draws(grid, master_seed), group) for grid, group in stats.items()]
    fits = {}
    for grid, cols in zip(stats, run_tasks(tasks, replications, workers)):
        for e, moments in cols.items():
            gaps = DEFAULT_SCALING_SPECS[e]["gaps"]
            fits[e] = moment_scaling(grid.n, gaps, moments, replications)
    return [
        {"estimator": e.value, **fits[e], "slope_floor": SLOPE_FLOORS[e], "spec": spec}
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
        "gamma_exact": TAYLOR_GAMMA == -1.0 / 480.0,
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
        "anchored_sums_decreasing": _decreasing([row["left"] for row in anchor])
        and _decreasing([row["right"] for row in anchor]),
        "orthogonality_max_dev": max_dev,
    }


# --- sampler validation -------------------------------------------------------


def sampler_experiment(master_seed: int, n: int = 512, replications: int = 2000) -> dict:
    """The sampler row: gram_max_z, the largest entrywise z score of the
    empirical Gram matrix of the circulant paths at t = 1/8, 1/4, 1/2 and 1
    against cov_r, and method_ks, the KS distance of B(1) from N(0, 1)
    under each sampler.  The circulant and the Cholesky paths are two tasks
    of one run_tasks call, on the same seed streams."""
    grid = Grid(n)
    probes = n // np.array([8, 4, 2, 1])
    b1 = {"b1": lambda path: path.values[-1]}

    def cholesky(lo: int, hi: int):
        return (sample_fbm_cholesky(grid, SeedPolicy(master_seed, r)) for r in range(lo, hi))

    circulant = {"probes": lambda path: path.values[probes], **b1}
    circ, chol = run_tasks(
        [(fbm_draws(grid, master_seed), circulant), (cholesky, b1)], replications, workers=1
    )
    vals = circ["probes"]
    t = probes / n
    target = cov_r(t[:, None], t[None, :])
    prods = vals[:, :, None] * vals[:, None, :]
    emp = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(replications)
    return {
        "replications": replications,
        "gram_max_z": float(np.max(np.abs(emp - target) / se)),
        "method_ks": {"circulant": ks_normal(circ["b1"]), "cholesky": ks_normal(chol["b1"])},
    }
