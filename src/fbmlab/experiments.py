"""Batch Monte Carlo experiments behind the command-line harness.

Every Monte Carlo experiment is a set of per-path statistics of independent
replications, and all of them run through one engine, run_replications.
Replication r draws its path once from its own seed stream (master_seed, r)
and every statistic is applied to that one path.  The engine splits the
replication range into chunks and fans them out over a fork-only process
pool; the draw and the statistics are left in a module-level slot before
the pool starts, so forked workers inherit them and only (lo, hi) bounds
cross the process boundary.  Columns come back concatenated in replication
order, and every reduction over them (medians, means, ordered sums) runs in
that order, so results are independent of chunking and of the worker
count.  Oracle corpora use stream ids offset by the number of estimator
replications, keeping the two-sample comparisons independent.  Every
experiment but scaling, whose windows are sub-intervals, runs on [0, 1].
"""

from __future__ import annotations

import math
import os
from functools import partial
from multiprocessing import get_context

import numpy as np

from .analysis import (
    Estimator,
    TAYLOR_GAMMA,
    audit_grid,
    covar_bound_audit,
    ks_two_sample,
    moment_scaling,
    orthogonality_audit,
    scaling_ladder,
    taylor_residual,
    window_moments,
)
from .checks import SLOPE_FLOORS
from .errors import DomainError
from .kernel import (
    cov_r,
    kappa_constant,
    left_anchor_cube_sum,
    right_anchor_cube_sum,
)
from .oracle import LimitSample, weak_strat_integral
from .quadrature import hermite_mean_limit, hermite_variance_limit
from .sampler import Grid, SeedPolicy, load_ndtri, sample_fbm, sample_fbm_cholesky
from .variations import (
    Family,
    SmoothMap,
    int_power,
    parse_integrand,
    riemann_strat,
    signed_cubic,
    sin_map,
    weighted_hermite,
)

# the oracle's grid is REFINEMENT times finer than the estimator's
REFINEMENT = 4


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


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _pmap(worker, jobs, workers: int):
    # the pool never outnumbers the cores this process may run on
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    size = min(workers, len(jobs), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if size <= 1:
        return [worker(job) for job in jobs]
    with get_context("fork").Pool(size) as pool:
        return pool.map(worker, jobs)


def _chunks(replications: int, workers: int):
    pieces = max(1, min(replications, 4 * max(workers, 1)))
    bounds = np.linspace(0, replications, pieces + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


# (draw, stats) of the running run_replications call; forked workers inherit it
_TASK = None


def _replicate(bounds):
    draw, stats = _TASK
    lo, hi = bounds
    cols = {name: [] for name in stats}
    for r in range(lo, hi):
        path = draw(r)
        for name, stat in stats.items():
            cols[name].append(stat(path))
        del path
    return {name: np.array(values) for name, values in cols.items()}


def run_replications(draw, stats: dict, replications: int, workers: int, offset: int = 0) -> dict:
    """Named columns of per-path statistics over stream ids offset..offset+replications-1.

    draw(stream_id) returns one path (or any per-replication sample); each
    callable in stats maps it to a scalar or an array.  Column name holds
    stats[name] of every replication, stacked along axis 0 in replication
    order.
    """
    global _TASK
    load_ndtri()  # before the fork, so pool workers inherit scipy instead of importing it
    _TASK = (draw, stats)
    try:
        jobs = [(offset + lo, offset + hi) for lo, hi in _chunks(replications, workers)]
        parts = _pmap(_replicate, jobs, workers)
    finally:
        _TASK = None
    return {name: np.concatenate([part[name] for part in parts]) for name in stats}


def fbm_draws(grid: Grid, master_seed: int):
    """draw for run_replications: the circulant fBm path of stream (master_seed, r)."""
    return lambda r: sample_fbm(grid, SeedPolicy(master_seed, r))


# --- converge: estimator vs oracle triples ---------------------------------


def converge_experiment(
    n: int,
    replications: int,
    master_seed: int,
    integrands: list[SmoothMap],
    workers: int = 1,
) -> tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Paired estimator/oracle samples of (B(1), cubic variation, integral).

    Returns the report row and the estimator and oracle columns B, cubic
    and int_<label>.  The estimator corpus holds (B(1), V_n(B,1),
    I_n(g,B,1)); the oracle corpus holds (B(1), kappa W(1), the limit
    integral) on a grid REFINEMENT times finer.  The row holds one KS
    entry per marginal and per integrand, and both correlation matrices.
    """
    texts = [g.label for g in integrands]
    names = ["B", "cubic", *(f"int_{t}" for t in texts)]
    kappa = kappa_constant().kappa
    est_stats = {
        "B": lambda path: path.values[-1],
        "cubic": lambda path: signed_cubic(path)[-1],
    }
    orc_stats = {
        "B": lambda sample: sample.b_path.values[-1],
        "cubic": lambda sample: sample.kappa_w,
    }
    for g in integrands:
        est_stats[f"int_{g.label}"] = lambda path, g=g: riemann_strat(g, path)[-1]
        orc_stats[f"int_{g.label}"] = lambda sample, g=g: weak_strat_integral(g, sample)
    est = run_replications(fbm_draws(Grid(n), master_seed), est_stats, replications, workers)
    refinement = REFINEMENT * n
    orc = run_replications(
        lambda r: LimitSample.draw(refinement, SeedPolicy(master_seed, r), kappa, integrands),
        orc_stats,
        replications,
        workers,
        offset=replications,
    )
    keys = ["B", "cubic", *(f"int:{t}" for t in texts)]
    row = {
        "n": n,
        "refinement": refinement,
        "ks": {key: ks_two_sample(est[name], orc[name]) for key, name in zip(keys, names)},
        "estimator_correlations": np.corrcoef(np.vstack([est[k] for k in names])).tolist(),
        "oracle_correlations": np.corrcoef(np.vstack([orc[k] for k in names])).tolist(),
    }
    return row, est, orc


# --- variations: exact identities plus the cubic-variation law -------------


_IDENTITY_MAPS = tuple(parse_integrand(text) for text in ("1", "x", "x^2"))


def _identity_row(path) -> np.ndarray:
    """Relative residuals of the four pathwise identities, then B(1) and V_n(B, 1)."""
    const, lin, quad = _IDENTITY_MAPS
    n = path.grid.n
    v = path.values
    cubic = signed_cubic(path)
    scale = max(1.0, float(np.max(np.abs(v))) ** 3)
    res_c = np.max(np.abs(riemann_strat(const, path) - (v - v[0])))
    res_l = np.max(np.abs(riemann_strat(lin, path) - 0.5 * (v**2 - v[0] ** 2)))
    res_q = np.max(
        np.abs(riemann_strat(quad, path) - (int_power(v, 3) - v[0] ** 3) / 3.0 - cubic / 6.0)
    )
    hermite_one = weighted_hermite(const, path)[0]
    res_y = np.max(np.abs(cubic - hermite_one - 3.0 * n ** (-1.0 / 3.0) * v))
    residuals = np.array([res_c, res_l, res_q, res_y]) / scale
    return np.append(residuals, [v[-1], cubic[-1]])


def identity_experiment(
    n: int,
    replications: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Pathwise telescoping identities and the signed-cubic-variation law.

    Returns the report row (worst relative residual of each identity, and
    the variance of V_n(B, 1) and its correlation with B(1), with the
    limit variance kappa_sq) and the columns B and cubic."""
    rows = run_replications(
        fbm_draws(Grid(n), master_seed),
        {"identity": _identity_row},
        replications,
        workers,
    )["identity"]
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
        "kappa_sq": kappa_constant().kappa_sq,
    }
    return row, {"B": b1, "cubic": vn}


# --- sextic variation -------------------------------------------------------


def _sextic_row(path) -> tuple[float, float]:
    """sup_t |V^6_n(B, t) - 15 t| and V^6_n(B, 1) of one path.

    The sixth powers are products (int_power), so both are exactly even
    under B -> -B and the same on every IEEE host.
    """
    v6 = np.concatenate([[0.0], np.cumsum(int_power(path.increments(), 6))])
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
    medians = []
    for n in n_list:
        rows = run_replications(
            fbm_draws(Grid(n), master_seed), {"sextic": _sextic_row}, replications, workers
        )["sextic"]
        medians.append(float(np.median(rows[:, 0])))
    final = rows[:, 1]  # the finest level's paths serve its median and the mean
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


def hermite_experiment(
    n_list,
    replications: int,
    master_seed: int,
    integrand: SmoothMap = sin_map(),
    workers: int = 1,
) -> list[tuple[dict, dict[str, np.ndarray]]]:
    """Left/right endpoint weighted third-Hermite variations at t = 1.

    Returns, for each n in n_list, the report row (sample means, standard
    errors and left variance, with the quadrature limits of the left mean
    and variance, which depend on the integrand alone and are computed
    once) and the columns left and right."""
    limits = {
        "mean_limit": hermite_mean_limit(integrand, 1.0),
        "variance_limit": hermite_variance_limit(integrand, 1.0, kappa_constant().kappa_sq),
    }
    runs = []
    for n in n_list:
        ends = run_replications(
            fbm_draws(Grid(n), master_seed),
            {"ends": lambda path: [prefix[-1] for prefix in weighted_hermite(integrand, path)]},
            replications,
            workers,
        )["ends"]
        left, right = ends.T.copy()  # contiguous, so each sum runs as on a plain column
        cols = {"left": left, "right": right}
        row = {
            "integrand": integrand.label,
            "bounded": integrand.is_bounded,
            "n": n,
            "left_mean": float(np.mean(left)),
            "left_se": float(np.std(left, ddof=1) / math.sqrt(len(left))),
            "right_mean": float(np.mean(right)),
            "right_se": float(np.std(right, ddof=1) / math.sqrt(len(right))),
            "left_variance": float(np.var(left, ddof=1)),
            **limits,
        }
        runs.append((row, cols))
    return runs


# --- moment-bound scaling ----------------------------------------------------

# Per-estimator default windows.  The cubic fourth moment needs gaps past
# the kurtosis crossover (about 120 steps) before the quadratic regime
# dominates; the weighted second moments are gap-tight only for windows
# anchored at the origin with gap << n.
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


def scaling_experiment(
    master_seed: int,
    replications: int = 500,
    integrand: SmoothMap = sin_map(),
    workers: int = 1,
) -> list[dict]:
    """The report row of each estimator in DEFAULT_SCALING_SPECS: its
    moment-bound scaling fit, slope floor and spec.  Estimators on the same
    grid share one set of paths."""
    ladders = {
        estimator: scaling_ladder(spec["n"], spec["gaps"], replications, spec.get("horizon"))
        for estimator, spec in DEFAULT_SCALING_SPECS.items()
    }
    fits = {}
    for grid in dict.fromkeys(grid for grid, _ in ladders.values()):
        group = {e: gaps for e, (on, gaps) in ladders.items() if on == grid}
        cols = run_replications(
            fbm_draws(grid, master_seed),
            {e: partial(window_moments, e, gaps=gaps, g=integrand) for e, gaps in group.items()},
            replications,
            workers,
        )
        for e, gaps in group.items():
            fits[e] = moment_scaling(grid.n, gaps, cols[e], replications)
    return [
        {"estimator": e.value, **fits[e], "slope_floor": SLOPE_FLOORS[e], "spec": spec}
        for e, spec in DEFAULT_SCALING_SPECS.items()
    ]


# --- symmetric Taylor corpus -------------------------------------------------


def taylor_experiment(master_seed: int, pairs: int = 1000, poly_count: int = 25) -> dict:
    """R6 over a random corpus of degree <= 5 polynomials (must vanish) and
    the sin map (must stay below the sixth-derivative envelope), as the
    report of the taylor command."""
    rng = np.random.default_rng(master_seed)
    a, b = rng.uniform(-1.0, 1.0, size=(pairs, 2)).T
    max_poly = 0.0
    for _ in range(poly_count):
        degree = int(rng.integers(0, 6))
        coeffs = tuple(rng.uniform(-1.0, 1.0, size=degree + 1))
        g = SmoothMap(Family.POLYNOMIAL, coeffs, "poly")
        max_poly = max(max_poly, float(np.max(np.abs(taylor_residual(g, a, b).r6))))
    sin_r6 = taylor_residual(sin_map(), a, b).r6
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
    anchor = [
        {"n": n, "left": left_anchor_cube_sum(n, 1.0), "right": right_anchor_cube_sum(n, 1.0)}
        for n in n_list
    ]
    max_dev = 0.0
    for p in range(5):
        for q in range(5):
            for c in (-0.75, -0.3, 0.0, 0.5, 0.9):
                max_dev = max(max_dev, abs(orthogonality_audit(p, q, c)))
    return {
        "covariance_audits": covar,
        "anchored_cube_sums": anchor,
        "anchored_sums_decreasing": _decreasing([row["left"] for row in anchor])
        and _decreasing([row["right"] for row in anchor]),
        "orthogonality_max_dev": max_dev,
    }


# --- sampler validation -------------------------------------------------------


def sampler_experiment(
    master_seed: int,
    gram_n: int = 512,
    gram_replications: int = 2000,
    ks_replications: int = 1000,
    probe_indices=(64, 128, 256, 512),
) -> dict:
    """The sampler row: gram_max_z, the largest entrywise z score of the
    empirical Gram matrix against cov_r, and method_ks, the KS row of a
    Cholesky/circulant two-sample test on B(1).  The circulant B(1) of the
    KS comes from the same paths as the Gram matrix."""
    grid = Grid(gram_n, 1.0)
    probes = np.array(probe_indices)
    cols = run_replications(
        fbm_draws(grid, master_seed),
        {
            "probes": lambda path: path.values[probes],
            "b1": lambda path: path.values[-1],
        },
        max(gram_replications, ks_replications),
        workers=1,
    )
    vals = cols["probes"][:gram_replications]
    t = probes / gram_n
    target = cov_r(t[:, None], t[None, :])
    prods = vals[:, :, None] * vals[:, None, :]
    emp = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(gram_replications)
    chol = run_replications(
        lambda r: sample_fbm_cholesky(grid, SeedPolicy(master_seed, r)),
        {"b1": lambda path: path.values[-1]},
        ks_replications,
        workers=1,
    )["b1"]
    circ = cols["b1"][:ks_replications]
    return {
        "gram_max_z": float(np.max(np.abs(emp - target) / se)),
        "method_ks": ks_two_sample(chol, circ),
    }
