"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines with
their measured values.  All Monte Carlo corpora use the package default
master seed, so every number below is a deterministic property of the
artifact on one platform.
"""

import math
import time

import numpy as np
import pytest

from fbmlab import (
    TAYLOR_GAMMA,
    kappa_constant,
    ks_two_sample,
    left_anchor_cube_sum,
    parse_integrand,
    right_anchor_cube_sum,
    sin_map,
    taylor_residual,
)
from fbmlab.cli import (
    ANCHOR_SUM_MAX,
    CUBIC_CORR_MAX,
    CUBIC_VAR_RTOL,
    GRAM_Z_MAX,
    HERMITE_VAR_RTOL,
    IDENTITY_TOL,
    KAPPA_REF,
    KAPPA_SQ_REF,
    KAPPA_SQ_TOL,
    KAPPA_TOL,
    MEAN_SE_MULT,
    SLOPE_FLOORS,
    SLOPE_R2_MIN,
    TAYLOR_R6_TOL,
)
from fbmlab.experiments import (
    identity_experiment,
    sampler_experiment,
    scaling_experiment,
    sextic_experiment,
)
from fbmlab.quadrature import hermite_mean_limit, hermite_variance_limit

from conftest import INTEGRANDS, MASTER_SEED


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def test_c01_kappa_constants():
    start = time.perf_counter()
    kc = kappa_constant()
    elapsed = time.perf_counter() - start
    ok_sq = abs(kc.kappa_sq - KAPPA_SQ_REF) <= KAPPA_SQ_TOL
    ok_k = abs(kc.kappa - KAPPA_REF) <= KAPPA_TOL
    ok_time = elapsed < 1.0
    report(
        1,
        ok_sq and ok_k and ok_time,
        f"kappa_sq={kc.kappa_sq:.6f} ({KAPPA_SQ_REF} +- {KAPPA_SQ_TOL:.0e}), "
        f"kappa={kc.kappa:.6f} ({KAPPA_REF} +- {KAPPA_TOL:.0e}), "
        f"tail={kc.tail_bound:.2e}, {elapsed*1e3:.1f} ms",
    )
    assert ok_sq, f"kappa_sq={kc.kappa_sq} not within {KAPPA_SQ_TOL} of {KAPPA_SQ_REF}"
    assert ok_k, f"kappa={kc.kappa} not within {KAPPA_TOL} of {KAPPA_REF}"
    assert ok_time, f"runtime {elapsed:.2f}s exceeds 1s"


@pytest.fixture(scope="module")
def identity_result():
    start = time.perf_counter()
    row, _ = identity_experiment(1024, 1.0, 100, MASTER_SEED)
    return {**row, "elapsed": time.perf_counter() - start}


def test_c02_exact_riemann_identities(identity_result):
    res = identity_result["max_rel_residuals"]
    elapsed = identity_result["elapsed"]
    worst = max(res["riemann_const"], res["riemann_linear"], res["riemann_quadratic"])
    ok = worst <= IDENTITY_TOL and elapsed < 5.0
    report(
        2,
        ok,
        f"riemann identity residuals (1, x, x^2) <= {worst:.2e} on 100 paths "
        f"at n=2^10, {elapsed:.2f}s",
    )
    assert worst <= IDENTITY_TOL
    assert elapsed < 5.0


def test_c03_hermite_rearrangement_identity(identity_result):
    worst = identity_result["max_rel_residuals"]["hermite_rearrangement"]
    ok = worst <= IDENTITY_TOL
    report(3, ok, f"cubic = hermite + 3 n^(-1/3) B identity residual <= {worst:.2e}")
    assert worst <= IDENTITY_TOL


def test_c04_sextic_variation():
    start = time.perf_counter()
    result = sextic_experiment(
        [256, 512, 1024, 2048, 4096], 1.0, 200, MASTER_SEED, mean_replications=500
    )
    elapsed = time.perf_counter() - start
    tol = MEAN_SE_MULT * result["mean_se"]
    mean_ok = abs(result["mean_value"] - result["mean_target"]) <= tol
    decreasing = result["medians_decreasing"]
    ok = mean_ok and decreasing and elapsed < 120.0
    medians = result["median_sup_deviation"]
    meds = ", ".join(f"{m:.3f}" for m in medians)
    report(
        4,
        ok,
        f"mean V^6={result['mean_value']:.4f} (15 +- {tol:.4f}), "
        f"medians [{meds}] decreasing={decreasing}, {elapsed:.1f}s",
    )
    assert mean_ok, f"{result['mean_value']} vs 15 +- {tol}"
    assert decreasing, f"medians not decreasing: {medians}"
    assert elapsed < 120.0


def test_c05_signed_cubic_variation(estimator_corpus, constants):
    start = time.perf_counter()
    var = float(np.var(estimator_corpus["vn"], ddof=1))
    corr = float(np.corrcoef(estimator_corpus["vn"], estimator_corpus["b1"])[0, 1])
    elapsed = time.perf_counter() - start
    var_ok = abs(var - constants.kappa_sq) <= CUBIC_VAR_RTOL * constants.kappa_sq
    corr_ok = abs(corr) < CUBIC_CORR_MAX
    report(
        5,
        var_ok and corr_ok,
        f"Var(V_n)={var:.4f} (kappa^2={constants.kappa_sq:.4f} +-{CUBIC_VAR_RTOL:.0%}), "
        f"|corr(V_n,B(1))|={abs(corr):.4f} < {CUBIC_CORR_MAX}, n=2^12 M=2000 ({elapsed:.2f}s)",
    )
    assert var_ok, f"Var(V_n)={var} outside {CUBIC_VAR_RTOL:.0%} of {constants.kappa_sq}"
    assert corr_ok, f"|corr|={abs(corr)} not below {CUBIC_CORR_MAX}"


def test_c06_weak_stratonovich_convergence(estimator_corpus, oracle_corpus):
    results = {}
    start = time.perf_counter()
    for t in INTEGRANDS:
        results[t] = ks_two_sample(estimator_corpus["int"][t], oracle_corpus["int"][t])
    elapsed = (
        time.perf_counter()
        - start
        + estimator_corpus["build_seconds"]
        + oracle_corpus["build_seconds"]
    )
    critical = results[INTEGRANDS[0]].critical_001  # equal samples share one critical value
    ok = not any(r.rejects_at_1pct for r in results.values()) and elapsed < 240.0
    detail = ", ".join(f"{t}: {r.statistic:.4f}" for t, r in results.items())
    report(
        6,
        ok,
        f"KS(I_n vs limit) {detail} all < {critical:.4f} "
        f"(n=2^12 vs 2^14, {elapsed:.1f}s incl. corpora)",
    )
    for t, r in results.items():
        assert not r.rejects_at_1pct, f"KS for integrand {t}: {r.statistic} > {critical}"
    assert elapsed < 240.0


def test_c07_hermite_mean_limits(estimator_corpus):
    g = sin_map()
    limit = hermite_mean_limit(g, 1.0)
    left = estimator_corpus["left"]
    right = estimator_corpus["right"]
    tol_l = MEAN_SE_MULT * (left.std(ddof=1) / math.sqrt(len(left)))
    tol_r = MEAN_SE_MULT * (right.std(ddof=1) / math.sqrt(len(right)))
    left_ok = abs(left.mean() - limit) <= tol_l
    right_ok = abs(right.mean() + limit) <= tol_r
    report(
        7,
        left_ok and right_ok,
        f"left mean {left.mean():+.4f} vs {limit:+.4f} (+-{tol_l:.4f}), "
        f"right mean {right.mean():+.4f} vs {-limit:+.4f} (+-{tol_r:.4f})",
    )
    assert left_ok, f"left mean {left.mean()} vs limit {limit} +- {tol_l}"
    assert right_ok, f"right mean {right.mean()} vs limit {-limit} +- {tol_r}"


def test_c08_hermite_variance_limit(estimator_corpus, constants):
    limit = hermite_variance_limit(sin_map(), 1.0, constants.kappa_sq)
    var = float(np.var(estimator_corpus["left"], ddof=1))
    ok = abs(var - limit) <= HERMITE_VAR_RTOL * limit
    report(
        8,
        ok,
        f"Var(G_n^-)={var:.4f} vs quadrature limit {limit:.4f} +-{HERMITE_VAR_RTOL:.0%} "
        f"(ratio {var/limit:.4f}), n=2^12 M=2000",
    )
    assert ok, (
        f"variance {var} outside {HERMITE_VAR_RTOL:.0%} of {limit} (ratio {var/limit:.4f})"
    )


def test_c09_moment_bound_scaling():
    start = time.perf_counter()
    fits = scaling_experiment(MASTER_SEED, replications=500)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    lines = []
    for estimator, floor in SLOPE_FLOORS.items():
        fit = fits[estimator]
        good = fit.slope >= floor and fit.r_squared >= SLOPE_R2_MIN
        ok = ok and good
        lines.append(f"{estimator.value}: slope={fit.slope:.3f}>={floor} r2={fit.r_squared:.3f}")
    report(9, ok, "; ".join(lines) + f" (M=500, {elapsed:.1f}s)")
    for estimator, floor in SLOPE_FLOORS.items():
        fit = fits[estimator]
        assert fit.slope >= floor, f"{estimator.value} slope {fit.slope} < {floor}"
        assert fit.r_squared >= SLOPE_R2_MIN, (
            f"{estimator.value} r2 {fit.r_squared} < {SLOPE_R2_MIN}"
        )
    assert elapsed < 120.0


def test_c10_taylor_identity():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(40):
        coeffs = tuple(float(c) for c in rng.uniform(-1, 1, size=rng.integers(1, 7)))
        g = parse_integrand("poly:" + ",".join(repr(c) for c in coeffs))
        for a, b in rng.uniform(-1.0, 1.0, size=(25, 2)):
            worst = max(worst, abs(taylor_residual(g, float(a), float(b)).r6))
    gamma_ok = TAYLOR_GAMMA == -1.0 / 480.0
    ok = worst < TAYLOR_R6_TOL and gamma_ok
    report(
        10,
        ok,
        f"max |R6| = {worst:.2e} over 1000 pairs x degree<=5 corpus, "
        f"gamma = {TAYLOR_GAMMA} = -1/480 exactly: {gamma_ok}",
    )
    assert worst < TAYLOR_R6_TOL
    assert gamma_ok


def test_c11_anchored_cube_sums():
    ladder = [256, 512, 1024, 2048, 4096]
    lefts = [left_anchor_cube_sum(n, 1.0) for n in ladder]
    rights = [right_anchor_cube_sum(n, 1.0) for n in ladder]
    small = lefts[-1] < ANCHOR_SUM_MAX and rights[-1] < ANCHOR_SUM_MAX
    decreasing = all(a > b for a, b in zip(lefts, lefts[1:])) and all(
        a > b for a, b in zip(rights, rights[1:])
    )
    report(
        11,
        small and decreasing,
        f"left(4096)={lefts[-1]:.5f}, right(4096)={rights[-1]:.5f} < {ANCHOR_SUM_MAX}, "
        f"monotone over ladder: {decreasing}",
    )
    assert small
    assert decreasing


def test_c12_sampler_validity():
    start = time.perf_counter()
    gram_max_z, method_ks = sampler_experiment(
        MASTER_SEED, gram_n=512, gram_replications=2000, ks_replications=1000
    )
    elapsed = time.perf_counter() - start
    gram_ok = gram_max_z < GRAM_Z_MAX
    ks_ok = not method_ks.rejects_at_1pct
    report(
        12,
        gram_ok and ks_ok,
        f"Gram max |z| = {gram_max_z:.2f} < {GRAM_Z_MAX:g} (m=512, M=2000); "
        f"cholesky-vs-circulant KS {method_ks.statistic:.4f} < "
        f"{method_ks.critical_001:.4f} ({elapsed:.1f}s)",
    )
    assert gram_ok, f"gram z {gram_max_z}"
    assert ks_ok, f"KS {method_ks.statistic} vs {method_ks.critical_001}"
