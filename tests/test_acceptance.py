"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines with
their measured values.  All Monte Carlo corpora use the package default
master seed, so every number below is a deterministic property of the
artifact on one platform.
"""

import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from fbmlab.analysis import TAYLOR_GAMMA, ks_two_sample, taylor_residual
from fbmlab.kernel import kappa_constant, left_anchor_cube_sum, right_anchor_cube_sum
from fbmlab.variations import parse_integrand, sin_map
from fbmlab.checks import (
    ANCHOR_SUM_MAX,
    CUBIC_CORR_MAX,
    CUBIC_VAR_RTOL,
    GRAM_Z_MAX,
    HERMITE_VAR_RTOL,
    KAPPA_REF,
    KAPPA_SQ_REF,
    KAPPA_SQ_TOL,
    KAPPA_TOL,
    MEAN_SE_MULT,
    judge,
    verdicts,
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
    checks = verdicts("kappa", asdict(kc))
    ok_sq, ok_k = checks["kappa_sq_close"], checks["kappa_close"]
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
    riemann = {k: res[k] for k in ("riemann_const", "riemann_linear", "riemann_quadratic")}
    worst = max(riemann.values())
    row = {"max_rel_residuals": riemann}
    identities_ok = verdicts("variations", row, ["identities_ok"])["identities_ok"]
    ok = identities_ok and elapsed < 5.0
    report(
        2,
        ok,
        f"riemann identity residuals (1, x, x^2) <= {worst:.2e} on 100 paths "
        f"at n=2^10, {elapsed:.2f}s",
    )
    assert identities_ok, f"residual {worst}"
    assert elapsed < 5.0


def test_c03_hermite_rearrangement_identity(identity_result):
    worst = identity_result["max_rel_residuals"]["hermite_rearrangement"]
    row = {"max_rel_residuals": {"hermite_rearrangement": worst}}
    ok = verdicts("variations", row, ["identities_ok"])["identities_ok"]
    report(3, ok, f"cubic = hermite + 3 n^(-1/3) B identity residual <= {worst:.2e}")
    assert ok, f"residual {worst}"


def test_c04_sextic_variation():
    start = time.perf_counter()
    result = sextic_experiment(
        [256, 512, 1024, 2048, 4096], 1.0, 200, MASTER_SEED, mean_replications=500
    )
    elapsed = time.perf_counter() - start
    tol = MEAN_SE_MULT * result["mean_se"]
    checks = verdicts("sextic", result)
    mean_ok, decreasing = checks["mean_ok"], checks["medians_decreasing"]
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
    row = {"cubic_variance": var, "cubic_b_corr": corr, "kappa_sq": constants.kappa_sq}
    checks = verdicts("variations", row, ["variance_ok", "corr_ok"])
    var_ok, corr_ok = checks["variance_ok"], checks["corr_ok"]
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
    critical = results[INTEGRANDS[0]]["critical_001"]  # equal samples share one critical value
    failed = {t: judge("converge", r)[1] for t, r in results.items()}
    ok = not any(failed.values()) and elapsed < 240.0
    detail = ", ".join(f"{t}: {r['statistic']:.4f}" for t, r in results.items())
    report(
        6,
        ok,
        f"KS(I_n vs limit) {detail} all < {critical:.4f} "
        f"(n=2^12 vs 2^14, {elapsed:.1f}s incl. corpora)",
    )
    for t, r in results.items():
        assert not failed[t], f"KS for integrand {t}: {r['statistic']} > {critical}"
    assert elapsed < 240.0


def test_c07_hermite_mean_limits(estimator_corpus):
    g = sin_map()
    limit = hermite_mean_limit(g, 1.0)
    left = estimator_corpus["left"]
    right = estimator_corpus["right"]
    row = {
        "left_mean": left.mean(),
        "left_se": left.std(ddof=1) / math.sqrt(len(left)),
        "right_mean": right.mean(),
        "right_se": right.std(ddof=1) / math.sqrt(len(right)),
        "mean_limit": limit,
    }
    checks = verdicts("hermite", row, ["left_mean_ok", "right_mean_ok"])
    left_ok, right_ok = checks["left_mean_ok"], checks["right_mean_ok"]
    tol_l, tol_r = MEAN_SE_MULT * row["left_se"], MEAN_SE_MULT * row["right_se"]
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
    row = {"left_variance": var, "variance_limit": limit}
    ok = verdicts("hermite", row, ["variance_ok"])["variance_ok"]
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
    rows = scaling_experiment(MASTER_SEED, replications=500)
    elapsed = time.perf_counter() - start
    failed = [name for row in rows for name in judge("scaling", row, f"{row['estimator']} ")[1]]
    ok = not failed and elapsed < 120.0
    lines = [
        f"{row['estimator']}: slope={row['slope']:.3f}>={row['slope_floor']} "
        f"r2={row['r_squared']:.3f}"
        for row in rows
    ]
    report(9, ok, "; ".join(lines) + f" (M=500, {elapsed:.1f}s)")
    assert not failed, f"failed: {failed}; {lines}"
    assert elapsed < 120.0


def test_c10_taylor_identity():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(40):
        coeffs = tuple(float(c) for c in rng.uniform(-1, 1, size=rng.integers(1, 7)))
        g = parse_integrand("poly:" + ",".join(repr(c) for c in coeffs))
        for a, b in rng.uniform(-1.0, 1.0, size=(25, 2)):
            worst = max(worst, abs(taylor_residual(g, float(a), float(b)).r6))
    checks = verdicts("taylor", {"max_poly_r6": worst, "gamma_exact": TAYLOR_GAMMA == -1.0 / 480.0})
    r6_ok, gamma_ok = checks["max_poly_r6"], checks["gamma_exact"]
    ok = r6_ok and gamma_ok
    report(
        10,
        ok,
        f"max |R6| = {worst:.2e} over 1000 pairs x degree<=5 corpus, "
        f"gamma = {TAYLOR_GAMMA} = -1/480 exactly: {gamma_ok}",
    )
    assert r6_ok, f"max |R6| = {worst}"
    assert gamma_ok


def test_c11_anchored_cube_sums():
    ladder = [256, 512, 1024, 2048, 4096]
    lefts = [left_anchor_cube_sum(n, 1.0) for n in ladder]
    rights = [right_anchor_cube_sum(n, 1.0) for n in ladder]
    row = {
        "anchored_cube_sums": [{"left": a, "right": b} for a, b in zip(lefts, rights)],
        "anchored_sums_decreasing": all(a > b for a, b in zip(lefts, lefts[1:]))
        and all(a > b for a, b in zip(rights, rights[1:])),
    }
    checks = verdicts("audit", row, ["anchored_sums_decreasing", "anchored_sums_small"])
    small, decreasing = checks["anchored_sums_small"], checks["anchored_sums_decreasing"]
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
    row = sampler_experiment(MASTER_SEED, gram_n=512, gram_replications=2000, ks_replications=1000)
    elapsed = time.perf_counter() - start
    gram_max_z, method_ks = row["gram_max_z"], row["method_ks"]
    checks = verdicts("sampler", row)
    gram_ok, ks_ok = checks["gram_z_ok"], checks["method_ks_ok"]
    report(
        12,
        gram_ok and ks_ok,
        f"Gram max |z| = {gram_max_z:.2f} < {GRAM_Z_MAX:g} (m=512, M=2000); "
        f"cholesky-vs-circulant KS {method_ks['statistic']:.4f} < "
        f"{method_ks['critical_001']:.4f} ({elapsed:.1f}s)",
    )
    assert gram_ok, f"gram z {gram_max_z}"
    assert ks_ok, f"KS {method_ks['statistic']} vs {method_ks['critical_001']}"
