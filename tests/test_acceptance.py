"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines with
their measured values.  Every criterion takes its pass/fail from
`checks.judge`, the function `--check` calls, on a row that a command's own
experiment returned; the shared rows are the fixtures of conftest.py.  All
Monte Carlo rows use the package default master seed, so every number
below is a deterministic property of the artifact on one platform.
"""

from dataclasses import asdict

import pytest

from fbmlab.kernel import kappa_constant
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
)
from fbmlab.experiments import (
    audit_experiment,
    identity_experiment,
    sampler_experiment,
    scaling_experiment,
    sextic_experiment,
    taylor_experiment,
)

from conftest import INTEGRANDS, MASTER_SEED, timed

LADDER = [256, 512, 1024, 2048, 4096]


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def test_c01_kappa_constants():
    kc, elapsed = timed(kappa_constant)
    checks, _ = judge("kappa", asdict(kc))
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
def identity_1024():
    (row, _), elapsed = timed(identity_experiment, 1024, 100, MASTER_SEED)
    return row, elapsed


def test_c02_exact_riemann_identities(identity_1024):
    row, elapsed = identity_1024
    res = row["max_rel_residuals"]
    worst = max(res[k] for k in ("riemann_const", "riemann_linear", "riemann_quadratic"))
    identities_ok = judge("variations", row)[0]["identities_ok"]
    ok = identities_ok and elapsed < 5.0
    report(
        2,
        ok,
        f"riemann identity residuals (1, x, x^2) <= {worst:.2e} on 100 paths "
        f"at n=2^10, {elapsed:.2f}s",
    )
    assert identities_ok, f"residuals {res}"
    assert elapsed < 5.0


def test_c03_hermite_rearrangement_identity(identity_1024):
    row, _ = identity_1024
    worst = row["max_rel_residuals"]["hermite_rearrangement"]
    ok = judge("variations", row)[0]["identities_ok"]
    report(3, ok, f"cubic = hermite + 3 n^(-1/3) B identity residual <= {worst:.2e}")
    assert ok, f"residuals {row['max_rel_residuals']}"


def test_c04_sextic_variation():
    result, elapsed = timed(sextic_experiment, LADDER, 500, MASTER_SEED)
    tol = MEAN_SE_MULT * result["mean_se"]
    checks, _ = judge("sextic", result)
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


def test_c05_signed_cubic_variation(identity_row):
    row, elapsed = identity_row
    checks, _ = judge("variations", row)
    var_ok, corr_ok = checks["variance_ok"], checks["corr_ok"]
    var, corr, kappa_sq = row["cubic_variance"], row["cubic_b_corr"], row["kappa_sq"]
    report(
        5,
        var_ok and corr_ok,
        f"Var(V_n)={var:.4f} (kappa^2={kappa_sq:.4f} +-{CUBIC_VAR_RTOL:.0%}), "
        f"|corr(V_n,B(1))|={abs(corr):.4f} < {CUBIC_CORR_MAX}, n=2^12 M=2000 ({elapsed:.2f}s)",
    )
    assert var_ok, f"Var(V_n)={var} outside {CUBIC_VAR_RTOL:.0%} of {kappa_sq}"
    assert corr_ok, f"|corr|={abs(corr)} not below {CUBIC_CORR_MAX}"


def test_c06_weak_stratonovich_convergence(converge_row):
    row, elapsed = converge_row
    results = {t: row["ks"][f"int:{t}"] for t in INTEGRANDS}
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


def test_c07_hermite_mean_limits(hermite_row):
    row, _ = hermite_row
    checks, _ = judge("hermite", row)
    left_ok, right_ok = checks["left_mean_ok"], checks["right_mean_ok"]
    limit = row["mean_limit"]
    tol_l, tol_r = MEAN_SE_MULT * row["left_se"], MEAN_SE_MULT * row["right_se"]
    left, right = row["left_mean"], row["right_mean"]
    report(
        7,
        left_ok and right_ok,
        f"left mean {left:+.4f} vs {limit:+.4f} (+-{tol_l:.4f}), "
        f"right mean {right:+.4f} vs {-limit:+.4f} (+-{tol_r:.4f})",
    )
    assert left_ok, f"left mean {left} vs limit {limit} +- {tol_l}"
    assert right_ok, f"right mean {right} vs limit {-limit} +- {tol_r}"


def test_c08_hermite_variance_limit(hermite_row):
    row, _ = hermite_row
    ok = judge("hermite", row)[0]["variance_ok"]
    var, limit = row["left_variance"], row["variance_limit"]
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
    rows, elapsed = timed(scaling_experiment, MASTER_SEED, replications=500)
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
    row = taylor_experiment(MASTER_SEED)
    checks, _ = judge("taylor", row)
    r6_ok, gamma_ok = checks["max_poly_r6"], checks["gamma_exact"]
    report(
        10,
        r6_ok and gamma_ok,
        f"max |R6| = {row['max_poly_r6']:.2e} over {row['pairs']} pairs x "
        f"{row['poly_count']} polynomials of degree <= 5, "
        f"gamma = {row['gamma']} = -1/480 exactly: {gamma_ok}",
    )
    assert r6_ok, f"max |R6| = {row['max_poly_r6']}"
    assert gamma_ok


def test_c11_anchored_cube_sums():
    row = audit_experiment(LADDER)
    checks, _ = judge("audit", row)
    small, decreasing = checks["anchored_sums_small"], checks["anchored_sums_decreasing"]
    top = row["anchored_cube_sums"][-1]
    report(
        11,
        small and decreasing,
        f"left(4096)={top['left']:.5f}, right(4096)={top['right']:.5f} < {ANCHOR_SUM_MAX}, "
        f"monotone over ladder: {decreasing}",
    )
    assert small
    assert decreasing


def test_c12_sampler_validity():
    row, elapsed = timed(
        sampler_experiment, MASTER_SEED, gram_n=512, gram_replications=2000, ks_replications=1000
    )
    gram_max_z, method_ks = row["gram_max_z"], row["method_ks"]
    checks, _ = judge("sampler", row)
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
