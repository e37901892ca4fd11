"""The acceptance checks in one table, shared by --check and the acceptance suite.

Each entry names a command, a check, its scope and a predicate over the
report row of the command's experiment; every verdict is decided, and each
threshold compared, here alone.  A TOP check is asymptotic: judged on
every row, it gates only at the largest grid in --n-list.  The "sampler"
entries have no command; the acceptance suite judges sampler_experiment's
row with them.  The measured entries (those of converge and the sampler,
the correlation of variations, taylor's R6 and audit's anchored sums and
orthogonality) map the row to one record per column, {value, target, tol,
margin, ok}, which holds when |value - target| <= tol.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .analysis import Estimator

# Asymptotic KS coefficient at alpha = 0.01, sqrt(-ln(alpha/2) / 2) = 1.628...:
# a one-sample KS of M replications rejects above 1.628 / sqrt(M).
KS_COEFF_001 = 1.628
KAPPA_SQ_REF, KAPPA_SQ_TOL = 5.391, 1e-3
KAPPA_REF, KAPPA_TOL = 2.322, 5e-3
IDENTITY_TOL = 1e-10
CUBIC_VAR_RTOL = 0.10
# |Var Z_g - 1| of a converge pivot; a KS of Z_g alone misses kappa scaled by 0.9
PIVOT_VAR_TOL = 0.10
HERMITE_VAR_RTOL = 0.10
SLOPE_FLOORS = {
    Estimator.CUBIC_4TH: 1.8,
    Estimator.QUINTIC_2ND: 1.2,
    Estimator.WEIGHTED_CUBIC_2ND: 0.9,
}
SLOPE_R2_MIN = 0.95
TAYLOR_R6_TOL = 1e-9
# the anchored cube sums of n steps are at most c n^{-2/3}, the telescoping
# bounds of kernel.anchor_cube_sums
ANCHOR_SUM_COEFFS = {"left": 3.0 / 8.0, "right": 7.0 / 8.0}
ORTHOGONALITY_TOL = 1e-8
# a Monte Carlo mean passes within this many standard errors of its target
MEAN_SE_MULT = 3.0

EVERY, TOP = False, True


class Check(NamedTuple):
    command: str
    # stderr prints "check failed: <command> <where><name>", and for a
    # measured check the column and its record after the name
    name: str
    top_only: bool  # EVERY or TOP
    holds: Callable[[dict], bool | dict[str, dict]]


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def _record(value: float, target: float, tol: float) -> dict:
    margin = tol - abs(value - target)
    return {"value": value, "target": target, "tol": tol, "margin": margin, "ok": margin >= 0}


def _identities(deviations):
    """Exact identities: each deviation against 0 within IDENTITY_TOL."""
    return {key: _record(dev, 0.0, IDENTITY_TOL) for key, dev in deviations.items()}


def _ks(row: dict, statistic: float) -> dict:
    """A one-sample KS distance against its 1 % critical value."""
    return _record(statistic, 0.0, KS_COEFF_001 / math.sqrt(row["replications"]))


def _describe(record: dict) -> str:
    numbers = (f"{key} {record[key]:.4g}" for key in ("value", "target", "tol", "margin"))
    return "(" + ", ".join(numbers) + ")"


CHECKS = (
    Check("kappa", "kappa_sq_close", EVERY,
          lambda r: _within(r["kappa_sq"], KAPPA_SQ_REF, KAPPA_SQ_TOL)),
    Check("kappa", "kappa_close", EVERY, lambda r: _within(r["kappa"], KAPPA_REF, KAPPA_TOL)),
    # B(1) ~ N(0, 1) exactly, so its KS gates at every grid
    Check("converge", "normal_ks", EVERY, lambda r: {"B": _ks(r, r["B"]["ks"])}),
    Check("converge", "cubic_ks", TOP, lambda r: {"cubic": _ks(r, r["cubic"]["ks"])}),
    Check("converge", "pivot_ks", TOP,
          lambda r: {g: _ks(r, p["ks"]) for g, p in r["pivots"].items()}),
    Check("converge", "pivot_mean", EVERY,
          lambda r: {g: _record(p["mean"], p["mean_exact"], MEAN_SE_MULT * p["mean_se"])
                     for g, p in r["pivots"].items()}),
    Check("converge", "pivot_variance", TOP,
          lambda r: {g: _record(p["variance"], 1.0, PIVOT_VAR_TOL)
                     for g, p in r["pivots"].items()}),
    Check("converge", "identity", EVERY, lambda r: _identities(r["identities"])),
    Check("variations", "identities_ok", EVERY,
          lambda r: all(v <= IDENTITY_TOL for v in r["max_rel_residuals"].values())),
    Check("variations", "variance_ok", TOP,
          lambda r: _within(r["cubic_variance"], r["kappa_sq"], CUBIC_VAR_RTOL * r["kappa_sq"])),
    # corr(V_n, B(1)) against its exact value on Fisher's z scale, where
    # atanh r has standard error 1 / sqrt(M - 3)
    Check("variations", "corr_ok", TOP,
          lambda r: {"fisher_z": _record(math.atanh(r["cubic_b_corr"]),
                                         math.atanh(r["cubic_b_corr_exact"]),
                                         MEAN_SE_MULT / math.sqrt(r["replications"] - 3))}),
    Check("sextic", "medians_decreasing", EVERY, lambda r: _decreasing(r["median_sup_deviation"])),
    Check("sextic", "mean_ok", EVERY,
          lambda r: _within(r["mean_value"], r["mean_target"], MEAN_SE_MULT * r["mean_se"])),
    Check("hermite", "left_mean_ok", EVERY,
          lambda r: _within(r["left_mean"], r["left_mean_exact"], MEAN_SE_MULT * r["left_se"])),
    Check("hermite", "right_mean_ok", EVERY,
          lambda r: _within(r["right_mean"], r["right_mean_exact"], MEAN_SE_MULT * r["right_se"])),
    Check("hermite", "variance_ok", TOP,
          lambda r: _within(r["left_variance"], r["variance_target"],
                            HERMITE_VAR_RTOL * r["variance_target"])),
    Check("scaling", "ok", EVERY,
          lambda r: r["slope"] >= r["slope_floor"] and r["r_squared"] >= SLOPE_R2_MIN),
    Check("taylor", "max_poly_r6", EVERY,
          lambda r: {"poly": _record(r["max_poly_r6"], 0.0, TAYLOR_R6_TOL)}),
    Check("taylor", "gamma_exact", EVERY, lambda r: r["gamma"] == -1.0 / 480.0),
    Check("audit", "anchored_sums_decreasing", EVERY,
          lambda r: all(_decreasing([row[side] for row in r["anchored_cube_sums"]])
                        for side in ANCHOR_SUM_COEFFS)),
    Check("audit", "anchored_sums_small", EVERY,
          lambda r: {f"n={row['n']} {side}": _record(row[side], 0.0, c * row["n"] ** (-2.0 / 3.0))
                     for row in r["anchored_cube_sums"] for side, c in ANCHOR_SUM_COEFFS.items()}),
    Check("audit", "orthogonality_max_dev", EVERY,
          lambda r: {"mehler": _record(r["orthogonality_max_dev"], 0.0, ORTHOGONALITY_TOL)}),
    # the exact covariance of the circulant paths, and the KS of their B(1),
    # which alone sees the normals and the seed wiring
    Check("sampler", "covariance_max_dev", EVERY, lambda r: _identities(r["covariance_max_dev"])),
    Check("sampler", "b1_ks", EVERY, lambda r: {"B": _ks(r, r["b1_ks"])}),
)


def judge(
    command: str, row: dict, where: str = "", top: bool = True
) -> tuple[dict[str, bool | dict[str, dict]], list[str]]:
    """The verdict of each of command's checks on row, and the failures of
    those that gate there, each after where; a TOP check gates only at the
    largest grid (top).  A measured check's verdict is its records by
    column, and each failed record is named by its column and numbers."""
    checks, failed = {}, []
    for c in CHECKS:
        if c.command != command:
            continue
        verdict = c.holds(row)
        gates = top or not c.top_only
        if isinstance(verdict, dict):
            failed += [f"{where}{c.name} {key} {_describe(record)}"
                       for key, record in verdict.items() if gates and not record["ok"]]
        else:
            verdict = bool(verdict)
            if gates and not verdict:
                failed.append(where + c.name)
        checks[c.name] = verdict
    return checks, failed
