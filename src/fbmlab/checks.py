"""The acceptance checks in one table, shared by --check and the acceptance suite.

Each entry names a command, a check, its scope and a predicate over the
report row of the command's experiment, and each threshold is compared
here alone.  A TOP check is asymptotic: judged on every row, it gates only
at the largest grid in --n-list.  The "sampler" entries have no command;
the acceptance suite judges sampler_experiment's row with them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .analysis import Estimator

KAPPA_SQ_REF, KAPPA_SQ_TOL = 5.391, 1e-3
KAPPA_REF, KAPPA_TOL = 2.322, 5e-3
IDENTITY_TOL = 1e-10
CUBIC_VAR_RTOL = 0.10
CUBIC_CORR_MAX = 0.08
HERMITE_VAR_RTOL = 0.10
SLOPE_FLOORS = {
    Estimator.CUBIC_4TH: 1.8,
    Estimator.QUINTIC_2ND: 1.2,
    Estimator.WEIGHTED_CUBIC_2ND: 0.9,
}
SLOPE_R2_MIN = 0.95
TAYLOR_R6_TOL = 1e-9
ANCHOR_SUM_MAX = 0.01
ORTHOGONALITY_TOL = 1e-8
# largest entrywise z score of the sampler's empirical Gram matrix
GRAM_Z_MAX = 4.0
# a Monte Carlo mean passes within this many standard errors of its target
MEAN_SE_MULT = 3.0

EVERY, TOP = False, True


class Check(NamedTuple):
    command: str
    name: str  # stderr prints "check failed: <command> <where><name>"
    top_only: bool  # EVERY or TOP
    holds: Callable[[dict], bool]


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


CHECKS = (
    Check("kappa", "kappa_sq_close", EVERY,
          lambda r: _within(r["kappa_sq"], KAPPA_SQ_REF, KAPPA_SQ_TOL)),
    Check("kappa", "kappa_close", EVERY, lambda r: _within(r["kappa"], KAPPA_REF, KAPPA_TOL)),
    # judged on each KS row of a converge row; stderr adds the row's key after the name
    Check("converge", "ks", EVERY, lambda ks: not ks["rejects"]),
    Check("variations", "identities_ok", EVERY,
          lambda r: all(v <= IDENTITY_TOL for v in r["max_rel_residuals"].values())),
    Check("variations", "variance_ok", TOP,
          lambda r: _within(r["cubic_variance"], r["kappa_sq"], CUBIC_VAR_RTOL * r["kappa_sq"])),
    Check("variations", "corr_ok", TOP, lambda r: abs(r["cubic_b_corr"]) < CUBIC_CORR_MAX),
    Check("sextic", "medians_decreasing", EVERY, lambda r: r["medians_decreasing"]),
    Check("sextic", "mean_ok", EVERY,
          lambda r: _within(r["mean_value"], r["mean_target"], MEAN_SE_MULT * r["mean_se"])),
    Check("hermite", "left_mean_ok", EVERY,
          lambda r: _within(r["left_mean"], r["mean_limit"], MEAN_SE_MULT * r["left_se"])),
    Check("hermite", "right_mean_ok", EVERY,
          lambda r: _within(r["right_mean"], -r["mean_limit"], MEAN_SE_MULT * r["right_se"])),
    Check("hermite", "variance_ok", TOP,
          lambda r: _within(r["left_variance"], r["variance_limit"],
                            HERMITE_VAR_RTOL * r["variance_limit"])),
    Check("scaling", "ok", EVERY,
          lambda r: r["slope"] >= r["slope_floor"] and r["r_squared"] >= SLOPE_R2_MIN),
    Check("taylor", "max_poly_r6", EVERY, lambda r: r["max_poly_r6"] < TAYLOR_R6_TOL),
    Check("taylor", "gamma_exact", EVERY, lambda r: r["gamma_exact"]),
    Check("audit", "anchored_sums_decreasing", EVERY, lambda r: r["anchored_sums_decreasing"]),
    Check("audit", "anchored_sums_small", EVERY,
          lambda r: all(r["anchored_cube_sums"][-1][side] < ANCHOR_SUM_MAX
                        for side in ("left", "right"))),
    Check("audit", "orthogonality_max_dev", EVERY,
          lambda r: r["orthogonality_max_dev"] < ORTHOGONALITY_TOL),
    Check("sampler", "gram_z_ok", EVERY, lambda r: r["gram_max_z"] < GRAM_Z_MAX),
    Check("sampler", "method_ks_ok", EVERY, lambda r: not r["method_ks"]["rejects"]),
)


def verdicts(command: str, row: dict, names=None) -> dict[str, bool]:
    """The verdict of each check of command (or of those in names) on row."""
    return {
        c.name: bool(c.holds(row))
        for c in CHECKS
        if c.command == command and (names is None or c.name in names)
    }


def judge(
    command: str, row: dict, where: str = "", top: bool = True
) -> tuple[dict[str, bool], list[str]]:
    """The verdict of each of command's checks on row, and the names of
    those that fail and gate there, each after where; a TOP check gates
    only at the largest grid (top)."""
    checks = verdicts(command, row)
    failed = [c for c in CHECKS if c.command == command and not checks[c.name]]
    return checks, [where + c.name for c in failed if top or not c.top_only]
