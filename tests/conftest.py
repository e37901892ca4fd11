"""Shared fixtures.  The acceptance rows are the report rows that the
converge, variations and hermite commands' own experiments return at
n = 2^12, M = 2000 and the default master seed, each with its build time."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fbmlab
from fbmlab.experiments import (
    converge_experiment,
    hermite_experiment,
    identity_experiment,
)
from fbmlab.variations import parse_integrand_list

# default master seed of the shipped configuration; fixed up front so the
# acceptance outcomes are a deterministic property of the artifact
MASTER_SEED = 2

ACCEPT_N = 4096
ACCEPT_REPLICATIONS = 2000
INTEGRANDS = ("1", "x", "x^2", "sin")
WORKERS = 2  # rows do not depend on the worker count


def timed(experiment, *args, **kwargs):
    """experiment(*args, **kwargs) and its wall time in seconds."""
    start = time.perf_counter()
    result = experiment(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def endpoint_cov():
    """E[B(t_i) dB_k] = (k^{1/3} - (k-1)^{1/3} - |k - i|^{1/3} + |k - i - 1|^{1/3}) / (2 n^{1/3})
    with one cube root per lag, as the formula reads: the bit-for-bit reference of the
    kernel's endpoint_increment_block and anchor_covariances.  Broadcasts over i and k."""

    def direct(n, i, k):
        i, k = np.asarray(i, dtype=float), np.asarray(k, dtype=float)
        c = lambda x: np.cbrt(np.abs(x))
        return (c(k) - c(k - 1) - c(k - i) + c(k - i - 1)) / (2.0 * np.cbrt(float(n)))

    return direct


@pytest.fixture(scope="session")
def expect_gauss_pair():
    """E[f(X) g(Y)] for centered jointly Gaussian (X, Y) of positive variances by a
    64 x 64 tensor Gauss-Hermite rule over the Cholesky substitution
    Y = sy (c Z1 + sqrt(1 - c^2) Z2), c = corr(X, Y): the reference of the package's
    closed-form pair moments, exact for polynomials f, g with deg f + deg g < 128."""
    x, w = np.polynomial.hermite.hermgauss(64)
    z, w = np.sqrt(2.0) * x, w / np.sqrt(np.pi)

    def rule(f, g, var_x, var_y, cov):
        corr = float(np.clip(cov / np.sqrt(var_x * var_y), -1.0, 1.0))
        sx, sy = np.sqrt(var_x), np.sqrt(var_y)
        fx = np.asarray(f(sx * z))
        gy = np.asarray(g(sy * (corr * z[:, None] + np.sqrt(1.0 - corr * corr) * z[None, :])))
        return float(np.einsum("i,j,i,ij->", w, w, fx, gy))

    return rule


@pytest.fixture(scope="session")
def fresh_python():
    """Run a Python snippet in a new interpreter that imports this fbmlab;
    return its stdout.  For checks on what a process has imported."""
    src = os.path.dirname(os.path.dirname(fbmlab.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture(scope="session")
def converge_run():
    """converge's row at n = 2^12, its columns and its sums of g''^2, and
    the wall time: one estimator corpus, no limit law sampled."""
    [(row, cols, g2_sums)], seconds = timed(
        converge_experiment, [ACCEPT_N], ACCEPT_REPLICATIONS, MASTER_SEED,
        parse_integrand_list("; ".join(INTEGRANDS)), workers=WORKERS,
    )
    return row, cols, g2_sums, seconds


@pytest.fixture(scope="session")
def converge_row(converge_run):
    """converge's row: KS of B(1) and of the scaled cubic variation against
    N(0, 1), and per integrand either the pivot Z_g (KS, mean against the
    exact finite-n mean, variance) or the identity residual."""
    row, _, _, seconds = converge_run
    return row, seconds


@pytest.fixture(scope="session")
def identity_row():
    """variations' row: identity residuals and the law of V_n(B, 1)."""
    [(row, _)], seconds = timed(
        identity_experiment, [ACCEPT_N], ACCEPT_REPLICATIONS, MASTER_SEED, workers=WORKERS
    )
    return row, seconds


@pytest.fixture(scope="session")
def hermite_row():
    """hermite's row for sin: means and left variance of the weighted
    third-Hermite variations, with their quadrature limits."""
    [(row, _)], seconds = timed(
        hermite_experiment, [ACCEPT_N], ACCEPT_REPLICATIONS, MASTER_SEED, workers=WORKERS
    )
    return row, seconds
