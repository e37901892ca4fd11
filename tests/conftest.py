"""Shared fixtures.  The acceptance rows are the report rows that the
converge, variations and hermite commands' own experiments return at
n = 2^12, M = 2000 and the default master seed, each with its build time."""

import os
import subprocess
import sys
import time

import pytest

import fbmlab
from fbmlab.experiments import (
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    parse_integrand_list,
)

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
def converge_row():
    """converge's row: KS of each column at n = 2^12 against the oracle on
    REFINEMENT * 2^12 = 2^14 steps, whose streams start at 2000."""
    (row, _, _), seconds = timed(
        converge_experiment, ACCEPT_N, ACCEPT_REPLICATIONS, MASTER_SEED,
        parse_integrand_list("; ".join(INTEGRANDS)), workers=WORKERS,
    )
    return row, seconds


@pytest.fixture(scope="session")
def identity_row():
    """variations' row: identity residuals and the law of V_n(B, 1)."""
    (row, _), seconds = timed(
        identity_experiment, ACCEPT_N, ACCEPT_REPLICATIONS, MASTER_SEED, workers=WORKERS
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
