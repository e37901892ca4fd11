import math
from fractions import Fraction

import numpy as np
import pytest

from fbmlab import (
    DomainError,
    CapabilityError,
    Estimator,
    SampleSet,
    SeedPolicy,
    TAYLOR_GAMMA,
    cov_r,
    covar_bound_audit,
    ks_statistic,
    ks_two_sample,
    moment_scaling,
    monomial_map,
    orthogonality_audit,
    parse_integrand,
    sample_fbm,
    sin_map,
    taylor_residual,
)
from fbmlab import analysis
from fbmlab.analysis import fit_loglog, scaling_ladder, window_moments


class TestSampleSet:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            SampleSet(np.array([]))
        with pytest.raises(DomainError):
            SampleSet(np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            SampleSet(np.array([1.0, np.inf]))


class TestKs:
    def test_identical_samples(self):
        x = np.linspace(0, 1, 60)
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([0.0, 1.0], [10.0, 11.0]) == 1.0

    def test_small_enumeration_oracle(self):
        # brute force over all breakpoints of F_a - F_b
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.5, 2.5])
        points = np.concatenate([a, b])
        brute = max(
            abs(np.mean(a <= p) - np.mean(b <= p)) for p in points
        )
        assert brute == pytest.approx(1.0 / 3.0)
        assert ks_statistic(a, b) == pytest.approx(brute, abs=1e-15)

    def test_rank_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=200)
        b = rng.normal(0.3, 1.2, size=150)
        base = ks_statistic(a, b)
        for transform in (np.exp, np.arctan, lambda x: x**3):
            assert ks_statistic(transform(a), transform(b)) == base

    def test_two_sample_result(self):
        rng = np.random.default_rng(1)
        res = ks_two_sample(
            SampleSet(rng.normal(size=400), "a"), SampleSet(rng.normal(size=900), "b")
        )
        assert res.sample_sizes == (400, 900)
        assert res.critical_001 == pytest.approx(1.628 * math.sqrt(1300 / (400 * 900)))
        assert not res.rejects_at_1pct

    def test_min_sizes(self):
        with pytest.raises(DomainError):
            ks_two_sample(SampleSet(np.ones(10)), SampleSet(np.zeros(100)))


class TestScalingFit:
    def test_r_squared_reproduces_points(self):
        fit = fit_loglog([0.0, 1.0, 2.0, 3.0], [0.1, 1.9, 4.2, 5.9])
        x = np.array([p[0] for p in fit.points])
        y = np.array([p[1] for p in fit.points])
        resid = y - (fit.slope * x + fit.intercept)
        r2 = 1 - resid @ resid / np.sum((y - y.mean()) ** 2)
        assert fit.r_squared == pytest.approx(r2, abs=1e-12)

    def test_degenerate_gaps(self):
        with pytest.raises(DomainError):
            fit_loglog([1.0, 1.0], [0.0, 0.0])


class TestMomentScaling:
    def test_validation(self):
        with pytest.raises(DomainError):
            scaling_ladder(64, [8, 8], 200)
        with pytest.raises(DomainError):
            scaling_ladder(64, [0, 8], 200)
        with pytest.raises(DomainError):
            scaling_ladder(64, [8, 16], 100)
        with pytest.raises(DomainError):
            scaling_ladder(64, [8, 128], 200, horizon=1.0)

    def test_cubic_smoke_slope(self):
        fit = _fit(Estimator.CUBIC_4TH, 1024, [128, 256, 512, 1024], 5, horizon=1.0)
        assert 1.2 < fit.slope < 2.5
        assert fit.r_squared > 0.9

    def test_weighted_smoke_slope(self):
        fit = _fit(Estimator.WEIGHTED_CUBIC_2ND, 2048, [32, 64, 128, 256], 6)
        assert 0.7 < fit.slope < 1.8


def _fit(estimator, n, gaps, master_seed, horizon=None, replications=200):
    grid, gaps = scaling_ladder(n, gaps, replications, horizon)
    rows = [
        window_moments(estimator, sample_fbm(grid, SeedPolicy(master_seed, r)), gaps, sin_map())
        for r in range(replications)
    ]
    return moment_scaling(n, gaps, np.array(rows), replications)


class TestTaylor:
    def test_gamma_constant_symbolically(self):
        assert Fraction(1, 1920) - Fraction(1, 384) == Fraction(-1, 480)
        assert TAYLOR_GAMMA == pytest.approx(-1.0 / 480.0, abs=1e-18)

    def test_cubic_closes_exactly(self):
        g = monomial_map(3)
        for a, b in ((0.0, 1.0), (-0.7, 0.4), (2.0, 2.5)):
            pieces = taylor_residual(g, a, b)
            assert pieces.gamma_term == 0.0
            assert abs(pieces.r6) < 1e-12
            # trapezoid minus (1/12) g'''(x) d^3 recovers g(b) - g(a):
            # defect + (1/12) * 6 * d^3 = 0
            assert pieces.trapezoid_defect == pytest.approx(-0.5 * (b - a) ** 3, abs=1e-12)

    def test_degree_five_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            coeffs = tuple(rng.uniform(-1, 1, size=rng.integers(1, 7)))
            g = parse_integrand("poly:" + ",".join(repr(float(c)) for c in coeffs))
            for a, b in rng.uniform(-1, 1, size=(40, 2)):
                assert abs(taylor_residual(g, float(a), float(b)).r6) < 1e-9

    def test_sin_small_interval_against_direct_oracle(self):
        g = sin_map()
        a, b = 0.0, 0.1
        pieces = taylor_residual(g, a, b)
        # direct evaluation of both sides: sin''' = -cos, sin^(5) = +cos
        x, d = 0.5 * (a + b), b - a
        direct = (
            math.sin(b)
            - math.sin(a)
            - 0.5 * (math.cos(a) + math.cos(b)) * d
            + (-math.cos(x)) * d**3 / 12.0
            - TAYLOR_GAMMA * math.cos(x) * d**5
        )
        assert pieces.r6 == pytest.approx(direct, abs=1e-15)
        assert abs(pieces.r6) <= 1e-7

    def test_arrays_match_scalar_calls(self):
        # numpy's array power may differ from the scalar one in the last ulp
        rng = np.random.default_rng(8)
        a, b = rng.uniform(-1, 1, size=(2, 64))
        for g in (parse_integrand("poly:0.3,-0.2,0.9,0.1,-0.7,0.4"), monomial_map(6), sin_map()):
            pieces = taylor_residual(g, a, b)
            for field, values in zip(pieces._fields, pieces):
                scalar = [getattr(taylor_residual(g, x, y), field) for x, y in zip(a, b)]
                assert values.shape == (64,)
                np.testing.assert_allclose(values, scalar, rtol=1e-14, atol=1e-15)

    def test_sixth_degree_residual_sign(self):
        # degree 6 monomial has constant g^(6); R6 must scale like d^6
        g = monomial_map(6)
        small = abs(taylor_residual(g, 0.0, 0.1).r6)
        large = abs(taylor_residual(g, 0.0, 0.2).r6)
        assert large > 30 * small  # ~2^6 with round-off slack


def reference_audit(n, horizon=1.0):
    """The six audit ratios straight from cov_r on the grid times index/n, O(m^2)."""
    m = round(n * horizon)
    idx = np.arange(m + 1)
    t = idx / n
    cov = cov_r(t[:, None], t[None, :])
    dt13 = (1.0 / n) ** (1.0 / 3.0)
    j = idx[1:]
    lag = np.maximum(np.abs(j[None, :] - idx[:, None]), 1)
    env = dt13 * (j[None, :] ** (-2.0 / 3.0) + lag ** (-2.0 / 3.0))
    # E[dB_i dB_j], E[B(t_i) dB_j] for i = 0..m, E[beta_i dB_j] for i = 1..m
    incr = cov[1:, 1:] - cov[1:, :-1] - cov[:-1, 1:] + cov[:-1, :-1]
    endpoint = cov[:, 1:] - cov[:, :-1]
    midpoint = 0.5 * (endpoint[:-1] + endpoint[1:])
    # E[beta_i beta_j] and the gaps E|beta_j - beta_i|^2 for i != j
    beta = 0.25 * (cov[:-1, :-1] + cov[:-1, 1:] + cov[1:, :-1] + cov[1:, 1:])
    gap = np.diag(beta)[:, None] + np.diag(beta)[None, :] - 2.0 * beta
    off = ~np.eye(m, dtype=bool)
    gap_ratio = gap[off] / np.cbrt(np.abs(t[1:, None] - t[None, 1:]))[off]
    return {
        "i_increment_max": np.max(np.abs(incr) / (dt13 * lag[1:] ** (-5.0 / 3.0))),
        "ii_endpoint_max": np.max(np.abs(endpoint) / env),
        "iii_midpoint_max": np.max(np.abs(midpoint) / env[1:]),
        "iv_diagonal_max": np.max(np.abs(np.diag(midpoint)) / (dt13 * j ** (-2.0 / 3.0))),
        "v_gap_max": np.max(gap_ratio),
        "v_gap_min": np.min(gap_ratio),
    }


class TestCovarAudit:
    def test_matches_brute_force_reference(self, monkeypatch):
        cases = ((3, 1.0), (64, 1.0), (100, 1.0), (257, 1.0), (64, 0.5))
        expected = {case: reference_audit(*case) for case in cases}
        # small row blocks make every block boundary carry a row
        for rows in (analysis.AUDIT_BLOCK_ROWS, 7, 2):
            monkeypatch.setattr(analysis, "AUDIT_BLOCK_ROWS", rows)
            for case in cases:
                audit = covar_bound_audit(*case).as_dict()
                for key, value in expected[case].items():
                    assert audit[key] == pytest.approx(value, rel=1e-12), (case, rows, key)

    def test_self_pair_ratio_is_one(self):
        audit = covar_bound_audit(128)
        assert audit.increment_ratio_max == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_midpoint_below_one(self):
        audit = covar_bound_audit(256)
        assert 0.0 < audit.diagonal_ratio_max < 1.0
        # first step gives exactly 1/2
        assert audit.diagonal_ratio_max == pytest.approx(0.5, abs=1e-12)

    def test_two_sided_midpoint_gap(self):
        audit = covar_bound_audit(256)
        assert 0.0 < audit.midpoint_gap_ratio_min < audit.midpoint_gap_ratio_max
        assert audit.midpoint_gap_ratio_max < 2.0
        assert 1.0 / audit.midpoint_gap_ratio_min < 10.0
        # the smallest gap ratio sits at lag 1: (2 + 2^{1/3} - 2) / 4 on any grid
        assert audit.midpoint_gap_ratio_min == pytest.approx(2.0 ** (1 / 3) / 4, rel=1e-15)

    def test_ratios_stable_in_n(self):
        a = covar_bound_audit(128).as_dict()
        b = covar_bound_audit(512).as_dict()
        for key in ("i_increment_max", "ii_endpoint_max", "iii_midpoint_max",
                    "iv_diagonal_max", "v_gap_max", "v_gap_min"):
            assert b[key] == pytest.approx(a[key], rel=0.25)

    def test_capability_limit(self):
        with pytest.raises(CapabilityError):
            covar_bound_audit(8192)


class TestOrthogonality:
    def test_first_order(self):
        assert abs(orthogonality_audit(1, 1, 0.5)) < 1e-10

    def test_cross_orders_vanish(self):
        for c in (-0.8, 0.0, 0.61):
            assert abs(orthogonality_audit(1, 3, c)) < 1e-8
            assert abs(orthogonality_audit(2, 4, c)) < 1e-8

    def test_third_order_value(self):
        # 3! * 0.5^3 = 0.75; deviation from it must be tiny
        assert abs(orthogonality_audit(3, 3, 0.5)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            orthogonality_audit(1, 1, 1.5)
        with pytest.raises(DomainError):
            orthogonality_audit(5, 1, 0.0)
