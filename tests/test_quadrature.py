import math

import numpy as np
import pytest
from scipy import integrate

import fbmlab.quadrature as quadrature
from fbmlab.errors import DomainError
from fbmlab.kernel import cov_r, kappa_constant, left_anchor_cube_sum
from fbmlab.quadrature import (
    closed_pair_moment,
    expect_gauss,
    expect_gauss_pair,
    hermite_mean_exact,
    hermite_mean_limit,
    hermite_variance_limit,
    time_integral_expect,
)
from fbmlab.variations import monomial_map, parse_integrand, sin_map
from fbmlab.kernel import endpoint_increment_cov
from fbmlab.quadrature import GL_NODES, _gauss_legendre_01


class TestExpectGauss:
    def test_gaussian_moments(self):
        for var in (0.25, 1.0, 2.5):
            assert expect_gauss(lambda x: x**2, var) == pytest.approx(var, abs=1e-12)
            assert expect_gauss(lambda x: x**4, var) == pytest.approx(3 * var**2, abs=1e-10)
            assert expect_gauss(lambda x: x**6, var) == pytest.approx(15 * var**3, abs=1e-8)

    def test_characteristic_function(self):
        # E cos(B) = exp(-var/2) for a centered Gaussian
        for var in (0.1, 0.5, 1.0):
            assert expect_gauss(np.cos, var) == pytest.approx(math.exp(-var / 2), abs=1e-12)

    def test_degenerate_variance(self):
        assert expect_gauss(np.cos, 0.0) == 1.0
        with pytest.raises(DomainError):
            expect_gauss(np.cos, -1.0)


class TestExpectGaussPair:
    def test_cross_moment(self):
        assert expect_gauss_pair(lambda x: x, lambda y: y, 1.0, 1.0, 0.37) == pytest.approx(
            0.37, abs=1e-12
        )
        assert expect_gauss_pair(lambda x: x, lambda y: y, 2.0, 0.5, -0.4) == pytest.approx(
            -0.4, abs=1e-12
        )

    def test_independent_product(self):
        value = expect_gauss_pair(np.cos, np.cos, 1.0, 1.0, 0.0)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_cosine_pair_closed_form(self):
        # E[cos X cos Y] = (exp(-Var(X-Y)/2) + exp(-Var(X+Y)/2)) / 2
        vx, vy, c = 0.8, 0.5, 0.3
        closed = 0.5 * (math.exp(-(vx + vy - 2 * c) / 2) + math.exp(-(vx + vy + 2 * c) / 2))
        assert expect_gauss_pair(np.cos, np.cos, vx, vy, c) == pytest.approx(closed, abs=1e-12)

    def test_correlation_bounds(self):
        with pytest.raises(DomainError):
            expect_gauss_pair(np.cos, np.cos, 1.0, 1.0, 1.5)

    def test_odd_cross_moment_linear_response(self):
        # E[sin(X) Y^3] = eta e^{-1/2} (3 - eta^2) for unit-variance pair
        # with covariance eta: the odd cross moment vanishes linearly in
        # the coupling, with bounded slope, as eta -> 0
        for eta in (0.3, 0.05, 0.004):
            value = expect_gauss_pair(np.sin, lambda y: y**3, 1.0, 1.0, eta)
            closed = eta * math.exp(-0.5) * (3.0 - eta * eta)
            assert value == pytest.approx(closed, abs=1e-12)
            assert abs(value) <= 3.0 * abs(eta)


TRIG_EXP_SPECS = (
    "sin", "cos", "sin:2,0.5,0.3", "sin:-1.5,2,0.7", "exp", "exp:1,0.5", "exp:-0.7,1.3",
)


class TestClosedPairMoment:
    # (var_x, var_y, cov): positive, negative and near-perfect correlation
    TRIPLES = (
        (0.8, 0.5, 0.3),
        (1.0, 0.6, -0.35),
        (0.4, 0.9, 0.999 * math.sqrt(0.36)),
        (0.7, 0.7, -0.999 * 0.7),
    )

    @pytest.mark.parametrize("spec", TRIG_EXP_SPECS)
    def test_matches_the_gauss_hermite_rule(self, spec):
        g3 = parse_integrand(spec).derivative(3)
        for vx, vy, r in self.TRIPLES:
            rule = expect_gauss_pair(g3, g3, vx, vy, r)
            assert closed_pair_moment(g3, vx, vy, r) == pytest.approx(rule, rel=1e-12, abs=0)

    def test_refuses_a_polynomial(self):
        with pytest.raises(DomainError):
            closed_pair_moment(monomial_map(2), 1.0, 1.0, 0.5)


def _per_pair_variance_limit(g, t, kappa_sq, nodes):
    # hermite_variance_limit as it was before the closed form: one bivariate
    # Gauss-Hermite rule at every Gauss-Legendre node pair
    g3 = g.derivative(3)
    sq_term = kappa_sq * time_integral_expect(lambda x: np.asarray(g(x)) ** 2, t)
    s, w = _gauss_legendre_01(nodes)
    s = t * s
    var = s ** (1.0 / 3.0)
    cov = cov_r(s[:, None], s[None, :])
    double = 0.0
    for i in range(len(s)):
        row = [expect_gauss_pair(g3, g3, var[i], var[j], float(cov[i, j])) for j in range(len(s))]
        double += w[i] * np.dot(w, np.array(row))
    double *= t * t
    return float(sq_term + double / 64.0 - hermite_mean_limit(g, t) ** 2)


class TestTimeIntegral:
    def test_variance_integral(self):
        # int_0^1 E[B_s^2] ds = int_0^1 s^{1/3} ds = 3/4
        assert time_integral_expect(lambda x: x**2, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_sin_squared_closed_form(self):
        # int_0^1 E sin^2(B_s) ds = 1/8 + (15/8) e^{-2}
        target = 1 / 8 + (15 / 8) * math.exp(-2.0)
        assert time_integral_expect(lambda x: np.sin(x) ** 2, 1.0) == pytest.approx(
            target, abs=1e-12
        )

    def test_zero_horizon(self):
        assert time_integral_expect(np.cos, 0.0) == 0.0


class TestHermiteLimits:
    def test_mean_limit_sin_closed_form(self):
        # -(1/8) int_0^1 E[-cos(B_s)] ds = (1/8) int_0^1 e^{-s^{1/3}/2} ds
        # = (1/8) * 3 * int_0^1 u^2 e^{-u/2} du = 6 - 9.75 e^{-1/2}
        assert hermite_mean_limit(sin_map(), 1.0) == pytest.approx(
            6.0 - 9.75 * math.exp(-0.5), abs=1e-10
        )

    def test_mean_limit_scales_with_horizon(self):
        half = hermite_mean_limit(sin_map(), 0.5)
        direct, _ = integrate.quad(lambda s: math.exp(-(s ** (1 / 3)) / 2), 0, 0.5)
        assert half == pytest.approx(direct / 8, abs=1e-9)

    def test_mean_limit_cubic_is_constant_integrand(self):
        # g = x^3 has g''' = 6, so the limit is -(6/8) t
        assert hermite_mean_limit(monomial_map(3), 1.0) == pytest.approx(-0.75, abs=1e-12)

    def test_variance_limit_sin_vs_dblquad(self):
        kappa_sq = kappa_constant(10_000).kappa_sq

        def cos_pair(s, u):
            dv = abs(s - u) ** (1 / 3)
            sv = s ** (1 / 3) + u ** (1 / 3)
            return 0.5 * (math.exp(-dv / 2) + math.exp(-(sv - dv / 2)))

        double, err = integrate.dblquad(cos_pair, 0, 1, 0, 1, epsabs=1e-10)
        sin_sq = 1 / 8 + (15 / 8) * math.exp(-2.0)
        # the limit second moment less the squared limit mean 6 - 9.75 e^{-1/2}
        target = kappa_sq * sin_sq + double / 64.0 - (6 - 9.75 * math.exp(-0.5)) ** 2
        value = hermite_variance_limit(sin_map(), 1.0, kappa_sq)
        assert value == pytest.approx(target, rel=1e-4)
        assert err < 1e-8

    def test_variance_limit_sin_is_pinned(self):
        # one broadcast cov_r matrix gives the scalar calls' values exactly
        s, _ = _gauss_legendre_01(GL_NODES)
        cov = cov_r(s[:, None], s[None, :])
        assert all(cov[i, j] == cov_r(s[i], s[j]) for i in range(len(s)) for j in range(len(s)))
        kappa_sq = kappa_constant().kappa_sq
        assert hermite_variance_limit(sin_map(), 1.0, kappa_sq) == 2.042684241747045

    def test_variance_limit_converges_in_nodes(self):
        # 64 Gauss-Legendre nodes settle the limit to about 6e-6 relative
        kappa_sq = kappa_constant().kappa_sq
        v16, v32, v64 = (
            hermite_variance_limit(sin_map(), 1.0, kappa_sq, nodes=m) for m in (16, 32, 64)
        )
        assert (v16, v32, v64) == pytest.approx((2.0427242, 2.0426961, 2.0426842), abs=1e-7)
        assert abs(v64 - v32) < 1e-5 * v64
        assert abs(v64 - v32) < abs(v32 - v16)

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize("spec", ["cos", "sin:-1.5,2,0.7", "exp:-0.7,1.3"])
    def test_variance_limit_matches_the_per_pair_rule(self, spec, nodes):
        g, kappa_sq = parse_integrand(spec), kappa_constant().kappa_sq
        assert hermite_variance_limit(g, 1.0, kappa_sq, nodes=nodes) == pytest.approx(
            _per_pair_variance_limit(g, 1.0, kappa_sq, nodes), rel=1e-13, abs=0
        )

    def test_trig_and_exp_make_no_pair_rule_call(self, monkeypatch):
        calls = []
        rule = quadrature.expect_gauss_pair
        monkeypatch.setattr(
            quadrature, "expect_gauss_pair",
            lambda *args, **kwargs: calls.append(args) or rule(*args, **kwargs),
        )
        kappa_sq = kappa_constant().kappa_sq
        for spec in ("sin", "exp"):
            hermite_variance_limit(parse_integrand(spec), 1.0, kappa_sq)
        assert len(calls) == 0
        # a polynomial still takes the rule, once per node pair
        hermite_variance_limit(monomial_map(3), 1.0, kappa_sq, nodes=16)
        assert len(calls) == 16 * 16

    def test_variance_limit_cubic_closed_form(self):
        # g = x^3: kappa^2 int_0^1 E[B_s^6] ds = kappa^2 int_0^1 15 s ds = 7.5 kappa^2,
        # and g''' = 6 makes the double term 36/64 cancel the squared mean (6/8)^2
        kappa_sq = kappa_constant().kappa_sq
        assert hermite_variance_limit(monomial_map(3), 1.0, kappa_sq) == pytest.approx(
            7.5 * kappa_sq, rel=1e-12, abs=0
        )


class TestHermiteExactMean:
    def test_constant_third_derivative_reduces_to_cube_sums(self):
        # g = x^3: exact mean is 6 sum_j E[B(t_{j-1}) dB_j]^3
        n = 64
        k = np.arange(1, n + 1)
        cubes = np.asarray(endpoint_increment_cov(n, k - 1, k)) ** 3
        assert hermite_mean_exact(monomial_map(3), n, 1.0) == pytest.approx(
            6.0 * float(np.sum(cubes)), rel=1e-12
        )

    def test_exact_at_non_power_of_two_n(self):
        # the same reduction from the closed form E[B(t_{k-1}) dB_k]
        # = (k^{1/3} - (k-1)^{1/3} - 1) / (2 n^{1/3}); a rounded anchor time
        # n * ((k-1)/n) != k - 1 would move the mean by about 1e-5 here
        n = 3000
        k = np.arange(1, n + 1)
        e = (np.cbrt(k) - np.cbrt(k - 1) - 1.0) / (2.0 * np.cbrt(float(n)))
        assert hermite_mean_exact(monomial_map(3), n, 1.0) == pytest.approx(
            6.0 * float(np.sum(e**3)), rel=1e-12
        )

    def test_exact_mean_converges_to_limit(self):
        limit = hermite_mean_limit(sin_map(), 1.0)
        errors = [abs(hermite_mean_exact(sin_map(), n, 1.0) - limit) for n in (64, 512, 4096)]
        assert errors[0] > errors[1] > errors[2]
        # sup|E g'''| <= 1 for sin, so the anchored cube defect (which already
        # carries the 1/8) bounds the gap up to the O(1/n) Riemann error
        assert errors[-1] < left_anchor_cube_sum(4096, 1.0) + 1e-4

    def test_zero_time(self):
        assert hermite_mean_exact(sin_map(), 16, 0.0) == 0.0
