import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from fbmlab.errors import DomainError
from fbmlab.experiments import run_paths
from fbmlab.kernel import anchor_cube_sums, cov_r, kappa_constant, rho
from fbmlab.quadrature import (
    closed_mean,
    closed_pair_moment,
    hermite_mean_exact,
    hermite_mean_limit,
    hermite_variance_exact,
    hermite_variance_limit,
    poly_pair_moment,
    riemann_mean_exact,
)
from fbmlab.sampler import Grid
from fbmlab.variations import Family, monomial_map, parse_integrand, riemann_terms, sin_map
from fbmlab.quadrature import GL_NODES, _gauss_legendre_01


def _rule_mean(f, var, nodes=64):
    # E[f(X)], X ~ N(0, var), by a Gauss-Hermite rule: the reference for closed_mean
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return float(np.dot(w / np.sqrt(np.pi), f(np.sqrt(2.0 * var) * x)))


TRIG_EXP_SPECS = (
    "sin", "cos", "sin:2,0.5,0.3", "sin:-1.5,2,0.7", "exp", "exp:1,0.5", "exp:-0.7,1.3",
)
POLY_SPECS = ("x^2", "poly:1,2,3,4,5", "poly:0.5,-1,0,0.25")


class TestClosedMean:
    @pytest.mark.parametrize("spec", TRIG_EXP_SPECS + POLY_SPECS)
    def test_matches_a_gauss_hermite_rule(self, spec):
        # within 1e-13 relative; sin's mean is 0, where the rule leaves 1e-17
        g = parse_integrand(spec)
        for var in (0.25, 1.0, 2.5):
            assert closed_mean(g, var) == pytest.approx(_rule_mean(g, var), rel=1e-13, abs=1e-15)
        # an array of variances gives each one's mean
        var = np.array([0.25, 1.0, 2.5])
        assert np.array_equal(closed_mean(g, var), [closed_mean(g, v) for v in var])

    def test_gaussian_moments(self):
        for var in (0.25, 1.0, 2.5):
            assert closed_mean(monomial_map(2), var) == var
            assert closed_mean(monomial_map(4), var) == 3 * var**2
            assert closed_mean(monomial_map(6), var) == 15 * var**3
            assert closed_mean(monomial_map(5), var) == 0.0

    def test_characteristic_function(self):
        # E cos(B) = exp(-var/2) for a centered Gaussian
        for var in (0.1, 0.5, 1.0):
            assert closed_mean(parse_integrand("cos"), var) == pytest.approx(
                math.exp(-var / 2), rel=1e-15, abs=0
            )

    @pytest.mark.parametrize("spec", TRIG_EXP_SPECS + POLY_SPECS)
    def test_degenerate_variance(self, spec):
        g = parse_integrand(spec)
        assert closed_mean(g, 0.0) == g(0.0)


class TestExpectGaussPair:
    """The tests' tensor Gauss-Hermite rule against closed forms it must meet
    as the reference of the closed-form pair moments."""

    def test_cross_moment(self, expect_gauss_pair):
        assert expect_gauss_pair(lambda x: x, lambda y: y, 1.0, 1.0, 0.37) == pytest.approx(
            0.37, abs=1e-12
        )
        assert expect_gauss_pair(lambda x: x, lambda y: y, 2.0, 0.5, -0.4) == pytest.approx(
            -0.4, abs=1e-12
        )

    def test_independent_product(self, expect_gauss_pair):
        value = expect_gauss_pair(np.cos, np.cos, 1.0, 1.0, 0.0)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_cosine_pair_closed_form(self, expect_gauss_pair):
        # E[cos X cos Y] = (exp(-Var(X-Y)/2) + exp(-Var(X+Y)/2)) / 2
        vx, vy, c = 0.8, 0.5, 0.3
        closed = 0.5 * (math.exp(-(vx + vy - 2 * c) / 2) + math.exp(-(vx + vy + 2 * c) / 2))
        assert expect_gauss_pair(np.cos, np.cos, vx, vy, c) == pytest.approx(closed, abs=1e-12)

    def test_odd_cross_moment_linear_response(self, expect_gauss_pair):
        # E[sin(X) Y^3] = eta e^{-1/2} (3 - eta^2) for unit-variance pair
        # with covariance eta: the odd cross moment vanishes linearly in
        # the coupling, with bounded slope, as eta -> 0
        for eta in (0.3, 0.05, 0.004):
            value = expect_gauss_pair(np.sin, lambda y: y**3, 1.0, 1.0, eta)
            closed = eta * math.exp(-0.5) * (3.0 - eta * eta)
            assert value == pytest.approx(closed, abs=1e-12)
            assert abs(value) <= 3.0 * abs(eta)


class TestClosedPairMoment:
    # (var_x, var_y, cov): positive, negative and near-perfect correlation
    TRIPLES = (
        (0.8, 0.5, 0.3),
        (1.0, 0.6, -0.35),
        (0.4, 0.9, 0.999 * math.sqrt(0.36)),
        (0.7, 0.7, -0.999 * 0.7),
    )

    @pytest.mark.parametrize("spec", TRIG_EXP_SPECS)
    def test_matches_the_gauss_hermite_rule(self, spec, expect_gauss_pair):
        g3 = parse_integrand(spec).derivative(3)
        for vx, vy, r in self.TRIPLES:
            rule = expect_gauss_pair(g3, g3, vx, vy, r)
            assert closed_pair_moment(g3, vx, vy, r) == pytest.approx(rule, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", POLY_SPECS)
    def test_polynomial_matches_the_gauss_hermite_rule(self, spec, expect_gauss_pair):
        # Isserlis' theorem against the rule, which is exact for polynomials;
        # closed_pair_moment is the two-sequence sum with both sequences g's
        g = parse_integrand(spec)
        for vx, vy, r in self.TRIPLES:
            rule = expect_gauss_pair(g, g, vx, vy, r)
            assert closed_pair_moment(g, vx, vy, r) == pytest.approx(rule, rel=1e-12, abs=0)
            assert closed_pair_moment(g, vx, vy, r) == poly_pair_moment(
                g.params, g.params, vx, vy, r
            )

    @pytest.mark.parametrize("p, q", [
        ((1.0,), (0.0, 1.0)),
        ((0.5, -1.0, 0.0, 0.25), (1.0, 2.0, 3.0, 4.0, 5.0)),
        ((0.0, 0.0, 0.0, 1.0), (3.0, 0.0, -6.0, 0.0, 1.0)),
        ((-2.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.7), (0.3, -1.1, 0.0, 2.0)),
    ])
    def test_two_sequences_match_the_gauss_hermite_rule(self, p, q, expect_gauss_pair):
        # E[P(X) Q(Y)] for two different polynomials, in either order
        big_p, big_q = np.polynomial.Polynomial(p), np.polynomial.Polynomial(q)
        for vx, vy, r in self.TRIPLES:
            rule = expect_gauss_pair(big_p, big_q, vx, vy, r)
            assert poly_pair_moment(p, q, vx, vy, r) == pytest.approx(rule, rel=1e-12, abs=1e-14)
            assert poly_pair_moment(q, p, vy, vx, r) == pytest.approx(rule, rel=1e-12, abs=1e-14)

    def test_polynomial_cross_moments(self):
        # E[X^2 Y^2] = vx vy + 2 c^2 and E[X^3 Y^3] = 9 vx vy c + 6 c^3
        vx, vy, c = 0.8, 0.5, 0.3
        assert closed_pair_moment(monomial_map(2), vx, vy, c) == pytest.approx(
            vx * vy + 2 * c * c, rel=1e-15, abs=0
        )
        assert closed_pair_moment(monomial_map(3), vx, vy, c) == pytest.approx(
            9 * vx * vy * c + 6 * c**3, rel=1e-15, abs=0
        )


def _per_pair_variance_limit(g, kappa_sq, nodes, expect_gauss_pair):
    # hermite_variance_limit without the closed forms: a Gauss-Hermite rule
    # for E[g^2] at every node u of the s = u^3 rule, and one bivariate
    # Gauss-Hermite rule at every Gauss-Legendre node pair
    g3 = g.derivative(3)
    u, w = _gauss_legendre_01(nodes)
    sq_term = kappa_sq * sum(wi * 3 * ui**2 * _rule_mean(lambda x: g(x) ** 2, ui)
                             for ui, wi in zip(u, w))
    s, w = _gauss_legendre_01(nodes)
    var = s ** (1.0 / 3.0)
    cov = cov_r(s[:, None], s[None, :])
    double = 0.0
    for i in range(len(s)):
        row = [expect_gauss_pair(g3, g3, var[i], var[j], float(cov[i, j])) for j in range(len(s))]
        double += w[i] * np.dot(w, np.array(row))
    return float(sq_term + double / 64.0 - hermite_mean_limit(g) ** 2)


class TestTimeIntegral:
    def test_variance_integral(self):
        # g = x^5 has third derivative 60 x^2, and int_0^1 E[B_s^2] ds = int_0^1 s^{1/3} ds = 3/4
        assert hermite_mean_limit(monomial_map(5)) == pytest.approx(-5.625, rel=2e-15, abs=0)

    def test_sin_squared_closed_form(self):
        # int_0^1 E sin^2(B_s) ds = 1/8 + (15/8) e^{-2}, over s = u^3 as in
        # hermite_variance_limit's kappa^2 term
        u, w = _gauss_legendre_01(GL_NODES)
        value = float(np.dot(w * 3 * u**2, closed_pair_moment(sin_map(), u, u, u)))
        assert value == pytest.approx(1 / 8 + (15 / 8) * math.exp(-2.0), rel=1e-14, abs=0)


class TestHermiteLimits:
    def test_mean_limit_sin_closed_form(self):
        # -(1/8) int_0^1 E[-cos(B_s)] ds = (1/8) int_0^1 e^{-s^{1/3}/2} ds
        # = (1/8) * 3 * int_0^1 u^2 e^{-u/2} du = 6 - 9.75 e^{-1/2}
        assert hermite_mean_limit(sin_map()) == pytest.approx(
            6.0 - 9.75 * math.exp(-0.5), abs=1e-10
        )

    def test_mean_limit_cubic_is_constant_integrand(self):
        # g = x^3 has g''' = 6, so the limit is -(6/8) t
        assert hermite_mean_limit(monomial_map(3)) == pytest.approx(-0.75, abs=1e-12)

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
        value = hermite_variance_limit(sin_map(), kappa_sq)
        assert value == pytest.approx(target, rel=1e-4)
        assert err < 1e-8

    def test_variance_limit_sin_is_pinned(self):
        # one broadcast cov_r matrix gives the scalar calls' values exactly
        s, _ = _gauss_legendre_01(GL_NODES)
        cov = cov_r(s[:, None], s[None, :])
        assert all(cov[i, j] == cov_r(s[i], s[j]) for i in range(len(s)) for j in range(len(s)))
        kappa_sq = kappa_constant().kappa_sq
        assert hermite_variance_limit(sin_map(), kappa_sq) == 2.0426842417470454

    def test_variance_limit_converges_in_nodes(self):
        # 64 Gauss-Legendre nodes settle the limit to about 6e-6 relative
        kappa_sq = kappa_constant().kappa_sq
        v16, v32, v64 = (
            hermite_variance_limit(sin_map(), kappa_sq, nodes=m) for m in (16, 32, 64)
        )
        assert (v16, v32, v64) == pytest.approx((2.0427242, 2.0426961, 2.0426842), abs=1e-7)
        assert abs(v64 - v32) < 1e-5 * v64
        assert abs(v64 - v32) < abs(v32 - v16)

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize(
        "spec", ["cos", "sin:-1.5,2,0.7", "exp:-0.7,1.3", "x^3", "poly:1,2,0.5,0.25"]
    )
    def test_variance_limit_matches_the_per_pair_rule(self, spec, nodes, expect_gauss_pair):
        g, kappa_sq = parse_integrand(spec), kappa_constant().kappa_sq
        assert hermite_variance_limit(g, kappa_sq, nodes=nodes) == pytest.approx(
            _per_pair_variance_limit(g, kappa_sq, nodes, expect_gauss_pair), rel=1e-13, abs=0
        )

    def test_variance_limit_cubic_closed_form(self):
        # g = x^3: kappa^2 int_0^1 E[B_s^6] ds = kappa^2 int_0^1 15 s ds = 7.5 kappa^2,
        # and g''' = 6 makes the double term 36/64 cancel the squared mean (6/8)^2
        kappa_sq = kappa_constant().kappa_sq
        assert hermite_variance_limit(monomial_map(3), kappa_sq) == pytest.approx(
            7.5 * kappa_sq, rel=1e-12, abs=0
        )


class TestHermiteExactMean:
    def test_constant_third_derivative_reduces_to_cube_sums(self, endpoint_cov):
        # g = x^3: exact mean is 6 sum_j E[B(t_{j-1}) dB_j]^3
        n = 64
        k = np.arange(1, n + 1)
        cubes = endpoint_cov(n, k - 1, k) ** 3
        assert hermite_mean_exact(monomial_map(3), n)[0] == pytest.approx(
            6.0 * float(np.sum(cubes)), rel=1e-12
        )
        # and the right mean to 6 sum_j E[B(t_j) dB_j]^3
        cubes = endpoint_cov(n, k, k) ** 3
        assert hermite_mean_exact(monomial_map(3), n)[1] == pytest.approx(
            6.0 * float(np.sum(cubes)), rel=1e-12
        )

    @pytest.mark.parametrize("spec", ["sin", "exp:-0.7,1.3", "poly:1,2,3,4,5"])
    def test_matches_one_rule_per_anchor(self, spec, endpoint_cov):
        # the closed-form means give the per-anchor Gauss-Hermite rules' sums
        g, n = parse_integrand(spec), 300
        k = np.arange(1, n + 1)
        for side, anchor in enumerate((k - 1, k)):
            e = endpoint_cov(n, anchor, k)
            means = np.array([_rule_mean(g.derivative(3), (i / n) ** (1 / 3)) for i in anchor])
            assert hermite_mean_exact(g, n)[side] == pytest.approx(
                float(np.sum(means * e**3)), rel=1e-13, abs=0
            )

    def test_sin_values(self):
        # below the limit 0.08633 on the left, and above its negation on the right
        assert hermite_mean_exact(sin_map(), 256) == pytest.approx((0.08035, -0.09566), abs=5e-6)
        assert hermite_mean_exact(sin_map(), 4096) == pytest.approx((0.08526, -0.08762), abs=5e-6)

    def test_exact_at_non_power_of_two_n(self):
        # the same reduction from the closed form E[B(t_{k-1}) dB_k]
        # = (k^{1/3} - (k-1)^{1/3} - 1) / (2 n^{1/3}); a rounded anchor time
        # n * ((k-1)/n) != k - 1 would move the mean by about 1e-5 here
        n = 3000
        k = np.arange(1, n + 1)
        e = (np.cbrt(k) - np.cbrt(k - 1) - 1.0) / (2.0 * np.cbrt(float(n)))
        assert hermite_mean_exact(monomial_map(3), n)[0] == pytest.approx(
            6.0 * float(np.sum(e**3)), rel=1e-12
        )

    def test_exact_mean_converges_to_limit(self):
        limit = hermite_mean_limit(sin_map())
        errors = [abs(hermite_mean_exact(sin_map(), n)[0] - limit) for n in (64, 512, 4096)]
        assert errors[0] > errors[1] > errors[2]
        # sup|E g'''| <= 1 for sin, so the anchored cube defect (which already
        # carries the 1/8) bounds the gap up to the O(1/n) Riemann error
        assert errors[-1] < anchor_cube_sums(4096)[0] + 1e-4


def _per_step_remainder_mean(g, n):
    # E[R_n(g)] as the sum over steps of E[(g(X) + g(Y))(Y - X)/2 - G(Y) + G(X)],
    # (X, Y) = (B(t_{j-1}), B(t_j)), each by a tensor Gauss-Hermite rule over
    # the pair's Cholesky factor: no integration by parts
    x, w = np.polynomial.hermite.hermgauss(64)
    z, w = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    z1, z2, weight = z[:, None], z[None, :], w[:, None] * w[None, :]
    big_g = g.antiderivative()
    total = 0.0
    for j in range(1, n + 1):
        s, t = (j - 1) / n, j / n
        sd_x = math.sqrt(cov_r(s, s))
        load = cov_r(s, t) / sd_x if sd_x else 0.0  # X = 0 at the first step
        a, b = sd_x * z1, load * z1 + math.sqrt(cov_r(t, t) - load * load) * z2
        step = 0.5 * (g(a) + g(b)) * (b - a) - big_g(b) + big_g(a)
        total += float(np.sum(weight * step))
    return total


class TestRiemannExactMean:
    @pytest.mark.parametrize("spec", ["1", "x", "x^2", "cos"])
    @pytest.mark.parametrize("n", [1, 64, 1000, 4096])
    def test_vanishes_by_telescoping_or_oddness(self, spec, n):
        # 1 and x telescope (E I_n(x) = E B(1)^2 / 2); x^2 and cos have odd g' and G
        assert abs(riemann_mean_exact(parse_integrand(spec), n)) < 1e-15

    @pytest.mark.parametrize("n", [256, 4096])
    def test_vanishes_exactly_for_x_squared(self, n):
        # E V_n = 0 and R_n(x^2) = V_n / 6: every closed-form mean is an exact 0
        assert riemann_mean_exact(monomial_map(2), n) == 0.0

    @pytest.mark.parametrize("spec", ["sin", "exp:1,0.5"])
    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_matches_the_per_step_rule(self, spec, n):
        g = parse_integrand(spec)
        assert riemann_mean_exact(g, n) == pytest.approx(_per_step_remainder_mean(g, n), abs=1e-10)

    def test_within_monte_carlo(self):
        # seeded mean of R_n over 10,000 paths at n = 256, master seed 5: within
        # 3 SE of the exact mean, while sin's mean is about 13 SE from 0
        n, replications = 256, 10_000
        maps = [parse_integrand(spec) for spec in ("sin", "exp:1,0.5")]
        stats = {
            g.label: lambda path, g=g: riemann_terms(g(path.values), path.increments()).sum()
            - g.antiderivative()(path.values[-1]) + g.antiderivative()(0.0)
            for g in maps
        }
        cols = run_paths(Grid(n), stats, replications, 5, workers=2)
        for g in maps:
            col = cols[g.label]
            se = np.std(col, ddof=1) / math.sqrt(replications)
            assert abs(np.mean(col) - riemann_mean_exact(g, n)) < 3.0 * se, g.label
        sin = cols["sin"]
        assert abs(np.mean(sin)) > 10.0 * np.std(sin, ddof=1) / math.sqrt(replications)

    def test_refuses_an_empty_grid(self):
        with pytest.raises(DomainError):
            riemann_mean_exact(sin_map(), 0)


def _wick_pair_sum_variance(g, n, endpoint_cov):
    # Var(G_n^-(g)) as the O(n^2) sum of Wick's formula over every pair (j, k)
    # of left anchors A_j = B(t_{j-1}) and normalised increments X_j
    def s_poly(p, r):
        return -p**3 + 9 * p * p * r - 18 * p * r * r + 6 * r**3

    j = np.arange(1, n + 1)
    t = (j - 1) / n
    var_a = np.asarray(cov_r(t, t))
    cov_aa = cov_r(t[:, None], t[None, :])
    e = n ** (1 / 6) * endpoint_cov(n, j[:, None] - 1, j[None, :])
    own = np.diag(e)  # e[j, k] = Cov(A_j, X_k)
    r = np.asarray(rho(j[:, None] - j[None, :]))
    a, b = g.params[:2]
    p_plus = b * b * (own[:, None] + e.T) * (e + own[None, :])
    v_plus = b * b * (var_a[:, None] + var_a[None, :] + 2 * cov_aa)
    if g.family is Family.TRIG:
        c = g.params[2]
        p_minus = b * b * (own[:, None] - e.T) * (e - own[None, :])
        v_minus = b * b * (var_a[:, None] + var_a[None, :] - 2 * cov_aa)
        pair = 0.5 * a * a * (np.exp(-v_minus / 2) * s_poly(p_minus, r)
                              - math.cos(2 * c) * np.exp(-v_plus / 2) * s_poly(p_plus, r))
        g3_mean = -a * b**3 * math.cos(c) * np.exp(-b * b * var_a / 2)
    else:
        pair = a * a * np.exp(v_plus / 2) * s_poly(-p_plus, r)
        g3_mean = a * b**3 * np.exp(b * b * var_a / 2)
    mean = float(np.sum(g3_mean * (own / n ** (1 / 6)) ** 3))
    return float(np.sum(pair)) / n - mean**2


class TestHermiteExactVariance:
    SPECS = ("sin", "cos", "sin:2,0.5,0.3", "exp", "exp:-0.7,1.3")

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_the_wick_pair_sum(self, spec, n, endpoint_cov):
        g = parse_integrand(spec)
        assert hermite_variance_exact(g, n) == pytest.approx(
            _wick_pair_sum_variance(g, n, endpoint_cov), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("spec", ["sin", "exp:-0.7,1.3"])
    def test_within_monte_carlo(self, spec):
        # 10^6 paths at n = 4 drawn from the Cholesky factor of cov_r
        g, n = parse_integrand(spec), 4
        t = np.arange(1, n + 1) / n
        factor = np.linalg.cholesky(cov_r(t[:, None], t[None, :]))
        rng = np.random.default_rng(4)
        values = []
        for _ in range(4):
            path = np.zeros((250_000, n + 1))
            path[:, 1:] = rng.standard_normal((250_000, n)) @ factor.T
            x = n ** (1 / 6) * np.diff(path, axis=1)
            values.append(np.sum(g(path[:, :-1]) * x * (x * x - 3.0), axis=1) / math.sqrt(n))
        sq_dev = (np.concatenate(values) - np.mean(values)) ** 2
        se = sq_dev.std() / math.sqrt(len(sq_dev))
        assert abs(sq_dev.mean() - hermite_variance_exact(g, n)) <= 4 * se

    def test_sin_ratio_to_the_limit(self):
        # the 40,000-path corpora put Var(G_n^-(sin)) / limit at 1.133 +- 0.012
        # (n = 1024) and 1.096 +- 0.012 (n = 4096)
        limit = hermite_variance_limit(sin_map(), kappa_constant().kappa_sq)
        assert hermite_variance_exact(sin_map(), 1024) / limit == pytest.approx(1.1466, abs=1e-4)
        assert hermite_variance_exact(sin_map(), 4096) / limit == pytest.approx(1.0959, abs=1e-4)

    def test_holds_no_n_by_n_array(self):
        # an n x n table of doubles at n = 4096 is 134 MB, an n x 64 one 2 MB
        tracemalloc.start()
        try:
            hermite_variance_exact(sin_map(), 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_refuses_a_polynomial_and_an_empty_grid(self):
        with pytest.raises(DomainError):
            hermite_variance_exact(monomial_map(3), 64)
        with pytest.raises(DomainError):
            hermite_variance_exact(sin_map(), 0)


def test_exact_targets_are_pinned_bit_for_bit():
    # the exact layer at n = 4096, so that a refactor of it shows any drift.
    # numpy picks its cbrt, exp and sin kernels by CPU; each budget in ulps is
    # the least that holds on both the AVX-512 and the AVX2 kernels
    assert hermite_variance_exact(sin_map(), 4096) == 2.2386141265898623
    np.testing.assert_array_max_ulp(
        hermite_mean_exact(sin_map(), 4096), (0.08526383720257001, -0.08761660131020237),
        maxulp=np.array([0, 1]),
    )
    assert riemann_mean_exact(sin_map(), 4096) == -0.006145367560623338
    assert riemann_mean_exact(parse_integrand("exp:1,0.5"), 4096) == 0.0010403049614460258
    np.testing.assert_array_max_ulp(
        anchor_cube_sums(4096), (0.0013764355274729421, 0.0016164788163953658),
        maxulp=np.array([2, 5]),
    )
