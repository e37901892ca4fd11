import math

import numpy as np
import pytest

from fbmlab.errors import DomainError
from fbmlab.kernel import hermite
from fbmlab.sampler import Grid, Path, SeedPolicy, sample_fbm
from fbmlab.variations import (
    Family,
    SmoothMap,
    int_power,
    monomial_map,
    parse_integrand,
    riemann_strat,
    signed_cubic,
    sin_map,
    weighted_hermite,
)


def make_path(values, horizon=None):
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    grid = Grid(n, horizon or 1.0)
    return Path(grid=grid, values=values)


class TestStepProcess:
    """A functional returns its prefix sums, one entry per grid point."""

    def test_step_rule_and_final(self):
        step = signed_cubic(make_path([0.0, 1.0, 1.0, 3.0, 3.0]))
        assert step[0] == 0.0
        assert step.tolist() == [0.0, 1.0, 1.0, 9.0, 9.0]

    def test_prefix_consistency(self):
        path = sample_fbm(Grid(256), SeedPolicy(8, 0))
        step = signed_cubic(path)
        assert len(step) == path.grid.m + 1
        assert np.max(np.abs(np.diff(step) - path.increments() ** 3)) < 1e-12


class TestPowerVariation:
    def test_constant_path(self):
        step = signed_cubic(make_path(np.zeros(9)))
        assert np.all(step == 0.0)

    def test_signed_cancellation(self):
        a = 0.7
        step = signed_cubic(make_path([0.0, a, 0.0]))
        assert step == pytest.approx([0.0, a**3, 0.0], abs=1e-15)

    def test_linear_drift_cubes(self):
        c = 0.25
        path = make_path(np.arange(9) * c, horizon=1.0)
        step = signed_cubic(path)
        assert np.allclose(step, np.arange(9) * c**3, atol=1e-15)

    def test_sextic_mean(self):
        # E|dB|^6 = 15 dt, so the total mean is 15 * m / n
        grid = Grid(256)
        reps = 300
        finals = np.array(
            [np.sum(sample_fbm(grid, SeedPolicy(10, r)).increments() ** 6) for r in range(reps)]
        )
        se = finals.std(ddof=1) / math.sqrt(reps)
        assert abs(finals.mean() - 15.0 * grid.m / grid.n) <= 4 * se


class TestMidpoints:
    def test_midpoint_gap_two_sided_bound(self):
        # exact Gaussian algebra: E|beta_j - beta_i|^2 compares two sided
        # with |t_j - t_i|^{1/3} at a bounded fitted ratio
        from fbmlab.kernel import cov_r

        n = 512
        j = np.arange(1, n + 1)
        tj, tp = j / n, (j - 1) / n
        var = 0.25 * (np.cbrt(tp) + np.cbrt(tj) + 2 * np.asarray(cov_r(tp, tj)))
        idx = np.arange(1, n + 1, 7)
        ratios = []
        for i in idx[:-1]:
            for jj in idx[idx > i]:
                cross = 0.25 * (
                    cov_r((i - 1) / n, (jj - 1) / n)
                    + cov_r((i - 1) / n, jj / n)
                    + cov_r(i / n, (jj - 1) / n)
                    + cov_r(i / n, jj / n)
                )
                gap2 = var[i - 1] + var[jj - 1] - 2 * cross
                ratios.append(gap2 / abs(jj / n - i / n) ** (1 / 3))
        ratios = np.array(ratios)
        assert ratios.min() > 0.2
        assert ratios.max() < 1.5
        assert ratios.max() / ratios.min() < 6.0


class TestRiemannSums:
    def test_constant_integrand_telescopes(self):
        path = sample_fbm(Grid(64), SeedPolicy(11, 0))
        step = riemann_strat(parse_integrand("1"), path)
        assert np.max(np.abs(step - (path.values - path.values[0]))) < 1e-12

    def test_linear_integrand_telescopes(self):
        path = sample_fbm(Grid(64), SeedPolicy(12, 0))
        step = riemann_strat(monomial_map(1), path)
        target = 0.5 * (path.values**2 - path.values[0] ** 2)
        assert np.max(np.abs(step - target)) < 1e-12

    def test_quadratic_integrand_identity(self):
        # ((a^2+b^2)/2)(b-a) - (b^3-a^3)/3 = (b-a)^3/6 per step
        path = sample_fbm(Grid(1024), SeedPolicy(13, 0))
        step = riemann_strat(monomial_map(2), path)
        target = (path.values**3 - path.values[0] ** 3) / 3.0 + signed_cubic(path) / 6.0
        scale = max(1.0, float(np.max(np.abs(target))))
        assert np.max(np.abs(step - target)) / scale < 1e-10

    def test_linearity(self):
        # polynomials are closed under linear combinations, so the identity
        # riemann(a g + b h) = a riemann(g) + b riemann(h) is testable there
        path = sample_fbm(Grid(128), SeedPolicy(14, 0))
        g = parse_integrand("poly:0.5,-1,2")
        h = parse_integrand("poly:1,3,0,-2")
        a, b = 1.7, -0.3
        gc = g.params + (0.0,) * (len(h.params) - len(g.params))
        combined = SmoothMap(
            Family.POLYNOMIAL,
            tuple(a * cg + b * ch for cg, ch in zip(gc, h.params)),
            "a*g+b*h",
        )
        lhs = riemann_strat(combined, path)
        rhs = a * riemann_strat(g, path) + b * riemann_strat(h, path)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-10


class TestWeightedHermite:
    def test_zero_integrand(self):
        path = sample_fbm(Grid(32), SeedPolicy(15, 0))
        left, right = weighted_hermite(parse_integrand("0"), path)
        assert np.all(left == 0.0) and np.all(right == 0.0)

    def test_unit_weight_rearrangement(self):
        # V_n(B,t) = G_n^-(1,B,t) + 3 n^{-1/3} B(floor(nt)/n)
        path = sample_fbm(Grid(512), SeedPolicy(16, 0))
        cubic = signed_cubic(path)
        left, _ = weighted_hermite(parse_integrand("1"), path)
        recon = left + 3.0 * 512 ** (-1 / 3) * path.values
        scale = max(1.0, float(np.max(np.abs(cubic))))
        assert np.max(np.abs(cubic - recon)) / scale < 1e-10


    @pytest.mark.parametrize(
        "grid", [Grid(1), Grid(2), Grid(3), Grid(1000), Grid(4096), Grid(16384), Grid(8192, 0.25)]
    )
    def test_both_endpoints_match_one_endpoint_calls(self, grid):
        # one pass for both endpoints gives the bytes of a pass per endpoint
        def one_endpoint(g, path, left):
            n = path.grid.n
            h3 = np.asarray(hermite(3, n ** (1.0 / 6.0) * path.increments()))
            v = path.values
            w = np.asarray(g(v[:-1])) if left else np.asarray(g(v[1:]))
            return np.concatenate([[0.0], np.cumsum((w * h3) / np.sqrt(n))])

        for g in (sin_map(), parse_integrand("cos"), parse_integrand("exp:1,0.5"),
                  parse_integrand("poly:1,2,0.5")):
            for master_seed, stream_id in ((0, 0), (2, 7), (11, 1999)):
                path = sample_fbm(grid, SeedPolicy(master_seed, stream_id))
                left, right = weighted_hermite(g, path)
                assert left.tobytes() == one_endpoint(g, path, True).tobytes()
                assert right.tobytes() == one_endpoint(g, path, False).tobytes()


class TestIntPower:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_close_to_numpy_power(self, k):
        x = np.random.default_rng(k).standard_normal(8192) * 0.3
        x[:4] = (0.0, -0.0, 1.0, -1.0)
        exact = np.power(x, k)
        got = int_power(x, k)
        assert np.all(np.abs(got - exact) <= 1e-15 * np.abs(exact))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_exactly_odd_or_even(self, k):
        x = np.random.default_rng(10 + k).standard_normal(8192)
        sign = -1.0 if k % 2 else 1.0
        assert int_power(-x, k).tobytes() == (sign * int_power(x, k)).tobytes()


class TestSmoothMap:
    @pytest.mark.parametrize(
        "g",
        [
            parse_integrand("poly:1,-2,0.5,3"),
            parse_integrand("sin:2,1.5,0.3"),
            parse_integrand("exp:0.7,-1.2"),
        ],
    )
    def test_derivative_of_antiderivative(self, g):
        x = np.linspace(-2.0, 2.0, 100)
        anti = g.antiderivative()
        assert np.max(np.abs(anti.derivative(1)(x) - g(x))) < 1e-9

    def test_derivative_zero_is_identity(self):
        g = sin_map()
        x = np.linspace(-1, 1, 11)
        assert np.array_equal(g.derivative(0)(x), g(x))

    def test_trig_derivatives(self):
        g = sin_map()
        x = np.linspace(-3, 3, 50)
        assert np.allclose(g.derivative(1)(x), np.cos(x), atol=1e-12)
        assert np.allclose(g.derivative(3)(x), -np.cos(x), atol=1e-12)
        assert np.allclose(g.derivative(6)(x), -np.sin(x), atol=1e-12)

    def test_poly_derivatives(self):
        g = parse_integrand("poly:0,0,0,1")  # x^3
        assert g.derivative(3)(0.0) == pytest.approx(6.0)
        assert g.derivative(4)(10.0) == 0.0

    def test_exp_family(self):
        g = parse_integrand("exp:2,0.5")
        x = np.linspace(-1, 1, 9)
        assert np.allclose(g.derivative(2)(x), 2 * 0.25 * np.exp(0.5 * x), atol=1e-12)
        assert np.allclose(g.antiderivative()(x), 4 * np.exp(0.5 * x), atol=1e-12)

    def test_bounded_flags(self):
        assert sin_map().is_bounded
        assert parse_integrand("3").is_bounded
        assert not monomial_map(2).is_bounded
        assert not parse_integrand("exp").is_bounded

    def test_zero_frequency_rejected(self):
        with pytest.raises(DomainError):
            SmoothMap(Family.TRIG, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            SmoothMap(Family.EXP, (1.0, 0.0))


class TestParser:
    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("1", 2.0, 1.0),
            ("0.5", 4.0, 0.5),
            ("x", 3.0, 3.0),
            ("x^2", 3.0, 9.0),
            ("poly:1,2", 2.0, 5.0),
            ("sin", math.pi / 2, 1.0),
            ("cos", 0.0, 1.0),
            ("sin:2,1,0", math.pi / 2, 2.0),
            ("exp", 0.0, 1.0),
            ("exp:3,0.0001", 0.0, 3.0),
        ],
    )
    def test_grammar(self, text, x, expected):
        assert parse_integrand(text)(x) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "bad", ["", "x^", "x^a", "tan", "sin:1,2", "exp:1", "poly:", "what:1"]
    )
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_integrand(bad)
