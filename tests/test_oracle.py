import math

import numpy as np
import pytest

from fbmlab import oracle
from fbmlab.analysis import ks_two_sample
from fbmlab.errors import DomainError
from fbmlab.kernel import kappa_constant
from fbmlab.oracle import LimitSample, weak_strat_integral
from fbmlab.sampler import Grid, SeedPolicy, sample_bm, sample_fbm
from fbmlab.variations import monomial_map, parse_integrand, sin_map

KAPPA = kappa_constant(10_000).kappa


def draw(refinement, master_seed, stream_id, integrands=(), kappa=KAPPA):
    return LimitSample.draw(refinement, SeedPolicy(master_seed, stream_id), kappa, list(integrands))


class TestSignedCubicLimit:
    """kappa W(1), the limit of the signed cubic variation."""

    def test_zero_scale(self):
        g = sin_map()
        sample = draw(32, 1, 0, [g], kappa=0.0)
        assert sample.kappa_w == 0.0
        assert sample.corrections[g] == 0.0
        assert weak_strat_integral(g, sample) == 1.0 - math.cos(sample.b_path.values[-1])

    def test_scaling_is_exact(self):
        gs = [monomial_map(2), sin_map()]
        one = draw(32, 1, 0, gs, kappa=1.3)
        two = draw(32, 1, 0, gs, kappa=2.6)
        assert two.kappa_w == 2.0 * one.kappa_w
        for g in gs:
            assert two.corrections[g] == 2.0 * one.corrections[g]

    def test_variance_at_unit_time(self):
        reps = 2000
        finals = np.array([draw(64, 2, r).kappa_w for r in range(reps)])
        assert abs(finals.var(ddof=1) - KAPPA**2) <= 0.1 * KAPPA**2


class TestItoLeftSum:
    """The corrections (kappa/12) sum g''(B_{k-1}) dW_k, drawn given B."""

    def test_unit_integrand(self):
        # g'' = 1: the correction is kappa W(1) / 12
        g = parse_integrand("poly:0,0,0.5")
        sample = draw(64, 3, 0, [g])
        assert sample.corrections[g] == pytest.approx(sample.kappa_w / 12.0, rel=1e-15)

    def test_constant_scales(self):
        g, lin = parse_integrand("poly:0,0,1.25"), monomial_map(1)
        sample = draw(64, 3, 1, [g, lin])
        assert sample.corrections[g] == pytest.approx(2.5 * sample.kappa_w / 12.0, rel=1e-15)
        assert sample.corrections[lin] == 0.0

    def test_isometry(self, monkeypatch):
        # for one fixed B, Cov(kappa W(1), corrections) = kappa^2 dt F^T F
        grid = Grid(256)
        path = sample_fbm(grid, SeedPolicy(12, 0))
        monkeypatch.setattr(oracle, "sample_fbm", lambda *args: path)
        gs = [monomial_map(2), sin_map(), parse_integrand("cos")]
        reps = 4000
        x = np.array(
            [
                [s.kappa_w, *(s.corrections[g] for g in gs)]
                for s in (draw(256, 13, r, gs) for r in range(reps))
            ]
        )
        left = path.values[:-1]
        f = np.vstack([np.ones_like(left), np.full_like(left, 2.0 / 12.0),
                       -np.sin(left) / 12.0, -np.cos(left) / 12.0])
        target = KAPPA**2 * grid.dt * (f @ f.T)
        for a in range(len(f)):
            for b in range(a, len(f)):
                prod = x[:, a] * x[:, b]
                se = prod.std(ddof=1) / math.sqrt(reps)
                assert abs(prod.mean() - target[a, b]) <= 4 * se, (a, b)


class TestLimitLaw:
    def test_matches_w_path_left_sum(self):
        # reference: B and a Brownian path W on the same grid, and the
        # left-endpoint Ito sum of g'' = -sin against kappa dW
        grid, reps = Grid(256), 2000
        g = sin_map()
        samples = [draw(256, 41, r, [g]) for r in range(reps)]
        ref_cubic, ref_sin = [], []
        for r in range(reps):
            b = sample_fbm(grid, SeedPolicy(42, r)).values
            w = sample_bm(grid, SeedPolicy(42, r)).values
            ref_cubic.append(KAPPA * w[-1])
            ref_sin.append(1.0 - math.cos(b[-1]) - KAPPA / 12.0 * np.sum(np.sin(b[:-1]) * np.diff(w)))
        pairs = {
            "cubic": ([s.kappa_w for s in samples], ref_cubic),
            "int_sin": ([weak_strat_integral(g, s) for s in samples], ref_sin),
        }
        for name, (new, ref) in pairs.items():
            res = ks_two_sample(new, ref)
            assert not res["rejects"], (name, res["statistic"], res["critical_001"])


class TestLimitSample:
    def test_draw_shapes(self):
        gs = [monomial_map(2), sin_map()]
        sample = draw(128, 5, 0, gs)
        assert sample.b_path.grid.n == 128
        assert isinstance(sample.kappa_w, float)
        assert set(sample.corrections) == set(gs)

    def test_invalid_refinement(self):
        for refinement in (0, -4):
            with pytest.raises(DomainError):
                draw(refinement, 5, 0, [sin_map()])

    def test_mismatched_paths_rejected(self):
        # an integrand whose correction was not drawn has no limit value
        sample = draw(64, 5, 1, [sin_map()])
        with pytest.raises(DomainError):
            weak_strat_integral(parse_integrand("cos"), sample)

    def test_rank_deficient_columns(self):
        gs = [parse_integrand(t) for t in ("x^2", "poly:0,0,3", "sin", "sin", "sin:1,1,0")]
        sample = draw(128, 5, 2, gs)
        assert all(math.isfinite(v) for v in sample.corrections.values())
        x2, p3, sin, sin_again = gs[0], gs[1], gs[2], gs[4]
        assert sample.corrections[p3] == pytest.approx(3.0 * sample.corrections[x2], rel=1e-15)
        assert sample.corrections[sin_again] == pytest.approx(sample.corrections[sin], abs=1e-12)

    def test_independence_of_b_and_w(self):
        reps = 2000
        pairs = np.array(
            [(s.b_path.values[-1], s.kappa_w) for s in (draw(64, 6, r) for r in range(reps))]
        )
        assert abs(np.corrcoef(pairs.T)[0, 1]) < 4.0 / math.sqrt(reps)


class TestWeakStratIntegral:
    def test_constant_integrand(self):
        g = parse_integrand("1")
        sample = draw(256, 7, 0, [g])
        assert weak_strat_integral(g, sample) == sample.b_path.values[-1]

    def test_linear_integrand(self):
        g = monomial_map(1)
        sample = draw(256, 7, 1, [g])
        assert weak_strat_integral(g, sample) == sample.b_path.values[-1] ** 2 / 2.0

    def test_quadratic_integrand_closed_form(self):
        # g'' = 2, so the correction is exactly (1/6) kappa W(1)
        g = monomial_map(2)
        sample = draw(512, 7, 2, [g])
        target = sample.b_path.values[-1] ** 3 / 3.0 + sample.kappa_w / 6.0
        assert abs(weak_strat_integral(g, sample) - target) <= 1e-12

    def test_refinement_stability(self):
        # the limit law does not depend on the refinement grid
        g, reps = sin_map(), 1000
        coarse = [weak_strat_integral(g, draw(256, 8, r, [g])) for r in range(reps)]
        fine = [weak_strat_integral(g, draw(2048, 8, reps + r, [g])) for r in range(reps)]
        assert not ks_two_sample(coarse, fine)["rejects"]


def residual(g, sample) -> float:
    """g(B(1)) - g(B(0)) - (int g'(B) dB - (1/12) int g'''(B) d<<B>>).

    The last integral is the correction drawn for g', so this checks that
    the limit integral is G(B(1)) - G(B(0)) plus that correction.
    """
    b = sample.b_path.values
    dg = g.derivative(1)
    return float(g(b[-1])) - float(g(b[0])) - weak_strat_integral(dg, sample) + sample.corrections[dg]


class TestChangeOfVariable:
    def test_constant_map_residual(self):
        g = parse_integrand("4")
        sample = draw(128, 9, 0, [g.derivative(1)])
        assert residual(g, sample) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "g",
        [
            monomial_map(2),
            sin_map(),
            parse_integrand("poly:0.3,-1,0.5,2"),
            parse_integrand("sin:1.5,0.7,0.2"),
            parse_integrand("exp:0.8,0.6"),
        ],
    )
    def test_residual_is_round_off(self, g):
        sample = draw(512, 9, 1, [g.derivative(1)])
        assert abs(residual(g, sample)) < 1e-9

    def test_residual_all_refinements(self):
        g = sin_map()
        for refinement in (64, 128, 256):
            sample = draw(refinement, 9, 2, [g.derivative(1)])
            assert abs(residual(g, sample)) < 1e-10
