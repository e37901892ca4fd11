import math

import numpy as np
import pytest

from fbmlab import CapabilityError, DomainError, experiments, parse_integrand
from fbmlab.experiments import (
    DEFAULT_SCALING_SPECS,
    audit_experiment,
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    parse_integrand_list,
    sampler_experiment,
    scaling_experiment,
    sextic_experiment,
    taylor_experiment,
)
from fbmlab.quadrature import hermite_mean_exact
from fbmlab.variations import sin_map


class TestIntegrandList:
    def test_split(self):
        labels = [g.label for g in parse_integrand_list("1; x; x^2 ; sin")]
        assert labels == ["1", "x", "x^2", "sin"]

    def test_single_with_commas(self):
        (g,) = parse_integrand_list("poly:1,0,2")
        assert g(1.0) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            parse_integrand_list(" ; ")


class TestConverge:
    def test_trivial_integrand_collapses_to_endpoint(self):
        row, est, orc = converge_experiment(
            64, 1.0, 60, 101, [parse_integrand("1")], refinement_factor=2
        )
        assert np.allclose(est["int_1"], est["B"], atol=1e-12)
        assert np.allclose(orc["int_1"], orc["B"], atol=1e-12)
        assert row["ks"]["int:1"]["statistic"] == pytest.approx(row["ks"]["B"]["statistic"])

    def test_shapes_and_determinism(self):
        a_row, a_est, a_orc = converge_experiment(
            32, 1.0, 60, 7, [parse_integrand("x")], refinement_factor=4
        )
        _, b_est, b_orc = converge_experiment(
            32, 1.0, 60, 7, [parse_integrand("x")], refinement_factor=4
        )
        assert a_row["refinement"] == 128
        assert np.array_equal(a_est["cubic"], b_est["cubic"])
        assert np.array_equal(a_orc["int_x"], b_orc["int_x"])

    def test_worker_count_does_not_change_results(self):
        _, a_est, a_orc = converge_experiment(32, 1.0, 64, 7, [sin_map()], workers=1)
        _, b_est, b_orc = converge_experiment(32, 1.0, 64, 7, [sin_map()], workers=2)
        assert np.array_equal(a_est["int_sin"], b_est["int_sin"])
        assert np.array_equal(a_orc["B"], b_orc["B"])

    def test_estimator_oracle_streams_disjoint(self):
        _, est, orc = converge_experiment(32, 1.0, 60, 7, [parse_integrand("x")])
        # oracle uses stream ids offset by the replication count, so the
        # B(1) samples must differ from the estimator draws
        assert not np.allclose(est["B"], orc["B"])

    def test_refinement_factor_validated(self):
        with pytest.raises(DomainError):
            converge_experiment(32, 1.0, 60, 7, [parse_integrand("x")], refinement_factor=3)


class TestIdentity:
    def test_residuals_tiny(self):
        row, cols = identity_experiment(256, 1.0, 25, 11)
        assert max(row["max_rel_residuals"].values()) < 1e-10
        assert len(cols["cubic"]) == 25

    def test_variance_sane_at_moderate_n(self):
        row, _ = identity_experiment(512, 1.0, 400, 13)
        assert 3.0 < row["cubic_variance"] < 9.0
        assert abs(row["cubic_b_corr"]) < 0.5


class TestSextic:
    def test_targets_and_medians(self):
        res = sextic_experiment([64, 128], 1.0, 40, 17, mean_replications=60)
        assert res["mean_target"] == 15.0
        assert len(res["median_sup_deviation"]) == 2
        assert res["mean_n"] == 128
        assert res["mean_se"] > 0

    def test_mean_replications_leave_the_medians(self):
        # the finest level draws its extra mean paths after the median ones
        more = sextic_experiment([64, 128], 1.0, 40, 17, mean_replications=60)
        plain = sextic_experiment([64, 128], 1.0, 40, 17)
        assert more["median_sup_deviation"] == plain["median_sup_deviation"]
        assert more["mean_value"] != plain["mean_value"]


class TestHermite:
    def test_mean_matches_exact_finite_n(self):
        # unbiased check: the MC mean of the left variation must sit within
        # 4 standard errors of the exact finite-n mean formula
        _, cols = hermite_experiment(256, 1.0, 600, 19)
        left = cols["left"]
        exact = hermite_mean_exact(sin_map(), 256, 1.0)
        se = left.std(ddof=1) / math.sqrt(len(left))
        assert abs(left.mean() - exact) <= 4 * se

    def test_right_mirrors_left_in_sign(self):
        _, cols = hermite_experiment(256, 1.0, 600, 19)
        right = cols["right"]
        exact_right = -hermite_mean_exact(sin_map(), 256, 1.0)
        # right endpoint anchors at t_k instead of t_{k-1}; its exact mean
        # uses the mirrored covariance, close to the negated left value
        se = right.std(ddof=1) / math.sqrt(len(right))
        assert abs(right.mean() - exact_right) <= 5 * se

    def test_limits_attached(self):
        row, _ = hermite_experiment(64, 1.0, 200, 23)
        assert row["mean_limit"] == pytest.approx(6 - 9.75 * math.exp(-0.5), abs=1e-9)
        assert row["variance_limit"] > 1.0
        assert row["bounded"]


class TestScaling:
    def test_default_specs_cover_all_estimators(self):
        assert set(DEFAULT_SCALING_SPECS) == {e for e in DEFAULT_SCALING_SPECS}
        fits = scaling_experiment(29, replications=200)
        assert set(fits) == set(DEFAULT_SCALING_SPECS)
        for fit in fits.values():
            assert fit.r_squared > 0.9


class TestTaylorExperiment:
    def test_poly_corpus_closes(self):
        res = taylor_experiment(31, pairs=200, poly_count=10)
        assert res["max_poly_r6"] < 1e-9
        assert res["gamma_exact"]
        assert res["gamma"] == pytest.approx(-1 / 480)
        # pairs span d up to 2, so R6 ~ d^6 |g^(6) oscillation| / 5! ~ 1e-3
        assert res["sin_max_r6"] < 0.01


class TestAuditExperiment:
    def test_structure(self):
        res = audit_experiment([64, 128, 256])
        assert [row["n"] for row in res["anchored_cube_sums"]] == [64, 128, 256]
        assert res["anchored_sums_decreasing"]
        assert res["orthogonality_max_dev"] < 1e-8
        assert len(res["covariance_audits"]) == 3

    def test_large_n_is_a_capability_error(self):
        # a grid above AUDIT_MAX_STEPS is refused, not dropped from the report
        with pytest.raises(CapabilityError):
            audit_experiment([64, 8192])

    def test_large_n_is_refused_before_any_audit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "covar_bound_audit", lambda *args: calls.append(args))
        with pytest.raises(CapabilityError):
            audit_experiment([64, 8192])
        assert calls == []


class TestRunReplications:
    def test_pool_workers_inherit_scipy(self, fresh_python):
        # the parent imports scipy.special before the fork, so no worker does
        out = fresh_python(
            "import sys\n"
            "from fbmlab import Grid, SeedPolicy, sample_fbm\n"
            "from fbmlab.experiments import run_replications\n"
            "def draw(r):\n"
            "    loaded = 'scipy.special' in sys.modules\n"
            "    sample_fbm(Grid(16), SeedPolicy(3, r))\n"
            "    return loaded\n"
            "print('scipy.special' in sys.modules)\n"
            "cols = run_replications(draw, {'loaded': bool}, 8, workers=2)\n"
            "print(cols['loaded'].tolist())\n"
        )
        assert out.splitlines() == ["False", str([True] * 8)]


class TestSamplerExperiment:
    def test_small_validation(self):
        gram_max_z, method_ks = sampler_experiment(
            37, gram_n=128, gram_replications=500, ks_replications=200,
            probe_indices=(16, 32, 64, 128),
        )
        assert gram_max_z < 5.0
        assert not method_ks.rejects_at_1pct
