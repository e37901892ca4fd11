import math

import numpy as np
import pytest

from fbmlab import experiments
from fbmlab.errors import CapabilityError, DomainError
from fbmlab.variations import parse_integrand
from fbmlab.experiments import (
    DEFAULT_SCALING_SPECS,
    _sextic_row,
    audit_experiment,
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    parse_integrand_list,
    run_replications,
    sampler_experiment,
    scaling_experiment,
    sextic_experiment,
    taylor_experiment,
)
from fbmlab.quadrature import hermite_mean_exact
from fbmlab.sampler import Grid, Path, SeedPolicy, sample_fbm
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

    @pytest.mark.parametrize("text", ["sin; sin", "x^2; 1; x^02"])
    def test_repeated_label_rejected(self, text):
        # columns are keyed by label: a repeat would collapse into one
        with pytest.raises(DomainError, match="repeats"):
            parse_integrand_list(text)


class TestConverge:
    def test_trivial_integrand_collapses_to_endpoint(self):
        row, est, orc = converge_experiment(64, 60, 101, [parse_integrand("1")])
        assert np.allclose(est["int_1"], est["B"], atol=1e-12)
        assert np.allclose(orc["int_1"], orc["B"], atol=1e-12)
        assert row["ks"]["int:1"]["statistic"] == pytest.approx(row["ks"]["B"]["statistic"])

    def test_shapes_and_determinism(self):
        a_row, a_est, a_orc = converge_experiment(32, 60, 7, [parse_integrand("x")])
        _, b_est, b_orc = converge_experiment(32, 60, 7, [parse_integrand("x")])
        assert a_row["refinement"] == 128
        assert np.array_equal(a_est["cubic"], b_est["cubic"])
        assert np.array_equal(a_orc["int_x"], b_orc["int_x"])

    def test_worker_count_does_not_change_results(self):
        _, a_est, a_orc = converge_experiment(32, 64, 7, [sin_map()], workers=1)
        _, b_est, b_orc = converge_experiment(32, 64, 7, [sin_map()], workers=2)
        assert np.array_equal(a_est["int_sin"], b_est["int_sin"])
        assert np.array_equal(a_orc["B"], b_orc["B"])

    def test_estimator_oracle_streams_disjoint(self):
        _, est, orc = converge_experiment(32, 60, 7, [parse_integrand("x")])
        # oracle uses stream ids offset by the replication count, so the
        # B(1) samples must differ from the estimator draws
        assert not np.allclose(est["B"], orc["B"])


class TestIdentity:
    def test_residuals_tiny(self):
        row, cols = identity_experiment(256, 25, 11)
        assert max(row["max_rel_residuals"].values()) < 1e-10
        assert len(cols["cubic"]) == 25

    def test_variance_sane_at_moderate_n(self):
        row, _ = identity_experiment(512, 400, 13)
        assert 3.0 < row["cubic_variance"] < 9.0
        assert abs(row["cubic_b_corr"]) < 0.5


class TestSextic:
    def test_targets_and_medians(self):
        res = sextic_experiment([64, 128], 40, 17)
        assert res["mean_target"] == 15.0
        assert len(res["median_sup_deviation"]) == 2
        assert res["mean_n"] == 128
        assert res["mean_se"] > 0

    def test_even_under_reflection(self):
        # sixth powers as products: -B gives the statistic of B byte for byte
        grid = Grid(1024)
        for r in range(40):
            path = sample_fbm(grid, SeedPolicy(17, r))
            flipped = Path(grid, -path.values)
            assert np.array(_sextic_row(flipped)).tobytes() == np.array(_sextic_row(path)).tobytes()


class TestHermite:
    def test_mean_matches_exact_finite_n(self):
        # unbiased check: the MC mean of the left variation must sit within
        # 4 standard errors of the exact finite-n mean formula
        [(_, cols)] = hermite_experiment([256], 600, 19)
        left = cols["left"]
        exact = hermite_mean_exact(sin_map(), 256, 1.0)
        se = left.std(ddof=1) / math.sqrt(len(left))
        assert abs(left.mean() - exact) <= 4 * se

    def test_right_mirrors_left_in_sign(self):
        [(_, cols)] = hermite_experiment([256], 600, 19)
        right = cols["right"]
        exact_right = -hermite_mean_exact(sin_map(), 256, 1.0)
        # right endpoint anchors at t_k instead of t_{k-1}; its exact mean
        # uses the mirrored covariance, close to the negated left value
        se = right.std(ddof=1) / math.sqrt(len(right))
        assert abs(right.mean() - exact_right) <= 5 * se

    def test_limits_attached(self):
        [(row, _)] = hermite_experiment([64], 200, 23)
        assert row["mean_limit"] == pytest.approx(6 - 9.75 * math.exp(-0.5), abs=1e-9)
        assert row["variance_limit"] > 1.0
        assert row["bounded"]

    def test_limits_computed_once_for_every_grid(self, monkeypatch):
        # the limits depend on g alone, not on n
        calls = {"mean": 0, "variance": 0}

        def count(name, value):
            def limit(*args):
                calls[name] += 1
                return value
            return limit

        monkeypatch.setattr(experiments, "hermite_mean_limit", count("mean", 0.25))
        monkeypatch.setattr(experiments, "hermite_variance_limit", count("variance", 2.0))
        runs = hermite_experiment([16, 32, 64], 20, 23)
        assert [row["n"] for row, _ in runs] == [16, 32, 64]
        assert all((row["mean_limit"], row["variance_limit"]) == (0.25, 2.0) for row, _ in runs)
        assert calls == {"mean": 1, "variance": 1}


class TestScaling:
    def test_default_specs_cover_all_estimators(self):
        assert set(DEFAULT_SCALING_SPECS) == {e for e in DEFAULT_SCALING_SPECS}
        rows = scaling_experiment(29, replications=200)
        assert [row["estimator"] for row in rows] == [e.value for e in DEFAULT_SCALING_SPECS]
        for row in rows:
            assert row["r_squared"] > 0.9
            assert len(row["points"]) == len(row["spec"]["gaps"])


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


class FakeContext:
    """A get_context("fork") stand-in whose Pool records its size and maps in-process."""

    def __init__(self):
        self.sizes = []

    def __call__(self, method):
        assert method == "fork"
        return self

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, worker, jobs):
        return [worker(job) for job in jobs]


class TestRunReplications:
    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_capped_at_usable_cores(self, monkeypatch, affinity):
        # --workers far above the core count must not fork one process per
        # replication; the chunking, and so every column, stays the same
        fake = FakeContext()
        monkeypatch.setattr(experiments, "get_context", fake)
        if affinity:
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                                raising=False)
        else:
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        stats = {"r": lambda r: float(r), "sq": lambda r: float(r * r)}
        many = run_replications(lambda r: r, stats, 2000, workers=10_000)
        assert fake.sizes == [3]
        few = run_replications(lambda r: r, stats, 2000, workers=2)
        assert fake.sizes == [3, 2]
        serial = run_replications(lambda r: r, stats, 2000, workers=1)
        assert fake.sizes == [3, 2]
        for name in stats:
            assert many[name].tolist() == few[name].tolist() == serial[name].tolist()
            assert many[name].tolist() == [stats[name](r) for r in range(2000)]
    def test_pool_workers_inherit_scipy(self, fresh_python):
        # the parent imports scipy.special before the fork, so no worker does
        out = fresh_python(
            "import sys\n"
            "from fbmlab.sampler import Grid, SeedPolicy, sample_fbm\n"
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
        row = sampler_experiment(
            37, gram_n=128, gram_replications=500, ks_replications=200,
            probe_indices=(16, 32, 64, 128),
        )
        assert row["gram_max_z"] < 5.0
        assert not row["method_ks"]["rejects"]
