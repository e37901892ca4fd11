import math
import multiprocessing
import sys
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest

from fbmlab import experiments
from fbmlab.analysis import KS_MIN_SAMPLES
from fbmlab.checks import judge
from fbmlab.errors import CapabilityError, DomainError
from fbmlab.cli import ExperimentConfig
from fbmlab.variations import parse_integrand, parse_integrand_list
from fbmlab.experiments import (
    DEFAULT_SCALING_SPECS,
    _sextic_row,
    audit_experiment,
    converge_experiment,
    fbm_draws,
    hermite_experiment,
    identity_experiment,
    run_tasks,
    sampler_experiment,
    scaling_experiment,
    sextic_experiment,
    taylor_experiment,
)
from fbmlab.quadrature import hermite_mean_exact, hermite_variance_exact, riemann_mean_exact
from fbmlab.sampler import Grid, Path, SeedPolicy, sample_fbm
from fbmlab.variations import Family, int_power, sin_map


def _paths(n, master_seed, replications):
    return [sample_fbm(Grid(n), SeedPolicy(master_seed, r)) for r in range(replications)]


def _prefix_last(terms):
    return np.concatenate([[0.0], np.cumsum(terms)])[-1]


def assert_round_off(got, ref, rel=1e-12):
    # relative to max(1, |ref|): a value near 0, such as int_x = B(1)^2 / 2,
    # keeps the absolute round-off of its O(1) terms in either summation order
    ref = np.asarray(ref)
    assert np.all(np.abs(np.asarray(got) - ref) <= rel * np.maximum(1.0, np.abs(ref)))


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
        [(row, est, g2_sums)] = converge_experiment([64], 60, 101, [parse_integrand("1")])
        assert np.allclose(est["int_1"], est["B"], atol=1e-12)
        assert row["identities"]["1"] < 1e-12
        assert row["pivots"] == {} and g2_sums == {}

    def test_shapes_and_determinism(self):
        [(a_row, a_est, _)] = converge_experiment([32], 60, 7, [parse_integrand("x")])
        [(b_row, b_est, _)] = converge_experiment([32], 60, 7, [parse_integrand("x")])
        assert list(a_est) == ["B", "cubic", "int_x"]
        assert all(len(col) == 60 for col in a_est.values())
        assert a_row == b_row
        assert np.array_equal(a_est["cubic"], b_est["cubic"])

    def test_worker_count_does_not_change_results(self):
        [(a_row, a_est, a_sums)] = converge_experiment([32], 64, 7, [sin_map()], workers=1)
        [(b_row, b_est, b_sums)] = converge_experiment([32], 64, 7, [sin_map()], workers=2)
        assert np.array_equal(a_est["int_sin"], b_est["int_sin"])
        assert np.array_equal(a_sums["sin"], b_sums["sin"])
        assert a_row == b_row

    def test_pivot_of_x_squared_is_the_scaled_cubic_variation(self):
        # R_n(x^2) = V_n / 6 and sigma_n = kappa / 6, so Z = V_n / kappa; the
        # exact mean is 0 by oddness and no sum of g''^2 is drawn
        x2 = parse_integrand("x^2")
        [(row, est, g2_sums)] = converge_experiment([64], 60, 3, [x2])
        assert g2_sums == {}
        z = est["cubic"] / row["kappa"]
        assert row["pivots"]["x^2"]["variance"] == pytest.approx(np.var(z, ddof=1), rel=1e-9)

    def test_row_reads_back_columns_built_to_the_limit_law(self):
        # remainders set to m_n + sigma_n q for normal quantiles q: the pivot
        # is q again, centred by the exact mean and scaled by the g''^2 sums
        n, m, kappa = 64, 400, 2.3
        g = sin_map()
        b1 = np.linspace(-2.0, 2.0, m)
        sums = np.linspace(10.0, 40.0, m)
        q = np.array([NormalDist().inv_cdf((i + 0.5) / m) for i in range(m)])[::-1]
        big_g = g.antiderivative()
        remainder = riemann_mean_exact(g, n) + kappa / 12.0 * np.sqrt(sums / n) * q
        cols = {"B": b1, "cubic": b1 ** 3, "int_sin": big_g(b1) - big_g(0.0) + remainder}
        means = {"sin": riemann_mean_exact(g, n)}
        pivot = experiments.converge_row(n, cols, {"sin": sums}, means, [g], kappa)["pivots"]["sin"]
        assert pivot["ks"] == pytest.approx(0.5 / m, abs=1e-12)
        assert pivot["variance"] == pytest.approx(np.var(q, ddof=1), rel=1e-12)
        assert pivot["mean"] == pytest.approx(np.mean(remainder), rel=1e-12)

    def test_pivot_scale_is_the_left_sum_of_g2_squared(self):
        g = sin_map()
        [(_, _, g2_sums)] = converge_experiment([32], 60, 7, [g])
        path = sample_fbm(Grid(32), SeedPolicy(7, 5))
        left = path.values[:-1]
        assert g2_sums["sin"][5] == pytest.approx(np.sum(np.sin(left) ** 2), rel=1e-12)


class TestFinalSums:
    """Values read at t = 1 are one pairwise sum of each path's terms; they
    agree with the last entry of the cumsum prefix to round-off."""

    def test_converge_columns_match_the_prefix_definitions(self):
        integrands = parse_integrand_list("1; x; x^3; cos; sin:2,3,0.5; exp:1,0.5")
        n, reps = 256, 60
        [(_, est, g2_sums)] = converge_experiment([n], reps, 7, integrands)
        paths = _paths(n, 7, reps)
        assert est["B"].tobytes() == np.array([p.values[-1] for p in paths]).tobytes()
        assert_round_off(est["cubic"], [_prefix_last(np.diff(p.values) ** 3) for p in paths])
        for g in integrands:
            ref = []
            for p in paths:
                gv = g(p.values)
                ref.append(_prefix_last(0.5 * (gv[:-1] + gv[1:]) * np.diff(p.values)))
            assert_round_off(est[f"int_{g.label}"], ref)
        assert list(g2_sums) == ["x^3", "cos", "sin:2,3,0.5", "exp:1,0.5"]
        for g in integrands[2:]:
            ref = [np.sum(g.derivative(2)(p.values[:-1]) ** 2) for p in paths]
            np.testing.assert_allclose(g2_sums[g.label], ref, rtol=1e-12, atol=0)

    def test_hermite_columns_match_the_prefix_definitions(self):
        integrands = parse_integrand_list("sin; exp:1,0.5; x^3")
        n, reps = 256, 40
        runs = hermite_experiment([n], reps, 7, integrands)
        paths = _paths(n, 7, reps)
        for g, (_, cols) in zip(integrands, runs):
            for side, weights in (("left", slice(None, -1)), ("right", slice(1, None))):
                ref = []
                for p in paths:
                    x = n ** (1.0 / 6.0) * np.diff(p.values)
                    ref.append(_prefix_last(g(p.values)[weights] * x * (x * x - 3.0) / np.sqrt(n)))
                assert_round_off(cols[side], ref)

    def test_targets_are_those_of_each_row_label_and_n(self):
        # every target is computed before the draws; each row must read the
        # one of its own integrand and grid, not a neighbour's
        n_list = [64, 256]
        integrands = parse_integrand_list("x^3; sin:2,3,0.5; exp:1,0.5")
        runs = converge_experiment(n_list, KS_MIN_SAMPLES, 5, integrands)
        for n, (row, _, _) in zip(n_list, runs):
            assert row["n"] == n
            for g in integrands:
                assert row["pivots"][g.label]["mean_exact"] == riemann_mean_exact(g, n)
        runs = hermite_experiment(n_list, 4, 5, integrands)
        assert [(r["integrand"], r["n"]) for r, _ in runs] == [
            (g.label, n) for g in integrands for n in n_list
        ]
        for (row, _), (g, n) in zip(runs, [(g, n) for g in integrands for n in n_list]):
            left, right = hermite_mean_exact(g, n)
            assert (row["left_mean_exact"], row["right_mean_exact"]) == (left, right)
            if g.family is Family.POLYNOMIAL:
                assert row["variance_target"] == row["variance_limit"]
            else:
                assert row["variance_target"] == hermite_variance_exact(g, n)

    @pytest.mark.parametrize("n", [1, 2, 256, 4096])
    def test_identity_row_keeps_its_prefix_sums(self, n):
        # variations still reads F(X, t) on the whole grid, as ascending
        # cumsums of the same terms, so its row is bitwise what it was
        def reference(path):
            v = path.values
            dx = np.diff(v)
            cubic = np.concatenate([[0.0], np.cumsum(int_power(dx, 3))])

            def riemann(spec):
                gv = np.asarray(parse_integrand(spec)(v))
                return np.concatenate([[0.0], np.cumsum(0.5 * (gv[:-1] + gv[1:]) * dx)])

            x = n ** (1.0 / 6.0) * dx
            hermite_one = np.concatenate([[0.0], np.cumsum(x * (x * x - 3.0) / np.sqrt(n))])
            res = [
                np.max(np.abs(riemann("1") - (v - v[0]))),
                np.max(np.abs(riemann("x") - 0.5 * (v**2 - v[0] ** 2))),
                np.max(np.abs(riemann("x^2") - (int_power(v, 3) - v[0] ** 3) / 3.0 - cubic / 6.0)),
                np.max(np.abs(cubic - hermite_one - 3.0 * n ** (-1.0 / 3.0) * v)),
            ]
            scale = max(1.0, float(np.max(np.abs(v))) ** 3)
            return np.append(np.array(res) / scale, [v[-1], cubic[-1]])

        for path in _paths(n, 11, 5):
            assert experiments._identity_row(path).tobytes() == reference(path).tobytes()


class TestIdentity:
    def test_residuals_tiny(self):
        [(row, cols)] = identity_experiment([256], 25, 11)
        assert max(row["max_rel_residuals"].values()) < 1e-10
        assert len(cols["cubic"]) == 25

    def test_variance_sane_at_moderate_n(self):
        [(row, _)] = identity_experiment([512], 400, 13)
        assert 3.0 < row["cubic_variance"] < 9.0
        assert abs(row["cubic_b_corr"]) < 0.5

    def test_exact_correlation_target(self):
        # Cov(V_n, B(1)) = 3 n^{-1/3} by Wick's formula, and Var V_n = 5.42647
        # at n = 4096; corr_ok passes at the exact value and rejects the named
        # alternative rho = 0.25 at M = 500
        [(row, _)] = identity_experiment([4096], 4, 11)
        assert row["cubic_b_corr_exact"] == pytest.approx(0.08049, abs=5e-6)
        for corr, ok in ((row["cubic_b_corr_exact"], True), (0.25, False)):
            trial = {**row, "cubic_b_corr": corr, "replications": 500}
            assert judge("variations", trial)[0]["corr_ok"]["fisher_z"]["ok"] is ok


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
        exact = hermite_mean_exact(sin_map(), 256)[0]
        se = left.std(ddof=1) / math.sqrt(len(left))
        assert abs(left.mean() - exact) <= 4 * se

    def test_right_mirrors_left_in_sign(self):
        [(_, cols)] = hermite_experiment([256], 600, 19)
        right = cols["right"]
        exact_right = hermite_mean_exact(sin_map(), 256)[1]
        # right endpoint anchors at t_k instead of t_{k-1}; its exact mean
        # uses the mirrored covariance, 19 % above the negated left value here
        se = right.std(ddof=1) / math.sqrt(len(right))
        assert abs(right.mean() - exact_right) <= 4 * se

    def test_limits_attached(self):
        [(row, _)] = hermite_experiment([64], 200, 23)
        assert row["mean_limit"] == pytest.approx(6 - 9.75 * math.exp(-0.5), abs=1e-9)
        exact = hermite_mean_exact(sin_map(), 64)
        assert (row["left_mean_exact"], row["right_mean_exact"]) == exact
        assert row["variance_limit"] > 1.0
        assert row["bounded"]

    def test_variance_target_is_exact_for_trig_and_exp_only(self):
        [(row, _)] = hermite_experiment([64], 60, 23)
        assert row["variance_target_kind"] == "exact"
        assert row["variance_target"] == hermite_variance_exact(sin_map(), 64)
        [(row, _)] = hermite_experiment([64], 60, 23, [parse_integrand("x^2")])
        assert row["variance_target_kind"] == "limit"
        assert row["variance_target"] == row["variance_limit"]

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
        res = taylor_experiment(pairs=200, poly_count=10)
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

    def map(self, worker, jobs, chunksize=None):
        return [worker(job) for job in jobs]


def stream_ids(lo, hi):
    """A draw whose sample of replication r is r itself."""
    return range(lo, hi)


class TestRunReplications:
    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_capped_at_usable_cores(self, monkeypatch, affinity):
        # --workers far above the core count must not fork one process per
        # replication; the chunking, and so every column, stays the same
        fake = FakeContext()
        monkeypatch.setattr(multiprocessing, "get_context", fake)
        if affinity:
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                                raising=False)
        else:
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        stats = {"r": lambda r: float(r), "sq": lambda r: float(r * r)}
        tasks = [(stream_ids, stats), (lambda lo, hi: range(lo + 1, hi + 1), stats)]
        many = run_tasks(tasks, 2000, workers=10_000)
        assert fake.sizes == [3]
        few = run_tasks(tasks, 2000, workers=2)
        assert fake.sizes == [3, 2]
        serial = run_tasks(tasks, 2000, workers=1)
        assert fake.sizes == [3, 2]
        for shift, columns in enumerate(zip(many, few, serial)):
            for name in stats:
                a, b, c = (cols[name].tolist() for cols in columns)
                assert a == b == c == [stats[name](r + shift) for r in range(2000)]

    def test_chunks_follow_usable_cores(self, monkeypatch):
        # --workers 64 on two usable cores makes the chunks of two workers,
        # and the default worker count is the usable cores, not every CPU
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        assert len(experiments._chunks(2000, 64)) == len(experiments._chunks(2000, 2)) == 8
        assert len(experiments._chunks(2000, 1)) == 4
        assert ExperimentConfig("sextic").workers == 2

    def test_timings_sum_every_chunk(self, monkeypatch):
        # on a clock that only the draw (1 s a path) and the statistics
        # (10 s each) advance, the totals count every chunk of every task
        fake = FakeContext()
        monkeypatch.setattr(multiprocessing, "get_context", fake)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(experiments, "TIMINGS", Counter())
        clock = [0.0]
        monkeypatch.setattr(experiments, "perf_counter", lambda: clock[0])

        def tick(seconds):
            clock[0] += seconds

        def draw(lo, hi):
            for r in stream_ids(lo, hi):
                tick(1.0)
                yield r

        stats = {"a": lambda r: tick(10.0), "b": lambda r: tick(10.0)}
        run_tasks([(draw, stats)] * 3, 10, workers=2)
        assert fake.sizes == [2]
        assert experiments.TIMINGS == {"pools": 1, "draw_s": 30.0, "stats_s": 600.0}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts page faults")
    def test_long_paths_reuse_heap_memory(self, fresh_python):
        # a fresh process at glibc malloc's start thresholds faults in about
        # 100 pages per 16,384-step path; the engine's pre-fork 4 MiB block
        # lets the paths reuse heap memory instead
        out = fresh_python(
            "import resource\n"
            "from fbmlab.sampler import Grid\n"
            "from fbmlab.experiments import fbm_draws, run_tasks\n"
            "tasks = [(fbm_draws(Grid(16384), 2), {'b': lambda path: path.values[-1]})]\n"
            "run_tasks(tasks, 2, workers=1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_tasks(tasks, 50, workers=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(out) < 5 * 50


class TestOnePoolPerCommand:
    def test_every_grid_of_a_command_shares_one_pool(self, monkeypatch):
        # sextic's five levels, two grids of variations, converge and hermite
        # (two integrands), and scaling's two grids: one pool each, and the
        # same results as a serial run
        runs = {
            "sextic": lambda w: sextic_experiment([16, 32, 64, 128, 256], 60, 17, workers=w),
            "variations": lambda w: identity_experiment([64, 128], 60, 17, workers=w),
            "converge": lambda w: converge_experiment([32, 64], 60, 17, [sin_map()], workers=w),
            "hermite": lambda w: hermite_experiment(
                [32, 64], 60, 17, [sin_map(), parse_integrand("x^2")], workers=w
            ),
            "scaling": lambda w: scaling_experiment(17, 200, workers=w),
        }
        serial = {name: run(1) for name, run in runs.items()}
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        for name, run in runs.items():
            fake = FakeContext()
            monkeypatch.setattr(multiprocessing, "get_context", fake)
            pooled = run(2)
            assert fake.sizes == [2], name
            np.testing.assert_equal(pooled, serial[name], err_msg=name)

    def test_hermite_integrands_read_the_same_paths(self):
        [(sin_row, sin_cols)] = hermite_experiment([64], 30, 23)
        both = hermite_experiment([64], 30, 23, [parse_integrand("x^2"), sin_map()])
        assert [row["integrand"] for row, _ in both] == ["x^2", "sin"]
        assert both[1][0] == sin_row
        np.testing.assert_equal(both[1][1], sin_cols)


class TestFbmDraws:
    @pytest.mark.parametrize(
        "grid", [Grid(64), Grid(4096), Grid(8192), Grid(8192, 0.25), Grid(16384)]
    )
    def test_blocks_need_not_align_with_chunks(self, grid):
        # a chunk's blocks start at its first replication (8, 4, 2, 8 and 1
        # rows here); every path equals its single-row draw, and views kept
        # from earlier blocks are not overwritten by later ones
        kept = [path.values for path in fbm_draws(grid, 5)(3, 22)]
        assert len(kept) == 19
        for r, values in enumerate(kept, start=3):
            assert values.tobytes() == sample_fbm(grid, SeedPolicy(5, r)).values.tobytes()


class TestSamplerExperiment:
    def test_small_validation(self):
        row = sampler_experiment(37, n=128, replications=500)
        checks, failed = judge("sampler", row)
        assert set(checks["covariance_max_dev"]) == {"m=1", "m=2", "m=3", "m=128"}
        assert set(checks["b1_ks"]) == {"B"}
        assert not failed, failed
