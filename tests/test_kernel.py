import numpy as np
import pytest
from numpy.polynomial import hermite_e

from fbmlab.errors import CapabilityError, DomainError
from fbmlab.kernel import (
    cov_r,
    endpoint_increment_cov,
    hermite,
    kappa_constant,
    left_anchor_cube_sum,
    rho,
    rho_tail_bound,
    right_anchor_cube_sum,
)
from fbmlab.kernel import endpoint_increment_block


class TestCovariance:
    def test_unit_time_variance(self):
        assert cov_r(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_time(self):
        for t in (0.0, 0.3, 2.0, 17.5):
            assert cov_r(0.0, t) == 0.0

    def test_hand_value(self):
        # (1, 2): (1 + 2^{1/3} - 1) / 2 = 2^{1/3} / 2
        assert cov_r(1.0, 2.0) == pytest.approx(2.0 ** (1 / 3) / 2, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        s, t = rng.uniform(0, 5, size=(2, 64))
        assert np.allclose(cov_r(s, t), cov_r(t, s), atol=0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            cov_r(-0.1, 1.0)
        with pytest.raises(DomainError):
            cov_r(1.0, -2.0)

    def test_increment_var_values(self):
        # E|B(t) - B(s)|^2 = R(t, t) + R(s, s) - 2 R(s, t) = |t - s|^{1/3}
        def increment_var(s, t):
            return cov_r(s, s) + cov_r(t, t) - 2 * cov_r(s, t)

        assert increment_var(0.0, 1.0) == 1.0
        assert increment_var(0.7, 0.7) == 0.0
        assert increment_var(0.25, 0.5) == pytest.approx(0.25 ** (1 / 3), abs=1e-14)

    def test_increment_var_consistency(self):
        rng = np.random.default_rng(2)
        s, t = rng.uniform(0, 3, size=(2, 100))
        combo = cov_r(s, s) + cov_r(t, t) - 2 * np.asarray(cov_r(s, t))
        assert np.max(np.abs(combo - np.cbrt(np.abs(t - s)))) < 1e-12

    def test_gram_psd_up_to_2048(self):
        times = np.arange(1, 2049) / 2048.0
        eigs = np.linalg.eigvalsh(cov_r(times[:, None], times[None, :]))
        assert eigs.min() >= -1e-9


class TestLagSequence:
    def test_rho_at_zero(self):
        assert rho(0) == 1.0

    def test_rho_at_one(self):
        assert rho(1) == pytest.approx((2.0 ** (1 / 3) - 2.0) / 2.0, abs=1e-15)

    def test_rho_even(self):
        r = np.arange(1, 200)
        assert np.array_equal(np.asarray(rho(r)), np.asarray(rho(-r)))

    def test_absolutely_summable(self):
        def abs_sum(radius):
            return float(np.sum(np.abs(rho(np.arange(-radius, radius + 1)))))

        assert rho(3) == rho(-3)
        assert abs_sum(10_000) < 2.1
        # tail past radius 1000 is ~ (1/3) * 1000^{-2/3}, a few 1e-3
        assert abs_sum(10_000) - abs_sum(1000) < 5e-3

    def test_power_law_envelope(self):
        # |rho(r)| <= C r^{-5/3} with a fitted constant staying near 1/9
        r = np.arange(2, 1001)
        fitted = np.max(np.abs(np.asarray(rho(r))) * r ** (5 / 3))
        assert 0.05 < fitted < 0.2

    def test_tail_bound_dominates_and_decreases(self):
        probe = np.arange(1, 200_001)
        cubes = 6.0 * np.abs(np.asarray(rho(probe))) ** 3
        suffix = np.cumsum(cubes[::-1])[::-1]
        bounds = []
        for radius in (0, 1, 2, 10, 100, 1000):
            bound = rho_tail_bound(radius)
            # true tail (two sided) up to the probe horizon
            assert 2.0 * suffix[radius] <= bound
            bounds.append(bound)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


class TestKappa:
    def test_single_term(self):
        kc = kappa_constant(0)
        assert kc.kappa_sq == pytest.approx(6.0, abs=1e-14)
        assert kc.kappa == pytest.approx(np.sqrt(6.0), abs=1e-14)

    def test_reference_values(self):
        kc = kappa_constant(10_000)
        assert kc.kappa_sq == pytest.approx(5.391, abs=1e-3)
        assert kc.kappa == pytest.approx(2.322, abs=5e-3)
        assert kc.tail_bound < 1e-12

    def test_truncation_increments_below_tail_bound(self):
        radii = (0, 1, 2, 5, 10, 50, 200)
        values = [kappa_constant(r) for r in radii]
        for prev, cur in zip(values, values[1:]):
            assert abs(cur.kappa_sq - prev.kappa_sq) <= prev.tail_bound

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            kappa_constant(-1)


class TestHermite:
    def test_small_values(self):
        assert hermite(3, 2.0) == pytest.approx(2.0, abs=1e-14)  # 8 - 6
        assert hermite(4, 0.0) == pytest.approx(3.0, abs=1e-14)  # x h3 - 3 h2 at 0
        x = np.linspace(-3, 3, 41)
        assert np.allclose(hermite(2, x), x**2 - 1, atol=1e-12)
        assert np.allclose(hermite(3, x), x**3 - 3 * x, atol=1e-12)

    def test_against_numpy_hermite_e(self):
        x = np.linspace(-2.5, 2.5, 27)
        for order in range(7):
            basis = np.zeros(order + 1)
            basis[order] = 1.0
            assert np.allclose(hermite(order, x), hermite_e.hermeval(x, basis), atol=1e-10)

    def test_order_cap(self):
        assert hermite(12, 0.5) == pytest.approx(hermite_e.hermeval(0.5, [0] * 12 + [1]))
        with pytest.raises(CapabilityError):
            hermite(13, 0.0)
        with pytest.raises(DomainError):
            hermite(-1, 0.0)

    def test_eval_matches_recurrence(self):
        # numpy's HermiteE series is an independent reference for the recurrence
        x = np.linspace(-2, 2, 17)
        for k in range(13):
            expected = hermite_e.hermeval(x, [0] * k + [1])
            assert np.allclose(hermite(k, x), expected, rtol=1e-12, atol=1e-9)


def increment_cov(n, i, j):
    """E[dB_i dB_j] = n^{-1/3} rho(i - j), the covariance the sampler draws."""
    return n ** (-1 / 3) * rho(i - j)


class TestIncrementCov:
    def test_diagonal(self):
        for n in (1, 8, 1000):
            assert increment_cov(n, 3, 3) == pytest.approx(n ** (-1 / 3), abs=1e-15)

    def test_hand_value(self):
        # 8^{-1/3} rho(1) = (2^{1/3} - 2) / 4
        assert increment_cov(8, 1, 2) == pytest.approx((2.0 ** (1 / 3) - 2.0) / 4.0, abs=1e-14)
        assert increment_cov(8, 1, 2) == pytest.approx(-0.185020, abs=5e-7)

    def test_off_diagonal_negative(self):
        lags = np.arange(1, 1000)
        assert np.all(np.asarray(rho(lags)) < 0)

    def test_consistency_with_cov_r(self):
        # grid times must be formed as index/n: the 1/3-Hoelder kernel
        # amplifies any rounding of near-diagonal time differences
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 64))
            i, j = (int(v) for v in rng.integers(1, 32, size=2))
            double_diff = (
                cov_r(i / n, j / n)
                - cov_r(i / n, (j - 1) / n)
                - cov_r((i - 1) / n, j / n)
                + cov_r((i - 1) / n, (j - 1) / n)
            )
            assert increment_cov(n, i, j) == pytest.approx(double_diff, abs=1e-10)


class TestEndpointIncrementCov:
    def test_zero_start(self):
        for n, k in ((4, 1), (16, 5), (256, 100)):
            assert endpoint_increment_cov(n, 0, k) == pytest.approx(0.0, abs=1e-15)

    def test_first_step_variance(self):
        for n in (2, 8, 128):
            assert endpoint_increment_cov(n, 1, 1) == pytest.approx(n ** (-1 / 3), abs=1e-14)

    def test_previous_endpoint_value(self):
        # anchor t_{k-1}: E[B(t_1) dB_2] = E[dB_1 dB_2], adjacent steps
        value = endpoint_increment_cov(8, 1, 2)
        assert value == pytest.approx((2.0 ** (1 / 3) - 2.0) / 4.0, abs=1e-14)
        assert value == pytest.approx(increment_cov(8, 1, 2), abs=1e-15)
        assert value < 0

    def test_matches_cov_r_difference(self):
        # grid times formed as index/n, anchors on and past k, up to t = 2
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 256))
            k = int(rng.integers(1, 64))
            i = int(rng.integers(0, 2 * n + 1))
            direct = cov_r(i / n, k / n) - cov_r(i / n, (k - 1) / n)
            assert endpoint_increment_cov(n, i, k) == pytest.approx(direct, abs=1e-12)

    def test_exact_at_non_power_of_two_n(self):
        # anchor t_{k-1}: |k - i - 1|^{1/3} is exactly 0, so the value is
        # (k^{1/3} - (k-1)^{1/3} - 1) / (2 n^{1/3}) with no rounding of the lag
        n = 3000
        k = np.arange(1, n + 1)
        exact = (np.cbrt(k) - np.cbrt(k - 1) - 1.0) / (2.0 * np.cbrt(float(n)))
        assert np.max(np.abs(endpoint_increment_cov(n, k - 1, k) - exact)) <= 1e-15

    def test_cube_root_table_matches_direct_roots(self):
        # bit for bit against one cube root per lag, as the formula reads
        def direct(n, i, k):
            i, k = np.asarray(i, dtype=float), np.asarray(k, dtype=float)
            c = lambda x: np.cbrt(np.abs(x))
            return (c(k) - c(k - 1) - c(k - i) + c(k - i - 1)) / (2.0 * np.cbrt(float(n)))

        rng = np.random.default_rng(7)
        for n in (3, 64, 3000):
            for _ in range(5):
                lo = int(rng.integers(0, n + 1))
                i = np.arange(lo, min(lo + 64, n + 1))[:, None]
                k = rng.integers(1, n + 1, size=200)
                assert np.array_equal(endpoint_increment_cov(n, i, k), direct(n, i, k))
            k = np.arange(1, n + 1)
            assert np.array_equal(endpoint_increment_cov(n, k - 1, k), direct(n, k - 1, k))
            assert endpoint_increment_cov(n, n, 1) == float(direct(n, n, 1))

    def test_block_rows_equal_pointwise_values(self):
        for n, m in ((3, 3), (64, 32), (100, 100)):
            k = np.arange(1, m + 1)
            for lo, rows in ((0, 1), (0, m + 1), (1, m), (1, 2), (m - 2, 3), (m, 1)):
                out = endpoint_increment_block(n, m, lo, np.empty((rows, m)))
                i = np.arange(lo, lo + rows)[:, None]
                assert np.array_equal(out, endpoint_increment_cov(n, i, k)), (n, m, lo, rows)
        for n, m, lo, rows in ((0, 4, 0, 1), (4, 4, -1, 2), (4, 4, 4, 2)):
            with pytest.raises(DomainError):
                endpoint_increment_block(n, m, lo, np.empty((rows, m)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            endpoint_increment_cov(0, 1, 1)
        with pytest.raises(DomainError):
            endpoint_increment_cov(4, 1.0, 2)
        with pytest.raises(DomainError):
            endpoint_increment_cov(4, -1, 1)
        with pytest.raises(DomainError):
            endpoint_increment_cov(4, 1, 0)


class TestAnchoredCubeSums:
    def test_direct_summation_oracle(self):
        # same sums assembled from the endpoint covariance itself
        for n in (16, 257):
            k = np.arange(1, n + 1)
            e_left = np.asarray(endpoint_increment_cov(n, k - 1, k))
            e_right = np.asarray(endpoint_increment_cov(n, k, k))
            assert left_anchor_cube_sum(n, 1.0) == pytest.approx(
                np.sum(np.abs(e_left**3 + 1.0 / (8 * n))), rel=1e-12
            )
            assert right_anchor_cube_sum(n, 1.0) == pytest.approx(
                np.sum(np.abs(e_right**3 - 1.0 / (8 * n))), rel=1e-12
            )

    def test_small_at_4096_and_decreasing(self):
        lefts = [left_anchor_cube_sum(2**k, 1.0) for k in range(8, 13)]
        rights = [right_anchor_cube_sum(2**k, 1.0) for k in range(8, 13)]
        assert lefts[-1] < 0.01 and rights[-1] < 0.01
        assert all(a > b for a, b in zip(lefts, lefts[1:]))
        assert all(a > b for a, b in zip(rights, rights[1:]))

    def test_left_analytic_bound(self):
        # telescoping argument gives (3/8) floor(nt)^{1/3} / n
        for n in (64, 512, 4096):
            assert left_anchor_cube_sum(n, 1.0) <= 0.375 * n ** (1 / 3) / n + 1e-15

    def test_zero_horizon(self):
        assert left_anchor_cube_sum(64, 0.0) == 0.0
        assert right_anchor_cube_sum(64, 0.0) == 0.0
