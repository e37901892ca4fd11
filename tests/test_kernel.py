import numpy as np
import pytest

from fbmlab.checks import ANCHOR_SUM_COEFFS
from fbmlab.errors import DomainError
from fbmlab.kernel import (
    _cube_root_tables,
    anchor_covariances,
    anchor_cube_sums,
    cov_r,
    cubic_variance_exact,
    endpoint_increment_block,
    kappa_constant,
    rho,
    rho_tail_bound,
)


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

    @pytest.mark.parametrize(
        "r", [0, -2.5, np.array(7.0), [1, 2], np.arange(-10_000, 10_001),
              np.linspace(-50.0, 50.0, 1001).reshape(7, 143), np.arange(-300.0, 300.0)[::3]],
    )
    def test_rho_is_the_out_of_place_formula(self, r):
        # evaluated in place, bit for bit the formula's value and type
        x = np.asarray(r, dtype=float)
        ref = 0.5 * (np.cbrt(np.abs(x + 1)) + np.cbrt(np.abs(x - 1)) - 2.0 * np.cbrt(np.abs(x)))
        ref = ref if ref.ndim else float(ref)
        assert type(rho(r)) is type(ref)
        assert np.asarray(rho(r)).tobytes() == np.asarray(ref).tobytes()

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
        assert kc.kappa_sq == 5.391164368226857  # 6 * sum(rho(lags) ** 3), bit for bit
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


class TestCubicVariance:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_matches_the_wick_pair_sum(self, n):
        # Cov(X^3, Y^3) = 9 Var X Var Y r + 6 r^3 for centred Gaussians, summed
        # over every pair of increments with E[dB_j dB_k] = n^{-1/3} rho(j - k)
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        c = n ** (-1.0 / 3.0) * rho(lag)
        var = n ** (-1.0 / 3.0)
        assert cubic_variance_exact(n) == pytest.approx(
            float(np.sum(9.0 * var * var * c + 6.0 * c**3)), rel=1e-12
        )

    def test_tends_to_kappa_squared(self):
        assert cubic_variance_exact(1) == pytest.approx(15.0, rel=1e-15)
        assert cubic_variance_exact(4096) == pytest.approx(5.42647, abs=5e-6)
        gaps = [cubic_variance_exact(n) - kappa_constant().kappa_sq for n in (64, 512, 4096)]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_refuses_an_empty_grid(self):
        with pytest.raises(DomainError):
            cubic_variance_exact(0)


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


def block(n, m, lo=0, rows=None):
    """Rows lo .. lo + rows - 1 (default: to i = m) of E[B(t_i) dB_k], k = 1..m."""
    rows = m + 1 - lo if rows is None else rows
    return endpoint_increment_block(n, m, lo, np.empty((rows, m)))


class TestEndpointIncrementCov:
    def test_zero_start(self):
        for n, m in ((4, 4), (16, 16), (256, 100)):
            assert np.max(np.abs(block(n, m, 0, 1))) <= 1e-15

    def test_first_step_variance(self):
        for n in (2, 8, 128):
            assert anchor_covariances(n)[1][0] == pytest.approx(n ** (-1 / 3), abs=1e-14)

    def test_previous_endpoint_value(self):
        # anchor t_{k-1}: E[B(t_1) dB_2] = E[dB_1 dB_2], adjacent steps
        value = anchor_covariances(8)[0][1]
        assert value == pytest.approx((2.0 ** (1 / 3) - 2.0) / 4.0, abs=1e-14)
        assert value == pytest.approx(increment_cov(8, 1, 2), abs=1e-15)
        assert value < 0

    def test_matches_cov_r_difference(self):
        # grid times formed as index/n; a block of m >= 2n columns holds the
        # anchors on and past k up to t = 2
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 256))
            rows = block(n, max(2 * n, 63))
            for _ in range(5):
                k = int(rng.integers(1, 64))
                i = int(rng.integers(0, 2 * n + 1))
                direct = cov_r(i / n, k / n) - cov_r(i / n, (k - 1) / n)
                assert rows[i, k - 1] == pytest.approx(direct, abs=1e-12)

    def test_exact_at_non_power_of_two_n(self):
        # anchor t_{k-1}: |k - i - 1|^{1/3} is exactly 0, so the value is
        # (k^{1/3} - (k-1)^{1/3} - 1) / (2 n^{1/3}) with no rounding of the lag
        n = 3000
        k = np.arange(1, n + 1)
        exact = (np.cbrt(k) - np.cbrt(k - 1) - 1.0) / (2.0 * np.cbrt(float(n)))
        assert np.max(np.abs(anchor_covariances(n)[0] - exact)) <= 1e-15

    def test_cube_root_table_matches_direct_roots(self, endpoint_cov):
        # bit for bit against one cube root per lag, as the formula reads
        rng = np.random.default_rng(7)
        for n in (3, 64, 3000):
            k = np.arange(1, n + 1)
            for _ in range(5):
                lo = int(rng.integers(0, n + 1))
                rows = min(64, n + 1 - lo)
                i = np.arange(lo, lo + rows)[:, None]
                assert np.array_equal(block(n, n, lo, rows), endpoint_cov(n, i, k))
            assert np.array_equal(block(n, n, n, 1)[0], endpoint_cov(n, n, k))

    def test_cube_root_tables_are_shared_and_read_only(self):
        # every block of an audit grid reads one pair of tables, which no caller may write
        tables = _cube_root_tables(65)
        assert _cube_root_tables(65) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_anchor_covariances_are_the_block_diagonals(self, endpoint_cov):
        for n in (1, 3, 64, 3000):
            k = np.arange(1, n + 1)
            left, right = anchor_covariances(n)
            full = block(n, n)  # rows i = 0..n
            assert np.array_equal(left, np.diagonal(full)), n
            assert np.array_equal(right, np.diagonal(full, -1)), n
            assert np.array_equal(left, endpoint_cov(n, k - 1, k)), n
            assert np.array_equal(right, endpoint_cov(n, k, k)), n

    def test_block_rows_equal_pointwise_values(self, endpoint_cov):
        for n, m in ((3, 3), (64, 32), (100, 100)):
            k = np.arange(1, m + 1)
            for lo, rows in ((0, 1), (0, m + 1), (1, m), (1, 2), (m - 2, 3), (m, 1)):
                i = np.arange(lo, lo + rows)[:, None]
                out = block(n, m, lo, rows)
                assert np.array_equal(out, endpoint_cov(n, i, k)), (n, m, lo, rows)
        for n, m, lo, rows in ((0, 4, 0, 1), (4, 4, -1, 2), (4, 4, 4, 2)):
            with pytest.raises(DomainError):
                block(n, m, lo, rows)

    def test_domain_errors(self):
        for n in (0, -1):
            with pytest.raises(DomainError):
                anchor_covariances(n)
            with pytest.raises(DomainError):
                anchor_cube_sums(n)


class TestAnchoredCubeSums:
    def test_direct_summation_oracle(self, endpoint_cov):
        # same sums assembled from the endpoint covariance itself
        for n in (16, 257):
            k = np.arange(1, n + 1)
            e_left = endpoint_cov(n, k - 1, k)
            e_right = endpoint_cov(n, k, k)
            assert anchor_cube_sums(n) == pytest.approx((
                np.sum(np.abs(e_left**3 + 1.0 / (8 * n))),
                np.sum(np.abs(e_right**3 - 1.0 / (8 * n))),
            ), rel=1e-12)

    def test_small_at_4096_and_decreasing(self):
        lefts, rights = zip(*(anchor_cube_sums(2**k) for k in range(8, 13)))
        assert lefts[-1] < 0.01 and rights[-1] < 0.01
        assert all(a > b for a, b in zip(lefts, lefts[1:]))
        assert all(a > b for a, b in zip(rights, rights[1:]))

    def test_analytic_bounds_hold_at_every_grid(self):
        # the telescoping bounds (3/8) n^{-2/3} and (7/8) n^{-2/3} that audit --check judges
        for n in (2**k for k in range(1, 15)):
            left, right = anchor_cube_sums(n)
            assert left <= ANCHOR_SUM_COEFFS["left"] * n ** (-2.0 / 3.0), n
            assert right <= ANCHOR_SUM_COEFFS["right"] * n ** (-2.0 / 3.0), n
