import numpy as np
import pytest

from fbmlab import (
    CapabilityError,
    DomainError,
    Grid,
    Method,
    PathKind,
    SeedPolicy,
    gram_matrix,
    sample_bm,
    sample_fbm,
)
from fbmlab.analysis import ks_statistic, KS_COEFF_001
from fbmlab.kernel import rho
from fbmlab.sampler import _cholesky_factor, _circulant_sqrt_eigs


class TestGrid:
    def test_time_maps(self):
        grid = Grid(8, 2.0)
        assert grid.m == 16
        assert grid.dt == 0.125
        assert np.allclose(grid.times(), np.arange(17) / 8)

    def test_non_integral_rejected(self):
        with pytest.raises(DomainError):
            Grid(10, 0.35)
        with pytest.raises(DomainError):
            Grid(0, 1.0)
        with pytest.raises(DomainError):
            Grid(8, -1.0)


class TestSeeding:
    def test_deterministic_draws(self):
        sp = SeedPolicy(987654321, 7)
        assert np.array_equal(sp.normals(32, "tag"), sp.normals(32, "tag"))

    def test_streams_differ(self):
        base = SeedPolicy(1, 0).normals(64, "t")
        assert not np.array_equal(base, SeedPolicy(1, 1).normals(64, "t"))
        assert not np.array_equal(base, SeedPolicy(2, 0).normals(64, "t"))
        assert not np.array_equal(base, SeedPolicy(1, 0).normals(64, "u"))

    def test_negative_stream_rejected(self):
        with pytest.raises(DomainError):
            SeedPolicy(1, -1)


class TestFbmSampler:
    def test_starts_at_zero(self):
        grid = Grid(64)
        for method in Method:
            path = sample_fbm(grid, SeedPolicy(5, 0), method)
            assert path.values[0] == 0.0
            assert len(path.values) == grid.m + 1
            assert path.kind is PathKind.FBM_H16

    def test_bit_reproducible(self):
        grid = Grid(128)
        for method in Method:
            a = sample_fbm(grid, SeedPolicy(42, 3), method)
            b = sample_fbm(grid, SeedPolicy(42, 3), method)
            assert a.values.tobytes() == b.values.tobytes()

    def test_values_immutable(self):
        path = sample_fbm(Grid(16), SeedPolicy(0, 0))
        with pytest.raises(ValueError):
            path.values[0] = 1.0

    def test_cholesky_cap(self):
        with pytest.raises(CapabilityError):
            sample_fbm(Grid(8192), SeedPolicy(0, 0), Method.CHOLESKY)

    def test_cholesky_factor_reproduces_gram(self):
        length = _cholesky_factor(64, 64)
        i = np.arange(64)
        gram = 64 ** (-1 / 3) * np.asarray(rho(i[:, None] - i[None, :]))
        assert np.max(np.abs(length @ length.T - gram)) < 1e-12

    def test_circulant_embedding_roundtrip(self):
        # squared spectral factors invert back to the embedded autocovariance
        m, n = 64, 64
        sq = _circulant_sqrt_eigs(n, m)
        row = np.fft.irfft(sq**2, n=2 * m)
        lags = n ** (-1 / 3) * np.asarray(rho(np.arange(m + 1)))
        assert np.max(np.abs(row[: m + 1] - lags)) < 1e-12

    def test_unit_variance_both_methods(self):
        grid = Grid(256)
        reps = 500
        for method in Method:
            b1 = np.array(
                [sample_fbm(grid, SeedPolicy(11, r), method).values[-1] for r in range(reps)]
            )
            var = b1.var(ddof=1)
            se = var * np.sqrt(2.0 / (reps - 1))
            assert abs(var - 1.0) <= 4 * se

    def test_methods_agree_in_law(self):
        grid = Grid(128)
        reps = 500
        chol = np.array(
            [sample_fbm(grid, SeedPolicy(13, r), Method.CHOLESKY).values[-1] for r in range(reps)]
        )
        circ = np.array(
            [sample_fbm(grid, SeedPolicy(13, r), Method.CIRCULANT).values[-1] for r in range(reps)]
        )
        critical = KS_COEFF_001 * np.sqrt(2.0 / reps)
        assert ks_statistic(chol, circ) < critical

    def test_empirical_gram(self):
        grid = Grid(64)
        probes = np.array([8, 16, 32, 64])
        reps = 3000
        vals = np.array(
            [sample_fbm(grid, SeedPolicy(17, r)).values[probes] for r in range(reps)]
        )
        target = gram_matrix(probes / grid.n)
        prods = vals[:, :, None] * vals[:, None, :]
        z = np.abs(prods.mean(axis=0) - target) / (
            prods.std(axis=0, ddof=1) / np.sqrt(reps)
        )
        assert z.max() < 4.0

    def test_stationary_increment_variance(self):
        grid = Grid(1024)
        reps = 300
        sq = np.zeros(grid.m)
        for r in range(reps):
            sq += sample_fbm(grid, SeedPolicy(23, r)).increments() ** 2
        sq /= reps
        j = np.arange(grid.m, dtype=float)
        design = np.vstack([j, np.ones_like(j)]).T
        coef, *_ = np.linalg.lstsq(design, sq, rcond=None)
        resid = sq - design @ coef
        slope_se = np.sqrt(
            np.sum(resid**2) / (grid.m - 2) / np.sum((j - j.mean()) ** 2)
        )
        assert abs(coef[0]) < 4 * slope_se


class TestBmSampler:
    def test_basics(self):
        grid = Grid(128)
        path = sample_bm(grid, SeedPolicy(3, 1))
        assert path.values[0] == 0.0
        assert path.kind is PathKind.BM
        assert path.method is None

    def test_unit_variance(self):
        grid = Grid(64)
        reps = 1000
        w1 = np.array([sample_bm(grid, SeedPolicy(29, r)).values[-1] for r in range(reps)])
        var = w1.var(ddof=1)
        se = var * np.sqrt(2.0 / (reps - 1))
        assert abs(var - 1.0) <= 4 * se

    def test_independent_of_fbm(self):
        grid = Grid(64)
        reps = 1000
        pairs = np.array(
            [
                (
                    sample_fbm(grid, SeedPolicy(31, r)).values[-1],
                    sample_bm(grid, SeedPolicy(31, r)).values[-1],
                )
                for r in range(reps)
            ]
        )
        corr = np.corrcoef(pairs.T)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(reps)


class TestRestrict:
    def test_restricted_increment_variance(self):
        # every fourth point of an fBm path on Grid(64) is an exact fBm path
        # on Grid(16): Var(dB) = (1/16)^{1/3}
        reps = 800
        acc = 0.0
        count = 0
        for r in range(reps):
            d = np.diff(sample_fbm(Grid(64), SeedPolicy(37, r)).values[::4])
            acc += np.sum(d**2)
            count += len(d)
        mean_sq = acc / count
        target = (1 / 16) ** (1 / 3)
        # each path contributes correlated increments; conservative se
        se = target * np.sqrt(2.0 / reps)
        assert abs(mean_sq - target) <= 4 * se


class TestEmbeddingGuard:
    def test_negative_embedding_aborts(self, monkeypatch):
        # force a non-embeddable autocovariance; the guard must abort rather
        # than silently clamp a materially negative eigenvalue
        import fbmlab.sampler as sampler
        from fbmlab import EmbeddingError

        def bad_rho(r):
            r = np.asarray(r, dtype=float)
            out = np.where(np.abs(r) == 0, 1.0, 0.0)
            out = out - 0.9 * (np.abs(r) == 1)  # alternating row, negative eigs
            return out if out.ndim else float(out)

        sampler._circulant_sqrt_eigs.cache_clear()
        monkeypatch.setattr(sampler, "rho", bad_rho)
        with pytest.raises(EmbeddingError):
            sample_fbm(Grid(16), SeedPolicy(0, 0), Method.CIRCULANT)
        sampler._circulant_sqrt_eigs.cache_clear()

    def test_roundoff_negatives_are_clamped(self):
        # the true fGn embedding is clean for every size used here
        from fbmlab.sampler import _circulant_sqrt_eigs

        for m in (1, 2, 3, 64, 1000):
            eigs = _circulant_sqrt_eigs(m, m) ** 2
            assert eigs.min() >= 0.0
