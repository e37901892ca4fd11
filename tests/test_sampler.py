import numpy as np
import pytest
from scipy.stats import ks_2samp

from fbmlab.errors import DomainError
from fbmlab.sampler import Grid, SeedPolicy, sample_bm, sample_fbm, sample_fbm_block
from fbmlab.checks import KS_COEFF_001
from fbmlab.kernel import rho
from fbmlab.sampler import _circulant_sqrt_eigs


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

    @pytest.mark.parametrize("horizon", [float("inf"), float("-inf"), 1e308])
    def test_nonfinite_steps_rejected(self, horizon):
        # 4 * 1e308 overflows to inf: no grid, rather than an OverflowError
        with pytest.raises(DomainError):
            Grid(4, horizon)

    def test_size_too_large_for_a_float_rejected(self):
        # 10^400 * 1.0 raises OverflowError; the grid refuses it as a DomainError
        with pytest.raises(DomainError):
            Grid(10**400)


class TestSeeding:
    def test_deterministic_draws(self):
        sp = SeedPolicy(987654321, 7)
        assert np.array_equal(sp.normals(32, "tag"), sp.normals(32, "tag"))

    def test_stream_keys_are_pinned(self):
        # the keys of stream versions 2 and 3; the second call reads the cached tag word
        for _ in range(2):
            assert [int(w) for w in SeedPolicy(2, 5)._key("fbm")] == [
                0x4CE786056003E29D, 0xD7F112ECBE23F0C3]
            assert [int(w) for w in SeedPolicy(987654321, 7)._key("bm")] == [
                0x896DE2EB3276D594, 0x29D1115E16F5EFD9]

    def test_streams_differ(self):
        base = SeedPolicy(1, 0).normals(64, "t")
        assert not np.array_equal(base, SeedPolicy(1, 1).normals(64, "t"))
        assert not np.array_equal(base, SeedPolicy(2, 0).normals(64, "t"))
        assert not np.array_equal(base, SeedPolicy(1, 0).normals(64, "u"))

    def test_normals_are_the_ziggurat_on_the_keyed_philox_stream(self):
        # stream version 3: numpy's Generator on Philox(key), the same on every call
        sp = SeedPolicy(7, 3)
        expected = np.random.Generator(
            np.random.Philox(key=sp._key("fbm:circulant"))).standard_normal(5)
        for _ in range(2):
            assert sp.normals(5, "fbm:circulant").tobytes() == expected.tobytes()

    def test_negative_stream_rejected(self):
        with pytest.raises(DomainError):
            SeedPolicy(1, -1)

    def test_stream_keys_are_distinct(self):
        # the fBm streams of master seeds 1..40 and 2,000 replications each:
        # 80,000 Philox keys, no two alike
        keys = {tuple(SeedPolicy(seed, r)._key("fbm:circulant").tolist())
                for seed in range(1, 41) for r in range(2000)}
        assert len(keys) == 80_000


class TestFbmSampler:
    def test_starts_at_zero(self):
        grid = Grid(64)
        path = sample_fbm(grid, SeedPolicy(5, 0))
        assert path.values[0] == 0.0
        assert len(path.values) == grid.m + 1

    def test_bit_reproducible(self):
        grid = Grid(128)
        a = sample_fbm(grid, SeedPolicy(42, 3))
        b = sample_fbm(grid, SeedPolicy(42, 3))
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("n, horizon", [(64, 0.5), (256, 0.25), (1024, 2.0), (4096, 0.5)])
    def test_self_similar_in_the_horizon(self, n, horizon):
        # B(T .) has the law of T^{1/6} B(.), and with the same seeds the
        # sampler draws exactly that path: a run on [0, T] is a run on [0, 1]
        seeds = SeedPolicy(17, n)
        on_t = sample_fbm(Grid(n, horizon), seeds).values
        on_unit = sample_fbm(Grid(round(n * horizon)), seeds).values
        scaled = horizon ** (1.0 / 6.0) * on_unit
        assert np.max(np.abs(on_t - scaled)) <= 1e-12 * np.max(np.abs(scaled))

    def test_values_immutable(self):
        path = sample_fbm(Grid(16), SeedPolicy(0, 0))
        with pytest.raises(ValueError):
            path.values[0] = 1.0

    def test_cholesky_factor_reproduces_gram(self, cholesky_fbm):
        factor, _ = cholesky_fbm
        length = factor(64, 64)
        i = np.arange(64)
        gram = 64 ** (-1 / 3) * np.asarray(rho(i[:, None] - i[None, :]))
        assert np.max(np.abs(length @ length.T - gram)) < 1e-12

    def test_circulant_embedding_roundtrip(self):
        # squared spectral factors invert back to the embedded autocovariance
        m, n = 64, 64
        sq, _ = _circulant_sqrt_eigs(n, m)
        row = np.fft.irfft(sq**2, n=2 * m)
        lags = n ** (-1 / 3) * np.asarray(rho(np.arange(m + 1)))
        assert np.max(np.abs(row[: m + 1] - lags)) < 1e-12

    def test_unit_variance_both_methods(self):
        grid = Grid(256)
        reps = 500
        b1 = np.array([sample_fbm(grid, SeedPolicy(11, r)).values[-1] for r in range(reps)])
        var = b1.var(ddof=1)
        se = var * np.sqrt(2.0 / (reps - 1))
        assert abs(var - 1.0) <= 4 * se

    def test_methods_agree_in_law(self, cholesky_fbm):
        # the circulant B(1) against the Cholesky reference's, a two-sample KS
        grid = Grid(128)
        reps = 500
        _, draw = cholesky_fbm
        chol = np.array([draw(grid, SeedPolicy(13, r))[-1] for r in range(reps)])
        circ = np.array(
            [sample_fbm(grid, SeedPolicy(13, r)).values[-1] for r in range(reps)]
        )
        critical = KS_COEFF_001 * np.sqrt(2.0 / reps)
        assert ks_2samp(chol, circ).statistic < critical

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


def _reference_fgn_circulant(grid, z):
    """The spectral synthesis in plain complex arithmetic on scales built per
    call: the reference sample_fbm must match byte for byte."""
    m = grid.m
    big = 2 * m
    sq = _circulant_sqrt_eigs(grid.n, m)[0]
    spectrum = np.empty(m + 1, dtype=complex)
    root = np.sqrt(float(big))
    spectrum[0] = sq[0] * root * z[0]
    spectrum[m] = sq[m] * root * z[1]
    if m > 1:
        spectrum[1:m] = sq[1:m] * (root / np.sqrt(2.0)) * (z[2::2] + 1j * z[3::2])
    return np.fft.irfft(spectrum, n=big)[:m]


def _reference_assemble(increments):
    return np.concatenate([[0.0], np.cumsum(increments)])


class TestSynthesisMatchesReference:
    """sample_fbm writes the spectrum in place from cached scales and sums
    into a preallocated array; its paths, and each row of a block that
    shares one batched irfft and one cumulative sum, equal the plain
    one-path form byte for byte."""

    @pytest.mark.parametrize(
        "grid", [Grid(1), Grid(2), Grid(3), Grid(1000), Grid(4096), Grid(16384), Grid(8192, 0.25)]
    )
    def test_paths_are_byte_identical(self, grid):
        pairs = ((0, 0), (2, 7), (11, 1999), (20260810, 3), (2, 0), (2, 1), (2, 8), (11, 5))
        seeds = [SeedPolicy(master_seed, stream_id) for master_seed, stream_id in pairs]
        block = sample_fbm_block(grid, seeds)
        assert len(block) == len(seeds)
        for policy, path in zip(seeds, block):
            z = policy.normals(2 * grid.m, "fbm:circulant")
            expected = _reference_assemble(_reference_fgn_circulant(grid, z))
            assert sample_fbm(grid, policy).values.tobytes() == expected.tobytes()
            assert path.values.tobytes() == expected.tobytes()


class TestBmSampler:
    def test_basics(self):
        grid = Grid(128)
        path = sample_bm(grid, SeedPolicy(3, 1))
        assert path.values[0] == 0.0
        assert len(path.values) == grid.m + 1

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
        from fbmlab.errors import EmbeddingError

        def bad_rho(r):
            r = np.asarray(r, dtype=float)
            out = np.where(np.abs(r) == 0, 1.0, 0.0)
            out = out - 0.9 * (np.abs(r) == 1)  # alternating row, negative eigs
            return out if out.ndim else float(out)

        sampler._circulant_sqrt_eigs.cache_clear()
        monkeypatch.setattr(sampler, "rho", bad_rho)
        with pytest.raises(EmbeddingError):
            sample_fbm(Grid(16), SeedPolicy(0, 0))
        sampler._circulant_sqrt_eigs.cache_clear()

    def test_roundoff_negatives_are_clamped(self):
        # the true fGn embedding is clean for every size used here
        from fbmlab.sampler import _circulant_sqrt_eigs

        for m in (1, 2, 3, 64, 1000):
            eigs = _circulant_sqrt_eigs(m, m)[0] ** 2
            assert eigs.min() >= 0.0
