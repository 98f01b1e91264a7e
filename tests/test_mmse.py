"""Tests for fading, covariance assembly and the MMSE SIR kernel.

The SIR path is checked against an explicit filter-application oracle
(compute w = R^{-1} g_t, run the filter over signal and every interferer
stream, take the power ratio) with a frozen seeded value.
"""

import math

import numpy as np
import pytest

from mmsenet.mmse import (
    CONDITION_CAP,
    EmpiricalDistribution,
    SingularCovariance,
    draw_fading,
    edf,
    interference_covariance,
    ks_distance,
    min_eigenvalue,
    mmse_sir,
    quadratic_forms,
    scaled_received_powers,
    sir_samples,
)


def filter_oracle_sir(g_t, interferers, weights, r_t, alpha):
    """SIR via explicit MMSE filter application, stream by stream."""
    cov = (interferers * weights) @ interferers.conj().T
    w = np.linalg.solve(cov, g_t)
    signal = r_t ** -alpha * abs(np.vdot(w, g_t)) ** 2
    residual = sum(
        weights[i] * abs(np.vdot(w, interferers[:, i])) ** 2
        for i in range(interferers.shape[1])
    )
    return signal / residual


class TestDrawFading:
    def test_determinism(self):
        a = draw_fading(4, 10, 42)
        b = draw_fading(4, 10, 42)
        assert np.array_equal(a.g_t, b.g_t)
        assert np.array_equal(a.interferers, b.interferers)

    def test_empty_matrix_valid(self):
        f = draw_fading(4, 0, 0)
        assert f.interferers.shape == (4, 0)
        assert f.g_t.shape == (4,)

    def test_unit_variance(self):
        f = draw_fading(100, 10_000, 7)
        power = np.abs(f.interferers) ** 2
        assert power.mean() == pytest.approx(1.0, abs=0.01)
        assert (np.abs(f.g_t) ** 2).mean() == pytest.approx(1.0, abs=0.2)

    def test_circular_symmetry(self):
        f = draw_fading(64, 2000, 8)
        z = f.interferers.ravel()
        assert abs(z.mean()) < 0.01
        assert abs((z * z).mean()) < 0.01  # pseudo-variance of a proper complex law


class TestCovariance:
    def test_single_interferer_rank_one(self):
        f = draw_fading(4, 1, 3)
        cov = interference_covariance(f.interferers, np.array([2.5]))
        g = f.interferers[:, 0]
        assert np.allclose(cov, 2.5 * np.outer(g, g.conj()))
        assert np.linalg.matrix_rank(cov) == 1

    def test_zero_weights_zero_matrix(self):
        f = draw_fading(4, 6, 3)
        cov = interference_covariance(f.interferers, np.zeros(6))
        assert np.all(cov == 0.0)

    def test_trace_identity(self):
        f = draw_fading(5, 20, 9)
        w = np.random.default_rng(1).random(20)
        cov = interference_covariance(f.interferers, w)
        want = np.sum(w * np.sum(np.abs(f.interferers) ** 2, axis=0))
        assert np.trace(cov).real == pytest.approx(want, rel=1e-12)

    def test_hermitian(self):
        f = draw_fading(6, 30, 10)
        cov = interference_covariance(f.interferers, np.ones(30))
        assert np.allclose(cov, cov.conj().T)

    @pytest.mark.parametrize("k", [0, 1, 1500])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_matches_einsum_oracle(self, n, k):
        f = draw_fading(n, k, 100 * n + k)
        # received powers r^-4 over a wide range of distances
        weights = np.random.default_rng(k).uniform(1.0, 30.0, k) ** -4.0
        cov = interference_covariance(f.interferers, weights)
        ref = np.einsum("ik,k,jk->ij", f.interferers, weights, f.interferers.conj())
        assert cov.shape == (n, n)
        if k == 0:
            assert np.all(cov == 0.0)
        else:
            assert np.abs(cov - ref).max() <= 1e-12 * np.abs(ref).max()
        # exactly Hermitian, with a real diagonal
        assert np.array_equal(cov, cov.conj().T)
        assert np.all(cov.diagonal().imag == 0.0)


class TestMmseSir:
    def test_scalar_case(self):
        # N=1, one interferer: sir = r^-a |g_t|^2 / (w |g_1|^2)
        f = draw_fading(1, 1, 5)
        w = np.array([0.7])
        cov = interference_covariance(f.interferers, w)
        s = mmse_sir(f.g_t, cov, 2.0, 4.0)
        want = 2.0 ** -4.0 * abs(f.g_t[0]) ** 2 / (0.7 * abs(f.interferers[0, 0]) ** 2)
        assert s.sir == pytest.approx(want, rel=1e-12)

    def test_weight_scaling_homogeneity(self):
        f = draw_fading(4, 8, 6)
        w = np.random.default_rng(2).random(8) + 0.1
        s1 = mmse_sir(f.g_t, interference_covariance(f.interferers, w), 2.0, 4.0)
        s2 = mmse_sir(f.g_t, interference_covariance(f.interferers, 3.0 * w), 2.0, 4.0)
        assert s2.sir == pytest.approx(s1.sir / 3.0, rel=1e-12)

    def test_frozen_filter_oracle_instance(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(314159)))
        N, k = 3, 5
        g_t = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
        G = (rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))) / math.sqrt(2)
        weights = rng.random(k) + 0.5
        cov = interference_covariance(G, weights)
        s = mmse_sir(g_t, cov, 2.0, 4.0)
        assert s.sir == pytest.approx(0.1673516159898483, rel=1e-10)
        assert s.sir == pytest.approx(
            filter_oracle_sir(g_t, G, weights, 2.0, 4.0), rel=1e-10
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_filter_oracle(self, seed):
        f = draw_fading(6, 18, seed)
        weights = np.random.default_rng(seed + 50).random(18) + 0.05
        cov = interference_covariance(f.interferers, weights)
        s = mmse_sir(f.g_t, cov, 3.0, 3.5)
        assert s.sir == pytest.approx(
            filter_oracle_sir(f.g_t, f.interferers, weights, 3.0, 3.5), rel=1e-9
        )

    def test_beta_normalization_roundtrip(self):
        f = draw_fading(8, 40, 11)
        cov = interference_covariance(f.interferers, np.ones(40))
        s = mmse_sir(f.g_t, cov, 5.0, 4.0)
        assert s.beta_n == pytest.approx(8 ** -2.0 * 5.0 ** 4.0 * s.sir, rel=1e-14)
        assert s.rate == pytest.approx(math.log2(1 + s.sir), rel=1e-14)
        # reconstructing sir from beta_n round-trips
        assert 8 ** 2.0 * 5.0 ** -4.0 * s.beta_n == pytest.approx(s.sir, rel=1e-12)

    def test_signal_weight(self):
        f = draw_fading(4, 12, 12)
        cov = interference_covariance(f.interferers, np.ones(12))
        plain = mmse_sir(f.g_t, cov, 2.0, 4.0)
        boosted = mmse_sir(f.g_t, cov, 2.0, 4.0, signal_weight=2.0 ** 4.0)
        assert boosted.sir == pytest.approx(2.0 ** 4.0 * plain.sir, rel=1e-12)

    def test_adding_interferer_never_raises_sir(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            f = draw_fading(5, 16, trial)
            w = rng.random(16) + 0.02
            base = mmse_sir(f.g_t, interference_covariance(f.interferers[:, :-1], w[:-1]), 2.0, 4.0)
            more = mmse_sir(f.g_t, interference_covariance(f.interferers, w), 2.0, 4.0)
            assert more.sir <= base.sir * (1 + 1e-12)

    def test_unitary_invariance(self):
        f = draw_fading(6, 20, 14)
        w = np.random.default_rng(3).random(20) + 0.1
        q, _ = np.linalg.qr(
            np.random.default_rng(4).standard_normal((6, 6))
            + 1j * np.random.default_rng(5).standard_normal((6, 6))
        )
        s1 = mmse_sir(f.g_t, interference_covariance(f.interferers, w), 2.0, 4.0)
        s2 = mmse_sir(q @ f.g_t, interference_covariance(q @ f.interferers, w), 2.0, 4.0)
        assert s2.sir == pytest.approx(s1.sir, rel=1e-10)

    def test_positive_real_sir(self):
        for seed in range(10):
            f = draw_fading(4, 12, seed + 200)
            cov = interference_covariance(f.interferers, np.ones(12))
            quad = np.vdot(f.g_t, np.linalg.solve(cov, f.g_t))
            assert abs(quad.imag) <= 1e-8 * quad.real
            assert mmse_sir(f.g_t, cov, 2.0, 4.0).sir > 0

    def test_rank_deficient_raises(self):
        f = draw_fading(6, 3, 15)  # fewer interferers than branches
        cov = interference_covariance(f.interferers, np.ones(3))
        with pytest.raises(SingularCovariance):
            mmse_sir(f.g_t, cov, 2.0, 4.0)

    def test_ill_conditioned_raises(self):
        f = draw_fading(4, 8, 16)
        w = np.ones(8)
        cov = interference_covariance(f.interferers, w) + 1e-14 * np.eye(4)
        cov[0, 0] += 1e6  # condition blow-up
        evals = np.linalg.eigvalsh(cov)
        if evals[-1] / evals[0] > 1e12:
            with pytest.raises(SingularCovariance):
                mmse_sir(f.g_t, cov, 2.0, 4.0)


class TestStackedKernel:
    """sir_samples / quadratic_forms over (B, N) channels and (B, N, N)
    covariances, against mmse_sir one matrix at a time."""

    def stack(self, n, count, b, seed):
        g_t = np.empty((b, n), dtype=complex)
        cov = np.empty((b, n, n), dtype=complex)
        for i in range(b):
            f = draw_fading(n, count, seed + i)
            w = np.random.default_rng(seed + i).uniform(1.0, 30.0, count) ** -4.0
            g_t[i] = f.g_t
            cov[i] = interference_covariance(f.interferers, w)
        return g_t, cov

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_rows_equal_mmse_sir(self, n):
        g_t, cov = self.stack(n, 3 * n, 9, 300)
        # member 4 gets fewer interferers than branches: singular
        f = draw_fading(n, n - 1, 77)
        cov[4] = interference_covariance(f.interferers, np.ones(n - 1))
        counts = list(range(9))
        stacked = sir_samples(g_t, cov, 2.0, 4.0, counts, signal_weight=3.0)
        for i in range(9):
            try:
                want = mmse_sir(g_t[i], cov[i], 2.0, 4.0, signal_weight=3.0, active_count=i)
            except SingularCovariance:
                want = None
            assert stacked[i] == want
        assert stacked[4] is None
        assert sum(s is None for s in stacked) == 1

    def test_matches_dense_solve(self):
        g_t, cov = self.stack(6, 40, 12, 500)
        quad = quadratic_forms(g_t, cov)
        for i in range(12):
            want = np.vdot(g_t[i], np.linalg.solve(cov[i], g_t[i])).real
            assert quad[i] == pytest.approx(want, rel=1e-12)

    def test_condition_cap_boundary(self):
        # diagonal covariances have exact eigenvalues: a ratio of exactly
        # CONDITION_CAP is usable, one ulp above is not; rotated covariances
        # 10% either side of the cap decide the same way as the per-matrix
        # test did
        q, _ = np.linalg.qr(
            np.random.default_rng(3).standard_normal((4, 4))
            + 1j * np.random.default_rng(4).standard_normal((4, 4))
        )
        mats = [
            np.diag([CONDITION_CAP, 1.0, 2.0, 1.0]),
            np.diag([np.nextafter(CONDITION_CAP, np.inf), 1.0, 2.0, 1.0]),
            np.diag([1.0, 0.0, 1.0, 1.0]),
            np.diag([1.0, -1e-3, 1.0, 1.0]),
        ]
        for cond in (0.9 * CONDITION_CAP, 1.1 * CONDITION_CAP):
            m = q @ np.diag([cond, 1.0, 3.0, 10.0]) @ q.conj().T
            mats.append(0.5 * (m + m.conj().T))
        cov = np.stack(mats).astype(complex)
        g_t = np.ones((len(mats), 4), dtype=complex)
        usable = ~np.isnan(quadratic_forms(g_t, cov))
        want = []
        for m in cov:
            evals = np.linalg.eigvalsh(m)
            want.append(not (evals[0] <= 0.0 or evals[-1] / evals[0] > CONDITION_CAP))
        assert usable.tolist() == want == [True, False, False, False, True, False]

    def test_failed_factorization_marks_only_its_member(self, monkeypatch):
        g_t, cov = self.stack(4, 12, 5, 700)
        want = quadratic_forms(g_t, cov)
        cholesky = np.linalg.cholesky

        def refuse_member_2(a):
            if any(np.array_equal(m, cov[2]) for m in a):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_member_2)
        got = quadratic_forms(g_t, cov)
        assert np.isnan(got[2])
        assert np.array_equal(np.delete(got, 2), np.delete(want, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="stack shapes"):
            quadratic_forms(np.ones((2, 3)), np.ones((2, 4, 4)))
        with pytest.raises(ValueError, match="stack shapes"):
            quadratic_forms(np.ones(3), np.eye(3))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(5)) == pytest.approx(1.0, abs=1e-14)

    def test_rank_deficient_zero(self):
        f = draw_fading(6, 3, 17)
        cov = interference_covariance(f.interferers, np.ones(3))
        assert min_eigenvalue(cov) == pytest.approx(0.0, abs=1e-10)

    def test_non_hermitian_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            min_eigenvalue(m)

    def test_known_spectrum(self):
        m = np.diag([3.0, 0.25, 7.0])
        assert min_eigenvalue(m) == 0.25


class TestEdf:
    def test_single_value_step(self):
        F = edf(np.full(10, 2.5))
        assert F(2.4999) == 0.0
        assert F(2.5) == 1.0
        assert F(1e18) == 1.0

    def test_normalization_and_vectorization(self):
        F = edf([1.0, 2.0, 3.0, 4.0])
        out = F(np.array([0.5, 2.0, 10.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            edf([])

    def test_atom_at_zero(self):
        F = edf([0.0, 0.0, 1.0, 2.0])
        assert F(-1e-300) == 0.0
        assert F.atom_at_zero() == 0.5
        assert F(0.0) == 0.5

    def test_ks_distance(self):
        F = edf([1.0, 2.0])
        H = lambda x: np.clip(np.asarray(x, float) / 2.0, 0.0, 1.0)
        grid = np.array([0.5, 1.0, 1.5, 2.0])
        # |F-H| at grid: |0-.25|, |.5-.5|, |.5-.75|, |1-1|
        assert ks_distance(F, H, grid) == pytest.approx(0.25)

    def test_scaled_powers_zeros_for_muted(self):
        pos = np.array([[3.0, 4.0], [1.0, 0.0]])
        w = np.array([0.0, 2.0])
        p = scaled_received_powers(pos, w, 4, 4.0)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(4.0 ** 2.0 * 2.0, rel=1e-12)

    def test_edf_approaches_limit_with_network_size(self):
        # all-active network: KS distance to the limiting law shrinks as the
        # network (and with it n) grows at fixed c
        import math

        from mmsenet.asymptotics import AsymptoticParams, limiting_edf
        from mmsenet.montecarlo import derive_seed, realize_scaled_powers
        from mmsenet.pointproc import ModelSpec, NetworkConfig

        params = AsymptoticParams(rho_p=0.01, c=50.0, alpha=4.0, nu=1.0)
        x0 = params.support_point
        grid = np.geomspace(x0 / 10.0, 1e3 * x0, 512)
        ref = lambda x: limiting_edf(x, params)
        ks = []
        for n_branches in (4, 16, 64):
            cfg = NetworkConfig(
                rho_p=0.01, alpha=4.0, n_branches=n_branches, c=50.0,
                r_t=math.sqrt(1.0 / (math.pi * 0.01)), model=ModelSpec("independent"),
            )
            powers = realize_scaled_powers(cfg, (derive_seed(2, 0, s) for s in range(20)))
            vals = [ks_distance(edf(p), ref, grid) for p in powers]
            ks.append(float(np.mean(vals)))
        assert ks[0] > ks[1] > ks[2]
