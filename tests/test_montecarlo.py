"""Tests for the replication engine: seeding, aggregation, reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from mmsenet import mmse, montecarlo, pointproc
from mmsenet.montecarlo import (
    BLOCK_SIZE,
    ExperimentSpec,
    RealizationFailed,
    aip_statistic,
    density_estimate,
    derive_seed,
    predicted_rate,
    realize_scaled_powers,
    run_experiment,
    run_realization,
    summarize,
)
from mmsenet.pointproc import ModelSpec, NetworkConfig

RHO_P = 0.01
R_T = math.sqrt(1.0 / (math.pi * RHO_P))


def config(model, n_branches=4, c=50.0, alpha=4.0):
    return NetworkConfig(
        rho_p=RHO_P, alpha=alpha, n_branches=n_branches, c=c, r_t=R_T, model=model
    )


class TestSummarize:
    def test_constant_sample(self):
        s = summarize([2.0, 2.0, 2.0])
        assert (s.mean, s.std, s.count) == (2.0, 0.0, 3)

    def test_two_values(self):
        s = summarize([1.0, 3.0])
        assert s.mean == 2.0
        assert s.std == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert s.sem == pytest.approx(1.0, rel=1e-12)

    def test_single_value_null_std(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.std is None
        assert s.sem is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestRunRealization:
    def test_scalar_pipeline_case(self):
        # N=1, two nodes, both active: sir reproduces the scalar formula
        # r_T^-a |g_T|^2 / sum_i r_i^-a |g_i|^2, re-derived from the same streams
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=1, c=2.0, r_t=R_T,
            model=ModelSpec("independent"),
        )
        seed = derive_seed(5, 0, 0)
        s = run_realization(cfg, seed)
        assert s.active_count == 2

        from mmsenet.mmse import draw_fading
        from mmsenet.pointproc import realize

        # attempt 0 of replication (0, 0): spawn key (0, 0, 0)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=5, spawn_key=(0, 0, 0)))
        )
        real = realize(cfg, rng)
        fading = draw_fading(1, 2, rng)
        r = real.radii()
        want = (
            R_T ** -4.0 * abs(fading.g_t[0]) ** 2
            / sum(r[i] ** -4.0 * abs(fading.interferers[0, i]) ** 2 for i in range(2))
        )
        assert s.sir == pytest.approx(want, rel=1e-12)
        assert s.rate == pytest.approx(math.log2(1 + s.sir), rel=1e-14)
        assert s.beta_n == pytest.approx(R_T ** 4 * s.sir, rel=1e-12)

    def test_determinism(self):
        cfg = config(ModelSpec("hc2", h=0.5 * R_T))
        a = run_realization(cfg, derive_seed(7, 1, 2))
        b = run_realization(cfg, derive_seed(7, 1, 2))
        assert a == b

    def test_integer_seed(self):
        cfg = config(ModelSpec("hc2", h=0.5 * R_T))
        assert run_realization(cfg, 5) == run_realization(cfg, np.random.SeedSequence(5))

    def test_distinct_replications_differ(self):
        cfg = config(ModelSpec("hc2", h=0.5 * R_T))
        a = run_realization(cfg, derive_seed(7, 1, 2))
        b = run_realization(cfg, derive_seed(7, 1, 3))
        assert a.sir != b.sir

    def test_redraws_when_active_set_small(self):
        # c * nu barely above 1 with a lumpy activation: realizations with
        # fewer active nodes than branches must be redrawn, not loaded
        h = math.sqrt(0.14 / (math.pi * RHO_P))  # coverage ~13%
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=16, c=10.0, r_t=R_T,
            model=ModelSpec("boolean", h=h, rho_b=RHO_P),
        )
        redraws = 0
        for rep in range(40):
            try:
                s = run_realization(cfg, derive_seed(11, 0, rep))
                redraws += s.redraw_count
            except RealizationFailed:
                redraws += 1
        assert redraws > 0

    def test_power_controlled_signal_weight(self):
        # at the cell edge the received signal power is 1, so sir equals the
        # quadratic form without the r_T^-alpha factor
        rho_c = 0.001
        d = math.sqrt(2.0 / (math.sqrt(3.0) * rho_c))
        r_edge = d / math.sqrt(3.0)
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=8, c=200.0, r_t=r_edge,
            model=ModelSpec("cellular", rho_c=rho_c, kappa=3, power_control=True),
        )
        cfg_plain = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=8, c=200.0, r_t=r_edge,
            model=ModelSpec("cellular", rho_c=rho_c, kappa=3, power_control=False),
        )
        pc = summarize(
            run_realization(cfg, derive_seed(3, 0, r)).rate for r in range(60)
        )
        plain = summarize(
            run_realization(cfg_plain, derive_seed(3, 0, r)).rate for r in range(60)
        )
        assert pc.mean > plain.mean


class TestRunExperiment:
    def test_replications_one_equals_single_sample(self):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T))
        spec = ExperimentSpec(base=cfg, n_values=(4,), replications=1, master_seed=21)
        rep = run_experiment(spec)
        single = run_realization(cfg, derive_seed(21, 0, 0))
        assert rep.points[0].rate.mean == single.rate
        assert rep.points[0].rate.std is None

    def test_reproducible_and_thread_invariant(self):
        cfg = config(ModelSpec("boolean", h=R_T, rho_b=RHO_P))
        spec = ExperimentSpec(base=cfg, n_values=(2, 4), replications=20, master_seed=33)
        r1 = run_experiment(spec, workers=1)
        r2 = run_experiment(spec, workers=3)
        for a, b in zip(r1.points, r2.points):
            assert a.rate.mean == b.rate.mean
            assert a.rate.std == b.rate.std
            assert a.empirical_density == b.empirical_density

    @pytest.mark.parametrize("replications,pool_workers", [(BLOCK_SIZE, None), (3, None),
                                                           (2 * BLOCK_SIZE + 1, 3)])
    def test_no_more_workers_than_blocks(self, monkeypatch, replications, pool_workers):
        # the pool forks every worker at its first submit, so its size is
        # recorded by a stand-in that runs the blocks in this process
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cfg = config(ModelSpec("hc1", h=0.5 * R_T))
        spec = ExperimentSpec(base=cfg, n_values=(2,), replications=replications,
                              master_seed=9)
        serial = run_experiment(spec, workers=1).points
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Recorder)
        assert run_experiment(spec, workers=64).points == serial
        assert started == ([] if pool_workers is None else [pool_workers])

    def test_variant_expansion_order(self):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T))
        spec = ExperimentSpec(
            base=cfg,
            n_values=(2, 4),
            replications=2,
            master_seed=1,
            variants=(ModelSpec("hc1", h=0.5 * R_T), ModelSpec("hc1", h=1.0 * R_T)),
        )
        rep = run_experiment(spec)
        labels = [(p.config.model.h, p.config.n_branches) for p in rep.points]
        assert labels == [
            (0.5 * R_T, 2), (0.5 * R_T, 4), (1.0 * R_T, 2), (1.0 * R_T, 4)
        ]

    def test_point_stats_consistency(self):
        cfg = config(ModelSpec("hc2", h=0.5 * R_T))
        spec = ExperimentSpec(base=cfg, n_values=(4,), replications=25, master_seed=9)
        rep = run_experiment(spec)
        p = rep.points[0]
        rates = [
            run_realization(p.config, derive_seed(9, 0, r)).rate for r in range(25)
        ]
        assert p.rate.mean == pytest.approx(float(np.mean(rates)), rel=1e-14)
        assert p.rate.std == pytest.approx(float(np.std(rates, ddof=1)), rel=1e-12)
        assert p.rel_gap == pytest.approx(
            abs(p.rate.mean - p.asymptote_rate) / p.asymptote_rate, rel=1e-12
        )

    def test_prediction_policy(self):
        hc = config(ModelSpec("hc1", h=0.5 * R_T), n_branches=8)
        assert predicted_rate(hc) == pytest.approx(
            math.log2(1 + (8 * 4 / (2 * math.pi ** 2 * hc.predicted_density() * R_T ** 2)) ** 2),
            rel=1e-12,
        )

    def test_failed_point_flagged_others_run(self):
        # a model that never activates anyone cannot produce an invertible
        # covariance: the point is flagged, the healthy variant still runs
        dead = ModelSpec("boolean", h=0.0, rho_b=RHO_P)
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=2, c=2.0, r_t=R_T, model=dead,
        )
        spec = ExperimentSpec(
            base=cfg, n_values=(2,), replications=2, master_seed=3,
            variants=(dead, ModelSpec("boolean", h=5 * R_T, rho_b=RHO_P)),
        )
        rep = run_experiment(spec)
        assert rep.points[0].failed
        assert rep.points[0].rate is None
        assert not rep.points[1].failed
        assert rep.points[1].rate.mean > 0

    def test_rate_std_non_increasing_in_n(self):
        # convergence-in-probability probe: scatter shrinks along the sweep
        cfg = config(ModelSpec("boolean", h=R_T, rho_b=RHO_P))
        spec = ExperimentSpec(
            base=cfg, n_values=(4, 8, 16), replications=150, master_seed=12
        )
        rep = run_experiment(spec, workers=2)
        stds = [p.rate.std for p in rep.points]
        assert stds[0] > stds[1] > stds[2]


class TestDensityEstimate:
    def test_independent_model_matches_rho_p(self):
        cfg = config(ModelSpec("independent"), n_branches=8)
        est = density_estimate(cfg, 10, 4)
        # every node active: density = n / (pi R^2), off rho_p only by rounding
        assert est == pytest.approx(RHO_P, rel=1e-6)

    def test_hc1_matches_closed_form(self):
        cfg = config(ModelSpec("hc1", h=1.0 * R_T), n_branches=32)
        est = density_estimate(cfg, 150, 4)
        target = cfg.predicted_density()
        nu = cfg.nu_expected
        sigma = math.sqrt(cfg.n_nodes * nu * (1 - nu) / 150) / (math.pi * cfg.radius ** 2)
        assert abs(est - target) < 3 * sigma + 0.01 * target


class TestAipStatistic:
    def test_dependence_shrinks_with_network_size(self):
        h = 0.5 * R_T
        base = config(ModelSpec("hc1", h=h), n_branches=4, c=50.0)
        (p0,) = realize_scaled_powers(base, [derive_seed(0, 0, 0)])
        x = float(np.median(p0[p0 > 0]))
        small = aip_statistic(base, x, 80, 17)
        big = aip_statistic(config(ModelSpec("hc1", h=h), n_branches=16, c=50.0), x, 80, 17)
        assert big < small

    def test_scaled_powers_support(self):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T), n_branches=8)
        (p,) = realize_scaled_powers(cfg, [derive_seed(1, 0, 0)])
        x0 = (math.pi * RHO_P / 50.0) ** 2.0
        active = p[p > 0]
        assert active.min() >= x0 * (1 - 1e-9)
        assert p.size == cfg.n_nodes

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_seeds", [0, 1])
    def test_fewer_than_two_seeds_rejected(self, n_seeds):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T))
        with pytest.raises(ValueError, match="n_seeds"):
            aip_statistic(cfg, 1.0, n_seeds, 17)

    @pytest.mark.filterwarnings("error")
    def test_no_seeds_no_rows(self):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T))
        assert realize_scaled_powers(cfg, iter(())).shape == (0, cfg.n_nodes)


class TestScaledPowers:
    """realize_scaled_powers row by row: N^{alpha/2} w_i r_i^-alpha per node."""

    @pytest.mark.parametrize("model", [
        ModelSpec("independent"),
        ModelSpec("cellular", rho_c=0.001, kappa=3, power_control=True),
    ], ids=["independent", "cellular_pc"])
    def test_power_law_and_normalization(self, model):
        # p_i r_i^alpha / N^{alpha/2} gives back the transmit weight: 1 for
        # unit power (so one distance, one power value), r_b^alpha under
        # power control, 0 for a muted node
        for n_branches in (1, 4, 9):
            cfg = config(model, n_branches=n_branches, c=200.0, alpha=3.0)
            seed = derive_seed(3, 0, 0)
            (p,) = realize_scaled_powers(cfg, [seed])
            r = pointproc.realize(cfg, seed)
            weight = p * r.radii() ** cfg.alpha / n_branches ** (cfg.alpha / 2.0)
            np.testing.assert_allclose(weight, r.power_weight, rtol=1e-13, atol=0.0)

    def test_muted_nodes_are_an_atom_at_zero(self):
        # every muted node contributes an exact 0, and only they do: the
        # empirical distribution jumps at 0 by the muted fraction
        cfg = config(ModelSpec("hc1", h=0.5 * R_T), n_branches=4, c=200.0)
        seeds = [derive_seed(3, 0, s) for s in range(3)]
        for p, seed in zip(realize_scaled_powers(cfg, seeds), seeds):
            muted = ~pointproc.realize(cfg, seed).active
            assert 0 < np.count_nonzero(muted) < p.size
            assert p[muted].tobytes() == bytes(8 * np.count_nonzero(muted))
            assert np.all(p[~muted] > 0.0)
            edf = np.searchsorted(np.sort(p), [-1e-300, 0.0], side="right") / p.size
            assert edf.tolist() == [0.0, np.count_nonzero(muted) / p.size]


class TestEstimatorPasses:
    """density_estimate, realize_scaled_powers and aip_statistic equal a
    per-seed realize loop bit for bit, however their replications are split
    into stacked passes."""

    MODELS = {
        "independent": ModelSpec("independent"),
        "hc1": ModelSpec("hc1", h=0.5 * R_T),
        "hc2": ModelSpec("hc2", h=R_T),
        "cellular": ModelSpec("cellular", rho_c=0.001, kappa=3),
        "cellular_pc": ModelSpec("cellular", rho_c=0.001, kappa=3, power_control=True),
        "boolean": ModelSpec("boolean", h=R_T, rho_b=RHO_P),
    }
    REPS = 23
    SEED = 8

    def prepare(self, model, members, monkeypatch):
        # a node budget of `members` members per pass (0: one member, below
        # the size of any network)
        cfg = config(self.MODELS[model], n_branches=4, c=200.0)
        monkeypatch.setattr(pointproc, "_NODE_BUDGET", members * (cfg.n_nodes + cfg.n_clusters))
        singles = [pointproc.realize(cfg, derive_seed(self.SEED, 0, r)) for r in range(self.REPS)]
        return cfg, singles

    @staticmethod
    def received(r, alpha):
        # a realization's received powers w_i r_i^-alpha, active node by node
        return r.power_weight[r.active] * r.radii()[r.active] ** -alpha

    def scaled_row(self, cfg, r):
        row = np.zeros(cfg.n_nodes)
        row[r.active] = float(cfg.n_branches) ** (cfg.alpha / 2.0) * self.received(r, cfg.alpha)
        return row

    @pytest.mark.parametrize("members", [0, 7, REPS])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_pass_fields(self, model, members, monkeypatch):
        # the two fields a pass yields: each member's activation and its
        # share of the active nodes' received powers
        cfg, singles = self.prepare(model, members, monkeypatch)
        seeds = (derive_seed(self.SEED, 0, r) for r in range(self.REPS))
        passes = list(pointproc.realize_passes(cfg, seeds))
        assert len(passes) == math.ceil(self.REPS / max(1, members))
        assert {len(fields) for fields in passes} == {2}
        active, received = (np.concatenate(field) for field in zip(*passes))
        assert active.tobytes() == np.stack([r.active for r in singles]).tobytes()
        want = np.concatenate([self.received(r, cfg.alpha) for r in singles])
        assert received.tobytes() == want.tobytes()

    @pytest.mark.parametrize("members", [0, 7, REPS])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_density_estimate(self, model, members, monkeypatch):
        cfg, singles = self.prepare(model, members, monkeypatch)
        want = float(np.mean([r.active_count for r in singles])) / (math.pi * cfg.radius ** 2)
        assert density_estimate(cfg, self.REPS, self.SEED) == want

    @pytest.mark.parametrize("members", [0, 7, REPS])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_realize_scaled_powers(self, model, members, monkeypatch):
        cfg, singles = self.prepare(model, members, monkeypatch)
        got = realize_scaled_powers(cfg, (derive_seed(self.SEED, 0, r) for r in range(self.REPS)))
        assert got.shape == (self.REPS, cfg.n_nodes)
        scale = float(cfg.n_branches) ** (cfg.alpha / 2.0)
        for row, r in zip(got, singles):
            assert row.tobytes() == self.scaled_row(cfg, r).tobytes()
            if not cfg.model.power_control:
                # with w = 1 the grouping of the product is immaterial:
                # (scale w) r^-alpha over every node gives the same bytes
                want = scale * r.power_weight * r.radii() ** -cfg.alpha
                assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("members", [0, 7, REPS])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_aip_statistic(self, model, members, monkeypatch):
        cfg, singles = self.prepare(model, members, monkeypatch)
        powers = [self.scaled_row(cfg, r) for r in singles]
        x = float(np.median(powers[0][powers[0] > 0]))
        want = float(np.var([np.count_nonzero(p <= x) / p.size for p in powers], ddof=1))
        assert want > 0
        assert aip_statistic(cfg, x, self.REPS, self.SEED) == want


class TestGoldenSamplePath:
    """Pinned (sir, redraw_count, active_count) per seed and model.

    Exact float equality: a change that moves any of these moved the sample
    path, and must update the values on purpose and say so in CHANGES.md.
    The sir values also carry the rounding of the BLAS rank-k covariance
    update and of the batched LAPACK solve.
    """

    H_SPARSE = math.sqrt(0.14 / (math.pi * RHO_P))  # Boolean coverage ~13%
    MODELS = {
        "independent": (ModelSpec("independent"), 4, 50.0),
        "hc1": (ModelSpec("hc1", h=0.5 * R_T), 4, 50.0),
        "hc2": (ModelSpec("hc2", h=0.5 * R_T), 4, 50.0),
        "boolean": (ModelSpec("boolean", h=R_T, rho_b=RHO_P), 4, 50.0),
        "cellular_k1": (ModelSpec("cellular", rho_c=0.001, kappa=1), 4, 200.0),
        "cellular_k3": (ModelSpec("cellular", rho_c=0.001, kappa=3), 4, 200.0),
        "cellular_k4": (ModelSpec("cellular", rho_c=0.001, kappa=4), 4, 200.0),
        "cellular_k7": (ModelSpec("cellular", rho_c=0.001, kappa=7), 4, 200.0),
        "cellular_pc": (
            ModelSpec("cellular", rho_c=0.001, kappa=3, power_control=True), 4, 200.0
        ),
        # c * nu barely above 1: these seeds redraw singular realizations
        "boolean_redraw": (ModelSpec("boolean", h=H_SPARSE, rho_b=RHO_P), 16, 10.0),
    }
    # (model, master_seed, replication) -> (sir, redraw_count, active_count)
    GOLDEN = {
        ("independent", 2013, 0): (8.807924460513572, 0, 200),
        ("independent", 2013, 1): (3.9428441171279176, 0, 200),
        ("independent", 2013, 2): (5.734404059608519, 0, 200),
        ("hc1", 2013, 0): (11.513033085017366, 0, 162),
        ("hc1", 2013, 1): (7.1024949834799465, 0, 150),
        ("hc1", 2013, 2): (9.109876390822745, 0, 160),
        ("hc2", 2013, 0): (36.520817484739126, 0, 180),
        ("hc2", 2013, 1): (2.261343869710389, 0, 173),
        ("hc2", 2013, 2): (9.758720443380916, 0, 179),
        ("boolean", 2013, 0): (4.430504622664146, 0, 129),
        ("boolean", 2013, 1): (33.07919380525805, 0, 130),
        ("boolean", 2013, 2): (58.7160031504496, 0, 125),
        ("cellular_k1", 2013, 0): (1026.5592651578063, 0, 88),
        ("cellular_k1", 2013, 1): (1291.3366025970197, 0, 89),
        ("cellular_k1", 2013, 2): (2285.599851745378, 0, 90),
        ("cellular_k3", 2013, 0): (8750.931351843483, 0, 30),
        ("cellular_k3", 2013, 1): (10221.621377238722, 0, 31),
        ("cellular_k3", 2013, 2): (8996.71243062599, 0, 30),
        ("cellular_k4", 2013, 0): (8587.223494533508, 0, 18),
        ("cellular_k4", 2013, 1): (25141.671343709728, 0, 18),
        ("cellular_k4", 2013, 2): (15679.214290181957, 0, 18),
        ("cellular_k7", 2013, 0): (84086.43700795248, 0, 12),
        ("cellular_k7", 2013, 1): (102241.1650712287, 0, 12),
        ("cellular_k7", 2013, 2): (84987.96236506873, 0, 12),
        ("cellular_pc", 2013, 0): (276.0413919968424, 0, 30),
        ("cellular_pc", 2013, 1): (335.20283019560856, 0, 31),
        ("cellular_pc", 2013, 2): (893.0894684938222, 0, 30),
        ("boolean_redraw", 11, 13): (14297.423760169888, 2, 24),
        ("boolean_redraw", 11, 16): (168440.53154571744, 1, 17),
        ("boolean_redraw", 11, 26): (8209.132564697928, 1, 21),
    }

    # the same cases with the covariance built as one complex BLAS product,
    # (G * w) @ G^H, then symmetrized, as before the real rank-k update;
    # only the sir rounding differs
    GOLDEN_ZGEMM = {
        ("independent", 2013, 0): (8.807924460513464, 0, 200),
        ("independent", 2013, 1): (3.942844117127902, 0, 200),
        ("independent", 2013, 2): (5.734404059608614, 0, 200),
        ("hc1", 2013, 0): (11.513033085015993, 0, 162),
        ("hc1", 2013, 1): (7.10249498347994, 0, 150),
        ("hc1", 2013, 2): (9.109876390822736, 0, 160),
        ("hc2", 2013, 0): (36.52081748474461, 0, 180),
        ("hc2", 2013, 1): (2.2613438697103803, 0, 173),
        ("hc2", 2013, 2): (9.758720443380923, 0, 179),
        ("boolean", 2013, 0): (4.430504622665751, 0, 129),
        ("boolean", 2013, 1): (33.07919380525798, 0, 130),
        ("boolean", 2013, 2): (58.716003150449566, 0, 125),
        ("cellular_k1", 2013, 0): (1026.559265157806, 0, 88),
        ("cellular_k1", 2013, 1): (1291.3366025970197, 0, 89),
        ("cellular_k1", 2013, 2): (2285.5998517453786, 0, 90),
        ("cellular_k3", 2013, 0): (8750.931351843486, 0, 30),
        ("cellular_k3", 2013, 1): (10221.621377238724, 0, 31),
        ("cellular_k3", 2013, 2): (8996.71243062599, 0, 30),
        ("cellular_k4", 2013, 0): (8587.223494533504, 0, 18),
        ("cellular_k4", 2013, 1): (25141.671343709724, 0, 18),
        ("cellular_k4", 2013, 2): (15679.214290181966, 0, 18),
        ("cellular_k7", 2013, 0): (84086.43700795245, 0, 12),
        ("cellular_k7", 2013, 1): (102241.16507122872, 0, 12),
        ("cellular_k7", 2013, 2): (84987.96236506873, 0, 12),
        ("cellular_pc", 2013, 0): (276.04139199684226, 0, 30),
        ("cellular_pc", 2013, 1): (335.20283019560816, 0, 31),
        ("cellular_pc", 2013, 2): (893.0894684938227, 0, 30),
        ("boolean_redraw", 11, 13): (14297.423760169977, 2, 24),
        ("boolean_redraw", 11, 16): (168440.53154571392, 1, 17),
        ("boolean_redraw", 11, 26): (8209.132564697778, 1, 21),
    }

    # the same cases with the GOLDEN_ZGEMM covariance, solved one matrix at a
    # time by scipy's cho_factor, cho_solve and vdot, as before the batched
    # kernel; only the sir rounding differs
    GOLDEN_CHOLESKY = {
        ("independent", 2013, 0): (8.807924460513469, 0, 200),
        ("independent", 2013, 1): (3.942844117127902, 0, 200),
        ("independent", 2013, 2): (5.734404059608613, 0, 200),
        ("hc1", 2013, 0): (11.513033085015993, 0, 162),
        ("hc1", 2013, 1): (7.102494983479937, 0, 150),
        ("hc1", 2013, 2): (9.109876390822741, 0, 160),
        ("hc2", 2013, 0): (36.52081748474461, 0, 180),
        ("hc2", 2013, 1): (2.26134386971038, 0, 173),
        ("hc2", 2013, 2): (9.758720443380923, 0, 179),
        ("boolean", 2013, 0): (4.43050462266575, 0, 129),
        ("boolean", 2013, 1): (33.07919380525798, 0, 130),
        ("boolean", 2013, 2): (58.716003150449566, 0, 125),
        ("cellular_k3", 2013, 0): (8750.931351843486, 0, 30),
        ("cellular_k3", 2013, 1): (10221.621377238724, 0, 31),
        ("cellular_k3", 2013, 2): (8996.712430625988, 0, 30),
        ("cellular_k7", 2013, 0): (84086.43700795245, 0, 12),
        ("cellular_k7", 2013, 1): (102241.16507122871, 0, 12),
        ("cellular_k7", 2013, 2): (84987.96236506874, 0, 12),
        ("cellular_pc", 2013, 0): (276.0413919968422, 0, 30),
        ("cellular_pc", 2013, 1): (335.2028301956081, 0, 31),
        ("cellular_pc", 2013, 2): (893.0894684938221, 0, 30),
        ("boolean_redraw", 11, 13): (14297.423760169973, 2, 24),
        ("boolean_redraw", 11, 16): (168440.5315457139, 1, 17),
        ("boolean_redraw", 11, 26): (8209.132564697775, 1, 21),
    }

    # the same cases with the covariance summed by np.einsum, as it was built
    # before the complex BLAS product, and solved as for GOLDEN_CHOLESKY;
    # only the sir rounding differs
    GOLDEN_EINSUM = {
        ("independent", 2013, 0): (8.807924460514956, 0, 200),
        ("independent", 2013, 1): (3.9428441171279056, 0, 200),
        ("independent", 2013, 2): (5.734404059608516, 0, 200),
        ("hc1", 2013, 0): (11.51303308501845, 0, 162),
        ("hc1", 2013, 1): (7.102494983479802, 0, 150),
        ("hc1", 2013, 2): (9.109876390822768, 0, 160),
        ("hc2", 2013, 0): (36.520817484709305, 0, 180),
        ("hc2", 2013, 1): (2.2613438697103967, 0, 173),
        ("hc2", 2013, 2): (9.758720443380907, 0, 179),
        ("boolean", 2013, 0): (4.430504622668217, 0, 129),
        ("boolean", 2013, 1): (33.07919380525779, 0, 130),
        ("boolean", 2013, 2): (58.71600315045034, 0, 125),
        ("cellular_k3", 2013, 0): (8750.931351843481, 0, 30),
        ("cellular_k3", 2013, 1): (10221.621377238727, 0, 31),
        ("cellular_k3", 2013, 2): (8996.712430625988, 0, 30),
        ("cellular_k7", 2013, 0): (84086.43700795241, 0, 12),
        ("cellular_k7", 2013, 1): (102241.16507122871, 0, 12),
        ("cellular_k7", 2013, 2): (84987.96236506873, 0, 12),
        ("cellular_pc", 2013, 0): (276.0413919968422, 0, 30),
        ("cellular_pc", 2013, 1): (335.20283019560856, 0, 31),
        ("cellular_pc", 2013, 2): (893.0894684938211, 0, 30),
        ("boolean_redraw", 11, 13): (14297.423760169744, 2, 24),
        ("boolean_redraw", 11, 16): (168440.5315457258, 1, 17),
        ("boolean_redraw", 11, 26): (8209.13256469719, 1, 21),
    }

    def sample(self, model, master_seed, rep):
        spec, n_branches, c = self.MODELS[model]
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=n_branches, c=c, r_t=R_T, model=spec
        )
        s = run_realization(cfg, derive_seed(master_seed, 0, rep))
        return s.sir, s.redraw_count, s.active_count

    @pytest.mark.parametrize("model,master_seed,rep", sorted(GOLDEN))
    def test_sample_path_pinned(self, model, master_seed, rep):
        assert self.sample(model, master_seed, rep) == self.GOLDEN[(model, master_seed, rep)]

    @pytest.mark.parametrize("model,master_seed,rep", sorted(GOLDEN))
    def test_public_stages_rebuild_the_sample(self, model, master_seed, rep):
        # realize, draw_fading, interference_covariance and mmse_sir, one
        # attempt at a time on the attempt's stream, give run_realization's
        # sample exactly: the per-stage path a traced replay times
        spec, n_branches, c = self.MODELS[model]
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=n_branches, c=c, r_t=R_T, model=spec
        )
        seed = derive_seed(master_seed, 0, rep)
        signal_weight = cfg.r_t ** cfg.alpha if spec.power_control else 1.0
        for attempt in range(montecarlo.MAX_REDRAWS + 1):
            rng = pointproc.as_generator(np.random.SeedSequence(
                entropy=seed.entropy, spawn_key=(*seed.spawn_key, attempt)))
            real = pointproc.realize(cfg, rng)
            act = real.active
            weights = real.power_weight[act] * real.radii()[act] ** -cfg.alpha
            fading = mmse.draw_fading(n_branches, int(act.sum()), rng)
            cov = mmse.interference_covariance(fading.interferers, weights)
            try:
                sample = mmse.mmse_sir(fading.g_t, cov, cfg.r_t, cfg.alpha,
                                       n_branches=n_branches, signal_weight=signal_weight,
                                       active_count=int(act.sum()))
            except mmse.SingularCovariance:
                continue
            break
        assert replace(sample, redraw_count=attempt) == run_realization(cfg, seed)

    @staticmethod
    def on_planes(build):
        # an older covariance build, fed the interferer matrix G whose planes
        # [Re G; Im G] the block hands to mmse._plane_covariance
        def plane_covariance(planes, weights):
            n = len(planes) // 2
            return build(mmse._complex(planes[:n], planes[n:]), weights)

        return plane_covariance

    @staticmethod
    def zgemm_covariance(interferers, weights):
        # the complex product and symmetrizing step before the rank-k update
        cov = (interferers * weights) @ interferers.conj().T
        return 0.5 * (cov + cov.conj().T)

    @pytest.mark.parametrize("model,master_seed,rep", sorted(GOLDEN_ZGEMM))
    def test_zgemm_covariance_reproduces_old_pins(self, model, master_seed, rep, monkeypatch):
        # with the covariance built by the complex product as before, the old
        # values come back exactly: the rank-k update changed nothing but
        # that rounding
        monkeypatch.setattr(mmse, "_plane_covariance", self.on_planes(self.zgemm_covariance))
        got = self.sample(model, master_seed, rep)
        assert got == self.GOLDEN_ZGEMM[(model, master_seed, rep)]

    def test_rank_k_update_moved_pins_by_rounding_only(self):
        assert self.GOLDEN.keys() == self.GOLDEN_ZGEMM.keys()
        for key, (sir, redraws, active) in self.GOLDEN.items():
            old_sir, old_redraws, old_active = self.GOLDEN_ZGEMM[key]
            assert (redraws, active) == (old_redraws, old_active)
            assert sir == pytest.approx(old_sir, rel=1e-12, abs=0.0)

    @staticmethod
    def scipy_cholesky_forms(g_t, cov):
        # the per-matrix solve before the batched kernel, same redraw test
        quad = np.full(len(g_t), np.nan)
        for i, (g, r) in enumerate(zip(g_t, cov)):
            evals = np.linalg.eigvalsh(r)
            if evals[0] <= 0.0 or evals[-1] / evals[0] > mmse.CONDITION_CAP:
                continue
            quad[i] = np.vdot(g, linalg.cho_solve(linalg.cho_factor(r, lower=True), g)).real
        return quad

    @pytest.mark.parametrize("model,master_seed,rep", sorted(GOLDEN_CHOLESKY))
    def test_scipy_cholesky_reproduces_old_pins(self, model, master_seed, rep, monkeypatch):
        # with each matrix built by the complex product and solved by scipy
        # as before, the old values come back exactly: the batched kernel
        # changed nothing but that rounding
        monkeypatch.setattr(mmse, "_plane_covariance", self.on_planes(self.zgemm_covariance))
        monkeypatch.setattr(mmse, "quadratic_forms", self.scipy_cholesky_forms)
        got = self.sample(model, master_seed, rep)
        assert got == self.GOLDEN_CHOLESKY[(model, master_seed, rep)]

    @pytest.mark.parametrize("model,master_seed,rep", sorted(GOLDEN_EINSUM))
    def test_einsum_covariance_reproduces_old_pins(self, model, master_seed, rep, monkeypatch):
        # with the covariance summed in the old order and solved as before,
        # the older values come back exactly: the complex BLAS product
        # changed nothing but that rounding
        def einsum_covariance(interferers, weights):
            cov = np.einsum("ik,k,jk->ij", interferers, weights, interferers.conj())
            return 0.5 * (cov + cov.conj().T)

        monkeypatch.setattr(mmse, "_plane_covariance", self.on_planes(einsum_covariance))
        monkeypatch.setattr(mmse, "quadratic_forms", self.scipy_cholesky_forms)
        got = self.sample(model, master_seed, rep)
        assert got == self.GOLDEN_EINSUM[(model, master_seed, rep)]


class TestBlocks:
    """A block of replications gives each replication's run_realization
    result bit for bit, whatever the block size, split or worker count."""

    # the golden models; replications 13, 16 and 26 of boolean_redraw at
    # seed 11 redraw
    MODELS = TestGoldenSamplePath.MODELS
    COUNTS = (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 3)
    SEED = 11

    def config(self, model):
        spec, n_branches, c = self.MODELS[model]
        return NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=n_branches, c=c, r_t=R_T, model=spec
        )

    def singles(self, cfg, count):
        return [run_realization(cfg, derive_seed(self.SEED, 0, r)) for r in range(count)]

    @staticmethod
    def assert_block_equals(block, singles):
        # _run_block's arrays, field by field against the members' samples
        sir, active, redraws = block
        assert (sir.dtype, active.dtype, redraws.dtype) == (float, np.int64, np.int64)
        assert sir.tolist() == [s.sir for s in singles]
        assert active.tolist() == [s.active_count for s in singles]
        assert redraws.tolist() == [s.redraw_count for s in singles]

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_block_equals_per_replication(self, model):
        cfg = self.config(model)
        singles = self.singles(cfg, max(self.COUNTS))
        if model == "boolean_redraw":
            assert sum(s.redraw_count for s in singles) > 0
        for count in self.COUNTS:
            block = montecarlo._run_block(cfg, self.SEED, [(0, r) for r in range(count)])
            self.assert_block_equals(block, singles[:count])
            # run_experiment splits the replications into BLOCK_SIZE blocks
            p = run_experiment(ExperimentSpec(
                base=cfg, n_values=(cfg.n_branches,), replications=count,
                master_seed=self.SEED,
            )).points[0]
            assert p.rate == summarize(s.rate for s in singles[:count])
            assert p.sir == summarize(s.sir for s in singles[:count])
            assert p.redraw_total == sum(s.redraw_count for s in singles[:count])

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_geometry_passes_do_not_change_block(self, model, monkeypatch):
        # one member per stacked geometry pass, and the whole block in one
        cfg = self.config(model)
        keys = [(0, r) for r in range(BLOCK_SIZE)]
        blocks = []
        for budget in (1, BLOCK_SIZE * (cfg.n_nodes + cfg.n_clusters)):
            monkeypatch.setattr(pointproc, "_NODE_BUDGET", budget)
            blocks.append(montecarlo._run_block(cfg, self.SEED, keys))
        singles = self.singles(cfg, BLOCK_SIZE)
        for block in blocks:
            self.assert_block_equals(block, singles)
        if model == "boolean_redraw":
            assert blocks[0][2].sum() > 0

    @pytest.mark.parametrize("model", ["hc2", "boolean", "cellular_pc", "boolean_redraw"])
    def test_block_fading_equals_public_path(self, model, monkeypatch):
        # the block draws each member's fading as real planes; its g_t and R
        # are draw_fading and interference_covariance on the member's
        # stream, bit for bit
        cfg = self.config(model)
        keys = [(0, r) for r in range(BLOCK_SIZE)]
        stacks = []
        solve = mmse.quadratic_forms

        def spy(g_t, cov):
            stacks.append((g_t, cov))
            return solve(g_t, cov)

        monkeypatch.setattr(mmse, "quadratic_forms", spy)
        montecarlo._run_block(cfg, self.SEED, keys)
        g_t, cov = stacks[0]  # the first round holds every member
        rngs = [pointproc.as_generator(montecarlo._stream(self.SEED, (*key, 0))) for key in keys]
        for j, (rng, w) in enumerate(zip(rngs, pointproc.interference_weights(cfg, rngs))):
            fading = mmse.draw_fading(cfg.n_branches, w.size, rng)
            assert g_t[j].tobytes() == fading.g_t.tobytes()
            want = mmse.interference_covariance(fading.interferers, w)
            assert cov[j].tobytes() == want.tobytes()

    def test_block_rejects_negative_or_nan_weights(self, monkeypatch):
        weights = pointproc.interference_weights

        def poisoned(config, rngs):
            out = weights(config, rngs)
            out[-1][1] = np.nan
            return out

        monkeypatch.setattr(pointproc, "interference_weights", poisoned)
        with pytest.raises(ValueError, match=r"^weights\[1\] = nan: "):
            montecarlo._run_block(self.config("hc1"), self.SEED, [(0, r) for r in range(3)])

    def test_failed_member_fails_only_its_point(self, monkeypatch):
        # with no redraws allowed, the members that needed one fail; the rest
        # of their block is unchanged, and only their point is flagged
        sparse, healthy = self.config("boolean_redraw"), self.config("boolean")
        singles = self.singles(sparse, 30)
        monkeypatch.setattr(montecarlo, "MAX_REDRAWS", 0)
        keys = [(0, r) for r in range(30)]
        sir, active, redraws = montecarlo._run_block(sparse, self.SEED, keys)
        ok = [i for i, s in enumerate(singles) if s.redraw_count == 0]
        self.assert_block_equals((sir[ok], active[ok], redraws[ok]), [singles[i] for i in ok])
        failed = np.flatnonzero(np.isnan(sir))
        assert len(failed) == 3 and set(failed).isdisjoint(ok)
        # a failed member keeps the active count of its last draw
        rngs = [pointproc.as_generator(montecarlo._stream(self.SEED, (*keys[i], 0)))
                for i in failed]
        assert active[failed].tolist() == [w.size for w in
                                           pointproc.interference_weights(sparse, rngs)]
        assert not redraws.any()
        spec = ExperimentSpec(
            base=sparse, n_values=(16,), replications=30, master_seed=self.SEED,
            variants=(sparse.model, healthy.model),
        )
        rep = run_experiment(spec)
        assert rep.points[0].failed and rep.points[0].rate is None
        assert not rep.points[1].failed
        point1 = [run_realization(rep.points[1].config, derive_seed(self.SEED, 1, r))
                  for r in range(30)]
        assert rep.points[1].rate == summarize(s.rate for s in point1)

    def test_failed_members_count_their_redraws(self, monkeypatch):
        # with one redraw allowed, replication 13 (which needs two) fails
        # after its redraw, and 16 and 26 succeed with theirs: the point's
        # redraw_total counts all three, MAX_REDRAWS for the failed member
        cfg = self.config("boolean_redraw")
        singles = self.singles(cfg, 30)
        monkeypatch.setattr(montecarlo, "MAX_REDRAWS", 1)
        spec = ExperimentSpec(base=cfg, n_values=(16,), replications=30, master_seed=self.SEED)
        p = run_experiment(spec).points[0]
        succeeded = [s.redraw_count for s in singles if s.redraw_count <= 1]
        failed = len(singles) - len(succeeded)
        assert p.failed and failed == 1 and sum(succeeded) == 2
        assert p.redraw_total == sum(succeeded) + failed * montecarlo.MAX_REDRAWS

    def test_realization_fails_when_no_redraw_is_left(self, monkeypatch):
        cfg = self.config("boolean_redraw")
        monkeypatch.setattr(montecarlo, "MAX_REDRAWS", 0)
        with pytest.raises(RealizationFailed, match="for N=16, model='boolean'"):
            run_realization(cfg, derive_seed(self.SEED, 0, 13))

    def test_worker_count_does_not_change_results(self):
        cfg = self.config("hc2")
        spec = ExperimentSpec(
            base=cfg, n_values=(2, 4), replications=2 * BLOCK_SIZE + 3, master_seed=5,
        )
        assert run_experiment(spec, workers=1).points == run_experiment(spec, workers=2).points
