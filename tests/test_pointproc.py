"""Tests for network sampling and the activation models.

Brute-force O(n^2) re-implementations of every thinning rule act as oracles
for the tree-based production code; limiting activation fractions are
checked against their closed forms with binomial-style tolerances.
"""

import io
import math
import warnings

import numpy as np
import pytest

from mmsenet.pointproc import (
    MODEL_NAMES,
    MODEL_PARAMS,
    BaseStationLattice,
    ModelSpec,
    NetworkConfig,
    Realization,
    _nearest_site,
    activate_boolean,
    hex_lattice_band0,
    hex_spacing,
    lattice_for,
    realization_to_csv,
    realize,
    sample_potential_interferers,
    schedule_cellular,
    thin_hc1,
    thin_hc2,
)

RHO_P = 0.01
R_T = math.sqrt(1.0 / (math.pi * RHO_P))  # pi rho_p r_T^2 = 1


def config(model, n_branches=8, c=50.0, rho_p=RHO_P, alpha=4.0, r_t=R_T):
    return NetworkConfig(
        rho_p=rho_p, alpha=alpha, n_branches=n_branches, c=c, r_t=r_t, model=model
    )


def hc1_brute(positions, x_t, h):
    n = len(positions)
    active = np.ones(n, dtype=bool)
    for i in range(n):
        if np.linalg.norm(positions[i] - x_t) < h:
            active[i] = False
            continue
        for j in range(n):
            if j != i and np.linalg.norm(positions[i] - positions[j]) < h:
                active[i] = False
                break
    return active


def hc2_brute(positions, marks, x_t, h):
    n = len(positions)
    active = np.ones(n, dtype=bool)
    for i in range(n):
        if np.linalg.norm(positions[i] - x_t) < h:
            active[i] = False
            continue
        for j in range(n):
            if j == i or np.linalg.norm(positions[i] - positions[j]) >= h:
                continue
            if marks[j] < marks[i] or (marks[j] == marks[i] and j < i):
                active[i] = False
                break
    return active


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_counts_and_radius(self):
        cfg = config(ModelSpec("independent"), n_branches=8, c=50.0)
        assert cfg.n_nodes == 400
        assert cfg.radius == pytest.approx(112.83791670955126, rel=1e-12)
        pts = sample_potential_interferers(cfg, 1)
        assert pts.shape == (400, 2)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= cfg.radius)

    def test_smallest_case(self):
        cfg = config(ModelSpec("independent"), n_branches=1, c=2.0)
        assert cfg.n_nodes == 2
        assert sample_potential_interferers(cfg, 0).shape == (2, 2)

    def test_determinism(self):
        cfg = config(ModelSpec("hc2", h=0.5 * R_T))
        a = realize(cfg, 1234)
        b = realize(cfg, 1234)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.marks, b.marks)
        assert np.array_equal(a.active, b.active)
        assert np.array_equal(a.power_weight, b.power_weight)
        c_ = realize(cfg, 1235)
        assert not np.array_equal(a.positions, c_.positions)

    def test_uniformity_subdisk_frequency(self):
        # point count in a sub-disk of area A is Binomial(n, A / (pi R^2))
        cfg = config(ModelSpec("independent"), n_branches=8, c=50.0)
        sub_r = cfg.radius / 4.0
        p = (sub_r / cfg.radius) ** 2
        seeds = 300
        total = 0
        for s in range(seeds):
            pts = sample_potential_interferers(cfg, s)
            total += int(np.sum(np.hypot(pts[:, 0], pts[:, 1]) <= sub_r))
        n_total = seeds * cfg.n_nodes
        sigma = math.sqrt(n_total * p * (1 - p))
        assert abs(total - n_total * p) < 4.0 * sigma


# ---------------------------------------------------------------------------
# hard-core rules
# ---------------------------------------------------------------------------

class TestHardCore:
    def test_pair_within_h_both_muted(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        x_t = np.array([100.0, 100.0])
        assert not thin_hc1(pos, x_t, 1.0).any()

    def test_h_zero_all_active(self):
        rng = np.random.default_rng(3)
        pos = rng.random((50, 2)) * 10
        x_t = np.array([1.0, 1.0])
        assert thin_hc1(pos, x_t, 0.0).all()
        assert thin_hc2(pos, rng.random(50), x_t, 0.0).all()

    def test_exactly_h_does_not_deactivate(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        x_t = np.array([0.0, 1.0])  # node 0 at distance exactly h from x_t
        assert thin_hc1(pos, x_t, 1.0).all()

    def test_hc2_pair_lower_mark_wins(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        marks = np.array([0.7, 0.2])
        x_t = np.array([100.0, 100.0])
        active = thin_hc2(pos, marks, x_t, 1.0)
        assert list(active) == [False, True]

    def test_hc2_tie_breaks_to_lower_index(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        marks = np.array([0.4, 0.4])
        x_t = np.array([100.0, 100.0])
        active = thin_hc2(pos, marks, x_t, 1.0)
        assert list(active) == [True, False]

    @pytest.mark.parametrize("seed", range(8))
    def test_hc1_matches_brute_force(self, seed):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T), n_branches=4)
        pos = sample_potential_interferers(cfg, seed)
        got = thin_hc1(pos, cfg.x_t, cfg.model.h)
        want = hc1_brute(pos, cfg.x_t, cfg.model.h)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_hc2_matches_brute_force(self, seed):
        cfg = config(ModelSpec("hc2", h=1.0 * R_T), n_branches=4)
        rng = np.random.default_rng(seed + 100)
        pos = sample_potential_interferers(cfg, seed)
        marks = rng.random(len(pos))
        got = thin_hc2(pos, marks, cfg.x_t, cfg.model.h)
        want = hc2_brute(pos, marks, cfg.x_t, cfg.model.h)
        assert np.array_equal(got, want)

    def test_hc1_hardcore_invariant(self):
        cfg = config(ModelSpec("hc1", h=1.0 * R_T), n_branches=8)
        for seed in range(5):
            r = realize(cfg, seed)
            act = r.positions[r.active]
            if len(act) > 1:
                d = np.linalg.norm(act[:, None] - act[None, :], axis=-1)
                np.fill_diagonal(d, np.inf)
                assert d.min() >= cfg.model.h

    def test_hc2_dominance_invariant(self):
        cfg = config(ModelSpec("hc2", h=1.0 * R_T), n_branches=8)
        for seed in range(5):
            r = realize(cfg, seed)
            pos, marks = r.positions, r.marks
            d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            for i in np.flatnonzero(r.active):
                close = d[i] < cfg.model.h
                assert not np.any(marks[close] < marks[i])

    def test_hc1_activation_fraction_limit(self):
        # active fraction tends to exp(-pi rho_p h^2) = exp(-1) = 0.367879
        cfg = config(ModelSpec("hc1", h=1.0 * R_T), n_branches=32, c=50.0)
        fractions = [realize(cfg, s).active_count / cfg.n_nodes for s in range(60)]
        mean = float(np.mean(fractions))
        sem = float(np.std(fractions, ddof=1)) / math.sqrt(len(fractions))
        # small positive boundary bias at finite R; allow 4 sigma + 1%
        assert abs(mean - math.exp(-1.0)) < 4 * sem + 0.01 * math.exp(-1.0)

    def test_hc2_activation_fraction_limit(self):
        # (1 - exp(-x))/x at x = pi rho_p h^2 = 1: 0.6321
        cfg = config(ModelSpec("hc2", h=1.0 * R_T), n_branches=32, c=50.0)
        fractions = [realize(cfg, s).active_count / cfg.n_nodes for s in range(60)]
        mean = float(np.mean(fractions))
        sem = float(np.std(fractions, ddof=1)) / math.sqrt(len(fractions))
        target = 1.0 - math.exp(-1.0)
        assert abs(mean - target) < 4 * sem + 0.01 * target


# ---------------------------------------------------------------------------
# boolean cluster
# ---------------------------------------------------------------------------

class TestBoolean:
    def test_h_zero_none_active(self):
        pos = np.random.default_rng(0).random((20, 2))
        centers = pos.copy()
        assert not activate_boolean(pos, centers, 0.0).any()

    def test_center_on_node_activates(self):
        pos = np.array([[1.0, 2.0], [5.0, 5.0]])
        centers = np.array([[1.0, 2.0]])
        assert list(activate_boolean(pos, centers, 0.5)) == [True, False]

    def test_no_centers(self):
        pos = np.array([[1.0, 2.0]])
        assert not activate_boolean(pos, np.empty((0, 2)), 1.0).any()

    @staticmethod
    def brute_force(positions, centers, h):
        """Strict hypot(...) < h against every center."""
        dx = positions[:, None, 0] - centers[None, :, 0]
        dy = positions[:, None, 1] - centers[None, :, 1]
        return (np.hypot(dx, dy) < h).any(axis=1)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n,m,h",
        [(500, 2000, 0.05), (500, 2000, 0.5), (300, 40, 2.0), (50, 3000, 0.01)],
    )
    def test_matches_brute_force(self, seed, n, m, h):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-5.0, 5.0, (n, 2))
        centers = rng.uniform(-5.5, 5.5, (m, 2))
        got = activate_boolean(pos, centers, h)
        assert got.dtype == bool
        assert np.array_equal(got, self.brute_force(pos, centers, h))

    @pytest.mark.parametrize("h", [0.7, 1.0, 3.3])
    def test_center_at_h_inactive_one_ulp_inside_active(self, h):
        # far centers keep the tree non-trivial without covering the origin
        far = np.random.default_rng(7).uniform(3.0 * h, 6.0 * h, (200, 2))
        origin = np.zeros((1, 2))
        inside = math.nextafter(h, 0.0)
        for ring, want in (
            ([[h, 0.0], [0.0, -h], [-h, 0.0], [0.0, h]], False),
            ([[inside, 0.0]], True),
            ([[0.0, -inside]], True),
        ):
            centers = np.vstack([far, ring])
            got = activate_boolean(origin, centers, h)
            assert got.tolist() == [want]
            assert np.array_equal(got, self.brute_force(origin, centers, h))

    @pytest.mark.parametrize(
        "centers,h",
        [(np.empty((0, 2)), 1.0), (np.zeros((3, 2)), 0.0), (np.zeros((3, 2)), -1.0)],
    )
    def test_degenerate_inputs_none_active(self, centers, h):
        pos = np.zeros((4, 2))
        got = activate_boolean(pos, centers, h)
        assert got.shape == (4,) and not got.any()
        assert np.array_equal(got, self.brute_force(pos, centers, h))

    def test_coverage_fraction_limit(self):
        # 1 - exp(-pi rho_b h^2) = 1 - e^{-1}
        h = math.sqrt(1.0 / (math.pi * RHO_P))
        cfg = config(ModelSpec("boolean", h=h, rho_b=RHO_P), n_branches=32, c=50.0)
        fractions = [realize(cfg, s).active_count / cfg.n_nodes for s in range(60)]
        mean = float(np.mean(fractions))
        sem = float(np.std(fractions, ddof=1)) / math.sqrt(len(fractions))
        target = 1.0 - math.exp(-1.0)
        assert abs(mean - target) < 4 * sem + 0.01 * target


# ---------------------------------------------------------------------------
# cellular lattice and scheduling
# ---------------------------------------------------------------------------

class TestLattice:
    def test_origin_site_in_band0(self):
        lat = hex_lattice_band0(0.001, 3, 200.0)
        at_origin = np.flatnonzero(np.all(lat.ij == 0, axis=1))
        assert len(at_origin) == 1
        assert lat.band0[at_origin[0]]

    def test_kappa_one_everything_band0(self):
        lat = hex_lattice_band0(0.001, 1, 150.0)
        assert lat.band0.all()

    @pytest.mark.parametrize("kappa", [3, 4, 7])
    def test_band0_share(self, kappa):
        lat = hex_lattice_band0(0.001, kappa, 600.0)
        share = lat.band0.mean()
        assert share == pytest.approx(1.0 / kappa, rel=0.05)

    def test_band0_minimum_separation(self):
        # co-channel sites are at distance sqrt(kappa) * d or more
        for kappa in (3, 4, 7):
            lat = hex_lattice_band0(0.001, kappa, 300.0)
            b0 = lat.band0_sites
            d2 = np.linalg.norm(b0[:, None] - b0[None, :], axis=-1)
            np.fill_diagonal(d2, np.inf)
            assert d2.min() == pytest.approx(math.sqrt(kappa) * lat.spacing, rel=1e-9)

    def test_spacing_cell_area(self):
        lat = hex_lattice_band0(0.004, 3, 100.0)
        assert lat.cell_area() == pytest.approx(1.0 / 0.004, rel=1e-12)

    def test_site_density(self):
        extent = 400.0
        lat = hex_lattice_band0(0.001, 1, extent)
        got = len(lat.sites) / (math.pi * extent ** 2)
        assert got == pytest.approx(0.001, rel=0.02)

    def test_unsupported_kappa(self):
        with pytest.raises(ValueError, match="supported"):
            hex_lattice_band0(0.001, 5, 100.0)

    def test_cell_edge_density_identity(self):
        # a cell-circumradius link length r_T implies rho_c = 2/(3 sqrt(3) r_T^2)
        rho_c = 0.001
        r_edge = hex_spacing(rho_c) / math.sqrt(3.0)
        assert rho_c == pytest.approx(2.0 / (3.0 * math.sqrt(3.0) * r_edge ** 2), rel=1e-12)


class TestCellularScheduling:
    def cfg(self, n_branches=8, kappa=3, power_control=False, rho_c=0.001, c=50.0):
        return config(
            ModelSpec("cellular", rho_c=rho_c, kappa=kappa, power_control=power_control),
            n_branches=n_branches,
            c=c,
        )

    @staticmethod
    def boundary_points(cfg, lat, rng):
        """Edge midpoints and vertices of cells spread over the disk, each
        stepped 1e-9 d toward every site it is equidistant from."""
        d = lat.spacing
        in_disk = np.hypot(lat.sites[:, 0], lat.sites[:, 1]) < cfg.radius
        centers = np.vstack(([0.0, 0.0], rng.choice(lat.sites[in_disk], 20, replace=False)))
        steps = []
        for edge in np.arange(6) * (math.pi / 3.0):
            steps += [(edge, 0.5 * d, edge + math.pi), (edge, 0.5 * d, edge)]
            vertex = edge + math.pi / 6.0
            for toward in (vertex + math.pi, vertex + math.pi / 3.0, vertex - math.pi / 3.0):
                steps.append((vertex, d / math.sqrt(3.0), toward))
        angle, radius, toward = np.array(steps).T
        offsets = radius[:, None] * np.column_stack((np.cos(angle), np.sin(angle)))
        offsets += 1e-9 * d * np.column_stack((np.cos(toward), np.sin(toward)))
        return (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 2)

    @pytest.mark.parametrize("kind", ["random", "far", "boundary"])
    @pytest.mark.parametrize("kappa", [1, 3, 4, 7])
    def test_nearest_site_matches_brute_force(self, kappa, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # c * nu <= 1 at kappa = 7
            if kind == "random":
                cfg = self.cfg(kappa=kappa)
            else:  # the widest disk of the reuse-3 uplink sweep, ~19 spacings
                cfg = self.cfg(kappa=kappa, n_branches=16, c=800.0)
        lat = lattice_for(cfg)
        rng = np.random.default_rng(kappa)
        if kind == "random":
            pts = sample_potential_interferers(cfg, 7)
        elif kind == "far":
            r = cfg.radius - lat.spacing * rng.random(400)
            theta = 2.0 * math.pi * rng.random(400)
            pts = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
        else:
            pts = self.boundary_points(cfg, lat, rng)
        p, q, dist = _nearest_site(pts, lat.spacing)
        d_all = np.linalg.norm(pts[:, None, :] - lat.sites[None, :, :], axis=-1)
        np.testing.assert_array_equal(np.column_stack((p, q)), lat.ij[d_all.argmin(axis=1)])
        assert np.allclose(dist, d_all.min(axis=1), rtol=1e-12, atol=1e-9)
        _, serving = schedule_cellular(pts, np.zeros(len(pts)), lat.spacing, lat.kappa)
        np.testing.assert_array_equal(serving, dist)

    def test_at_most_one_active_per_band0_cell_and_none_in_origin(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        for seed in range(6):
            r = realize(cfg, seed)
            pts = r.positions[r.active]
            d_all = np.linalg.norm(pts[:, None, :] - lat.sites[None, :, :], axis=-1)
            owner = d_all.argmin(axis=1)
            # every active node's serving site is band-0 and not the origin
            assert lat.band0[owner].all()
            assert not np.any(np.all(lat.ij[owner] == 0, axis=1))
            # one transmitter per cell
            assert len(np.unique(owner)) == len(owner)

    def test_single_occupant_transmits(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        # drop one mobile well inside a known band-0 cell away from the origin
        band0_idx = np.flatnonzero(lat.band0 & np.any(lat.ij != 0, axis=1))
        site = lat.sites[band0_idx[0]]
        pos = site[None, :] + 0.05 * lat.spacing
        active, serving = schedule_cellular(pos, np.array([0.5]), lat.spacing, lat.kappa)
        assert active.all()
        assert serving[0] == pytest.approx(np.linalg.norm(pos[0] - site), rel=1e-12)

    def test_non_band0_occupant_silent(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        other_idx = np.flatnonzero(~lat.band0)
        pos = lat.sites[other_idx[0]][None, :] + 0.05 * lat.spacing
        active, _ = schedule_cellular(pos, np.array([0.5]), lat.spacing, lat.kappa)
        assert not active.any()

    def test_min_mark_wins_within_cell(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        band0_idx = np.flatnonzero(lat.band0 & np.any(lat.ij != 0, axis=1))
        site = lat.sites[band0_idx[0]]
        pos = np.vstack([site + [0.1, 0.0], site + [0.0, 0.1], site + [0.1, 0.1]])
        marks = np.array([0.9, 0.05, 0.5])
        active, _ = schedule_cellular(pos, marks, lat.spacing, lat.kappa)
        assert list(active) == [False, True, False]

    def test_activation_fraction_limit(self):
        # (rho_c / rho_p)(1 - exp(-rho_p / rho_c)) / kappa.  Unsaturated cell
        # occupancy (rho_c = 2 rho_p) keeps the boundary-cell bias far below
        # the statistical band at R ~ 50 lattice spacings.
        cfg = self.cfg(n_branches=45, c=100.0, rho_c=0.02)
        target = cfg.nu_expected
        fractions = [realize(cfg, s).active_count / cfg.n_nodes for s in range(60)]
        mean = float(np.mean(fractions))
        sem = float(np.std(fractions, ddof=1)) / math.sqrt(len(fractions))
        assert abs(mean - target) < 4 * sem + 0.01 * target

    def test_power_control_weights(self):
        cfg = self.cfg(power_control=True)
        r = realize(cfg, 11)
        act = r.active
        assert np.allclose(
            r.power_weight[act], r.serving_distance[act] ** cfg.alpha, rtol=1e-12
        )
        assert np.all(r.power_weight[~act] == 0.0)


# ---------------------------------------------------------------------------
# realization plumbing
# ---------------------------------------------------------------------------

class TestRealization:
    def test_unit_power_weights(self):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T))
        r = realize(cfg, 2)
        assert np.all(r.power_weight[r.active] == 1.0)
        assert np.all(r.power_weight[~r.active] == 0.0)

    def test_csv_dump_roundtrip_shape(self):
        cfg = config(ModelSpec("hc2", h=0.5 * R_T), n_branches=2, c=10.0)
        r = realize(cfg, 5)
        text = realization_to_csv(r)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,mark,active,power_weight,serving_distance"
        assert len(lines) == 1 + cfg.n_nodes
        buf = io.StringIO()
        realization_to_csv(r, buf)
        assert buf.getvalue() == text

    def test_regime_warning(self):
        with pytest.warns(UserWarning, match="c \\* nu") as record:
            config(ModelSpec("cellular", rho_c=0.001, kappa=3), n_branches=8, c=20.0)
        # attributed to the caller, not to the generated dataclass __init__
        assert record[0].filename == __file__

    def test_model_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelSpec("matern")
        with pytest.raises(ValueError, match="needs h"):
            ModelSpec("hc1")
        with pytest.raises(ValueError, match="unsupported reuse"):
            ModelSpec("cellular", rho_c=0.001, kappa=5)
        with pytest.raises(ValueError, match="power_control"):
            ModelSpec("hc1", h=1.0, power_control=True)

    @pytest.mark.parametrize(
        "name,params,key",
        [
            ("independent", {"h": 1.0}, "h"),
            ("independent", {"h": 0.0}, "h"),
            ("hc1", {"h": 1.0, "kappa": 3}, "kappa"),
            ("hc2", {"h": 1.0, "rho_c": 0.001}, "rho_c"),
            ("boolean", {"h": 1.0, "rho_b": 0.01, "power_control": True}, "power_control"),
            ("cellular", {"rho_c": 0.001, "kappa": 3, "rho_b": 0.01}, "rho_b"),
        ],
    )
    def test_parameter_the_model_does_not_take(self, name, params, key):
        with pytest.raises(ValueError, match=rf"model '{name}' does not take {key}\b"):
            ModelSpec(name, **params)

    @pytest.mark.parametrize(
        "name,params,key",
        [
            ("hc1", {"h": math.nan}, "h"),
            ("boolean", {"h": 1.0, "rho_b": math.nan}, "rho_b"),
            ("cellular", {"rho_c": math.nan, "kappa": 3}, "rho_c"),
            ("cellular", {"rho_c": 0.001, "kappa": math.nan}, "kappa"),
            ("cellular", {"rho_c": 0.001, "kappa": 3, "power_control": 1}, "power_control"),
        ],
    )
    def test_nan_and_wrong_kinds_fail_the_range_rules(self, name, params, key):
        with pytest.raises(ValueError, match=key):
            ModelSpec(name, **params)

    def test_params_label_lists_the_model_parameters_in_table_order(self):
        assert MODEL_NAMES == tuple(MODEL_PARAMS)
        assert ModelSpec("independent").params_label() == "-"
        assert ModelSpec("hc2", h=2.5).params_label() == "h=2.5"
        assert ModelSpec("boolean", h=1 / 3, rho_b=0.01).params_label() == (
            "h=0.333333333;rho_b=0.01"
        )
        assert ModelSpec("cellular", rho_c=0.001, kappa=3).params_label() == (
            "rho_c=0.001;kappa=3;pc=0"
        )
        assert ModelSpec("cellular", rho_c=0.001, kappa=7, power_control=True).params_label() == (
            "rho_c=0.001;kappa=7;pc=1"
        )
