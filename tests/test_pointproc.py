"""Tests for network sampling and the activation models.

Brute-force O(n^2) re-implementations of every thinning rule, and scipy's
KD-trees for the neighbour searches, act as oracles for the banded cell-list
production code; limiting activation fractions are checked against their
closed forms with binomial-style tolerances.
"""

import io
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mmsenet import pointproc
from mmsenet.pointproc import (
    _KAPPA_ANCHOR,
    MODEL_NAMES,
    MODEL_PARAMS,
    BaseStationLattice,
    ModelSpec,
    NetworkConfig,
    Realization,
    _band0_mask,
    _boolean,
    _close_pairs,
    _hard_core,
    _nearest_site,
    _realize_stack,
    _schedule,
    _within,
    as_generator,
    hex_lattice_band0,
    hex_spacing,
    lattice_for,
    realization_to_csv,
    realize,
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
        pts = realize(cfg, 1).positions
        assert pts.shape == (400, 2)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= cfg.radius)

    def test_smallest_case(self):
        cfg = config(ModelSpec("independent"), n_branches=1, c=2.0)
        assert cfg.n_nodes == 2
        assert realize(cfg, 0).positions.shape == (2, 2)

    @pytest.mark.parametrize("seed", [0, 5, 2**70])
    def test_integer_seed_stream(self, seed):
        # an int seed s keys Philox through SeedSequence(s); no golden pins
        # an int-seeded stream
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        assert as_generator(seed).random(8).tobytes() == want.random(8).tobytes()

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
            pts = realize(cfg, s).positions
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
        assert not _hard_core(pos[None], None, x_t, 1.0).any()

    def test_h_zero_all_active(self):
        rng = np.random.default_rng(3)
        pos = rng.random((50, 2)) * 10
        x_t = np.array([1.0, 1.0])
        assert _hard_core(pos[None], None, x_t, 0.0).all()
        assert _hard_core(pos[None], rng.random((1, 50)), x_t, 0.0).all()

    def test_exactly_h_does_not_deactivate(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        x_t = np.array([0.0, 1.0])  # node 0 at distance exactly h from x_t
        assert _hard_core(pos[None], None, x_t, 1.0).all()

    def test_hc2_pair_lower_mark_wins(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        marks = np.array([0.7, 0.2])
        x_t = np.array([100.0, 100.0])
        active = _hard_core(pos[None], marks[None], x_t, 1.0)[0]
        assert list(active) == [False, True]

    def test_hc2_tie_breaks_to_lower_index(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        marks = np.array([0.4, 0.4])
        x_t = np.array([100.0, 100.0])
        active = _hard_core(pos[None], marks[None], x_t, 1.0)[0]
        assert list(active) == [True, False]

    @pytest.mark.parametrize("seed", range(8))
    def test_hc1_matches_brute_force(self, seed):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T), n_branches=4)
        pos = realize(cfg, seed).positions
        got = _hard_core(pos[None], None, cfg.x_t, cfg.model.h)[0]
        want = hc1_brute(pos, cfg.x_t, cfg.model.h)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_hc2_matches_brute_force(self, seed):
        cfg = config(ModelSpec("hc2", h=1.0 * R_T), n_branches=4)
        rng = np.random.default_rng(seed + 100)
        pos = realize(cfg, seed).positions
        marks = rng.random(len(pos))
        got = _hard_core(pos[None], marks[None], cfg.x_t, cfg.model.h)[0]
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
        assert not _boolean(pos[None], centers[None], 0.0).any()

    def test_center_on_node_activates(self):
        pos = np.array([[1.0, 2.0], [5.0, 5.0]])
        centers = np.array([[1.0, 2.0]])
        assert list(_boolean(pos[None], centers[None], 0.5)[0]) == [True, False]
        # distance 0 < h however small h is, even where h * h underflows to 0
        assert list(_boolean(pos[None], centers[None], 1e-300)[0]) == [True, False]

    def test_no_centers(self):
        pos = np.array([[1.0, 2.0]])
        assert not _boolean(pos[None], np.empty((1, 0, 2)), 1.0).any()

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
        got = _boolean(pos[None], centers[None], h)[0]
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
            got = _boolean(origin[None], centers[None], h)[0]
            assert got.tolist() == [want]
            assert np.array_equal(got, self.brute_force(origin, centers, h))

    @pytest.mark.parametrize(
        "centers,h",
        [(np.empty((0, 2)), 1.0), (np.zeros((3, 2)), 0.0), (np.zeros((3, 2)), -1.0)],
    )
    def test_degenerate_inputs_none_active(self, centers, h):
        pos = np.zeros((4, 2))
        got = _boolean(pos[None], centers[None], h)[0]
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
# banded cell-list search
# ---------------------------------------------------------------------------

def stacked_layout(kind, seed):
    """A (B, n, 2) stack of nodes and a (B, m, 2) stack of cluster centers."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-5.0, 5.0, (3, 150, 2)), rng.uniform(-5.5, 5.5, (3, 120, 2))
    if kind == "lattice":
        # spacing 0.1 (not a double), so lattice distances sit at h = 0.1
        # give or take an ulp, and band edges fall on lattice rows
        grid = 0.1 * np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)), -1).reshape(-1, 2)
        nodes = np.stack((grid, grid + 0.05, grid[::-1] * 3.0))
        return nodes, nodes[:, ::2] + [0.1, 0.0]
    if kind == "duplicates":
        nodes = rng.uniform(-2.0, 2.0, (2, 120, 2))
        nodes[:, 60:] = nodes[:, :60]
        return nodes, nodes[:, ::3].copy()
    if kind == "tiny":
        # the squares of the 1e-163 offsets underflow to 0, so _within passes
        # these pairs at any h > 0, however far beyond a tiny h they are
        nodes = rng.uniform(-1.0, 1.0, (2, 80, 2)) * 1e-160
        nodes[:, 40:] = nodes[:, :40] + rng.uniform(-1.0, 1.0, (2, 40, 2)) * 1e-163
        return nodes, nodes[:, ::2].copy()
    if kind == "band_edge":
        # 0.1 apart less an ulp, yet at offsets from the lowest point that
        # floor((y - y_lo) / 0.1) puts two bands apart: bands exactly h tall
        # lose the pair; member 1 is member 0 with x and y swapped
        column = np.array([[0.0, -27.406856754145686], [0.0, 1.4931432458543146],
                           [0.0, 1.5931432458543129]])
        nodes = np.stack((column, column[:, ::-1]))
        return nodes, nodes[:, [0, 2]].copy()
    if kind == "single":
        return rng.uniform(-1.0, 1.0, (4, 1, 2)), rng.uniform(-1.0, 1.0, (4, 1, 2))
    assert kind == "no_centers"
    return rng.uniform(-1.0, 1.0, (2, 40, 2)), np.empty((2, 0, 2))


LAYOUTS = ["uniform", "lattice", "duplicates", "tiny", "band_edge", "single", "no_centers"]
SEARCH_H = [1e-300, 1e-160, 1e-155, 1e-12, 0.05, 0.1, 0.7, 3.0, 1e300, 1e308, math.inf]


def kd_close_pairs(positions, h):
    """query_pairs of one KD-tree per member, kept where _within holds."""
    n = positions.shape[1]
    pairs = set()
    for k, member in enumerate(positions):
        found = cKDTree(member).query_pairs(h, output_type="ndarray").reshape(-1, 2)
        i, j = found[:, 0], found[:, 1]
        close = _within(member[i, 0] - member[j, 0], member[i, 1] - member[j, 1], h)
        pairs.update(zip((i[close] + k * n).tolist(), (j[close] + k * n).tolist()))
    return pairs


def kd_boolean(positions, centers, h):
    """Nearest-center query of one KD-tree per member, bounded at h.

    The tree bounds squared distances by h * h, so it only agrees with
    _within while h * h > 0; brute_boolean is the oracle below that.
    """
    if centers.shape[1] == 0:
        return np.zeros(positions.shape[:2], dtype=bool)
    return np.stack([
        cKDTree(c).query(p, k=1, distance_upper_bound=h)[0] < h
        for p, c in zip(positions, centers)
    ])


def brute_boolean(positions, centers, h):
    """_within of every node against every center of its member."""
    dx = positions[:, :, None, 0] - centers[:, None, :, 0]
    dy = positions[:, :, None, 1] - centers[:, None, :, 1]
    return _within(dx, dy, h).any(axis=2)


class TestBandedSearch:
    @pytest.mark.parametrize("h", SEARCH_H)
    @pytest.mark.parametrize("kind", LAYOUTS)
    def test_close_pairs_equal_kd_tree(self, kind, h):
        positions, _ = stacked_layout(kind, 1)
        i, j = (np.concatenate(part) for part in zip(*_close_pairs(positions, h)))
        assert np.all(i < j)
        got = set(zip(i.tolist(), j.tolist()))
        assert len(got) == i.size  # each pair once
        assert got == kd_close_pairs(positions, h)

    @pytest.mark.parametrize("h", SEARCH_H)
    @pytest.mark.parametrize("kind", LAYOUTS)
    def test_boolean_equals_kd_tree(self, kind, h):
        positions, centers = stacked_layout(kind, 2)
        got = _boolean(positions, centers, h)
        oracle = kd_boolean if h * h > 0 else brute_boolean
        assert np.array_equal(got, oracle(positions, centers, h))

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates"])
    def test_chunked_windows_change_nothing(self, kind, monkeypatch):
        positions, centers = stacked_layout(kind, 3)
        marks = np.random.default_rng(4).random(positions.shape[:2])
        x_t = np.array([0.3, 0.0])

        def activations():
            return [
                _hard_core(positions, None, x_t, 0.3),
                _hard_core(positions, marks, x_t, 0.3),
                _boolean(positions, centers, 0.3),
            ]

        whole = activations()
        monkeypatch.setattr(pointproc, "_PAIR_BUDGET", 7)
        for want, got in zip(whole, activations()):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("h", [1e-12, 1e300, math.inf])
    @pytest.mark.parametrize("name", ["hc1", "hc2", "boolean"])
    def test_extreme_h_activation(self, name, h):
        # a guard far below the node spacing mutes no one and a cluster disk
        # that small covers no one; one larger than the disk does the reverse
        spec = ModelSpec(name, h=h, rho_b=RHO_P if name == "boolean" else None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # c * nu <= 1 where nothing transmits
            cfg = config(spec, n_branches=4, c=50.0)
        all_active = (h > 1.0) == (name == "boolean")
        for seed in range(3):
            active = realize(cfg, seed).active
            assert active.all() if all_active else not active.any()


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

    @pytest.mark.parametrize("kappa", sorted(_KAPPA_ANCHOR))
    def test_band0_mask_equals_both_integrality_conditions(self, kappa):
        i, j = _KAPPA_ANCHOR[kappa]
        p, q = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41))
        both = ((p * (i + j) + q * j) % kappa == 0) & ((q * i - p * j) % kappa == 0)
        assert np.array_equal(_band0_mask(p, q, kappa), both)

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
            pts = realize(cfg, 7).positions
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
        _, (serving,) = _schedule(pts[None], np.zeros((1, len(pts))), lat.spacing, lat.kappa)
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
        (active,), (serving,) = _schedule(pos[None], np.array([[0.5]]), lat.spacing, lat.kappa)
        assert active.all()
        assert serving[0] == pytest.approx(np.linalg.norm(pos[0] - site), rel=1e-12)

    def test_non_band0_occupant_silent(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        other_idx = np.flatnonzero(~lat.band0)
        pos = lat.sites[other_idx[0]][None, :] + 0.05 * lat.spacing
        (active,), _ = _schedule(pos[None], np.array([[0.5]]), lat.spacing, lat.kappa)
        assert not active.any()

    def test_min_mark_wins_within_cell(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        band0_idx = np.flatnonzero(lat.band0 & np.any(lat.ij != 0, axis=1))
        site = lat.sites[band0_idx[0]]
        pos = np.vstack([site + [0.1, 0.0], site + [0.0, 0.1], site + [0.1, 0.1]])
        marks = np.array([0.9, 0.05, 0.5])
        (active,), _ = _schedule(pos[None], marks[None], lat.spacing, lat.kappa)
        assert list(active) == [False, True, False]

    def test_stacked_members_do_not_share_cells(self):
        # the same band-0 cell in two members of one stacked pass, one
        # occupant each: both transmit
        cfg = self.cfg()
        lat = lattice_for(cfg)
        band0_idx = np.flatnonzero(lat.band0 & np.any(lat.ij != 0, axis=1))
        pos = np.stack([lat.sites[band0_idx[:1]] + 0.05 * lat.spacing] * 2)
        active, _ = _schedule(pos, np.array([[0.5], [0.2]]), lat.spacing, lat.kappa)
        assert active.all()

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
# limiting active densities
# ---------------------------------------------------------------------------

class TestLimitingDensity:
    @staticmethod
    def density(model):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # c * nu <= 1 at the sparse densities
            return config(model).predicted_density()

    def test_h_zero_degenerates_to_rho_p(self):
        assert self.density(ModelSpec("hc1", h=0.0)) == 0.01
        assert self.density(ModelSpec("hc2", h=0.0)) == 0.01

    def test_frozen_hard_core_values(self):
        h = math.sqrt(1.0 / (math.pi * 0.01))  # pi rho_p h^2 = 1
        assert self.density(ModelSpec("hc1", h=h)) == pytest.approx(
            0.0036787944117144233, rel=1e-12
        )
        assert self.density(ModelSpec("hc2", h=h)) == pytest.approx(
            0.006321205588285577, rel=1e-12
        )

    def test_retention_ordering(self):
        # keeping the lowest mark always beats muting every conflict
        for x in np.linspace(0.05, 4.0, 30):
            h = math.sqrt(x / (math.pi * 0.01))
            d1 = self.density(ModelSpec("hc1", h=h))
            d2 = self.density(ModelSpec("hc2", h=h))
            assert d2 >= d1

    def test_cellular_and_boolean(self):
        got = self.density(ModelSpec("cellular", rho_c=0.001, kappa=3))
        assert got == pytest.approx(0.001 * (1 - math.exp(-10.0)) / 3.0, rel=1e-12)
        h = math.sqrt(1.0 / (math.pi * 0.01))
        got = self.density(ModelSpec("boolean", rho_b=0.01, h=h))
        assert got == pytest.approx(0.01 * (1 - math.exp(-1.0)), rel=1e-12)

    @pytest.mark.parametrize("h", [1e-6, 1e-8, 1e-160, 1e-170, 1e-300])
    def test_hc2_tiny_radius_is_rho_p(self, h):
        # (1 - exp(-x)) / (pi h^2) = rho_p (1 - x/2 + ...) with x = pi rho_p h^2
        got = self.density(ModelSpec("hc2", h=h))
        assert got <= 0.01
        assert got == pytest.approx(0.01, rel=1e-12)

    def test_tiny_exponents_do_not_underflow(self):
        got = self.density(ModelSpec("cellular", rho_c=1e300, kappa=3))
        assert got == pytest.approx(0.01 / 3.0, rel=1e-12)
        got = self.density(ModelSpec("boolean", rho_b=1e-300, h=1.0))
        assert got / (0.01 * math.pi * 1e-300) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# realization plumbing
# ---------------------------------------------------------------------------

class TestRealization:
    STACK_MODELS = {
        "independent": ModelSpec("independent"),
        "hc1": ModelSpec("hc1", h=0.5 * R_T),
        "hc2": ModelSpec("hc2", h=0.5 * R_T),
        "cellular_k7": ModelSpec("cellular", rho_c=0.001, kappa=7),
        "cellular_pc": ModelSpec("cellular", rho_c=0.001, kappa=3, power_control=True),
        "boolean": ModelSpec("boolean", h=R_T, rho_b=RHO_P),
    }

    @pytest.mark.parametrize("model", sorted(STACK_MODELS))
    def test_stacked_member_equals_realize(self, model):
        # every member's slice of one stacked pass is realize on its own
        # generator, bit for bit, and leaves that generator where realize does
        cfg = config(self.STACK_MODELS[model], n_branches=4, c=200.0)
        seeds = [np.random.SeedSequence(3, spawn_key=(k,)) for k in range(5)]
        rngs = [as_generator(seed) for seed in seeds]
        stack = _realize_stack(cfg, rngs)
        names = ("positions", "marks", "active", "power_weight", "serving_distance")
        for k, seed in enumerate(seeds):
            rng = as_generator(seed)
            single = realize(cfg, rng)
            for name, field in zip(names, stack):
                want = getattr(single, name)
                if want is None:
                    assert field is None, name
                else:
                    got = field[k]
                    assert got.dtype == want.dtype and got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name
            assert rngs[k].random() == rng.random()

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

    def test_cluster_count_is_derived(self):
        cfg = config(ModelSpec("boolean", h=R_T, rho_b=0.005), n_branches=4, c=10.0)
        assert cfg.n_clusters == round(math.pi * 0.005 * cfg.radius ** 2) == 20
        assert config(ModelSpec("hc1", h=1.0)).n_clusters == 0

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
