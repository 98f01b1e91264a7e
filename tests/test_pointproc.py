"""Tests for network sampling and the activation models.

Brute-force O(n^2) re-implementations of every thinning rule, and scipy's
KD-trees for the neighbour searches, act as oracles for the banded cell-list
production code; limiting activation fractions are checked against their
closed forms with binomial-style tolerances.
"""

import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mmsenet import pointproc
from mmsenet.pointproc import (
    _KAPPA_ANCHOR,
    MODEL_NAMES,
    MODEL_PARAMS,
    ModelSpec,
    NetworkConfig,
    Realization,
    _activate,
    _band0_mask,
    _boolean,
    _cells,
    _close_pairs,
    _draws,
    _hard_core,
    _nearest_site,
    _received,
    _schedule,
    _to_disk,
    _within,
    as_generator,
    hex_spacing,
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


def exact(positions):
    """The stack (see pointproc._close) of exact (B, n, 2) positions."""
    return positions[..., 0], positions[..., 1], None


def hard_core(positions, marks, x_t, h):
    """_hard_core on exact (B, n, 2) positions, with their largest radius."""
    largest = float(np.hypot(positions[..., 0], positions[..., 1]).max()) if positions.size else 0.0
    return _hard_core(exact(positions), marks, x_t, h, None, largest)


def boolean(positions, centers, h):
    """_boolean on exact (B, n, 2) positions and (B, m, 2) centers."""
    return _boolean(exact(positions), exact(centers), h)


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

    @pytest.mark.parametrize("b,n", [(1, 1), (3, 257), (10, 3200)])
    def test_to_disk_equals_out_of_place_expression(self, b, n):
        # row slices of one draw matrix, as _activate passes them
        u = np.random.default_rng(n).random((b, 3 * n))
        u_r, u_theta = u[:, :n], u[:, n:2 * n]
        r = 7.5 * np.sqrt(u_r)
        theta = 2.0 * math.pi * u_theta
        want = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
        np.testing.assert_array_equal(_to_disk(7.5, u_r, u_theta), want)

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
        assert not hard_core(pos[None], None, x_t, 1.0).any()

    def test_h_zero_all_active(self):
        rng = np.random.default_rng(3)
        pos = rng.random((50, 2)) * 10
        x_t = np.array([1.0, 1.0])
        assert hard_core(pos[None], None, x_t, 0.0).all()
        assert hard_core(pos[None], rng.random((1, 50)), x_t, 0.0).all()

    def test_exactly_h_does_not_deactivate(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        x_t = np.array([0.0, 1.0])  # node 0 at distance exactly h from x_t
        assert hard_core(pos[None], None, x_t, 1.0).all()

    def test_hc2_pair_lower_mark_wins(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        marks = np.array([0.7, 0.2])
        x_t = np.array([100.0, 100.0])
        active = hard_core(pos[None], marks[None], x_t, 1.0)[0]
        assert list(active) == [False, True]

    def test_hc2_tie_breaks_to_lower_index(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        marks = np.array([0.4, 0.4])
        x_t = np.array([100.0, 100.0])
        active = hard_core(pos[None], marks[None], x_t, 1.0)[0]
        assert list(active) == [True, False]

    @pytest.mark.parametrize("seed", range(8))
    def test_hc1_matches_brute_force(self, seed):
        cfg = config(ModelSpec("hc1", h=0.5 * R_T), n_branches=4)
        pos = realize(cfg, seed).positions
        got = hard_core(pos[None], None, cfg.x_t, cfg.model.h)[0]
        want = hc1_brute(pos, cfg.x_t, cfg.model.h)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_hc2_matches_brute_force(self, seed):
        cfg = config(ModelSpec("hc2", h=1.0 * R_T), n_branches=4)
        rng = np.random.default_rng(seed + 100)
        pos = realize(cfg, seed).positions
        marks = rng.random(len(pos))
        got = hard_core(pos[None], marks[None], cfg.x_t, cfg.model.h)[0]
        want = hc2_brute(pos, marks, cfg.x_t, cfg.model.h)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("scale", [1.0, 1e-154, 1e-160, 1e150])
    def test_guard_radius_beyond_every_pair(self, monkeypatch, scale, n):
        # just above twice the largest radius (with its rounding margin) every
        # pair is close and the banded search is skipped; just below, it runs.
        # Both sides match the brute force, with tied marks, an antipodal
        # pair 2 r apart and a representative that guards part of the disk,
        # also where squares underflow (1e-154) and where the 2^-511 floor
        # sets the threshold (1e-160).
        rng = np.random.default_rng(n)
        positions = _to_disk(scale, rng.random((4, n)), rng.random((4, n)))
        positions[0, :2] = [[scale, 0.0], [-scale, 0.0]][:n]
        marks = rng.integers(0, 3, (4, n)) / 4.0
        marks[1, -2:] = marks[1].min()
        x_t = np.array([2.5 * scale, 0.0])
        largest = np.hypot(positions[..., 0], positions[..., 1]).max()
        threshold = max(2.0 * largest, 2.0 ** -511) * (1.0 + 2.0 ** -20)
        searches = []
        search = pointproc._close_pairs
        monkeypatch.setattr(pointproc, "_close_pairs",
                            lambda *args: searches.append(args) or search(*args))
        for h, searched in ((math.nextafter(threshold, math.inf), False),
                            (math.nextafter(threshold, 0.0), True)):
            searches.clear()
            got1 = hard_core(positions, None, x_t, h)
            got2 = hard_core(positions, marks, x_t, h)
            assert len(searches) == 2 * searched
            for k, pos in enumerate(positions):
                assert np.array_equal(got1[k], hc1_brute(pos, x_t, h)), (h, k)
                assert np.array_equal(got2[k], hc2_brute(pos, marks[k], x_t, h)), (h, k)

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
        assert not boolean(pos[None], centers[None], 0.0).any()

    def test_center_on_node_activates(self):
        pos = np.array([[1.0, 2.0], [5.0, 5.0]])
        centers = np.array([[1.0, 2.0]])
        assert list(boolean(pos[None], centers[None], 0.5)[0]) == [True, False]
        # distance 0 < h however small h is, even where h * h underflows to 0
        assert list(boolean(pos[None], centers[None], 1e-300)[0]) == [True, False]

    def test_no_centers(self):
        pos = np.array([[1.0, 2.0]])
        assert not boolean(pos[None], np.empty((1, 0, 2)), 1.0).any()

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
        got = boolean(pos[None], centers[None], h)[0]
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
            got = boolean(origin[None], centers[None], h)[0]
            assert got.tolist() == [want]
            assert np.array_equal(got, self.brute_force(origin, centers, h))

    @pytest.mark.parametrize(
        "centers,h",
        [(np.empty((0, 2)), 1.0), (np.zeros((3, 2)), 0.0), (np.zeros((3, 2)), -1.0)],
    )
    def test_degenerate_inputs_none_active(self, centers, h):
        pos = np.zeros((4, 2))
        got = boolean(pos[None], centers[None], h)[0]
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
    if kind == "clumped":
        # clumps of 2 to 40 points within 0.02 of six centres, so whole runs
        # of sorted keys share a cell and the rank offsets go up to 40 deep;
        # every member has a clump at its first keys (bottom left) and at its
        # last (top right), so runs end at the next member's first point and,
        # in the last member, at the last sorted point
        sizes = np.array([[40, 2, 25, 8, 13, 30], [5, 30, 40, 13, 2, 28],
                          [33, 40, 2, 5, 10, 28], [2, 13, 8, 30, 25, 40]])
        corners = np.array([[-3.0, -3.0], [3.0, 3.0]])
        members = []
        for row in sizes:
            centres = np.concatenate((corners[:1], rng.uniform(-2.5, 2.5, (4, 2)), corners[1:]))
            members.append(np.repeat(centres, row, axis=0)
                           + rng.uniform(-0.02, 0.02, (row.sum(), 2)))
        nodes = np.stack(members)
        return nodes, nodes[:, ::2] + rng.uniform(-0.01, 0.01, (4, 59, 2))
    assert kind == "no_centers"
    return rng.uniform(-1.0, 1.0, (2, 40, 2)), np.empty((2, 0, 2))


LAYOUTS = ["uniform", "lattice", "duplicates", "tiny", "band_edge", "single", "no_centers",
           "clumped"]
SEARCH_H = [1e-300, 1e-160, 1e-155, 1e-12, 0.05, 0.1, 0.7, 3.0, 1e300, 1e308, math.inf]


def joined_pairs(chunks):
    """(i, j) of all chunks of _close_pairs, empty when it yields none."""
    parts = list(chunks)
    return tuple(np.concatenate([p[k] for p in parts] or [np.empty(0, dtype=np.intp)])
                 for k in (0, 1))


def window_close_pairs(stack, h, eps=None):
    """The banded search before rank offsets, kept to compare memory with.

    Each point's candidates were the searchsorted windows [lo, hi) of the
    sorted keys, expanded into (query, position) pairs in chunks of whole
    queries under _PAIR_BUDGET pairs.  stack holds exact points (eps None).
    """
    assert eps is None
    size = stack[0].size
    if not h > 0 or size == 0:
        return
    x, y = stack[0].ravel(), stack[1].ravel()
    (key,), cols = pointproc._cell_keys((stack,), pointproc._reach(h, None))
    order = np.argsort(key)
    key = key[order]
    split = pointproc._SPLIT
    lo = np.concatenate((np.arange(1, size + 1), np.searchsorted(key, key + cols - split)))
    hi = np.concatenate((
        np.searchsorted(key, key + split, "right"),
        np.searchsorted(key, key + cols + split, "right"),
    ))
    count = hi - lo
    end = np.cumsum(count)
    first = 0
    while first < lo.size:
        base = end[first] - count[first]
        stop = max(first + 1,
                   int(np.searchsorted(end, base + pointproc._PAIR_BUDGET, "right")))
        counts = count[first:stop]
        query = np.repeat(np.arange(first, stop), counts)
        shift = lo[first:stop] - (end[first:stop] - counts - base)
        other = np.arange(end[stop - 1] - base) + np.repeat(shift, counts)
        i, j = order[query % size], order[other]
        close = _within(x[i] - x[j], y[i] - y[j], h)
        i, j = i[close], j[close]
        yield np.minimum(i, j), np.maximum(i, j)
        first = stop


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
        i, j = joined_pairs(_close_pairs(exact(positions), h))
        assert np.all(i < j)
        got = set(zip(i.tolist(), j.tolist()))
        assert len(got) == i.size  # each pair once
        assert got == kd_close_pairs(positions, h)

    @pytest.mark.parametrize("h", SEARCH_H)
    @pytest.mark.parametrize("kind", LAYOUTS)
    def test_boolean_equals_kd_tree(self, kind, h):
        positions, centers = stacked_layout(kind, 2)
        got = boolean(positions, centers, h)
        oracle = kd_boolean if h * h > 0 else brute_boolean
        assert np.array_equal(got, oracle(positions, centers, h))

    def test_clumped_runs_reach_member_ends(self):
        # the clumped layout at h = 0.1 has own-band runs 39 offsets deep, a
        # run in every member that reaches the next member's first rank, and
        # one in the last member that reaches the last sorted point
        positions, _ = stacked_layout("clumped", 1)
        (key,), _ = pointproc._cell_keys((exact(positions),), 0.1)
        key = np.sort(key)
        run_end = np.searchsorted(key, key + pointproc._SPLIT, "right")
        assert (run_end - np.arange(1, key.size + 1)).max() >= 30
        n = positions.shape[1]
        for member in range(len(positions)):
            assert run_end[(member + 1) * n - 2] == (member + 1) * n

    def test_overflowing_squares(self):
        # a square overflows only for a distance past 2^511: apart at any
        # smaller h, and np.hypot decides at a larger h; neither warns
        dx, dy = np.array([1e200, 1e160, 3.0]), np.array([0.0, 1e160, 4.0])
        assert _within(dx, dy, 1e150).tolist() == [False, False, True]
        assert _within(dx, dy, 2e160).tolist() == [False, True, True]
        assert _within(dx, dy, math.inf).tolist() == [True, True, True]

    def test_chunks_within_budget_at_infinite_h(self, monkeypatch):
        # at h = inf each member is one cell, so every pair of a member is a
        # candidate: 4 * 500 * 499 / 2 = 499,000 node pairs and 600,000
        # node-centre pairs, each many times _PAIR_BUDGET
        rng = np.random.default_rng(7)
        positions = rng.uniform(-1.0, 1.0, (4, 500, 2))
        centers = rng.uniform(-1.0, 1.0, (4, 300, 2))
        bound = pointproc._PAIR_BUDGET + 4 * 500  # budget plus one pair per query
        chunks = []
        within = pointproc._within

        def spy(dx, dy, h):
            chunks.append(dx.size)
            return within(dx, dy, h)

        monkeypatch.setattr(pointproc, "_within", spy)
        i, _ = joined_pairs(_close_pairs(exact(positions), math.inf))
        assert i.size == sum(chunks) == 4 * 500 * 499 // 2
        assert len(chunks) > 1 and max(chunks) <= bound
        chunks.clear()
        assert boolean(positions, centers, math.inf).all()
        assert sum(chunks) == 4 * 500 * 300
        assert len(chunks) > 1 and max(chunks) <= bound

    def test_dense_pass_memory_not_above_window_search(self, monkeypatch):
        # the dense hc2 pass: pi rho_p h^2 = 4, n = 5625, 5 members; the
        # rank-offset search peaks no higher than the window search it
        # replaced, measured in this one process
        rng = np.random.default_rng(6)
        n = 5625
        radius = math.sqrt(n / (math.pi * RHO_P))
        h = math.sqrt(4.0 / (math.pi * RHO_P))
        positions = _to_disk(radius, rng.random((5, n)), rng.random((5, n)))
        marks = rng.random((5, n))
        x_t = np.array([R_T, 0.0])

        def peak(search):
            monkeypatch.setattr(pointproc, "_close_pairs", search)
            tracemalloc.start()
            try:
                active = hard_core(positions, marks, x_t, h)
                return tracemalloc.get_traced_memory()[1], active
            finally:
                tracemalloc.stop()

        rank_peak, rank_active = peak(_close_pairs)
        window_peak, window_active = peak(window_close_pairs)
        assert np.array_equal(rank_active, window_active)
        assert rank_peak <= window_peak

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates", "clumped"])
    def test_chunking_changes_nothing(self, kind, monkeypatch):
        positions, centers = stacked_layout(kind, 3)
        marks = np.random.default_rng(4).random(positions.shape[:2])
        x_t = np.array([0.3, 0.0])

        def activations():
            return [
                hard_core(positions, None, x_t, 0.3),
                hard_core(positions, marks, x_t, 0.3),
                boolean(positions, centers, 0.3),
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
        cfg = config(spec, n_branches=4, c=50.0)
        all_active = (h > 1.0) == (name == "boolean")
        for seed in range(3):
            active = realize(cfg, seed).active
            assert active.all() if all_active else not active.any()


# ---------------------------------------------------------------------------
# cellular lattice and scheduling
# ---------------------------------------------------------------------------

# The base-station lattice enumerated site by site: the brute-force oracle
# of the one-pass nearest-site search and of the band-0 test.

@dataclass(frozen=True)
class BaseStationLattice:
    """Hexagonal base-station lattice with a reuse-kappa frequency coloring.

    sites holds the station coordinates, ij their integer lattice coordinates
    in the (a1, a2) basis, and band0 flags the sublattice (anchored at the
    origin) that shares the representative receiver's frequency band.
    """

    sites: np.ndarray      # (M, 2)
    ij: np.ndarray         # (M, 2) integer coordinates
    band0: np.ndarray      # (M,) bool
    rho_c: float
    kappa: int
    spacing: float         # nearest-neighbor distance d

    @property
    def band0_sites(self) -> np.ndarray:
        return self.sites[self.band0]

    def cell_area(self) -> float:
        return math.sqrt(3.0) / 2.0 * self.spacing ** 2


def hex_lattice_band0(rho_c: float, kappa: int, extent: float) -> BaseStationLattice:
    """Hexagonal lattice of density rho_c covering a disk of radius extent.

    One in kappa sites (the sublattice containing the origin) is assigned to
    frequency band 0.  Supported reuse factors are those expressible as
    i^2 + i j + j^2: 1, 3, 4, 7.
    """
    if not rho_c > 0:
        raise ValueError(f"rho_c must be positive, got {rho_c}")
    if kappa not in _KAPPA_ANCHOR:
        raise ValueError(
            f"unsupported reuse factor kappa={kappa}; supported: {sorted(_KAPPA_ANCHOR)}"
        )
    d = hex_spacing(rho_c)
    # enumerate integer coordinates whose sites can fall inside the extent
    m1 = int(math.ceil(extent / d)) + 2
    m2 = int(math.ceil(extent / (d * math.sqrt(3.0) / 2.0))) + 2
    p, q = np.meshgrid(np.arange(-m1 - m2, m1 + m2 + 1), np.arange(-m2, m2 + 1))
    p = p.ravel()
    q = q.ravel()
    x = d * (p + 0.5 * q)
    y = d * (math.sqrt(3.0) / 2.0) * q
    keep = x * x + y * y <= extent * extent
    p, q, x, y = p[keep], q[keep], x[keep], y[keep]
    return BaseStationLattice(
        sites=np.column_stack((x, y)),
        ij=np.column_stack((p, q)),
        band0=_band0_mask(p, q, kappa),
        rho_c=rho_c,
        kappa=kappa,
        spacing=d,
    )


def lattice_for(config: NetworkConfig) -> BaseStationLattice:
    """The base-station lattice a cellular config implies.

    Extends three lattice spacings beyond the network disk so every in-disk
    mobile finds its true nearest station inside the generated set.  The
    simulation never builds it; it is the brute-force oracle that the
    one-pass nearest-site search is checked against.
    """
    spec = config.model
    d = hex_spacing(spec.rho_c)
    return hex_lattice_band0(spec.rho_c, spec.kappa, config.radius + 3.0 * d)


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
    def schedule(positions, marks, spacing, kappa):
        """_schedule on the float64 cells of positions: (active, serving)."""
        p, q, serving = _nearest_site(positions, spacing)
        return _schedule(p, q, marks, kappa), serving

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
        # the same points as draws: the float32 cell decision places each in
        # the cell the float64 pipeline gives it
        u_r = (np.hypot(pts[:, 0], pts[:, 1]) / cfg.radius) ** 2
        u_theta = np.arctan2(pts[:, 1], pts[:, 0]) / (2.0 * math.pi) % 1.0
        want = _nearest_site(_to_disk(cfg.radius, u_r, u_theta), lat.spacing)[:2]
        got = _cells(cfg.radius, lat.spacing, u_r[None], u_theta[None])
        np.testing.assert_array_equal(np.concatenate(got), np.stack(want))

    @staticmethod
    def schedule_brute(positions, marks, lat):
        """Slots by exhaustive search: each mobile's nearest lattice site, and
        per member and band-0 cell other than the origin's the minimal mark,
        ties to the lowest flattened index."""
        b, n = marks.shape
        pts = positions.reshape(-1, 2)
        owner = np.linalg.norm(pts[:, None, :] - lat.sites[None, :, :], axis=-1).argmin(axis=1)
        offset = pts - lat.sites[owner]
        serving = np.sqrt(offset[:, 0] ** 2 + offset[:, 1] ** 2)
        winner = {}
        for k, (site, mark) in enumerate(zip(owner, marks.ravel())):
            if lat.band0[site] and lat.ij[site].any():
                key = (k // n, site)
                if key not in winner or mark < marks.flat[winner[key]]:
                    winner[key] = k
        active = np.zeros(b * n, dtype=bool)
        active[list(winner.values())] = True
        return active.reshape(b, n), serving.reshape(b, n)

    @staticmethod
    def stack_case(lat, radius, kind, members, rng):
        """positions (members, n, 2) and marks on 4 levels, so ties are common."""
        n = 400
        if kind == "random":
            r = radius * np.sqrt(rng.random((members, n)))
            theta = 2.0 * math.pi * rng.random((members, n))
            positions = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
        else:
            band0 = lat.sites[lat.band0 & lat.ij.any(axis=1)]
            near = band0[np.argsort(np.hypot(band0[:, 0], band0[:, 1]))[:3]]
            jitter = 0.3 * lat.spacing * (rng.random((members, n, 2)) - 0.5)
            if kind == "no_eligible":  # every mobile in the origin cell
                positions = jitter
            elif kind == "one_cell":  # member 0's mobiles all in one band-0 cell
                positions = near[rng.integers(0, 3, (members, n))] + jitter
                positions[0] = near[0] + jitter[0]
            else:  # shared_cells: every member holds the same mobiles
                positions = np.broadcast_to(near[rng.integers(0, 3, n)] + jitter[0], (members, n, 2))
        marks = np.floor(4.0 * rng.random((members, n))) / 4.0
        return np.ascontiguousarray(positions), marks

    @pytest.mark.parametrize("members", [1, 25])
    @pytest.mark.parametrize("kind", ["random", "no_eligible", "one_cell", "shared_cells"])
    @pytest.mark.parametrize("kappa", [1, 3, 4, 7])
    def test_schedule_matches_brute_force_winners(self, kappa, kind, members):
        radius = 112.0
        lat = hex_lattice_band0(0.001, kappa, radius + 3.0 * hex_spacing(0.001))
        rng = np.random.default_rng([kappa, members])
        positions, marks = self.stack_case(lat, radius, kind, members, rng)
        want_active, want_serving = self.schedule_brute(positions, marks, lat)
        active, serving = self.schedule(positions, marks, lat.spacing, kappa)
        np.testing.assert_array_equal(active, want_active)
        np.testing.assert_array_equal(serving, want_serving)
        if kind == "no_eligible":
            assert not active.any()
        elif kind == "shared_cells":
            # members share cell indices but not cells: each picks its own
            assert (active.sum(axis=1) == active[0].sum()).all() and active[0].any()
        elif kind == "one_cell":
            assert active[0].sum() == 1

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
        (active,), (serving,) = self.schedule(pos[None], np.array([[0.5]]), lat.spacing, lat.kappa)
        assert active.all()
        assert serving[0] == pytest.approx(np.linalg.norm(pos[0] - site), rel=1e-12)

    def test_non_band0_occupant_silent(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        other_idx = np.flatnonzero(~lat.band0)
        pos = lat.sites[other_idx[0]][None, :] + 0.05 * lat.spacing
        (active,), _ = self.schedule(pos[None], np.array([[0.5]]), lat.spacing, lat.kappa)
        assert not active.any()

    def test_min_mark_wins_within_cell(self):
        cfg = self.cfg()
        lat = lattice_for(cfg)
        band0_idx = np.flatnonzero(lat.band0 & np.any(lat.ij != 0, axis=1))
        site = lat.sites[band0_idx[0]]
        pos = np.vstack([site + [0.1, 0.0], site + [0.0, 0.1], site + [0.1, 0.1]])
        marks = np.array([0.9, 0.05, 0.5])
        (active,), _ = self.schedule(pos[None], marks[None], lat.spacing, lat.kappa)
        assert list(active) == [False, True, False]

    def test_stacked_members_do_not_share_cells(self):
        # the same band-0 cell in two members of one stacked pass, one
        # occupant each: both transmit
        cfg = self.cfg()
        lat = lattice_for(cfg)
        band0_idx = np.flatnonzero(lat.band0 & np.any(lat.ij != 0, axis=1))
        pos = np.stack([lat.sites[band0_idx[:1]] + 0.05 * lat.spacing] * 2)
        active, _ = self.schedule(pos, np.array([[0.5], [0.2]]), lat.spacing, lat.kappa)
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
        # every member's share of one stacked pass (its draws, activation,
        # active positions and received powers) is realize on its own
        # generator, bit for bit, and leaves that generator where realize does
        cfg = config(self.STACK_MODELS[model], n_branches=4, c=200.0)
        n = cfg.n_nodes
        seeds = [np.random.SeedSequence(3, spawn_key=(k,)) for k in range(5)]
        rngs = [as_generator(seed) for seed in seeds]
        draws = _draws(cfg, rngs)
        active, positions = _activate(cfg, draws)
        received = _received(cfg, positions)
        counts = active.sum(axis=1)
        assert received.shape == (counts.sum(),)
        stop = 0
        for k, seed in enumerate(seeds):
            rng = as_generator(seed)
            single = realize(cfg, rng)
            rows = slice(stop, stop + counts[k])
            stop += counts[k]
            act = single.active
            want = {
                "active": act,
                "positions": single.positions[act],
                "received": single.power_weight[act] * single.radii()[act] ** -cfg.alpha,
                "all_positions": single.positions,
            }
            got = {
                "active": active[k],
                "positions": positions[rows],
                "received": received[rows],
                "all_positions": _to_disk(cfg.radius, draws[k, :n], draws[k, n:2 * n]),
            }
            if single.marks is not None:
                want["marks"], got["marks"] = single.marks, draws[k, 2 * n:]
            for name, value in want.items():
                assert got[name].dtype == value.dtype and got[name].shape == value.shape, name
                assert got[name].tobytes() == value.tobytes(), name
            assert single.power_weight[~act].tobytes() == bytes(8 * (n - counts[k]))
            assert (single.serving_distance is None) == (cfg.model.name != "cellular")
            if cfg.model.power_control:
                want = single.serving_distance[act] ** cfg.alpha
                assert single.power_weight[act].tobytes() == want.tobytes()
            else:
                assert np.all(single.power_weight[act] == 1.0)
            assert rngs[k].random() == rng.random()

    def test_received_power_past_the_float_range_is_inf(self):
        # at rho_p = 1e300 the nodes lie some 1e-150 from the receiver, so
        # r^-4 overflows: inf, without a warning
        cfg = config(ModelSpec("independent"), rho_p=1e300, r_t=1.0)
        ((active, received),) = pointproc.realize_passes(cfg, [0])
        assert active.all() and np.isinf(received).all()

    def test_received_power_at_the_receiver_is_inf(self):
        # rng.random can return 0.0, which places a node at the origin
        cfg = config(ModelSpec("independent"))
        assert np.isposinf(pointproc._received(cfg, np.zeros((1, 2)))).all()

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

    def test_cluster_count_is_derived(self):
        cfg = config(ModelSpec("boolean", h=R_T, rho_b=0.005), n_branches=4, c=10.0)
        assert cfg.n_clusters == round(math.pi * 0.005 * cfg.radius ** 2) == 20
        assert config(ModelSpec("hc1", h=1.0)).n_clusters == 0

    def test_constructs_and_realizes_silently_below_the_regime(self):
        # the constructor accepts c * nu <= 1 without a warning; the regime is
        # reported by simulate, and its effect by redraws and RealizationFailed
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cfg = config(ModelSpec("cellular", rho_c=0.001, kappa=3), n_branches=8, c=20.0)
            realize(cfg, 0)
        assert record == []
        assert cfg.c * cfg.nu_expected <= 1.0

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

    @pytest.mark.parametrize(
        "name,params,network,key",
        [
            ("hc1", {"h": 1.0}, {"n_branches": True}, "n_branches"),
            ("hc1", {"h": 1.0}, {"rho_p": True}, "rho_p"),
            ("hc1", {"h": 1.0}, {"alpha": True}, "alpha"),
            ("hc1", {"h": 1.0}, {"c": np.True_}, "c"),
            ("hc1", {"h": 1.0}, {"r_t": True}, "r_t"),
            ("hc2", {"h": True}, {}, "h"),
            ("boolean", {"h": 1.0, "rho_b": True}, {}, "rho_b"),
            ("cellular", {"rho_c": True, "kappa": 3}, {}, "rho_c"),
            ("cellular", {"rho_c": 0.001, "kappa": True}, {}, "kappa"),
        ],
    )
    def test_bool_is_not_a_number(self, name, params, network, key):
        # True would pass the range rules as 1 and reach the pipeline
        with pytest.raises(ValueError, match=rf"\b{key}\b.*not a bool"):
            config(ModelSpec(name, **params), **network)

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
