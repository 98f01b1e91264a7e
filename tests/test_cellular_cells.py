"""The float32 cell decision and the cell table against the float64 scheduler.

frozen_nearest_site and frozen_schedule are the cellular scheduler as it
stood before cells were decided in float32: every mobile placed by _to_disk
and rounded to its hex cell in float64, and each cell's winner found by one
argsort of (member, cell) keys and two segment minima
(np.minimum.reduceat).  _cellular must give the same activation and winner
positions bit for bit, the winners the same serving distances, and _cells
the same cell for every mobile, including the mobiles that sit within
rounding of a hex edge or vertex.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mmsenet import pointproc  # noqa: E402
from mmsenet.pointproc import (  # noqa: E402
    _band0_mask,
    _cells,
    _cellular,
    _nearest_site,
    _to_disk,
    hex_spacing,
)

SPACING = hex_spacing(0.001)
# radius / spacing from which the float32 margin covers every mobile, up to
# its floor: 2^-14 L + 2^-24 >= 1/2 from L = 2^13 - 2^-10
FULL_MARGIN_SCALE = 2.0 ** 13


def frozen_nearest_site(points, spacing):
    """Cube-coordinate hex rounding in float64, as the scheduler did it."""
    x, y = points[..., 0], points[..., 1]
    f2 = y / (spacing * math.sqrt(3.0) / 2.0)
    f1 = x / spacing
    f1 -= 0.5 * f2
    f3 = np.negative(f1)
    f3 -= f2
    r1, r2, r3 = np.rint(f1), np.rint(f2), np.rint(f3)
    e1 = np.abs(np.subtract(r1, f1, out=f1), out=f1)
    e2 = np.abs(np.subtract(r2, f2, out=f2), out=f2)
    e3 = np.abs(np.subtract(r3, f3, out=f3), out=f3)
    fix1 = e1 > e2
    fix1 &= e1 > e3
    fix2 = e2 > e3
    fix2 &= ~fix1
    np.copyto(r1, np.subtract(np.negative(r2, out=e1), r3, out=e1), where=fix1)
    np.copyto(r2, np.subtract(np.negative(r1, out=e1), r3, out=e1), where=fix2)
    p, q = r1.astype(np.int64), r2.astype(np.int64)
    sx = np.multiply(0.5, q, out=e1)
    sx += p
    sx *= spacing
    sx = np.square(np.subtract(x, sx, out=sx), out=sx)
    sy = np.multiply(spacing * (math.sqrt(3.0) / 2.0), q, out=e2)
    sx += np.square(np.subtract(y, sy, out=sy), out=sy)
    return p, q, np.sqrt(sx, out=sx)


def frozen_schedule(positions, marks, spacing, kappa):
    """(B, n) activation and serving distances by sorted (member, cell) keys."""
    b, n = positions.shape[:2]
    p, q, serving = frozen_nearest_site(positions, spacing)
    active = np.zeros(b * n, dtype=bool)
    eligible = np.flatnonzero(_band0_mask(p, q, kappa) & ((p != 0) | (q != 0)))
    if eligible.size:
        p, q = p.ravel()[eligible], q.ravel()[eligible]
        p_lo, q_lo = int(p.min()), int(q.min())
        p_span, q_span = int(p.max()) - p_lo + 1, int(q.max()) - q_lo + 1
        cell = ((eligible // n) * p_span + (p - p_lo)) * q_span + (q - q_lo)
        order = np.argsort(cell)
        start = np.flatnonzero(np.diff(cell[order], prepend=-1))
        index = eligible[order]
        mark = marks.ravel()[index]
        low = np.minimum.reduceat(mark, start)
        index[mark != np.repeat(low, np.diff(start, append=mark.size))] = b * n
        active[np.minimum.reduceat(index, start)] = True
    return active.reshape(b, n), serving


def near_edges(rng, radius, spacing, count, lo, hi):
    """Points lo to hi lattice spacings from the edges and vertices of the
    hex cells they fall in, on either side, as (x, y)."""
    r = radius * np.sqrt(rng.random(count))
    theta = 2.0 * math.pi * rng.random(count)
    p, q, _ = frozen_nearest_site(np.stack((r * np.cos(theta), r * np.sin(theta)), -1), spacing)
    centre = spacing * np.stack((p + 0.5 * q, (math.sqrt(3.0) / 2.0) * q), -1)
    # edge k is the bisector toward the neighbour at angle k pi / 3; a point
    # along it, t = +-1 being its two vertices
    normal = math.pi / 3.0 * rng.integers(0, 6, count)
    t = np.where(rng.random(count) < 0.5, rng.integers(-1, 2, count), 2.0 * rng.random(count) - 1.0)
    along = normal + math.pi / 2.0
    point = centre + 0.5 * spacing * np.stack((np.cos(normal), np.sin(normal)), -1)
    point += (t * spacing / (2.0 * math.sqrt(3.0)))[:, None] * np.stack((np.cos(along), np.sin(along)), -1)
    # offsets on a log scale, in any direction: across the edge either way,
    # or into any of a vertex's three cells
    step = spacing * 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), count)
    toward = 2.0 * math.pi * rng.random(count)
    return point + step[:, None] * np.stack((np.cos(toward), np.sin(toward)), -1)


def as_draws(points, radius):
    """The (u_r, u_theta) that _to_disk maps to within rounding of points."""
    u_r = (np.hypot(points[:, 0], points[:, 1]) / radius) ** 2
    u_theta = np.arctan2(points[:, 1], points[:, 0]) / (2.0 * math.pi) % 1.0
    return u_r, u_theta


def draw_stack(seed, members, n, scale, edge_share, levels):
    """A (members, 3 n) draw matrix: radii, angles and marks per member, a
    share of the mobiles placed next to hex edges and vertices."""
    rng = np.random.default_rng(seed)
    radius = scale * SPACING
    u = rng.random((members, 3 * n))
    near = rng.random((members, n)) < edge_share
    count = int(near.sum())
    if count:
        u_r, u_theta = as_draws(near_edges(rng, radius, SPACING, count, 1e-15, 1e-2), radius)
        inside = u_r < 1.0  # points beyond the disk keep their uniform draws
        rows, cols = np.nonzero(near)
        u[rows[inside], cols[inside]] = u_r[inside]
        u[rows[inside], n + cols[inside]] = u_theta[inside]
    if levels:
        u[:, 2 * n:] = np.floor(levels * u[:, 2 * n:]) / levels
    return radius, u


def assert_matches_frozen(radius, u, kappa):
    n = u.shape[1] // 3
    u_r, u_theta, marks = u[:, :n], u[:, n:2 * n], u[:, 2 * n:]
    full = _to_disk(radius, u_r, u_theta)
    want_p, want_q, want_serving = frozen_nearest_site(full, SPACING)
    want_active, _ = frozen_schedule(full, marks, SPACING, kappa)
    p, q = _cells(radius, SPACING, u_r, u_theta)
    np.testing.assert_array_equal(p, want_p)
    np.testing.assert_array_equal(q, want_q)
    active, positions = _cellular(radius, SPACING, kappa, u_r, u_theta, marks)
    assert active.tobytes() == want_active.tobytes()
    assert positions.tobytes() == full[want_active].tobytes()
    serving = _nearest_site(positions, SPACING)[2]
    assert serving.tobytes() == want_serving[want_active].tobytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kappa=st.sampled_from([1, 3, 4, 7]),
    # radius / spacing from 0.3 to 3e4, past FULL_MARGIN_SCALE
    log_scale=st.floats(min_value=-0.5, max_value=4.5),
    members=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=80),
    edge_share=st.sampled_from([0.0, 0.5, 1.0]),
    # marks on this many levels (0: unquantized), so exact ties occur
    levels=st.sampled_from([0, 1, 2, 5]),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@example(kappa=3, log_scale=math.log10(FULL_MARGIN_SCALE), members=2, n=60, edge_share=1.0,
         levels=2, seed=1)
@example(kappa=7, log_scale=math.log10(FULL_MARGIN_SCALE - 0.01), members=2, n=60,
         edge_share=1.0, levels=2, seed=2)
# a (member, p, q) table index would overflow int64 here: 4 (2.3 L)^2 > 2^63
@example(kappa=3, log_scale=9.7, members=4, n=80, edge_share=0.5, levels=2, seed=3)
@example(kappa=4, log_scale=9.7, members=4, n=80, edge_share=0.0, levels=0, seed=4)
def test_cellular_equals_frozen_schedule(kappa, log_scale, members, n, edge_share, levels, seed):
    radius, u = draw_stack(seed, members, n, 10.0 ** log_scale, edge_share, levels)
    assert_matches_frozen(radius, u, kappa)


@pytest.mark.parametrize("scale", [8.8, 18.8, 150.0, 2000.0, 27918.0])
def test_bulk_draws_equal_frozen_cells(scale):
    # uniform draws as a simulation makes them, many members per pass
    radius, u = draw_stack(int(scale), 40, 5000, scale, 0.0, 0)
    assert_matches_frozen(radius, u, 3)


@pytest.mark.parametrize("scale", [0.3, 18.8, FULL_MARGIN_SCALE - 0.01, FULL_MARGIN_SCALE,
                                   3e4, 2.0 ** 48])
def test_margin_sends_every_mobile_to_float64_from_full_margin_scale(scale, monkeypatch):
    rounded, placed = [], []
    hex_round, nearest_site = pointproc._hex_round, pointproc._nearest_site

    def spy_round(f1, f2):
        rounded.append(f1.dtype)
        return hex_round(f1, f2)

    def spy_site(points, spacing):
        placed.append(points.shape[0])
        return nearest_site(points, spacing)

    monkeypatch.setattr(pointproc, "_hex_round", spy_round)
    monkeypatch.setattr(pointproc, "_nearest_site", spy_site)
    radius, u = draw_stack(5, 2, 400, scale, 0.5, 0)
    u_r, u_theta = u[:, :400], u[:, 400:800]
    p, q = _cells(radius, SPACING, u_r, u_theta)
    # the float32 rounding comes first; the exact pipeline rounds in float64
    assert rounded[0] == np.float32
    assert all(dtype == np.float64 for dtype in rounded[1:])
    if scale >= FULL_MARGIN_SCALE:
        assert placed == [800]
    want_p, want_q, _ = frozen_nearest_site(_to_disk(radius, u_r, u_theta), SPACING)
    np.testing.assert_array_equal(p, want_p)
    np.testing.assert_array_equal(q, want_q)
