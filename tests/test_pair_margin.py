"""The float32 pair decision of hard-core and Boolean activation.

_activate places nodes and cluster centres in float32, in units of h, and
places exactly only the pairs within the margin of h (pointproc._close).  The
draws here put many node pairs, node-centre pairs and nodes around the
representative transmitter within rounding of h, or at the margin, and the
activation must equal the float64 pipeline's: every point placed by _to_disk
and every pair decided by _within (brute-force oracles over all pairs), with
the active nodes' exact positions bit for bit.
"""

import math

import numpy as np
import pytest

from mmsenet import pointproc
from mmsenet.pointproc import ModelSpec, NetworkConfig, _activate, _to_disk, _within
from test_cellular_cells import as_draws

# radius / h from which the margin 2^-15 L + 2^-18 reaches 1/2
FALLBACK_SCALE = 2.0 ** 14 - 2.0 ** -3
N_NODES = 240
# offsets of a pair from h: k ulps of 1, and about the margin
ULP_STEPS = np.arange(-8, 9) * 2.0 ** -52


def margin(scale):
    return pointproc._PAIR_MARGIN * scale + pointproc._PAIR_FLOOR


def network(name, radius, scale):
    """A one-branch config of N_NODES nodes on a disk of radius about radius,
    with h = radius / scale and x_t half way out."""
    rho_p = N_NODES / (math.pi * radius * radius)
    h = radius / scale
    rho_b = rho_p if name == "boolean" else None
    return NetworkConfig(rho_p=rho_p, alpha=4.0, n_branches=1, c=float(N_NODES),
                         r_t=0.5 * radius, model=ModelSpec(name, h=h, rho_b=rho_b))


def offsets(rng, count, eps):
    """Relative offsets from h: ulp steps, +-eps times a factor near 1, and
    log-spread from 2^-40 to 4 eps, each either way."""
    kind = rng.integers(0, 3, count)
    step = rng.choice(ULP_STEPS, count)
    at_margin = rng.choice([-1.0, 1.0], count) * eps * rng.uniform(0.9, 1.1, count)
    spread = rng.choice([-1.0, 1.0], count) * np.exp(
        rng.uniform(math.log(2.0 ** -40), math.log(4.0 * eps), count))
    return np.select([kind == 0, kind == 1], [step, at_margin], spread)


def partners(rng, anchors, h, eps):
    """Points at h (1 + offset) from anchors, in random directions."""
    distance = h * (1.0 + offsets(rng, len(anchors), eps))
    phi = 2.0 * math.pi * rng.random(len(anchors))
    return anchors + distance[:, None] * np.stack((np.cos(phi), np.sin(phi)), -1)


def member_draws(rng, config):
    """One member's draw row: a third of the nodes paired with each other at
    about h, a sixth about h from x_t, and for Boolean a third of the centres
    about h from a node; marks on few levels, so exact ties occur."""
    radius, h, n, m = config.radius, config.model.h, config.n_nodes, config.n_clusters
    eps = margin(radius / h)
    u = rng.random(2 * n + {"hc2": n, "boolean": 2 * m}.get(config.model.name, 0))
    u_r, u_theta = u[:n], u[n:2 * n]
    nodes = _to_disk(radius, u_r, u_theta)
    planted = [(slice(n // 3, 2 * n // 3), partners(rng, nodes[:n // 3], h, eps))]
    x_t = np.broadcast_to(config.x_t, (n // 6, 2))
    planted.append((slice(2 * n // 3, 2 * n // 3 + n // 6), partners(rng, x_t, h, eps)))
    if config.model.name == "boolean":
        u_c = u[2 * n:]
        anchors = nodes[rng.integers(0, n // 3, m // 3)]
        planted.append((slice(m // 3), partners(rng, anchors, h, eps), u_c[:m], u_c[m:]))
    for where, points, *target in planted:
        target_r, target_theta = target or (u_r, u_theta)
        pr, ptheta = as_draws(points, radius)
        inside = np.flatnonzero(pr < 1.0)  # points past the disk keep their draws
        target_r[where][inside] = pr[inside]
        target_theta[where][inside] = ptheta[inside]
    if config.model.name == "hc2":
        u[2 * n:] = np.floor(3.0 * u[2 * n:]) / 3.0
    return u


def brute_activation(config, u):
    """The float64 pipeline: all points by _to_disk, every pair by _within."""
    b, (n, m), h = len(u), (config.n_nodes, config.n_clusters), config.model.h
    name = config.model.name
    nodes = _to_disk(config.radius, u[:, :n], u[:, n:2 * n])
    if name == "boolean":
        centers = _to_disk(config.radius, u[:, 2 * n:2 * n + m], u[:, 2 * n + m:])
        dx = nodes[:, :, None, 0] - centers[:, None, :, 0]
        dy = nodes[:, :, None, 1] - centers[:, None, :, 1]
        return _within(dx, dy, h).any(axis=2), nodes
    dx = nodes[:, :, None, 0] - nodes[:, None, :, 0]
    dy = nodes[:, :, None, 1] - nodes[:, None, :, 1]
    close = _within(dx, dy, h)
    index = np.arange(n)
    close[:, index, index] = False
    if name == "hc1":
        active = ~close.any(axis=2)
    else:
        marks = u[:, 2 * n:]
        # j beats i: a lower mark, or an equal one at a lower index
        beats = (marks[:, None, :] < marks[:, :, None]) | (
            (marks[:, None, :] == marks[:, :, None]) & (index[None, :] < index[:, None]))
        active = ~(close & beats).any(axis=2)
    guard = _within(nodes[..., 0] - config.x_t[0], nodes[..., 1] - config.x_t[1], h)
    return active & ~guard, nodes


def planted(config, rng, members=3):
    return np.stack([member_draws(rng, config) for _ in range(members)])


def check(config, u):
    """_activate equals the float64 pipeline on draws u, positions bit for bit."""
    want, nodes = brute_activation(config, u)
    active, positions = _activate(config, u)
    assert active.tobytes() == want.tobytes()
    assert positions.tobytes() == nodes[want].tobytes()


SCALES = [0.7, 1.0, 3.0, 30.0, 300.0, 3000.0, FALLBACK_SCALE - 0.01, FALLBACK_SCALE, 3e4]


@pytest.mark.parametrize("name", ["hc1", "hc2", "boolean"])
@pytest.mark.parametrize("scale", SCALES)
def test_pairs_at_h_match_float64_pipeline(name, scale):
    config = network(name, 100.0, scale)
    check(config, planted(config, np.random.default_rng(int(scale * 7) + len(name))))


@pytest.mark.parametrize("name", ["hc1", "hc2", "boolean"])
@pytest.mark.parametrize("radius,scale", [
    # float32 would overflow or underflow here if it were not in units of h
    (1e150, 30.0), (1e-140, 30.0),
    # h past 2^511, where _within takes np.hypot
    (7e153, 1.0),
    # h = 3e-150 just above 2^-500, and 3e-152 below it, where float64 decides
    (9e-149, 30.0), (1e-150, 30.0),
])
def test_tiny_and_huge_scales(name, radius, scale):
    config = network(name, radius, scale)
    check(config, planted(config, np.random.default_rng(11)))


@pytest.mark.parametrize("name", ["hc1", "hc2", "boolean"])
@pytest.mark.parametrize("scale", [1.0, 30.0, 3000.0, 3e4])
def test_float64_points_only_active_nodes_and_unsure_pairs(name, scale, monkeypatch):
    # every exact placement goes through _place; outside the final one of
    # the active nodes it places only points of pairs whose float64 distance
    # lies within twice the margin of h, or within it of x_t
    config = network(name, 100.0, scale)
    n, m, h = config.n_nodes, config.n_clusters, config.model.h
    u = planted(config, np.random.default_rng(5), members=2)
    placed, placed_points = [], []
    place, to_disk = pointproc._place, pointproc._to_disk

    def spy_place(radius, u_r, u_theta, flat):
        is_center = np.shares_memory(u_r, u[:, 2 * n:])
        placed.append((is_center, flat))
        return place(radius, u_r, u_theta, flat)

    def spy_to_disk(radius, u_r, u_theta):
        placed_points.append(u_r.size)
        return to_disk(radius, u_r, u_theta)

    monkeypatch.setattr(pointproc, "_place", spy_place)
    monkeypatch.setattr(pointproc, "_to_disk", spy_to_disk)
    active, _ = _activate(config, u)
    monkeypatch.undo()
    want, nodes = brute_activation(config, u)
    assert active.tobytes() == want.tobytes()
    (final_center, final), *unsure = placed[::-1]
    assert not final_center and final.tolist() == np.flatnonzero(active).tolist()
    if scale >= FALLBACK_SCALE:
        # every point placed in float64 for the search, then the active nodes
        searched = [u[:, :n].size] + ([u[:, 2 * n:2 * n + m].size] if m else [])
        assert placed_points == searched + [final.size] and not unsure
        return
    assert unsure and sum(placed_points) == sum(flat.size for _, flat in placed)
    wide = 2.0 * margin(config.radius / h) * h
    stacks = {False: (nodes.reshape(-1, 2), np.repeat(np.arange(len(u)), n))}
    if name == "boolean":
        centers = _to_disk(config.radius, u[:, 2 * n:2 * n + m], u[:, 2 * n + m:])
        stacks[True] = centers.reshape(-1, 2), np.repeat(np.arange(len(u)), m)
        assert any(is_center for is_center, _ in unsure)
    near_xt = np.abs(np.hypot(*(stacks[False][0] - config.x_t).T) - h) <= wide
    for is_center, flat in unsure:
        points, member = (a[flat] for a in stacks[is_center])
        pool, pool_member = stacks[name == "boolean" and not is_center]
        d = np.hypot(points[:, None, 0] - pool[None, :, 0], points[:, None, 1] - pool[None, :, 1])
        ok = ((np.abs(d - h) <= wide) & (member[:, None] == pool_member[None, :])).any(axis=1)
        if not is_center:
            ok |= near_xt[flat]
        assert ok.all()


def rim_pairs(rng, radius, h, sign, count, pool=200_000):
    """Draws (u_r, u_a, u_b) of count point pairs on one circle near the rim,
    their exact distance h (1 + sign 2^-30), picked from a pool for the
    float32 distance that errs most across h; and those errors over h."""
    u_r = np.full(pool, 0.98 ** 2)
    u_a = rng.random(pool)
    u_b = (u_a + math.asin(h * (1.0 + sign * 2.0 ** -30) / (1.96 * radius)) / math.pi) % 1.0
    exact = np.hypot(*(_to_disk(radius, u_r, u_a) - _to_disk(radius, u_r, u_b)).T) / h
    xa, ya = pointproc._to_disk32(radius / h, u_r, u_a)
    xb, yb = pointproc._to_disk32(radius / h, u_r, u_b)
    err = sign * (exact - np.hypot(xa - xb, ya - yb).astype(float))
    top = np.argsort(err)[-count:]
    return u_r[top], u_a[top], u_b[top], err[top]


@pytest.mark.parametrize("name", ["hc1", "hc2", "boolean"])
@pytest.mark.parametrize("scale", [30.0, 300.0])
def test_pairs_that_need_the_margin(name, scale):
    # tangential pairs a hair inside and outside h whose float32 distances
    # err the most toward the other side: more than a 64th of the margin, so
    # a much thinner margin would decide some of them wrongly
    config = network(name, 100.0, scale)
    n, m, h = config.n_nodes, config.n_clusters, config.model.h
    rng = np.random.default_rng(int(scale))
    u = planted(config, rng, members=2)
    errors = []
    for row, sign in zip(u, (-1.0, 1.0)):
        u_r, u_a, u_b, err = rim_pairs(rng, config.radius, h, sign, n // 4)
        errors.append(err)
        k = u_r.size
        row[:k], row[n:n + k] = u_r, u_a
        if name == "boolean":
            row[2 * n:2 * n + k], row[2 * n + m:2 * n + m + k] = u_r, u_b
        else:
            row[k:2 * k], row[n + k:n + 2 * k] = u_r, u_b
    assert max(e.max() for e in errors) > margin(scale) / 64
    check(config, u)
