"""Network geometry and transmitter-activation models.

A disk network of radius R holds n potential interferers placed uniformly at
random; an activation rule decides which of them transmit, and with what
power weight, around a representative link of length r_T anchored at the
origin receiver.  Supported rules:

* ``independent`` -- every potential interferer transmits;
* ``hc1`` -- a node is muted if any other node (or the representative
  transmitter) lies strictly within the guard distance h;
* ``hc2`` -- contention is resolved by i.i.d. uniform marks: a node
  transmits unless a strictly closer-than-h neighbor carries a lower mark
  (or the representative transmitter is within h);
* ``cellular`` -- mobiles attach to the nearest hexagonal-lattice base
  station; in every frequency-band-0 cell except the origin cell the
  minimum-mark occupant transmits, optionally at power r_b^alpha to invert
  the path loss to its serving station;
* ``boolean`` -- a node transmits exactly when it falls strictly inside
  distance h of one of m uniformly placed cluster centers.

Every "within h" above is the one strict test sqrt(dx*dx + dy*dy) < h
(_within), so a distance of exactly h never counts.  Each rule runs as one
kernel over a stack of realizations (_hard_core, _schedule, _boolean).

Geometry conventions: the receiver sits at the origin, the representative
transmitter at (r_T, 0), and R is derived from (N, c, rho_p) so that
n = round(pi rho_p R^2) = round(c N).  All randomness flows through an
explicit seed or numpy Generator, making every realization reproducible
byte for byte.  Many realizations of one configuration are sampled as one
stack, each from its own generator, and every realization equals the one
realize draws alone from that generator.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._warn import warn_caller

__all__ = [
    "ModelSpec",
    "NetworkConfig",
    "Realization",
    "BaseStationLattice",
    "as_generator",
    "hex_lattice_band0",
    "realize",
    "realize_passes",
    "interference_weights",
    "realization_to_csv",
]

# the parameters each activation model takes, in the order the CSV label
# prints them; every other ModelSpec field must stay unset (None / False)
MODEL_PARAMS = {
    "independent": (),
    "hc1": ("h",),
    "hc2": ("h",),
    "cellular": ("rho_c", "kappa", "power_control"),
    "boolean": ("h", "rho_b"),
}
MODEL_NAMES = tuple(MODEL_PARAMS)

# sublattices of the hexagonal lattice exist for kappa = i^2 + i j + j^2
_KAPPA_ANCHOR = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}

# per parameter: its range rule (written so that NaN fails it), what a model
# that takes it needs, and its format in the CSV label
_PARAM_RULES = {
    "h": (lambda v: v >= 0, "needs h >= 0", "h={:.9g}"),
    "rho_b": (lambda v: v > 0, "needs rho_b > 0", "rho_b={:.9g}"),
    "rho_c": (lambda v: v > 0, "needs rho_c > 0", "rho_c={:.9g}"),
    "kappa": (lambda v: v in _KAPPA_ANCHOR,
              f"has an unsupported reuse factor (supported: {sorted(_KAPPA_ANCHOR)})", "kappa={}"),
    "power_control": (lambda v: isinstance(v, bool), "needs a bool power_control", "pc={:d}"),
}

_CSV_HEADER = "x,y,mark,active,power_weight,serving_distance"

# most nodes (cluster centers counted) in one stacked geometry pass, about
# 5 MB of pass arrays: a whole block of 800-node networks fits in one pass,
# while blocks of 12800-node cellular or 16000-node Boolean networks go two
# members at a time instead of adding tens of MB to the peak footprint
_NODE_BUDGET = 2 ** 15


def as_generator(seed) -> np.random.Generator:
    """Normalize an int / SeedSequence / Generator into a Generator.

    An int s or SeedSequence(s) keys the same counter-based Philox stream,
    so that replication workers can derive disjoint streams from spawn keys.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Activation model tag plus its parameters.

    MODEL_PARAMS names the parameters each model takes; the others stay unset.

    h: guard / cluster radius
    rho_b: cluster-center density
    rho_c: base-station density
    kappa: frequency-reuse factor
    power_control: mobiles transmit at r_b^alpha instead of unit power
    """

    name: str
    h: float | None = None
    rho_b: float | None = None
    rho_c: float | None = None
    kappa: int | None = None
    power_control: bool = False

    def __post_init__(self):
        if self.name not in MODEL_PARAMS:
            raise ValueError(f"unknown model {self.name!r}; expected one of {MODEL_NAMES}")
        for key, (valid, rule, _) in _PARAM_RULES.items():
            value = getattr(self, key)
            if key in MODEL_PARAMS[self.name]:
                ok = value is not None and valid(value)
            else:
                ok, rule = value is None or value is False, f"does not take {key}"
            if not ok:
                raise ValueError(f"model {self.name!r} {rule}, got {key}={value!r}")

    def params_label(self) -> str:
        """Canonical short string of the model parameters (CSV column)."""
        parts = [
            _PARAM_RULES[key][2].format(getattr(self, key)) for key in MODEL_PARAMS[self.name]
        ]
        return ";".join(parts) if parts else "-"


@dataclass(frozen=True)
class NetworkConfig:
    """One parameter point of the simulator.

    rho_p: area density of potential interferers
    alpha: path-loss exponent (> 2)
    n_branches: receive diversity branches N
    c: ratio of potential interferers to branches, n/N
    r_t: representative link length
    model: activation model

    The disk radius R = sqrt(c N / (pi rho_p)), the node count
    n = round(pi rho_p R^2) and the Boolean cluster count round(pi rho_b R^2)
    are derived, never set directly.
    """

    rho_p: float
    alpha: float
    n_branches: int
    c: float
    r_t: float
    model: ModelSpec

    def __post_init__(self):
        if not self.rho_p > 0:
            raise ValueError(f"rho_p must be positive, got {self.rho_p}")
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not (isinstance(self.n_branches, (int, np.integer)) and self.n_branches >= 1):
            raise ValueError(f"n_branches must be a positive integer, got {self.n_branches}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.r_t > 0:
            raise ValueError(f"r_t must be positive, got {self.r_t}")
        nu = self.nu_expected
        if self.c * nu <= 1.0:
            warn_caller(
                f"c * nu = {self.c * nu:.4g} <= 1 for model {self.model.name!r}: "
                "the interference covariance will often be singular"
            )

    @property
    def radius(self) -> float:
        """Network disk radius."""
        return math.sqrt(self.c * self.n_branches / (math.pi * self.rho_p))

    @property
    def n_nodes(self) -> int:
        """Number of potential interferers, round(pi rho_p R^2) = round(c N)."""
        return int(round(math.pi * self.rho_p * self.radius ** 2))

    @property
    def n_clusters(self) -> int:
        """Number of Boolean cluster centers, round(pi rho_b R^2); 0 for other models."""
        if self.model.rho_b is None:
            return 0
        return int(round(math.pi * self.model.rho_b * self.radius ** 2))

    @property
    def x_t(self) -> np.ndarray:
        """Representative transmitter position (r_t, 0)."""
        return np.array([self.r_t, 0.0])

    @property
    def nu_expected(self) -> float:
        """Limiting probability that a potential interferer transmits."""
        return self.predicted_density() / self.rho_p

    def predicted_density(self) -> float:
        """Limiting density of active interferers for the configured model.

        independent: rho_p
        hc1:         rho_p exp(-pi rho_p h^2)          (all conflicting nodes mute)
        hc2:         (1 - exp(-pi rho_p h^2))/(pi h^2) (lowest mark survives)
        cellular:    rho_c (1 - exp(-rho_p/rho_c))/kappa
        boolean:     rho_p (1 - exp(-pi rho_b h^2))    (coverage of the cluster disks)
        """
        m, rho_p, h = self.model, self.rho_p, self.model.h
        if m.name == "independent":
            return rho_p
        if m.name == "hc1":
            return rho_p * math.exp(-math.pi * rho_p * h * h)
        if m.name == "hc2":
            x = math.pi * rho_p * h * h
            area = math.pi * h * h
            if min(x, area) < sys.float_info.min:
                # below the normal range the ratio loses its precision, while the
                # density is rho_p (1 - x/2 + ...), rho_p to the last bit
                return rho_p
            # (1 - exp(-x)) / area <= rho_p always; only rounding can cross it
            return min(rho_p, -math.expm1(-x) / area)
        if m.name == "cellular":
            return m.rho_c * -math.expm1(-rho_p / m.rho_c) / m.kappa
        return rho_p * -math.expm1(-math.pi * m.rho_b * h * h)  # boolean


@dataclass
class Realization:
    """One sampled network: positions, marks, who transmits, at what weight.

    power_weight is 1 for active unit-power nodes, r_b^alpha for active
    power-controlled mobiles, 0 for silent nodes.  serving_distance holds the
    mobile-to-base-station distances for the cellular model, else None.
    """

    positions: np.ndarray       # (n, 2)
    marks: np.ndarray | None    # (n,) in [0, 1)
    active: np.ndarray          # (n,) bool
    power_weight: np.ndarray    # (n,)
    serving_distance: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.active))

    def radii(self) -> np.ndarray:
        """Distances of every potential interferer from the origin receiver."""
        return np.hypot(self.positions[:, 0], self.positions[:, 1])


# ---------------------------------------------------------------------------
# sampling and activation rules
# ---------------------------------------------------------------------------

def _to_disk(radius: float, u_r: np.ndarray, u_theta: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) radius and angle draws -> points uniform on the disk, (..., 2)."""
    r = radius * np.sqrt(u_r)
    theta = 2.0 * math.pi * u_theta
    points = np.empty(r.shape + (2,))
    points[..., 0] = r * np.cos(theta)
    points[..., 1] = r * np.sin(theta)
    return points


def _within(dx: np.ndarray, dy: np.ndarray, h: float) -> np.ndarray:
    # equal bit for bit to np.linalg.norm(np.column_stack((dx, dy)), axis=1) < h
    return np.sqrt(dx * dx + dy * dy) < h


# Banded cell-list neighbour search (the cell lists of molecular dynamics).
# _within(dx, dy, h) implies |dx| < reach and |dy| < reach for
# reach = max(h, 2^-511): in binary64 sqrt(d * d) == |d| unless d * d
# underflows, which happens only for |d| < 2^-511.
_REACH_FLOOR = 2.0 ** -511
# Bands are a relative 2^-20 taller than the reach and columns a quarter of
# a band wide.  The margin outweighs the rounding of the cell coordinates
# (under 2^-31 cells while an axis has at most _MAX_CELLS cells), so a pair
# closer than the reach lies in the same or adjacent bands and at most
# _SPLIT columns apart.  Taller cells are always correct, so an axis that
# would need more cells gets wider ones instead.
_CELL_MARGIN = 2.0 ** -20
_MAX_CELLS = 2 ** 20
_SPLIT = 4
# most candidate pairs one window expansion holds at a time
_PAIR_BUDGET = 2 ** 16


def _cell_keys(stacks: tuple, h: float) -> tuple[list, int]:
    """Integer cell keys of point stacks on one banded grid for the search at h.

    Each stack is (B, n, 2) with the member on the leading axis.  A point's
    key is (member * rows + band) * cols + column, exact in int64: the next
    band's key is one row, cols, higher; every member ends in an empty band
    and every band is padded by _SPLIT empty columns on both sides, so no
    window of +-_SPLIT columns in bands b-1, b or b+1 reaches another member.
    Returns the flattened keys of each stack and cols.
    """
    reach = max(h, _REACH_FLOOR)
    x_lo = min(float(s[..., 0].min()) for s in stacks)
    y_lo = min(float(s[..., 1].min()) for s in stacks)
    x_span = max(float(s[..., 0].max()) for s in stacks) - x_lo
    y_span = max(float(s[..., 1].max()) for s in stacks) - y_lo
    height = max(reach * (1.0 + _CELL_MARGIN), y_span / _MAX_CELLS)
    width = max(height / _SPLIT, x_span / _MAX_CELLS)
    bands = [np.floor((s[..., 1] - y_lo) / height).astype(np.int64) for s in stacks]
    columns = [np.floor((s[..., 0] - x_lo) / width).astype(np.int64) for s in stacks]
    rows = max(int(band.max()) for band in bands) + 2
    cols = max(int(column.max()) for column in columns) + 1 + 2 * _SPLIT
    keys = []
    for band, column in zip(bands, columns):
        member = np.arange(band.shape[0])[:, None]
        keys.append(((member * rows + band) * cols + column + _SPLIT).ravel())
    return keys, cols


def _window_pairs(lo: np.ndarray, hi: np.ndarray):
    """(query, position) index pairs of the ranges [lo[q], hi[q]).

    Yields them in chunks of whole queries, each of at most _PAIR_BUDGET
    pairs unless one query alone has more, so memory stays bounded however
    many pairs the windows hold.
    """
    count = hi - lo
    end = np.cumsum(count)
    first = 0
    while first < lo.size:
        base = end[first] - count[first]
        stop = max(first + 1, int(np.searchsorted(end, base + _PAIR_BUDGET, "right")))
        counts = count[first:stop]
        query = np.repeat(np.arange(first, stop), counts)
        shift = lo[first:stop] - (end[first:stop] - counts - base)
        yield query, np.arange(end[stop - 1] - base) + np.repeat(shift, counts)
        first = stop


def _close_pairs(positions: np.ndarray, h: float):
    """Pairs of a stack's members closer than h, as chunks (i, j) with i < j.

    positions is (B, n, 2); i and j index the flattened stack, and each pair
    comes once.  One banded cell-list search covers the whole stack: the
    points are sorted once by cell key (_cell_keys), and each point's
    candidates are the later points of its own band up to _SPLIT columns
    right and the points of the next band up to _SPLIT columns either side.
    The exact strict test _within decides each candidate, so the cell sizes
    only cost time, and the order of equal keys changes nothing.
    """
    size = positions.shape[0] * positions.shape[1]
    if not h > 0 or size == 0:
        return
    x, y = positions[..., 0].ravel(), positions[..., 1].ravel()
    (key,), cols = _cell_keys((positions,), h)
    order = np.argsort(key)
    key = key[order]
    lo = np.concatenate((np.arange(1, size + 1), np.searchsorted(key, key + cols - _SPLIT)))
    hi = np.concatenate((
        np.searchsorted(key, key + _SPLIT, "right"),
        np.searchsorted(key, key + cols + _SPLIT, "right"),
    ))
    for query, other in _window_pairs(lo, hi):
        i, j = order[query % size], order[other]
        close = _within(x[i] - x[j], y[i] - y[j], h)
        i, j = i[close], j[close]
        yield np.minimum(i, j), np.maximum(i, j)


def _hard_core(
    positions: np.ndarray, marks: np.ndarray | None, x_t: np.ndarray, h: float
) -> np.ndarray:
    """hc1 (marks None) or hc2 activation of a stack of members.

    positions is (B, n, 2) and marks (B, n); returns the (B, n) activation.
    hc1 mutes every node with a neighbour within h; hc2 keeps a node unless
    a neighbour within h carries a strictly lower mark, and an exact mark
    tie (probability zero) goes to the lower node index.  Either way a node
    within h of the representative x_t is muted regardless of its mark.
    Comparisons are strict: a distance of exactly h deactivates nothing.
    The close pairs of every member come from one banded search over the
    stack (_close_pairs); the guard around x_t runs once over the stack.
    """
    b, n = positions.shape[:2]
    active = np.ones(b * n, dtype=bool)
    flat_marks = None if marks is None else marks.ravel()
    for i, j in _close_pairs(positions, h):
        if flat_marks is None:
            active[i] = False
            active[j] = False
        else:
            # the lower mark survives; equal marks dominate the larger index
            active[np.where(flat_marks[i] <= flat_marks[j], j, i)] = False
    x, y = positions[..., 0].ravel(), positions[..., 1].ravel()
    active[_within(x - x_t[0], y - x_t[1], h)] = False
    return active.reshape(b, n)


def _boolean(positions: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    """Boolean activation of a stack: positions (B, n, 2), centers (B, m, 2).

    A node transmits iff some cluster center of its member lies strictly
    within h of it (_within); a center at distance exactly h does not cover
    it.  The banded cell-list search of _hard_core with the centers alone
    sorted by cell key: each node's candidates are the centers of bands b-1,
    b and b+1 up to _SPLIT columns either side (the nodes are sorted too,
    only so that the window searches run in key order).
    """
    b, n = positions.shape[:2]
    active = np.zeros(b * n, dtype=bool)
    if not h > 0 or centers.shape[1] == 0 or n == 0:
        return active.reshape(b, n)
    (node_key, center_key), cols = _cell_keys((positions, centers), h)
    nodes = np.argsort(node_key)
    by_center = np.argsort(center_key)
    node_key, center_key = node_key[nodes], center_key[by_center]
    lo = np.concatenate([
        np.searchsorted(center_key, node_key + band * cols - _SPLIT) for band in (-1, 0, 1)
    ])
    hi = np.concatenate([
        np.searchsorted(center_key, node_key + band * cols + _SPLIT, "right")
        for band in (-1, 0, 1)
    ])
    x, y = positions[..., 0].ravel(), positions[..., 1].ravel()
    cx, cy = centers[..., 0].ravel(), centers[..., 1].ravel()
    for query, other in _window_pairs(lo, hi):
        i, j = nodes[query % nodes.size], by_center[other]
        active[i[_within(x[i] - cx[j], y[i] - cy[j], h)]] = True
    return active.reshape(b, n)


# ---------------------------------------------------------------------------
# hexagonal cellular lattice
# ---------------------------------------------------------------------------

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


def hex_spacing(rho_c: float) -> float:
    """Nearest-neighbor distance of a hexagonal lattice of site density rho_c."""
    return math.sqrt(2.0 / (math.sqrt(3.0) * rho_c))


def _band0_mask(p: np.ndarray, q: np.ndarray, kappa: int) -> np.ndarray:
    """Sublattice-membership test for integer site coordinates (p, q).

    Band-0 sites are integer combinations of the anchor vector (i, j) and its
    60-degree rotation (-j, i+j); solving for the combination coefficients
    and clearing the determinant kappa = i^2 + ij + j^2 gives two integrality
    conditions.  For the primes kappa = 3 and 7, q i - p j takes every
    residue mod kappa, so its zeros form a subgroup of index kappa that
    contains the sublattice (also of index kappa): they are the sublattice,
    and that one condition decides.  For kappa = 4 (anchor (2, 0)) it takes
    only even residues, so both conditions stay; for kappa = 1 every site
    is in band 0.
    """
    if kappa == 1:
        return np.ones(np.shape(p), dtype=bool)
    i, j = _KAPPA_ANCHOR[kappa]
    mask = (q * i - p * j) % kappa == 0
    if kappa == 4:
        mask &= (p * (i + j) + q * j) % kappa == 0
    return mask


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


def _nearest_site(
    points: np.ndarray, spacing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer coordinates (p, q) of the nearest lattice site, and its distance.

    One pass of cube-coordinate hex rounding
    (https://www.redblobgames.com/grids/hexagons/#rounding): the fractional
    axial coordinates (f1, f2) and f3 = -f1 - f2 are rounded to integers, and
    the one with the largest rounding error is re-derived from the other two
    so the three again sum to zero.  This is exact, not a heuristic: the set
    of points that round to a site is that site's hexagonal Voronoi cell.
    points may carry leading axes (..., 2); returns (p, q, distances) of
    the leading shape.
    """
    x, y = points[..., 0], points[..., 1]
    f2 = y / (spacing * math.sqrt(3.0) / 2.0)
    f1 = x / spacing - 0.5 * f2
    f3 = -f1 - f2
    r1, r2, r3 = np.rint(f1), np.rint(f2), np.rint(f3)
    e1, e2, e3 = np.abs(r1 - f1), np.abs(r2 - f2), np.abs(r3 - f3)
    fix1 = (e1 > e2) & (e1 > e3)
    fix2 = ~fix1 & (e2 > e3)
    p = np.where(fix1, -r2 - r3, r1).astype(np.int64)
    q = np.where(fix2, -r1 - r3, r2).astype(np.int64)
    sx = spacing * (p + 0.5 * q)
    sy = spacing * (math.sqrt(3.0) / 2.0) * q
    d2 = (x - sx) ** 2 + (y - sy) ** 2
    return p, q, np.sqrt(d2)


def _schedule(
    positions: np.ndarray, marks: np.ndarray, spacing: float, kappa: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uplink TDMA slots of a stack: positions (B, n, 2), marks (B, n).

    Every mobile attaches to its nearest base station of the hexagonal
    lattice with nearest-neighbor distance spacing (the lattice Voronoi
    cells, found in one pass by _nearest_site).  In each band-0 cell of the
    reuse-kappa coloring other than the origin cell, the occupant with the
    minimal mark transmits; the origin cell's slot belongs to the
    representative transmitter, so its occupants stay silent.  Each member's
    cells are its own.  Returns the (B, n) activation and each mobile's
    distance to its serving station.
    """
    b, n = positions.shape[:2]
    p, q, serving = _nearest_site(positions, spacing)
    active = np.zeros(b * n, dtype=bool)
    eligible = np.flatnonzero(_band0_mask(p, q, kappa) & ((p != 0) | (q != 0)))
    if eligible.size:
        # one int64 key per (member, cell), ordered as (member, p, q), with
        # offsets and widths from this pass's own p and q ranges; a stable
        # sort by (key, mark) puts each cell's winner first: minimal mark,
        # ties to the lower index
        p, q = p.ravel()[eligible], q.ravel()[eligible]
        p_lo, q_lo = int(p.min()), int(q.min())
        p_span, q_span = int(p.max()) - p_lo + 1, int(q.max()) - q_lo + 1
        cell = ((eligible // n) * p_span + (p - p_lo)) * q_span + (q - q_lo)
        order = np.lexsort((marks.ravel()[eligible], cell))
        cell = cell[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell[1:] != cell[:-1]
        active[eligible[order[first]]] = True
    return active.reshape(b, n), serving


# ---------------------------------------------------------------------------
# full realization
# ---------------------------------------------------------------------------

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


def _realize_stack(config: NetworkConfig, rngs) -> tuple:
    """One stacked geometry pass: a realization per generator in rngs.

    Each member draws its uniforms from its own generator in a fixed order
    (node radii, node angles, then marks for hc2 and cellular, or cluster
    radii and angles for boolean), so a member's draws do not depend on the
    stack.  The disk transform, activation and power weights then run once
    over the stack; hard-core and Boolean activation search the whole pass
    with one banded cell list (_close_pairs, _boolean).  Returns the
    Realization fields (positions, marks, active, power_weight,
    serving_distance), each with a leading member axis, or None where the
    model has no such field.
    """
    spec, n, m = config.model, config.n_nodes, config.n_clusters
    extra = {"hc2": n, "cellular": n, "boolean": 2 * m}.get(spec.name, 0)
    u = np.empty((len(rngs), 2 * n + extra))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    positions = _to_disk(config.radius, u[:, :n], u[:, n:2 * n])
    marks = serving = None

    if spec.name == "independent":
        active = np.ones((len(rngs), n), dtype=bool)
    elif spec.name == "hc1":
        active = _hard_core(positions, None, config.x_t, spec.h)
    elif spec.name == "hc2":
        marks = u[:, 2 * n:]
        active = _hard_core(positions, marks, config.x_t, spec.h)
    elif spec.name == "cellular":
        marks = u[:, 2 * n:]
        active, serving = _schedule(positions, marks, hex_spacing(spec.rho_c), spec.kappa)
    else:  # boolean
        centers = _to_disk(config.radius, u[:, 2 * n:2 * n + m], u[:, 2 * n + m:])
        active = _boolean(positions, centers, spec.h)

    if spec.power_control:
        power_weight = np.where(active, serving ** config.alpha, 0.0)
    else:
        power_weight = np.where(active, 1.0, 0.0)
    return positions, marks, active, power_weight, serving


def realize(config: NetworkConfig, seed) -> Realization:
    """Sample one complete network realization for the configured model.

    A stacked geometry pass of one member.  Draw order is fixed (positions,
    then marks or cluster centers), so a given (config, seed) pair
    reproduces the identical realization on any worker and in any stack.
    """
    fields = _realize_stack(config, [as_generator(seed)])
    return Realization(*(None if f is None else f[0] for f in fields))


def realize_passes(config: NetworkConfig, seeds) -> Iterator[tuple]:
    """_realize_stack's fields for consecutive members of the iterable seeds.

    Member k's slice is realize(config, seeds[k]), and a Generator seed is
    left where realize leaves it.  A pass takes at most _NODE_BUDGET nodes
    (cluster centers counted, at least one member), which bounds its memory.
    """
    per_pass = max(1, _NODE_BUDGET // max(1, config.n_nodes + config.n_clusters))
    seeds = iter(seeds)
    while stack := [as_generator(seed) for seed in itertools.islice(seeds, per_pass)]:
        yield _realize_stack(config, stack)


def interference_weights(config: NetworkConfig, rngs) -> list[np.ndarray]:
    """Received power weights w_i r_i^-alpha of each realize_passes member's active interferers."""
    weights = []
    for positions, _, active, power_weight, _ in realize_passes(config, rngs):
        act = active.ravel()
        pos = positions.reshape(-1, 2)[act]
        radii = np.hypot(pos[:, 0], pos[:, 1])
        w = power_weight.ravel()[act] * radii ** -config.alpha
        stop = 0
        for count in active.sum(axis=1).tolist():
            weights.append(w[stop:stop + count])
            stop += count
    return weights


def realization_to_csv(realization: Realization, fileobj=None) -> str:
    """Debug dump: one row per potential interferer.

    Columns: x, y, mark, active, power_weight, serving_distance (empty when
    the model defines no marks / serving stations).
    """
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    n = realization.n_nodes
    marks = realization.marks
    serving = realization.serving_distance
    for k in range(n):
        mark = f"{marks[k]:.9g}" if marks is not None else ""
        serv = f"{serving[k]:.9g}" if serving is not None else ""
        buf.write(
            f"{realization.positions[k, 0]:.9g},{realization.positions[k, 1]:.9g},"
            f"{mark},{int(realization.active[k])},"
            f"{realization.power_weight[k]:.9g},{serv}\n"
        )
    text = buf.getvalue()
    if fileobj is not None:
        fileobj.write(text)
    return text
