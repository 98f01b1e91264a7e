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

Geometry conventions: the receiver sits at the origin, the representative
transmitter at (r_T, 0), and R is derived from (N, c, rho_p) so that
n = round(pi rho_p R^2) = round(c N).  All randomness flows through an
explicit seed or numpy Generator, making every realization reproducible
byte for byte.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._warn import warn_caller

__all__ = [
    "ModelSpec",
    "NetworkConfig",
    "Realization",
    "BaseStationLattice",
    "as_generator",
    "sample_potential_interferers",
    "thin_hc1",
    "thin_hc2",
    "hex_lattice_band0",
    "schedule_cellular",
    "activate_boolean",
    "realize",
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


def as_generator(seed) -> np.random.Generator:
    """Normalize an int / SeedSequence / Generator into a Generator.

    Counter-based bit generator so that independent replication workers can
    derive disjoint streams from spawn keys.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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

def sample_potential_interferers(config: NetworkConfig, seed) -> np.ndarray:
    """n points uniform on the network disk, deterministic given the seed."""
    rng = as_generator(seed)
    return _uniform_disk(rng, config.n_nodes, config.radius)


def _uniform_disk(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(count))
    theta = 2.0 * math.pi * rng.random(count)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _close_pairs(positions: np.ndarray, h: float) -> np.ndarray:
    """Index pairs at mutual distance strictly below h."""
    pairs = cKDTree(positions).query_pairs(h, output_type="ndarray")
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    d = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
    return pairs[d < h]

def _near_point(positions: np.ndarray, point: np.ndarray, h: float) -> np.ndarray:
    return np.linalg.norm(positions - point, axis=1) < h


def thin_hc1(positions: np.ndarray, x_t: np.ndarray, h: float) -> np.ndarray:
    """Mute every node with any neighbor (or the representative) within h.

    Distances exactly equal to h do not deactivate; comparisons are strict.
    """
    n = positions.shape[0]
    active = np.ones(n, dtype=bool)
    if h <= 0:
        return active
    pairs = _close_pairs(positions, h)
    active[pairs.ravel()] = False
    active[_near_point(positions, x_t, h)] = False
    return active


def thin_hc2(
    positions: np.ndarray, marks: np.ndarray, x_t: np.ndarray, h: float
) -> np.ndarray:
    """Keep a node unless a strictly-lower-marked neighbor sits within h.

    Marks are i.i.d. uniform [0, 1); exact ties (probability zero) go to the
    lower node index for determinism.  Nodes within h of the representative
    transmitter are muted regardless of mark.
    """
    n = positions.shape[0]
    active = np.ones(n, dtype=bool)
    if h <= 0:
        return active
    pairs = _close_pairs(positions, h)
    if pairs.size:
        i, j = pairs[:, 0], pairs[:, 1]
        # query_pairs yields i < j, so equal marks dominate the larger index
        i_wins = marks[i] <= marks[j]
        losers = np.where(i_wins, j, i)
        active[losers] = False
    active[_near_point(positions, x_t, h)] = False
    return active


def activate_boolean(
    positions: np.ndarray, centers: np.ndarray, h: float
) -> np.ndarray:
    """Node transmits iff some cluster center lies strictly within h of it.

    The tree query stops at h: a node with no center within h gets an
    infinite distance, and a center exactly at h gives h or infinity, so the
    strict test below decides the same as an unbounded nearest-center query.
    """
    n = positions.shape[0]
    if h <= 0 or centers.shape[0] == 0:
        return np.zeros(n, dtype=bool)
    tree = cKDTree(centers, balanced_tree=False)
    nearest, _ = tree.query(positions, k=1, distance_upper_bound=h)
    return nearest < h


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
    conditions.
    """
    i, j = _KAPPA_ANCHOR[kappa]
    return ((p * (i + j) + q * j) % kappa == 0) & ((q * i - p * j) % kappa == 0)


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
    Returns (p, q, distances).
    """
    x, y = points[:, 0], points[:, 1]
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


def schedule_cellular(
    positions: np.ndarray,
    marks: np.ndarray,
    spacing: float,
    kappa: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Uplink TDMA slot assignment on the band-0 cells.

    Every mobile attaches to its nearest base station of the hexagonal
    lattice with nearest-neighbor distance spacing (the cells are the lattice
    Voronoi tessellation, found in one pass by hex rounding).  In each band-0
    cell of the reuse-kappa coloring other than the origin cell, the occupant
    with the minimal mark transmits; the origin cell's slot belongs to the
    representative transmitter, so its occupants stay silent.  Returns the
    activation mask and each mobile's distance to its serving station.
    """
    p, q, serving = _nearest_site(positions, spacing)
    active = np.zeros(positions.shape[0], dtype=bool)
    eligible = np.flatnonzero(_band0_mask(p, q, kappa) & ((p != 0) | (q != 0)))
    if eligible.size:
        # one int64 key per cell (|q| < 2**31); a stable sort by (cell, mark)
        # puts each cell's winner first: minimal mark, ties to the lower index
        cell = (p[eligible] << 32) + q[eligible]
        order = np.lexsort((marks[eligible], cell))
        cell_sorted = cell[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell_sorted[1:] != cell_sorted[:-1]
        active[eligible[order[first]]] = True
    return active, serving


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


def realize(config: NetworkConfig, seed) -> Realization:
    """Sample one complete network realization for the configured model.

    Draw order is fixed (positions, then marks or cluster centers), so a
    given (config, seed) pair reproduces the identical realization on any
    worker.
    """
    rng = as_generator(seed)
    spec = config.model
    positions = _uniform_disk(rng, config.n_nodes, config.radius)
    marks = None
    serving = None

    if spec.name == "independent":
        active = np.ones(config.n_nodes, dtype=bool)
    elif spec.name == "hc1":
        active = thin_hc1(positions, config.x_t, spec.h)
    elif spec.name == "hc2":
        marks = rng.random(config.n_nodes)
        active = thin_hc2(positions, marks, config.x_t, spec.h)
    elif spec.name == "cellular":
        marks = rng.random(config.n_nodes)
        active, serving = schedule_cellular(
            positions, marks, hex_spacing(spec.rho_c), spec.kappa
        )
    else:  # boolean
        centers = _uniform_disk(rng, config.n_clusters, config.radius)
        active = activate_boolean(positions, centers, spec.h)

    power_weight = np.where(active, 1.0, 0.0)
    if spec.power_control:
        power_weight = np.where(active, serving ** config.alpha, 0.0)
    return Realization(
        positions=positions,
        marks=marks,
        active=active,
        power_weight=power_weight,
        serving_distance=serving,
    )


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
