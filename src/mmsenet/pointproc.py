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

Every "within h" above is the one strict test sqrt(dx*dx + dy*dy) < h on
exact float64 positions (_within; np.hypot for h past 2^511), so a distance
of exactly h never counts.  Each rule runs as one kernel over a stack of
realizations (_hard_core, _boolean, _cellular), and all of them place
exactly only what they read.  They decide on float32 points, in units of
h or of the station spacing, and send only the decisions within a stated
margin of their threshold to the exact float64 placement, which gives the
same activation bit for bit: a pair within 2^-15 R/h + 2^-18 of h (_close),
a mobile within 2^-14 R/s + 2^-24 of a cell edge (_cells).  From R/h of
about 2^14 (R/s of about 2^13) on, the margin would take nearly every
decision, and float64 points decide them all.  Only the active nodes are
then placed exactly.  A stacked pass (realize_passes) yields the
activation and the active nodes' received powers w_i r_i^-alpha, which
_received alone computes; realize rebuilds every node's fields from a
pass's draws.

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

__all__ = [
    "ModelSpec",
    "NetworkConfig",
    "Realization",
    "as_generator",
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
                if key != "power_control" and isinstance(value, (bool, np.bool_)):
                    ok, rule = False, f"needs a number for {key}, not a bool"
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
        for key in ("rho_p", "alpha", "n_branches", "c", "r_t"):
            if isinstance(getattr(self, key), (bool, np.bool_)):
                raise ValueError(f"{key} must be a number, not a bool, got {getattr(self, key)!r}")
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
    serving_distance: np.ndarray | None

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
    """Uniform [0, 1) radius and angle draws -> points uniform on the disk, (..., 2).

    The points are r cos(theta) and r sin(theta) with r = radius sqrt(u_r)
    and theta = 2 pi u_theta; sqrt, cos and sin share one contiguous buffer
    and the products go straight into the coordinate columns.
    """
    buf = np.sqrt(u_r)
    r = radius * buf
    theta = 2.0 * math.pi * u_theta
    points = np.empty(r.shape + (2,))
    np.multiply(r, np.cos(theta, out=buf), out=points[..., 0])
    np.multiply(r, np.sin(theta, out=buf), out=points[..., 1])
    return points


def _to_disk32(scale: float, u_r: np.ndarray, u_theta: np.ndarray) -> tuple:
    """_to_disk(scale, u_r, u_theta)'s x and y in float32, each of u_r's shape.

    The casts of the draws, sqrt, cos, sin and the products all round to
    float32; the margins of _cells and _close bound how far that strays.
    """
    rho = np.sqrt(u_r, dtype=np.float32)
    rho *= np.float32(scale)
    theta = np.multiply(u_theta, np.float32(2.0 * math.pi), dtype=np.float32)
    y = np.sin(theta)
    y *= rho
    x = np.cos(theta, out=theta)
    x *= rho
    return x, y


def _place(radius: float, u_r: np.ndarray, u_theta: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """_to_disk(radius, u_r, u_theta)'s points at the flat indices flat, (k, 2), bit for bit."""
    member, node = np.divmod(flat, u_r.shape[1])
    return _to_disk(radius, u_r[member, node], u_theta[member, node])


def _within(dx: np.ndarray, dy: np.ndarray, h: float) -> np.ndarray:
    # equal bit for bit to np.linalg.norm(np.column_stack((dx, dy)), axis=1) < h;
    # a square that overflows is a distance past 2^511, beyond any smaller h,
    # and np.hypot, which cannot overflow, serves every larger h
    if h > 2.0 ** 511:
        return np.hypot(dx, dy) < h
    with np.errstate(over="ignore"):
        return np.sqrt(dx * dx + dy * dy) < h


# The float32 pair decision of hard-core and Boolean activation.  Nodes and
# cluster centres are placed by _to_disk32 at L = radius / h, in units of h.
# With u = 2^-24, each float32 point lies within 13.3 u L of the exact one:
#   rho = L sqrt(u_r): the cast of u_r, sqrt, the product      2.5 u L radially
#   theta = 2 pi u_theta: the cast of u_theta, the product      7.2 u, so
#     7.2 u L tangentially (the cast of 2 pi is a rotation by 0.47 u theta)
#   cos, sin: 1.5 u each for numpy's float32 loops; the products u each:
#     3.6 u L together
# so a pair's float32 distance d, the root of its float32 squared distance
# s, differs from the exact distance over h by less than 30 u L + 6 u:
#   both points, and their rotations 2 pi apart at most        29.5 u L
#   the casts of L and 2 pi (common to all points), the rounding of dx and
#   dy, of the squares and of their sum, at d <= 1.5           5.1 u
#   for the guard, x_t / h rounded to float32: u |x_t| / h <= u (L + 2),
#     as _hard_core skips the guard where no node lies within 2 h of x_t;
#     with one point's 13.3 u L that stays under the bound
# while the float64 pipeline and _within's rounding stay within some
# 2^-50 (L + 1) of the exact distance, as long as h > 2^-500: squares of
# distances near h then stay in float64's normal range.  So _within holds
# where d < 1 - eps and fails where d > 1 + eps, for eps = 2^-15 L + 2^-18
# = 512 u L + 64 u, ten times the bound.  A pair in between is placed
# exactly and tested by _within.  The tests compare s with (1 -+ eps)^2
# rounded to float32, which moves d by u / 4 (counted above).  By the same
# bound a pair that _within holds for lies less than 1 + eps apart on each
# float32 axis, so 1 + eps is the reach of the float32 search.  From L of
# about 2^14 on, eps >= 1/2 and the margin holds nearly every candidate,
# and below h = 2^-500 _within's squares lose precision: in both cases the
# search runs on the float64 points themselves.
_PAIR_MARGIN = 2.0 ** -15
_PAIR_FLOOR = 2.0 ** -18
_PAIR_LOW = 2.0 ** -500


def _close(a: tuple, i: np.ndarray, b: tuple, j: np.ndarray, h: float, eps) -> np.ndarray:
    """Whether _within(dx, dy, h) holds for the exact positions of the pairs
    (point i of stack a, point j of stack b).

    A stack is (x, y, place) with x and y flat.  With eps None they are the
    exact positions.  Otherwise they are float32 positions in units of h, and
    place(k) gives the exact x and y of the points k; a pair within the
    margin eps of h (see above) is placed and decided by _within, every
    other is decided in float32.
    """
    (ax, ay, place_a), (bx, by, place_b) = a, b
    dx, dy = ax[i] - bx[j], ay[i] - by[j]
    if eps is None:
        return _within(dx, dy, h)
    dx *= dx
    dy *= dy
    dx += dy
    close = dx < (1.0 - eps) ** 2
    unsure = np.flatnonzero(dx <= (1.0 + eps) ** 2)
    unsure = unsure[~close[unsure]]
    if unsure.size:
        (px, py), (qx, qy) = place_a(i[unsure]), place_b(j[unsure])
        close[unsure] = _within(px - qx, py - qy, h)
    return close


# Banded cell-list neighbour search (the cell lists of molecular dynamics).
# _within(dx, dy, h) implies |dx| < reach and |dy| < reach for
# reach = max(h, 2^-511): in binary64 sqrt(d * d) == |d| unless d * d
# underflows, which happens only for |d| < 2^-511.  On float32 points in
# units of h the reach is 1 + eps (see _close).
_REACH_FLOOR = 2.0 ** -511
# Bands are a relative 2^-20 taller than the reach and columns a quarter of
# a band wide.  The margin outweighs the rounding of the cell coordinates
# (under 2^-31 cells while an axis has at most _MAX_CELLS cells; they are
# computed in float64 from float32 points too), so a pair closer than the
# reach lies in the same or adjacent bands and at most _SPLIT columns
# apart.  Taller cells are always correct, so an axis that would need more
# cells gets wider ones instead.
_CELL_MARGIN = 2.0 ** -20
_MAX_CELLS = 2 ** 20
_SPLIT = 4
# most candidate pairs one chunk of a search holds, unless one rank offset
# alone adds more (at most one per query)
_PAIR_BUDGET = 2 ** 16
# above every cell key: appended after the last rank, it ends every run of
# _offset_pairs there
_KEY_END = np.iinfo(np.int64).max


def _reach(h: float, eps) -> float:
    """The reach of a search at h: on exact points (eps None) or float32 ones in units of h."""
    return max(h, _REACH_FLOOR) if eps is None else 1.0 + eps


def _cell_keys(stacks: tuple, reach: float) -> tuple[list, int]:
    """Integer cell keys of point stacks on one banded grid for a search at reach.

    Each stack is (x, y, ...) with (B, n) planes x and y, the member on the
    leading axis.  A point's key is (member * rows + band) * cols + column,
    exact in int64: the next band's key is one row, cols, higher; every
    member ends in an empty band and every band is padded by _SPLIT empty
    columns on both sides, so the keys within _SPLIT of a point's key, or of
    that key +-cols (bands b-1 and b+1), belong to its own member.  Returns
    the flattened keys of each stack and cols.
    """
    x_lo = min(float(s[0].min()) for s in stacks)
    y_lo = min(float(s[1].min()) for s in stacks)
    x_span = max(float(s[0].max()) for s in stacks) - x_lo
    y_span = max(float(s[1].max()) for s in stacks) - y_lo
    height = max(reach * (1.0 + _CELL_MARGIN), y_span / _MAX_CELLS)
    width = max(height / _SPLIT, x_span / _MAX_CELLS)
    bands = [np.floor(np.subtract(s[1], y_lo, dtype=float) / height).astype(np.int64)
             for s in stacks]
    columns = [np.floor(np.subtract(s[0], x_lo, dtype=float) / width).astype(np.int64)
               for s in stacks]
    rows = max(int(band.max()) for band in bands) + 2
    cols = max(int(column.max()) for column in columns) + 1 + 2 * _SPLIT
    keys = []
    for band, column in zip(bands, columns):
        member = np.arange(band.shape[0])[:, None]
        keys.append(((member * rows + band) * cols + column + _SPLIT).ravel())
    return keys, cols


def _offset_pairs(key: np.ndarray, runs):
    """(query, rank) candidate pairs of runs of the sorted keys, in chunks.

    runs yields (start, limit) array pairs with one entry per query: the
    candidates of query q are the ranks start[q], start[q] + 1, ... for as
    long as key[rank] <= limit[q].  Every run takes one rank offset per
    step, and the queries whose run has ended drop out, so a step costs the
    live runs alone and adds at most one pair per query.  The pairs held are
    yielded before a step would take them past _PAIR_BUDGET, so a chunk
    holds at most _PAIR_BUDGET pairs, or one step's when that alone is more:
    never more than _PAIR_BUDGET plus the number of queries, however dense
    the keys.
    """
    key = np.append(key, _KEY_END)
    queries, ranks = [], []
    count = 0
    for rank, limit in runs:
        query = None  # the first step's live indices are the queries themselves
        while True:
            live = np.flatnonzero(key[rank] <= limit)
            if not live.size:
                break
            if count + live.size > _PAIR_BUDGET and queries:
                # the pieces go before the chunk is tested, so they do not
                # double its memory
                chunk = np.concatenate(queries), np.concatenate(ranks)
                queries, ranks = [], []
                count = 0
                yield chunk
            query = live if query is None else query[live]
            rank, limit = rank[live], limit[live]
            queries.append(query)
            ranks.append(rank)
            count += live.size
            rank = rank + 1
    if queries:
        yield np.concatenate(queries), np.concatenate(ranks)


def _flat(stack: tuple) -> tuple:
    """A stack (x, y, place) with its (B, n) planes flattened, for _close."""
    return stack[0].ravel(), stack[1].ravel(), stack[2]


def _close_pairs(stack: tuple, h: float, eps=None):
    """Pairs of a stack's members closer than h, as chunks (i, j) with i < j.

    stack is (x, y, place) with (B, n) planes; i and j index the flattened
    stack, and each pair comes once.  One banded cell-list search covers
    the whole stack: the points are sorted once by cell key (_cell_keys),
    and each point's candidates are read off the sorted order by rank offset
    (_offset_pairs): the later points of its own band up to _SPLIT columns
    right, and the points of the next band up to _SPLIT columns either side,
    whose run starts at one searchsorted.  _close decides each chunk of
    candidates (exactly, or in float32 with eps), so the cell sizes only
    cost time, and the order of equal keys changes nothing.
    """
    size = stack[0].size
    if not h > 0 or size == 0:
        return
    (key,), cols = _cell_keys((stack,), _reach(h, eps))
    order = np.argsort(key)
    key = key[order]
    points = _flat(stack)

    def runs():
        yield np.arange(1, size + 1), key + _SPLIT
        yield np.searchsorted(key, key + (cols - _SPLIT)), key + (cols + _SPLIT)

    for query, other in _offset_pairs(key, runs()):
        i, j = order[query], order[other]
        close = _close(points, i, points, j, h, eps)
        i, j = i[close], j[close]
        yield np.minimum(i, j), np.maximum(i, j)


def _hard_core(nodes: tuple, marks: np.ndarray | None, x_t: np.ndarray, h: float, eps,
               largest: float) -> np.ndarray:
    """hc1 (marks None) or hc2 activation of a stack of members.

    nodes is a (x, y, place) stack of (B, n) planes (see _close) whose exact
    positions lie within radius largest of the origin, and marks is (B, n);
    returns the (B, n) activation.  hc1 mutes every node with a neighbour
    within h; hc2 keeps a node unless a neighbour within h carries a
    strictly lower mark, and an exact mark tie (probability zero) goes to
    the lower node index.  Either way a node within h of the representative
    x_t is muted regardless of its mark.  Comparisons are strict: a distance
    of exactly h deactivates nothing.  The close pairs of every member come
    from one banded search over the stack (_close_pairs), unless h is beyond
    every pair: past twice largest, by the relative margin _CELL_MARGIN
    (which covers the rounding of the pair distances, and the absolute
    error of squares that underflow through the floor).  Then hc1 mutes
    every member of two or more nodes whole, and hc2 keeps each member's
    first lowest mark.  The guard around x_t runs once over the stack, where
    x_t lies within 2 h of largest.
    """
    b, n = nodes[0].shape
    if n and h > max(2.0 * largest, _REACH_FLOOR) * (1.0 + _CELL_MARGIN):
        if marks is None:
            active = np.full(b * n, n < 2)
        else:
            active = np.zeros(b * n, dtype=bool)
            active[np.arange(b) * n + marks.argmin(axis=1)] = True
    else:
        active = np.ones(b * n, dtype=bool)
        flat_marks = None if marks is None else marks.ravel()
        for i, j in _close_pairs(nodes, h, eps):
            if flat_marks is None:
                active[i] = False
                active[j] = False
            else:
                # the lower mark survives; equal marks dominate the larger index
                active[np.where(flat_marks[i] <= flat_marks[j], j, i)] = False
    if math.hypot(*x_t) <= (largest + 2.0 * h) * (1.0 + _CELL_MARGIN):
        t = x_t if eps is None else (x_t / h).astype(np.float32)
        guard = _close(_flat(nodes), np.arange(b * n), (t[:1], t[1:], lambda k: x_t),
                       np.zeros(b * n, dtype=np.intp), h, eps)
        active[guard] = False
    return active.reshape(b, n)


def _boolean(nodes: tuple, centers: tuple, h: float, eps=None) -> np.ndarray:
    """Boolean activation of a stack: nodes (B, n) and centers (B, m) stacks (see _close).

    A node transmits iff some cluster center of its member lies strictly
    within h of it (_close); a center at distance exactly h does not cover
    it.  The banded cell-list search of _close_pairs with the nodes and the
    centers each sorted by cell key: a node's candidates are the centers of
    bands b-1, b and b+1 up to _SPLIT columns either side, one run per band
    that starts at one searchsorted and steps by rank offset.  The nodes are
    sorted only so that those searches run in key order.
    """
    b, n = nodes[0].shape
    active = np.zeros(b * n, dtype=bool)
    if not h > 0 or centers[0].shape[1] == 0 or n == 0:
        return active.reshape(b, n)
    (node_key, center_key), cols = _cell_keys((nodes, centers), _reach(h, eps))
    by_node = np.argsort(node_key)
    by_center = np.argsort(center_key)
    node_key, center_key = node_key[by_node], center_key[by_center]
    runs = (
        (np.searchsorted(center_key, node_key + (band * cols - _SPLIT)),
         node_key + (band * cols + _SPLIT))
        for band in (-1, 0, 1)
    )
    points, cluster_points = _flat(nodes), _flat(centers)
    for query, other in _offset_pairs(center_key, runs):
        i, j = by_node[query], by_center[other]
        active[i[_close(points, i, cluster_points, j, h, eps)]] = True
    return active.reshape(b, n)


# ---------------------------------------------------------------------------
# hexagonal cellular lattice
# ---------------------------------------------------------------------------

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
    # v % kappa == 0 as v // kappa * kappa == v: numpy's int64 floor
    # division by a scalar is some ten times faster than its remainder
    v = q * i - p * j
    mask = v // kappa * kappa == v
    if kappa == 4:
        v = p * (i + j) + q * j
        mask &= v // kappa * kappa == v
    return mask


def _hex_round(f1: np.ndarray, f2: np.ndarray) -> tuple:
    """Cube-coordinate hex rounding of fractional axial coordinates (f1, f2).

    One pass (https://www.redblobgames.com/grids/hexagons/#rounding): f1, f2
    and f3 = -f1 - f2 are rounded to integers, and the one with the largest
    rounding error is re-derived from the other two so the three again sum
    to zero.  This is exact, not a heuristic: the set of points that round
    to a site is that site's hexagonal Voronoi cell.  The arithmetic runs in
    the precision of f1 and f2, whose buffers the rounding errors
    |rint(f) - f| overwrite; each error is exact, since rint(f) and f are
    close enough that their difference needs no rounding.  Returns the
    site's integer coordinates (p, q) and the errors (e1, e2, e3).
    """
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
    # re-deriving r1 as -r2 - r3 subtracts the integer sum r1 + r2 + r3 from
    # it, and likewise for r2 (fix1 and fix2 are disjoint); multiplying by
    # the masks is some twenty times faster than a masked (where=) subtract
    r3 += r1
    r3 += r2
    r1 -= fix1 * r3
    r2 -= fix2 * r3
    return r1.astype(np.int64), r2.astype(np.int64), (e1, e2, e3)


def _nearest_site(
    points: np.ndarray, spacing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer coordinates (p, q) of the nearest lattice site, and its distance.

    The fractional axial coordinates of each point go through _hex_round in
    float64.  points may carry leading axes (..., 2); returns (p, q,
    distances) of the leading shape.  The site offsets and distances reuse
    the rounding-error buffers: a pass is too large to stay in cache, and
    each fresh array costs page faults as well as memory traffic.
    """
    x, y = points[..., 0], points[..., 1]
    f2 = y / (spacing * math.sqrt(3.0) / 2.0)
    f1 = x / spacing
    f1 -= 0.5 * f2
    p, q, (e1, e2, _) = _hex_round(f1, f2)
    sx = np.multiply(0.5, q, out=e1)
    sx += p
    sx *= spacing
    sx = np.square(np.subtract(x, sx, out=sx), out=sx)
    sy = np.multiply(spacing * (math.sqrt(3.0) / 2.0), q, out=e2)
    sx += np.square(np.subtract(y, sy, out=sy), out=sy)
    return p, q, np.sqrt(sx, out=sx)


# The float32 cell decision of _cells.  With L = radius / spacing and
# u = 2^-24 (float32's unit roundoff), its fractional axial coordinates
# differ from the exact ones by less than 67 u L:
#   rho = L sqrt(u_r): the casts of u_r and L, sqrt, the product   3.5 u L
#   theta = 2 pi u_theta: the casts of u_theta and 2 pi, product   15.7 u
#   cos, sin: theta's error, plus 2 u for numpy's float32 loops    17.7 u
#     (1.49 ulp documented for its SIMD loops, under 1 for libm)
#   rho cos, rho sin: 17.7 + 3.5, plus their rounding              22.2 u L
#   f2 = 2/sqrt(3) rho sin: 1.155 (22.2 + the constant's 1 + 1)     28.0 u L
#   f1 = rho cos - f2 / 2: 22.2 + 28.0 / 2 + 1.2                   37.4 u L
#   f3 = -f1 - f2: 37.4 + 28.0 + 1.2                               66.6 u L
# and the float64 pipeline (_nearest_site of _to_disk) differs from the
# exact ones by some 2^-50 L.  Both compute each rounding error
# e_i = |rint(f_i) - f_i| exactly.  So where every float32 f_i lies more
# than eps from the nearest half-integer, both pipelines round it to the
# same integer and their e_i differ by less than eps; where moreover every
# pair of float32 e_i lies more than 2 eps apart, the fix-up comparisons
# agree as well, and (p, q) is the float64 pipeline's bit for bit.  The
# margin eps = 2^-14 L = 1024 u L is 15 times the bound.  The floor 2^-24
# covers the errors that do not scale with L: the rounding of the margin
# tests themselves (at most 2^-26) and float32 underflow at tiny L.
_F32_MARGIN = 2.0 ** -14
_F32_FLOOR = 2.0 ** -24


def _cells(radius: float, spacing: float, u_r: np.ndarray, u_theta: np.ndarray) -> tuple:
    """Each mobile's cell (p, q): _nearest_site(_to_disk(radius, u_r, u_theta), spacing)'s.

    u_r and u_theta are the (B, n) radius and angle draws.  The cells are
    rounded in float32, and a mobile within the margin eps of a cell-edge
    decision (see above) is placed and rounded by the float64 pipeline
    instead.  From radius / spacing of about 2^13 on, eps >= 1/2 and the
    margin covers every mobile, so all of them take the float64 pipeline.
    """
    scale = radius / spacing
    eps = _F32_MARGIN * scale + _F32_FLOOR
    f1, f2 = _to_disk32(scale, u_r, u_theta)
    f2 *= np.float32(2.0 / math.sqrt(3.0))
    f1 -= 0.5 * f2
    p, q, (e1, e2, e3) = _hex_round(f1, f2)
    # the thresholds round to float32, by at most 2^-26 (the floor's share)
    gap = np.maximum(e1, e2)
    unsafe = np.maximum(gap, e3, out=gap) >= 0.5 - eps
    for a, b in ((e1, e2), (e1, e3), (e2, e3)):
        unsafe |= np.abs(np.subtract(a, b, out=gap), out=gap) <= 2.0 * eps
    unsafe = np.flatnonzero(unsafe)
    exact = _nearest_site(_place(radius, u_r, u_theta, unsafe), spacing)
    p.reshape(-1)[unsafe], q.reshape(-1)[unsafe] = exact[:2]
    return p, q


# most (member, cell) table entries _schedule spans per mobile; a pass
# whose lattice is sparser in mobiles indexes only its occupied cells
_TABLE_PER_MOBILE = 4


def _schedule(p: np.ndarray, q: np.ndarray, marks: np.ndarray, kappa: int) -> np.ndarray:
    """Uplink TDMA slots of a stack: the mobiles' cells (p, q) and marks, each (B, n).

    In each band-0 cell of the reuse-kappa coloring other than the origin
    cell, the occupant with the minimal mark transmits, and an exact tie
    goes to the lower flattened index; the origin cell's slot belongs to
    the representative transmitter, so its occupants stay silent.  Each
    member's cells are its own.  One table with an entry per (member, cell)
    takes each cell's lowest mark (np.minimum.at) and then the lowest index
    among the occupants that hold it, so ties need no ordering; the band-0
    and origin tests run once per table entry.  The table spans the pass's
    p and q ranges, or holds only the occupied cells where that span would
    exceed _TABLE_PER_MOBILE entries per mobile (stations far denser than
    mobiles).  Returns the (B, n) activation.
    """
    b, n = marks.shape
    active = np.zeros(b * n, dtype=bool)
    if not active.size:
        return active.reshape(b, n)
    p_lo, q_lo = int(p.min()), int(q.min())
    p_span, q_span = int(p.max()) - p_lo + 1, int(q.max()) - q_lo + 1
    if b * p_span * q_span > _TABLE_PER_MOBILE * active.size:
        # the occupied (member, p, q) triples, which no int64 key can
        # overflow however sparse the pass
        member = np.broadcast_to(np.arange(b)[:, None], (b, n))
        triples = np.stack((member.reshape(-1), p.reshape(-1), q.reshape(-1)))
        (_, cell_p, cell_q), cell = np.unique(triples, axis=1, return_inverse=True)
    else:
        cell = p - p_lo
        cell += np.arange(b)[:, None] * p_span
        cell *= q_span
        cell += q
        cell -= q_lo
        cell_p, cell_q = np.divmod(np.arange(b * p_span * q_span), q_span)
        cell_p %= p_span
        cell_p += p_lo
        cell_q += q_lo
    cell = cell.reshape(-1)
    marks = marks.reshape(-1)
    low = np.full(cell_p.size, np.inf)
    np.minimum.at(low, cell, marks)
    holders = np.flatnonzero(marks == low[cell])
    first = np.full(cell_p.size, active.size)
    np.minimum.at(first, cell[holders], holders)
    slot = _band0_mask(cell_p, cell_q, kappa) & ((cell_p != 0) | (cell_q != 0))
    slot &= first < active.size
    active[first[slot]] = True
    return active.reshape(b, n)


def _cellular(radius: float, spacing: float, kappa: int, u_r: np.ndarray, u_theta: np.ndarray,
              marks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellular activation of a stack from its (B, n) draws: the (B, n)
    activation, and the winners' positions (K, 2), member after member.

    The cells come from _cells and the winners from _schedule; only the
    winners are placed, bit for bit as a pass over every mobile would.
    """
    active = _schedule(*_cells(radius, spacing, u_r, u_theta), marks, kappa)
    return active, _place(radius, u_r, u_theta, np.flatnonzero(active))


# ---------------------------------------------------------------------------
# full realization
# ---------------------------------------------------------------------------

def _draws(config: NetworkConfig, rngs) -> np.ndarray:
    """The (B, k) uniforms of a stack, a row per generator in rngs.

    Each member draws from its own generator in a fixed order (node radii,
    node angles, then marks for hc2 and cellular, or cluster radii and
    angles for boolean), so a member's draws do not depend on the stack.
    """
    n, m = config.n_nodes, config.n_clusters
    extra = {"hc2": n, "cellular": n, "boolean": 2 * m}.get(config.model.name, 0)
    u = np.empty((len(rngs), 2 * n + extra))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    return u


def _stack(radius: float, h: float, eps, u_r: np.ndarray, u_theta: np.ndarray) -> tuple:
    """The (x, y, place) stack (see _close) of (B, k) draws for a search at h:
    _to_disk's points when eps is None, else _to_disk32's in units of h."""
    if eps is None:
        points = _to_disk(radius, u_r, u_theta)
        return points[..., 0], points[..., 1], None
    return *_to_disk32(radius / h, u_r, u_theta), lambda k: _place(radius, u_r, u_theta, k).T


def _activate(config: NetworkConfig, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n) activation of a stack's draws u, and the active nodes' exact
    positions (K, 2), member after member.

    Activation runs once over the stack, and only the active nodes are
    placed exactly.  Hard-core and Boolean activation search the whole pass
    with one banded cell list (_close_pairs, _boolean) on float32 points,
    placing exactly only the pairs within the margin of h (_close), or on
    exact points where that margin would cover every pair; cellular
    activation decides cells the same way (_cells).
    """
    spec, n, m, radius = config.model, config.n_nodes, config.n_clusters, config.radius
    u_r, u_theta = u[:, :n], u[:, n:2 * n]
    if spec.name == "cellular":
        return _cellular(radius, hex_spacing(spec.rho_c), spec.kappa, u_r, u_theta, u[:, 2 * n:])
    if spec.name == "independent":
        active = np.ones((len(u), n), dtype=bool)
    else:
        h = spec.h
        # float32 points, unless the margin would cover every pair or h is too small
        eps = _PAIR_MARGIN * radius / h + _PAIR_FLOOR if h > _PAIR_LOW else math.inf
        eps = eps if eps < 0.5 else None
        nodes = _stack(radius, h, eps, u_r, u_theta)
        if spec.name == "boolean":
            centers = _stack(radius, h, eps, u[:, 2 * n:2 * n + m], u[:, 2 * n + m:])
            active = _boolean(nodes, centers, h, eps)
        else:  # hc1, or hc2 with its marks
            marks = u[:, 2 * n:] if spec.name == "hc2" else None
            largest = radius * math.sqrt(u_r.max()) if n else 0.0
            active = _hard_core(nodes, marks, config.x_t, h, eps, largest)
    return active, _place(radius, u_r, u_theta, np.flatnonzero(active))


def _received(config: NetworkConfig, positions: np.ndarray) -> np.ndarray:
    """Received powers w_i r_i^-alpha of active nodes at positions (K, 2), inf
    past the float range or at the receiver: the one place the power law is
    computed.  w_i is 1, or r_b^alpha for a power-controlled mobile r_b from
    its serving station.
    """
    with np.errstate(over="ignore", divide="ignore"):
        received = np.hypot(positions[:, 0], positions[:, 1]) ** -config.alpha
    if config.model.power_control:
        serving = _nearest_site(positions, hex_spacing(config.model.rho_c))[2]
        received = serving ** config.alpha * received
    return received


def realize(config: NetworkConfig, seed) -> Realization:
    """Sample one complete network realization for the configured model.

    The activation of a one-member pass (_draws, _activate), with every
    node's fields rebuilt from its draws: positions, marks, the cellular
    serving distances and the transmit weights.  A given (config, seed)
    reproduces the identical realization on any worker and in any stack.
    """
    u = _draws(config, [as_generator(seed)])
    (active,), _ = _activate(config, u)
    u, spec, n = u[0], config.model, config.n_nodes
    positions = _to_disk(config.radius, u[:n], u[n:2 * n])
    marks = u[2 * n:] if spec.name in ("hc2", "cellular") else None
    serving = _nearest_site(positions, hex_spacing(spec.rho_c))[2] if spec.rho_c else None
    power_weight = active.astype(float)
    if spec.power_control:
        power_weight[active] = serving[active] ** config.alpha
    return Realization(positions, marks, active, power_weight, serving)


def realize_passes(config: NetworkConfig, seeds) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(active, received) of stacked passes over consecutive seeds: the (B, n)
    activation and the active nodes' received powers, member after member.

    Member k's row of active is realize(config, seeds[k])'s, and its share
    of received is that realization's power_weight[active] *
    radii()[active] ** -alpha, bit for bit; a Generator seed is left where
    realize leaves it.  A pass takes at most _NODE_BUDGET nodes (cluster
    centers counted, at least one member).
    """
    per_pass = max(1, _NODE_BUDGET // max(1, config.n_nodes + config.n_clusters))
    seeds = iter(seeds)
    while stack := [as_generator(seed) for seed in itertools.islice(seeds, per_pass)]:
        # u is held until the next pass draws: freed mid-pass, its heap memory
        # was trimmed and faulted back in: 13000 more faults a cellular_uplink sweep
        u = _draws(config, stack)
        active, positions = _activate(config, u)
        yield active, _received(config, positions)


def interference_weights(config: NetworkConfig, rngs) -> list[np.ndarray]:
    """Each realize_passes member's received powers w_i r_i^-alpha, split off its pass's."""
    weights = []
    for active, received in realize_passes(config, rngs):
        weights += np.split(received, np.cumsum(active.sum(axis=1))[:-1])
    return weights


def realization_to_csv(realization: Realization) -> str:
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
    return buf.getvalue()
