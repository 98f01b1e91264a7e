"""Seeded, parallel replication of network realizations and their statistics.

An experiment is a sweep over diversity orders (and optionally model
variants) of a base network configuration.  Every random stream is keyed
by the master seed and a SeedSequence spawn key (_stream): (point,
replication, attempt) in a sweep, (0, replication) in the position-only
estimators, so results are bitwise identical for any worker count and any
execution order.  Sweeps and estimators realize replications in pointproc's
stacked passes; a sweep solves each fixed-size block of one point as a stack.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import asymptotics, mmse, pointproc
from .pointproc import ModelSpec, NetworkConfig

__all__ = [
    "RealizationFailed",
    "ExperimentSpec",
    "PointResult",
    "ExperimentReport",
    "StatSummary",
    "derive_seed",
    "run_realization",
    "run_experiment",
    "summarize",
    "density_estimate",
    "aip_statistic",
    "realize_scaled_powers",
]

MAX_REDRAWS = 100

# replications per work item; fixed, so that no result depends on the worker
# count
BLOCK_SIZE = 25


class RealizationFailed(Exception):
    """Every redraw produced a singular covariance (c * nu too close to 1)."""


def _stream(entropy: int, key: tuple) -> np.random.SeedSequence:
    """The seed of the stream keyed by (entropy, key); every stream comes from here."""
    return np.random.SeedSequence(entropy=entropy, spawn_key=key)


def derive_seed(
    master_seed: int, point_index: int, replication_index: int
) -> np.random.SeedSequence:
    """Seed of one replication: the estimators draw from it, run_realization from its attempts."""
    return _stream(master_seed, (point_index, replication_index))


def _sir_scale(config: NetworkConfig) -> float:
    """The factor of every SIR of a point: signal weight times r_T^-alpha.

    The signal weight is r_T^alpha under power control, else 1.  Raises
    OverflowError where a power overflows the float range, and
    FloatingPointError where the factor falls below the normal range (every
    SIR would be 0 or lose its precision); load_config checks every point
    with it, so such a point is rejected before the sweep.
    """
    signal_weight = config.r_t ** config.alpha if config.model.power_control else 1.0
    scale = signal_weight * config.r_t ** -config.alpha
    if scale < sys.float_info.min:
        raise FloatingPointError(f"the SIR scale {scale!r} underflows the normal float range")
    return scale


def _run_block(config: NetworkConfig, entropy, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realizations of one configuration, solved as a stack: (sir, active, redraws).

    keys[i] is the spawn key of member i; attempt a of that member draws from
    _stream(entropy, keys[i] + (a,)).  Each round realizes every pending
    member's geometry in stacked passes (pointproc.interference_weights);
    mmse.sir_samples then draws each member's fading from the same stream,
    builds its covariance and solves the stack, times the point's
    _sir_scale.  Only the singular members are redrawn, at the next attempt,
    up to MAX_REDRAWS times.  Per member, sir is NaN when every attempt was
    singular, active is the last draw's active count and redraws its attempt
    index (MAX_REDRAWS for a failed member).  No diagonal loading is applied
    anywhere: that would quietly turn the SIR into an SINR and bias
    comparisons against the noise-free theory.
    """
    scale = _sir_scale(config)
    sir = np.full(len(keys), np.nan)
    active = np.zeros(len(keys), dtype=np.int64)
    redraws = np.zeros(len(keys), dtype=np.int64)
    pending = np.arange(len(keys))
    for attempt in range(MAX_REDRAWS + 1):
        if not pending.size:
            break
        rngs = [pointproc.as_generator(_stream(entropy, (*keys[i], attempt))) for i in pending]
        weights = pointproc.interference_weights(config, rngs)
        sir[pending] = mmse.sir_samples(rngs, weights, config.n_branches, scale)
        active[pending] = [w.size for w in weights]
        redraws[pending] = attempt
        pending = pending[np.isnan(sir[pending])]
    return sir, active, redraws


def run_realization(config: NetworkConfig, seed) -> mmse.SirSample:
    """One full pipeline pass: positions -> activation -> fading -> SIR.

    A block of one.  On a singular interference covariance the entire
    realization (positions and fading) is redrawn from a fresh substream, up
    to MAX_REDRAWS times, and the number of redraws is recorded on the
    sample.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy, key = seed.entropy, tuple(seed.spawn_key)
    else:
        entropy, key = int(seed), ()
    (sir,), (active,), (redraws,) = _run_block(config, entropy, [key])
    if np.isnan(sir):
        raise RealizationFailed(
            f"{MAX_REDRAWS} consecutive singular redraws for N={config.n_branches}, "
            f"model={config.model.name!r}; c * nu is likely too close to 1"
        )
    return mmse._sir_sample(sir, config.r_t, config.alpha, config.n_branches, active, redraws)


# ---------------------------------------------------------------------------
# experiment sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep: one point per (model variant, N) pair, in that order.

    variants defaults to just the base model.  Per-realization seeds are
    derived from (master_seed, point index, replication index).
    """

    base: NetworkConfig
    n_values: tuple[int, ...]
    replications: int
    master_seed: int
    variants: tuple[ModelSpec, ...] | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if len(self.n_values) == 0:
            raise ValueError("sweep needs at least one N value")

    def point_configs(self) -> list[NetworkConfig]:
        variants = self.variants if self.variants else (self.base.model,)
        return [
            replace(self.base, model=variant, n_branches=int(n))
            for variant in variants
            for n in self.n_values
        ]


@dataclass
class StatSummary:
    mean: float
    std: float | None  # None when count == 1
    count: int

    @property
    def sem(self) -> float | None:
        if self.std is None:
            return None
        return self.std / math.sqrt(self.count)


def summarize(values) -> StatSummary:
    """Mean, unbiased (n-1) standard deviation and count."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else None
    return StatSummary(
        mean=float(arr.mean()),
        std=std,
        count=int(arr.size),
    )


@dataclass
class PointResult:
    """Aggregated statistics of one sweep point."""

    config: NetworkConfig
    rate: StatSummary | None
    sir: StatSummary | None
    empirical_density: float | None
    predicted_density: float
    asymptote_rate: float | None
    rel_gap: float | None
    redraw_total: int
    failed: bool

    @property
    def n_branches(self) -> int:
        return self.config.n_branches


@dataclass
class ExperimentReport:
    """All sweep points plus the metadata needed to reproduce them."""

    points: list[PointResult]
    master_seed: int
    replications: int
    wall_time_s: float
    code_version: str = field(default="")


def predicted_rate(config: NetworkConfig) -> float | None:
    """Asymptotic mean-rate prediction for one parameter point.

    Models with unit transmit power use the density-parameterized rate
    formula; the power-controlled cellular prediction is the cell-edge
    expression (its derivation places the representative at the cell
    circumradius, the only power-controlled regime with a closed form).
    None for a degenerate model whose limiting active density is zero.
    """
    spec = config.model
    if spec.power_control:
        return asymptotics.cell_edge_rate(
            config.n_branches,
            spec.kappa,
            config.alpha,
            config.rho_p,
            spec.rho_c,
            power_control=True,
        )
    rho = config.predicted_density()
    if rho <= 0.0:
        return None
    return asymptotics.rate_approx(config.n_branches, rho, config.alpha, config.r_t)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentReport:
    """Execute all points x replications and aggregate deterministically.

    The work items are blocks of BLOCK_SIZE consecutive replications of one
    point, each the arguments of one _run_block call (config, master seed,
    spawn keys); with workers > 1 and more than one block the pool maps
    _run_block over them with at most one worker per block.  Aggregation
    happens in (point, replication) index order, and a replication's numbers
    do not depend on its block, so the emitted numbers never depend on the
    worker count or the execution schedule.  A point whose replication fails
    is flagged and reported with empty statistics (its redraw_total still
    counts MAX_REDRAWS per failed member); the remaining points still run.
    """
    from . import __version__

    t0 = time.perf_counter()
    configs = spec.point_configs()
    spans = [range(r0, min(r0 + BLOCK_SIZE, spec.replications))
             for r0 in range(0, spec.replications, BLOCK_SIZE)]
    tasks = [(cfg, spec.master_seed, [(pi, ri) for ri in span])
             for pi, cfg in enumerate(configs) for span in spans]
    workers = min(workers, len(tasks))  # the pool forks every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, *zip(*tasks)))
    else:
        blocks = [_run_block(*t) for t in tasks]

    per_point = len(tasks) // len(configs)  # tasks, and so blocks, in (point, block) order
    points = []
    for pi, cfg in enumerate(configs):
        point_blocks = blocks[pi * per_point:(pi + 1) * per_point]
        sirs, active, redraws = (np.concatenate(parts) for parts in zip(*point_blocks))
        failed = bool(np.isnan(sirs).any())
        asym = predicted_rate(cfg)
        rate = sir = emp_density = rel_gap = None
        if not failed:
            # math.log2 as in SirSample.rate: np.log2 can round differently
            rate = summarize(math.log2(1.0 + s) for s in sirs.tolist())
            sir = summarize(sirs)
            area = math.pi * cfg.radius ** 2
            emp_density = float(np.mean(active)) / area
            rel_gap = abs(rate.mean - asym) / asym if asym else None
        points.append(
            PointResult(
                config=cfg,
                rate=rate,
                sir=sir,
                empirical_density=emp_density,
                predicted_density=cfg.predicted_density(),
                asymptote_rate=asym,
                rel_gap=rel_gap,
                redraw_total=int(redraws.sum()),
                failed=failed,
            )
        )
    return ExperimentReport(
        points=points,
        master_seed=spec.master_seed,
        replications=spec.replications,
        wall_time_s=time.perf_counter() - t0,
        code_version=__version__,
    )


# ---------------------------------------------------------------------------
# position-only estimators (no fading)
# ---------------------------------------------------------------------------

def density_estimate(config: NetworkConfig, replications: int, master_seed: int) -> float:
    """Mean active count over replications divided by the network area.

    Replication r is realize(config, derive_seed(master_seed, 0, r)), never redrawn.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    counts = []
    seeds = (derive_seed(master_seed, 0, r) for r in range(replications))
    for active, _ in pointproc.realize_passes(config, seeds):
        counts.extend(active.sum(axis=1))
    return float(np.mean(counts)) / (math.pi * config.radius ** 2)


def realize_scaled_powers(config: NetworkConfig, seeds) -> np.ndarray:
    """Scaled received powers N^{alpha/2} w_i r_i^-alpha, one row per seed.

    Row k belongs to realize(config, seeds[k]): pointproc.realize_passes's
    received powers, scaled and scattered into zeros, the law whose
    empirical distribution converges to H for unit-power models.  No seeds
    give a (0, n_nodes) array.
    """
    scale = float(config.n_branches) ** (config.alpha / 2.0)
    rows = []
    for active, received in pointproc.realize_passes(config, seeds):
        row = np.zeros(active.shape)
        row[active] = scale * received
        rows.append(row)
    return np.concatenate(rows) if rows else np.empty((0, config.n_nodes))


def aip_statistic(
    config: NetworkConfig, x: float, n_seeds: int, master_seed: int
) -> float:
    """Average pairwise dependence of scaled received powers at level x.

    The double sum (1/n^2) sum_ij [P(p_i <= x, p_j <= x) - P(p_i <= x) P(p_j <= x)]
    equals the variance of the empirical distribution evaluated at x, so it
    is estimated as the across-seed sample variance of H_n(x), seed s drawn
    as in density_estimate.  It must shrink as the network grows for the SIR
    limit to apply.
    """
    if n_seeds < 2:
        raise ValueError(f"n_seeds must be >= 2 for a sample variance, got {n_seeds}")
    p = realize_scaled_powers(config, (derive_seed(master_seed, 0, s) for s in range(n_seeds)))
    return float(np.var(np.count_nonzero(p <= x, axis=1) / config.n_nodes, ddof=1))
