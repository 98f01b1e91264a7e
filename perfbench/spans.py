"""Outside-in span tracing of one realization and of one asymptote solve.

The traced realization makes the same stage calls as
``montecarlo.run_realization``, in the same order and with the same redraw
loop, and wraps each call in a span.  Spans live in memory (one tuple each)
and are written out once the run ends.  Per-layer metrics are derived from
the spans: a layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from mmsenet import asymptotics, mmse, montecarlo, pointproc

clock = time.perf_counter_ns

# stage spans under montecarlo.run_realization, in call order
STAGES = (
    "montecarlo.derive_seed",
    "pointproc.realize",
    "mmse.draw_fading",
    "mmse.interference_covariance",
    "mmse.mmse_sir",
)

SPAN_HEADER = "span_id,parent_id,unit_id,name,start_ns,end_ns"


class Tracer:
    """Append-only span store: (span_id, parent_id, unit_id, name, start, end).

    unit_id groups the spans of one realization (or one grid point); a root
    span has parent_id -1.
    """

    def __init__(self):
        self.spans: list[tuple] = []

    def add(self, parent: int, unit: int, name: str, start: int, end: int) -> int:
        sid = len(self.spans)
        self.spans.append((sid, parent, unit, name, start, end))
        return sid

    def open_root(self, unit: int, name: str, start: int) -> int:
        """Reserve the root span's id now; close_root sets its end later."""
        return self.add(-1, unit, name, start, start)

    def close_root(self, sid: int, end: int) -> None:
        self.spans[sid] = self.spans[sid][:5] + (end,)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SPAN_HEADER + "\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")


def _attempt_generator(base: np.random.SeedSequence, attempt: int) -> np.random.Generator:
    # the per-attempt stream run_realization draws from: Philox keyed by
    # (master_seed, point, replication, attempt)
    ss = np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + (attempt,)
    )
    return np.random.Generator(np.random.Philox(ss))


def traced_realization(config, master_seed: int, point: int, rep: int,
                       unit: int, tr: Tracer) -> mmse.SirSample:
    """montecarlo.run_realization(config, derive_seed(...)) with a span per stage."""
    root = tr.open_root(unit, "montecarlo.run_realization", clock())
    t0 = clock()
    base = montecarlo.derive_seed(master_seed, point, rep)
    tr.add(root, unit, "montecarlo.derive_seed", t0, clock())
    alpha = config.alpha
    try:
        for attempt in range(montecarlo.MAX_REDRAWS + 1):
            t0 = clock()
            rng = _attempt_generator(base, attempt)
            t1 = clock()
            tr.add(root, unit, "montecarlo.derive_seed", t0, t1)
            real = pointproc.realize(config, rng)
            t2 = clock()
            tr.add(root, unit, "pointproc.realize", t1, t2)
            act = real.active
            radii = real.radii()[act]
            weights = real.power_weight[act] * radii ** -alpha
            t3 = clock()
            fading = mmse.draw_fading(config.n_branches, int(act.sum()), rng)
            t4 = clock()
            tr.add(root, unit, "mmse.draw_fading", t3, t4)
            cov = mmse.interference_covariance(fading.interferers, weights)
            t5 = clock()
            tr.add(root, unit, "mmse.interference_covariance", t4, t5)
            signal_weight = (
                config.r_t ** alpha
                if (config.model.name == "cellular" and config.model.power_control)
                else 1.0
            )
            t6 = clock()
            try:
                sample = mmse.mmse_sir(
                    fading.g_t,
                    cov,
                    config.r_t,
                    alpha,
                    n_branches=config.n_branches,
                    signal_weight=signal_weight,
                    active_count=int(act.sum()),
                )
            except mmse.SingularCovariance:
                continue
            finally:
                tr.add(root, unit, "mmse.mmse_sir", t6, clock())
            return replace(sample, redraw_count=attempt)
        raise montecarlo.RealizationFailed(
            f"{montecarlo.MAX_REDRAWS} consecutive singular redraws"
        )
    finally:
        tr.close_root(root, clock())


def traced_grid_point(params, n_branches: int, r_t: float, unit: int,
                      tr: Tracer) -> tuple[float, float, float, float]:
    """The asymptote command's three routes to beta plus the rate, spanned."""
    root = tr.open_root(unit, "asymptotics.grid_point", clock())
    t0 = clock()
    beta = asymptotics.solve_beta_fixed_point(params).beta
    t1 = clock()
    tr.add(root, unit, "asymptotics.solve_beta_fixed_point", t0, t1)
    oracle = asymptotics.fixed_point_oracle(params)
    t2 = clock()
    tr.add(root, unit, "asymptotics.fixed_point_oracle", t1, t2)
    large_c = asymptotics.beta_large_c(params.rho, params.alpha)
    t3 = clock()
    tr.add(root, unit, "asymptotics.beta_large_c", t2, t3)
    rate = asymptotics.rate_approx(n_branches, params.rho, params.alpha, r_t)
    t4 = clock()
    tr.add(root, unit, "asymptotics.rate_approx", t3, t4)
    tr.close_root(root, t4)
    return beta, oracle, large_c, rate


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def _units(spans) -> dict[int, dict]:
    """Per unit: root duration, summed child durations by name, child count."""
    units: dict[int, dict] = {}
    for sid, parent, unit, name, start, end in spans:
        u = units.setdefault(unit, {"root": None, "root_name": None,
                                    "child": {}, "child_total": 0, "count": {}})
        if parent < 0:
            u["root"] = end - start
            u["root_name"] = name
        else:
            u["child"][name] = u["child"].get(name, 0) + (end - start)
            u["count"][name] = u["count"].get(name, 0) + 1
            u["child_total"] += end - start
    return units


def realization_metrics(spans, active_counts, branches) -> tuple[dict, dict]:
    """Per-layer metrics of the traced realizations, and their sample counts.

    active_counts[u] and branches[u] are the active interferer count and N
    of realization u; the covariance build does 8 N^2 k real flop (k active
    interferers) for its complex outer products, a computed count.
    """
    by_unit = {k: u for k, u in _units(spans).items()
               if u["root_name"] == "montecarlo.run_realization"}
    units = list(by_unit.values())
    n = len(units)
    if not n:
        return {}, {}
    roots = [u["root"] for u in units]
    busy = sum(roots)
    out: dict[str, float] = {}
    for name in STAGES:
        total = sum(u["child"].get(name, 0) for u in units)
        out[name + "_us"] = total / n / 1e3
        if name != "montecarlo.derive_seed":
            out[name + "_share"] = total / busy
    out["montecarlo.run_realization_us_p50"] = float(np.percentile(roots, 50)) / 1e3
    out["montecarlo.run_realization_us_p99"] = float(np.percentile(roots, 99)) / 1e3
    out["montecarlo.glue_us"] = sum(u["root"] - u["child_total"] for u in units) / n / 1e3
    attempts = sum(u["count"].get("pointproc.realize", 0) for u in units)
    out["montecarlo.redraws_per_1k"] = 1e3 * (attempts - n) / n
    cov_ns = sum(u["child"].get("mmse.interference_covariance", 0) for u in units)
    flop = sum(8.0 * branches[k] ** 2 * active_counts[k] for k in by_unit)
    out["mmse.covariance_gflops"] = flop / cov_ns if cov_ns else 0.0
    out["pointproc.active_per_real"] = sum(active_counts[k] for k in by_unit) / n
    return out, dict.fromkeys(out, n)


def grid_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics of the traced asymptote grid points, and their sample counts."""
    units = [u for u in _units(spans).values()
             if u["root_name"] == "asymptotics.grid_point"]
    n = len(units)
    if not n:
        return {}, {}
    total = sum(u["root"] for u in units)
    fp = sum(u["child"].get("asymptotics.solve_beta_fixed_point", 0) for u in units)
    oracle = sum(u["child"].get("asymptotics.fixed_point_oracle", 0) for u in units)
    out = {
        "asymptotics.solve_beta_fixed_point_us": fp / n / 1e3,
        "asymptotics.fixed_point_oracle_ms": oracle / n / 1e6,
        "asymptotics.oracle_share": oracle / total,
    }
    return out, dict.fromkeys(out, n)
