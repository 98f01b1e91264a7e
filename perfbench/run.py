"""mmsenet benchmark: figure-regime sweeps and the asymptote grid, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload hc_figure --seed 1 --seconds 25 --trace 0

Each run is a closed loop: one benchmark process runs one sweep (or one pass
over the asymptote grid) at a time until --seconds have passed, checks every
output, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics; --trace 1 gives the per-layer metrics from a span trace.  The line
before it is a JSON object of run facts (code, versions, seed, sample
counts, CSV digests).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RHO_P = 0.01
ALPHA = 4.0
R_T = math.sqrt(1.0 / (math.pi * RHO_P))  # pi rho_p r_T^2 = 1

# criterion-1 grid, jittered per seed and per pass
GRID_ALPHAS = (2.5, 3.0, 4.0, 6.0)
GRID_NUS = (0.3, 0.6, 1.0)
GRID_CS = (5.0, 50.0, 500.0)
GRID_N = 8
ORACLE_TOL = 1e-6  # criterion-1 tolerance, fixed point against quadrature

# |mean rate - asymptote| / asymptote must stay inside this band on every
# point; at these replication counts the figure regimes sat within 8%, so
# this only catches broken output
REL_GAP_BAND = 0.25

SETUP_REPEATS = 5


@dataclass(frozen=True)
class Sweep:
    """One figure regime: a run configuration and its worker count."""

    model: dict
    n_values: tuple[int, ...]
    c: float
    replications: int
    workers: int

    def config(self, seed: int, replications: int) -> dict:
        return {
            "schema_version": 1,
            "network": {"rho_p": RHO_P, "alpha": ALPHA, "c": self.c, "r_T": R_T},
            "model": self.model,
            "sweep": {"N": list(self.n_values)},
            "replications": replications,
            "master_seed": seed,
        }


_H_BOOL = math.sqrt(1.0 / (math.pi * 0.04))  # pi rho_b h^2 = 1

SWEEPS = {
    "hc_figure": Sweep(
        model={"name": "hc1", "h": [0.5 * R_T, 1.0 * R_T]},
        n_values=(2, 4, 6, 8, 12, 16), c=50.0, replications=200, workers=2,
    ),
    "cellular_uplink": Sweep(
        model={"name": "cellular", "rho_c": 0.001, "kappa": 3},
        n_values=(4, 6, 8, 10, 12, 16), c=800.0, replications=40, workers=1,
    ),
    "large_array": Sweep(
        model={"name": "boolean", "h": _H_BOOL, "rho_b": 0.04},
        n_values=(32, 64), c=50.0, replications=20, workers=1,
    ),
}
GRID = "asymptote_grid"  # the asymptote command over the jittered criterion-1 grid
WORKLOADS = (*SWEEPS, GRID)


class CheckFailed(Exception):
    """An output check tripped; the run is reported as incorrect."""


def _check(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the repository rooted here, or "unknown" (say, in an export)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _src_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mmsenet").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_facts(args, sweep: Sweep | None, sample_counts: dict, extra: dict) -> dict:
    import numpy
    import scipy

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sample_counts": sample_counts,
    }
    if sweep:
        facts["workers"] = sweep.workers
        facts["replications"] = _replications(sweep, args.smoke)
    facts.update(extra)
    return facts


def _replications(workload: Sweep, smoke: bool) -> int:
    return 2 if smoke else workload.replications


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter importing mmsenet and loading the workload input
# ---------------------------------------------------------------------------

_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from mmsenet import cli
from mmsenet.asymptotics import AsymptoticParams
if sys.argv[2] == "sweep":
    cli.load_config(sys.argv[3])
else:
    with open(sys.argv[3]) as fh:
        [AsymptoticParams(**p) for p in json.load(fh)]
"""


def measure_setup(kind: str, input_path: Path, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), kind, str(input_path)],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Higher of this process's and its reaped children's peak RSS.

    Children are the sweep's pool workers and the set-up interpreters.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def make_reference():
    """A fixed mix of interpreted Python and numpy/LAPACK work, about 30 ms.

    It runs no mmsenet code, so no change to the package can speed it up.
    Timed between units of work, it measures how fast the host is at that
    moment: on a shared 2-vCPU VM a unit's raw wall time spread by 5-26%
    over 10 runs, while its ratio to this kernel spread by 3-8%.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((32, 2000)) * (1.0 + 1.0j)

    def reference_s() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += math.sqrt(i)
        for _ in range(2):
            cov = np.einsum("ik,jk->ij", a, a.conj())
            np.random.Generator(np.random.Philox(1)).standard_normal(50_000)
        for _ in range(200):
            np.linalg.eigvalsh(cov[:16, :16])
        return time.perf_counter() - t0

    return reference_s


def e2e_metrics(walls, refs, items_per_unit: int, setup: list[float]):
    """The gated end-to-end metrics, their sample counts, and the raw times.

    refs[i] and refs[i + 1] are the reference timings taken just before and
    just after walls[i]; wall_ref is the median of wall over their mean.
    """
    wall_ref = statistics.median(
        w / (0.5 * (a + b)) for w, a, b in zip(walls, refs, refs[1:]))
    wall_s = statistics.median(walls)
    metrics = {
        "wall_ref": wall_ref,
        "items_per_ref": items_per_unit / wall_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"wall_ref": len(walls), "items_per_ref": len(walls), "setup_s": len(setup),
               "peak_rss_mb": 1}
    raw = {"wall_s": wall_s, "items_per_s": items_per_unit / wall_s,
           "reference_s": statistics.median(refs)}
    return metrics, samples, raw


# ---------------------------------------------------------------------------
# sweep workloads
# ---------------------------------------------------------------------------

def _csv_rows(csv_text: str) -> list[dict]:
    from mmsenet import cli

    lines = csv_text.strip().split("\n")
    cols = cli.CSV_COLUMNS.split(",")
    _check(lines[0] == cli.CSV_COLUMNS, "CSV header changed")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def check_sweep_csv(csv_text: str, n_points: int) -> None:
    """No failed point, finite statistics, rel_gap inside the sanity band."""
    rows = _csv_rows(csv_text)
    _check(len(rows) == n_points, f"expected {n_points} CSV rows, got {len(rows)}")
    for row in rows:
        where = f"{row['model']} N={row['N']} {row['model_params']}"
        for key in ("mean_rate", "asymptote", "rel_gap", "empirical_density"):
            _check(row[key] != "", f"{where}: empty {key} (failed point)")
            _check(math.isfinite(float(row[key])), f"{where}: non-finite {key}")
        _check(float(row["mean_rate"]) > 0.0, f"{where}: non-positive mean rate")
        gap = float(row["rel_gap"])
        _check(0.0 <= gap <= REL_GAP_BAND, f"{where}: rel_gap {gap:.3g} outside sanity band")


def _failed_reps(report) -> int:
    # a failed point reports no statistics, so all its replications count
    return sum(report.replications for p in report.points if p.failed)


def run_sweep_untraced(args, workload: Sweep, work: Path):
    from mmsenet import cli, montecarlo

    reps = _replications(workload, args.smoke)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(workload.config(args.seed, reps)))
    setup = measure_setup("sweep", cfg_path, 2 if args.smoke else SETUP_REPEATS)

    spec = cli.load_config(str(cfg_path))
    n_points = len(spec.point_configs())
    per_sweep = n_points * reps

    def one_sweep():
        t0 = time.perf_counter()
        report = montecarlo.run_experiment(spec, workers=workload.workers)
        csv_text = cli.report_to_csv(report)
        return time.perf_counter() - t0, report, csv_text

    # a one-replication sweep warms lazy imports and caches, untimed
    montecarlo.run_experiment(replace(spec, replications=1), workers=workload.workers)
    reference = make_reference()
    attempted = failed = redraws = 0
    walls, refs, first_csv = [], [reference()], None
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, report, csv_text = one_sweep()
        walls.append(wall)
        refs.append(reference())
        attempted += per_sweep
        failed += _failed_reps(report)
        redraws += sum(p.redraw_total for p in report.points)
        if first_csv is None:
            check_sweep_csv(csv_text, n_points)
            first_csv = csv_text
        _check(csv_text == first_csv, "sweep CSV bytes differ between sweeps on one seed")

    metrics, samples, extra = e2e_metrics(walls, refs, per_sweep, setup)
    extra.update({
        "points": n_points,
        "realizations_per_sweep": per_sweep,
        "failed_frac": failed / attempted,
        "redraw_frac": redraws / attempted,
        "csv_sha256": hashlib.sha256(first_csv.encode()).hexdigest(),
    })
    return metrics, samples, attempted, failed, extra


def run_sweep_traced(args, workload: Sweep, work: Path):
    from mmsenet import cli, montecarlo

    import spans as tr_mod

    reps = _replications(workload, args.smoke)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(workload.config(args.seed, reps)))
    load_ms = []
    for _ in range(5):
        t0 = time.perf_counter()
        spec = cli.load_config(str(cfg_path))
        load_ms.append((time.perf_counter() - t0) * 1e3)
    configs = spec.point_configs()

    tracer = tr_mod.Tracer()
    active, branches = [], []
    sweep_walls, traced_walls, plain_walls, csv_ms = [], [], [], []
    csv_w = None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while not traced_walls or time.perf_counter() < deadline:
        # the sweep as simulate runs it, at the workload's worker count
        t0 = time.perf_counter()
        report = montecarlo.run_experiment(spec, workers=workload.workers)
        sweep_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        csv_text = cli.report_to_csv(report)
        csv_ms.append((time.perf_counter() - t0) * 1e3)
        if csv_w is None:
            check_sweep_csv(csv_text, len(configs))
            csv_w = csv_text
        _check(csv_text == csv_w, "sweep CSV bytes differ between sweeps on one seed")

        traced = []
        t0 = time.perf_counter()
        for pi, cfg in enumerate(configs):
            for ri in range(reps):
                unit = len(active)
                try:
                    s = tr_mod.traced_realization(cfg, spec.master_seed, pi, ri, unit, tracer)
                except montecarlo.RealizationFailed:
                    s = None
                    failed += 1
                traced.append(s)
                active.append(s.active_count if s else 0)
                branches.append(cfg.n_branches)
        traced_walls.append(time.perf_counter() - t0)
        attempted += len(traced)

        plain = []
        t0 = time.perf_counter()
        for pi, cfg in enumerate(configs):
            for ri in range(reps):
                try:
                    plain.append(montecarlo.run_realization(
                        cfg, montecarlo.derive_seed(spec.master_seed, pi, ri)))
                except montecarlo.RealizationFailed:
                    plain.append(None)
        plain_walls.append(time.perf_counter() - t0)
        _check(traced == plain, "traced realization differs from run_realization")

    # criterion-11 invariance: the traced W=1 pass aggregates to the CSV's means
    rows = _csv_rows(csv_w)
    for pi, row in enumerate(rows):
        rates = [s.rate for s in traced[pi * reps:(pi + 1) * reps] if s is not None]
        _check(len(rates) == reps, f"point {pi}: failed replications in the trace")
        mean = montecarlo.summarize(rates).mean
        _check(f"{mean:.9g}" == row["mean_rate"],
               f"point {pi}: traced mean rate {mean:.9g} != CSV {row['mean_rate']}")

    metrics, samples = tr_mod.realization_metrics(tracer.spans, active, branches)
    # ratios of timings taken back to back in one pass, so machine drift
    # between passes cancels; busy time is the untraced realization loop
    passes = list(zip(sweep_walls, traced_walls, plain_walls))
    metrics["montecarlo.overhead_frac"] = statistics.median(
        [1.0 - busy / (workload.workers * wall) for wall, _, busy in passes])
    metrics["trace_overhead_frac"] = statistics.median(
        [traced / busy - 1.0 for _, traced, busy in passes])
    metrics["cli.load_config_ms"] = statistics.median(load_ms)
    metrics["cli.report_to_csv_ms"] = statistics.median(csv_ms)
    samples.update({"montecarlo.overhead_frac": len(passes), "trace_overhead_frac": len(passes),
                    "cli.load_config_ms": len(load_ms), "cli.report_to_csv_ms": len(csv_ms)})
    extra = {"traced_passes": len(traced_walls),
             "csv_sha256": hashlib.sha256(csv_w.encode()).hexdigest()}
    return metrics, samples, attempted, failed, tracer, extra


# ---------------------------------------------------------------------------
# asymptote grid
# ---------------------------------------------------------------------------

def grid_points(seed: int, pass_index: int) -> list[dict]:
    """The criterion-1 grid, each coordinate jittered by up to 1%.

    Jitter depends on (seed, pass) so repeated passes never repeat inputs;
    nu only moves down so it stays a probability.
    """
    import numpy as np

    rng = np.random.default_rng([seed, pass_index])
    pts = []
    for alpha in GRID_ALPHAS:
        for nu in GRID_NUS:
            for c in GRID_CS:
                u = rng.random(3)
                pts.append({
                    "rho_p": RHO_P,
                    "alpha": alpha * (1.0 + 0.02 * (u[0] - 0.5)),
                    "nu": nu * (1.0 - 0.01 * u[1]),
                    "c": c * (1.0 + 0.02 * (u[2] - 0.5)),
                })
    return pts


def check_grid_point(p: dict, beta: float, oracle: float, large_c: float, rate: float) -> None:
    where = f"alpha={p['alpha']:.6g} nu={p['nu']:.6g} c={p['c']:.6g}"
    for name, v in (("beta", beta), ("oracle", oracle), ("large_c", large_c), ("rate", rate)):
        _check(math.isfinite(v) and v > 0.0, f"{where}: {name} = {v!r}")
    rel = abs(beta - oracle) / oracle
    _check(rel < ORACLE_TOL, f"{where}: fixed point vs oracle {rel:.3g} >= {ORACLE_TOL}")


def _solve_grid(pts) -> None:
    from mmsenet import asymptotics
    from mmsenet.asymptotics import AsymptoticParams

    for p in pts:
        params = AsymptoticParams(**p)
        beta = asymptotics.solve_beta_fixed_point(params).beta
        oracle = asymptotics.fixed_point_oracle(params)
        large_c = asymptotics.beta_large_c(params.rho, params.alpha)
        rate = asymptotics.rate_approx(GRID_N, params.rho, params.alpha, R_T)
        check_grid_point(p, beta, oracle, large_c, rate)


def run_grid_untraced(args, work: Path):
    grid_path = work / "grid.json"
    grid_path.write_text(json.dumps(grid_points(args.seed, 0)))
    setup = measure_setup("grid", grid_path, 2 if args.smoke else SETUP_REPEATS)

    _solve_grid(grid_points(args.seed, 0))  # warm-up pass, not timed
    reference = make_reference()
    walls, refs = [], [reference()]
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        pts = grid_points(args.seed, len(walls) + 1)
        t0 = time.perf_counter()
        _solve_grid(pts)
        walls.append(time.perf_counter() - t0)
        refs.append(reference())
    n = len(GRID_ALPHAS) * len(GRID_NUS) * len(GRID_CS)
    metrics, samples, extra = e2e_metrics(walls, refs, n, setup)
    extra.update({"points_per_pass": n, "failed_frac": 0.0})
    return metrics, samples, n * (len(walls) + 1), 0, extra


def run_grid_traced(args):
    import spans as tr_mod
    from mmsenet.asymptotics import AsymptoticParams

    tracer = tr_mod.Tracer()
    traced_walls, plain_walls = [], []
    unit = 0
    deadline = time.perf_counter() + args.seconds
    while not traced_walls or time.perf_counter() < deadline:
        pts = grid_points(args.seed, len(traced_walls) + 1)
        t0 = time.perf_counter()
        for p in pts:
            vals = tr_mod.traced_grid_point(AsymptoticParams(**p), GRID_N, R_T, unit, tracer)
            check_grid_point(p, *vals)
            unit += 1
        traced_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _solve_grid(pts)
        plain_walls.append(time.perf_counter() - t0)
    metrics, samples = tr_mod.grid_metrics(tracer.spans)
    metrics["trace_overhead_frac"] = statistics.median(
        [t / p - 1.0 for t, p in zip(traced_walls, plain_walls)])
    samples["trace_overhead_frac"] = len(traced_walls)
    return metrics, samples, unit, 0, tracer, {"traced_passes": len(traced_walls)}


# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------

def metric_result(section: str, metrics: dict, samples: dict) -> tuple[dict, dict]:
    """Every metric BENCHMARK.json lists in section, with its unit and sample count.

    A per-layer metric of a layer the workload never enters reads 0 with 0
    samples; an end-to-end metric is always measured.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    out, counts = {}, {}
    for m in spec:
        name = m["name"]
        value = metrics[name] if section == "end_to_end" else metrics.get(name, 0.0)
        out[name] = {"value": float(value), "unit": m["unit"]}
        counts[name] = samples.get(name, 0)
    return out, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny replication counts, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One BLAS/OpenMP thread per process, set before numpy loads, so the only
    # parallelism is the sweep's worker count.  With OpenBLAS's default of one
    # thread per core, large_array ran 4x slower on a 2-vCPU VM and its wall
    # time swung by a quarter from run to run (oversubscribed, spinning threads).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "mmsenet" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sweep = SWEEPS.get(args.workload)
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        if sweep and args.trace:
            metrics, samples, attempted, failed, tracer, extra = run_sweep_traced(args, sweep, work)
        elif sweep:
            metrics, samples, attempted, failed, extra = run_sweep_untraced(args, sweep, work)
        elif args.trace:
            metrics, samples, attempted, failed, tracer, extra = run_grid_traced(args)
        else:
            metrics, samples, attempted, failed, extra = run_grid_untraced(args, work)
        correct = failed == 0
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result, counts = metric_result("per_layer" if args.trace else "end_to_end",
                                   metrics, samples)
    if args.trace:
        out_dir = BENCH_DIR / "results"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_path)
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
        extra["spans"] = len(tracer.spans)
    print(json.dumps({"facts": run_facts(args, sweep, counts, extra)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
