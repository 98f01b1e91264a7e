"""Batch command-line front end.

Subcommands:

* ``simulate``  -- run a configured sweep, write a CSV table of per-point
  statistics against the asymptotic predictions;
* ``asymptote`` -- evaluate the normalized-SIR limit three ways (closed-form
  fixed point, large-c formula, quadrature oracle) and the rate predictions;
* ``density``   -- predicted vs simulated active-interferer density with a
  3-sigma binomial acceptance band;
* ``plot``      -- turn a simulate CSV into a self-contained SVG chart;
* ``reuse-opt`` -- rate-optimal frequency reuse factor.

All commands are non-interactive; data goes to stdout or the requested
output file, progress and diagnostics to stderr.  Exit codes: 0 success,
1 a command that needs scipy (``asymptote``, ``reuse-opt``) ran without it,
2 invalid input (a subcommand raises ConfigError; main prints
``<command>: <message>``), 3 fixed-point bracketing failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import replace

from . import __version__, asymptotics, montecarlo
from .asymptotics import AsymptoticParams, NoBracket
from .pointproc import MODEL_NAMES, MODEL_PARAMS, ModelSpec, NetworkConfig, hex_spacing

CSV_COLUMNS = (
    "model,N,c,alpha,rho_p,model_params,mean_rate,std_rate,sem,asymptote,"
    "rel_gap,empirical_density,predicted_density,seed"
)

SCHEMA_VERSION = 1

_NETWORK_KEYS = {"rho_p", "alpha", "c", "r_T"}
_TOP_KEYS = {"schema_version", "network", "model", "sweep", "replications", "master_seed"}

# budget on the interferer fading matrix of one sweep point, N x round(c N)
# complex entries (1.6 GB), on its Boolean cluster centers and on a block's
# covariance stack, BLOCK_SIZE x N^2 complex entries; the test, demo and
# benchmark regimes stay near 2e5
MAX_FADING_ENTRIES = 10**8

# bound on a cellular point's L = R / s, the disk radius in station spacings.
# pointproc places each mobile and reads its fractional axial coordinates
# (|f| <= 2 L / sqrt(3)) in float64, some 2^-50 L from their exact values
# (2^-50.0 L against 80-bit arithmetic).  At L <= 2^48 that is at most a
# quarter of a cell; from L = 2^52 on, the ulp of f is a whole cell and no
# point inside a cell can be told from its edge.  The bound also keeps the
# int64 cell coordinates (|p|, |q| < 2^49) and the band-0 products far from
# overflow.
MAX_CELL_SCALE = 2.0**48


class ConfigError(Exception):
    """Invalid input; the message names the offending key path, flag or CSV field."""


def _fmt(value) -> str:
    """CSV number formatting: 9 significant digits, C locale, empty for null."""
    if value is None:
        return ""
    return f"{value:.9g}"


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _reject_unknown(mapping: dict, allowed: set, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _object(mapping: dict, key: str, path: str) -> dict:
    value = _need(mapping, key, path)
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {value!r}")
    return value


def _real(value, path: str) -> float:
    """A finite JSON number (bools and strings are not numbers)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _integer(value, path: str, low: int) -> int:
    """A JSON integer literal >= low (2.0, true and "2" are not integers)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{path}: must be >= {low}, got {value}")
    return value


def _model_param(key: str, value, path: str):
    if key == "power_control":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true or false, got {value!r}")
        return value
    if key == "kappa":
        return _integer(value, path, 1)
    return _real(value, path)


def _model_variants(model_cfg: dict) -> list[ModelSpec]:
    """Expand a model block; exactly one numeric parameter may be a list."""
    name = _need(model_cfg, "name", "model")
    if name not in MODEL_NAMES:
        raise ConfigError(f"model.name: unknown model {name!r}; expected one of {MODEL_NAMES}")
    _reject_unknown(model_cfg, {"name", *MODEL_PARAMS[name]}, "model")
    params = {k: v for k, v in model_cfg.items() if k != "name"}
    listed = [k for k, v in params.items() if isinstance(v, list)]
    if len(listed) > 1:
        raise ConfigError(f"model: at most one parameter may be a list, got {listed}")
    fixed = {
        k: _model_param(k, v, f"model.{k}") for k, v in params.items() if k not in listed
    }

    def build(overrides: dict) -> ModelSpec:
        try:
            return ModelSpec(name=name, **fixed, **overrides)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc

    if not listed:
        return [build({})]
    key = listed[0]
    if not params[key]:
        raise ConfigError(f"model.{key}: a list needs at least one value")
    return [
        build({key: _model_param(key, v, f"model.{key}[{i}]")})
        for i, v in enumerate(params[key])
    ]


def load_config(path: str) -> montecarlo.ExperimentSpec:
    """Parse and validate a run configuration file (JSON, schema_version 1).

    Unknown keys anywhere are rejected; every physical quantity carries an
    explicit key.  Syntax errors report the line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    version = _need(raw, "schema_version", "config")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    net = _object(raw, "network", "config")
    _reject_unknown(net, _NETWORK_KEYS, "network")
    net = {
        key: _real(_need(net, key, "network"), f"network.{key}")
        for key in sorted(_NETWORK_KEYS)
    }

    sweep = _object(raw, "sweep", "config")
    _reject_unknown(sweep, {"N"}, "sweep")
    n_values = _need(sweep, "N", "sweep")
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("sweep.N must be a non-empty list of integers")
    n_values = tuple(_integer(n, f"sweep.N[{i}]", 1) for i, n in enumerate(n_values))

    variants = _model_variants(_object(raw, "model", "config"))
    replications = _integer(_need(raw, "replications", "config"), "replications", 1)
    master_seed = _integer(_need(raw, "master_seed", "config"), "master_seed", 0)

    try:
        base = NetworkConfig(
            rho_p=net["rho_p"],
            alpha=net["alpha"],
            n_branches=n_values[0],
            c=net["c"],
            r_t=net["r_T"],
            model=variants[0],
        )
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc
    spec = montecarlo.ExperimentSpec(
        base=base,
        n_values=n_values,
        replications=replications,
        master_seed=master_seed,
        variants=tuple(variants),
    )
    for k, config in enumerate(spec.point_configs()):
        _check_point(config, f"sweep.N[{k % len(n_values)}]")
    return spec


def _check_size(config: NetworkConfig, nodes_by: str, clusters_by: str, cells_by: str) -> None:
    """Reject a point over the size budget or past the float64 cell range,
    naming the keys or flags that set the size."""
    at = f"at N={config.n_branches}, c={config.c:.9g}"
    budget = f"exceeds the budget of {MAX_FADING_ENTRIES:.0e}"
    if config.n_branches * config.n_nodes > MAX_FADING_ENTRIES:
        raise ConfigError(f"{nodes_by}: N x round(c N) {at} {budget} fading entries")
    if config.n_clusters > MAX_FADING_ENTRIES:
        raise ConfigError(f"{clusters_by}: round(pi rho_b R^2) {at}, "
                          f"rho_b={config.model.rho_b:.9g} {budget} cluster centers")
    if config.model.rho_c is not None:
        spacing = hex_spacing(config.model.rho_c)
        if not math.isfinite(spacing):  # R / s would be 0 and pass the cell range
            raise ConfigError(f"{cells_by}: the station spacing {at}, "
                              f"rho_c={config.model.rho_c:.9g} is {spacing}, past the float range")
        scale = config.radius / spacing
        if not scale <= MAX_CELL_SCALE:
            raise ConfigError(f"{cells_by}: the disk radius is {scale:.3g} station spacings "
                              f"{at}, rho_c={config.model.rho_c:.9g}, more than the "
                              f"{MAX_CELL_SCALE:.3g} within which float64 resolves a cell")


def _check_point(config: NetworkConfig, where: str) -> None:
    """Reject a sweep point the size budget cannot hold, whose SIR or interferer
    power scale leaves the float range, or that the theory cannot predict."""
    try:
        _check_size(config, f"network.c, {where}", f"model.rho_b, {where}",
                    f"model.rho_c, {where}")
        if montecarlo.BLOCK_SIZE * config.n_branches ** 2 > MAX_FADING_ENTRIES:
            raise ConfigError(f"{where}: the covariance stack, {montecarlo.BLOCK_SIZE} x N^2 at "
                              f"N={config.n_branches}, exceeds the budget of "
                              f"{MAX_FADING_ENTRIES:.0e} entries")
        rate = montecarlo.predicted_rate(config)  # None for a zero density
        montecarlo._sir_scale(config)  # the sweep's own factor; raises beyond the float range
        if config.model.power_control:
            # a mobile transmits at r_b^alpha, r_b at most the circumradius
            # s / sqrt(3) from its station, plus twice its axial coordinates'
            # error (MAX_CELL_SCALE), under 2^-47 L circumradii, and 2^-20 more
            s = hex_spacing(config.model.rho_c)
            reach = s / math.sqrt(3.0) * (1.0 + 2.0 ** -20 + 2.0 ** -47 * config.radius / s)
            if config.alpha * math.log2(reach) >= 1024.0:  # reach^alpha overflows
                raise ConfigError(f"model.rho_c, {where}: a power-controlled mobile up to "
                                  f"{reach:.3g} from its station at rho_c={config.model.rho_c:.9g} "
                                  "transmits at r_b^alpha past the float range")
        # a node at the typical nearest distance (pi rho_p)^-1/2 receives
        # (pi rho_p)^(alpha/2); a covariance entry sums round(c N) received
        # powers, and where that overflows its spectrum is NaN: no SIR at all
        power = (math.pi * config.rho_p) ** (config.alpha / 2.0) * config.n_nodes
        if not math.isfinite(power):
            raise OverflowError(f"the interferer power scale {power!r} exceeds the float range")
        if rate is None or math.isfinite(rate):
            return
        problem = "the asymptotic prediction is not finite"
    except (ValueError, ArithmeticError) as exc:  # beyond the float range
        problem = f"cannot size or predict the point ({type(exc).__name__}: {exc})"
    raise ConfigError(
        f"network, {where}: {problem} at rho_p={config.rho_p:.9g}, alpha={config.alpha:.9g}, "
        f"c={config.c:.9g}, r_T={config.r_t:.9g}, N={config.n_branches}, "
        f"model {config.model.name} {config.model.params_label()}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def report_to_csv(report: montecarlo.ExperimentReport) -> str:
    rows = [CSV_COLUMNS]
    for p in report.points:
        cfg = p.config
        rate = p.rate
        rows.append(
            ",".join(
                [
                    cfg.model.name,
                    str(cfg.n_branches),
                    _fmt(cfg.c),
                    _fmt(cfg.alpha),
                    _fmt(cfg.rho_p),
                    cfg.model.params_label(),
                    _fmt(rate.mean if rate else None),
                    _fmt(rate.std if rate else None),
                    _fmt(rate.sem if rate else None),
                    _fmt(p.asymptote_rate),
                    _fmt(p.rel_gap),
                    _fmt(p.empirical_density),
                    _fmt(p.predicted_density),
                    str(report.master_seed),
                ]
            )
        )
    return "\n".join(rows) + "\n"


def cmd_simulate(args) -> int:
    spec = load_config(args.config)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    if args.replications is not None:
        spec = replace(spec, replications=args.replications)

    # --out opens before the sweep, so an unwritable path costs no run
    with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        # past every exit 2: one line per model variant (nu does not depend on N)
        for config in spec.point_configs()[::len(spec.n_values)]:
            if (c_nu := config.c * config.nu_expected) <= 1.0:
                print(f"simulate: c * nu = {c_nu:.4g} <= 1 for model "
                      f"{config.model.name} {config.model.params_label()}: fewer active "
                      "interferers than branches, so draws are often singular and redrawn",
                      file=sys.stderr)
        report = montecarlo.run_experiment(spec, workers=args.threads)
        out.write(report_to_csv(report))
    if args.out:
        print(f"wrote {len(report.points)} rows to {args.out}", file=sys.stderr)
    failed = sum(p.failed for p in report.points)
    redraws = sum(p.redraw_total for p in report.points)
    print(
        f"{len(report.points)} points x {report.replications} replications "
        f"in {report.wall_time_s:.1f}s (seed {report.master_seed}, "
        f"version {report.code_version}, {failed} failed points, {redraws} redraws)",
        file=sys.stderr,
    )
    return 0


def _open_out(path: str):
    """The --out file, opened for writing; an unwritable path is a ConfigError."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write: {exc}") from exc


def _given(args, flags: tuple[str, ...]) -> str:
    """The flags that were set, with their values, as typed; one the command lacks is unset."""
    return " ".join(
        f"{flag} {value}"
        for flag in flags
        if (value := getattr(args, flag[2:].replace("-", "_"), None)) is not None
    )


def _asymptote_lines(args) -> list[str]:
    params = AsymptoticParams(rho_p=args.rho_p, c=args.c, alpha=args.alpha, nu=args.nu)
    sol = asymptotics.solve_beta_fixed_point(params)
    oracle = asymptotics.fixed_point_oracle(params)
    large_c = asymptotics.beta_large_c(params.rho, params.alpha)

    def rel(a, b):
        return abs(a - b) / b

    lines = [
        f"beta (fixed point)       {sol.beta:.9g}",
        f"beta (quadrature oracle) {oracle:.9g}",
        f"beta (large-c formula)   {large_c:.9g}",
        f"fixed-point residual     {sol.residual:.3g}",
        f"rel diff fp vs oracle    {rel(sol.beta, oracle):.3g}",
        f"rel diff fp vs large-c   {rel(sol.beta, large_c):.3g}",
        f"rel diff oracle/large-c  {rel(oracle, large_c):.3g}",
    ]
    if args.n_branches is not None:
        rate_fp = sol.rate(args.n_branches, args.r_t)
        rate_lc = asymptotics.rate_approx(args.n_branches, params.rho, params.alpha, args.r_t)
        lines.append(f"rate at N={args.n_branches}, r_T={args.r_t:.9g}: "
                     f"fixed point {rate_fp:.9g}, large-c {rate_lc:.9g} bits/symbol")
    return lines


def cmd_asymptote(args) -> int:
    if args.n_branches is None and args.r_t is not None:
        raise ConfigError("--r-t needs --n-branches")
    if args.r_t is None and args.n_branches is not None:
        raise ConfigError("--n-branches needs --r-t")
    try:
        lines = _asymptote_lines(args)
    except NoBracket as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        print(
            f"parameters: rho_p={args.rho_p} nu={args.nu} c={args.c} alpha={args.alpha}",
            file=sys.stderr,
        )
        return 3
    except (ValueError, ArithmeticError) as exc:
        flags = ("--alpha", "--rho-p", "--nu", "--c", "--n-branches", "--r-t")
        raise ConfigError(f"cannot evaluate at {_given(args, flags)}: {exc}") from exc
    print("\n".join(lines))
    return 0


def cmd_density(args) -> int:
    try:
        model = ModelSpec(
            args.model, h=args.h, rho_b=args.rho_b, rho_c=args.rho_c, kappa=args.kappa
        )
        config = NetworkConfig(
            rho_p=args.rho_p,
            alpha=4.0,  # activation reads alpha only under power control, which density never sets
            n_branches=args.n_branches,
            c=args.c,
            r_t=args.r_t if args.r_t else math.sqrt(1.0 / (math.pi * args.rho_p)),
            model=model,
        )
        predicted = config.predicted_density()
        if not predicted > 0.0:
            # a limiting density can underflow to 0 (a huge exclusion radius,
            # rho_p / rho_c below the smallest double, which also puts the
            # disk past the cell range); the relative error would divide by
            # it.  Name rho_p and the model's own parameters.
            own = (f"--{key.replace('_', '-')}" for key in MODEL_PARAMS[args.model])
            given = _given(args, ("--rho-p", *own))
            raise ConfigError(f"the limiting active density of model {args.model!r} is "
                              f"{predicted:.3g} at {given}; nothing to compare against")
        _check_size(config, "--c, --n-branches", "--rho-b", "--rho-c")
    except (ValueError, ArithmeticError) as exc:
        flags = ("--rho-p", "--c", "--n-branches", "--h", "--rho-b", "--rho-c", "--kappa", "--r-t")
        raise ConfigError(f"cannot evaluate at {_given(args, flags)}: {exc}") from exc
    if config.n_nodes == 0:
        # no node to activate; the simulated density would be 0, or 0 / 0
        # where the disk area underflows
        raise ConfigError(f"--c, --n-branches: round(c N) = 0 at N={config.n_branches}, "
                          f"c={config.c:.9g}: the network holds no potential interferer")
    simulated = montecarlo.density_estimate(config, args.replications, args.seed)
    nu = config.nu_expected
    n = config.n_nodes
    area = math.pi * config.radius ** 2
    sigma = math.sqrt(n * nu * (1.0 - nu) / args.replications) / area
    # when every node is active (nu = 1) sigma is 0 and only rounding of the
    # disk area separates the two densities
    band = max(3.0 * sigma, 1e-12 * predicted)
    rel_err = abs(simulated - predicted) / predicted
    inside = abs(simulated - predicted) <= band
    print(f"predicted density  {predicted:.9g}")
    print(f"simulated density  {simulated:.9g}   ({args.replications} replications)")
    print(f"relative error     {rel_err:.3g}")
    print(f"3-sigma band       +/- {band:.3g}   ({'inside' if inside else 'OUTSIDE'})")
    return 0 if inside else 1


# what a report's plotted columns can hold: N counts branches, and a rate
# log2(1 + SIR) of a finite SIR lies in [0, 1024] bits/symbol
_PLOT_RANGES = {
    "N": (1.0, math.inf),
    "mean_rate": (0.0, 1024.0),
    "std_rate": (0.0, 1024.0),
    "asymptote": (0.0, 1024.0),
}


def _csv_number(text: str, where: str, lo: float, hi: float) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    if not lo <= value <= hi:
        raise ConfigError(f"{where}: expected a number in [{lo:g}, {hi:g}], got {text!r}")
    return value


def _parse_csv(path: str) -> list[dict]:
    """The rows of a simulate report; the plotted columns become numbers, or
    None where a failed point or a single replication left them empty."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    if not lines or lines[0] != CSV_COLUMNS:
        raise ConfigError(f"malformed report: expected header {CSV_COLUMNS!r}")
    cols = CSV_COLUMNS.split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(cols):
            raise ConfigError(f"line {lineno}: expected {len(cols)} fields, got {len(parts)}")
        row = dict(zip(cols, parts))
        for col, (lo, hi) in _PLOT_RANGES.items():
            where = f"line {lineno}, column {col}"
            row[col] = _csv_number(row[col], where, lo, hi) if row[col] or col == "N" else None
        rows.append(row)
    if not rows:
        raise ConfigError("report has no data rows")
    return rows


def cmd_plot(args) -> int:
    from .svgplot import RateSeries, render_rate_chart  # off every other command's import path
    series: dict[tuple, RateSeries] = {}
    skipped = 0
    for row in _parse_csv(args.report):
        if row["mean_rate"] is None:
            skipped += 1
            continue
        key = (row["model"], row["model_params"])
        s = series.setdefault(
            key,
            RateSeries(
                label=f"{row['model']} [{row['model_params']}]",
                n_values=[],
                mean=[],
                std=[],
                asymptote=[],
            ),
        )
        s.n_values.append(row["N"])
        s.mean.append(row["mean_rate"])
        s.std.append(0.0 if row["std_rate"] is None else row["std_rate"])
        s.asymptote.append(row["asymptote"])
    if not series:
        raise ConfigError("no plottable rows")
    if skipped:
        print(f"skipped {skipped} failed rows", file=sys.stderr)
    with _open_out(args.out) as fh:
        fh.write(render_rate_chart(list(series.values()), title=args.title))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_reuse_opt(args) -> int:
    try:
        kappa_star = asymptotics.optimal_reuse(
            args.alpha, args.n_branches, args.rho_p, args.rho_c
        )
    except (ValueError, ArithmeticError) as exc:
        flags = ("--alpha", "--n-branches", "--rho-p", "--rho-c")
        raise ConfigError(f"cannot evaluate at {_given(args, flags)}: {exc}") from exc
    print(f"optimal reuse kappa* {kappa_star:.9g}")
    nearest = max(1, round(kappa_star))
    print(f"nearest integer      {nearest}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer >= low; argparse names the flag on error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return parse


def _real_above(low: float):
    """argparse type: a finite number > low; argparse names the flag on error."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (math.isfinite(value) and value > low):
            raise argparse.ArgumentTypeError(f"must be a finite number > {low:g}, got {text}")
        return value

    return parse


def _probability(text: str) -> float:
    """argparse type: a number in (0, 1]; argparse names the flag on error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsenet",
        description="Monte Carlo and asymptotic rate analysis for MMSE-receiver networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured sweep, emit CSV")
    sim.add_argument("--config", required=True, help="JSON run configuration")
    sim.add_argument("--seed", type=_int_at_least(0), default=None, help="override master_seed")
    sim.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sim.add_argument(
        "--replications", type=_int_at_least(1), default=None, help="override replications"
    )
    sim.add_argument("--threads", type=_int_at_least(1), default=1, help="worker processes")
    sim.set_defaults(func=cmd_simulate)

    asym = sub.add_parser("asymptote", help="evaluate the SIR limit three ways")
    asym.add_argument("--alpha", type=_real_above(2.0), required=True)
    asym.add_argument("--rho-p", type=_real_above(0.0), required=True, dest="rho_p")
    asym.add_argument("--nu", type=_probability, default=1.0, help="activation probability")
    asym.add_argument("--c", type=_real_above(0.0), required=True, help="ratio n/N")
    asym.add_argument("--n-branches", type=_int_at_least(1), default=None, dest="n_branches")
    asym.add_argument("--r-t", type=_real_above(0.0), default=None, dest="r_t")
    asym.set_defaults(func=cmd_asymptote)

    dens = sub.add_parser("density", help="predicted vs simulated active density")
    dens.add_argument("--model", required=True, choices=MODEL_NAMES)
    dens.add_argument("--rho-p", type=_real_above(0.0), required=True, dest="rho_p")
    dens.add_argument("--c", type=_real_above(0.0), required=True)
    dens.add_argument("--n-branches", type=_int_at_least(1), required=True, dest="n_branches")
    dens.add_argument("--h", type=float, default=None)
    dens.add_argument("--rho-b", type=_real_above(0.0), default=None, dest="rho_b")
    dens.add_argument("--rho-c", type=_real_above(0.0), default=None, dest="rho_c")
    dens.add_argument("--kappa", type=int, default=None)
    dens.add_argument("--r-t", type=_real_above(0.0), default=None, dest="r_t")
    dens.add_argument("--replications", type=_int_at_least(1), default=200)
    dens.add_argument("--seed", type=_int_at_least(0), default=0)
    dens.set_defaults(func=cmd_density)

    plot = sub.add_parser("plot", help="render a simulate CSV as SVG")
    plot.add_argument("--report", required=True, help="CSV from the simulate command")
    plot.add_argument("--out", required=True, help="SVG output path")
    plot.add_argument("--title", default="")
    plot.set_defaults(func=cmd_plot)

    reuse = sub.add_parser("reuse-opt", help="rate-optimal frequency reuse factor")
    reuse.add_argument("--alpha", type=_real_above(2.0), required=True)
    reuse.add_argument("--n-branches", type=_int_at_least(1), required=True, dest="n_branches")
    reuse.add_argument("--rho-p", type=_real_above(0.0), required=True, dest="rho_p")
    reuse.add_argument("--rho-c", type=_real_above(0.0), required=True, dest="rho_c")
    reuse.set_defaults(func=cmd_reuse_opt)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "scipy":
            raise
        print(f"{args.command}: needs scipy, which is not installed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
