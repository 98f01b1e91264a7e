"""Property tests of the command line: `asymptote`, `reuse-opt` and `density`
on drawn flag values, `simulate` on drawn configs and `plot` on drawn
reports, run through cli.main, end in a documented exit code, never in a
traceback, and an exit 2 names the flag, key or report cell at fault.

Each flag usually takes a value argparse accepts: often an edge of its
range (the smallest subnormal, 1e308, the doubles next to alpha = 2 and
next to c * nu = 1), else a double of modest size or any double in range.
One time in eight it takes a wild one: 0, a negative, an infinity, NaN,
any double, or text that is not a number.  `asymptote` draws the optional
--n-branches/--r-t pair as a whole, as one flag of it, or not at all.
`density` draws each model with and without its own parameters, at the
edges 0, 5e-324, 1e300 and inf, at most three replications and networks of
at most about 2000 nodes, unless the size budget or argparse rejects the
value.  `simulate` takes test_config_property's configs, made small: at
most two replications, N at most 64, about 2000 nodes, Boolean cluster
centers no denser than the nodes and guard radii within a typical node
spacing.  `plot` takes reports of good rows, failed rows (empty statistics)
and rows with one wild cell.  Only argparse's SystemExit may escape main.
The CHANGES.md cases of each command are `@example`s; the missing-scipy
exit 1 has its own test in test_cli.py, which hides scipy from a fresh
interpreter.
"""

import contextlib
import io
import json
import math
import re
import xml.etree.ElementTree as ET

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_config_property import configs

from mmsenet.cli import CSV_COLUMNS, main
from mmsenet.pointproc import MODEL_NAMES, MODEL_PARAMS

WILD = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.sampled_from(["", "x", "1e400", "0x10", "True"]),
)


def _positive(*edges):
    modest = st.floats(min_value=1e-3, max_value=1e3)
    return st.one_of(st.sampled_from(edges), modest, modest,
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


POSITIVE = _positive(5e-324, 1e-300, 0.01, 1.0, 1e300, 1e308)
FLAGS = {
    "--alpha": st.one_of(
        st.sampled_from([math.nextafter(2.0, 3.0), 2.0 + 2.0 ** -50, 2.0000001, 2.5, 4.0,
                         1e3, 1e308]),
        st.floats(min_value=2.0, max_value=10.0, exclude_min=True),
        st.floats(min_value=2.0, exclude_min=True, allow_infinity=False),
    ),
    "--rho-p": POSITIVE,
    "--rho-c": POSITIVE,
    "--r-t": POSITIVE,
    # with --nu 0.5 or its neighbours, --c 2 puts c * nu next to 1
    "--c": _positive(5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
                     1.000000001, 2.0, 50.0, 1e308),
    "--nu": st.one_of(
        st.sampled_from([5e-324, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
                         math.nextafter(1.0, 0.0), 1.0]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    ),
    "--n-branches": st.one_of(st.integers(min_value=1, max_value=64),
                              st.sampled_from([10**18, 10**400])),
}


@st.composite
def invocations(draw):
    def value(flag):
        wild = draw(st.integers(min_value=0, max_value=7)) == 0
        return str(draw(WILD if wild else FLAGS[flag]))

    if draw(st.booleans()):
        flags = ["--alpha", "--rho-p", "--c"]
        if draw(st.booleans()):
            flags.append("--nu")
        flags += draw(st.sampled_from([[], ["--n-branches"], ["--r-t"],
                                       ["--n-branches", "--r-t"]]))
        command = "asymptote"
    else:
        flags = ["--alpha", "--n-branches", "--rho-p", "--rho-c"]
        command = "reuse-opt"
    argv = [command]
    for flag in flags:
        argv += [flag, value(flag)]
    return argv


def run(argv):
    """main's exit code and stderr on argv; only argparse's SystemExit may escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, err.getvalue()


def assert_names_a_flag(code, err, argv):
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        # argparse prints its usage first; main's own exit 2 is one line
        if not err.startswith("usage: "):
            assert err.count("\n") == 1, (argv, err)
        assert re.search(r"--[a-z]", err.splitlines()[-1]), (argv, err)


SETTINGS = settings(
    max_examples=1000,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(argv=invocations())
# an alpha, c or rho_p out of range, and N = 0
@example(argv=["asymptote", "--alpha", "2", "--rho-p", "0.01", "--c", "50"])
@example(argv=["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "-1"])
@example(argv=["asymptote", "--alpha", "4", "--rho-p", "0", "--c", "50"])
@example(argv=["reuse-opt", "--alpha", "4", "--n-branches", "0", "--rho-p", "0.01",
               "--rho-c", "0.001"])
# --r-t without --n-branches, and --n-branches without --r-t
@example(argv=["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "50", "--r-t", "5.64"])
@example(argv=["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "50", "--n-branches", "4"])
# a quadrature past the float range next to alpha = 2: its last piece ends
# at inf
@example(argv=["asymptote", "--alpha", "2.0000000000000004", "--rho-p", "1e-300",
               "--c", "564761955.0"])
# the oracle's failure edges next to alpha = 2: rho_p 1e300, where the fixed
# point stalls, and a last piece [1e308, inf] at c 1e308 or rho_p 5e-324
@example(argv=["asymptote", "--alpha", "2.0000000000000004", "--rho-p", "1e300", "--c", "50"])
@example(argv=["asymptote", "--alpha", "2.0000000000000004", "--rho-p", "0.01", "--c", "1e308"])
@example(argv=["asymptote", "--alpha", "2.0000000000000004", "--rho-p", "5e-324", "--c", "50"])
def test_flag_commands_exit_with_a_documented_code(argv):
    code, err = run(argv)
    assert code in (0, 2, 3), (argv, err)
    assert_names_a_flag(code, err, argv)


DENSITY_EDGES = st.sampled_from([0.0, 5e-324, 1e300, math.inf])
DENSITY_WILD = st.sampled_from([0.0, -1.0, -math.inf, math.nan, "", "x", "1e400"])
OWN_FLAGS = ("--h", "--rho-b", "--rho-c", "--kappa")


@st.composite
def density_invocations(draw):
    """`density` argv.  A value is an edge one time in six (0, 5e-324, 1e300
    or inf for --h/--rho-b/--rho-c, --kappa 2 or 5, a huge N, an extreme c,
    rho_p or r_T) and wild one time in twenty; each of the model's own
    flags is left out one time in six, and another model's flag is given
    one time in ten.  The usual --h, --rho-b and --rho-c scale with rho_p,
    so that most networks keep some nodes active."""

    def pick(usual, edge, one_in=6):
        return draw(edge if draw(st.integers(min_value=1, max_value=one_in)) == 1 else usual)

    def text(value):
        return str(pick(st.just(value), DENSITY_WILD, one_in=20))

    def scaled(low, high):
        # rho_p times a factor, or an edge
        return pick(st.floats(min_value=low, max_value=high).map(rho_p.__mul__), DENSITY_EDGES)

    model = draw(st.sampled_from(MODEL_NAMES))
    rho_p = pick(st.floats(min_value=1e-3, max_value=1e3),
                 st.sampled_from([5e-324, 1e-300, 1e300]))
    n_branches = pick(st.integers(min_value=1, max_value=64), st.sampled_from([10**18, 10**400]))
    # c N at most 2000 nodes, unless the size budget rejects the N or the c
    nodes = draw(st.floats(min_value=1.0, max_value=2000.0))
    c = pick(st.just(nodes / n_branches if n_branches <= 64 else nodes),
             st.sampled_from([5e-324, 0.5, 1e300, 1e308]))
    # a guard radius up to 3 typical node spacings sqrt(1 / (pi rho_p))
    h = pick(st.floats(min_value=1e-3, max_value=3.0).map(lambda t: t / math.sqrt(math.pi * rho_p)),
             DENSITY_EDGES)
    values = {
        "--h": h,
        # as many cluster centers or base stations as nodes at most
        "--rho-b": scaled(1e-3, 1.0),
        "--rho-c": scaled(1e-3, 1.0),
        "--kappa": pick(st.sampled_from([1, 3, 4, 7]), st.sampled_from([2, 5])),
    }
    own = [f"--{key.replace('_', '-')}" for key in MODEL_PARAMS[model]]
    flags = [flag for flag in OWN_FLAGS if flag in own and pick(st.just(True), st.just(False))]
    flags += pick(st.just([]), st.sampled_from([[flag] for flag in OWN_FLAGS if flag not in own]),
                  one_in=10)
    argv = ["density", "--model", model, "--rho-p", text(rho_p), "--c", text(c),
            "--n-branches", text(n_branches)]
    for flag in flags:
        argv += [flag, text(values[flag])]
    if draw(st.booleans()):
        r_t = pick(st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([5e-324, 1e300]))
        argv += ["--r-t", text(r_t)]
    argv += ["--replications", text(draw(st.integers(min_value=1, max_value=3))),
             "--seed", str(draw(st.integers(min_value=0, max_value=2**32)))]
    return argv


@settings(SETTINGS, max_examples=300)
@given(argv=density_invocations())
# a limiting density of 0, which the relative error would divide by
@example(argv=["density", "--model", "hc1", "--rho-p", "0.01", "--c", "10", "--n-branches", "2",
               "--h", "1e308", "--replications", "2"])
# N x round(c N) past the size budget
@example(argv=["density", "--model", "independent", "--rho-p", "0.01", "--c", "1e300",
               "--n-branches", "2"])
# a disk some 5e151 station spacings wide, past the float64 cell range
@example(argv=["density", "--model", "cellular", "--rho-c", "1e300", "--kappa", "3", "--rho-p",
               "0.01", "--c", "50", "--n-branches", "2", "--replications", "5"])
def test_density_exits_with_a_documented_code(argv):
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, err)
    assert_names_a_flag(code, err, argv)


def _small(raw):
    """raw with its sizes capped where they are valid numbers: at most 2
    replications, N at most 64, c N at most 2000 nodes, rho_b at most rho_p
    and h at most one typical node spacing 1 / sqrt(pi rho_p).  A failed
    point redraws each replication 100 times, and a guard radius of many
    spacings, short of the disk's diameter, pairs each node with many."""

    def real(value):
        if isinstance(value, float):
            return math.isfinite(value) and value > 0
        return isinstance(value, int) and not isinstance(value, bool) and value > 0

    def capped(value, cap):
        if isinstance(value, list):
            return [capped(v, cap) for v in value]
        return min(value, cap) if real(value) and real(cap) else value

    network, model, sweep = raw["network"], raw["model"], raw["sweep"]
    n_values = sweep["N"] = [capped(n, 64) for n in sweep["N"]]
    largest = max((n for n in n_values if real(n)), default=1)
    network["c"] = capped(network["c"], 2000.0 / largest)
    rho_p = network["rho_p"]
    model_caps = {"rho_b": rho_p, "h": 1.0 / math.sqrt(math.pi * rho_p) if real(rho_p) else None}
    for key, cap in model_caps.items():
        if key in model:
            model[key] = capped(model[key], cap)
    raw["replications"] = capped(raw["replications"], 2)
    return raw


def simulate_exit(raw, tmp_path):
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps(raw))
    return run(["simulate", "--config", str(path)])


@settings(SETTINGS, max_examples=150)
@given(raw=configs().map(_small))
# an interferer power scale (pi rho_p)^(alpha/2) = 1e601: the covariance
# would be NaN, and the point read mean_rate 0
@example(raw={"schema_version": 1, "network": {"rho_p": 1e300, "alpha": 4, "c": 50, "r_T": 1},
              "model": {"name": "independent"}, "sweep": {"N": [2]}, "replications": 2,
              "master_seed": 1})
# r_T^-alpha = 1e-400: an SIR scale that underflows to 0
@example(raw={"schema_version": 1, "network": {"rho_p": 0.01, "alpha": 4, "c": 50, "r_T": 1e100},
              "model": {"name": "hc1", "h": 2.82}, "sweep": {"N": [2]}, "replications": 2,
              "master_seed": 1})
# round(pi rho_b R^2) cluster centers past the size budget
@example(raw={"schema_version": 1, "network": {"rho_p": 0.01, "alpha": 4, "c": 50, "r_T": 5.64},
              "model": {"name": "boolean", "h": 1, "rho_b": 1e300}, "sweep": {"N": [2]},
              "replications": 2, "master_seed": 1})
# a covariance stack of 25 x 10^36 entries at a network of no node
@example(raw={"schema_version": 1, "network": {"rho_p": 1, "alpha": 4, "c": 1e-300, "r_T": 1},
              "model": {"name": "independent"}, "sweep": {"N": [10**18]}, "replications": 2,
              "master_seed": 1})
# guard radii past the disk's diameter: every pair of 2000 nodes is close
@example(raw={"schema_version": 1, "network": {"rho_p": 1, "alpha": 4, "c": 1000, "r_T": 1},
              "model": {"name": "hc1", "h": 100}, "sweep": {"N": [2]}, "replications": 2,
              "master_seed": 1})
@example(raw={"schema_version": 1, "network": {"rho_p": 1, "alpha": 4, "c": 1000, "r_T": 1},
              "model": {"name": "hc2", "h": 100}, "sweep": {"N": [2]}, "replications": 2,
              "master_seed": 1})
# a node about half the typical distance from the receiver: its power or the
# covariance overflows, and the member is redrawn without a numpy warning
@example(raw={"schema_version": 1,
              "network": {"rho_p": 1e152, "alpha": 4, "c": 50, "r_T": 5.6e-77},
              "model": {"name": "independent"}, "sweep": {"N": [2]}, "replications": 200,
              "master_seed": 1})
# power-controlled mobiles some 6e149 from their stations: r_b^alpha
# overflows, and inf times an underflowed r^-alpha is a NaN weight
@example(raw={"schema_version": 1, "network": {"rho_p": 1e-299, "alpha": 4, "c": 800, "r_T": 1},
              "model": {"name": "cellular", "rho_c": 1e-300, "kappa": 3, "power_control": True},
              "sweep": {"N": [4]}, "replications": 2, "master_seed": 1})
# a station spacing that overflows: R / s = 0 passed the cell range, and the
# nearest-site search multiplied inf by 0
@example(raw={"schema_version": 1, "network": {"rho_p": 1e-299, "alpha": 4, "c": 800, "r_T": 1},
              "model": {"name": "cellular", "rho_c": 5e-324, "kappa": 3},
              "sweep": {"N": [4]}, "replications": 2, "master_seed": 1})
def test_simulate_exits_with_a_documented_code(tmp_path_factory, raw):
    code, err = simulate_exit(raw, tmp_path_factory.getbasetemp())
    assert code in (0, 2), (raw, err)
    assert "Traceback" not in err, (raw, err)
    if code == 2:
        # one line, naming the config key or sweep point at fault
        assert err.count("\n") == 1, (raw, err)
        assert re.match(r"simulate: (config|schema_version|network|model|sweep|replications|"
                        r"master_seed)\b", err), (raw, err)


# a plotted cell is a finite number within its range: N >= 1, rates in
# [0, 1024]; the other cells are text
WILD_CELL = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "1e400", "1e308", "-1e308", "5e-324",
                     "1025", "1e17", "x", "2,3", "<&\"'>", " 4", "0x10"]),
    st.floats().map(repr),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            max_size=8),
)
COLUMNS = CSV_COLUMNS.split(",")
FAILED = ("mean_rate", "std_rate", "sem", "rel_gap", "empirical_density")


@st.composite
def reports(draw):
    """A report of 1 to 6 rows: each good (every cell a finite number in its
    range, std_rate and sem empty one time in four as at one replication),
    failed (the statistics empty) or good but for one wild cell."""
    rate = st.floats(min_value=0.0, max_value=1024.0).map(repr)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = {
            "model": draw(st.sampled_from(MODEL_NAMES)),
            "N": str(draw(st.integers(min_value=1, max_value=64))),
            "c": "50", "alpha": "4", "rho_p": "0.01",
            "model_params": draw(st.sampled_from(["-", "h=2.82", "h=5.64;rho_b=0.01"])),
            "mean_rate": draw(rate), "std_rate": draw(rate), "sem": draw(rate),
            "asymptote": draw(st.one_of(rate, st.just(""))),
            "rel_gap": "0.1", "empirical_density": "0.0063", "predicted_density": "0.0063",
            "seed": "11",
        }
        kind = draw(st.sampled_from(["good", "good", "single", "failed", "wild"]))
        if kind == "single":
            row["std_rate"] = row["sem"] = ""
        elif kind == "failed":
            row.update(dict.fromkeys(FAILED, ""))
        elif kind == "wild":
            row[draw(st.sampled_from(COLUMNS))] = draw(WILD_CELL)
        rows.append(",".join(row[col] for col in COLUMNS))
    return "\n".join([CSV_COLUMNS, *rows]) + "\n"


@settings(SETTINGS, max_examples=150)
@given(report=reports())
# a y span past the float range, and one N whose axis width rounded away
@example(report=f"{CSV_COLUMNS}\nhc1,2,50,4,0.01,h=2.82,1e308,1,1,3.9,0.1,0.0063,0.0063,11\n"
                f"hc1,4,50,4,0.01,h=2.82,-1e308,1,1,3.9,0.1,0.0063,0.0063,11\n")
@example(report=f"{CSV_COLUMNS}\nhc1,1e17,50,4,0.01,h=2.82,3.5,1,1,3.9,0.1,0.0063,0.0063,11\n")
# a control character in a label, which no XML document may hold
@example(report=f"{CSV_COLUMNS}\n\x1f,1,50,4,0.01,-,0.0,0.0,0.0,0.0,0.1,0.0063,0.0063,11\n")
def test_plot_exits_with_a_documented_code(tmp_path_factory, report):
    path = tmp_path_factory.getbasetemp() / "report.csv"
    chart = path.with_suffix(".svg")
    path.write_text(report, encoding="utf-8")
    code, err = run(["plot", "--report", str(path), "--out", str(chart)])
    assert code in (0, 2), (report, err)
    assert "Traceback" not in err, (report, err)
    if code == 2:
        # one line, naming the cell or line at fault, or a report with no
        # row to plot
        assert err.count("\n") == 1, (report, err)
        assert re.match(r"plot: (line \d+(, column \w+)?: |no plottable rows$)", err), \
            (report, err)
    else:
        ET.fromstring(chart.read_text(encoding="utf-8"))  # a well-formed SVG document
