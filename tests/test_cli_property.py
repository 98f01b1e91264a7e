"""Property test of the flag commands: `asymptote`, `reuse-opt` and `density`
run through cli.main on drawn flag values end in a documented exit code,
never in a traceback.

Each flag usually takes a value argparse accepts: often an edge of its
range (the smallest subnormal, 1e308, the doubles next to alpha = 2 and
next to c * nu = 1), else a double of modest size or any double in range.
One time in eight it takes a wild one: 0, a negative, an infinity, NaN,
any double, or text that is not a number.  `asymptote` draws the optional
--n-branches/--r-t pair as a whole, as one flag of it, or not at all.
`density` draws each model with and without its own parameters, at the
edges 0, 5e-324, 1e300 and inf, at most three replications and networks of
at most about 2000 nodes, unless the size budget or argparse rejects the
value.  Only argparse's SystemExit may escape main.
"""

import contextlib
import io
import math
import re

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mmsenet.cli import main  # noqa: E402
from mmsenet.pointproc import MODEL_NAMES, MODEL_PARAMS  # noqa: E402

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
        assert re.search(r"--[a-z]", err.splitlines()[-1]), (argv, err)


SETTINGS = settings(
    max_examples=1000,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@SETTINGS
@given(argv=invocations())
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


@pytest.mark.filterwarnings("ignore::UserWarning")
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
