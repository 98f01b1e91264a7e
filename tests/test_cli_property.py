"""Property test of the flag commands: `asymptote` and `reuse-opt` run through
cli.main on drawn flag values end in a documented exit code, never in a
traceback.

Each flag usually takes a value argparse accepts: often an edge of its
range (the smallest subnormal, 1e308, the doubles next to alpha = 2 and
next to c * nu = 1), else a double of modest size or any double in range.
One time in eight it takes a wild one: 0, a negative, an infinity, NaN,
any double, or text that is not a number.  `asymptote` draws the optional
--n-branches/--r-t pair as a whole, as one flag of it, or not at all.
Only argparse's SystemExit may escape main.
"""

import contextlib
import io
import math
import re

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mmsenet.cli import main  # noqa: E402

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


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(
    max_examples=1000,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=invocations())
def test_flag_commands_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code == 2:
        assert re.search(r"--[a-z]", err.splitlines()[-1]), (argv, err)
