"""Property test of config loading: every config that load_config accepts
gives a sized network (nodes and Boolean cluster centers) and finite
predictions at every sweep point.

Configs are drawn across the full float exponent range, the integer fields,
every activation model and parameters the model does not take.  Nothing is
simulated, so no drawn network is ever allocated.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mmsenet import montecarlo  # noqa: E402
from mmsenet.cli import MAX_FADING_ENTRIES, ConfigError, load_config  # noqa: E402
from mmsenet.pointproc import MODEL_NAMES, MODEL_PARAMS  # noqa: E402

# reals: usually a positive double, half the time of modest size and half
# the time anywhere from subnormal to largest; else any double (NaN and the
# infinities too: json writes them as literals that json.load reads back) or
# an integer, small, large or beyond the float range
REALS = (
    st.one_of(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ),
    st.one_of(
        st.floats(),
        st.integers(min_value=-3, max_value=10),
        st.integers(min_value=-(10**400), max_value=10**400),
    ),
)
INTEGERS = (
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=-(10**400), max_value=10**400),
)
PARAMS = {
    "h": REALS,
    "rho_b": REALS,
    "rho_c": REALS,
    "kappa": (st.sampled_from([1, 3, 4, 7]), INTEGERS[1]),
    "power_control": (st.booleans(), st.integers(min_value=0, max_value=1)),
}


@st.composite
def configs(draw):
    """Each field usually takes a value of its own kind and range, and one
    time in ten a wild one: the model may miss a parameter it takes, or get
    one it does not take, and a parameter may be a list of values."""

    def pick(usual, wild):
        return draw(wild if draw(st.integers(min_value=0, max_value=9)) == 0 else usual)

    name = draw(st.sampled_from(MODEL_NAMES))
    keys = set(pick(st.just(MODEL_PARAMS[name]), st.just(())))
    keys |= pick(st.just(set()), st.sets(st.sampled_from(sorted(PARAMS)), max_size=1))
    model = {"name": name}
    for key in sorted(keys):
        value = pick(*PARAMS[key])
        model[key] = pick(st.just(value), st.lists(st.one_of(*PARAMS[key]), max_size=3))
    return {
        "schema_version": 1,
        "network": {key: pick(*REALS) for key in ("rho_p", "alpha", "c", "r_T")},
        "model": model,
        "sweep": {"N": [pick(*INTEGERS) for _ in range(draw(st.integers(1, 3)))]},
        "replications": pick(*INTEGERS),
        "master_seed": pick(*INTEGERS),
    }


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=configs())
def test_loaded_config_is_sized_and_predicted_everywhere(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(raw))
    try:
        spec = load_config(str(path))
    except ConfigError:
        return
    for config in spec.point_configs():
        assert config.n_branches * config.n_nodes <= MAX_FADING_ENTRIES
        assert config.n_clusters <= MAX_FADING_ENTRIES
        density = config.predicted_density()
        assert math.isfinite(density) and density >= 0.0
        rate = montecarlo.predicted_rate(config)
        assert rate is None or math.isfinite(rate)
