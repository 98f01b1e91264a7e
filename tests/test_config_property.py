"""Property test of config loading: every config that load_config accepts
gives a sized network (nodes, Boolean cluster centers and a cellular disk
within the float64 cell range), a finite SIR scale and finite predictions
at every sweep point.

Configs are drawn for every activation model, usually with values of each
key's own range, so that about half of them load, and one value in ten wild:
anywhere in the float exponent range, an integer of any size, a parameter
the model does not take.  A second test checks that the strategy reaches
accepted configs of every model.  Nothing is simulated, so no drawn network
is ever allocated.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings
from hypothesis import strategies as st

from mmsenet import montecarlo
from mmsenet.cli import MAX_CELL_SCALE, MAX_FADING_ENTRIES, ConfigError, load_config
from mmsenet.pointproc import MODEL_NAMES, MODEL_PARAMS, hex_spacing

# reals: usually a value of the key's own range, modest enough that a point
# is valid: alpha in (2, 8] and the rest within 1e-2..1e2, so that r_T^-alpha
# stays normal (r_T^-8 within 1e-16..1e16) and the node and cluster counts
# (c N <= 6400, rho_b / rho_p <= 1e4) and the cell scale stay within budget;
# else any double (NaN and the infinities too: json writes them as literals
# that json.load reads back) or an integer, small, large or beyond the float
# range
WILD_REAL = st.one_of(
    st.floats(),
    st.integers(min_value=-3, max_value=10),
    st.integers(min_value=-(10**400), max_value=10**400),
)
MODEST = (st.floats(min_value=1e-2, max_value=1e2), WILD_REAL)
NETWORK = {
    "rho_p": MODEST,
    "alpha": (st.floats(min_value=2.0, max_value=8.0, exclude_min=True), WILD_REAL),
    "c": MODEST,
    "r_T": MODEST,
}
INTEGERS = (
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=-(10**400), max_value=10**400),
)
PARAMS = {
    "h": (st.floats(min_value=0.0, max_value=1e2), WILD_REAL),
    "rho_b": MODEST,
    "rho_c": MODEST,
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
        "network": {key: pick(*values) for key, values in NETWORK.items()},
        "model": model,
        "sweep": {"N": [pick(*INTEGERS) for _ in range(draw(st.integers(1, 3)))]},
        "replications": pick(*INTEGERS),
        "master_seed": pick(*INTEGERS),
    }


@settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=configs())
# valid but for a disk some 2^504 station spacings wide, past the float64
# cell range
@example(raw={
    "schema_version": 1,
    "network": {"rho_p": 0.01, "alpha": 4.0, "c": 50.0, "r_T": 5.64},
    "model": {"name": "cellular", "rho_c": 1e300, "kappa": 3},
    "sweep": {"N": [2]},
    "replications": 5,
    "master_seed": 1,
})
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
        if config.model.rho_c is not None:
            assert config.radius / hex_spacing(config.model.rho_c) <= MAX_CELL_SCALE
        assert math.isfinite(montecarlo._sir_scale(config))
        density = config.predicted_density()
        assert math.isfinite(density) and density >= 0.0
        rate = montecarlo.predicted_rate(config)
        assert rate is None or math.isfinite(rate)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_strategy_draws_accepted_configs_of_every_model(tmp_path, name):
    # the property above holds only as far as the strategy reaches configs
    # that load_config accepts: it reaches them for every model
    path = tmp_path / "find.json"

    def accepted(raw):
        if raw["model"]["name"] != name:
            return False
        path.write_text(json.dumps(raw))
        try:
            load_config(str(path))
        except ConfigError:
            return False
        return True

    # the first accepted config, unshrunk
    found = find(configs(), accepted, settings=settings(
        max_examples=500, derandomize=True, database=None, phases=[Phase.generate]))
    assert found["model"]["name"] == name
