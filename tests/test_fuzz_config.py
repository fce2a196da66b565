"""Fuzzed configuration input: a config either loads or is refused with
``ConfigError``, and ``qsdcsim run`` on it ends in exit code 0 (a report,
an abort included), 1 (a protocol failure such as a starved session) or
2 (bad configuration), never in an uncaught exception."""
import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsdcsim import cli
from qsdcsim.errors import ConfigError
from qsdcsim.harness import ExperimentConfig

#: JSON scalars. Numbers stay small or lie far beyond every cap, so no
#: generated session is large: ``n_photons`` takes integral floats too.
HUGE = [2**24 + 1, 2**63, 2**70, -(2**70), 1e300, float("inf"), float("-inf"), float("nan")]
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-100, 100)
    | st.floats(-100.0, 100.0)
    | st.sampled_from(HUGE)
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


ATTACKS = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(
            ["none", "intercept_resend", "return_leg_tap", "collusion", "fake_sequence_bypass"]
        ),
        "params": st.dictionaries(
            st.sampled_from(["disclose_permutation", "disclose_initial_states", "schedule_variant"]),
            st.booleans() | st.sampled_from(["random_order", "fixed_order"]),
            max_size=2,
        ),
    },
)
NOISE = st.fixed_dictionaries(
    {},
    optional={"kind": st.sampled_from(["none", "bit_flip", "depolarizing"]), "p": st.floats(0.0, 1.0)},
)
#: Each field's plausible values, which keep sessions small: at most 64
#: photons and 4 controllers.
FIELDS = {
    "protocol": st.sampled_from(["qsdc", "mcqsdc"]),
    "n_photons": st.integers(1, 64),
    "check_fraction": st.floats(0.0, 1.0),
    "check_count": st.none() | st.integers(0, 64),
    "error_threshold": st.floats(0.0, 1.0),
    "noise": NOISE,
    "loss": st.floats(0.0, 1.0),
    "controllers": st.integers(0, 4),
    "attack": ATTACKS,
    "trials": st.integers(1, 3),
    "seed": st.integers(0, 2**64),
    "sweep": st.dictionaries(
        st.sampled_from(["n_photons", "loss", "check_count", "controllers", "frequency"]),
        st.lists(st.integers(0, 40) | st.floats(0.0, 1.0), max_size=2),
        max_size=2,
    ),
}
PLAUSIBLE = st.fixed_dictionaries({}, optional=FIELDS)


@st.composite
def configs(draw):
    """A plausible config, or one with a field (perhaps an unknown one)
    set to arbitrary JSON."""
    raw = draw(PLAUSIBLE)
    if draw(st.booleans()):
        raw[draw(st.sampled_from([*FIELDS, "frequency"]))] = draw(JSON_VALUES)
    return raw


CONFIGS = configs()


def loads_or_refuses(raw):
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(CONFIGS)
def test_from_dict_loads_or_raises_config_error(raw):
    loads_or_refuses(raw)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=10), JSON_VALUES, max_size=4))
def test_from_dict_on_arbitrary_objects(raw):
    loads_or_refuses(raw)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CONFIGS)
def test_cli_run_exits_zero_one_or_two(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert json.loads(out.getvalue())["config"]
    else:
        assert err.getvalue().startswith(("config error:", "protocol error:"))
