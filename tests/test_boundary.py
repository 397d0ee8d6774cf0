"""The input boundary under generated inputs: ``validate`` and ``run`` on config
trees with odd leaves, and odd ``--initial-v``, ``--harvest-ma`` and
``--horizon`` values under every ``--policy`` and ``--gating``, exit 0 or 2
without a traceback; a run that exits 2 leaves no output directory, and one that
exits 0 has finite totals and stays within a budget of trajectory rows per
simulated second."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zedsim.cli import _GATING_FLAGS, _POLICY_FLAGS, main
from zedsim.config import DeviceConfig

DEFAULT = DeviceConfig.default().to_dict()
ROWS_PER_SECOND = 200  # the engine's pieces, one trajectory row each
ROWS_SLACK = 10


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _sections(tree, path=()):
    yield path
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _sections(value, path + (key,))


LEAVES = list(_leaves(DEFAULT))
SECTIONS = list(_sections(DEFAULT))
ODD = [0, 0.0, -0.0, -1.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, True, False, "1.5", "",
       None, [], [1.0], {}, {"x": 1.0}]


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def config_trees(draw):
    """The default tree with a few leaves replaced and, in half the trees, an
    unknown key added or a section dropped or replaced, so that many trees
    stay sound and reach the engine."""
    tree = copy.deepcopy(DEFAULT)
    for path in draw(st.lists(st.sampled_from(LEAVES), max_size=3, unique=True)):
        default = _get(DEFAULT, path)
        _get(tree, path[:-1])[path[-1]] = draw(st.one_of(
            st.floats(0.5, 2.0).map(lambda scale: default * scale),
            st.floats(1e-6, 1e6).map(lambda scale: default * scale),
            st.floats(0.0, 0.1),
            st.sampled_from(ODD),
            st.floats(),
            st.integers(-2**70, 2**70),
        ))
    if draw(st.booleans()):
        return tree
    for path in draw(st.lists(st.sampled_from(SECTIONS), max_size=1)):
        _get(tree, path)[draw(st.sampled_from(["extra", "v_of", "gamma3", ""]))] = 1.0
    for path in draw(st.lists(st.sampled_from(SECTIONS[1:]), max_size=1)):
        parent = _get(tree, path[:-1])
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(ODD))
    return tree


def flag_values(lo, hi):
    """Mostly floats in [lo, hi], else odd numbers and text, as the flag's text."""
    return st.one_of(
        st.floats(lo, hi).map(repr),
        st.sampled_from([lo, hi]).map(repr),
        st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e300, -1e300, math.inf, -math.inf,
                         math.nan]).map(repr),
        st.floats().map(repr),
        st.sampled_from(["", "x", "1e999", "0x10"]),
    )


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary") / "trace.csv"
    assert main(["gen-trace", "--n", "200", "--seed", "0", "--out", str(path)]) == 0
    return path


def _main(argv):
    """Exit status and stderr of ``main(argv)``; argparse's rejections exit too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@given(
    command=st.sampled_from(["validate", "run"]),
    config=config_trees(),
    initial_v=flag_values(3.6, 4.5),
    harvest_ma=flag_values(0.0, 30.0),
    horizon=st.one_of(st.floats(1e-3, 100.0), st.sampled_from([0.0, 1e-300, 100.0])).map(repr),
    policy=st.sampled_from(sorted(_POLICY_FLAGS)),
    gating=st.sampled_from(sorted(_GATING_FLAGS)),
)
# the three probes of the input boundary: stored-energy overflow, a list of
# 10^8 admission instants, and a 1 nF buffer that chatters under its idle draw
@example("run", {"capacitor": {"v_max": 1e200}}, "1e199", "0.0", "100.0", "proposed", "mosfet")
@example("run", {"schedule": {"n_attempts": 100000000}}, "4.5", "0.0", "100.0", "proposed",
         "mosfet")
@example("run", {"capacitor": {"capacitance_farads": 1e-9}, "idle_current_amps": 1e-3},
         "4.5", "0.1", "100.0", "proposed", "mosfet")
@example("run", {"capacitor": {"capacitance_farads": 1e-300}, "idle_current_amps": 1e-3},
         "4.5", "0.1", "100.0", "proposed", "mosfet")
# the edge of the chatter rule: a 0.90 mJ band under a 65 mA idle draw
@example("run", {"capacitor": {"capacitance_farads": 0.75e-3}, "idle_current_amps": 0.065},
         "3.7", "28.5", "100.0", "proposed", "mosfet")
@example("validate", {"converter_efficiency": 0.0}, "4.5", "0.0", "100.0", "proposed", "mosfet")
# a stage whose power overflows, reached by policy-ii's unenforced escalation
@example("run", {"stages": {"led_green": {"current_amps": 1e300, "supply_volts": 1e300}}},
         "4.5", "0.0", "100.0", "policy-ii", "mosfet")
def test_main_exits_cleanly(trace_file, command, config, initial_v, harvest_ma, horizon, policy,
                            gating):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--horizon", horizon, "--initial-v", initial_v,
                     "--harvest-ma", harvest_ma, "--policy", policy, "--gating", gating,
                     "--out", str(out)]
        code, err = _main(argv)
        assert code in (0, 2), err
        assert "Traceback" not in err
        if command != "run":
            return
        if code != 0:
            assert not out.exists(), err
            return
        for line in (out / "totals.txt").read_text().splitlines()[1:]:
            value = line.partition("=")[2]
            assert value == "" or math.isfinite(float(value)), line
        with open(out / "trajectory.csv") as fh:
            rows = fh.readlines()[2:]  # after the config hash and the header
        knots = sum(1 for row in rows if row.split(",")[2])  # events have no mode
        assert knots <= ROWS_PER_SECOND * float(horizon) + ROWS_SLACK
