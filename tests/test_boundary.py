"""The input boundary under generated inputs: ``validate`` and ``run`` on config
trees with odd leaves, and odd ``--initial-v``, ``--harvest-ma`` and
``--horizon`` values under every ``--policy`` and ``--gating``, and ``run``,
``sweep-thresholds`` and ``validate`` on trace, harvest and config files with
mutated bytes, exit 0 or 2 without a traceback; a command that exits 2 leaves no
output directory, and a run that exits 0 has finite totals and stays within a
budget of trajectory rows per simulated second. A fault of each kind the library
raises, from a config, a trace or harvest file, a run or the engine, is exactly a
``ZedSimError`` with its exact message."""

import contextlib
import copy
import io
import json
import math
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trace_columns import trace_of
from zedsim.cli import _GATING_FLAGS, _POLICY_FLAGS, main
from zedsim.config import DeviceConfig
from zedsim.errors import ZedSimError
from zedsim.pmu import HarvestProfile
from zedsim.sim import SimConfig, _Engine, simulate
from zedsim.traces import load_harvest, load_trace

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


def _exits_cleanly(argv, out):
    """``main(argv)``'s exit status, once it is 0 or 2 with no traceback, and an
    exit 2 left no ``out``; argparse's rejections exit too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code == 0 or not out.exists(), err.getvalue()
    return code


def _assert_sound_run(out, horizon):
    """The run in ``out`` has finite totals and its row budget over ``horizon`` s."""
    for line in (out / "totals.txt").read_text().splitlines()[1:]:
        value = line.partition("=")[2]
        assert value == "" or math.isfinite(float(value)), line
    with open(out / "trajectory.csv") as fh:
        rows = fh.readlines()[2:]  # after the config hash and the header
    knots = sum(1 for row in rows if row.split(",")[2])  # events have no mode
    assert knots <= ROWS_PER_SECOND * horizon + ROWS_SLACK


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
# a 0.90 mJ band that a 65 mA idle draw empties in 4.2 ms, under the latch floor
@example("run", {"capacitor": {"capacitance_farads": 0.75e-3}, "idle_current_amps": 0.065},
         "3.7", "28.5", "100.0", "proposed", "mosfet")
# a band that holds one 10 us measurement, and that the idle draw empties in 10 us
@example("run", {"stages": {"measurement": {"duration_seconds": 1e-5}},
                 "capacitor": {"capacitance_farads": 1.81e-6}, "idle_current_amps": 0.065},
         "3.7", "28.5", "10.0", "proposed", "mosfet")
# 400 000 admission instants 10 us apart, each a measurement, against an admission
# no buffer can reach
@example("run", {"schedule": {"n_attempts": 400000},
                 "stages": {"measurement": {"duration_seconds": 1e-5},
                            "capture_preprocess": {"current_amps": 10}}},
         "4.5", "0.0", "10", "proposed", "mosfet")
@example("validate", {"converter_efficiency": 0.0}, "4.5", "0.0", "100.0", "proposed", "mosfet")
# a harvest so large that the harvested energy overflows to inf
@example("run", {}, "4.5", "1.7e308", "1000.0", "proposed", "mosfet")
# a stage whose power overflows, reached by policy-ii's unchecked escalation
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
        if _exits_cleanly(argv, out) == 0 and command == "run":
            _assert_sound_run(out, float(horizon))


_rng = random.Random(0)
# a valid file of each kind, as ``run`` reads it beside the other two
FILES = {
    "--trace": ("id,o1,o2,label\r\n" + "".join(
        f"{i},{_rng.random()!r},{_rng.random()!r},{_rng.randint(0, 1)}\r\n" for i in range(20)
    )).encode(),
    "--harvest": b"t_start_s,i_h_ma\n0.0,0.0\n20.0,10.0\n40.0,3.0\n60.0,6.0\n80.0,0.0\n",
    "--config": json.dumps(DEFAULT, indent=1).encode(),
}
FILE_HORIZON = 100.0  # ten windows
# the commands that read each kind of file
FILE_COMMANDS = {"--trace": ("run", "sweep-thresholds"), "--harvest": ("run",),
                 "--config": ("run", "validate")}
ODD_TOKENS = [b"0", b"1", b"-1", b"-0", b"1e-300", b"1e300", b"5e-324", b"-1e-320", b"1e999",
              b"nan", b"inf", b"-inf", b"0x10", b"1_0", b" 1 ", b"", b"true", b"null", b"[]",
              b"{}", b'""', b"\xff", b"1" * 400, b"9" * 5000, b"7" * 200_000]
TOKEN = re.compile(rb'[^,:\s{}\[\]"]+')


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three mutations: a token (a CSV field, a JSON number or
    key) replaced by an odd one, a ``\\xff``, NUL, quote or CR byte inserted, or
    a line dropped or duplicated."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "byte", "drop", "duplicate"]))
        if kind == "token":
            spans = [m.span() for m in TOKEN.finditer(data)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                data = data[:start] + draw(st.sampled_from(ODD_TOKENS)) + data[end:]
        elif kind == "byte":
            i = draw(st.integers(0, len(data)))
            data = data[:i] + draw(st.sampled_from([b"\xff", b"\x00", b'"', b"\r"])) + data[i:]
        else:
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
            data = b"\n".join(lines)
    return data


@given(file=st.sampled_from(sorted(FILES)).flatmap(
    lambda flag: mutated(FILES[flag]).map(lambda data: (flag, data))))
# the unreadable files: an undecodable byte in each kind, a field beyond the CSV
# reader's limit, nesting beyond the recursion limit, an integer too long to
# convert, and one that converts but that no float holds
@example(("--trace", FILES["--trace"].replace(b"\n1,", b"\n1\xff,")))
@example(("--harvest", b"t_start_s,i_h_ma\n0.0,1.\xff0\n"))
@example(("--config", b'{"capacitor": {"v_max": 4.\xff5}}'))
@example(("--trace", FILES["--trace"] + b"20,0.5,0.5," + b"1" * 200_000 + b"\r\n"))
@example(("--config", b"[" * 200_000))
@example(("--config", b'{"capacitor": {"v_max": ' + b"4" * 5000 + b"}}"))
@example(("--config", b'{"capacitor": {"v_max": ' + b"4" * 400 + b"}}"))
def test_mutated_input_files_exit_cleanly(file):
    flag, data = file
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name.lstrip("-") for name in FILES}
        for name, path in paths.items():
            path.write_bytes(data if name == flag else FILES[name])
        for command in FILE_COMMANDS[flag]:
            out = Path(tmp) / command
            argv = [command, "--config", str(paths["--config"])]
            if command == "run":
                argv += ["--trace", str(paths["--trace"]), "--harvest", str(paths["--harvest"]),
                         "--horizon", repr(FILE_HORIZON), "--out", str(out)]
            elif command == "sweep-thresholds":
                argv += ["--trace", str(paths["--trace"]), "--out", str(out)]
            if _exits_cleanly(argv, out) == 0 and command == "run":
                _assert_sound_run(out, FILE_HORIZON)


def _written(path, text):
    path.write_text(text)
    return path


# one fault of each kind, given the path of a file it may write, with its message;
# "{path}" in a message stands for that file
FAULTS = [
    pytest.param(lambda path: DeviceConfig.from_dict({"schedule": "x"}),
                 "schedule: must be an object", id="config-type"),
    pytest.param(lambda path: DeviceConfig.from_dict({"schedule": {"window_seconds": -1}}),
                 "schedule: window duration must be positive", id="config-range"),
    pytest.param(lambda path: load_trace(_written(path, "id,o1,o2,label\n3,1.2,0.5,1\n")),
                 "{path}:2: instance 3: o1=1.2 outside [0, 1]", id="trace-row"),
    pytest.param(lambda path: load_harvest(_written(path, "t_start_s,i_h_ma\n5.0,1.0\n")),
                 "{path}: first segment must start at t=0", id="harvest-start"),
    pytest.param(lambda path: simulate(SimConfig(DeviceConfig.default(), 4.5, 200.0),
                                       HarvestProfile.constant(0.0), trace_of([])),
                 "trace has 0 instances but the horizon holds 20 windows", id="short-trace"),
    pytest.param(lambda path: SimConfig(DeviceConfig.default(), 4.6, 100.0),
                 "initial_v=4.6 outside [v_off=3.6, v_max=4.5]", id="initial-v"),
    # 3.7 V is below v_on, so the engine starts with its outputs off
    pytest.param(lambda path: _Engine(DeviceConfig.default(), HarvestProfile.constant(1e-3),
                                      3.7).run_stage("measurement"),
                 "stage 'measurement' requested at t=0.0 with outputs disabled", id="engine"),
]


@pytest.mark.parametrize("fault, message", FAULTS)
def test_every_fault_is_exactly_a_zedsimerror(tmp_path, fault, message):
    path = tmp_path / "input.csv"
    with pytest.raises(ZedSimError) as excinfo:
        fault(path)
    assert type(excinfo.value) is ZedSimError
    assert str(excinfo.value) == message.format(path=path)
