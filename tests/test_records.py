"""Every record that checks its fields checks them however it is built: from
its constructor, from ``_replace`` and from ``_make``."""

import math

import pytest

from zedsim.cli import main
from zedsim.config import DeviceConfig, StageProfile
from zedsim.errors import ZedSimError
from zedsim.pmu import CapacitorSpec, HarvestProfile
from zedsim.scheduler import ScheduleConfig, Thresholds
from zedsim.sim import SimConfig
from zedsim.traces import GeneratorSpec

# a sound record of each checked type and a field value that breaks it
CHECKED = [
    (CapacitorSpec(1.5, 3.6, 3.92, 4.5), {"capacitance_farads": 0.0}),
    (StageProfile(15e-3, 1.4), {"duration_seconds": -1.0}),
    (HarvestProfile((0.0, 5.0), (1e-3, 2e-3)), {"currents": (1e-3, -1.0)}),
    (HarvestProfile((0.0, 5.0), (1e-3, 2e-3)), {"times": (0.0,)}),
    (Thresholds(0.3, 0.7), {"gamma1": 0.6}),
    (Thresholds(0.3, 0.7), {"gamma2": 0.4}),
    (ScheduleConfig(10.0, 4.0, 20), {"n_attempts": 0}),
    (ScheduleConfig(10.0, 4.0, 20), {"n_attempts": 20.0}),
    (ScheduleConfig(10.0, 4.0, 20), {"n_attempts": math.nan}),
    (ScheduleConfig(10.0, 4.0, 20), {"guard_delta_joules": -1e-3}),
    (SimConfig(DeviceConfig.default(), 4.5, 100.0), {"initial_v": 4.6}),
    (SimConfig(DeviceConfig.default(), 4.5, 100.0), {"policy_variant": "greedy"}),
    (SimConfig(DeviceConfig.default(), 4.5, 100.0), {"gating_variant": "relay"}),
    # a device with a cross-field problem: the deadline plus a pipeline outlasts the window
    (SimConfig(DeviceConfig.default(), 4.5, 100.0),
     {"device": DeviceConfig.from_dict({"schedule": {"window_seconds": 3.0}})}),
    (GeneratorSpec(100, 0.7, 0.8, 0.5, 0), {"seed": -1}),
]


def _ids(cases):
    """Each case's record type, then the broken field for a type's later cases,
    then its value where the field repeats."""
    ids = []
    for record, bad in cases:
        name = type(record).__name__
        if name in ids:
            name = f"{name}-{'-'.join(bad)}"
        if name in ids:
            name = f"{name}-{'-'.join(map(repr, bad.values()))}"
        ids.append(name)
    return ids


@pytest.mark.parametrize("record, bad", CHECKED, ids=_ids(CHECKED))
def test_every_construction_path_is_checked(record, bad):
    cls = type(record)
    assert record._replace() == record and cls._make(record) == record
    values = [bad.get(name, value) for name, value in zip(record._fields, record)]
    with pytest.raises(ZedSimError) as built:
        cls(*values)
    for build in (lambda: record._replace(**bad), lambda: cls._make(values)):
        with pytest.raises(ZedSimError) as exc:
            build()
        assert type(exc.value) is type(built.value)
        assert str(exc.value) == str(built.value)


def test_with_capacitance_is_checked():
    with pytest.raises(ZedSimError, match="capacitance must be positive"):
        DeviceConfig.default().with_capacitance(0.0)


def test_sweep_at_zero_capacitance_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("id,o1,o2,label\n" + "".join(f"{k},0.2,0.8,1\n" for k in range(5)))
    out = tmp_path / "out"
    assert main(["sweep-capacitance", "--trace", str(trace), "--horizon", "30",
                 "--capacitance", "0", "--out", str(out)]) == 2
    assert "capacitance must be positive" in capsys.readouterr().err
    assert not out.exists()
