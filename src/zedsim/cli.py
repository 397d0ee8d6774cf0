"""Command-line front end: single runs, policy comparisons, threshold and
capacitance sweeps, trace generation, and config validation.

The simulation modules compute; this module alone prints, writes every artifact
and owns its format. Each artifact embeds the sha256 of the fully resolved
configuration, which its command computes once, holds floats as their repr and
None as an empty value, and re-running the same command reproduces
byte-identical files. Power failures inside a simulation are data, not process
errors; only configuration problems yield a nonzero exit status.
"""

from __future__ import annotations

import argparse
import csv
import heapq
import json
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import List, Optional, Sequence

from .config import DeviceConfig, config_hash, load_config
from .errors import ZedSimError
from .pmu import HarvestProfile
from .scheduler import GATINGS, VARIANTS, Thresholds, plan
from .sim import SimConfig, SimResult, SimTotals, simulate
from .traces import (
    SWEEP_HEADER,
    GeneratorSpec,
    Trace,
    generate_trace,
    load_harvest,
    load_trace,
    save_trace,
    sweep_thresholds,
    trace_statistics,
)

_POLICY_FLAGS = {v.replace("_", "-"): v for v in VARIANTS}
_GATING_FLAGS = {g.replace("_", "-"): g for g in GATINGS}
_MAX_RANGE_POINTS = 1000


def _float_list(text: str) -> List[float]:
    """Parse '0.1,0.2' or 'start:stop:step': the stop is inclusive within 1e-9 of a
    step, and each point is rounded to 12 digits of the range's largest magnitude."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[2] <= 0:
            raise argparse.ArgumentTypeError(
                "range must be start:stop:step, all finite, with step > 0")
        start, stop, step = parts
        n = 0  # count the points before building any; start + n*step never falls as n grows
        while n <= _MAX_RANGE_POINTS and start + n * step <= stop + 1e-9 * step:
            n += 1
        if n > _MAX_RANGE_POINTS:
            raise argparse.ArgumentTypeError(f"range has more than {_MAX_RANGE_POINTS} points")
        digits = 11 - math.floor(math.log10(max(abs(start), abs(stop), step)))
        return [round(start + k * step, digits) for k in range(n)]
    return [float(p) for p in text.split(",") if p]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="device config JSON; defaults apply when omitted")
    p.add_argument("--trace", required=True, help="trace CSV (id,o1,o2,label)")
    p.add_argument("--out", default="out", help="output directory (created if absent)")


def _add_simulation(p: argparse.ArgumentParser) -> None:
    """The common flags plus the harvest, start, horizon and gating of a simulation."""
    _add_common(p)
    p.add_argument("--harvest", help="harvest profile CSV (t_start_s,i_h_ma)")
    p.add_argument("--harvest-ma", type=float, default=0.0,
                   help="constant harvested current in mA when --harvest is not given")
    p.add_argument("--horizon", type=float, default=200.0, help="simulated seconds")
    p.add_argument("--initial-v", type=float, default=4.5, help="starting capacitor voltage")
    p.add_argument("--gating", choices=sorted(_GATING_FLAGS), default="mosfet")


def _device(args) -> DeviceConfig:
    return load_config(args.config) if args.config else DeviceConfig.default()


def _trace(args) -> Trace:
    trace = load_trace(args.trace)
    if not trace:
        print(f"warning: {args.trace}: trace file has no data rows", file=sys.stderr)
    return trace


def _harvest(args) -> HarvestProfile:
    if args.harvest:
        return load_harvest(args.harvest)
    return HarvestProfile.constant(args.harvest_ma * 1e-3)


def _sim_config(args, policy_variant: str) -> SimConfig:
    return SimConfig(
        device=_device(args),
        initial_v=args.initial_v,
        horizon_seconds=args.horizon,
        policy_variant=policy_variant,
        gating_variant=_GATING_FLAGS[args.gating],
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(cfg_dict: dict, out: Path) -> str:
    digest = config_hash(cfg_dict)
    with open(out / "resolved_config.json", "w") as fh:
        json.dump({"config_sha256": digest, **cfg_dict}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digest


TRAJECTORY_HEADER = ["time_s", "v_c", "mode", "event"]


def write_trajectory_csv(result: SimResult, path, digest: str) -> None:
    """The trajectory's knots and the run's events, merged in time order.

    A knot row is ``time_s,v_c,mode,``: the start of one recorded piece, or
    the state the run closes in, as the engine stored it, with the supply mode
    its latch gives. An event row is ``time_s,,,label``. At equal times the
    knot comes first. Rows hold only float reprs, mode names and event labels
    made of stage names and fixed words, which never need quoting, so they are
    formatted directly, and streamed as they are formatted.
    """
    knots = ((t, f"{t!r},{v!r},{mode},\r\n") for t, v, mode in result.trajectory)
    events = ((t, f"{t!r},,,{label}\r\n") for t, label in result.events)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={digest}\n")
        csv.writer(fh).writerow(TRAJECTORY_HEADER)
        # merge keeps its inputs' order among equal keys: knots before events
        fh.writelines(row for _, row in heapq.merge(knots, events, key=itemgetter(0)))


def totals_text(totals: SimTotals, digest: str) -> str:
    """Single structured-text summary record of one run: each total as its
    repr, None as an empty value."""
    lines = [f"config_sha256={digest}"]
    for name, value in totals._asdict().items():
        lines.append(f"{name}={'' if value is None else repr(value)}")
    return "\n".join(lines) + "\n"


def write_rows_csv(rows: Sequence[dict], header: Sequence[str], path, digest: str) -> None:
    """The ``header`` columns of dict rows; csv.writer renders a float as its repr, None empty."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={digest}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([row[k] for k in header] for row in rows)


def _cmd_run(args) -> int:
    cfg = _sim_config(args, _POLICY_FLAGS[args.policy])
    trace = _trace(args)
    result = simulate(cfg, _harvest(args), trace)
    out = _out_dir(args)
    digest = _write_resolved(cfg.to_dict(), out)
    write_trajectory_csv(result, out / "trajectory.csv", digest)
    totals = totals_text(result.totals, digest)
    (out / "totals.txt").write_text(totals)
    print(totals, end="")
    return 0


COMPARISON_HEADER = [
    "variant", "energy_consumed_j", "accuracy_total", "completed_pipelines",
    "power_failures", "n_ex1", "n_ex2", "n_fallback",
    "energy_delta_pct", "accuracy_delta", "completed_delta",
]


def _cmd_compare(args) -> int:
    """Each variant on identical inputs, with deltas against the first listed; a run
    is deterministic, so a variant listed twice is simulated once and keeps both rows.
    Only each run's totals are kept, so the peak memory is one run's."""
    variants = [_POLICY_FLAGS[v] for v in args.variants]
    cfg = _sim_config(args, variants[0])  # the reference variant
    configs = {v: cfg._replace(policy_variant=v) for v in dict.fromkeys(variants)}
    trace = _trace(args)
    harvest = _harvest(args)
    totals = {v: simulate(c, harvest, trace).totals for v, c in configs.items()}
    base = totals[variants[0]]
    rows = []
    for variant in variants:
        t = totals[variant]
        energy_delta = accuracy_delta = None
        if base.energy_consumed_j > 0:
            energy_delta = (100.0 * (t.energy_consumed_j - base.energy_consumed_j)
                            / base.energy_consumed_j)
        if t.accuracy_total is not None and base.accuracy_total is not None:
            accuracy_delta = t.accuracy_total - base.accuracy_total
        rows.append({"variant": variant, **t._asdict(), "energy_delta_pct": energy_delta,
                     "accuracy_delta": accuracy_delta,
                     "completed_delta": t.completed_pipelines - base.completed_pipelines})
    out = _out_dir(args)
    digest = _write_resolved(cfg.to_dict(), out)
    write_rows_csv(rows, COMPARISON_HEADER, out / "comparison.csv", digest)
    for variant, t in totals.items():
        variant_digest = config_hash(configs[variant].to_dict())
        (out / f"totals_{variant}.txt").write_text(totals_text(t, variant_digest))
    for row in rows:
        print(
            f"{row['variant']}: energy={row['energy_consumed_j']:.6f} J "
            f"completed={row['completed_pipelines']} failures={row['power_failures']} "
            f"accuracy={row['accuracy_total']}"
        )
    return 0


def _cmd_sweep_thresholds(args) -> int:
    device = _device(args)
    trace = _trace(args)
    if not args.gamma1 or not args.gamma2:
        raise ZedSimError("empty threshold grid")
    grid = [Thresholds(a, b) for a in args.gamma1 for b in args.gamma2]  # row-major: gamma1 outer
    cells = sweep_thresholds(trace, grid)
    out = _out_dir(args)
    digest = _write_resolved(device.to_dict(), out)
    write_rows_csv([c._asdict() for c in cells], SWEEP_HEADER, out / "sweep_thresholds.csv", digest)
    print(f"wrote {len(cells)} cells to {out / 'sweep_thresholds.csv'}")
    return 0


CAPACITANCE_HEADER = [
    "c_farads", "variant", "completed_pipelines", "energy_consumed_j",
    "power_failures", "accuracy_total",
]


def _cmd_sweep_capacitance(args) -> int:
    device = _device(args)
    trace = _trace(args)
    harvest = _harvest(args)
    if not args.capacitance:
        raise ZedSimError("empty capacitance grid")
    if args.jobs < 0:
        raise ZedSimError(f"--jobs must be >= 0, got {args.jobs}")
    variants = [_POLICY_FLAGS[v] for v in args.variants]
    gating = _GATING_FLAGS[args.gating]
    rows = []
    for c in sorted(args.capacitance):
        for variant in variants:
            try:
                cfg = SimConfig(device.with_capacitance(c), args.initial_v, args.horizon,
                                variant, gating)
            except ZedSimError as exc:
                raise ZedSimError(f"--capacitance {c!r}: {exc}") from None
            totals = simulate(cfg, harvest, trace).totals
            rows.append({"c_farads": c, "variant": variant, **totals._asdict()})
    out = _out_dir(args)
    digest = _write_resolved(device.to_dict(), out)
    path = out / "sweep_capacitance.csv"
    write_rows_csv(rows, CAPACITANCE_HEADER, path, digest)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_gen_trace(args) -> int:
    spec = GeneratorSpec(args.n, args.acc1, args.acc2, args.person_fraction, args.seed)
    trace = generate_trace(spec)
    save_trace(trace, args.out)
    stats = trace_statistics(trace)
    print(f"wrote {stats.n} instances to {args.out}")
    for name, value in zip(stats._fields[:-1], stats):  # every statistic but n
        print(f"{name}={value!r}")
    return 0


def _cmd_validate(args) -> int:
    try:
        device = _device(args)
    except ZedSimError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    problems = device.problems()
    # admission reachability at full charge, per variant and gating path: the
    # admission measurement plus the cheapest need the compiled check can admit,
    # against the usable energy the engine reads at v_max (energies are divided
    # by the converter efficiency, which problems() requires positive)
    cap = device.capacitor
    usable = cap.usable(cap.v_max)
    for variant in VARIANTS if device.converter_efficiency > 0 else ():
        for gating in GATINGS:
            admission = plan(device, variant, gating).admission
            need = min(admission.needs) + device.stage_energy("measurement")
            if need > usable:
                problems.append(f"{variant}[{gating}]: requirement {need} J exceeds the "
                                f"{usable} J usable at v_max={cap.v_max} V; "
                                "the pipeline can never be admitted")
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 2
    print(f"ok: config_sha256={config_hash(device.to_dict())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zedsim",
        description="Simulate a solar-harvesting two-exit detector node at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single simulation, trajectory + totals artifacts")
    _add_simulation(p)
    p.add_argument("--policy", choices=sorted(_POLICY_FLAGS), default="proposed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="run several policy variants on identical inputs")
    _add_simulation(p)
    p.add_argument("--variants", nargs="+", choices=sorted(_POLICY_FLAGS),
                   default=["baseline", "proposed"], help="the first is the reference")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep-thresholds", help="accuracy/exit-count surfaces over (gamma1, gamma2)")
    _add_common(p)
    p.add_argument("--gamma1", type=_float_list,
                   default=[0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5],
                   help="list '0.1,0.2' or range 'start:stop:step'")
    p.add_argument("--gamma2", type=_float_list,
                   default=[0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9])
    p.set_defaults(func=_cmd_sweep_thresholds)

    p = sub.add_parser("sweep-capacitance", help="completed-pipeline table over capacitance values")
    _add_simulation(p)
    p.add_argument("--capacitance", type=_float_list, default=[0.1, 0.25, 0.5, 1.0, 1.5])
    p.add_argument("--variants", nargs="+", choices=sorted(_POLICY_FLAGS),
                   default=["baseline", "proposed"])
    p.add_argument("--jobs", type=int, default=0,
                   help="no effect: the points run in this process; kept for compatibility")
    p.set_defaults(func=_cmd_sweep_capacitance)

    p = sub.add_parser("gen-trace", help="write a calibrated synthetic trace CSV")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--acc1", type=float, default=0.7265)
    p.add_argument("--acc2", type=float, default=0.8309)
    p.add_argument("--person-fraction", type=float, default=0.5386)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("validate", help="check a config file and report violations")
    p.add_argument("--config", help="device config JSON; defaults when omitted")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ZedSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
