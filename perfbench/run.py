"""zedsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload diurnal --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
the seed, then runs the real ``zedsim`` CLI in fresh processes, over and over,
until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics
and ``--trace 1`` the per-layer metrics of a traced run; BENCHMARK.json names
them all. Every output is checked. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7
MIN_SAMPLES = 3
LAST_START_S = 120.0  # start no invocation later than this into the run
KILL_AFTER_S = 165.0  # a process still alive this far into the run is killed
# zedsim does no BLAS-sized linear algebra; one BLAS thread per process keeps
# the pool's workers from starting more threads than the host has cores
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# A fresh interpreter that imports the CLI and loads a workload's inputs with
# the loaders the CLI itself uses: the set-up every zedsim command pays. The
# arguments are the config, then a harvest ("" for none) and a trace per
# simulation.
SETUP_PROBE = (
    "import sys\n"
    "import zedsim.cli as cli\n"
    "cli.load_config(sys.argv[1])\n"
    "for harvest, trace in zip(sys.argv[2::2], sys.argv[3::2]):\n"
    "    if harvest:\n"
    "        cli.load_harvest(harvest)\n"
    "    cli.load_trace(trace)\n"
)


@dataclass
class Finished:
    wall_s: float
    rss_mb: float  # largest resident set of the process and its reaped children
    code: int


class Runner:
    """Starts processes with the checkout's sources and counts them."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.kill_at = started + KILL_AFTER_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work), **ONE_THREAD)
        self.attempted = 0
        self.failed = 0
        self._logs = 0

    def run(self, argv: List[str]) -> Finished:
        self._logs += 1
        log = self.work / f"proc-{self._logs}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(max(1.0, self.kill_at - time.monotonic()),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
        log.unlink()
        return Finished(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def cli_argv(command: List[str], spans: Optional[Path] = None, run_id: str = "") -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "zedsim.cli", *command]
    return [sys.executable, str(HERE / "spans.py"), str(spans), run_id, "--", *command]


def invoke(runner: Runner, workload, work: Path, seed: int, jobs: int, index: int,
           reference: Optional[dict], traced: bool = False):
    """One invocation of the workload: its commands in order, then the checks.

    Returns (wall seconds, peak RSS in MB, spans or None).
    """
    out = work / f"out-{index}"
    out.mkdir()
    wall, rss, problems, recorded = 0.0, 0.0, [], []
    for k, command in enumerate(workload.commands(work, out, seed, jobs)):
        span_file = work / f"spans-{index}-{k}.json" if traced else None
        done = runner.run(cli_argv(command, span_file, f"{workload.name}-{seed}-{index}"))
        wall += done.wall_s
        rss = max(rss, done.rss_mb)
        if done.code != 0:
            problems.append(f"zedsim {command[0]} exited with status {done.code}")
            break
        if traced:
            recorded += tracing.load_spans(span_file)
    if not problems:
        problems += workload.check(out, reference)
    shutil.rmtree(out)
    runner.record(problems)
    return wall, rss, recorded if traced else None


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_revision() -> str:
    """The checked-out commit, read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def usable_cores() -> int:
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "zedsim" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'zedsim'} not found; run from a zedsim checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # workloads imports zedsim, so it comes after the checkout's sources are on the path
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads
    import zedsim.cli  # noqa: F401  compiles and caches zedsim before any timing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    references = json.loads((HERE / "reference.json").read_text())
    reference = references.get(f"{workload.name}/{args.seed}")
    # spans recorded in pool workers never reach the parent, so traced runs are serial
    jobs = 1 if args.trace else usable_cores()

    samples: Dict[str, List[float]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        runner = Runner(work, started)
        workload.make_inputs(args.seed, work)
        setup_argv = [str(p) if p else "" for p in workload.setup_files(work)]

        def probe_setup():
            done = runner.run([sys.executable, "-c", SETUP_PROBE, *setup_argv])
            runner.record([] if done.code == 0 else [f"set-up probe exited {done.code}"])
            samples.setdefault("setup_s", []).append(done.wall_s)

        measured = time.monotonic()
        index = 0
        while ((index < MIN_SAMPLES or time.monotonic() - measured < args.seconds)
               and time.monotonic() - started < LAST_START_S):
            if args.trace:
                # alternate which of the pair runs first
                order = (False, True) if index % 2 == 0 else (True, False)
                for traced in order:
                    wall, _, spans = invoke(runner, workload, work, args.seed, jobs,
                                            2 * index + traced, reference, traced)
                    samples.setdefault("traced_wall_s" if traced else "wall_s", []).append(wall)
                    if spans is not None:
                        for name, value in tracing.layer_metrics(spans).items():
                            samples.setdefault(name, []).append(value)
            else:
                # set-up probes alternate with invocations, so both see the same host speed
                probe_setup()
                wall, rss, _ = invoke(runner, workload, work, args.seed, jobs, index, reference)
                samples.setdefault("wall_s", []).append(wall)
                samples.setdefault("peak_rss_mb", []).append(rss)
            index += 1
        while not args.trace and len(samples["setup_s"]) < SETUP_PROBES:
            probe_setup()

    stats = {name: quartiles(values) for name, values in samples.items()}
    if args.trace:
        stats["trace.overhead_s"] = {
            "median": stats["traced_wall_s"]["median"] - stats["wall_s"]["median"],
            "n": stats["traced_wall_s"]["n"],
        }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
               for m in declared}

    failed_frac = runner.failed / runner.attempted
    print(f"{workload.name}: seed {args.seed}, jobs {jobs}, trace {args.trace}, "
          f"{runner.attempted} processes checked, failed_frac {failed_frac}")
    for name, m in metrics.items():
        q = stats[name]
        spread = f" (q1 {q['q1']:.6g}, q3 {q['q3']:.6g})" if "q1" in q else ""
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{spread} n={q['n']}")
    meta = {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "reference_checked": reference is not None,
        "failed_frac": failed_frac,
        "stats": stats,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
