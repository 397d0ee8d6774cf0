"""Record the simulated results each workload must reproduce, per seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every workload once for each seed in SEEDS through ``zedsim.cli.main``
in this process and rewrites ``perfbench/reference.json``, one line per
workload and seed. ``run.py`` compares every invocation of a recorded seed
with these values: counts exactly, energies within 0.1 %. Re-record only for
a change that is meant to alter simulated results, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import zedsim.cli

    recorded = {}
    for workload in workloads.WORKLOADS.values():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
                work = Path(tmp)
                out = work / "out"
                out.mkdir()
                workload.make_inputs(seed, work)
                for command in workload.commands(work, out, seed, jobs=1):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = zedsim.cli.main(command)
                    if code != 0:
                        print(f"{workload.name} seed {seed}: {command[0]} exited {code}",
                              file=sys.stderr)
                        return 1
                summary = workload.summarise(out)
            problems = workload.problems(summary)
            if problems:
                print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            recorded[f"{workload.name}/{seed}"] = workload.reference_view(summary)
            print(f"recorded {workload.name} seed {seed}")
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in recorded.items()]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
