#!/usr/bin/env python3
"""Rewrite pins.json: the ``--seed 0`` counters of every unit.

    python3 pipelinebench/pin.py

The pins are the regression tripwire of ``checks.py``; rewrite them only
in a change that means to move checkpoint counts (a new RNG draw order,
a protocol rule), and say so in that change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> None:
    run._import_paths()
    import checks
    import workloads as wl

    ops = {
        workload: wl.figure_result(wl.run_figure_op(workload, wl.figure_seeds(0)))
        for workload in ("figure-cold", "figure-warm")
    }
    ops["online-inloop"], _ = wl.run_online_op(wl.online_seeds(0))
    groups = []
    for group, op in ops.items():
        rows = [
            f"  {json.dumps(unit)}: {json.dumps(counts, sort_keys=True)}"
            for unit, counts in sorted(op.units.items())
        ]
        groups.append(f" {json.dumps(group)}: {{\n" + ",\n".join(rows) + "\n }")
    checks.PINS_PATH.write_text("{\n" + ",\n".join(groups) + "\n}\n")
    for workload, op in ops.items():
        print(f"{workload}: {op.events} events per op")


if __name__ == "__main__":
    main()
