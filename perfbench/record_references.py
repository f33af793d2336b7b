"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Runs each workload's command once at the default seed and at the held-out
seed and writes their outputs to perfbench/references.json.  Rerun only
when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS threads before numpy loads
from workloads import HELD_OUT_SEED, TABLE1_SEED, WORKLOADS, Table1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from permclass.cli import main as cli_main

    runner = run.Runner(cli_main)
    refs: dict = {}
    work = Path(tempfile.mkdtemp(prefix="perfbench-refs-", dir=run.ROOT))
    try:
        for name, workload in WORKLOADS.items():
            for seed in (TABLE1_SEED, HELD_OUT_SEED):
                wl = Table1(seed) if name == "table1" else workload
                state = wl.setup(work / f"{name}-{seed}", seed, runner.setup_cli)
                runner.setup_cli(state["argv"])
                refs.setdefault(name, {})[str(state["input_seed"])] = wl.result(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
