#!/usr/bin/env python3
"""Record perfbench/reference.json: the stdout sha256 and exit code of every
workload item at the default seed, from one untraced pass of each workload.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
then holds later commits to the same bytes.  An item that dies with a
traceback gets no entry and is judged by its independent checks alone.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import items as workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    reference = {}
    try:
        run.setup(run_dir)
        inputs = run_dir / "inputs"
        inputs.mkdir()
        for name, make in sorted(workloads.WORKLOADS.items()):
            cwd = run_dir / name
            cwd.mkdir()
            for item in make(workloads.DEFAULT_SEED, inputs):
                result = run.run_item(item, cwd, cwd, workloads.DEFAULT_SEED, False)
                stdout = (cwd / f"{item.name}.stdout").read_bytes()
                stderr = (cwd / f"{item.name}.stderr").read_bytes()
                if b"Traceback" in stderr or result.run.timed_out:
                    print(f"{item.name}: crashed, no reference recorded", file=sys.stderr)
                    continue
                reference[item.name] = {"sha256": hashlib.sha256(stdout).hexdigest(),
                                        "exit": result.run.exit_code}
                print(f"{item.name}: exit {result.run.exit_code}, {len(stdout)} bytes")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
