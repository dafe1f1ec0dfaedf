"""Write perfbench/reference.json from the program as it is now.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Records the sha256 of every file the figures and thresholds workloads
write, and the status, dim_used and guard of every oracle point.  Run it
only at a commit whose outputs are accepted as correct: from then on every
benchmark run counts a differing output as a failed operation.  Rotated
oracle copies must reproduce their unrotated point; the script stops if
one does not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _digests(workload) -> dict:
    found = {}
    for call in workload.calls:
        code = call.run()
        if code != 0:
            sys.exit(f"{workload.name} {call.label}: exit code {code}")
        found[call.label] = workloads.digest(call.output)[0]
    return found


def main() -> None:
    work_dir = os.path.join(OUT, "work")
    os.makedirs(work_dir, exist_ok=True)
    reference = {"commit": _commit()}
    for name in ("figures", "thresholds"):
        reference[name] = _digests(workloads.BUILDERS[name](0, {}, work_dir, smoke=False))
    points = {}
    for call in workloads.oracle(0, {}, work_dir, smoke=False).calls:
        found = workloads.verdict(call.run())
        base = call.label.removesuffix("-rotated")
        if base in points and points[base] != found:
            sys.exit(f"{call.label}: {found} differs from unrotated {points[base]}")
        points[base] = found
    reference["oracle"] = points
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
