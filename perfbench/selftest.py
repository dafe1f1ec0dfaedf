"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Runs run.py with --smoke on each workload, untraced and traced, and
asserts that the result line carries exactly the metrics BENCHMARK.json
names, with their units, and no failed operation.  Then runs against a
deliberately altered reference: a wrong figures digest must be counted as
a failure, which proves that the output check bites, and an oracle window
too large for the machine must be refused by the memory pre-check before
anything is allocated.  Exits non-zero on the first broken assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """The result line and the details line of one smallest-size run."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "0.1"]
    cmd += ["--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(details)


def check_metrics(result: dict, wanted: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    names = [metric["name"] for metric in wanted]
    assert sorted(result["metrics"]) == sorted(names), f"{label}: {sorted(result['metrics'])}"
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{label} {metric['name']}: unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label} {metric['name']}: {got}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (entry["name"] for entry in spec["workloads"]):
        check_metrics(run(workload, 0)[0], spec["end_to_end"], f"{workload} untraced")
        check_metrics(run(workload, 1)[0], spec["per_layer"], f"{workload} traced")
        print(f"ok  {workload}: end-to-end and per-layer metrics present with units")

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    # A digest that no output has, and a window of 10^4 (6e17 bytes at 4 copies).
    reference["figures"]["1a"] = "0" * 64
    reference["oracle"]["w40-a"]["dim_used"] = 10_000
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    altered = os.path.join(out, "altered-reference.json")
    with open(altered, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)

    result, details = run("figures", 0, "--reference", altered)
    assert not result["correct"] and result["failed"] >= 1, result
    assert "sha256" in details["failures"][0], details["failures"]
    print("ok  an altered reference digest is counted as a failed operation")

    result, details = run("oracle", 0, "--reference", altered)
    assert not result["correct"] and result["failed"] == result["attempted"], result
    assert details["failures"][0].startswith("w40-a: memory pre-check"), details["failures"]
    print("ok  a point predicted to exceed the available memory is refused and counted")


if __name__ == "__main__":
    main()
