"""Benchmark for gaussbs: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Workloads: figures, thresholds, crosscheck, oracle (see perfbench/README.md).
With --trace 0 the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics
from a traced run.  The line before it carries the environment and the
details (input size, tail latency, failures).  Both are also written to
perfbench/out/.

The program is run from the checkout's src/ directory, in fresh child
processes whose BLAS threads are capped at the number of usable CPUs: one
process per set-up probe and one for the workload itself.  Exits non-zero
without printing a result if the program or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("figures", "thresholds", "crosscheck", "oracle")
SETUP_PROBES = 7
SETUP_CODE = "from gaussbs import cli; cli.build_parser()"
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # Fixed string hashing, so that dict layouts do not differ between runs.
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run(cmd: list, env: dict, timeout: float) -> subprocess.CompletedProcess:
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        return subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:  # subprocess.run has killed and reaped it
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s") from err


def measure_setup(env: dict, probes: int, deadline: float) -> list:
    """Wall time from a fresh interpreter to an imported gaussbs with its parser built.

    Normalised like the workload timings by speed probes taken before and
    after each start (see speed.py).  One untimed start comes first, so
    that byte-code compilation of a fresh checkout is not counted.
    """
    times = []
    before = speed.probe("python")
    for i in range(probes + 1):
        start = time.perf_counter()
        proc = _run([sys.executable, "-c", SETUP_CODE], env, deadline - time.monotonic())
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        after = speed.probe("python")
        if i:
            times.append(elapsed * speed.factor("python", before, after))
        before = after
    return times


def run_worker(args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--reference", args.reference,
        "--out", OUT,
    ] + (["--smoke"] if args.smoke else [])  # fmt: skip
    proc = _run(cmd, env, deadline - time.monotonic())
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def end_to_end_values(raw: dict, setup_times: list) -> dict:
    return {
        "points_per_s": raw["points_per_s"],
        "call_ms_p50": raw["call_ms_p50"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussbs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest size of each workload (self-test)"
    )
    parser.add_argument(
        "--reference",
        default=os.path.join(HERE, "reference.json"),
        help="reference digests and oracle verdicts",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not args.seconds > 0:
            raise BenchError("--seconds must be positive")
        if not os.path.isfile(os.path.join(SRC, "gaussbs", "__init__.py")):
            raise BenchError(f"no gaussbs sources under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        os.makedirs(OUT, exist_ok=True)
        env = child_env()
        setup_times = []
        if not args.trace:
            setup_times = measure_setup(env, 1 if args.smoke else SETUP_PROBES, deadline)
        raw = run_worker(args, env, deadline)
        if args.trace:
            values, wanted = raw.pop("layers"), spec["per_layer"]
        else:
            values, wanted = end_to_end_values(raw, setup_times), spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    raw["setup_s_samples"] = setup_times
    raw["failed_ratio"] = raw["failed"] / raw["attempted"]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **raw}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
