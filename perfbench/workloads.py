"""The four benchmark workloads: inputs made from a seed, calls, output checks.

A workload is a fixed list of calls, one pass.  The runner repeats passes
in a seeded order until the run's time is up.  Each call goes into the
program through ``gaussbs.cli.main`` or a public library function, looked
up on its module at call time so that the tracer's wrappers are seen; its
output is checked against ``reference.json`` outside the call's timer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import gaussbs.cli
import gaussbs.entanglement
import gaussbs.fock

GRID = 101  # the CLI's default --nx/--ny
FIGURES = ("1a", "1b", "1c", "2a", "2b", "3")
# (tau, nbar) of each `critical --axis theta x u` grid.  tau = 0 gives the
# classical-input flag everywhere; theta = 0 and pi/2 give no-mixing rows.
THRESHOLD_GRIDS = ((0.1, 0.5), (0.0, 0.0), (0.25, 0.0), (0.4, 1.0), (0.45, 0.25))
CROSSCHECK_TUPLES = 4000
CROSSCHECK_TOL = 1e-10
ORACLE_DIM = 40
ORACLE_TOL_COMPARE = 1e-3
# (label, (tau, u, nbar, theta), tol_trace), from the acceptance suite's
# criterion-8 grid.  Windows at this commit: six guard-free W=40 points,
# tau=0.3 u=0.5 with guard 16 (W=56), and one point that the default
# tol_trace=1e-8 escalates to W=60.  The default-budget tau=0.3, u=0.5
# points are left out: they escalate to W=100, about 6.4 GB at 4 live copies.
# The W=40 points are many so that the median call time is steady; the
# W=56 and W=60 points take about half of a pass.
ORACLE_POINTS = (
    ("w40-a", (0.1, 1.0, 0.5, math.pi / 8), 1e-4),
    ("w40-b", (0.2, 0.5, 1.0, math.pi / 4), 1e-4),
    ("w40-c", (0.3, 1.0, 0.0, math.pi / 4), 1e-4),
    ("w40-d", (0.1, 0.5, 0.0, math.pi / 4), 1e-4),
    ("w40-e", (0.2, 1.0, 1.0, math.pi / 8), 1e-4),
    ("w40-f", (0.3, 1.0, 0.5, math.pi / 8), 1e-4),
    ("w56-guarded", (0.3, 0.5, 0.5, math.pi / 8), 1e-4),
    ("w60-escalated", (0.2, 0.5, 0.0, math.pi / 8), 1e-8),
)
# Copies with seeded phi, phi_b != 0: the phase-dependent (complex) path.
ORACLE_ROTATED = ("w40-a", "w40-b", "w40-c", "w40-e")
# Two-mode matrices live at once in one oracle point, measured at this
# commit (peak RSS growth over the largest matrix's 16 W^4 bytes).
LIVE_COPIES = 4


@dataclass
class Call:
    """One end-to-end call: ``run`` is timed, ``check`` is not."""

    label: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # failure message, or None
    precheck: Callable[[], Optional[str]] = lambda: None
    output: Optional[str] = None  # file the call writes, if any


@dataclass
class Workload:
    name: str
    root: str  # name of the root span of each call
    size: str  # input size, stated with the throughput
    calls: list
    # Speed probe that normalises the call times (see speed.py).
    probe: str = "python"
    stats: Counter = field(default_factory=Counter)
    start_pass: Callable[[], None] = lambda: None
    end_pass: Callable[[], None] = lambda: None


def digest(path: str) -> tuple[str, int]:
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return gaussbs.cli.main(argv)


def _cli_call(label, argv, path, reference, stats) -> Call:
    def check(code):
        if code != 0:
            return f"exit code {code}"
        actual, size = digest(path)
        stats["cli.bytes_written"] += size
        expected = reference.get(label)
        if actual != expected:
            return f"sha256 {actual[:16]} differs from reference {str(expected)[:16]}"
        return None

    return Call(label, GRID * GRID, functools.partial(_quiet_main, argv), check, output=path)


def figures(seed, reference, work_dir, smoke) -> Workload:
    """All six `sweep --fig` presets at 101 x 101, written as CSV."""
    stats = Counter()
    refs = reference.get("figures", {})
    calls = []
    for fig in FIGURES[:1] if smoke else FIGURES:
        path = os.path.join(work_dir, f"fig{fig}.csv")
        calls.append(_cli_call(fig, ["sweep", "--fig", fig, "-o", path], path, refs, stats))
    size = f"{len(calls)} sweep presets x {GRID * GRID} grid points per pass, CSV"
    return Workload("figures", "cli.main", size, calls, stats=stats)


def threshold_label(tau: float, nbar: float) -> str:
    return f"tau{tau:g}-nbar{nbar:g}"


def thresholds(seed, reference, work_dir, smoke) -> Workload:
    """`critical --axis` theta x u grids at several tau, written as JSONL."""
    stats = Counter()
    refs = reference.get("thresholds", {})
    calls = []
    for tau, nbar in THRESHOLD_GRIDS[:1] if smoke else THRESHOLD_GRIDS:
        label = threshold_label(tau, nbar)
        path = os.path.join(work_dir, f"critical-{label}.jsonl")
        argv = [
            "critical",
            "--axis", f"theta:0:{math.pi / 2!r}:{GRID}",
            "--axis", f"u:0.05:1:{GRID}",
            "--tau", repr(tau),
            "--nbar", repr(nbar),
            "--format", "jsonl",
            "-o", path,
        ]  # fmt: skip
        calls.append(_cli_call(label, argv, path, refs, stats))
    size = f"{len(calls)} critical grids x {GRID * GRID} points per pass, JSONL"
    return Workload("thresholds", "cli.main", size, calls, stats=stats)


def _crosscheck_tuple(point: dict) -> tuple[float, float]:
    ent = gaussbs.entanglement
    params = ent.ScenarioParams(**point)
    return ent.negativity_closed_form(params), ent.log_negativity(ent.output_covariance(params))


def _routes_agree(values) -> Optional[str]:
    closed, pipeline = values
    diff = abs(closed - pipeline)
    if not diff <= CROSSCHECK_TOL:
        return f"closed form {closed!r} vs pipeline {pipeline!r} (|diff| {diff:.3e})"
    return None


def crosscheck(seed, reference, work_dir, smoke) -> Workload:
    """Seeded random tuples over the criterion-2 box, through both routes."""
    rng = random.Random(f"crosscheck-{seed}")
    calls = []
    for i in range(50 if smoke else CROSSCHECK_TUPLES):
        point = {
            "tau": rng.uniform(0.0, 0.49),
            "u": rng.uniform(0.05, 1.0),
            "nbar": rng.uniform(0.0, 3.0),
            "theta": rng.uniform(0.0, math.pi / 2),
            "phi": rng.uniform(0.0, 2 * math.pi),
            "phi_b": rng.uniform(0.0, 2 * math.pi),
        }
        calls.append(Call(f"tuple-{i}", 1, functools.partial(_crosscheck_tuple, point), _routes_agree))
    size = f"{len(calls)} random tuples per pass"
    return Workload("crosscheck", "call", size, calls)


def verdict(result) -> dict:
    """What reference.json records for an oracle point."""
    match = re.search(r"guard=(\d+)", result.note)
    guard = int(match.group(1)) if match else 0
    return {"status": result.status, "dim_used": result.dim_used, "guard": guard}


def available_memory() -> int:
    """Bytes this process may still allocate: MemAvailable, capped by the cgroup."""
    limits = []
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/memory.max", encoding="ascii") as handle:
            limit = handle.read().strip()
        with open("/sys/fs/cgroup/memory.current", encoding="ascii") as handle:
            current = int(handle.read())
        if limit != "max":
            limits.append(int(limit) - current)
    except (OSError, ValueError):
        pass
    if not limits:
        limits.append(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    return min(limits)


def _oracle_point(args: tuple, tol_trace: float):
    fock = gaussbs.fock
    params = gaussbs.entanglement.ScenarioParams(*args)
    cfg = fock.OracleConfig(dim=ORACLE_DIM, tol_trace=tol_trace, tol_compare=ORACLE_TOL_COMPARE)
    return fock.compare_with_gaussian(params, cfg)


def _oracle_call(label, args, tol_trace, expected, stats) -> Call:
    def precheck():
        if not expected:
            return "no reference window"
        window = expected["dim_used"] + expected["guard"]
        need = 16 * window**4 * LIVE_COPIES
        free = available_memory()
        if need > free:
            return f"memory pre-check: W={window} needs {need >> 20} MiB, {free >> 20} MiB available"
        return None

    def check(result):
        actual = verdict(result)
        stats["fock.verdict_points"] += result.status in ("pass", "fail")
        stats["fock.guarded_points"] += actual["guard"] > 0
        stats["fock.escalated_points"] += result.dim_used > ORACLE_DIM
        window = result.dim_used + actual["guard"]
        stats["fock.window_max"] = max(stats["fock.window_max"], window)
        if result.status != "pass" or actual != expected:
            return f"{actual} differs from reference {expected} (abs_diff {result.abs_diff:.3e})"
        return None

    run = functools.partial(_oracle_point, args, tol_trace)
    return Call(label, 1, run, check, precheck)


def oracle(seed, reference, work_dir, smoke) -> Workload:
    """compare_with_gaussian over a fixed mix of Fock windows, cold sector cache per pass."""
    rng = random.Random(f"oracle-{seed}")
    refs = reference.get("oracle", {})
    stats = Counter()
    calls = []
    points = ORACLE_POINTS[:1] if smoke else ORACLE_POINTS
    for label, args, tol_trace in points:
        calls.append(_oracle_call(label, args + (0.0, 0.0), tol_trace, refs.get(label), stats))
        if label in ORACLE_ROTATED and not smoke:
            phases = (rng.uniform(0.1, 2 * math.pi - 0.1), rng.uniform(0.1, 2 * math.pi - 0.1))
            calls.append(
                _oracle_call(f"{label}-rotated", args + phases, tol_trace, refs.get(label), stats)
            )
    # A user's oracle-check process builds the beam-splitter sectors once; a
    # cache kept warm across passes would inflate the throughput.
    sectors = getattr(gaussbs.fock, "_beam_splitter_sectors", None)

    def start_pass():
        if hasattr(sectors, "cache_clear"):
            sectors.cache_clear()

    def end_pass():
        if hasattr(sectors, "cache_info"):
            info = sectors.cache_info()
            stats["fock.sector_cache_hits"] += info.hits
            stats["fock.sector_cache_misses"] += info.misses

    size = f"{len(calls)} oracle points per pass"
    return Workload("oracle", "call", size, calls, "blas", stats, start_pass, end_pass)


BUILDERS = {"figures": figures, "thresholds": thresholds, "crosscheck": crosscheck, "oracle": oracle}
