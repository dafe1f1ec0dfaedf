"""Run one workload in a fresh process and print its measurements as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count capped.  The last line of standard output is one JSON
object; the program's own prints are captured inside each call.

Untraced, the timed phase repeats whole passes until --seconds is up.
Traced, an untraced phase of half the time comes first (the baseline for
the tracing overhead and for peak-memory growth) and a traced phase of
the other half follows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MAX_FAILURE_MESSAGES = 20
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
PROBE_EVERY_S = 0.25


@dataclass
class Phase:
    durations: list = field(default_factory=list)  # normalised, see speed.py
    raw_durations: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)  # points per normalised busy second
    pass_medians: list = field(default_factory=list)  # median normalised call time
    raw_pass_rates: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    passes: int = 0

    # Both are medians over passes, so that a pass whose speed probes
    # missed a change of machine speed does not move them.  A run in which
    # no call ran (every one refused by its pre-check) reads 0.
    @property
    def points_per_s(self) -> float:
        return _median(self.pass_rates)

    @property
    def call_s_p50(self) -> float:
        return _median(self.pass_medians)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


class SpeedFactors:
    """Gives each call the speed factor of the probes taken before and after it.

    A probe runs between calls once PROBE_EVERY_S has gone by since the
    last one, and at the end of each pass.
    """

    def __init__(self, kind: str, probes: list):
        self.kind = kind
        self.factors = []
        self._probes = probes
        self._pending = 0
        self._last = speed.probe(kind)
        self._last_at = time.perf_counter()

    def add_call(self) -> None:
        self._pending += 1
        if time.perf_counter() - self._last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        now = speed.probe(self.kind)
        self._probes.append(now)
        self.factors.extend([speed.factor(self.kind, self._last, now)] * self._pending)
        self._last, self._last_at = now, time.perf_counter()
        self._pending = 0


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed_call(call, tracer, root):
    start = time.perf_counter()
    try:
        if tracer is None:
            output = call.run()
        else:
            with tracer.call(root):
                output = call.run()
    except Exception as err:  # a call that raises is a failed operation; the run goes on
        return f"raised {type(err).__name__}: {err}", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return call.check(output), elapsed


def run_passes(workload, seconds: float, rng: random.Random, tracer=None) -> Phase:
    """Whole passes in seeded order, at least one, ending as close to
    ``seconds`` as pass boundaries allow."""
    workload.stats.clear()
    phase = Phase()
    start = time.perf_counter()
    last_pass = 0.0
    while phase.passes == 0 or time.perf_counter() - start + last_pass / 2 < seconds:
        pass_start = time.perf_counter()
        order = list(workload.calls)
        rng.shuffle(order)
        workload.start_pass()
        factors = SpeedFactors(workload.probe, phase.probes)
        raws, points = [], 0
        for call in order:
            phase.attempted += 1
            problem = call.precheck()
            if problem is None:
                problem, elapsed = _timed_call(call, tracer, workload.root)
                raws.append(elapsed)
                factors.add_call()
                if problem is None:
                    points += call.points
            if problem is not None:
                phase.failed += 1
                if len(phase.failures) < MAX_FAILURE_MESSAGES:
                    phase.failures.append(f"{call.label}: {problem}")
        factors.flush()
        workload.end_pass()
        normalised = [raw * factor for raw, factor in zip(raws, factors.factors)]
        phase.raw_durations += raws
        phase.durations += normalised
        phase.raw_pass_rates.append(points / sum(raws) if raws else 0.0)
        phase.pass_rates.append(points / sum(normalised) if normalised else 0.0)
        if normalised:
            phase.pass_medians.append(statistics.median(normalised))
        phase.points += points
        phase.passes += 1
        last_pass = time.perf_counter() - pass_start
    phase.stats = Counter(workload.stats)
    return phase


def tail_latency(durations: list) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return {
                "value_ms": ordered[rank - 1] * 1e3,
                "percentile": pct,
                "samples": n,
                "beyond": n - rank,
            }
    return None


def live_copies(phase: Phase, growth_kb: int) -> float:
    """Peak RSS growth over the bytes of the largest two-mode matrix."""
    window = phase.stats["fock.window_max"]
    return growth_kb * 1024 / (16 * window**4) if window else 0.0


def layer_values(tracer, phase: Phase, copies: float, untraced: Phase) -> dict:
    """Per-layer metrics of the traced phase: times are self times, per pass."""
    own, total, calls, stats = tracer.self_s, tracer.total_s, tracer.calls, phase.stats
    per_pass = {
        "cli.evaluate_s": own["cli.evaluate"],
        "cli.write_s": own["cli.write"],
        "cli.other_s": own["cli.main"],
        "cli.bytes_written": stats["cli.bytes_written"],
        "call.other_s": own["call"],
        "entanglement.closed_form_calls": calls["entanglement.closed_form"],
        "entanglement.closed_form_s": own["entanglement.closed_form"],
        "entanglement.closed_form_terms_calls": calls["entanglement.closed_form_terms"],
        "entanglement.critical_noise_calls": calls["entanglement.critical_noise"],
        "entanglement.critical_noise_s": own["entanglement.critical_noise"],
        "entanglement.output_covariance_s": own["entanglement.output_covariance"],
        "entanglement.pt_spectrum_s": own["entanglement.pt_spectrum"],
        "entanglement.log_negativity_s": own["entanglement.log_negativity"],
        "states.apply_beam_splitter_s": own["states.apply_beam_splitter"],
        "states.covariance_from_spec_s": own["states.covariance_from_spec"],
        "states.covmat2_validation_s": own["states.covmat2_validation"],
        "states.symplectic_eigenvalues_calls": calls["states.symplectic_eigenvalues"],
        "states.symplectic_eigenvalues_s": own["states.symplectic_eigenvalues"],
        "fock.compare_other_s": own["fock.compare"],
        "fock.squeezed_thermal_calls": calls["fock.squeezed_thermal"],
        "fock.squeezed_thermal_s": own["fock.squeezed_thermal"],
        # kron, sector build and conjugation, Hermitian averaging, validation
        "fock.beam_splitter_s": total["fock.beam_splitter"],
        "fock.sector_build_s": own["fock.sector_build"],
        "fock.sector_conjugate_s": own["fock.sector_conjugate"],
        "fock.partial_transpose_s": own["fock.partial_transpose"],
        "fock.eigensolve_s": own["fock.eigensolve"],
        "fock.sector_cache_hits": stats["fock.sector_cache_hits"],
        "fock.sector_cache_misses": stats["fock.sector_cache_misses"],
        "fock.guarded_points": stats["fock.guarded_points"],
        "fock.escalated_points": stats["fock.escalated_points"],
        "fock.matrix_bytes_computed": tracer.amounts["fock.matrix_bytes_computed"],
    }
    values = {name: value / phase.passes for name, value in per_pass.items()}
    builds = calls["fock.squeezed_thermal"]
    values["fock.window_max"] = stats["fock.window_max"]
    values["fock.live_copies"] = copies
    values["fock.attempt_yield"] = stats["fock.verdict_points"] / builds if builds else 0.0
    if untraced.points_per_s:
        values["trace.overhead_pct"] = 100.0 * (1.0 - phase.points_per_s / untraced.points_per_s)
    else:
        values["trace.overhead_pct"] = 0.0
    return values


def roadmap_split(tracer, phase: Phase) -> dict:
    """The traced numbers that the ROADMAP baseline quotes, for comparison."""
    own, total, calls = tracer.self_s, tracer.total_s, tracer.calls
    split = {}
    n_cov = calls["entanglement.output_covariance"]
    if n_cov:
        split["output_covariance_us"] = total["entanglement.output_covariance"] / n_cov * 1e6
        split["covmat2_validation_us"] = total["states.covmat2_validation"] / n_cov * 1e6
        split["validation_share"] = split["covmat2_validation_us"] / split["output_covariance_us"]
        split["roadmap_covariance"] = "validation 126 of 170 us per output_covariance (0.74)"
    if calls["fock.eigensolve"]:
        split["sector_conjugate_s_per_pass"] = own["fock.sector_conjugate"] / phase.passes
        split["eigensolve_s_per_pass"] = own["fock.eigensolve"] / phase.passes
        split["roadmap_fock"] = "window 64: sector conjugation 5.1 s, eigensolve 4.0 s"
        # Per oracle point, from the raw spans: stage durations by name.
        per_call = {}
        for _, name, start, end, _, call in tracer.spans:
            stages = per_call.setdefault(call, Counter())
            stages[name] += end - start
        split["per_point"] = [
            {
                "call_s": stages["call"],
                "sector_conjugate_s": stages["fock.sector_conjugate"],
                "eigensolve_s": stages["fock.eigensolve"] - stages["fock.partial_transpose"],
            }
            for stages in per_call.values()
        ]
    return split


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def phase_summary(phase: Phase, probe_kind: str) -> dict:
    return {
        "passes": phase.passes,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "failures": phase.failures,
        "points": phase.points,
        "busy_s": sum(phase.raw_durations),
        "points_per_s": phase.points_per_s,
        "call_ms_p50": phase.call_s_p50 * 1e3,
        "call_ms_tail": tail_latency(phase.durations),
        "raw_points_per_s": _median(phase.raw_pass_rates),
        "raw_call_ms_p50": _median(phase.raw_durations) * 1e3,
        "raw_call_ms_tail": tail_latency(phase.raw_durations),
        "speed_probe_ms": {
            "kind": probe_kind,
            "count": len(phase.probes),
            "median": _median(phase.probes) * 1e3,
            "reference": speed.PROBES[probe_kind][1] * 1e3,
        },
        "stats": dict(phase.stats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import gaussbs

    if not os.path.abspath(gaussbs.__file__).startswith(SRC + os.sep):
        print(f"gaussbs imported from {gaussbs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    with open(args.reference, encoding="utf-8") as handle:
        reference = json.load(handle)
    work_dir = os.path.join(args.out, "work")
    os.makedirs(work_dir, exist_ok=True)
    workload = workloads.BUILDERS[args.workload](args.seed, reference, work_dir, args.smoke)
    order = random.Random(f"order-{args.seed}")

    result = {"environment": environment(args.seed), "size": workload.size}
    rss_start = _max_rss_kb()
    if not args.trace:
        phase = run_passes(workload, args.seconds, order)
        result.update(phase_summary(phase, workload.probe))
        result["peak_rss_kb"] = _max_rss_kb()
        result["live_copies"] = live_copies(phase, _max_rss_kb() - rss_start)
    else:
        untraced = run_passes(workload, args.seconds / 2, order)
        copies = live_copies(untraced, _max_rss_kb() - rss_start)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phase = run_passes(workload, args.seconds / 2, order, tracer)
        finally:
            tracer.uninstall()
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        result.update(phase_summary(phase, workload.probe))
        result["attempted"] += untraced.attempted
        result["failed"] += untraced.failed
        result["failures"] = (untraced.failures + phase.failures)[:MAX_FAILURE_MESSAGES]
        result["untraced"] = phase_summary(untraced, workload.probe)
        result["layers"] = layer_values(tracer, phase, copies, untraced)
        result["roadmap_split"] = roadmap_split(tracer, phase)
        result["spans"] = {"file": spans_path, "kept": len(tracer.spans), "dropped": tracer.dropped}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
