"""Acceptance suite: every promised behavior at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest
from conftest import grid_points

from gaussbs.channels import (
    GaussianNoiseParams,
    add_gaussian_noise,
    classicality_threshold,
    thermal_substitution,
)
from gaussbs.cli import Axis, SweepGrid, evaluate_point
from gaussbs.entanglement import (
    ScenarioParams,
    critical_noise,
    critical_noise_5050,
    critical_noise_near_optimal,
    log_negativity,
    negativity_closed_form,
    output_covariance,
)
from gaussbs.fock import OracleConfig, compare_with_gaussian
from gaussbs.states import (
    GaussianSpec,
    covariance_from_spec,
    nonclassical_depth,
)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {description}")
        raise
    print(f"criterion {num}: PASS  {description}")


def test_criterion_1_threshold_point_values():
    with criterion(1, "threshold point values 0.75 and 0.36"):
        start = time.perf_counter()
        pure = critical_noise(0.3, 1.0, math.pi / 12)
        mixed = critical_noise(0.4, 0.2, math.pi / 12)
        elapsed = time.perf_counter() - start
        assert pure.flag == "ok"
        assert abs(pure.value - 0.75) <= 1e-9
        assert mixed.flag == "ok"
        assert abs(mixed.value - 0.36) <= 5e-3
        assert elapsed < 0.1


def test_criterion_2_closed_form_equals_pipeline():
    with criterion(2, "closed form equals matrix pipeline on 10^4 random tuples"):
        rng = np.random.default_rng(20240229)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            p = ScenarioParams(
                tau=rng.uniform(0.0, 0.49),
                u=rng.uniform(0.05, 1.0),
                nbar=rng.uniform(0.0, 3.0),
                theta=rng.uniform(0.0, math.pi / 2),
                phi=rng.uniform(0.0, 2 * math.pi),
                phi_b=rng.uniform(0.0, 2 * math.pi),
            )
            diff = abs(negativity_closed_form(p) - log_negativity(output_covariance(p)))
            worst = max(worst, diff)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"max discrepancy {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_5050_structure():
    with criterion(3, "50:50 output is purity independent and dies at tau/(1-2 tau)"):
        u_grid = np.linspace(0.05, 1.0, 20)
        for tau in np.linspace(0.0, 0.49, 50):
            nbar_c = tau / (1.0 - 2.0 * tau)
            for nbar in (0.0, 0.5 * nbar_c):
                values = [
                    negativity_closed_form(ScenarioParams(tau, u, nbar, math.pi / 4))
                    for u in u_grid
                ]
                assert max(values) - min(values) <= 1e-12
            assert (
                negativity_closed_form(ScenarioParams(tau, 1.0, nbar_c + 1e-9, math.pi / 4))
                == 0.0
            )
            if tau > 0.0:
                assert (
                    negativity_closed_form(
                        ScenarioParams(tau, 1.0, nbar_c - 1e-9, math.pi / 4)
                    )
                    > 0.0
                )


def test_criterion_4_optimality_symmetry_determinant():
    with criterion(4, "50:50 optimality, angle reflection symmetry, determinant identity"):
        rng = np.random.default_rng(41)
        thetas = np.linspace(0.0, math.pi / 2, 181)
        for _ in range(25):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            nbar = rng.uniform(0.0, 3.0)
            values = [
                negativity_closed_form(ScenarioParams(tau, u, nbar, theta))
                for theta in thetas
            ]
            best = negativity_closed_form(ScenarioParams(tau, u, nbar, math.pi / 4))
            assert all(best >= v - 1e-12 for v in values)
            mirrored = [
                negativity_closed_form(ScenarioParams(tau, u, nbar, math.pi / 2 - theta))
                for theta in thetas
            ]
            assert max(abs(a - b) for a, b in zip(values, mirrored)) <= 1e-12
        # determinant identity, sampled where the 4x4 determinant is
        # well-conditioned in float64
        for _ in range(150):
            tau = rng.uniform(0.0, 0.4)
            u = rng.uniform(0.3, 1.0)
            nbar = rng.uniform(0.0, 3.0)
            p = ScenarioParams(
                tau, u, nbar, rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi)
            )
            det_out = np.linalg.det(output_covariance(p).matrix).real
            expected = (2.0 * nbar + 1.0) ** 2 / (16.0 * u * u)
            assert abs(det_out - expected) <= 1e-12 * max(expected, 1.0)


def test_criterion_5_pure_state_angle_independence():
    with criterion(5, "pure-input threshold is angle independent"):
        for tau in (0.05, 0.15, 0.3, 0.42, 0.49):
            expected = tau / (1.0 - 2.0 * tau)
            for theta in (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 3):
                got = critical_noise(tau, 1.0, theta)
                assert got.flag == "ok"
                assert abs(got.value - expected) <= 1e-9


def test_criterion_6_near_optimal_expansion():
    with criterion(6, "near-50:50 expansion within 1% and quartic error falloff"):
        taus = (0.1, 0.2, 0.3, 0.4, 0.45)
        us = (0.3, 0.5, 0.7, 0.9, 1.0)
        for tau, u in itertools.product(taus, us):
            for e in (0.02, 0.05, 0.1):
                approx = critical_noise_near_optimal(tau, u, e)
                exact = critical_noise(tau, u, (math.pi + 2.0 * e) / 4.0).value
                assert abs(approx - exact) / exact <= 0.01
        for tau, u in itertools.product(taus, (0.3, 0.5, 0.7)):
            errors = []
            for e in (0.1, 0.05):
                exact = critical_noise(tau, u, (math.pi + 2.0 * e) / 4.0).value
                errors.append(abs(critical_noise_near_optimal(tau, u, e) - exact))
            if errors[1] > 1e-13:
                assert errors[0] / errors[1] >= 3.0


def test_criterion_7_noise_channel_equivalence():
    with criterion(7, "preparation-noise threshold equals the 50:50 critical noise"):
        rng = np.random.default_rng(71)
        for tau in np.linspace(0.0, 0.49, 40):
            for u in (0.05, 0.3, 0.7, 1.0):
                spec = GaussianSpec(tau, u, rng.uniform(0.0, 2 * math.pi))
                threshold = classicality_threshold(spec)
                # formula equality is exact; evaluation agrees to 1e-12
                assert threshold == tau / (1.0 - 2.0 * tau)
                assert abs(threshold - critical_noise_5050(tau)) <= 1e-12
                if tau > 0.0:
                    above = thermal_substitution(spec, threshold + 1e-9)
                    assert nonclassical_depth(above) <= 1e-8
                    below = thermal_substitution(spec, max(threshold - 1e-9, 0.0))
                    assert nonclassical_depth(below) > 0.0
        for _ in range(200):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            sigma = rng.uniform(0.0, 0.7)
            v = covariance_from_spec(GaussianSpec(tau, u, rng.uniform(0.0, 2 * math.pi)))
            out = add_gaussian_noise(v, GaussianNoiseParams(sigma))
            expected = max(0.0, nonclassical_depth(v) - sigma)
            assert abs(nonclassical_depth(out) - expected) <= 1e-12


def test_criterion_8_fock_oracle_and_figure_structure():
    with criterion(8, "Fock-space route reproduces the Gaussian negativity"):
        start = time.perf_counter()
        # leakage budget 1e-4 keeps every point at the requested cutoff 40
        cfg = OracleConfig(dim=40, tol_trace=1e-4, tol_compare=1e-3)
        worst = 0.0
        for tau, u, nbar, theta in itertools.product(
            (0.1, 0.2, 0.3), (0.5, 1.0), (0.0, 0.5, 1.0), (math.pi / 8, math.pi / 4)
        ):
            result = compare_with_gaussian(ScenarioParams(tau, u, nbar, theta), cfg)
            assert result.status == "pass", (tau, u, nbar, theta, result.abs_diff)
            assert result.dim_used == 40
            worst = max(worst, result.abs_diff)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-3
        assert elapsed < 120.0, f"took {elapsed:.1f}s"

        # structural features of the standard surfaces
        fixed = {"tau": 0.2, "u": 1.0, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid(
            (Axis("nbar", 0.0, 0.5, 26), Axis("theta", 0.0, math.pi / 2, 21)), fixed
        )
        rows = [evaluate_point(point, False) for point in grid_points(grid)]
        by_theta = {}
        for row in rows:
            by_theta.setdefault(round(row["theta"], 12), []).append(row)
        for theta, column in by_theta.items():
            ns = [row["N"] for row in sorted(column, key=lambda r: r["nbar"])]
            assert all(a >= b - 1e-13 for a, b in zip(ns, ns[1:]))  # shrinks with noise
            for row in column:
                if row["nbar"] > 0.2 / 0.6 + 1e-12:
                    assert row["N"] == 0.0

        for nbar in (1.0, 4.0):
            fixed = {"tau": 0.45, "nbar": nbar, "phi": 0.0, "phi_b": 0.0}
            grid = SweepGrid(
                (Axis("u", 0.05, 1.0, 20), Axis("theta", 0.0, math.pi / 2, 101)), fixed
            )
            rows = [evaluate_point(point, False) for point in grid_points(grid)]
            entangled_span = {}
            for row in rows:
                key = round(row["u"], 12)
                entangled_span[key] = entangled_span.get(key, 0) + (row["N"] > 0.0)
            spans = [entangled_span[k] for k in sorted(entangled_span)]
            assert all(b >= a for a, b in zip(spans, spans[1:]))  # broadens with purity

        mixing = np.linspace(0.1, math.pi / 2 - 0.1, 25)
        flat = [critical_noise(0.4, 1.0, theta).value for theta in mixing]
        assert max(flat) - min(flat) <= 1e-9  # flat threshold at unit purity
        for u in (0.3, 0.6, 0.9):
            values = [critical_noise(0.4, u, theta).value for theta in mixing]
            assert max(values) == pytest.approx(
                critical_noise(0.4, u, math.pi / 4).value, abs=1e-9
            )


def test_criterion_9_classical_input_never_entangles():
    with criterion(9, "classical input yields exactly zero negativity"):
        rng = np.random.default_rng(97)
        for _ in range(1_000):
            p = ScenarioParams(
                tau=0.0,
                u=rng.uniform(0.05, 1.0),
                nbar=rng.uniform(0.0, 4.0),
                theta=rng.uniform(0.0, math.pi / 2),
                phi=rng.uniform(0.0, 2 * math.pi),
                phi_b=rng.uniform(0.0, 2 * math.pi),
            )
            assert negativity_closed_form(p) == 0.0
            assert log_negativity(output_covariance(p)) == 0.0
