import cmath
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import (
    _beam_splitter_unitary,
    annihilation,
    coherent_state,
    covariance_from_fock,
    dense_output,
    dense_pt_trace_norm,
    min_eigenvalue,
    partial_transpose,
    thermal,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbs import fock
from gaussbs.entanglement import ScenarioParams, critical_noise, negativity_closed_form
from gaussbs.fock import OracleConfig, compare_with_gaussian, fock_squeezed_thermal
from gaussbs.fock import (
    _beam_splitter_sectors,
    _box,
    _class_numbers,
    _deflated,
    _hermitize,
    _leakage,
    _lightest,
    _mapped_matrix,
    _output_classes,
    _output_diagonal,
    _partial_transpose,
    _pt_trace_norm,
    _thermal_weights,
)
from gaussbs.states import (
    BeamSplitter,
    DomainError,
    GaussianSpec,
    covariance_from_spec,
)

CFG = OracleConfig(dim=30, tol_trace=1e-6)


def _full_classes(rho1, weights, theta) -> list:
    """The class matrices of U (rho1 x diag p) U^ over the whole window of rho1."""
    dim = rho1.shape[0]
    return _output_classes(rho1, weights, _beam_splitter_sectors(theta, dim), dim, dim)


def _oracle_log_negativity(rho1, weights, theta) -> float:
    """The oracle's unclamped log2 trace norm of the partial transpose of U (rho1 x diag p) U^."""
    dim = rho1.shape[0]
    return math.log2(_pt_trace_norm(_full_classes(rho1, weights, theta), dim, dim, 0.0))


def _quadrant_order(w1: int, w2: int, c: int) -> np.ndarray:
    """Product-basis indices n1 * w2 + n2 of class c of a w1 x w2 box, in the oracle's layout."""
    n1, n2 = np.divmod(np.arange(w1 * w2), w2)
    flat = np.flatnonzero((n1 + n2) % 2 == c)
    return flat[np.lexsort((n2[flat] // 2, n1[flat] // 2, n2[flat] % 2, n1[flat] % 2))]


def _expm_squeezed_thermal(spec: GaussianSpec, dim: int) -> np.ndarray:
    """The squeezed-thermal window from scipy's expm of the complex squeezer generator.

    Built on the oracle's working width ``dim + _WORK_MARGIN``, then cut to
    ``dim``; no rotation identity is used.
    """
    from scipy.linalg import expm

    work = dim + fock._WORK_MARGIN
    a = annihilation(work)
    r = -0.5 * math.log(spec.u * (1.0 - 2.0 * spec.tau))
    xi = r * cmath.exp(1j * spec.phi_b)
    squeezer = expm(0.5 * (xi.conjugate() * (a @ a) - xi * (a.T @ a.T)) + 0j)
    seed = np.diag(fock._thermal_weights((1.0 - spec.u) / (2.0 * spec.u), work))
    return (squeezer @ seed @ squeezer.conj().T)[:dim, :dim]


def _random_inputs(rng, dim: int):
    """A symmetric rho1 with only equal-parity couplings, and positive weights."""
    z = rng.standard_normal((dim, dim))
    n = np.arange(dim)
    return (z + z.T) * ((n[:, None] - n) % 2 == 0), rng.uniform(0.1, 1.0, dim)


class TestStateBuilders:
    def test_pure_vacuum_projector(self):
        rho = fock_squeezed_thermal(GaussianSpec(0.0, 1.0, 0.0), CFG.dim)
        expected = np.zeros((30, 30))
        expected[0, 0] = 1.0
        assert np.abs(rho - expected).max() < 1e-14

    def test_thermal_geometric_weights(self):
        rho = thermal(1.0, 40)
        weights = np.diag(rho).real
        n = np.arange(40)
        assert np.abs(weights - 0.5 * 0.5**n).max() < 1e-15
        assert np.abs(rho - np.diag(np.diag(rho))).max() == 0.0

    def test_boundary_mixed_state_is_squeezed_not_thermal(self):
        # tau = 0, u = 1/3 maps to a squeezed thermal seed, and its moments
        # must track the covariance parametrization, not a bare thermal
        rho = fock_squeezed_thermal(GaussianSpec(0.0, 1.0 / 3.0, 0.0), 80)
        got = covariance_from_fock(rho)
        assert got.a == pytest.approx(2.5, abs=1e-6)
        assert abs(got.b) == pytest.approx(2.0, abs=1e-6)
        off_diag = rho - np.diag(np.diag(rho))
        assert np.abs(off_diag).max() > 0.1

    def test_moment_extraction_matches_covariance(self):
        spec = GaussianSpec(0.2, 0.8, 0.0)
        rho = fock_squeezed_thermal(spec, 40)
        got = covariance_from_fock(rho)
        target = covariance_from_spec(spec)
        assert got.a == pytest.approx(target.a, abs=1e-6)
        assert abs(got.b - target.b) < 1e-6

    def test_moment_grid(self):
        # The engine builds phi_b = 0; the expm reference checks the phase convention.
        for tau in (0.05, 0.2, 0.3):
            for u in (0.6, 0.85, 1.0):
                for build, phi_b in ((fock_squeezed_thermal, 0.0), (_expm_squeezed_thermal, 1.1)):
                    spec = GaussianSpec(tau, u, phi_b)
                    rho = build(spec, 72)
                    got = covariance_from_fock(rho)
                    target = covariance_from_spec(spec)
                    assert got.a == pytest.approx(target.a, abs=1e-6)
                    assert abs(got.b - target.b) < 1e-6

    def test_states_positive_and_normalized(self):
        rho = fock_squeezed_thermal(GaussianSpec(0.25, 0.7), 40)
        assert min_eigenvalue(rho) > -1e-10
        assert _leakage(np.diag(rho)) < 1e-8

    @pytest.mark.parametrize("dim", [0, -3, 8.0, 2.5, "8", None])
    def test_squeezer_rejects_bad_cutoff(self, dim):
        with pytest.raises(DomainError, match="integer >= 1"):
            fock_squeezed_thermal(GaussianSpec(0.2, 0.9), dim)

    def test_squeezer_smallest_cutoff(self):
        rho = fock_squeezed_thermal(GaussianSpec(0.2, 0.9), 1)
        assert rho.shape == (1, 1)
        assert 0.0 < rho[0, 0] < 1.0

    @pytest.mark.parametrize("dim", [40, 100])
    def test_squeezer_is_expm_of_the_generator(self, dim):
        spec = GaussianSpec(0.3, 0.5)
        expected = _expm_squeezed_thermal(spec, dim)
        rho = fock_squeezed_thermal(spec, dim)
        assert rho.dtype == np.float64
        assert np.abs(rho - expected).max() < 1e-13

    @pytest.mark.parametrize("phi_b", [0.7, 4.0, -1e-300])
    def test_squeezer_refuses_a_phase(self, phi_b):
        with pytest.raises(DomainError, match=r"phi_b = 0 only.*local rotation R rho R\^dagger"):
            fock_squeezed_thermal(GaussianSpec(0.3, 0.5, phi_b), 40)

    @pytest.mark.parametrize("dim", [40, 100])
    @pytest.mark.parametrize("phi_b", [0.7, 4.0])
    def test_rotated_build_is_expm_at_the_phase(self, dim, phi_b):
        # The refusal's identity: the state at phi_b is R rho R^ with R = diag(e^{i n phi_b / 2}).
        expected = _expm_squeezed_thermal(GaussianSpec(0.3, 0.5, phi_b), dim)
        d = np.exp(0.5j * phi_b * np.arange(dim))
        rotated = np.outer(d, d.conj()) * fock_squeezed_thermal(GaussianSpec(0.3, 0.5), dim)
        assert np.abs(rotated - expected).max() < 1e-13

    def test_squeezer_has_no_cross_parity_entries(self):
        rho = fock_squeezed_thermal(GaussianSpec(0.3, 0.5), 41)
        n = np.arange(41)
        cross = rho[(n[:, None] - n) % 2 == 1]
        assert np.all(cross == 0.0)
        assert np.abs(rho[0, 2]) > 0.1


class TestBeamSplitterUnitary:
    def test_zero_angle_identity(self):
        u = _beam_splitter_unitary(0.0, 0.9, 12)
        assert np.abs(u - np.eye(144)).max() < 1e-14

    def test_unitary_within_cutoff(self):
        u = _beam_splitter_unitary(0.7, 0.3, 12)
        assert np.abs(u.conj().T @ u - np.eye(144)).max() < 1e-12

    def test_coherent_states_map_by_amplitude_matrix(self):
        # U |a1, a2> = |b1, b2> with (b1, b2) the matrix action on (a1, a2)
        bs = BeamSplitter(0.6, 1.2)
        dim = 25
        a1, a2 = 0.6 + 0.2j, -0.3 + 0.4j
        b1, b2 = bs.matrix @ np.array([a1, a2])
        u = _beam_splitter_unitary(bs.theta, bs.phi, dim)
        psi_out = u @ np.kron(coherent_state(a1, dim), coherent_state(a2, dim))
        expected = np.kron(coherent_state(b1, dim), coherent_state(b2, dim))
        assert abs(np.vdot(expected, psi_out)) == pytest.approx(1.0, abs=1e-9)

    def test_heisenberg_action_matches_matrix(self):
        bs = BeamSplitter(0.8, 0.5)
        dim = 14
        u = _beam_splitter_unitary(bs.theta, bs.phi, dim)
        a = annihilation(dim)
        a1 = np.kron(a, np.eye(dim))
        a2 = np.kron(np.eye(dim), a)
        m = bs.matrix
        # restrict to states whose image stays inside complete sectors
        keep = 6
        mask = np.zeros(dim * dim, dtype=bool)
        for n1 in range(keep):
            for n2 in range(keep):
                mask[n1 * dim + n2] = True
        for i, op in enumerate((a1, a2)):
            lhs = (u.conj().T @ op @ u)[np.ix_(mask, mask)]
            rhs = (m[i, 0] * a1 + m[i, 1] * a2)[np.ix_(mask, mask)]
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_product_input_zero_angle(self):
        rho1 = _expm_squeezed_thermal(GaussianSpec(0.2, 0.9, 0.3), CFG.dim)
        rho2 = thermal(0.5, CFG.dim)
        out = dense_output(rho1, rho2, BeamSplitter(0.0, 0.4))
        assert np.abs(out - np.kron(rho1, rho2)).max() < 1e-13

    def test_coherent_inputs_stay_product(self):
        dim = 25
        cfg = OracleConfig(dim=dim, tol_trace=1e-6)
        psi1 = coherent_state(0.5, dim)
        psi2 = coherent_state(0.4j, dim)
        rho1, rho2 = np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj())
        out = dense_output(rho1, rho2, BeamSplitter(math.pi / 4, 0.7))
        assert abs(1.0 - np.trace(out).real) <= cfg.tol_trace
        arr = out.reshape(dim, dim, dim, dim)
        red1 = np.trace(arr, axis1=1, axis2=3)
        red2 = np.trace(arr, axis1=0, axis2=2)
        for red in (red1, red2):
            assert np.trace(red @ red).real == pytest.approx(1.0, abs=1e-9)

    def test_single_photon_splits_evenly(self):
        dim = 12
        cfg = OracleConfig(dim=dim)
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        one = np.zeros((dim, dim), dtype=complex)
        one[1, 1] = 1.0
        out = dense_output(vac, one, BeamSplitter(math.pi / 4))
        assert abs(1.0 - np.trace(out).real) <= cfg.tol_trace
        arr = out.reshape(dim, dim, dim, dim)
        red1 = np.trace(arr, axis1=1, axis2=3)
        red2 = np.trace(arr, axis1=0, axis2=2)
        n_op = np.diag(np.arange(dim))
        assert np.trace(red1 @ n_op).real == pytest.approx(0.5, abs=1e-12)
        assert np.trace(red2 @ n_op).real == pytest.approx(0.5, abs=1e-12)


class TestPartialTransposeAndNegativity:
    def test_pt_preserves_trace_and_hermiticity(self):
        rho1 = _expm_squeezed_thermal(GaussianSpec(0.2, 0.8, 0.5), CFG.dim)
        rho2 = thermal(0.3, CFG.dim)
        out = dense_output(rho1, rho2, BeamSplitter(0.7, 0.2))
        out = 0.5 * (out + out.conj().T)
        pt = partial_transpose(out)
        assert np.trace(pt).real == pytest.approx(np.trace(out).real, abs=1e-14)
        assert np.abs(pt - pt.conj().T).max() == 0.0
        back = partial_transpose(pt)
        assert np.abs(back - out).max() == 0.0

    def test_product_state_zero_negativity(self):
        rho1 = fock_squeezed_thermal(GaussianSpec(0.2, 0.9, 0.0), CFG.dim)
        rho2 = thermal(0.4, CFG.dim)
        product = np.kron(rho1, rho2)
        assert max(0.0, math.log2(dense_pt_trace_norm(product))) == 0.0

    def test_pure_squeezed_5050_half_bit(self):
        p = ScenarioParams(0.25, 1.0, 0.0, math.pi / 4)
        rho1 = fock_squeezed_thermal(p.spec(), CFG.dim)
        raw = _oracle_log_negativity(rho1, _thermal_weights(0.0, CFG.dim), p.theta)
        assert max(0.0, raw) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("tau, u, theta", [(0.3, 1.0, math.pi / 12), (0.3, 0.8, 0.3)])
    def test_threshold_brackets_the_fock_negativity(self, tau, u, theta):
        """N_fock is clearly positive 2 % below the closed-form threshold and vanishes 2 % above it."""
        nbar_c = critical_noise(tau, u, theta).value
        rho1 = fock_squeezed_thermal(GaussianSpec(tau, u), 40)
        below, above = (
            max(0.0, _oracle_log_negativity(rho1, _thermal_weights(nbar, 40), theta))
            for nbar in (0.98 * nbar_c, 1.02 * nbar_c)
        )
        assert below >= 1e-3 and above <= 1e-5, (below, above)

    def test_raw_value_reported(self):
        rho1 = thermal(0.2, CFG.dim)
        raw = _oracle_log_negativity(rho1, _thermal_weights(0.4, CFG.dim), 0.5)
        assert raw <= 1e-12
        assert max(0.0, raw) <= 1e-12

    def test_non_hermitian_rejected(self):
        data = np.zeros((9, 9))
        data[0, 1] = 1.0
        with pytest.raises(DomainError):
            _hermitize(data)

    def test_asymmetry_rejected_whatever_the_peak(self):
        # A tolerance relative to the peak, 5e-10 here, would let this through.
        data = np.eye(9)
        data[4, 4] = 5.0
        data[2, 7] = data[7, 2] = 0.3
        data[2, 7] += 2e-10
        with pytest.raises(DomainError, match="Hermitian"):
            _hermitize(data)

    def test_non_hermitian_input_rejected_by_the_build(self):
        rho1, weights = _random_inputs(np.random.default_rng(5), 8)
        rho1[0, 2] += 0.5
        with pytest.raises(DomainError, match="Hermitian"):
            _full_classes(rho1, weights, 0.7)


class TestComparisonHarness:
    def test_agreement_entangled_point(self):
        p = ScenarioParams(0.2, 0.8, 0.1, math.pi / 4, 0.3, 0.9)
        res = compare_with_gaussian(p, OracleConfig(dim=30, tol_trace=1e-6))
        assert res.status == "pass"
        assert res.abs_diff <= 1e-3
        assert res.n_gaussian == pytest.approx(negativity_closed_form(p), abs=1e-15)

    def test_agreement_at_validity_envelope(self):
        # hottest corner of the stated validity range: tau 0.35, nbar 2
        res = compare_with_gaussian(
            ScenarioParams(0.35, 1.0, 2.0, math.pi / 4),
            OracleConfig(dim=40, tol_trace=1e-6),
        )
        assert res.status == "pass"
        assert res.dim_used == 40

    def test_escalation_from_tiny_cutoff(self):
        res = compare_with_gaussian(
            ScenarioParams(0.3, 0.8, 0.2, math.pi / 4),
            OracleConfig(dim=4, tol_trace=1e-8),
        )
        assert res.status == "pass"
        assert res.dim_used > 4

    def test_skip_recorded_when_budget_unreachable(self):
        res = compare_with_gaussian(
            ScenarioParams(0.35, 0.5, 0.5, math.pi / 4),
            OracleConfig(dim=4, tol_trace=1e-18),
        )
        assert res.status == "skip"
        assert res.dim_used == 120
        assert math.isnan(res.n_fock)
        assert "leakage" in res.note

    def test_budget_past_every_state_gives_zero(self):
        # A budget this wide drops every state, and N_fock clamps the empty trace norm to 0.
        p = ScenarioParams(0.2, 1.0, 0.0, math.pi / 4)
        rho1, weights = fock_squeezed_thermal(p.spec(), 24), _thermal_weights(p.nbar, 24)
        diagonal = _output_diagonal(rho1, weights, _beam_splitter_sectors(p.theta, 24))
        assert _box(diagonal, 1e3)[:2] == (0, 0)
        for tol_compare in (1e4, 1e6):
            res = compare_with_gaussian(p, OracleConfig(dim=24, tol_trace=1e-6, tol_compare=tol_compare))
            assert (res.status, res.n_fock, res.dim_used) == ("pass", 0.0, 24)

    def test_verification_failure_reported(self):
        res = compare_with_gaussian(
            ScenarioParams(0.2, 1.0, 0.0, math.pi / 4),
            OracleConfig(dim=30, tol_trace=1e-6, tol_compare=1e-12),
        )
        assert res.status == "fail"

    def test_thermal_tail_over_budget_skips(self):
        # nbar = 10 loses (10/11)^W of the thermal input at the window W,
        # 1.1e-5 at W = 120, while the pure squeezed window is well inside
        res = compare_with_gaussian(
            ScenarioParams(0.1, 1.0, 10.0, math.pi / 8),
            OracleConfig(dim=120, tol_trace=1e-8),
        )
        assert res.status == "skip"
        assert res.dim_used == 120
        assert res.note == "leakage 1.079e-05 above budget at dim=120"
        assert math.isnan(res.n_fock)

    def test_output_trace_over_budget_escalates(self, monkeypatch):
        windows = []

        def leaky_once(rho1, weights, sectors):
            windows.append(rho1.shape[0])
            diagonal = _output_diagonal(rho1, weights, sectors)
            return diagonal * (1.0 - 1e-3) if len(windows) == 1 else diagonal

        monkeypatch.setattr(fock, "_output_diagonal", leaky_once)
        res = compare_with_gaussian(
            ScenarioParams(0.2, 0.8, 0.1, math.pi / 4), OracleConfig(dim=30, tol_trace=1e-6)
        )
        assert len(windows) == 2 and windows[1] > windows[0]
        assert res.status == "pass"
        assert res.dim_used == 50
        assert res.leakage <= 1e-6


class TestDtypeFollowsPhases:
    """Every stage is float64, whatever the phases of the point."""

    ROTATIONS = ((0.0, 0.0), (0.7, 1.1))

    def test_two_mode_dtype(self, monkeypatch):
        seen = []

        def recorded(rho1, *args):
            mats = _output_classes(rho1, *args)
            seen.append((rho1.dtype, [mat.dtype for mat in mats]))
            return mats

        monkeypatch.setattr(fock, "_output_classes", recorded)
        for phases in self.ROTATIONS:
            res = compare_with_gaussian(ScenarioParams(0.2, 0.9, 0.3, math.pi / 4, *phases), CFG)
            assert res.status == "pass" and res.params.phi == phases[0]
        assert seen == [(np.float64, [np.float64, np.float64])] * 2
        for tau, u in ((0.2, 0.9), (0.0, 1.0), (0.35, 0.5)):
            assert fock_squeezed_thermal(GaussianSpec(tau, u), 12).dtype == np.float64

    def test_sector_conjugate_matches_dense(self):
        # Symmetric parity-masked rho1 and positive weights.
        rng = np.random.default_rng(7)
        for dim in (8, 9):
            flats = [_quadrant_order(dim, dim, c) for c in (0, 1)]
            rho1, weights = _random_inputs(rng, dim)
            expected = dense_output(rho1, np.diag(weights), BeamSplitter(0.7))
            assert np.abs(expected[np.ix_(flats[0], flats[1])]).max() < 1e-12
            mats = _full_classes(rho1, weights, 0.7)
            for flat, got in zip(flats, mats):
                assert got.dtype == expected.dtype == np.float64
                assert np.abs(got - expected[np.ix_(flat, flat)]).max() < 1e-12


class TestUnrotatedOutput:
    """A rotated point is evaluated on its real twin at phi = phi_b = 0."""

    ARGS = (0.2, 0.9, 0.3, math.pi / 4)
    PHASES = [(0.7, 1.1), (-2.9, 0.0), (0.0, 5.3)]

    @pytest.mark.parametrize("phases", PHASES)
    def test_n_fock_independent_of_the_phases(self, phases):
        cfg = OracleConfig(dim=40, tol_trace=1e-4)
        unrotated = compare_with_gaussian(ScenarioParams(*self.ARGS), cfg)
        rotated = compare_with_gaussian(ScenarioParams(*self.ARGS, *phases), cfg)
        assert unrotated.n_fock > 0.01
        assert rotated.n_fock == pytest.approx(unrotated.n_fock, abs=1e-12)
        assert (rotated.dim_used, rotated.note) == (unrotated.dim_used, unrotated.note)

    @pytest.mark.parametrize("dim", [8, 11])
    @pytest.mark.parametrize("phases", PHASES)
    @pytest.mark.parametrize(
        "point", [(0.2, 0.8, 0.3, math.pi / 5), (0.3, 1.0, 0.0, math.pi / 4), (0.1, 0.5, 1.0, math.pi / 8)]
    )
    def test_twin_matches_an_independent_rotated_reference(self, point, phases, dim):
        """The rotated output built densely from expm, with no engine block or rotation.

        rho1 is the squeezer's expm on the working width, and U the expm of
        theta (e^{i phi} a1^ a2 - h.c.) on the dim^2 product basis.
        """
        from scipy.linalg import expm

        p = ScenarioParams(*point, *phases)
        a = annihilation(dim)
        hop = p.theta * cmath.exp(1j * p.phi) * np.kron(a.T, a)
        u = expm(hop - hop.conj().T)
        rho1 = _expm_squeezed_thermal(p.spec(), dim)
        out = u @ np.kron(rho1, thermal(p.nbar, dim)) @ u.conj().T
        expected = dense_pt_trace_norm(0.5 * (out + out.conj().T))

        twin = fock_squeezed_thermal(GaussianSpec(p.tau, p.u), dim)
        mats = _full_classes(twin, _thermal_weights(p.nbar, dim), p.theta)
        assert [mat.dtype for mat in mats] == [np.float64, np.float64]
        assert _pt_trace_norm(mats, dim, dim, 0.0) == pytest.approx(expected, abs=1e-12)


class TestParityClasses:
    @pytest.mark.parametrize("dim", [5, 12, 21])
    def test_rotated_blocks_are_expm_of_the_generator(self, dim):
        from scipy.linalg import expm

        for theta in (0.3, math.pi / 4, 1.2):
            for total, block in enumerate(_beam_splitter_sectors(theta, dim)):
                n1 = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
                hop = theta * np.sqrt((n1[:-1] + 1.0) * (total - n1[:-1]))
                generator = np.diag(hop, -1) - np.diag(hop, 1)
                # scipy's complex expm: its real one is off by up to 4e-13 here.
                assert np.abs(block - expm(generator + 0j)).max() < 1e-13

    @pytest.mark.parametrize("dim", [8, 9, 10, 11])
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.7, 1.1)])
    def test_parity_blocks_match_dense_partial_transpose(self, dim, phases):
        p = ScenarioParams(0.2, 0.8, 0.3, math.pi / 5, *phases)
        weights = _thermal_weights(p.nbar, dim)
        dense = dense_output(_expm_squeezed_thermal(p.spec(), dim), np.diag(weights), p.splitter())
        expected = dense_pt_trace_norm(dense)
        twin = fock_squeezed_thermal(GaussianSpec(p.tau, p.u), dim)
        mats = _full_classes(twin, weights, p.theta)
        assert len(mats) == 2
        assert mats[0].dtype == np.float64
        assert _pt_trace_norm(mats, dim, dim, 0.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [8, 9, 10, 11])
    def test_partial_transpose_blocks_match_dense(self, dim):
        # An odd dim gives quadrants of unequal size.
        rng = np.random.default_rng(dim)
        flats = [_quadrant_order(dim, dim, q) for q in (0, 1)]
        rho1, weights = _random_inputs(rng, dim)
        pt = partial_transpose(dense_output(rho1, np.diag(weights), BeamSplitter(0.7)))
        assert np.abs(pt[np.ix_(flats[0], flats[1])]).max() < 1e-12
        mats = _full_classes(rho1, weights, 0.7)
        _partial_transpose(mats, dim, dim)
        for flat, got in zip(flats, mats):
            expected = pt[np.ix_(flat, flat)]
            assert got.dtype == expected.dtype == np.float64
            assert np.abs(got - expected).max() < 1e-12
            got_eigs, expected_eigs = np.linalg.eigvalsh(got), np.linalg.eigvalsh(expected)
            assert np.abs(got_eigs - expected_eigs).max() < 1e-12


    @pytest.mark.parametrize("dim", [8, 9, 24])
    def test_diagonal_matches_the_built_classes(self, dim):
        """The O(W^3) diagonal is the built one, and its leakage the built classes' trace leakage."""
        for point in ((0.2, 0.8, 0.3, math.pi / 5), (0.3, 0.5, 1.0, math.pi / 8), (0.0, 1.0, 0.0, 0.4)):
            p = ScenarioParams(*point)
            rho1, weights = fock_squeezed_thermal(p.spec(), dim), _thermal_weights(p.nbar, dim)
            diagonal = _output_diagonal(rho1, weights, _beam_splitter_sectors(p.theta, dim))
            mats = _full_classes(rho1, weights, p.theta)
            built = np.zeros((dim, dim))
            for c, mat in enumerate(mats):
                built[_class_numbers(dim, dim, c)] = np.diag(mat)
            assert np.abs(diagonal - built).max() <= 1e-15
            traced = abs(1.0 - sum(np.trace(mat) for mat in mats))
            assert _leakage(diagonal) == pytest.approx(traced, abs=1e-15)

    @pytest.mark.parametrize("w1, w2", [(6, 9), (9, 6), (7, 5), (4, 8), (10, 7), (1, 4)])
    def test_partial_transpose_of_a_box_matches_dense(self, w1, w2):
        """The build and partial transpose of a w1 x w2 box are those of the compressed output."""
        dim = 10
        rho1, weights = _random_inputs(np.random.default_rng(w1 * w2), dim)
        dense = dense_output(rho1, np.diag(weights), BeamSplitter(0.7))
        n1, n2 = np.divmod(np.arange(dim * dim), dim)
        box = np.flatnonzero((n1 < w1) & (n2 < w2))
        compressed = dense[np.ix_(box, box)]
        pt = partial_transpose(compressed, (w1, w2))
        mats = _output_classes(rho1, weights, _beam_splitter_sectors(0.7, dim), w1, w2)
        for c, mat in enumerate(mats):
            flat = _quadrant_order(w1, w2, c)
            assert np.abs(mat - compressed[np.ix_(flat, flat)]).max() < 1e-12
        _partial_transpose(mats, w1, w2)
        for q, got in enumerate(mats):
            flat = _quadrant_order(w1, w2, q)
            assert np.abs(got - pt[np.ix_(flat, flat)]).max() < 1e-12
            others = np.setdiff1d(np.arange(w1 * w2), flat)
            assert np.abs(pt[np.ix_(flat, others)]).max(initial=0.0) < 1e-12


class TestDeflation:
    """Partial-transpose states that move the trace norm by at most a budget skip the eigensolve."""

    TARGET = OracleConfig.tol_compare / fock._GUARD_SAFETY

    @staticmethod
    def _dense_pt_norm(mats, dim):
        """Trace norm of the partial transpose of copies of the class matrices, no state dropped."""
        blocks = [mat.copy() for mat in mats]
        _partial_transpose(blocks, dim, dim)
        return sum(float(np.abs(np.linalg.eigvalsh(block)).sum()) for block in blocks)

    @staticmethod
    def _record_kept(monkeypatch):
        """Record (kept, total) states of each deflated block."""
        kept = []

        def recorded(block, budget):
            front, keep, bound = _deflated(block, budget)
            kept.append((keep.size, block.shape[0]))
            return front, keep, bound

        monkeypatch.setattr(fock, "_deflated", recorded)
        return kept

    # (kept, total) states of each class block at W = 40 with budget 0.
    @pytest.mark.parametrize(
        "point, kept",
        [
            ((0.0, 1.0, 0.0, math.pi / 4), [(1, 800), (0, 800)]),
            ((0.2, 0.5, 1.0, math.pi / 4), [(800, 800)] * 2),
        ],
        ids=["vacuum", "mixed"],
    )
    def test_budget_zero_matches_the_dense_eigensolve(self, point, kept, monkeypatch):
        p = ScenarioParams(*point)
        rho1, weights = fock_squeezed_thermal(p.spec(), 40), _thermal_weights(p.nbar, 40)
        # At budget 0 the box is the whole window, even where a marginal is exactly 0.
        diagonal = _output_diagonal(rho1, weights, _beam_splitter_sectors(p.theta, 40))
        assert _box(diagonal, 0.0) == (40, 40, 0.0)
        mats = _full_classes(rho1, weights, p.theta)
        dense = self._dense_pt_norm(mats, 40)
        seen = self._record_kept(monkeypatch)
        assert _pt_trace_norm(mats, 40, 40, 0.0) == pytest.approx(dense, abs=1e-12)
        assert seen == kept

    def test_budget_follows_tol_compare(self, monkeypatch):
        """The default tol_compare drops most states; tol_compare = 1e-12 drops none that matter.

        N moves by at most budget / (T ln 2) for a trace norm T >= 1, and the
        budget is ``tol_compare / _GUARD_SAFETY``: 1.45 times it bounds the move.
        """
        p = ScenarioParams(0.3, 1.0, 0.0, math.pi / 4)
        dense = []

        def built(rho1, weights, sectors, w1, w2):
            dim = rho1.shape[0]
            full = _output_classes(rho1, weights, sectors, dim, dim)
            dense.append(math.log2(self._dense_pt_norm(full, dim)))
            return _output_classes(rho1, weights, sectors, w1, w2)

        budgets = []

        def boxed(diagonal, budget):
            w1, w2, outside = _box(diagonal, budget)
            budgets.append((budget, outside))
            return w1, w2, outside

        def split(mats, w1, w2, budget):
            budgets.append(budget)
            return _pt_trace_norm(mats, w1, w2, budget)

        monkeypatch.setattr(fock, "_output_classes", built)
        monkeypatch.setattr(fock, "_box", boxed)
        monkeypatch.setattr(fock, "_pt_trace_norm", split)
        kept = self._record_kept(monkeypatch)
        res = compare_with_gaussian(p, OracleConfig(dim=40, tol_trace=1e-4))
        assert (res.status, res.dim_used, res.note) == ("pass", 40, "")
        # Of the 800 states of each class of the window.
        assert all(k < 800 / 3 for k, _ in kept), kept
        # The box gets the budget, and the eigensolve what the box left of it.
        (budget, outside), rest = budgets
        assert budget == self.TARGET and outside > 0.0 and rest == budget - outside
        assert abs(res.n_fock - dense[-1]) <= 1.45 * self.TARGET
        res = compare_with_gaussian(p, OracleConfig(dim=40, tol_trace=1e-4, tol_compare=1e-12))
        assert res.n_fock == pytest.approx(dense[-1], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        planted=st.floats(0.0, 1.0),
        scale=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]),
        level=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_rows_move_the_trace_norm_within_the_bound(self, n, planted, scale, level, seed):
        """Light rows are planted by scaling rows and columns; the budget is near their bound.

        The front is the kept submatrix, over the block's own buffer, kept
        states ascending.  E, the dropped rows and columns, has an exact
        trace norm within the stated bound, which is 2 sum ||row|| over the
        dropped rows, and within the budget, and one more of the lightest
        kept rows would overrun the budget.
        """
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a + a.T
        light = rng.permutation(n)[: int(planted * n)]
        a[light] *= scale
        a[:, light] *= scale
        weight = (np.abs(a) ** 2).sum(axis=1)
        budget = level * 2.0 * np.sqrt(weight[light]).sum()

        buffer = a.copy()
        front, keep, bound = _deflated(buffer, budget)
        assert np.all(np.diff(keep) > 0)
        assert np.array_equal(front, a[np.ix_(keep, keep)])
        if keep.size == n:
            assert front is buffer
        elif keep.size:
            assert front.flags.c_contiguous and np.shares_memory(front, buffer)
        dropped = np.setdiff1d(np.arange(n), keep)
        e = a.copy()
        e[np.ix_(keep, keep)] = 0.0
        # A dropped row with a zero diagonal entry attains the bound, since
        # x e_i^T + e_i x^T has eigenvalues +-||x||; each of the n computed
        # eigenvalues may be off by about n eps ||E||.
        exact = float(np.abs(np.linalg.eigvalsh(e)).sum())
        assert exact <= bound * (1.0 + n * n * np.finfo(float).eps)
        assert bound <= budget
        stated = 2.0 * np.sqrt(weight[dropped]).sum()
        assert bound == pytest.approx(stated, rel=1e-12, abs=0.0)
        # The code and this test sum the weights in different orders.
        if keep.size:
            assert stated + 2.0 * math.sqrt(weight[keep].min()) > budget * (1.0 - 1e-12)

    @pytest.mark.parametrize("n, row", [(2, 0), (7, 3), (30, 29)])
    def test_a_dropped_row_with_a_zero_diagonal_attains_the_bound(self, n, row):
        """E = x e_i^T + e_i x^T has eigenvalues +-||x||: ||E||_1 = 2 ||x||, the bound for one row."""
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a + a.T
        x = 1e-3 * rng.standard_normal(n)
        x[row] = 0.0
        a[row], a[:, row] = x, x
        bound = 2.0 * np.linalg.norm(x)
        _, keep, got = _deflated(a.copy(), bound)
        assert np.array_equal(keep, np.delete(np.arange(n), row))
        assert got == pytest.approx(bound, rel=1e-14, abs=0.0)
        e = a.copy()
        e[np.ix_(keep, keep)] = 0.0
        exact = float(np.abs(np.linalg.eigvalsh(e)).sum())
        assert exact == pytest.approx(bound, rel=n * np.finfo(float).eps, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 60),
        spread=st.integers(0, 30),
        zeros=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_row_bound_is_within_the_frobenius_bound(self, n, spread, zeros, seed):
        """2 sum sqrt(w) over the s lightest is at most 2 sqrt(s sum w), by Cauchy-Schwarz."""
        rng = np.random.default_rng(seed)
        weight = 10.0 ** rng.uniform(-spread, 0.0, n)
        weight[rng.random(n) < zeros] = 0.0
        lightest, bounds = _lightest(weight)
        assert np.array_equal(weight[lightest], np.sort(weight))
        frobenius = 2.0 * np.sqrt(np.arange(1, n + 1) * np.cumsum(np.sort(weight)))
        assert np.all(bounds <= frobenius * (1.0 + 1e-12))


    @settings(max_examples=60, deadline=None)
    @given(
        point=st.tuples(
            st.floats(0.0, 0.45), st.floats(0.05, 1.0), st.floats(0.0, 3.0), st.floats(0.0, math.pi / 2)
        ),
        dim=st.integers(8, 24),
        mantissa=st.floats(0.0, 1.0),
        exponent=st.integers(-9, -3),
    )
    def test_the_box_and_its_deflation_drop_within_the_budget(self, point, dim, mantissa, exponent):
        """The product of the marginals bounds every row, and what the box and deflation drop.

        Row (m1, m2) of the partial transpose of the whole window has squared
        norm at most p1(m1) p2(m2); equality holds for a pure product state.
        E, the full-window blocks less the states that the box and then the
        eigensolve's deflation keep, has an exact trace norm within the budget.
        """
        budget = mantissa * 10.0**exponent
        p = ScenarioParams(*point)
        rho1, weights = fock_squeezed_thermal(p.spec(), dim), _thermal_weights(p.nbar, dim)
        sectors = _beam_splitter_sectors(p.theta, dim)
        diagonal = _output_diagonal(rho1, weights, sectors)
        full = _output_classes(rho1, weights, sectors, dim, dim)
        _partial_transpose(full, dim, dim)
        p1, p2 = diagonal.sum(axis=1), diagonal.sum(axis=0)
        w1, w2, outside = _box(diagonal, budget)
        stated = 0.0
        for q, block in enumerate(full):
            m1, m2 = _class_numbers(dim, dim, q)
            rows = np.einsum("ij,ij->i", block, block)
            assert np.all(rows <= p1[m1] * p2[m2] * (1.0 + 1e-12) + 1e-30)
            out = (m1 >= w1) | (m2 >= w2)
            stated += 2.0 * np.sqrt((p1[m1] * p2[m2])[out]).sum()
        assert outside == pytest.approx(stated, rel=1e-12, abs=0.0)
        assert outside <= budget * (1.0 + 1e-12)
        keeps, shares = [], []

        def recorded(block, share):
            front, keep, bound = _deflated(block, share)
            keeps.append(keep)
            shares.append(share)
            return front, keep, bound

        mats = _output_classes(rho1, weights, sectors, w1, w2)
        with mock.patch.object(fock, "_deflated", recorded):
            _pt_trace_norm(mats, w1, w2, budget - outside)
        assert shares[0] == 0.5 * (budget - outside)
        exact = 0.0
        for q, (block, keep) in enumerate(zip(full, keeps)):
            index = {state: i for i, state in enumerate(zip(*_class_numbers(dim, dim, q)))}
            b1, b2 = _class_numbers(w1, w2, q)
            kept = [index[b1[k], b2[k]] for k in keep]
            e = block.copy()
            e[np.ix_(kept, kept)] = 0.0
            exact += float(np.abs(np.linalg.eigvalsh(e)).sum())
        assert exact <= budget * (1.0 + 1e-9) + 1e-15


class TestMemoryPrecheck:
    POINT = ScenarioParams(0.2, 0.8, 0.1, math.pi / 4)

    @staticmethod
    def _stage_peak(rho1, weights, theta, monkeypatch):
        """Peak bytes traced over the two-mode stage, cold sector cache included.

        The stage runs as in ``compare_with_gaussian`` at the default
        tol_compare: the output's diagonal, the box, its class matrices and
        the partial-transpose eigensolve.  The class matrices are allocated
        by numpy here, where tracemalloc sees them, rather than in their
        own memory maps.  tracemalloc does not see LAPACK scratch, nor the
        copy of the kept states that ``np.linalg.eigvalsh`` diagonalizes:
        the resident peak of the stage is higher (see ``fock._LIVE_COPIES``).
        Returns the peak, the box (w1, w2) and the (kept, total) states of
        each deflated block.
        """
        deflations = []

        def recorded(block, budget):
            front, keep, bound = _deflated(block, budget)
            deflations.append((keep.size, block.shape[0]))
            return front, keep, bound

        monkeypatch.setattr(fock, "_mapped_matrix", lambda n: np.empty((n, n)))
        monkeypatch.setattr(fock, "_deflated", recorded)
        target = OracleConfig.tol_compare / fock._GUARD_SAFETY
        _beam_splitter_sectors.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sectors = _beam_splitter_sectors(theta, rho1.shape[0])
            w1, w2, outside = _box(_output_diagonal(rho1, weights, sectors), target)
            mats = _output_classes(rho1, weights, sectors, w1, w2)
            _pt_trace_norm(mats, w1, w2, target - outside)
            return tracemalloc.get_traced_memory()[1] - base, (w1, w2), deflations
        finally:
            tracemalloc.stop()

    def test_two_mode_stage_peak(self, monkeypatch):
        p = ScenarioParams(0.2, 0.8, 0.3, math.pi / 5)
        for dim, copies in ((24, fock._LIVE_COPIES), (40, 0.65)):
            rho1 = fock_squeezed_thermal(p.spec(), dim)
            weights = _thermal_weights(p.nbar, dim)
            peak, _, deflations = self._stage_peak(rho1, weights, p.theta, monkeypatch)
            assert peak <= copies * 8 * dim**4, dim
        # At W = 40 the traced peak covers the compaction of both class blocks.
        assert all(kept < total for kept, total in deflations), deflations
        # The class matrices of the box hold at most a fifth of the window's
        # entries, and the stage peaks with them.  The bound is 0.8 of a
        # matrix of a 27 x 26 box, the box that 2 sqrt(s sum ||row||^2)
        # leaves here: the per-row bound leaves a smaller one, of which
        # temporaries of about W^3 entries are a larger share.
        p = ScenarioParams(0.3, 1.0, 0.0, math.pi / 4)
        rho1, weights = fock_squeezed_thermal(p.spec(), 40), _thermal_weights(p.nbar, 40)
        peak, (w1, w2), _ = self._stage_peak(rho1, weights, p.theta, monkeypatch)
        assert (w1 * w2) ** 2 < 0.2 * 40**4, (w1, w2)
        assert peak <= 0.8 * 8 * (27 * 26) ** 2, (peak, w1, w2)

    def test_class_matrices_bypass_the_heap(self):
        p = ScenarioParams(0.2, 0.8, 0.3, math.pi / 5)
        rho1, weights = fock_squeezed_thermal(p.spec(), 24), _thermal_weights(p.nbar, 24)
        tracemalloc.start()
        try:
            mats = _full_classes(rho1, weights, p.theta)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(mat.nbytes for mat in mats) == 8 * 24**4 // 2
        assert traced < 0.1 * 8 * 24**4

    @pytest.mark.parametrize("populate", [True, False], ids=["populated", "no MAP_POPULATE"])
    def test_mapped_matrices_are_private_and_zeroed(self, populate, monkeypatch):
        if not populate:
            monkeypatch.delattr(fock.mmap, "MAP_POPULATE", raising=False)
        a, b = _mapped_matrix(50), _mapped_matrix(50)
        assert a.shape == (50, 50) and a.dtype == np.float64 and a.flags.writeable
        assert not a.any() and not b.any()
        assert not np.shares_memory(a, b)
        a[...] = 1.5
        b[7, 3] = -2.0
        assert np.all(a == 1.5) and b.sum() == -2.0
        empty = _mapped_matrix(0)
        assert empty.shape == (0, 0) and empty.flags.writeable

    def test_skip_before_allocating(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("two-mode matrix allocated")

        monkeypatch.setattr(fock, "_available_memory", lambda: 1 << 20)
        monkeypatch.setattr(fock, "_output_classes", no_allocation)
        res = compare_with_gaussian(self.POINT, OracleConfig(dim=30, tol_trace=1e-6))
        assert res.status == "skip"
        assert res.note.startswith("memory")
        assert res.dim_used == 30
        assert math.isnan(res.n_fock)

    def test_rotated_points_fit_their_twins_budget(self, monkeypatch):
        cfg = OracleConfig(dim=30, tol_trace=1e-6)
        monkeypatch.setattr(fock, "_available_memory", lambda: None)
        real = compare_with_gaussian(self.POINT, cfg)
        assert real.status == "pass"
        window = real.dim_used + int(real.note.partition("guard=")[2] or 0)
        budget = 8 * fock._LIVE_COPIES * window**4
        monkeypatch.setattr(fock, "_available_memory", lambda: budget)
        rotated = compare_with_gaussian(ScenarioParams(0.2, 0.8, 0.1, math.pi / 4, 0.7, 1.1), cfg)
        assert (rotated.status, rotated.n_fock) == ("pass", real.n_fock)
        monkeypatch.setattr(fock, "_available_memory", lambda: budget - 1)
        assert compare_with_gaussian(rotated.params, cfg).note.startswith("memory")

    def test_cgroup_limit_caps_available_memory(self, monkeypatch, tmp_path):
        limit, usage, unlimited = (tmp_path / name for name in ("limit", "usage", "max"))
        limit.write_text("3000\n")
        usage.write_text("1000\n")
        unlimited.write_text("max\n")
        files = ((str(unlimited), str(usage)), (str(limit), str(usage)))
        monkeypatch.setattr(fock, "_CGROUP_MEMORY_FILES", files)
        assert fock._available_memory() == 2000


class TestConfigValidation:
    def test_dim_lower_bound(self):
        with pytest.raises(DomainError):
            OracleConfig(dim=3)

    def test_cutoff_above_escalation_cap_rejected(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(fock, "negativity_closed_form", no_work)
        monkeypatch.setattr(fock, "fock_squeezed_thermal", no_work)
        with pytest.raises(DomainError, match="120"):
            compare_with_gaussian(ScenarioParams(0.2, 0.8, 0.1, math.pi / 4), OracleConfig(dim=121))

    def test_positive_tolerances(self):
        with pytest.raises(DomainError):
            OracleConfig(dim=10, tol_trace=0.0)
        with pytest.raises(DomainError):
            OracleConfig(dim=10, tol_compare=-1.0)

    @pytest.mark.parametrize("dim", [math.inf, math.nan, None, "40", 40.5, True])
    def test_dim_not_a_finite_integer(self, dim):
        with pytest.raises(DomainError, match=f"integer >= 4, got {re.escape(repr(dim))}$"):
            OracleConfig(dim=dim)

    def test_integral_dim_accepted(self):
        assert OracleConfig(dim=40.0).dim == 40 and type(OracleConfig(dim=np.int64(40)).dim) is int

    @pytest.mark.parametrize("name", ["tol_trace", "tol_compare"])
    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerances_must_be_finite(self, name, tol):
        with pytest.raises(DomainError, match=f"{name} must be positive and finite, got {tol!r}"):
            OracleConfig(dim=10, **{name: tol})
