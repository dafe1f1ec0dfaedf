import cmath
import itertools
import math
import re
import tracemalloc

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
from gaussbs.entanglement import ScenarioParams, negativity_closed_form
from gaussbs.fock import OracleConfig, compare_with_gaussian, fock_squeezed_thermal
from gaussbs.fock import (
    _beam_splitter_sectors,
    _deflated,
    _hermitize,
    _leakage,
    _output_classes,
    _partial_transpose,
    _pt_trace_norm,
    _thermal_weights,
    _unrotated,
)
from gaussbs.states import (
    BeamSplitter,
    DomainError,
    GaussianSpec,
    covariance_from_spec,
)

CFG = OracleConfig(dim=30, tol_trace=1e-6)


def _oracle_log_negativity(rho1, weights, bs) -> float:
    """The oracle's unclamped log2 trace norm of the partial transpose of U (rho1 x diag p) U^."""
    mats, _ = _output_classes(rho1, weights, bs)
    return math.log2(_pt_trace_norm(mats, rho1.shape[0]))


def _quadrant_order(dim: int, c: int) -> np.ndarray:
    """Product-basis indices n1 * dim + n2 of class c, in the oracle's quadrant layout."""
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    flat = np.flatnonzero((n1 + n2) % 2 == c)
    return flat[np.lexsort((n2[flat] // 2, n1[flat] // 2, n2[flat] % 2, n1[flat] % 2))]


def _random_inputs(rng, dim: int, dtype):
    """A Hermitian rho1 with only equal-parity couplings, and positive weights."""
    z = rng.standard_normal((dim, dim))
    if dtype == np.complex128:
        z = z + 1j * rng.standard_normal((dim, dim))
    n = np.arange(dim)
    return (z + z.conj().T) * ((n[:, None] - n) % 2 == 0), rng.uniform(0.1, 1.0, dim)


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
        for tau in (0.05, 0.2, 0.3):
            for u in (0.6, 0.85, 1.0):
                for phi_b in (0.0, 1.1):
                    spec = GaussianSpec(tau, u, phi_b)
                    rho = fock_squeezed_thermal(spec, 72)
                    got = covariance_from_fock(rho)
                    target = covariance_from_spec(spec)
                    assert got.a == pytest.approx(target.a, abs=1e-6)
                    assert abs(got.b - target.b) < 1e-6

    def test_states_positive_and_normalized(self):
        rho = fock_squeezed_thermal(GaussianSpec(0.25, 0.7, 0.4), 40)
        assert min_eigenvalue(rho) > -1e-10
        assert _leakage(rho) < 1e-8

    @pytest.mark.parametrize("dim", [0, -3, 8.0, 2.5, "8", None])
    def test_squeezer_rejects_bad_cutoff(self, dim):
        with pytest.raises(DomainError, match="integer >= 1"):
            fock_squeezed_thermal(GaussianSpec(0.2, 0.9), dim)

    def test_squeezer_smallest_cutoff(self):
        rho = fock_squeezed_thermal(GaussianSpec(0.2, 0.9), 1)
        assert rho.shape == (1, 1)
        assert 0.0 < rho[0, 0] < 1.0

    @pytest.mark.parametrize("dim", [40, 100])
    @pytest.mark.parametrize("phi_b", [0.0, 0.7, 4.0])
    def test_squeezer_is_expm_of_the_generator(self, dim, phi_b):
        from scipy.linalg import expm

        spec = GaussianSpec(0.3, 0.5, phi_b)
        work = dim + fock._WORK_MARGIN
        a = annihilation(work)
        r = -0.5 * math.log(spec.u * (1.0 - 2.0 * spec.tau))
        xi = r * cmath.exp(1j * phi_b)
        squeezer = expm(0.5 * (xi.conjugate() * (a @ a) - xi * (a.T @ a.T)) + 0j)
        seed = np.diag(fock._thermal_weights((1.0 - spec.u) / (2.0 * spec.u), work))
        expected = (squeezer @ seed @ squeezer.conj().T)[:dim, :dim]
        rho = fock_squeezed_thermal(spec, dim)
        assert rho.dtype == (np.float64 if phi_b == 0.0 else np.complex128)
        assert np.abs(rho - expected).max() < 1e-13

    @pytest.mark.parametrize("phi_b", [0.0, 0.7])
    def test_squeezer_has_no_cross_parity_entries(self, phi_b):
        rho = fock_squeezed_thermal(GaussianSpec(0.3, 0.5, phi_b), 41)
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
        rho1 = fock_squeezed_thermal(GaussianSpec(0.2, 0.9, 0.3), CFG.dim)
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
        rho1 = fock_squeezed_thermal(GaussianSpec(0.2, 0.8, 0.5), CFG.dim)
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
        raw = _oracle_log_negativity(rho1, _thermal_weights(0.0, CFG.dim), p.splitter())
        assert max(0.0, raw) == pytest.approx(0.5, abs=1e-3)

    def test_zero_at_critical_point(self):
        p = ScenarioParams(0.3, 1.0, 0.75, math.pi / 12)
        rho1 = fock_squeezed_thermal(p.spec(), 40)
        raw = _oracle_log_negativity(rho1, _thermal_weights(0.75, 40), p.splitter())
        assert max(0.0, raw) == pytest.approx(0.0, abs=1e-3)

    def test_raw_value_reported(self):
        rho1 = thermal(0.2, CFG.dim)
        raw = _oracle_log_negativity(rho1, _thermal_weights(0.4, CFG.dim), BeamSplitter(0.5))
        assert raw <= 1e-12
        assert max(0.0, raw) <= 1e-12

    def test_non_hermitian_rejected(self):
        data = np.zeros((9, 9), dtype=complex)
        data[0, 1] = 1.0
        with pytest.raises(DomainError):
            _hermitize(data)

    def test_non_hermitian_input_rejected_by_the_build(self):
        rho1, weights = _random_inputs(np.random.default_rng(5), 8, np.complex128)
        rho1[0, 2] += 0.5
        with pytest.raises(DomainError, match="Hermitian"):
            _output_classes(rho1, weights, BeamSplitter(0.7, 0.4))


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

        def leaky_once(rho1, weights, bs):
            windows.append(rho1.shape[0])
            mats, leakage = _output_classes(rho1, weights, bs)
            return mats, (1e-3 if len(windows) == 1 else leakage)

        monkeypatch.setattr(fock, "_output_classes", leaky_once)
        res = compare_with_gaussian(
            ScenarioParams(0.2, 0.8, 0.1, math.pi / 4), OracleConfig(dim=30, tol_trace=1e-6)
        )
        assert len(windows) == 2 and windows[1] > windows[0]
        assert res.status == "pass"
        assert res.dim_used == 50
        assert res.leakage <= 1e-6


class TestDtypeFollowsPhases:
    ROTATIONS = ((0.0, 0.0), (0.7, 1.1))

    def _inputs(self, phi, phi_b):
        p = ScenarioParams(0.2, 0.9, 0.3, math.pi / 4, phi, phi_b)
        weights = _thermal_weights(p.nbar, CFG.dim)
        return fock_squeezed_thermal(p.spec(), CFG.dim), weights, p.splitter()

    def test_two_mode_dtype(self):
        for (phi, phi_b), dtype in zip(self.ROTATIONS, (np.float64, np.complex128)):
            rho1, weights, bs = self._inputs(phi, phi_b)
            mats, _ = _output_classes(rho1, weights, bs)
            assert [mat.dtype for mat in mats] == [dtype, dtype]
            _partial_transpose(mats, CFG.dim)
            assert [mat.dtype for mat in mats] == [dtype, dtype]

    def test_log_negativity_same_in_both_dtypes(self):
        values = [
            _oracle_log_negativity(*self._inputs(*phases)) for phases in self.ROTATIONS
        ]
        assert values[0] > 0.01
        assert values[1] == pytest.approx(values[0], abs=1e-9)

    def test_sector_conjugate_matches_dense(self):
        # Hermitian parity-masked rho1 and positive weights, real and complex.
        rng = np.random.default_rng(7)
        for dim in (8, 9):
            flats = [_quadrant_order(dim, c) for c in (0, 1)]
            for dtype in (np.float64, np.complex128):
                rho1, weights = _random_inputs(rng, dim, dtype)
                for phi in (0.0, 0.4):
                    bs = BeamSplitter(0.7, phi)
                    expected = dense_output(rho1, np.diag(weights), bs)
                    assert np.abs(expected[np.ix_(flats[0], flats[1])]).max() < 1e-12
                    mats, _ = _output_classes(rho1, weights, bs)
                    for flat, got in zip(flats, mats):
                        assert got.dtype == expected.dtype
                        assert np.abs(got - expected[np.ix_(flat, flat)]).max() < 1e-12


class TestUnrotatedOutput:
    """A rotated output is diagonalized as the real state it is a local rotation of."""

    ARGS = (0.2, 0.9, 0.3, math.pi / 4)
    # The acceptance suite's criterion-8 grid, at its cutoff of 40.
    CRITERION_8 = tuple(
        itertools.product((0.1, 0.2, 0.3), (0.5, 1.0), (0.0, 0.5, 1.0), (math.pi / 8, math.pi / 4))
    )

    @staticmethod
    def _classes(p, dim):
        rho1 = fock_squeezed_thermal(p.spec(), dim)
        mats, _ = _output_classes(rho1, _thermal_weights(p.nbar, dim), p.splitter())
        return mats

    @pytest.mark.parametrize(
        "wrong",
        [lambda phi, phi_b: (-phi, phi_b), lambda phi, phi_b: (phi, 2.0 * phi_b)],
        ids=["phi-sign-flipped", "phi_b-not-halved"],
    )
    def test_wrong_phases_raise(self, wrong, monkeypatch):
        def mistaken(mats, dim, phi, phi_b):
            return _unrotated(mats, dim, *wrong(phi, phi_b))

        monkeypatch.setattr(fock, "_unrotated", mistaken)
        rotated = ScenarioParams(*self.ARGS, 0.7, 1.1)
        with pytest.raises(RuntimeError, match="not a local rotation") as info:
            compare_with_gaussian(rotated, OracleConfig(dim=30, tol_trace=1e-6))
        assert not isinstance(info.value, DomainError)

    def test_real_float64_views_of_the_buffers(self):
        mats = self._classes(ScenarioParams(*self.ARGS, 0.7, 1.1), 12)
        real = _unrotated(mats, 12, 0.7, 1.1)
        for mat, got in zip(mats, real):
            assert got.dtype == np.float64 and got.shape == mat.shape
            assert np.shares_memory(got, mat)
        expected = self._classes(ScenarioParams(*self.ARGS), 12)
        assert max(np.abs(got - want).max() for got, want in zip(real, expected)) < 1e-15

    def test_defect_is_rounding_on_the_criterion_8_grid(self, monkeypatch):
        monkeypatch.setattr(fock, "_REALITY_TOL", 1e-15)
        rng = np.random.default_rng(8)
        for point in self.CRITERION_8:
            phi, phi_b = rng.uniform(0.0, 2 * math.pi, 2)
            _unrotated(self._classes(ScenarioParams(*point, phi, phi_b), 40), 40, phi, phi_b)

    @pytest.mark.parametrize("phases", [(0.7, 1.1), (-2.9, 0.0), (0.0, 5.3)])
    def test_n_fock_independent_of_the_phases(self, phases):
        cfg = OracleConfig(dim=40, tol_trace=1e-4)
        unrotated = compare_with_gaussian(ScenarioParams(*self.ARGS), cfg)
        rotated = compare_with_gaussian(ScenarioParams(*self.ARGS, *phases), cfg)
        assert unrotated.n_fock > 0.01
        assert rotated.n_fock == pytest.approx(unrotated.n_fock, abs=1e-12)
        assert (rotated.dim_used, rotated.note) == (unrotated.dim_used, unrotated.note)


class TestParityClasses:
    @pytest.mark.parametrize("dim", [5, 12, 21])
    def test_rotated_blocks_are_expm_of_the_generator(self, dim):
        from scipy.linalg import expm

        for theta in (0.3, math.pi / 4, 1.2):
            for phi in (0.0, 0.4, 2.5, -1.0):
                for total, block in enumerate(_beam_splitter_sectors(theta, phi, dim)):
                    n1 = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
                    hop = theta * cmath.exp(1j * phi) * np.sqrt((n1[:-1] + 1.0) * (total - n1[:-1]))
                    generator = np.diag(hop, -1) - np.diag(hop.conj(), 1)
                    assert np.abs(block - expm(generator)).max() < 1e-13

    @pytest.mark.parametrize("dim", [8, 9, 10, 11])
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.7, 1.1)])
    def test_parity_blocks_match_dense_partial_transpose(self, dim, phases):
        p = ScenarioParams(0.2, 0.8, 0.3, math.pi / 5, *phases)
        rho1 = fock_squeezed_thermal(p.spec(), dim)
        weights = _thermal_weights(p.nbar, dim)
        dense = dense_output(rho1, np.diag(weights), p.splitter())
        expected = dense_pt_trace_norm(dense)
        mats, _ = _output_classes(rho1, weights, p.splitter())
        assert len(mats) == 2
        assert mats[0].dtype == dense.dtype
        assert _pt_trace_norm(mats, dim) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [8, 9, 10, 11])
    def test_partial_transpose_blocks_match_dense(self, dim):
        # An odd dim gives quadrants of unequal size.
        rng = np.random.default_rng(dim)
        flats = [_quadrant_order(dim, q) for q in (0, 1)]
        for dtype in (np.float64, np.complex128):
            rho1, weights = _random_inputs(rng, dim, dtype)
            for phi in (0.0, 0.4):
                bs = BeamSplitter(0.7, phi)
                pt = partial_transpose(dense_output(rho1, np.diag(weights), bs))
                assert np.abs(pt[np.ix_(flats[0], flats[1])]).max() < 1e-12
                mats, _ = _output_classes(rho1, weights, bs)
                _partial_transpose(mats, dim)
                for flat, got in zip(flats, mats):
                    expected = pt[np.ix_(flat, flat)]
                    assert got.dtype == expected.dtype
                    assert np.abs(got - expected).max() < 1e-12
                    got_eigs, expected_eigs = np.linalg.eigvalsh(got), np.linalg.eigvalsh(expected)
                    assert np.abs(got_eigs - expected_eigs).max() < 1e-12


class TestDeflation:
    """Partial-transpose states below rounding of their block's peak skip the eigensolve."""

    EPS = np.finfo(float).eps
    # States kept of the 800 in each class block at W = 40.
    POINTS = {
        "half-dropped": ((0.1, 1.0, 0.5, math.pi / 8), lambda kept: max(kept) < 0.55 * 800),
        "none-dropped": ((0.2, 0.5, 1.0, math.pi / 4), lambda kept: kept == [800, 800]),
        "rotated": ((0.2, 0.8, 0.3, math.pi / 5, 0.7, 1.1), lambda kept: max(kept) < 800),
        "vacuum": ((0.0, 1.0, 0.0, math.pi / 4), lambda kept: kept == [1, 0]),
    }

    @staticmethod
    def _classes(p, dim):
        rho1 = fock_squeezed_thermal(p.spec(), dim)
        mats, _ = _output_classes(rho1, _thermal_weights(p.nbar, dim), p.splitter())
        if np.iscomplexobj(mats[0]):
            mats = _unrotated(mats, dim, p.phi, p.phi_b)
        return mats

    def _kept(self, blocks):
        kept = []
        for block in blocks:
            front = _deflated(block)
            kept.append(front.shape[0])
            if front.size:
                assert front.flags.c_contiguous and np.shares_memory(front, block)
        return kept

    @pytest.mark.parametrize("name", POINTS)
    def test_matches_the_dense_eigensolve(self, name):
        point, kept_ok = self.POINTS[name]
        p = ScenarioParams(*point)
        mats = self._classes(p, 40)
        blocks = [mat.copy() for mat in mats]
        _partial_transpose(blocks, 40)
        dense = sum(float(np.abs(np.linalg.eigvalsh(block)).sum()) for block in blocks)
        assert _pt_trace_norm(mats, 40) == pytest.approx(dense, abs=1e-12)
        kept = self._kept(blocks)
        assert kept_ok(kept), kept
        if p.phi or p.phi_b:
            twin = self._classes(ScenarioParams(*point[:4]), 40)
            _partial_transpose(twin, 40)
            assert kept == self._kept(twin)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 40),
        planted=st.floats(0.0, 0.9),
        scale=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_rows_move_the_trace_norm_within_the_bound(self, n, planted, scale, seed):
        """Rows at most eps * peak are dropped; a row with one entry at 2 eps * peak is kept.

        The trace norm moves by at most ||E||_1, E the dropped rows and
        columns, which is checked against the docstring's bound.  E is of
        size eps * peak, so its own eigensolve rounds at eps^2 * peak, far
        below the bound, where a dense eigensolve of the whole block would
        round at about n eps * peak.
        """
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a += a.T
        rows = rng.permutation(n)
        dropped, witness = rows[: int(planted * (n - 2))], rows[-2]
        small = np.isin(np.arange(n), np.append(dropped, witness))
        cut = self.EPS * np.abs(a[np.ix_(~small, ~small)]).max()
        tiny = np.triu(rng.uniform(-scale, scale, (n, n)) * cut)
        tiny += np.triu(tiny, 1).T
        a[small], a[:, small] = tiny[small], tiny[:, small]
        a[witness, rows[-1]] = a[rows[-1], witness] = 2.0 * cut
        keep = np.flatnonzero(~np.isin(np.arange(n), dropped))

        buffer = a.copy()
        front = _deflated(buffer)
        assert np.array_equal(front, a[np.ix_(keep, keep)])
        assert np.shares_memory(front, buffer)
        e = a.copy()
        e[np.ix_(keep, keep)] = 0.0
        bound = 2 * dropped.size * math.sqrt(n) * cut
        assert float(np.abs(np.linalg.eigvalsh(e)).sum()) <= bound


class TestMemoryPrecheck:
    POINT = ScenarioParams(0.2, 0.8, 0.1, math.pi / 4)

    @staticmethod
    def _stage_peak(rho1, weights, p, dim, monkeypatch):
        """Peak bytes traced over the two-mode stage, cold sector cache included.

        The class matrices are allocated by numpy here, where tracemalloc
        sees them, rather than in their own memory maps.  Rotated classes
        are un-rotated before the partial transpose, as the oracle does.
        Returns the peak and the (kept, total) states of each deflated block.
        """
        deflations = []

        def recorded(block):
            front = _deflated(block)
            deflations.append((front.shape[0], block.shape[0]))
            return front

        monkeypatch.setattr(fock, "_mapped_matrix", lambda n, dtype: np.empty((n, n), dtype))
        monkeypatch.setattr(fock, "_deflated", recorded)
        _beam_splitter_sectors.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mats, _ = _output_classes(rho1, weights, p.splitter())
            if np.iscomplexobj(mats[0]):
                mats = _unrotated(mats, dim, p.phi, p.phi_b)
            _pt_trace_norm(mats, dim)
            return tracemalloc.get_traced_memory()[1] - base, deflations
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.7, 1.1)])
    def test_two_mode_stage_peak(self, phases, monkeypatch):
        p = ScenarioParams(0.2, 0.8, 0.3, math.pi / 5, *phases)
        itemsize = 8 if phases == (0.0, 0.0) else 16
        for dim, copies in ((24, fock._LIVE_COPIES), (40, 0.65)):
            rho1 = fock_squeezed_thermal(p.spec(), dim)
            weights = _thermal_weights(p.nbar, dim)
            peak, deflations = self._stage_peak(rho1, weights, p, dim, monkeypatch)
            assert peak <= copies * itemsize * dim**4, dim
        # At W = 40 the traced peak covers the compaction of both class blocks.
        assert all(kept < total for kept, total in deflations), deflations

    def test_class_matrices_bypass_the_heap(self):
        p = ScenarioParams(0.2, 0.8, 0.3, math.pi / 5)
        rho1, weights = fock_squeezed_thermal(p.spec(), 24), _thermal_weights(p.nbar, 24)
        tracemalloc.start()
        try:
            mats, _ = _output_classes(rho1, weights, p.splitter())
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(mat.nbytes for mat in mats) == 8 * 24**4 // 2
        assert traced < 0.1 * 8 * 24**4

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

    def test_complex_points_need_twice_the_memory(self, monkeypatch):
        cfg = OracleConfig(dim=30, tol_trace=1e-6)
        monkeypatch.setattr(fock, "_available_memory", lambda: None)
        real = compare_with_gaussian(self.POINT, cfg)
        assert real.status == "pass"
        window = real.dim_used + int(real.note.partition("guard=")[2] or 0)
        budget = 12 * fock._LIVE_COPIES * window**4
        monkeypatch.setattr(fock, "_available_memory", lambda: budget)
        assert compare_with_gaussian(self.POINT, cfg).status == "pass"
        rotated = ScenarioParams(0.2, 0.8, 0.1, math.pi / 4, 0.7, 1.1)
        assert compare_with_gaussian(rotated, cfg).note.startswith("memory")

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
