import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import SWAPPED_PAIRS, amplitude_format_error
from scipy import constants
from scipy.linalg import expm

from gaussbs import states
from gaussbs.states import (
    BOUNDARY_TOL,
    BeamSplitter,
    CovMat1,
    CovMat2,
    DomainError,
    GaussianSpec,
    ThermalParams,
    apply_beam_splitter,
    covariance_from_spec,
    from_quadrature,
    nonclassical_depth,
    purity,
    seralian_roots,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_covariance,
    thermal_occupation,
    to_quadrature,
)

HBAR = 1.054571817e-34
KB = 1.380649e-23


class TestCovarianceFromSpec:
    def test_vacuum(self):
        v = covariance_from_spec(GaussianSpec(0.0, 1.0, 0.0))
        assert v.a == pytest.approx(0.5, abs=1e-15)
        assert abs(v.b) == pytest.approx(0.0, abs=1e-15)

    def test_pure_squeezed(self):
        # direct evaluation: a = 1/(4*0.6) + 0.15, |b| = 1/(4*0.6) - 0.15
        v = covariance_from_spec(GaussianSpec(0.2, 1.0, 0.0))
        assert v.a == pytest.approx(0.5666666666666667, abs=1e-12)
        assert abs(v.b) == pytest.approx(0.2666666666666667, abs=1e-12)

    def test_classical_boundary_mixed_state(self):
        # tau = 0 with u = 1/3 sits on the classicality boundary but is not
        # the isotropic thermal state: a = 2.5, |b| = 2.0, purity 1/3.
        v = covariance_from_spec(GaussianSpec(0.0, 1.0 / 3.0, 0.0))
        assert v.a == pytest.approx(2.5, abs=1e-12)
        assert abs(v.b) == pytest.approx(2.0, abs=1e-12)
        assert v.a**2 - abs(v.b) ** 2 == pytest.approx(2.25, abs=1e-12)
        assert purity(v) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_phase_carried_through(self):
        v = covariance_from_spec(GaussianSpec(0.3, 0.8, 1.2))
        assert math.isclose(math.atan2(v.b.imag, v.b.real), 1.2, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "tau,u",
        [(-0.01, 1.0), (0.5, 1.0), (0.7, 1.0), (0.2, 0.0), (0.2, -0.3), (0.2, 1.5)],
    )
    def test_rejects_out_of_range(self, tau, u):
        with pytest.raises(DomainError):
            GaussianSpec(tau, u, 0.0)

    def test_error_names_bound(self):
        with pytest.raises(DomainError, match="tau < 1/2"):
            GaussianSpec(0.5, 1.0)
        with pytest.raises(DomainError, match="0 < u <= 1"):
            GaussianSpec(0.2, 1.7)


class TestDepthAndPurity:
    def test_vacuum_depth(self):
        assert nonclassical_depth(CovMat1(0.5, 0j)) == 0.0

    def test_thermal_depth_zero(self):
        assert nonclassical_depth(CovMat1(1.5, 0j)) == 0.0

    def test_depth_round_trip(self):
        v = covariance_from_spec(GaussianSpec(0.45, 0.7, 0.0))
        assert nonclassical_depth(v) == pytest.approx(0.45, abs=1e-12)

    def test_vacuum_purity(self):
        assert purity(CovMat1(0.5, 0j)) == pytest.approx(1.0, abs=1e-15)

    def test_thermal_purity(self):
        assert purity(CovMat1(1.5, 0j)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_purity_round_trip(self):
        v = covariance_from_spec(GaussianSpec(0.3, 0.25, 0.0))
        assert purity(v) == pytest.approx(0.25, abs=1e-12)

    def test_round_trip_grid(self):
        for tau in np.linspace(0.0, 0.49, 25):
            for u in np.linspace(0.05, 1.0, 20):
                v = covariance_from_spec(GaussianSpec(tau, u, 0.7))
                assert nonclassical_depth(v) == pytest.approx(tau, abs=1e-10)
                assert purity(v) == pytest.approx(u, abs=1e-10)

    def test_thermal_depth_zero_for_all_occupations(self):
        for nbar in np.linspace(0.0, 20.0, 30):
            assert nonclassical_depth(thermal_covariance(ThermalParams(nbar))) == 0.0

    def test_unphysical_rejected(self):
        with pytest.raises(DomainError):
            CovMat1(0.5, 0.4 + 0j)
        with pytest.raises(DomainError):
            CovMat1(-1.0, 0j)

    def test_boundary_clamp(self):
        # within 1e-9 of the boundary: accepted and clamped onto it
        v = CovMat1(0.5 - 1e-10, 0j)
        assert v.a == pytest.approx(0.5, abs=1e-9)
        assert purity(v) <= 1.0


class TestThermal:
    def test_zero_occupation_is_vacuum(self):
        v = thermal_covariance(ThermalParams(0.0))
        assert v.a == 0.5 and v.b == 0

    def test_unit_occupation(self):
        v = thermal_covariance(ThermalParams(1.0))
        assert v.a == 1.5 and v.b == 0

    def test_occupation_four(self):
        v = thermal_covariance(ThermalParams(4.0))
        assert v.a == 4.5
        assert purity(v) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ThermalParams(-0.1)

    def test_occupation_at_zero_temperature(self):
        assert thermal_occupation(0.0, 1e15).nbar == 0.0

    def test_occupation_log2_point(self):
        # hbar*w/(kB*T) = ln 2  ->  nbar = 1
        t = 1.0
        w = math.log(2.0) * KB * t / HBAR
        assert thermal_occupation(t, w).nbar == pytest.approx(1.0, rel=1e-9)

    def test_occupation_log54_point(self):
        # hbar*w/(kB*T) = ln 1.25  ->  nbar = 4
        t = 2.0
        w = math.log(1.25) * KB * t / HBAR
        assert thermal_occupation(t, w).nbar == pytest.approx(4.0, rel=1e-9)

    def test_occupation_constants_are_scipy_bit_for_bit(self):
        assert states._HBAR == constants.hbar and states._K_B == constants.k
        t, w = 2.0, 3e11
        expected = 1.0 / math.expm1(constants.hbar * w / (constants.k * t))
        assert thermal_occupation(t, w).nbar == expected

    def test_occupation_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            thermal_occupation(-1.0, 1e15)
        with pytest.raises(DomainError):
            thermal_occupation(300.0, 0.0)


def _paper_blocks(a, b, nbar, theta, phi):
    """Output blocks written out longhand, as the independent oracle."""
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    sc = math.sin(theta) * math.cos(theta)
    e = complex(math.cos(phi), math.sin(phi))
    diag = a * c2 + (nbar + 0.5) * s2
    block_a = np.array([[diag, b * c2], [np.conj(b) * c2, diag]])
    diag_b = a * s2 + (nbar + 0.5) * c2
    block_b = np.array(
        [
            [diag_b, b * e**-2 * s2],
            [np.conj(b) * e**2 * s2, diag_b],
        ]
    )
    block_c = sc * np.array(
        [
            [(a - nbar - 0.5) * e, b / e],
            [np.conj(b) * e, (a - nbar - 0.5) / e],
        ]
    )
    return block_a, block_b, block_c


class TestBeamSplitter:
    def test_matrix_unitary(self):
        for theta in np.linspace(0.0, math.pi / 2, 20):
            for phi in np.linspace(0.0, 2 * math.pi, 10):
                m = BeamSplitter(theta, phi).matrix
                assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-14

    def test_zero_angle_identity(self):
        assert np.allclose(BeamSplitter(0.0, 1.3).matrix, np.eye(2), atol=1e-15)

    def test_zero_angle_passthrough(self):
        v1 = covariance_from_spec(GaussianSpec(0.2, 0.9, 0.4))
        v2 = thermal_covariance(ThermalParams(0.7))
        out = apply_beam_splitter(v1, v2, BeamSplitter(0.0, 0.9))
        assert out.matrix[0, 0].real == pytest.approx(v1.a, abs=1e-14)
        assert out.matrix[0, 1] == pytest.approx(v1.b, abs=1e-14)
        assert out.matrix[2, 2].real == pytest.approx(v2.a, abs=1e-14)
        assert np.abs(out.matrix[:2, 2:]).max() < 1e-14

    def test_vacuum_pair_stays_uncorrelated(self):
        vac = CovMat1(0.5, 0j)
        for theta, phi in [(0.3, 0.0), (math.pi / 4, 1.1), (1.2, 4.0)]:
            out = apply_beam_splitter(vac, vac, BeamSplitter(theta, phi))
            assert np.abs(out.matrix[:2, 2:]).max() < 1e-15
            assert out.matrix[0, 0].real == pytest.approx(0.5, abs=1e-15)
            assert out.matrix[2, 2].real == pytest.approx(0.5, abs=1e-15)

    def test_congruence_matches_explicit_blocks(self):
        v1 = covariance_from_spec(GaussianSpec(0.2, 1.0, 0.0))
        v2 = thermal_covariance(ThermalParams(0.5))
        out = apply_beam_splitter(v1, v2, BeamSplitter(math.pi / 4, 0.0))
        ba, bb, bc = _paper_blocks(v1.a, v1.b, 0.5, math.pi / 4, 0.0)
        assert np.abs(out.matrix[:2, :2] - ba).max() < 1e-12
        assert np.abs(out.matrix[2:, 2:] - bb).max() < 1e-12
        assert np.abs(out.matrix[:2, 2:] - bc).max() < 1e-12

    def test_congruence_matches_explicit_blocks_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            phi_b = rng.uniform(0.0, 2 * math.pi)
            nbar = rng.uniform(0.0, 3.0)
            theta = rng.uniform(0.0, math.pi / 2)
            phi = rng.uniform(0.0, 2 * math.pi)
            v1 = covariance_from_spec(GaussianSpec(tau, u, phi_b))
            out = apply_beam_splitter(
                v1, thermal_covariance(ThermalParams(nbar)), BeamSplitter(theta, phi)
            )
            ba, bb, bc = _paper_blocks(v1.a, v1.b, nbar, theta, phi)
            expected = np.block([[ba, bc], [bc.conj().T, bb]])
            assert np.abs(out.matrix - expected).max() < 1e-12

    def test_determinant_invariance(self):
        # Conditioning of the 4x4 determinant caps the verifiable accuracy,
        # so the 1e-12 assertion samples moderate (tau, u) and a wider range
        # is held to a looser bound below.
        rng = np.random.default_rng(11)
        for _ in range(200):
            tau = rng.uniform(0.0, 0.4)
            u = rng.uniform(0.3, 1.0)
            nbar = rng.uniform(0.0, 3.0)
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2 * math.pi)
            v1 = covariance_from_spec(GaussianSpec(tau, u, rng.uniform(0, 2 * math.pi)))
            v2 = thermal_covariance(ThermalParams(nbar))
            out = apply_beam_splitter(v1, v2, BeamSplitter(theta, phi))
            det_out = np.linalg.det(out.matrix).real
            expected = (2.0 * nbar + 1.0) ** 2 / (16.0 * u * u)
            assert det_out == pytest.approx(expected, rel=1e-12)

    def test_determinant_invariance_extreme_range(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            nbar = rng.uniform(0.0, 4.0)
            v1 = covariance_from_spec(GaussianSpec(tau, u, rng.uniform(0, 2 * math.pi)))
            v2 = thermal_covariance(ThermalParams(nbar))
            out = apply_beam_splitter(
                v1, v2, BeamSplitter(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            )
            det_out = np.linalg.det(out.matrix).real
            expected = (2.0 * nbar + 1.0) ** 2 / (16.0 * u * u)
            assert det_out == pytest.approx(expected, rel=1e-9)

    def test_output_stays_physical(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            v1 = covariance_from_spec(
                GaussianSpec(rng.uniform(0, 0.49), rng.uniform(0.05, 1.0))
            )
            v2 = thermal_covariance(ThermalParams(rng.uniform(0.0, 4.0)))
            out = apply_beam_splitter(
                v1, v2, BeamSplitter(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            )
            nu = symplectic_eigenvalues(to_quadrature(out))
            assert nu.min() >= 0.5 - 1e-12


class TestQuadratureBridge:
    def test_vacuum(self):
        q = to_quadrature(CovMat1(0.5, 0j))
        assert np.allclose(q, 0.5 * np.eye(2), atol=1e-15)

    def test_thermal(self):
        q = to_quadrature(thermal_covariance(ThermalParams(2.0)))
        assert np.allclose(q, 2.5 * np.eye(2), atol=1e-15)

    def test_squeezed_eigenvalues(self):
        # eigen-decomposition oracle: {a - |b|, a + |b|} = {0.2, 1.25}
        q = to_quadrature(covariance_from_spec(GaussianSpec(0.3, 1.0, 0.0)))
        eigs = np.sort(np.linalg.eigvalsh(q))
        assert eigs[0] == pytest.approx(0.2, abs=1e-12)
        assert eigs[1] == pytest.approx(1.25, abs=1e-12)

    def test_min_quadrature_eigenvalue_formula(self):
        for tau in np.linspace(0.0, 0.49, 15):
            for u in (0.2, 0.7, 1.0):
                q = to_quadrature(covariance_from_spec(GaussianSpec(tau, u, 0.9)))
                assert np.linalg.eigvalsh(q).min() == pytest.approx(
                    (1.0 - 2.0 * tau) / 2.0, abs=1e-12
                )

    def test_round_trip_one_mode(self):
        v = covariance_from_spec(GaussianSpec(0.35, 0.6, 2.2))
        back = from_quadrature(to_quadrature(v))
        assert back.a == pytest.approx(v.a, abs=1e-14)
        assert abs(back.b - v.b) < 1e-14

    def test_round_trip_two_modes(self):
        v1 = covariance_from_spec(GaussianSpec(0.2, 0.9, 0.5))
        out = apply_beam_splitter(
            v1, thermal_covariance(ThermalParams(0.8)), BeamSplitter(0.6, 1.0)
        )
        back = from_quadrature(to_quadrature(out))
        assert np.abs(back.matrix - out.matrix).max() < 1e-14

    def test_symplectic_form_shape(self):
        sigma = symplectic_form(2)
        assert sigma.shape == (4, 4)
        assert np.allclose(sigma, -sigma.T)

    def test_symplectic_eigenvalues_product_state(self):
        v1 = CovMat1(0.5, 0j)
        v2 = thermal_covariance(ThermalParams(1.0))
        out = apply_beam_splitter(v1, v2, BeamSplitter(0.0))
        nu = symplectic_eigenvalues(to_quadrature(out))
        assert nu == pytest.approx([0.5, 1.5], abs=1e-12)


class TestCovMat2Validation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(DomainError):
            CovMat2(m)

    def test_rejects_broken_mode_conjugation(self):
        # Hermitian, but the diagonal of A must read (a, a): 1 and 2 break it
        m = np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex)
        with pytest.raises(DomainError, match="mode conjugation"):
            CovMat2(m)

    def test_rejects_unphysical(self):
        with pytest.raises(DomainError):
            CovMat2(0.1 * np.eye(4))

    @pytest.mark.parametrize("diagonal", [[-0.5] * 4, [0.5, 0.5, -0.5, -0.5]])
    def test_rejects_non_positive(self, diagonal):
        # |eig(i V sigma)| is 1/2 for both: only positivity tells them apart
        assert symplectic_eigenvalues(np.diag(diagonal)) == pytest.approx([0.5, 0.5])
        with pytest.raises(DomainError, match="positive definite"):
            CovMat2(np.diag(diagonal))

    def test_rejects_indefinite_with_large_symplectic_spectrum(self):
        # A = B = I, C = 2 I: eigenvalues -1 and 3, symplectic eigenvalues 1 and 3
        q = np.block([[np.eye(2), 2.0 * np.eye(2)], [2.0 * np.eye(2), np.eye(2)]])
        assert symplectic_eigenvalues(q) == pytest.approx([1.0, 3.0])
        with pytest.raises(DomainError, match="positive definite"):
            from_quadrature(q)

    def test_accepts_pure_states(self):
        # nu_- = nu_+ = 1/2: the seralian roots carry sqrt(rounding) errors there
        rng = np.random.default_rng(29)
        vacuum = CovMat1(0.5, 0j)
        for tau in rng.uniform(0.0, 0.499, 300):
            v1 = covariance_from_spec(GaussianSpec(tau, 1.0, rng.uniform(0, 2 * math.pi)))
            bs = BeamSplitter(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            out = apply_beam_splitter(v1, vacuum, bs)
            assert symplectic_eigenvalues(to_quadrature(out)) == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_invariants_give_the_eigvals_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            spec = GaussianSpec(rng.uniform(0, 0.49), rng.uniform(0.05, 1.0), rng.uniform(0, 6.28))
            v1 = covariance_from_spec(spec)
            v2 = thermal_covariance(ThermalParams(rng.uniform(0.0, 3.0)))
            out = apply_beam_splitter(
                v1, v2, BeamSplitter(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            )
            det_a, det_b, det_c, det_v = out.invariants
            nu = seralian_roots(det_a + det_b + 2.0 * det_c, det_v)[:2]
            assert nu == pytest.approx(symplectic_eigenvalues(to_quadrature(out)), abs=1e-10)

    def test_matrix_read_only(self):
        out = apply_beam_splitter(
            CovMat1(0.5, 0j), CovMat1(0.5, 0j), BeamSplitter(0.3)
        )
        with pytest.raises(ValueError):
            out.matrix[0, 0] = 9.0


def _robertson_schroedinger(vq: np.ndarray) -> bool:
    """V + i sigma/2 >= 0 up to a tolerance in units of V.

    Near the boundary min eig(V + i sigma/2) >= 2 (nu_- - 1/2) lambda_max(V),
    so this tolerance accepts nu_- >= 1/2 - BOUNDARY_TOL.
    """
    tol = 2.0 * BOUNDARY_TOL * np.linalg.eigvalsh(vq).max()
    return np.linalg.eigvalsh(vq + 0.5j * symplectic_form(2)).min() >= -tol


@st.composite
def two_mode_quadratures(draw):
    """S diag(nu_1, nu_1, nu_2, nu_2) S^T with S = expm(sigma H), ||H|| <= 1,
    then kept, negated, shifted or with one mode flipped.

    nu_2 >= 1/2, and nu_1 - 1/2 lies above 1e-6, within [-0.9, +1]
    BOUNDARY_TOL, or below -1e-5: far enough from both criteria's edges
    that each gives a definite verdict.
    """
    h = np.array(draw(st.lists(st.floats(-0.25, 0.25), min_size=16, max_size=16))).reshape(4, 4)
    s = expm(symplectic_form(2) @ (h + h.T) / 2.0)
    offset = draw(
        st.one_of(
            st.floats(1e-6, 2.5),
            st.floats(-0.9 * BOUNDARY_TOL, BOUNDARY_TOL),
            st.floats(-0.4, -1e-5),
        )
    )
    nu_other = draw(st.floats(0.5, 3.0))
    vq = s @ np.diag([0.5 + offset, 0.5 + offset, nu_other, nu_other]) @ s.T
    kind = draw(st.sampled_from(["as drawn", "negated", "shifted", "mode flipped"]))
    if kind == "negated":
        vq = -vq
    elif kind == "shifted":  # lowest eigenvalue moved to -t
        vq = vq - (np.linalg.eigvalsh(vq).min() + draw(st.floats(1e-3, 2.0))) * np.eye(4)
    elif kind == "mode flipped":
        vq = vq.copy()
        vq[2:, 2:] *= -1.0
    return 0.5 * (vq + vq.T)


@settings(max_examples=400, deadline=None)
@given(vq=two_mode_quadratures())
def test_validation_is_the_robertson_schroedinger_check(vq):
    try:
        from_quadrature(vq)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == _robertson_schroedinger(vq)


@st.composite
def perturbed_outputs(draw):
    """A valid ``apply_beam_splitter`` output plus no perturbation, an
    anti-Hermitian one, or a Hermitian one that breaks mode conjugation.

    The perturbation's largest entry is at most 1e-12 or at least 1e-6
    times max(max|m|, 1), far on either side of the BOUNDARY_TOL edge.
    """
    angle = st.floats(0.0, 2 * math.pi)
    spec = GaussianSpec(draw(st.floats(0.0, 0.49)), draw(st.floats(0.05, 1.0)), draw(angle))
    v2 = thermal_covariance(ThermalParams(draw(st.floats(0.0, 3.0))))
    bs = BeamSplitter(draw(st.floats(0.0, math.pi / 2)), draw(angle))
    m = apply_beam_splitter(covariance_from_spec(spec), v2, bs).matrix
    kind = draw(st.sampled_from(["none", "anti-Hermitian", "conjugation-breaking"]))
    if kind == "none":
        return m
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    g = (parts[:16] + 1j * parts[16:]).reshape(4, 4)
    if kind == "anti-Hermitian":
        e = g - g.conj().T
    else:
        h = g + g.conj().T
        e = h - h.conj()[SWAPPED_PAIRS]  # Hermitian, and P e P = -conj(e)
    peak = float(np.abs(e).max())
    assume(peak > 1e-6)
    size = draw(st.one_of(st.floats(0.0, 1e-12), st.floats(1e-6, 1.0)))
    return m + (size * max(float(np.abs(m).max()), 1.0) / peak) * e


@settings(max_examples=300, deadline=None)
@given(m=perturbed_outputs())
def test_format_check_is_the_amplitude_definition(m):
    # The Hermitian check plus a real quadrature matrix is the amplitude
    # definition: Hermitian and mode-conjugation symmetric.
    expected = amplitude_format_error(m)
    try:
        CovMat2(m)
    except DomainError as err:
        assert expected is not None and expected in str(err), str(err)
    else:
        assert expected is None
