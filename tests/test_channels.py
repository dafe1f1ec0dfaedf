import math

import numpy as np
import pytest

from gaussbs.channels import (
    GaussianChannel,
    GaussianNoiseParams,
    add_gaussian_noise,
    classicality_threshold,
    preparation_channel,
    thermal_substitution,
)
from gaussbs.entanglement import critical_noise_5050
from gaussbs.states import (
    CovMat1,
    DomainError,
    GaussianSpec,
    covariance_from_spec,
    nonclassical_depth,
    purity,
    to_quadrature,
)


class TestAdditiveNoise:
    def test_zero_noise_identity(self):
        v = covariance_from_spec(GaussianSpec(0.3, 0.6, 0.8))
        out = add_gaussian_noise(v, GaussianNoiseParams(0.0))
        assert out.a == v.a and out.b == v.b

    def test_depth_reduced_by_sigma(self):
        v = covariance_from_spec(GaussianSpec(0.3, 1.0, 0.0))
        out = add_gaussian_noise(v, GaussianNoiseParams(0.1))
        assert nonclassical_depth(out) == pytest.approx(0.2, abs=1e-12)

    def test_strong_noise_classicalizes(self):
        v = covariance_from_spec(GaussianSpec(0.3, 1.0, 0.0))
        # sigma equal to the depth sits on the float boundary (1 ulp)
        out = add_gaussian_noise(v, GaussianNoiseParams(0.3))
        assert nonclassical_depth(out) == pytest.approx(0.0, abs=1e-12)
        for sigma in (0.31, 2.0):
            out = add_gaussian_noise(v, GaussianNoiseParams(sigma))
            assert nonclassical_depth(out) == 0.0

    def test_depth_law_exact(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            sigma = rng.uniform(0.0, 0.6)
            v = covariance_from_spec(GaussianSpec(tau, u, rng.uniform(0, 2 * math.pi)))
            out = add_gaussian_noise(v, GaussianNoiseParams(sigma))
            expected = max(0.0, nonclassical_depth(v) - sigma)
            assert nonclassical_depth(out) == pytest.approx(expected, abs=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            GaussianNoiseParams(-0.01)


class TestPreparationChannel:
    def test_pure_state_needs_no_noise(self):
        ch = preparation_channel(GaussianSpec(0.3, 1.0, 0.0))
        assert np.abs(ch.y).max() < 1e-12
        w = 1.0 - 0.6
        assert np.allclose(ch.x, np.diag([math.sqrt(w), 1.0 / math.sqrt(w)]), atol=1e-12)

    def test_noise_eigenvalues(self):
        # {0, (1/u^2 - 1) / (2 (1 - 2 tau))} in the squeezing frame
        for tau, u in [(0.3, 0.5), (0.0, 1.0 / 3.0), (0.45, 0.9)]:
            ch = preparation_channel(GaussianSpec(tau, u, 0.0))
            eigs = np.sort(np.linalg.eigvalsh(ch.y))
            expected = (1.0 / u**2 - 1.0) / (2.0 * (1.0 - 2.0 * tau))
            assert eigs[0] == pytest.approx(0.0, abs=1e-12)
            assert eigs[1] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_vacuum_reconstruction(self):
        rng = np.random.default_rng(59)
        vacuum = CovMat1(0.5, 0j)
        for _ in range(60):
            spec = GaussianSpec(
                rng.uniform(0.0, 0.49),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.0, 2 * math.pi),
            )
            rebuilt = preparation_channel(spec).apply(vacuum)
            target = covariance_from_spec(spec)
            assert rebuilt.a == pytest.approx(target.a, rel=1e-12, abs=1e-12)
            assert abs(rebuilt.b - target.b) < 1e-12 * max(abs(target.b), 1.0)

    def test_complete_positivity(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            spec = GaussianSpec(
                rng.uniform(0.0, 0.49),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.0, 2 * math.pi),
            )
            assert preparation_channel(spec).is_completely_positive()

    def test_squeezer_is_symplectic(self):
        spec = GaussianSpec(0.4, 0.7, 1.3)
        x = preparation_channel(spec).x
        assert np.linalg.det(x) == pytest.approx(1.0, abs=1e-12)


class TestThermalSubstitution:
    def test_vacuum_seed_recovers_state(self):
        spec = GaussianSpec(0.25, 0.6, 0.9)
        out = thermal_substitution(spec, 0.0)
        target = covariance_from_spec(spec)
        assert out.a == pytest.approx(target.a, rel=1e-12)
        assert abs(out.b - target.b) < 1e-12 * abs(target.b)

    def test_depth_formula(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            tau = rng.uniform(0.0, 0.49)
            u = rng.uniform(0.05, 1.0)
            nbar_th = rng.uniform(0.0, 3.0)
            out = thermal_substitution(GaussianSpec(tau, u, 0.0), nbar_th)
            expected = max(0.0, 0.5 - (2.0 * nbar_th + 1.0) * (1.0 - 2.0 * tau) / 2.0)
            assert nonclassical_depth(out) == pytest.approx(expected, abs=1e-12)

    def test_crossing_at_threshold(self):
        for tau, u in [(0.1, 1.0), (0.3, 0.5), (0.45, 0.2)]:
            spec = GaussianSpec(tau, u, 0.0)
            threshold = classicality_threshold(spec)
            assert nonclassical_depth(
                thermal_substitution(spec, threshold + 1e-9)
            ) == pytest.approx(0.0, abs=1e-8)
            assert nonclassical_depth(thermal_substitution(spec, threshold - 1e-9)) > 0.0

    def test_just_below_threshold_stays_nonclassical(self):
        out = thermal_substitution(GaussianSpec(0.4, 0.5, 0.0), 1.9)
        assert nonclassical_depth(out) > 0.0

    def test_purity_decreases_with_seed_noise(self):
        spec = GaussianSpec(0.35, 0.8, 0.0)
        purities = [
            purity(thermal_substitution(spec, nbar_th))
            for nbar_th in np.linspace(0.0, 4.0, 30)
        ]
        assert all(a > b for a, b in zip(purities, purities[1:]))


class TestClassicalityThreshold:
    def test_values(self):
        assert classicality_threshold(GaussianSpec(0.0, 1.0)) == 0.0
        assert classicality_threshold(GaussianSpec(0.3, 1.0)) == pytest.approx(0.75)
        assert classicality_threshold(GaussianSpec(0.45, 0.4)) == pytest.approx(4.5)

    def test_matches_beam_splitter_threshold_for_all_purities(self):
        for tau in np.linspace(0.0, 0.49, 25):
            for u in (0.05, 0.3, 0.7, 1.0):
                assert classicality_threshold(GaussianSpec(tau, u)) == pytest.approx(
                    critical_noise_5050(tau), abs=1e-12
                )


class TestDecompositionChoice:
    def test_isotropic_seed_decomposition_gives_purity_dependent_threshold(self):
        # Alternative channel: full Bloch-Messiah squeezer around an
        # isotropic noisy seed.  It reconstructs the same state but its
        # substitution threshold is tau / (u (1 - 2 tau)), which is why it
        # is not the canonical choice.
        tau, u = 0.3, 0.5
        w = 1.0 - 2.0 * tau
        s = math.sqrt(u * w)
        x = np.diag([s, 1.0 / s])
        nu = 1.0 / (2.0 * u)
        y = (nu - 0.5) * (x @ x.T)
        alt = GaussianChannel(x, y)
        rebuilt = alt.apply(CovMat1(0.5, 0j))
        target = covariance_from_spec(GaussianSpec(tau, u, 0.0))
        assert rebuilt.a == pytest.approx(target.a, rel=1e-12)
        assert abs(rebuilt.b - target.b) < 1e-12 * abs(target.b)
        alt_threshold = tau / (u * w)
        from gaussbs.states import ThermalParams, thermal_covariance

        out = alt.apply(thermal_covariance(ThermalParams(alt_threshold)))
        assert nonclassical_depth(out) == pytest.approx(0.0, abs=1e-12)
        out = alt.apply(thermal_covariance(ThermalParams(alt_threshold - 1e-3)))
        assert nonclassical_depth(out) > 0.0
        assert alt_threshold != pytest.approx(classicality_threshold(GaussianSpec(tau, u)))


class TestGaussianChannelValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            GaussianChannel(np.eye(3), np.eye(3))

    def test_rejects_asymmetric_noise(self):
        with pytest.raises(DomainError):
            GaussianChannel(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_rejects_non_finite_entries(self, value, which):
        bad = np.eye(2)
        bad[0, 0] = value
        matrices = {"x": np.eye(2), "y": np.eye(2), which: bad}
        with pytest.raises(DomainError, match="finite"):
            GaussianChannel(matrices["x"], matrices["y"])

    def test_non_cp_detected(self):
        # pure squeezer with no added noise and an extra noise *deficit*
        x = np.diag([0.5, 2.0])
        y = -0.1 * np.eye(2)
        assert not GaussianChannel(x, y).is_completely_positive()

    def test_apply_preserves_quadrature_content(self):
        v = covariance_from_spec(GaussianSpec(0.2, 0.7, 0.5))
        identity = GaussianChannel(np.eye(2), np.zeros((2, 2)))
        out = identity.apply(v)
        assert np.abs(to_quadrature(out) - to_quadrature(v)).max() < 1e-14
