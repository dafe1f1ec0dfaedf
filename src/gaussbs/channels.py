"""Single-mode noise processes that destroy nonclassicality.

Two contextually different noises are implemented at the covariance level:

* additive Gaussian noise, V -> V + sigma * I, which reduces the
  nonclassical depth by exactly sigma until it hits zero;
* preparation with a noisy seed: write the target state as a channel
  acting on vacuum (squeeze to the target's minimum quadrature variance,
  then add the classical noise that accounts for impurity) and feed the
  channel a thermal state instead.

The substituted preparation turns classical exactly at
nbar_th = tau / (1 - 2 tau), the same occupation at which the 50:50
beam-splitter output loses its entanglement, for every purity.  The
channel decomposition matters for that statement: squeezing by
e^{-2r} = 1 - 2 tau and then adding anisotropic noise gives the
u-independent threshold above, whereas squeezing by the state's full
Bloch-Messiah factor e^{-2r} = u (1 - 2 tau) around an isotropic noisy
seed gives tau / (u (1 - 2 tau)) instead.  The first decomposition is the
canonical one here; the second is kept out but exercised in the tests as
a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    BOUNDARY_TOL,
    CovMat1,
    DomainError,
    GaussianSpec,
    ThermalParams,
    covariance_from_spec,
    from_quadrature,
    symplectic_form,
    thermal_covariance,
    to_quadrature,
)


@dataclass(frozen=True)
class GaussianNoiseParams:
    """Additive noise variance; acts on covariances as V -> V + sigma * I."""

    sigma: float

    def __post_init__(self):
        sigma = float(self.sigma)
        if not math.isfinite(sigma) or sigma < 0.0:
            raise DomainError(f"noise variance must satisfy sigma >= 0, got {sigma}")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """One-mode Gaussian channel V -> X V X^T + Y in quadrature form."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.shape != (2, 2) or y.shape != (2, 2):
            raise DomainError("channel matrices must be 2x2")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("channel matrices must be finite")
        if np.abs(y - y.T).max() > BOUNDARY_TOL * max(float(np.abs(y).max()), 1.0):
            raise DomainError("channel noise matrix must be symmetric")
        y = 0.5 * (y + y.T)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def apply(self, v: CovMat1) -> CovMat1:
        out = self.x @ to_quadrature(v) @ self.x.T + self.y
        result = from_quadrature(0.5 * (out + out.T))
        assert isinstance(result, CovMat1)
        return result

    def is_completely_positive(self, tol: float = 1e-10) -> bool:
        """Y + (i/2)(sigma_f - X sigma_f X^T) >= 0."""
        sigma_f = symplectic_form(1)
        m = self.y + 0.5j * (sigma_f - self.x @ sigma_f @ self.x.T)
        return float(np.linalg.eigvalsh(m).min()) >= -tol


def add_gaussian_noise(v: CovMat1, g: GaussianNoiseParams) -> CovMat1:
    """Random-displacement noise: a -> a + sigma with b untouched, so the
    nonclassical depth drops to max{0, depth - sigma}."""
    return CovMat1(v.a + g.sigma, v.b)


def preparation_channel(spec: GaussianSpec) -> GaussianChannel:
    """Vacuum-to-target channel: squeeze, then add classical noise.

    X is the symplectic squeezer with e^{-2r} = 1 - 2 tau along the
    phi_b/2 axis, so X (I/2) X^T already matches the target's minimum
    quadrature variance; Y = V - X (I/2) X^T is then positive semidefinite
    with a zero eigenvalue along the squeezed axis, and the channel is
    completely positive because X is symplectic.
    """
    w = 1.0 - 2.0 * spec.tau
    s = math.sqrt(w)
    half = 0.5 * spec.phi_b
    c, sn = math.cos(half), math.sin(half)
    rot = np.array([[c, -sn], [sn, c]])
    x = rot @ np.diag([s, 1.0 / s]) @ rot.T
    vr = to_quadrature(covariance_from_spec(spec))
    y = vr - 0.5 * (x @ x.T)
    return GaussianChannel(x, 0.5 * (y + y.T))


def thermal_substitution(spec: GaussianSpec, nbar_th: float) -> CovMat1:
    """Run the preparation channel on a thermal seed instead of vacuum.

    The output depth is max{0, 1/2 - (2 nbar_th + 1)(1 - 2 tau)/2}; it
    crosses zero exactly at nbar_th = tau / (1 - 2 tau).
    """
    channel = preparation_channel(spec)
    return channel.apply(thermal_covariance(ThermalParams(nbar_th)))


def classicality_threshold(spec: GaussianSpec) -> float:
    """Seed occupation at which the substituted preparation turns classical.

    Equals tau / (1 - 2 tau) for every purity: quantitatively the same as
    the 50:50 critical thermal noise from the entanglement side.
    """
    return spec.tau / (1.0 - 2.0 * spec.tau)
