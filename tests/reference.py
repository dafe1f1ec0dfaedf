"""Independent Gaussian routes that the tests compare the library against."""

import math

import numpy as np

from gaussbs.entanglement import (
    _NO_MIXING_COS,
    CriticalNoise,
    SymplecticPTSpectrum,
    _entanglement_margin,
)
from gaussbs.states import (
    BOUNDARY_TOL,
    BeamSplitter,
    CovMat2,
    GaussianSpec,
    symplectic_eigenvalues,
    to_quadrature,
)

_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])
# The swap of each mode's amplitude pair: (a1, a1*, a2, a2*) -> (a1*, a1, a2*, a2).
SWAPPED_PAIRS = np.ix_([1, 0, 3, 2], [1, 0, 3, 2])


def amplitude_format_error(m: np.ndarray) -> str | None:
    """The amplitude-side definition of a well-formed two-mode covariance.

    m is well-formed when m^T = conj(m) (Hermitian) and P m P = conj(m)
    (mode-conjugation symmetric, P the pair swap), each within
    BOUNDARY_TOL * max(max|m|, 1).  Returns None for a well-formed m,
    else "Hermitian" or "mode conjugation", the first definition broken.
    """
    m = np.asarray(m, dtype=complex)
    tol = BOUNDARY_TOL * max(float(np.abs(m).max()), 1.0)
    if np.abs(m.T - m.conj()).max() > tol:
        return "Hermitian"
    if np.abs(m[SWAPPED_PAIRS] - m.conj()).max() > tol:
        return "mode conjugation"
    return None


def pt_symplectic_spectrum_quadrature(v: CovMat2) -> SymplecticPTSpectrum:
    """Same spectrum via eigendecomposition of the momentum-flipped
    quadrature covariance against the symplectic form (independent route)."""
    vr = _PT_FLIP @ to_quadrature(v) @ _PT_FLIP
    lo, hi = symplectic_eigenvalues(vr)
    return SymplecticPTSpectrum(float(lo), float(hi))


def critical_noise_bisection(
    tau: float,
    u: float,
    theta: float,
    bracket: tuple[float, float] = (0.0, 1.0e3),
    tol: float = 1e-10,
) -> CriticalNoise:
    """Bisection for ``critical_noise`` on the same margin function.

    Returns the "infinite" sentinel when the threshold exceeds the bracket.
    Raises RuntimeError if the margin is not positive at the lower end for
    parameters that must entangle, since that indicates a broken formula
    rather than a domain issue.
    """
    GaussianSpec(tau, u)
    BeamSplitter(theta)
    if tau == 0.0:
        return CriticalNoise(0.0, "classical-input")
    cos4t = math.cos(4.0 * theta)
    if cos4t >= _NO_MIXING_COS:
        return CriticalNoise(0.0, "no-mixing")
    lo, hi = bracket

    def margin(nbar: float) -> float:
        return _entanglement_margin(tau, u, cos4t, 2.0 * nbar + 1.0)

    if margin(lo) <= 0.0:
        raise RuntimeError(
            "no sign change in bracket: entangled margin not positive at "
            f"nbar={lo} for tau={tau}, u={u}, theta={theta}"
        )
    if margin(hi) > 0.0:
        return CriticalNoise(math.inf, "infinite")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return CriticalNoise(0.5 * (lo + hi), "ok")
