"""Logarithmic negativity of the beam-splitter output and its thresholds.

The two positive roots xi_- <= xi_+ of

    xi^4 - (det A + det B - 2 det C) xi^2 + det V = 0

are the symplectic eigenvalues of the partially transposed two-mode
covariance, and N = max{0, -log2(2 xi_-)}.  For the squeezed-thermal
scenario the same quantity has a closed form in (tau, u, nbar, theta)
alone, independent of both phases; this module provides both routes, the
critical thermal occupation at which N reaches zero (analytic), the
optimal-angle dichotomy, and the small-deviation expansion of the
threshold around the 50:50 setting.  The closed form and
the threshold are also evaluated elementwise over numpy arrays
(``negativity_columns``, ``critical_noise_columns``) for the CLI's sweeps:
bit for bit equal to the scalar functions on every element whose
evaluation sets no floating-point flag, and following the caller's
``np.errstate`` on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    BeamSplitter,
    CovMat2,
    DomainError,
    GaussianSpec,
    ThermalParams,
    apply_beam_splitter,
    covariance_from_spec,
    seralian_roots,
    thermal_covariance,
)

# cos(4*theta) at or above this value means no mixing at all (theta a
# multiple of pi/2 up to float rounding): the output is a product state.
_NO_MIXING_COS = 1.0 - 1e-14


class SymplecticPTSpectrum(NamedTuple):
    """Positive roots of the partial-transpose characteristic equation."""

    xi_minus: float
    xi_plus: float


class CriticalNoise(NamedTuple):
    """Critical thermal occupation plus a status flag.

    flag is "ok" for a genuine threshold, "classical-input" or "no-mixing"
    when the output is never entangled (value 0 by convention), and
    "infinite" when the threshold exceeds every representable occupation.
    """

    value: float
    flag: str

    @property
    def never_entangled(self) -> bool:
        return self.flag in ("classical-input", "no-mixing")

    @property
    def infinite(self) -> bool:
        return self.flag == "infinite"


class ClosedFormTerms(NamedTuple):
    s: float
    s_plus: float
    s_minus: float


class OptimalAngle(NamedTuple):
    theta: float
    diagnosis: str
    s_at_zero: float
    s_at_quarter: float


@dataclass(frozen=True)
class ScenarioParams:
    """Full parameter set: squeezed-thermal input, thermal input, splitter."""

    tau: float
    u: float
    nbar: float
    theta: float
    phi: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self):
        # The component constructors do the range checks; their results are
        # kept as non-field attributes, outside equality, hash and repr.
        object.__setattr__(self, "_spec", GaussianSpec(self.tau, self.u, self.phi_b))
        object.__setattr__(self, "_thermal", ThermalParams(self.nbar))
        object.__setattr__(self, "_splitter", BeamSplitter(self.theta, self.phi))

    def spec(self) -> GaussianSpec:
        return self._spec

    def thermal(self) -> ThermalParams:
        return self._thermal

    def splitter(self) -> BeamSplitter:
        return self._splitter


def output_covariance(p: ScenarioParams) -> CovMat2:
    """Two-mode covariance produced by the scenario's beam splitter."""
    return apply_beam_splitter(
        covariance_from_spec(p.spec()), thermal_covariance(p.thermal()), p.splitter()
    )


def pt_symplectic_spectrum(v: CovMat2) -> SymplecticPTSpectrum:
    """PT symplectic eigenvalues from the block determinants of V."""
    det_a, det_b, det_c, det_v = v.invariants
    delta = det_a + det_b - 2.0 * det_c
    roots = seralian_roots(delta, det_v)
    if roots.discriminant < -1e-9 * max(delta * delta, 1.0):
        raise DomainError(
            "complex partial-transpose roots signal an unphysical covariance "
            f"(discriminant {roots.discriminant})"
        )
    return SymplecticPTSpectrum(roots.nu_minus, roots.nu_plus)


def log_negativity(v: CovMat2) -> float:
    """N = max{0, -log2(2 xi_-)}; zero exactly when the PT state is physical."""
    spectrum = pt_symplectic_spectrum(v)
    return max(0.0, -math.log2(2.0 * spectrum.xi_minus))


def closed_form_terms(tau: float, u: float, nbar: float, theta: float) -> ClosedFormTerms:
    """The scalar combinations entering the closed-form negativity.

    s_plus/s_minus = 1/(u^2 (1-2 tau)) +/- (2 nbar + 1) and
    s = [(nbar - tau + 1) s_plus - (nbar + tau) s_minus cos(4 theta)] / 2.
    Inputs are assumed validated (see ScenarioParams).
    """
    return _terms(tau, u, nbar, math.cos(4.0 * theta))


def negativity_closed_form(p: ScenarioParams) -> float:
    """Closed-form N(tau, u, nbar, theta); independent of phi and phi_b.

    Whether N is zero is decided by the polynomial entanglement margin,
    which has no square-root cancellation: near degenerate angles the
    direct expression s - sqrt(s^2 - k^2) loses half the machine digits
    exactly where N must vanish identically.
    """
    cos4t = math.cos(4.0 * p.theta)
    m = 2.0 * p.nbar + 1.0
    if _entanglement_margin(p.tau, p.u, cos4t, m) <= 0.0:
        return 0.0
    two_xi_minus_sq = _two_xi_minus_sq(_terms(p.tau, p.u, p.nbar, cos4t).s, m, p.u)
    if two_xi_minus_sq <= 0.0:
        raise ValueError("math domain error")  # as math.log2 raises; np.log2 warns
    return float(_negativity(two_xi_minus_sq))


def negativity_5050(tau: float, nbar: float) -> float:
    """N at a 50:50 splitter: max{0, -log2 sqrt((2 nbar + 1)(1 - 2 tau))}.

    Independent of the input purity.
    """
    GaussianSpec(tau, 1.0)
    ThermalParams(nbar)
    return max(0.0, -0.5 * math.log2((2.0 * nbar + 1.0) * (1.0 - 2.0 * tau)))


def critical_noise_5050(tau: float) -> float:
    """Thermal occupation killing 50:50 entanglement: tau / (1 - 2 tau).

    Strictly increasing in tau and divergent as tau approaches 1/2.
    """
    GaussianSpec(tau, 1.0)
    return tau / (1.0 - 2.0 * tau)


def critical_noise(tau: float, u: float, theta: float) -> CriticalNoise:
    """Occupation nbar_c where the output negativity transitions to zero.

    Solved analytically: the vanishing condition is quadratic in
    m = 2 nbar + 1 with a downward parabola, and for tau > 0 with genuine
    mixing the margin at nbar = 0 is tau (1 - cos 4 theta) (g - 1) > 0, so
    exactly one root exceeds m = 1.  For u = 1 the result collapses to
    tau / (1 - 2 tau) at every mixing angle.  Degenerate angles (theta a
    multiple of pi/2) and classical inputs (tau = 0) never entangle and
    return 0 with distinct flags.
    """
    GaussianSpec(tau, u)
    BeamSplitter(theta)
    if tau == 0.0:
        return CriticalNoise(0.0, "classical-input")
    cos4t = math.cos(4.0 * theta)
    if cos4t >= _NO_MIXING_COS:
        return CriticalNoise(0.0, "no-mixing")
    m_star = _upper_root(*_margin_coefficients(tau, u, cos4t))
    if not math.isfinite(m_star):
        return CriticalNoise(math.inf, "infinite")
    return CriticalNoise(0.5 * (m_star - 1.0), "ok")


# The formulas below are written once and evaluated two ways: on Python
# floats by the scalar API above, and elementwise on numpy arrays by the
# column evaluators further down.  Where no floating-point flag is set,
# both give the same bits: + - * / and sqrt are correctly rounded in both,
# a square is libm pow in both (Python's ** and np.float_power; numpy's
# x**2 is x*x, which differs in the last bit on some inputs), both take
# np.log2, and a maximum keeps Python's max (np.maximum(0.0, -0.0) is
# -0.0).  Where a flag is set, Python raises or returns inf or nan
# silently, and the column evaluators follow the caller's np.errstate.


def _terms(tau, u, nbar, cos4t) -> ClosedFormTerms:
    w = 1.0 - 2.0 * tau
    g = 1.0 / (u * u * w)
    m = 2.0 * nbar + 1.0
    s_plus = g + m
    s_minus = g - m
    s = 0.5 * ((nbar - tau + 1.0) * s_plus - (nbar + tau) * s_minus * cos4t)
    return ClosedFormTerms(s, s_plus, s_minus)


def _margin_coefficients(tau, u, cos4t):
    """alpha, beta, gamma of the entanglement margin, quadratic in m = 2 nbar + 1.

    alpha m^2 + beta m + gamma = 2 (2 s - 1 - m^2/u^2); alpha < 0 for
    u <= 1 and cos4t < 1, and beta > 0.
    """
    w = 1.0 - 2.0 * tau
    g = 1.0 / (u * u * w)
    alpha = (1.0 + cos4t) - 2.0 / (u * u)
    beta = (1.0 - cos4t) * (g + w)
    gamma = (1.0 + cos4t) / (u * u) - 2.0
    return alpha, beta, gamma


def _entanglement_margin(tau, u, cos4t, m):
    """Positive exactly when the output with 2 nbar + 1 = m is entangled."""
    alpha, beta, gamma = _margin_coefficients(tau, u, cos4t)
    return alpha * m * m + beta * m + gamma


def _two_xi_minus_sq(s, m, u, pow=pow, sqrt=math.sqrt, max=max):
    """(2 xi_-)^2 = s - sqrt(s^2 - k^2) with k = m/u, in cancellation-free form."""
    k_sq = pow(m / u, 2)
    return k_sq / (s + sqrt(max(s * s - k_sq, 0.0)))


def _negativity(two_xi_minus_sq, max=max):
    return max(0.0, -0.5 * np.log2(two_xi_minus_sq))


def _upper_root(alpha, beta, gamma, sqrt=math.sqrt, max=max):
    """The root of the margin above m = 1, from the stable quadratic pivot."""
    disc = beta * beta - 4.0 * alpha * gamma
    q = -0.5 * (beta + sqrt(disc))  # beta > 0, so q is the stable pivot
    return max(q / alpha, gamma / q)


def _array_max(a, b):
    return np.where(b > a, b, a)  # max(a, b) keeps a unless b is larger


class NegativityColumns(NamedTuple):
    n: np.ndarray
    xi_minus: np.ndarray


class ThresholdColumns(NamedTuple):
    value: np.ndarray
    never_entangled: np.ndarray
    infinite: np.ndarray


def _float_arrays(*arrays) -> list[np.ndarray]:
    return np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in arrays))


def cos4(theta) -> np.ndarray:
    """cos(4 theta) per element, with math.cos as the scalar API uses it.

    Evaluate it on the distinct angles of a grid and index the result.
    """
    theta = np.asarray(theta, dtype=float)
    return np.array([math.cos(4.0 * t) for t in theta.ravel().tolist()]).reshape(theta.shape)


def negativity_columns(tau, u, nbar, cos4t) -> NegativityColumns:
    """N and xi_minus at every element of the broadcast parameter arrays.

    cos4t is cos(4 theta) (see ``cos4``).  Inputs are assumed validated.
    An element equals ``negativity_closed_form`` bit for bit unless its
    evaluation sets a floating-point flag (a zero divisor, an overflow, an
    invalid operation), which is handled as the caller's ``np.errstate``
    says; under ``np.errstate(all="raise")`` it raises FloatingPointError.
    """
    tau, u, nbar, cos4t = _float_arrays(tau, u, nbar, cos4t)
    m = 2.0 * nbar + 1.0
    s = _terms(tau, u, nbar, cos4t).s
    two_xi_minus_sq = _two_xi_minus_sq(s, m, u, np.float_power, np.sqrt, _array_max)
    n = np.zeros(tau.shape)
    entangled = ~(_entanglement_margin(tau, u, cos4t, m) <= 0.0)
    n[entangled] = _negativity(two_xi_minus_sq[entangled], _array_max)
    return NegativityColumns(n, 0.5 * np.sqrt(two_xi_minus_sq))


def critical_noise_columns(tau, u, cos4t) -> ThresholdColumns:
    """``critical_noise`` at every element of the broadcast parameter arrays.

    The value is 0 with never_entangled set for classical inputs and
    unmixed angles, and inf with infinite set past every occupation.
    Inputs are assumed validated.  As in ``negativity_columns``, an element
    whose evaluation sets a floating-point flag follows the caller's
    ``np.errstate``; every other element equals the scalar result.
    """
    tau, u, cos4t = _float_arrays(tau, u, cos4t)
    never = (tau == 0.0) | (cos4t >= _NO_MIXING_COS)
    value = np.zeros(tau.shape)
    infinite = np.zeros(tau.shape, dtype=bool)
    mixed = ~never
    coefficients = _margin_coefficients(tau[mixed], u[mixed], cos4t[mixed])
    m_star = _upper_root(*coefficients, np.sqrt, _array_max)
    finite = np.isfinite(m_star)
    value[mixed] = np.where(finite, 0.5 * (m_star - 1.0), math.inf)
    infinite[mixed] = ~finite
    return ThresholdColumns(value, never, infinite)


def critical_noise_near_optimal(tau: float, u: float, e: float) -> float:
    """Threshold for a splitter detuned from 50:50 by transmittance error e.

    Second-order expansion in e (angle theta = pi/4 + e/2), accurate to a
    few percent for |e| <= 0.2 and reducing to tau / (1 - 2 tau) at e = 0
    or u = 1.
    """
    GaussianSpec(tau, u)
    if not math.isfinite(e):
        raise DomainError("transmittance error must be finite")
    w = 1.0 - 2.0 * tau
    base = tau / w
    denom = 1.0 - u * u * w * w
    if denom == 0.0:  # u = 1 and tau = 0: no correction either way
        return base
    return base * (1.0 - 2.0 * e * e * (1.0 - tau) * (1.0 - u * u) / denom)


def optimal_angle(tau: float, u: float, nbar: float) -> OptimalAngle:
    """Which mixing angle maximizes the negativity.

    The argument of the negativity is extremal at theta = 0 and pi/4; the
    pi/4 extremum wins exactly when 1/(u^2 (1 - 2 tau)) > 2 nbar + 1, which
    is reported as "entangling".  Otherwise the maximum sits at theta = 0,
    i.e. no beam-splitter action and no entanglement at any angle.  Note
    that for mixed inputs the 50:50 maximum can itself be zero (whenever
    (2 nbar + 1)(1 - 2 tau) >= 1), so "entangling" labels the location of
    the optimum, not a guarantee of nonzero output entanglement.
    """
    GaussianSpec(tau, u)
    ThermalParams(nbar)
    at_zero = _terms(tau, u, nbar, 1.0)  # cos(4 theta) at theta = 0 and pi/4
    s_at_zero, s_at_quarter = at_zero.s, _terms(tau, u, nbar, -1.0).s
    if at_zero.s_minus > 0.0:
        return OptimalAngle(0.25 * math.pi, "entangling", s_at_zero, s_at_quarter)
    return OptimalAngle(0.0, "no entanglement achievable", s_at_zero, s_at_quarter)
