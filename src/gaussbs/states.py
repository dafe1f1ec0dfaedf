"""Single- and two-mode Gaussian covariance toolkit.

All states are zero mean and described at the covariance level in the
complex-amplitude convention: a one-mode state is

    [[a, b], [b*, a]],    a real,  b complex,  vacuum a = 1/2, b = 0,

and a two-mode state is the Hermitian 4x4 block matrix [[A, C], [C^, B]]
over the amplitude ordering (mode1, mode1*, mode2, mode2*).  One-mode
states are parametrized by the nonclassical depth tau in [0, 1/2) and the
purity u in (0, 1]; the phase of b is carried separately so that phase
independence of downstream results can be tested instead of assumed.

A real quadrature representation (ordering x1, p1, x2, p2; vacuum I/2;
commutator [x, p] = i) backs the symplectic machinery.  ``to_quadrature``
and ``from_quadrature`` convert between the two conventions exactly, and
every operation here is a pure function of immutable values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Matrices within this distance of a physicality boundary are clamped onto
# the boundary instead of rejected: round-trip conversions must not reject
# boundary states such as pure squeezed states.
BOUNDARY_TOL = 1e-9

# Mode-wise change of basis B from the (alpha, alpha*) amplitude pair to the
# (x, p) quadrature pair, per matrix size: q = B m B^H and m = B^H q B.  B is
# unitary, so physicality is basis independent, and B^H conj(B) = -P with P the
# swap of each pair, so a Hermitian m gives a real q exactly when it is
# mode-conjugation symmetric, P m P = conj(m) (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)).
_BRIDGES = {2: np.array([[1.0, -1.0], [-1.0j, -1.0j]]) / math.sqrt(2.0)}
_BRIDGES[4] = np.kron(np.eye(2), _BRIDGES[2])

# Exact SI values (2019): Planck constant h in J s and Boltzmann constant in J/K.
_HBAR = 6.62607015e-34 / (2.0 * math.pi)
_K_B = 1.380649e-23


class DomainError(ValueError):
    """A parameter or matrix violates its physical domain."""


@dataclass(frozen=True)
class GaussianSpec:
    """One-mode Gaussian state as (nonclassical depth, purity, phase of b).

    tau: nonclassical depth, dimensionless, 0 <= tau < 1/2.
    u: purity tr(rho^2), dimensionless, 0 < u <= 1.
    phi_b: phase of the off-diagonal covariance element, radians,
        normalized into [0, 2*pi).
    """

    tau: float
    u: float
    phi_b: float = 0.0

    def __post_init__(self):
        tau, u, phi_b = float(self.tau), float(self.u), float(self.phi_b)
        if not (math.isfinite(tau) and math.isfinite(u) and math.isfinite(phi_b)):
            raise DomainError("state parameters must be finite")
        if not 0.0 <= tau < 0.5:
            raise DomainError(
                f"nonclassical depth must satisfy 0 <= tau < 1/2, got tau={tau}"
            )
        if not 0.0 < u <= 1.0:
            raise DomainError(f"purity must satisfy 0 < u <= 1, got u={u}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phi_b", phi_b % (2.0 * math.pi))


@dataclass(frozen=True)
class CovMat1:
    """One-mode covariance [[a, b], [b*, a]]; vacuum is a = 1/2, b = 0."""

    a: float
    b: complex = 0j

    def __post_init__(self):
        a, b = float(self.a), complex(self.b)
        if not (math.isfinite(a) and cmath.isfinite(b)):
            raise DomainError("covariance entries must be finite")
        if a <= 0.0:
            raise DomainError(f"diagonal covariance element must be positive, got a={a}")
        det = a * a - (b.real * b.real + b.imag * b.imag)
        if det < 0.25 - BOUNDARY_TOL:
            raise DomainError(
                f"unphysical one-mode covariance: a^2 - |b|^2 = {det} < 1/4"
            )
        if det < 0.25:
            # Clamp onto the uncertainty boundary, keeping b.
            a = math.sqrt(0.25 + abs(b) ** 2)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b.conjugate(), self.a]])


@dataclass(frozen=True)
class ThermalParams:
    """Thermal occupation; induced covariance is (nbar + 1/2) * I."""

    nbar: float

    def __post_init__(self):
        nbar = float(self.nbar)
        if not math.isfinite(nbar) or nbar < 0.0:
            raise DomainError(f"thermal occupation must satisfy nbar >= 0, got {nbar}")
        object.__setattr__(self, "nbar", nbar)


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless beam splitter: mixing angle theta (transmittance cos^2 theta)
    and reflected/transmitted phase difference phi, both in radians."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError("beam splitter angles must be finite")
        if not math.isfinite(4.0 * theta):  # every closed form takes cos(4 theta)
            raise DomainError(f"beam splitter angle must satisfy |4 theta| < inf, got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def matrix(self) -> np.ndarray:
        """2x2 unitary acting on the mode amplitudes; theta = 0 is the identity."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        e = cmath.exp(1j * self.phi)
        return np.array([[c, s * e], [-s * e.conjugate(), c]])


class BlockInvariants(NamedTuple):
    """Determinants of the blocks A, B, C and of the whole real quadrature
    covariance [[A, C], [C^T, B]]; all four are invariant under local
    symplectic operations, and every two-mode spectrum follows from them."""

    det_a: float
    det_b: float
    det_c: float
    det_v: float


@dataclass(frozen=True, eq=False)
class CovMat2:
    """Two-mode covariance [[A, C], [C^, B]] as a 4x4 complex matrix.

    A valid matrix is Hermitian and real in the quadrature basis, which
    for a Hermitian matrix is mode-conjugation symmetry: A and B read
    [[a, b], [b*, a]], C[1,1] = C[0,0]* and C[1,0] = C[0,1]*.  A physical
    covariance is also positive definite with both symplectic eigenvalues
    at least 1/2; the block determinants it is checked with stay on the
    instance as ``invariants``.
    """

    matrix: np.ndarray
    invariants: BlockInvariants = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"two-mode covariance must be 4x4, got shape {m.shape}")
        m_h = m.conj().T
        if np.abs(m - m_h).max() > BOUNDARY_TOL * max(float(np.abs(m).max()), 1.0):
            raise DomainError("two-mode covariance must be Hermitian")
        m = 0.5 * (m + m_h)
        q = _quadrature_matrix(m)
        rows = q.tolist()
        (q00, q01, q02, q03), (_, q11, q12, q13), (_, _, q22, q23), (*_, q33) = rows
        inv = BlockInvariants(
            q00 * q11 - q01 * q01,
            q22 * q33 - q23 * q23,
            q02 * q13 - q03 * q12,
            _positive_definite_det(rows),
        )
        # The symplectic spectrum alone cannot tell V from -V.
        if not inv.det_v > 0.0:
            raise DomainError("two-mode covariance must be positive definite")
        nu_min = seralian_roots(inv.det_a + inv.det_b + 2.0 * inv.det_c, inv.det_v).nu_minus
        if nu_min < 0.5 - BOUNDARY_TOL:
            # Every pure state has nu_- = nu_+ = 1/2, where the roots move
            # by the square root of the rounding in det V: the eigenvalue
            # route decides before a state is rejected.
            nu_min = float(symplectic_eigenvalues(q).min())
        if nu_min < 0.5 - BOUNDARY_TOL:
            raise DomainError(
                "two-mode covariance violates the uncertainty bound: "
                f"min symplectic eigenvalue = {nu_min} < 1/2"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "invariants", inv)


def covariance_from_spec(spec: GaussianSpec) -> CovMat1:
    """Covariance of the state with given depth, purity and squeezing phase.

    a = 1/(4 u^2 (1 - 2 tau)) + (1 - 2 tau)/4 and |b| is the same with a
    minus sign, so the smaller quadrature eigenvalue a - |b| equals
    (1 - 2 tau)/2 exactly.
    """
    w = 1.0 - 2.0 * spec.tau
    common = 1.0 / (4.0 * spec.u * spec.u * w)
    mag = common - 0.25 * w
    return CovMat1(common + 0.25 * w, mag * cmath.exp(1j * spec.phi_b))


def nonclassical_depth(v: CovMat1) -> float:
    """max{0, -a + |b| + 1/2}: how far the smallest quadrature variance
    dips below the vacuum value."""
    return max(0.0, 0.5 - (v.a - abs(v.b)))


def purity(v: CovMat1) -> float:
    """tr(rho^2) = 1/(2 sqrt(a^2 - |b|^2)), in (0, 1]."""
    det = v.a * v.a - abs(v.b) ** 2
    if det <= 0.0:
        raise DomainError(f"covariance determinant must be positive, got {det}")
    # Boundary clamping at construction keeps det >= 1/4 up to rounding.
    return min(0.5 / math.sqrt(det), 1.0)


def thermal_covariance(t: ThermalParams) -> CovMat1:
    """Isotropic covariance (nbar + 1/2) * I of a thermal state."""
    return CovMat1(t.nbar + 0.5, 0j)


def thermal_occupation(temperature: float, frequency: float) -> ThermalParams:
    """Bose-Einstein occupation 1/(exp(hbar*w/(kB*T)) - 1).

    temperature in kelvin, frequency in rad/s.  T = 0 maps to nbar = 0
    without evaluating the divergent exponent.
    """
    if not (math.isfinite(temperature) and math.isfinite(frequency)):
        raise DomainError("temperature and frequency must be finite")
    if temperature < 0.0:
        raise DomainError(f"temperature must satisfy T >= 0, got {temperature}")
    if frequency <= 0.0:
        raise DomainError(f"frequency must be positive, got {frequency}")
    if temperature == 0.0:
        return ThermalParams(0.0)
    x = _HBAR * frequency / (_K_B * temperature)
    if x > 700.0:  # nbar underflows to zero well before expm1 overflows
        return ThermalParams(0.0)
    return ThermalParams(1.0 / math.expm1(x))


def _embed(m: np.ndarray) -> np.ndarray:
    """Embed a 2x2 amplitude map into the interleaved (a1, a1*, a2, a2*) basis."""
    out = np.zeros((4, 4), dtype=complex)
    out[0::2, 0::2] = m
    out[1::2, 1::2] = m.conj()
    return out


def apply_beam_splitter(v1: CovMat1, v2: CovMat1, bs: BeamSplitter) -> CovMat2:
    """Mix two one-mode states; returns the output two-mode covariance.

    Implemented as the congruence of V1 (+) V2 by the embedded beam-splitter
    matrix; preserves the total determinant for every (theta, phi).
    """
    v_in = np.zeros((4, 4), dtype=complex)
    v_in[:2, :2] = v1.matrix
    v_in[2:, 2:] = v2.matrix
    t = _embed(bs.matrix)
    return CovMat2(t.conj().T @ v_in @ t)  # CovMat2 takes the Hermitian part


def _positive_definite_det(rows: list) -> float:
    """det V if the real symmetric 4x4 V (as nested lists) is positive
    definite, else 0.

    Symmetric Gaussian elimination V = L D L^T (Cholesky without square
    roots): V is positive definite exactly when every pivot is positive,
    and det V is their product.  Without pivoting this is backward stable
    on positive definite matrices, as Cholesky is.
    """
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (*_, a33) = rows
    if not a00 > 0.0:
        return 0.0
    r1, r2, r3 = a01 / a00, a02 / a00, a03 / a00
    a11, a12, a13 = a11 - r1 * a01, a12 - r1 * a02, a13 - r1 * a03
    a22, a23, a33 = a22 - r2 * a02, a23 - r2 * a03, a33 - r3 * a03
    if not a11 > 0.0:
        return 0.0
    r2, r3 = a12 / a11, a13 / a11
    a22, a23, a33 = a22 - r2 * a12, a23 - r2 * a13, a33 - r3 * a13
    if not a22 > 0.0:
        return 0.0
    a33 -= a23 / a22 * a23
    if not a33 > 0.0:
        return 0.0
    return a00 * a11 * a22 * a33


def _quadrature_matrix(m: np.ndarray) -> np.ndarray:
    """B m B^H of a Hermitian m, real where m is mode-conjugation symmetric."""
    bridge = _BRIDGES[m.shape[0]]
    q = bridge @ m @ bridge.conj().T
    scale = max(float(np.abs(q).max()), 1.0)
    if np.abs(q.imag).max() > BOUNDARY_TOL * scale:
        raise DomainError("covariance must satisfy mode conjugation symmetry")
    q = q.real
    return 0.5 * (q + q.T)


def to_quadrature(v: CovMat1 | CovMat2) -> np.ndarray:
    """Real symmetric covariance over (x1, p1[, x2, p2]); vacuum is I/2."""
    return _quadrature_matrix(v.matrix)


def from_quadrature(m: np.ndarray) -> CovMat1 | CovMat2:
    """Inverse of ``to_quadrature``; dispatches on matrix size."""
    m = np.asarray(m, dtype=float)
    if m.shape not in ((2, 2), (4, 4)):
        raise DomainError(f"expected a 2x2 or 4x4 quadrature matrix, got shape {m.shape}")
    bridge = _BRIDGES[m.shape[0]]
    vc = bridge.conj().T @ m @ bridge
    if m.shape == (2, 2):
        return CovMat1(vc[0, 0].real, vc[0, 1])
    return CovMat2(vc)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal form sigma with [R_i, R_j] = i*sigma_ij in (x, p) ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(vr: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a real quadrature covariance, ascending.

    The eigenvalues of i * V * sigma come in +/- nu pairs; physical states
    have every nu >= 1/2.
    """
    vr = np.asarray(vr, dtype=float)
    n = vr.shape[0] // 2
    ev = np.linalg.eigvals(1j * (vr @ symplectic_form(n)))
    vals = np.sort(np.abs(ev))
    # Average each +/- pair to suppress eigensolver noise.
    return vals.reshape(n, 2).mean(axis=1)


class SeralianRoots(NamedTuple):
    """nu_- <= nu_+ and the discriminant delta^2 - 4 det V they came from."""

    nu_minus: float
    nu_plus: float
    discriminant: float


def seralian_roots(delta: float, det_v: float) -> SeralianRoots:
    """Symplectic eigenvalues of a two-mode covariance from its invariants.

    nu_-^2 and nu_+^2 are the roots of x^2 - delta x + det V = 0, the
    seralian form of Serafini, Illuminati & De Siena, J. Phys. B 37, L21
    (2004).  delta = det A + det B + 2 det C gives the spectrum of V, and
    delta = det A + det B - 2 det C that of its partial transpose (see
    ``BlockInvariants``).  det V must be positive.  A negative
    discriminant is taken as zero; the caller decides whether it is
    rounding.  Where the roots nearly coincide a rounding error e in
    det V moves them by about sqrt(e).
    """
    disc = delta * delta - 4.0 * det_v
    nu_plus_sq = 0.5 * (delta + math.sqrt(max(disc, 0.0)))
    nu_minus_sq = det_v / nu_plus_sq  # stable form of (delta - sqrt(disc))/2
    return SeralianRoots(math.sqrt(nu_minus_sq), math.sqrt(nu_plus_sq), disc)
