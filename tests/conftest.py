"""Helpers that only the tests use: reference states, dense operators and
the per-point sweep record."""

import math

import numpy as np

from gaussbs.cli import PARAM_NAMES, _point_dicts
from gaussbs.entanglement import (
    ScenarioParams,
    closed_form_terms,
    critical_noise,
    negativity_closed_form,
)
from gaussbs.fock import _sectors, _thermal_weights
from gaussbs.states import BeamSplitter, CovMat1


def thermal(nbar: float, dim: int) -> np.ndarray:
    """The oracle's truncated thermal input: geometric weights on the diagonal."""
    return np.diag(_thermal_weights(nbar, dim))


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Normalized coherent-state amplitudes up to the cutoff."""
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, dim)))))
    return np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact)


def _beam_splitter_unitary(theta: float, phi: float, dim: int) -> np.ndarray:
    """Dense form of the sector-blocked beam-splitter unitary, index n1 * dim + n2.

    The phase is the rotation R_1(phi) U(theta, 0) R_1(phi)^, R_1(phi) = e^{i phi n1}.
    """
    blocks = _sectors(theta, dim)
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    order = np.lexsort((n1, n1 + n2))  # flat indices in sector order
    u = np.zeros((dim * dim, dim * dim))
    lo = 0
    for block in blocks:
        flat = order[lo : lo + block.shape[0]]
        u[np.ix_(flat, flat)] = block
        lo += block.shape[0]
    if phi == 0.0:
        return u
    d = np.exp(1j * phi * n1)
    return np.outer(d, d.conj()) * u


def dense_output(rho1: np.ndarray, rho2: np.ndarray, bs: BeamSplitter) -> np.ndarray:
    """U (rho1 x rho2) U^ in the product basis, index n1 * dim + n2."""
    u = _beam_splitter_unitary(bs.theta, bs.phi, rho1.shape[0])
    return u @ np.kron(rho1, rho2) @ u.conj().T


def partial_transpose(rho: np.ndarray, extents: tuple | None = None) -> np.ndarray:
    """Transpose the second mode's indices of a product-basis matrix, index n1 * w2 + n2.

    ``extents`` is (w1, w2), a square box by default.
    """
    w1, w2 = extents or (math.isqrt(rho.shape[0]),) * 2
    return rho.reshape(w1, w2, w1, w2).transpose(0, 3, 2, 1).reshape(w1 * w2, w1 * w2)


def dense_pt_trace_norm(rho: np.ndarray) -> float:
    """Trace norm of the partial transpose of a Hermitian product-basis matrix."""
    return float(np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum())


def covariance_from_fock(rho: np.ndarray) -> CovMat1:
    """Second moments of a one-mode matrix as a covariance (a, b) pair."""
    a_op = annihilation(rho.shape[0])
    mean_n = float(np.trace(rho @ (a_op.T @ a_op)).real)
    mean_aa = complex(np.trace(rho @ (a_op @ a_op)))
    return CovMat1(mean_n + 0.5, -mean_aa)


def min_eigenvalue(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(rho).min())


def grid_points(grid):
    """The points of a sweep grid as parameter dicts, in row-major order."""
    for rows, columns in grid.chunks():
        yield from _point_dicts(rows, columns)


def legacy_record(point: dict, with_threshold: bool) -> dict:
    """One record as the per-point sweep computed it, from the scalar API."""
    params = ScenarioParams(**point)
    terms = closed_form_terms(params.tau, params.u, params.nbar, params.theta)
    k_sq = ((2.0 * params.nbar + 1.0) / params.u) ** 2
    disc = max(terms.s * terms.s - k_sq, 0.0)
    two_xi_minus_sq = k_sq / (terms.s + math.sqrt(disc))
    record = {name: point[name] for name in PARAM_NAMES}
    record["N"] = negativity_closed_form(params)
    record["xi_minus"] = 0.5 * math.sqrt(two_xi_minus_sq)
    if with_threshold:
        threshold = critical_noise(params.tau, params.u, params.theta)
        record["nbar_c"] = threshold.value
        record["never_entangled"] = threshold.never_entangled
        record["infinite_threshold"] = threshold.infinite
    return record
