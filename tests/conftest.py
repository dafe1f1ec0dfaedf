"""Helpers that only the tests use: reference states and dense operators."""

import numpy as np

from gaussbs.fock import FockDensityMatrix, _beam_splitter_sectors, _layout, annihilation
from gaussbs.states import CovMat1, DomainError


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
    """Dense form of the sector-blocked beam-splitter unitary."""
    blocks = _beam_splitter_sectors(theta, phi, dim)
    (order,), _ = _layout(dim, 1)  # flat indices in sector order
    u = np.zeros((dim * dim, dim * dim), dtype=blocks[0].dtype)
    lo = 0
    for block in blocks:
        flat = order[lo : lo + block.shape[0]]
        u[np.ix_(flat, flat)] = block
        lo += block.shape[0]
    return u


def covariance_from_fock(rho: FockDensityMatrix) -> CovMat1:
    """Second moments of a one-mode matrix as a covariance (a, b) pair."""
    if rho.n_modes != 1:
        raise DomainError("moment extraction implemented for one-mode states")
    a_op = annihilation(rho.dim)
    mean_n = float(np.trace(rho.data @ (a_op.T @ a_op)).real)
    mean_aa = complex(np.trace(rho.data @ (a_op @ a_op)))
    return CovMat1(mean_n + 0.5, -mean_aa)


def min_eigenvalue(rho: FockDensityMatrix) -> float:
    return float(np.linalg.eigvalsh(rho.data).min())
