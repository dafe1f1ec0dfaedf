"""Helpers that only the tests use: reference states and dense operators."""

import math

import numpy as np

from gaussbs.cli import _point_dicts
from gaussbs.fock import _beam_splitter_sectors, _thermal_weights
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
    """Dense form of the sector-blocked beam-splitter unitary, index n1 * dim + n2."""
    blocks = _beam_splitter_sectors(theta, phi, dim)
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    order = np.lexsort((n1, n1 + n2))  # flat indices in sector order
    u = np.zeros((dim * dim, dim * dim), dtype=blocks[0].dtype)
    lo = 0
    for block in blocks:
        flat = order[lo : lo + block.shape[0]]
        u[np.ix_(flat, flat)] = block
        lo += block.shape[0]
    return u


def dense_output(rho1: np.ndarray, rho2: np.ndarray, bs: BeamSplitter) -> np.ndarray:
    """U (rho1 x rho2) U^ in the product basis, index n1 * dim + n2."""
    u = _beam_splitter_unitary(bs.theta, bs.phi, rho1.shape[0])
    return u @ np.kron(rho1, rho2) @ u.conj().T


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second mode's indices of a product-basis matrix."""
    d = math.isqrt(rho.shape[0])
    return rho.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


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
    for rows, columns, _ in grid.chunks():
        yield from _point_dicts(rows, columns)
