"""Independent verification engine in a truncated Fock basis.

Builds the squeezed-thermal and thermal inputs as explicit density
matrices, applies the beam-splitter unitary, and evaluates the logarithmic
negativity as the log trace norm of the partially transposed output.  No
covariance-level shortcut is used anywhere, so agreement with the Gaussian
formulas is a genuine cross-check.

Both unitaries come from one routine.  In a fixed Fock parity the squeezer
generator, and in a fixed total photon number the beam-splitter generator,
is a real tridiagonal matrix (SU(1,1) and SU(2)), exponentiated through the
eigendecomposition of a symmetric tridiagonal matrix (``_sector_block``).
A phase is a rotation by e^{i angle n}, so a rotated state or block is the
real one scaled entrywise and no complex exponential is taken.  At
``phi = phi_b = 0`` the states, the two-mode output, its partial transpose
and the eigensolve all stay in float64.  A non-zero phase builds the
states and the two-mode output in complex128 through the same functions,
so the oracle still tests phase independence rather than assuming it.
The output is then un-rotated by its inputs' local phases, checked to be
real to rounding, and transposed and diagonalized in float64
(``_unrotated``): the eigensolve, most of the time of a point, runs real.

The two-mode state is never held in the product basis.  The squeezed and
thermal inputs couple only Fock numbers of equal parity, by construction,
and the beam splitter conserves total photon number, so the output couples
only states of equal total parity.  It is built as two class matrices,
total number even and odd, straight from the squeezed state and the
thermal weights.  Within a class the states run by parity quadrant
(n1 mod 2, n2 mod 2), then by (n1 // 2, n2 // 2) (``_quadrants``).  In that
layout the partial transpose sends each block between two quadrants to
exactly one such block, so it is written over the class matrices
themselves, one slice at a time.  Each of its two class blocks is then
deflated, then diagonalized in place: states whose rows stay below float64
rounding of the block's largest entry, up to about half of them in a
W = 40 to 60 window, are left out of the eigensolve (``_deflated``).  At
W = 40 the stage peaks at about 0.57 of a matrix of ``W^4`` entries
(``_LIVE_COPIES``, rounded up).  The class matrices each live in an
anonymous memory map of their own (``_mapped_matrix``), so that the
resident peak of a point does not depend on the points run before it in
the same process.  A point whose window would not fit in the memory still
available is skipped with the note "memory" instead of being allocated.

Truncation is handled honestly, never by renormalizing: the comparison
harness checks the mass lost by the squeezed window, the thermal tail and
the two-mode output, in that order, against the budget ``tol_trace``,
escalates the cutoff past any stage over budget in steps of 20 up to 120,
and records a skip if even that is not enough.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import ScenarioParams, negativity_closed_form
from .states import BeamSplitter, DomainError, GaussianSpec

_HERMITICITY_TOL = 1e-10
# Largest imaginary part, relative to the largest entry, that an un-rotated
# output may keep as rounding (``_unrotated``); measured at most 6.2e-16 at
# W = 80, growing slowly with the window.
_REALITY_TOL = 1e-13
# Square tiles of this many rows bound the temporaries of the in-place
# Hermitian averaging; tiles this small stay in cache, which measured about
# three times faster than 512.
_TILE = 128
_MAX_ESCALATION_DIM = 120
_ESCALATION_STEP = 20
# Single-mode states are synthesized on an enlarged working space before
# being compressed to the requested cutoff: exponentiating the generator
# truncated at the cutoff itself reflects amplitude off the boundary and
# corrupts the delivered window, while compressing a wider build leaves
# only the honestly reported tail loss.
_WORK_MARGIN = 64
# The trace norm of a partial transpose amplifies input tail loss by up to
# two orders of magnitude, so the comparison harness pads the two-mode
# stage with a guard band sized from the measured window leakage instead
# of trusting the bare cutoff.
_COMPARE_GUARDS = (0, 8, 16, 24)
# Window leakage this far below the comparison tolerance keeps the
# amplified tail error out of the reported negativity difference.
_GUARD_SAFETY = 300.0
# Peak of the two-mode stage of one oracle point, in matrices of W^4
# entries of the working dtype, rounded up: the two parity class matrices
# (half a matrix), which the partial transpose and then the eigensolve
# overwrite, plus temporaries of about W^3 entries.  tracemalloc measured
# 0.68 (real) and 0.74 (complex) at W = 24, 0.57 and 0.57 at W = 40, and
# 0.54 (real) at W = 60.
_LIVE_COPIES = 1
# Memory cgroup (limit, usage) files, v2 then v1 layout.
_CGROUP_MEMORY_FILES = (
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
    ("/sys/fs/cgroup/memory/memory.limit_in_bytes", "/sys/fs/cgroup/memory/memory.usage_in_bytes"),
)


@dataclass(frozen=True)
class OracleConfig:
    """Starting cutoff, 4 to 120, and tolerances for the Fock-space checks."""

    dim: int = 40
    tol_trace: float = 1e-8
    tol_compare: float = 1e-3

    def __post_init__(self):
        number = isinstance(self.dim, (int, float, np.integer)) and math.isfinite(self.dim)
        if not number or int(self.dim) != self.dim or self.dim < 4:
            raise DomainError(f"cutoff dimension must be an integer >= 4, got {self.dim!r}")
        if self.dim > _MAX_ESCALATION_DIM:
            raise DomainError(
                f"cutoff dimension {self.dim} exceeds the escalation cap {_MAX_ESCALATION_DIM}"
            )
        for name in ("tol_trace", "tol_compare"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        object.__setattr__(self, "dim", int(self.dim))


def _hermitize(a: np.ndarray) -> None:
    """Replace square ``a`` by (a + a^)/2 in place, after checking it was Hermitian.

    Works tile by tile, so no temporary of the full size is allocated.  The
    result is exactly Hermitian: mirrored entries are computed from the
    same two operands.
    """
    n = a.shape[0]
    defect = peak = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = a[i : i + _TILE, j : j + _TILE]
            lower = a[j : j + _TILE, i : i + _TILE]
            lower_h = lower.conj().T
            defect = max(defect, float(np.abs(upper - lower_h).max(initial=0.0)))
            mean = upper + lower_h
            mean *= 0.5
            peak = max(peak, float(np.abs(mean).max(initial=0.0)))
            upper[...] = mean
            lower[...] = mean.conj().T
    if defect > _HERMITICITY_TOL * max(peak, 1.0):
        raise DomainError("density matrix must be Hermitian")


def _rotated(real: np.ndarray, angle: float) -> np.ndarray:
    """``real`` conjugated by diag(e^{i angle n}): entry [m, n] times e^{i (m - n) angle}.

    Index differences are all that matter, so a block whose rows start at
    any Fock number takes the same scaling.
    """
    d = np.exp(1j * angle * np.arange(real.shape[0]))
    return np.outer(d, d.conj()) * real


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    n = np.arange(dim)
    return (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)


def fock_squeezed_thermal(spec: GaussianSpec, dim: int) -> np.ndarray:
    """S rho_th S^ with the thermal seed and squeezing matched to (tau, u).

    The seed occupation is (1 - u) / (2 u) (the symplectic eigenvalue
    1/(2u) minus the vacuum half) and the squeezing obeys
    e^{-2r} = u (1 - 2 tau), so the first and second moments of the result
    reproduce ``covariance_from_spec`` exactly in the untruncated limit.
    The generator r (a a - a^ a^) / 2 couples n with n + 2 only, so the
    squeezer is one real tridiagonal block per Fock parity, exponentiated
    on a working space ``dim + _WORK_MARGIN`` wide and then compressed; the
    returned matrix agrees with the exact state up to its tail leakage, and
    its entries between Fock numbers of opposite parity are exactly zero.
    The phase is a rotation, S(r e^{i phi_b}) = R S(r) R^ with
    R = diag(e^{i n phi_b / 2}), which commutes with the diagonal seed.
    Exactly Hermitian; float64 when ``phi_b == 0``, else complex128.  A
    ``dim`` that is not an integer >= 1 raises ``DomainError``.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DomainError(f"cutoff dimension must be an integer >= 1, got {dim!r}")
    nbar_seed = (1.0 - spec.u) / (2.0 * spec.u)
    r = -0.5 * math.log(spec.u * (1.0 - 2.0 * spec.tau))
    work = dim + _WORK_MARGIN
    seed = _thermal_weights(nbar_seed, work)
    rho = np.zeros((dim, dim))
    for parity in (0, 1):
        # a^2 sends n + 2 -> n with amplitude sqrt((n + 1)(n + 2)).
        n = np.arange(parity, work - 2, 2)
        block = _sector_block(-0.5 * r * np.sqrt((n + 1.0) * (n + 2.0)))
        rows = block[: len(range(parity, dim, 2))]
        rho[parity::2, parity::2] = (rows * seed[parity::2]) @ rows.T
    if spec.phi_b != 0.0:
        rho = _rotated(rho, 0.5 * spec.phi_b)
    _hermitize(rho)
    return rho


def _leakage(rho: np.ndarray) -> float:
    """Probability mass missing from ``rho``: |1 - trace|."""
    return abs(1.0 - float(np.trace(rho).real))


def _sector_block(hop: np.ndarray) -> np.ndarray:
    """exp(G) for the real tridiagonal G with G[j + 1, j] = -G[j, j + 1] = hop[j].

    With S = diag(i^j), G = S (-i T) S^ for the real symmetric tridiagonal
    T with off-diagonal ``hop``, so exp(G)[j, k] = i^(j - k) (C - i D)[j, k]
    with C = cos T and D = sin T.  T is bipartite, so C couples only even
    and D only odd distances j - k, and exp(G) is C or D with the sign of
    i^(j - k).  Taken from the eigendecomposition of T, this is accurate to
    about 1e-14 where scipy's real matrix exponential of G is off by up to
    4e-13.  scipy is imported on the first call, so that importing
    gaussbs, and every Gaussian-route command, goes without it.
    """
    from scipy.linalg import eigh_tridiagonal

    size = hop.size + 1
    if size == 1:
        return np.ones((1, 1))
    angles, vectors = eigh_tridiagonal(np.zeros(size), hop)
    cos_t = (vectors * np.cos(angles)) @ vectors.T
    sin_t = (vectors * np.sin(angles)) @ vectors.T
    distance = np.subtract.outer(np.arange(size), np.arange(size)) % 4
    return np.where(distance % 2 == 0, cos_t, sin_t) * np.where(distance < 2, 1.0, -1.0)


@lru_cache(maxsize=8)
def _beam_splitter_sectors(theta: float, phi: float, dim: int) -> tuple:
    """Per-sector blocks of exp(theta (e^{i phi} a1^ a2 - e^{-i phi} a1 a2^)).

    The generator conserves total photon number, so it is exponentiated
    sector by sector; the assembled operator equals the exponential of the
    truncated generator, is exactly unitary on the truncated space, and
    satisfies U^ a_i U = (M_B a)_i exactly within complete sectors (total
    number <= dim - 1).  Block ``t`` of the returned tuple acts on the
    states (n1, t - n1) of total ``t``, n1 ascending.  At ``phi == 0`` the
    blocks are real.  The phase is a rotation by e^{i phi n1}, so a rotated
    block is the real one scaled entrywise, B(phi)[m, n] = e^{i (m - n) phi}
    B(0)[m, n], and no complex exponential is taken.  The arrays are shared
    by every caller and read-only.
    """
    if phi != 0.0:
        blocks = [_rotated(real, phi) for real in _beam_splitter_sectors(theta, 0.0, dim)]
    else:
        blocks = []
        for total in range(2 * dim - 1):
            n1 = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
            # a1^ a2 sends (n1, n2) -> (n1 + 1, n2 - 1) within the sector.
            blocks.append(_sector_block(theta * np.sqrt((n1[:-1] + 1.0) * (total - n1[:-1]))))
    for block in blocks:
        block.setflags(write=False)
    return tuple(blocks)


def _mapped_matrix(n: int, dtype) -> np.ndarray:
    """A zero-filled n x n array in an anonymous memory map of its own.

    glibc's malloc serves a block below its mmap threshold from the heap,
    which keeps freed memory resident, and raises that threshold to the size
    of each mapped block it frees.  From malloc, where a class matrix lands,
    and so the process's resident peak, would depend on which window sizes
    ran before.  A map of its own is returned to the system as soon as the
    array is released.
    """
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, n * n * dtype.itemsize), dtype).reshape(n, n)


def _quadrants(dim: int) -> dict:
    """Where each parity quadrant of two-mode states sits in its class matrix.

    A state (n1, n2) belongs to class (n1 + n2) mod 2.  Within class ``c``
    the states run by quadrant (n1 mod 2, n2 mod 2), (0, c) before
    (1, 1 - c), and within a quadrant by (n1 // 2, n2 // 2) in row-major
    order.  Maps each quadrant (p1, p2) to ``(offset, h1, h2)``: its first
    index in the class matrix and its extents in n1 // 2 and n2 // 2.
    """
    h = ((dim + 1) // 2, dim // 2)
    return {(p1, p2): (p1 * h[0] * h[1 - p2], h[p1], h[p2]) for p1 in (0, 1) for p2 in (0, 1)}


def _class_numbers(dim: int, c: int) -> tuple:
    """Fock numbers (n1, n2) of the states of class ``c``, in class order (see ``_quadrants``)."""
    quads = _quadrants(dim)
    n1, n2 = [], []
    for p1 in (0, 1):
        _, h1, h2 = quads[p1, c ^ p1]
        i1, i2 = np.divmod(np.arange(h1 * h2), h2)
        n1.append(p1 + 2 * i1)
        n2.append((c ^ p1) + 2 * i2)
    return np.concatenate(n1), np.concatenate(n2)


def _output_class(rho1: np.ndarray, weights: np.ndarray, blocks, c: int) -> np.ndarray:
    """Class ``c`` of U (rho1 x diag(weights)) U^ in the quadrant layout (see ``_quadrants``).

    First Y = (rho1 x diag(weights)) U^: U conserves total photon number, so
    Y[(a, b), (c1, c2)] = weights[b] rho1[a, t - b] conj(U[(c1, c2), (t - b, b)])
    with t = c1 + c2, and zero where t - b is not a Fock number of the
    window.  The rows of one b are evenly strided in the class matrix and
    are written in one gather from rho1 and the sector blocks.  Then U Y,
    in place, one sector at a time: the rows of sector t, the states
    (n1, t - n1), form two evenly strided row sets, one per parity of n1,
    so each sector is four products of the block's parity parts with
    strided row views.  rho1 couples only Fock numbers of equal parity, so
    Y, like the output, couples no two states of different class.
    """
    dim = rho1.shape[0]
    quads = _quadrants(dim)
    n1, n2 = _class_numbers(dim, c)  # of the columns (c1, c2)
    total = n1 + n2
    sectors = blocks[c::2]
    sizes = np.array([block.shape[0] for block in sectors])
    starts = np.cumsum(sizes**2) - sizes**2
    lo = np.maximum(0, total - dim + 1)
    # flat[base + a] is conj(U[(c1, c2), (a, t - a)]) for every column (c1, c2).
    flat = np.concatenate([block.conj().ravel() for block in sectors])
    base = starts[total // 2] + (n1 - lo) * sizes[total // 2] - lo
    mat = _mapped_matrix(total.size, np.result_type(rho1, weights, blocks[0]))
    for b in range(dim):
        a = total - b
        inside = (a >= 0) & (a < dim)
        factor = np.where(inside, flat[np.where(inside, base + a, 0)], 0.0) * weights[b]
        pa = c ^ (b & 1)
        offset, h1, h2 = quads[pa, b & 1]
        rows = mat[offset + b // 2 : offset + h1 * h2 : h2]
        np.multiply(rho1[pa::2].take(a, axis=1, mode="clip"), factor, out=rows)
    for t, block in zip(range(c, 2 * dim - 1, 2), sectors):
        first = max(0, t - dim + 1)
        parts = []
        for p1 in (0, 1):
            n1_first = first + ((first ^ p1) & 1)
            count = len(range(n1_first, min(t, dim - 1) + 1, 2))
            offset, _, h2 = quads[p1, (t - p1) & 1]
            row = offset + (n1_first // 2) * h2 + (t - n1_first) // 2
            step = max(h2 - 1, 1)  # n1 up by 2 and n2 down by 2
            parts.append((slice(n1_first - first, None, 2), mat[row : row + step * count : step]))
        (even, y_even), (odd, y_odd) = parts
        # Contiguous parity parts, so that the products run in BLAS.
        new_even, new_odd = (
            np.ascontiguousarray(block[p, even]) @ y_even
            + np.ascontiguousarray(block[p, odd]) @ y_odd
            for p in (even, odd)
        )
        y_even[...], y_odd[...] = new_even, new_odd
    return mat


def _output_classes(rho1: np.ndarray, weights: np.ndarray, bs: BeamSplitter) -> tuple[list, float]:
    """U (rho1 x diag(weights)) U^ as its two class matrices, Hermitian averaged.

    ``weights`` is the diagonal of the second input.  Returns the matrices
    and their leakage, |1 - total trace|; comparing it with a budget is the
    caller's decision.
    """
    sectors = _beam_splitter_sectors(bs.theta, bs.phi, rho1.shape[0])
    mats = [_output_class(rho1, weights, sectors, c) for c in (0, 1)]
    for mat in mats:
        _hermitize(mat)
    leakage = abs(1.0 - sum(np.trace(mat).real for mat in mats))
    return mats, leakage


def _unrotated(mats: list, dim: int, phi: float, phi_b: float) -> list:
    """The real state whose local rotation the complex class matrices ``mats`` hold.

    R_j(a) = e^{i a n_j} rotates mode j.  The squeezed input is
    R_1(phi_b / 2) rho_1 R_1^ and the beam splitter R_1(phi) B_0 R_1(phi)^;
    the thermal input is diagonal and the total-number rotation commutes
    with B_0, so the output is D rho_real D^ with D = R_1(phi_b / 2)
    R_2(phi_b / 2 - phi).  Each truncated sector block obeys the same
    relations, so this holds for the truncated build too.  Entry (j, k) is
    multiplied by conj(d_j) d_k, d = e^{i (phi_b / 2 n1 + (phi_b / 2 - phi) n2)},
    and its real part is written over the front of the complex buffer, one
    row at a time, so no class-sized temporary exists.  Returns the float64
    class matrices, views of those buffers.

    The imaginary parts left must be rounding, at most ``_REALITY_TOL`` of
    the largest entry; a larger one means the build is not the rotation of
    a real state, an engine defect, and raises ``RuntimeError``.  Dropping
    an imaginary part E moves the eigenvalues of the partial transpose by
    sum |d lambda| <= ||E^T2||_1 (Lidskii-Mirsky; Bhatia, Matrix Analysis,
    ch. IV) <= sqrt(n) ||E||_F <= n^{3/2} max |E| in a class of n states,
    as the partial transpose permutes entries: at the check's bound, at
    most 1.1e-7 of the largest entry at the widest window, 144 (n = 10368).
    """
    real = []
    defect = peak = 0.0
    for c, mat in enumerate(mats):
        n1, n2 = _class_numbers(dim, c)
        d = np.exp(1j * (0.5 * phi_b * n1 + (0.5 * phi_b - phi) * n2))
        n = mat.shape[0]
        front = mat.reshape(-1).view(np.float64)[: n * n].reshape(n, n)
        row = np.empty(n, complex)
        for j in range(n):
            # Row j of the floats ends before row j + 1 of the complex
            # entries starts, so no row is overwritten before it is read.
            np.multiply(mat[j], d, out=row)
            row *= d[j].conjugate()
            defect = max(defect, float(np.abs(row.imag).max(initial=0.0)))
            peak = max(peak, float(np.abs(row.real).max(initial=0.0)))
            front[j] = row.real
        real.append(front)
    if defect > _REALITY_TOL * peak:
        raise RuntimeError(
            f"rotated output is not a local rotation of a real state: imaginary part "
            f"{defect:.3e} against a largest entry of {peak:.3e}"
        )
    return real


def _partial_transpose(mats: list, dim: int) -> None:
    """Overwrite the class matrices of a state with the class blocks of its partial transpose.

    The partial transpose takes the block between quadrants (a1, a2) and
    (b1, b2) from the state's block between (a1, b2) and (b1, a2), with the
    axis swap (m1, n2, n1, m2) -> (m1, m2, n1, n2) of its 4-index view.  A
    diagonal block is its own source and is transposed inside its buffer;
    the off-diagonal blocks of the two classes are each other's source and
    are swapped.  Either way one slice of fixed m1 moves at a time, so no
    block-sized temporary exists.  Afterwards ``mats[q]`` holds class q of
    the partial transpose, the states with m1 + m2 = q mod 2, in the same
    layout.
    """
    quads = _quadrants(dim)

    def view(a, b):
        (row, h1, h2), (col, k1, k2) = quads[a], quads[b]
        block = mats[sum(a) % 2][row : row + h1 * h2, col : col + k1 * k2]
        return block.reshape(h1, h2, k1, k2)  # a view: splitting axes never copies

    for quad in quads:
        block = view(quad, quad)
        for i in range(block.shape[0]):
            block[i] = block[i].transpose(2, 1, 0).copy()
    for p in (0, 1):
        x, y = view((p, p), (1 - p, 1 - p)), view((p, 1 - p), (1 - p, p))
        for i in range(x.shape[0]):
            keep = x[i].copy()
            x[i] = y[i].transpose(2, 1, 0)
            y[i] = keep.transpose(2, 1, 0)


def _deflated(block: np.ndarray) -> np.ndarray:
    """The states of Hermitian ``block`` that carry weight, compacted over its front.

    A state is dropped when every entry of its row, and so of its column,
    is at most eps, float64's rounding unit, times the largest entry of the
    block.  The row maxima are scanned ``_TILE`` rows at a time, and the
    kept k x k submatrix is written over the front of the block's own
    buffer, one row at a time: row j of the destination ends before source
    row keep[j + 1] starts, so no row is overwritten before it is read.
    Returns that C-ordered front view, the block itself when every state is
    kept, and an empty view when the block is zero.

    Dropping a set S of states perturbs the block by E of rank at most
    2|S|, with ||E||_F <= eps peak sqrt(2 |S| n) in a block of n states,
    so the trace norm moves by at most ||E||_1 <= sqrt(2 |S|) ||E||_F =
    2 |S| sqrt(n) eps peak.  The partial transpose of a state has no entry
    above 1, so that is at most 1.0e-11 at W = 40 (n = 800), 2.7e-10 at
    W = 120 (n = 7200) and 4.7e-10 at the widest window, 144: the order of
    the eigensolve's own rounding.
    """
    n = block.shape[0]
    row_max = np.empty(n)
    for i in range(0, n, _TILE):
        np.abs(block[i : i + _TILE]).max(axis=1, initial=0.0, out=row_max[i : i + _TILE])
    keep = np.flatnonzero(row_max > np.finfo(float).eps * row_max.max(initial=0.0))
    k = keep.size
    if k == n:
        return block
    front = block.reshape(-1)[: k * k].reshape(k, k)
    for j, row in enumerate(keep):
        front[j] = block[row, keep]
    return front


def _pt_trace_norm(mats: list, dim: int) -> float:
    """Sum of |eigenvalues| of the partial transpose of a state given as class matrices.

    The partial transpose couples (m1, m2) with (n1, n2) only where the
    state couples (m1, n2) with (n1, m2), so it splits into the same
    classes by m1 + m2.  It is written over the class matrices, which are
    consumed, and each block is deflated (``_deflated``), then diagonalized
    in place.
    """
    from scipy.linalg import eigh

    _partial_transpose(mats, dim)
    norm = 0.0
    for block in mats:
        block = _deflated(block)
        if block.size == 0:
            continue
        # block.T is the Fortran-ordered view of a Hermitian matrix; its
        # eigenvalues are those of the block, and LAPACK works on it in place.
        eigenvalues = eigh(block.T, eigvals_only=True, overwrite_a=True, check_finite=False)
        norm += float(np.abs(eigenvalues).sum())
    return norm


@dataclass(frozen=True)
class OracleComparison:
    """One grid point of the Gaussian-vs-Fock cross-check."""

    params: ScenarioParams
    n_gaussian: float
    n_fock: float
    abs_diff: float
    leakage: float
    dim_used: int
    status: str  # "pass", "fail", or "skip"
    note: str = ""


def _available_memory() -> int | None:
    """Bytes this process can still allocate, or None when nothing says.

    MemAvailable from /proc/meminfo, capped by the memory cgroup's limit
    less its usage; a file that is missing or unreadable is ignored.
    """
    limits = []
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError):
        pass
    for limit_path, usage_path in _CGROUP_MEMORY_FILES:
        try:
            with open(limit_path, encoding="ascii") as handle:
                limit = int(handle.read())
            with open(usage_path, encoding="ascii") as handle:
                limits.append(limit - int(handle.read()))
        except (OSError, ValueError):
            continue
    return min(limits) if limits else None


def _pick_guard(wide: np.ndarray, base_dim: int, target: float) -> int:
    """Smallest guard whose window keeps the tail loss below ``target``.

    ``wide`` is the single-mode state built at ``base_dim`` plus the
    largest guard; smaller windows are exact compressions of it, so their
    leakage is read off the diagonal instead of rebuilding.
    """
    occupations = np.cumsum(np.diag(wide).real)
    for guard in _COMPARE_GUARDS:
        if abs(1.0 - occupations[base_dim + guard - 1]) <= target:
            return guard
    return _COMPARE_GUARDS[-1]


def compare_with_gaussian(params: ScenarioParams, cfg: OracleConfig) -> OracleComparison:
    """Evaluate both routes at one parameter point, escalating the cutoff.

    The Fock side runs at ``cfg.dim`` plus an adaptive guard band: the
    partial-transpose trace norm amplifies whatever probability mass the
    window misses, so the window is widened until the measured tail loss
    sits well below the comparison tolerance.  Base dimensions grow in
    steps of 20 up to 120, past any cutoff at which the window, the thermal
    tail or the output, checked in that order, leaks more than
    ``cfg.tol_trace``; a point still over budget at 120 is skipped with the
    first such leakage, and a verdict reports the largest.  Before a window
    is allocated, its predicted peak of ``_LIVE_COPIES`` matrices of W^4
    entries (8 bytes an entry when both phases are zero, else 16) is
    compared with the memory still available; a point that does not fit
    is skipped with a note starting "memory", since wider windows would
    need more.
    """
    n_gaussian = negativity_closed_form(params)
    dims = list(range(cfg.dim, _MAX_ESCALATION_DIM + 1, _ESCALATION_STEP))
    if dims[-1] != _MAX_ESCALATION_DIM:
        dims.append(_MAX_ESCALATION_DIM)
    last_leakage = math.nan
    target = cfg.tol_compare / _GUARD_SAFETY
    for dim in dims:
        wide = fock_squeezed_thermal(params.spec(), dim + _COMPARE_GUARDS[-1])
        guard = _pick_guard(wide, dim, target)
        window = dim + guard
        rho1 = wide[:window, :window]
        itemsize = 16 if params.phi != 0.0 or np.iscomplexobj(rho1) else 8
        need = _LIVE_COPIES * itemsize * window**4
        free = _available_memory()
        if free is not None and need > free:
            note = f"memory: window {window} needs {need >> 20} MiB, {free >> 20} MiB available"
            return OracleComparison(
                params, n_gaussian, math.nan, math.nan, _leakage(rho1), dim, "skip", note
            )
        weights = _thermal_weights(params.nbar, window)
        leakages = [_leakage(rho1), _leakage(np.diag(weights))]
        if not any(leakage > cfg.tol_trace for leakage in leakages):
            mats, out_leakage = _output_classes(rho1, weights, params.splitter())
            leakages.append(out_leakage)
        over = [leakage for leakage in leakages if leakage > cfg.tol_trace]
        if over:
            last_leakage = over[0]
            continue
        if np.iscomplexobj(mats[0]):
            mats = _unrotated(mats, window, params.phi, params.phi_b)
        n_fock = max(0.0, math.log2(_pt_trace_norm(mats, window)))
        diff = abs(n_gaussian - n_fock)
        status = "pass" if diff <= cfg.tol_compare else "fail"
        note = f"guard={guard}" if guard else ""
        return OracleComparison(params, n_gaussian, n_fock, diff, max(leakages), dim, status, note)
    return OracleComparison(
        params,
        n_gaussian,
        math.nan,
        math.nan,
        last_leakage,
        _MAX_ESCALATION_DIM,
        "skip",
        note=f"leakage {last_leakage:.3e} above budget at dim={_MAX_ESCALATION_DIM}",
    )
