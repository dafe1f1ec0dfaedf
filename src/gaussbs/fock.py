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
The phases act on the two-mode output as a local unitary, which leaves the
trace norm of its partial transpose unchanged, so the engine builds only
the states at ``phi = phi_b = 0`` and the comparison evaluates every point
on that twin (``compare_with_gaussian``): every stage runs in float64.

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
deflated and diagonalized: the lightest states, as many as can go while
the rows and columns they leave out provably move the trace norm by no
more than a budget, are left out of the eigensolve (``_deflated``), and
numpy diagonalizes a copy of the kept ones.  A left-out state moves the
trace norm by at most twice the norm of its row.  The comparison takes
that budget from ``tol_compare`` (``compare_with_gaussian``).  Part of it
is spent before the build: the product of the output's two photon-number
marginals, read off its O(W^3) diagonal (``_output_diagonal``), bounds
the squared norm of every row of the partial transpose, and the lightest
states by it fix the W1 x W2 sub-box of Fock numbers that is built
(``_box``).  At the default, a W = 40 to 60 window builds an eleventh to
all of its entries and keeps between a tenth and three quarters of its
states, depending on the point.  The stage peaks at about 0.55 to 0.76 of
a matrix of (W1 W2)^2 entries there, and at 0.77 of one of ``W^4`` when
every state is kept (``_LIVE_COPIES``, rounded up).  The class matrices
each live in a private, prefaulted anonymous memory map of their own
(``_mapped_matrix``), so that the resident peak of a point does not
depend on the points run before it in the same process.  A point whose
window would not fit in the memory still available is skipped with the
note "memory" instead of being allocated.

The engine needs numpy alone, so a process loads one BLAS library and
runs one BLAS thread pool.

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
from .states import DomainError, GaussianSpec

_HERMITICITY_TOL = 1e-10
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
# Peak of the two-mode stage of one oracle point, in float64 matrices of
# W^4 entries, rounded up: the two parity class matrices of the W1 x W2 box
# (half a matrix of (W1 W2)^2 entries), which the partial transpose
# overwrites, the eigensolve's copy of the kept states of one class block
# (at most a quarter of one), and temporaries of about W^3 entries.  The
# box is never wider than the window, so the bound holds for every box.
# With the default tol_compare the resident peak over the stage measured,
# in matrices of (W1 W2)^2 entries, 0.76 and 0.70 at W = 40 with boxes of
# 17 x 28 and 24 x 24, 0.66 at W = 40 with the whole window, 0.57 at
# W = 56 (56 x 48) and 0.62 at W = 60 (60 x 26): 0.07 to 0.66 of a W^4
# matrix.  With every state kept, as a budget of 0 may keep them, it
# measured 0.77 of W^4 at W = 56 and 60; tracemalloc, which does not see
# the eigensolve's copy, 0.68 at W = 24 and 0.56 to 0.93 of a box matrix
# at W = 40 to 60, the most for the smallest box, where temporaries of
# W^3 entries weigh most.
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
    same two operands.  The check is absolute: no two mirrored entries may
    differ by more than ``_HERMITICITY_TOL``.  Every entry of a density
    matrix is at most 1 in modulus, |rho_ij| <= sqrt(rho_ii rho_jj), so no
    tolerance relative to the largest entry could be tighter.
    """
    n = a.shape[0]
    defect = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = a[i : i + _TILE, j : j + _TILE]
            lower = a[j : j + _TILE, i : i + _TILE]
            # One temporary holds the difference, then the mean.
            tile = upper - lower.T
            defect = max(defect, float(np.abs(tile, out=tile).max(initial=0.0)))
            np.add(upper, lower.T, out=tile)
            tile *= 0.5
            upper[...] = tile
            lower[...] = tile.T
    if defect > _HERMITICITY_TOL:
        raise DomainError("density matrix must be Hermitian")


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
    Exactly Hermitian and float64, built at phi_b = 0 only: S(r e^{i phi_b})
    = R S(r) R^ with R = diag(e^{i n phi_b / 2}), which commutes with the
    seed, so the state at phi_b is R rho R^.  A nonzero ``spec.phi_b``, or a
    ``dim`` that is not an integer >= 1, raises ``DomainError``.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DomainError(f"cutoff dimension must be an integer >= 1, got {dim!r}")
    if spec.phi_b != 0.0:
        raise DomainError(
            f"the Fock engine builds phi_b = 0 only, got phi_b = {spec.phi_b!r}; the state at phi_b "
            "is the local rotation R rho R^dagger of it, with R = diag(exp(i n phi_b / 2))"
        )
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
    _hermitize(rho)
    return rho


def _leakage(p: np.ndarray) -> float:
    """Probability mass missing from the photon-number probabilities ``p``: |1 - sum|."""
    return abs(1.0 - float(np.sum(p)))


def _sector_block(hop: np.ndarray) -> np.ndarray:
    """exp(G) for the real tridiagonal G with G[j + 1, j] = -G[j, j + 1] = hop[j].

    With S = diag(i^j), G = S (-i T) S^ for the real symmetric tridiagonal
    T with off-diagonal ``hop``, so exp(G)[j, k] = i^(j - k) (C - i D)[j, k]
    with C = cos T and D = sin T.  T is bipartite, so C couples only even
    and D only odd distances j - k, and exp(G) is C or D with the sign of
    i^(j - k).  Taken from the eigendecomposition of T, held dense (at most
    144 wide), this is accurate to about 1e-14 where scipy's real matrix
    exponential of G is off by up to 4e-13.
    """
    size = hop.size + 1
    angles, vectors = np.linalg.eigh(np.diag(hop, 1), UPLO="U")
    cos_t = (vectors * np.cos(angles)) @ vectors.T
    sin_t = (vectors * np.sin(angles)) @ vectors.T
    distance = np.subtract.outer(np.arange(size), np.arange(size)) % 4
    return np.where(distance % 2 == 0, cos_t, sin_t) * np.where(distance < 2, 1.0, -1.0)


@lru_cache(maxsize=8)
def _beam_splitter_sectors(theta: float, dim: int) -> tuple:
    """Per-sector blocks of exp(theta (a1^ a2 - a1 a2^)), the splitter at phi = 0.

    The generator conserves total photon number, so it is exponentiated
    sector by sector; the assembled operator equals the exponential of the
    truncated generator, is exactly unitary on the truncated space, and
    satisfies U^ a_i U = (M_B a)_i exactly within complete sectors (total
    number <= dim - 1).  Block ``t`` of the returned tuple acts on the
    states (n1, t - n1) of total ``t``, n1 ascending.  The blocks are real,
    shared by every caller and read-only.
    """
    blocks = []
    for total in range(2 * dim - 1):
        n1 = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
        # a1^ a2 sends (n1, n2) -> (n1 + 1, n2 - 1) within the sector.
        blocks.append(_sector_block(theta * np.sqrt((n1[:-1] + 1.0) * (total - n1[:-1]))))
        blocks[-1].setflags(write=False)
    return tuple(blocks)


def _mapped_matrix(n: int) -> np.ndarray:
    """A zero-filled float64 n x n array in a private anonymous memory map of its own.

    glibc's malloc serves a block below its mmap threshold from the heap,
    which keeps freed memory resident, and raises that threshold to the size
    of each mapped block it frees.  From malloc, where a class matrix lands,
    and so the process's resident peak, would depend on which window sizes
    ran before.  A map of its own is returned to the system as soon as the
    array is released.  The map is private and, where the platform has
    ``MAP_POPULATE``, prefaulted: its pages are zeroed in one call instead
    of faulting in one by one on first write.  A map holds at least one
    byte, so n may be 0.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, max(8 * n * n, 1), flags=flags), count=n * n).reshape(n, n)


def _quadrants(w1: int, w2: int) -> dict:
    """Where each parity quadrant of the states of a w1 x w2 box sits in its class matrix.

    A state (n1, n2), n1 < w1 and n2 < w2, belongs to class (n1 + n2) mod 2.
    Within class ``c`` the states run by quadrant (n1 mod 2, n2 mod 2),
    (0, c) before (1, 1 - c), and within a quadrant by (n1 // 2, n2 // 2) in
    row-major order.  Maps each quadrant (p1, p2) to ``(offset, h1, h2)``:
    its first index in the class matrix and its extents in n1 // 2 and
    n2 // 2.
    """
    h1, h2 = ((w1 + 1) // 2, w1 // 2), ((w2 + 1) // 2, w2 // 2)
    return {(p1, p2): (p1 * h1[0] * h2[1 - p2], h1[p1], h2[p2]) for p1 in (0, 1) for p2 in (0, 1)}


def _class_numbers(w1: int, w2: int, c: int) -> tuple:
    """Fock numbers (n1, n2) of the states of class ``c`` of a w1 x w2 box, in class order."""
    quads = _quadrants(w1, w2)
    n1, n2 = [], []
    for p1 in (0, 1):
        _, h1, h2 = quads[p1, c ^ p1]
        i1, i2 = np.divmod(np.arange(h1 * h2), h2)
        n1.append(p1 + 2 * i1)
        n2.append((c ^ p1) + 2 * i2)
    return np.concatenate(n1), np.concatenate(n2)


def _output_diagonal(rho1: np.ndarray, weights: np.ndarray, sectors) -> np.ndarray:
    """p[n1, n2], the diagonal of U (rho1 x diag(weights)) U^, in O(W^3).

    Within sector t the input couples (a, t - a) with (a', t - a') only
    through weights[t - a] when a = a', so it is diagonal there, and
    p(n1, t - n1) = sum_a U_t[n1, a]^2 rho1[a, a] weights[t - a]: one
    mat-vec per sector block.
    """
    dim = rho1.shape[0]
    occupation = np.diag(rho1)
    p = np.zeros((dim, dim))
    for t, block in enumerate(sectors):
        a = np.arange(max(0, t - dim + 1), min(t, dim - 1) + 1)
        p[a, t - a] = np.square(block) @ (occupation[a] * weights[t - a])
    return p


def _lightest(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States by ascending ``weight``, and the bound on the trace norm of dropping the lightest.

    ``weight`` holds squared row norms, and entry s - 1 of the bound is
    2 sum sqrt(w) over the s lightest weights w (see ``_deflated``).
    """
    lightest = np.argsort(weight, kind="stable")
    return lightest, 2.0 * np.cumsum(np.sqrt(weight[lightest]))


def _box(diagonal: np.ndarray, budget: float) -> tuple[int, int, float]:
    """The w1 x w2 sub-box of the output that holds every partial-transpose state worth keeping.

    The output rho is positive semidefinite, so |rho_ij|^2 <= rho_ii rho_jj,
    and row (m1, m2) of its partial transpose, the entries
    rho[(m1, n2), (n1, m2)], has squared norm at most p1(m1) p2(m2), the
    product of the output's two photon-number marginals from ``diagonal``.
    In each class, with the budget split of ``_pt_trace_norm``, the
    lightest states by that product are dropped while the bound of
    ``_deflated`` on them, 2 sum sqrt(p1 p2), stays below the share; a
    budget of 0 drops none.  Returns the extents of the box around the
    states left, and the same bound on the states outside the box, summed
    over the two classes: at most ``budget``, since they were all dropped.
    """
    weight = np.outer(diagonal.sum(axis=1), diagonal.sum(axis=0))
    m1, m2 = np.indices(weight.shape)
    classes = [np.flatnonzero((m1 + m2) % 2 == c) for c in (0, 1)]
    w1 = w2 = 0
    for share, states in zip((0.5, 1.0), classes):
        lightest, bounds = _lightest(weight.flat[states])
        s = int(np.searchsorted(bounds, share * budget, side="left"))
        budget -= float(bounds[s - 1]) if s else 0.0
        keep = states[lightest[s:]]
        if keep.size:
            w1, w2 = max(w1, int(m1.flat[keep].max()) + 1), max(w2, int(m2.flat[keep].max()) + 1)
    outside = (m1 >= w1) | (m2 >= w2)
    return w1, w2, 2.0 * float(np.sqrt(weight[outside]).sum())


def _output_class(rho1: np.ndarray, weights: np.ndarray, blocks, c: int, w1: int, w2: int) -> np.ndarray:
    """Class ``c`` of the w1 x w2 box of U (rho1 x diag(weights)) U^, in the quadrant layout.

    U acts on the whole window of rho1, so the result is the principal
    compression of the output to the box (see ``_quadrants``).  With
    Y = (rho1 x diag(weights)) U^ on the box's columns, U conserves total
    photon number, so Y[(a, b), (c1, c2)] = weights[b] rho1[a, t - b]
    U[(c1, c2), (t - b, b)] with t = c1 + c2, and zero where t - b is not
    a Fock number of the window.  One sector s at a time, the rows
    (a, s - a) of Y are gathered from rho1 and the sector blocks, and the
    box's rows of the sector, (n1, s - n1) with n1 < w1 and s - n1 < w2,
    are U_s Y: one product per parity of n1, each written straight into
    its evenly strided rows of the class matrix.  rho1 couples only Fock
    numbers of equal parity, so Y, like the output, couples no two states
    of different class.
    """
    dim = rho1.shape[0]
    quads = _quadrants(w1, w2)
    n1, n2 = _class_numbers(w1, w2, c)  # of the columns (c1, c2)
    total = n1 + n2
    sectors = blocks[c::2]
    sizes = np.array([block.shape[0] for block in sectors])
    starts = np.cumsum(sizes**2) - sizes**2
    lo = np.maximum(0, total - dim + 1)
    # flat[base + a] is U[(c1, c2), (a, t - a)] for every column (c1, c2).
    flat = np.concatenate([block.ravel() for block in sectors])
    base = starts[total // 2] + (n1 - lo) * sizes[total // 2] - lo
    # factor[b, col] is weights[b] U[col, (t - b, b)], or 0 where t - b is outside the window.
    factor = np.empty((dim, total.size))
    for b in range(dim):
        a = total - b
        inside = (a >= 0) & (a < dim)
        np.multiply(flat.take(base + a, mode="clip"), inside * weights[b], out=factor[b])
    totals = np.arange(c, 2 * dim - 1, 2)
    mat = _mapped_matrix(total.size)
    for s, block in zip(totals, sectors):
        first, last = max(0, s - dim + 1), min(s, dim - 1)
        top, bottom = max(first, s - w2 + 1), min(last, w1 - 1)  # the box's n1
        if top > bottom:
            continue
        # Rows (a, s - a), a ascending: rho1[a, t - s + a] depends on the column through t alone.
        a = np.arange(first, last + 1)[:, None]
        y = rho1[a, np.clip(a + (totals - s), 0, dim - 1)].take(total // 2, axis=1)
        y *= factor[s - last : s - first + 1][::-1]  # b = s - a
        for n1_first in (top, top + 1):
            count = len(range(n1_first, bottom + 1, 2))
            offset, _, h2 = quads[n1_first & 1, (s - n1_first) & 1]
            row = offset + (n1_first // 2) * h2 + (s - n1_first) // 2
            step = max(h2 - 1, 1)  # n1 up by 2 and n2 down by 2
            rows = block[n1_first - first : bottom - first + 1 : 2]
            np.matmul(rows, y, out=mat[row : row + step * count : step])
    return mat


def _output_classes(rho1: np.ndarray, weights: np.ndarray, sectors, w1: int, w2: int) -> list:
    """The two class matrices of the w1 x w2 box of U (rho1 x diag(weights)) U^, Hermitian averaged.

    ``sectors`` are the splitter's blocks for the window of rho1
    (``_beam_splitter_sectors``), and ``weights`` is the diagonal of the
    second input.
    """
    mats = [_output_class(rho1, weights, sectors, c, w1, w2) for c in (0, 1)]
    for mat in mats:
        _hermitize(mat)
    return mats


def _partial_transpose(mats: list, w1: int, w2: int) -> None:
    """Overwrite the class matrices of a w1 x w2 box with the class blocks of its partial transpose.

    The partial transpose takes the block between quadrants (a1, a2) and
    (b1, b2) from the state's block between (a1, b2) and (b1, a2), with the
    axis swap (m1, n2, n1, m2) -> (m1, m2, n1, n2) of its 4-index view.  A
    diagonal block is its own source and is transposed inside its buffer;
    the off-diagonal blocks of the two classes are each other's source and
    are swapped.  Either way one slice of fixed m1 moves at a time, so no
    block-sized temporary exists.  Afterwards ``mats[q]`` holds class q of
    the partial transpose, the states with m1 + m2 = q mod 2, in the same
    layout.  The partial transpose of the box's compression is the box's
    compression of the partial transpose.
    """
    quads = _quadrants(w1, w2)

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


def _deflated(block: np.ndarray, budget: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The states of Hermitian ``block`` worth diagonalizing, compacted over its front.

    Dropping a set D of states perturbs the block A by E, its rows and
    columns of those states: E = P_D A + P_K A P_D, with P_D and P_K the
    projections on the dropped and kept states.  Each dropped row r_i adds
    e_i r_i^T to the first term and, A being Hermitian, a part of the
    column r_i to the second, two rank-one terms of trace norm at most
    ||r_i|| each, so the trace norm moves by at most
    ||E||_1 <= 2 sum ||r_i|| over the dropped rows.  A row with a zero
    diagonal entry attains it: x e_i^T + e_i x^T has eigenvalues +-||x||.
    The squared row norms are summed ``_TILE`` rows at a time, and the
    largest number of the lightest rows whose bound stays within
    ``budget`` is dropped; a budget of 0 drops only the rows that are zero.
    The kept k x k submatrix, states in ascending order, is written over
    the front of the block's own buffer, one row at a time: row j of the
    destination ends before source row keep[j + 1] starts, so no row is
    overwritten before it is read.  Returns that C-ordered front view (the
    block itself when every state is kept, empty when none is), the kept
    states and the bound on ||E||_1.  The eigensolve copies what it is
    given, so compacting in place keeps that to one k x k copy where
    indexing the kept states out would make two.
    """
    n = block.shape[0]
    weight = np.empty(n)
    for i in range(0, n, _TILE):
        rows = block[i : i + _TILE]
        weight[i : i + _TILE] = np.einsum("ij,ij->i", rows, rows)
    lightest, bounds = _lightest(weight)
    s = int(np.searchsorted(bounds, budget, side="right"))
    keep = np.sort(lightest[s:])
    bound = float(bounds[s - 1]) if s else 0.0
    k = keep.size
    if k == n:
        return block, keep, bound
    front = block.reshape(-1)[: k * k].reshape(k, k)
    for j, row in enumerate(keep):
        front[j] = block[row, keep]
    return front, keep, bound


def _pt_trace_norm(mats: list, w1: int, w2: int, budget: float) -> float:
    """Sum of |eigenvalues| of the partial transpose of a w1 x w2 box given as class matrices.

    The partial transpose couples (m1, m2) with (n1, n2) only where the
    state couples (m1, n2) with (n1, m2), so it splits into the same
    classes by m1 + m2.  It is written over the class matrices, which are
    consumed.  Each block is deflated (``_deflated``), the first with half
    of ``budget`` and the second with what the first left, so the dropped
    states move the trace norm by at most ``budget`` in all; then numpy's
    ``eigvalsh`` diagonalizes a copy of the kept states.
    """
    _partial_transpose(mats, w1, w2)
    norm = 0.0
    for share, block in zip((0.5, 1.0), mats):
        block, _, bound = _deflated(block, share * budget)
        budget -= bound
        norm += float(np.abs(np.linalg.eigvalsh(block)).sum())
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
    occupations = np.cumsum(np.diag(wide))
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
    ``cfg.tol_trace``; the output's leakage is read off its diagonal
    (``_output_diagonal``), before any class matrix is built.  A point
    still over budget at 120 is skipped with the first such leakage, and a
    verdict reports the largest.  Before a window is allocated, its
    predicted peak of ``_LIVE_COPIES`` float64 matrices of W^4 entries is
    compared with the memory still available; a point that does not fit is
    skipped with a note starting "memory", since wider windows would need
    more.

    Every window is built for the point's real twin, (tau, u, nbar, theta)
    at phi = phi_b = 0; the result keeps ``params`` with their phases.  With
    R_j(a) = e^{i a n_j}, the squeezed input is R_1(phi_b / 2) rho_1 R_1^
    and the splitter R_1(phi) B_0 R_1(phi)^, so the output is D rho_real D^
    with the local D = R_1(phi_b / 2) R_2(phi_b / 2 - phi): the thermal
    input is diagonal and B_0 commutes with the total-number rotation.  Its
    partial transpose is rho_real^T2 conjugated by the unitary
    R_1(phi_b / 2) R_2(phi - phi_b / 2), so its trace norm, like every
    leakage, is the twin's.  The truncated blocks obey the same relations.

    The states left out, first by the box that is built (``_box``) and
    then by the eigensolve (``_pt_trace_norm``) within what the box left of
    the budget, move the trace norm T by at most
    ``target = cfg.tol_compare / _GUARD_SAFETY`` in all, the guard band's
    target.  T is at least the output's trace, about 1, so N_fock = log2 T
    moves by at most target / ln 2, about 1.45 target: 4.8e-6 at the
    default tol_compare of 1e-3.
    """
    n_gaussian = negativity_closed_form(params)
    twin = GaussianSpec(params.tau, params.u)
    dims = list(range(cfg.dim, _MAX_ESCALATION_DIM + 1, _ESCALATION_STEP))
    if dims[-1] != _MAX_ESCALATION_DIM:
        dims.append(_MAX_ESCALATION_DIM)
    last_leakage = math.nan
    target = cfg.tol_compare / _GUARD_SAFETY
    for dim in dims:
        wide = fock_squeezed_thermal(twin, dim + _COMPARE_GUARDS[-1])
        guard = _pick_guard(wide, dim, target)
        window = dim + guard
        rho1 = wide[:window, :window]
        need = _LIVE_COPIES * 8 * window**4
        free = _available_memory()
        if free is not None and need > free:
            note = f"memory: window {window} needs {need >> 20} MiB, {free >> 20} MiB available"
            return OracleComparison(
                params, n_gaussian, math.nan, math.nan, _leakage(np.diag(rho1)), dim, "skip", note
            )
        weights = _thermal_weights(params.nbar, window)
        leakages = [_leakage(np.diag(rho1)), _leakage(weights)]
        if not any(leakage > cfg.tol_trace for leakage in leakages):
            sectors = _beam_splitter_sectors(params.theta, window)
            diagonal = _output_diagonal(rho1, weights, sectors)
            leakages.append(_leakage(diagonal))
        over = [leakage for leakage in leakages if leakage > cfg.tol_trace]
        if over:
            last_leakage = over[0]
            continue
        w1, w2, outside = _box(diagonal, target)
        mats = _output_classes(rho1, weights, sectors, w1, w2)
        n_fock = math.log2(max(_pt_trace_norm(mats, w1, w2, target - outside), 1.0))
        diff = abs(n_gaussian - n_fock)
        status = "pass" if diff <= cfg.tol_compare else "fail"
        note = f"guard={guard}" if guard else ""
        return OracleComparison(params, n_gaussian, n_fock, diff, max(leakages), dim, status, note)
    note = f"leakage {last_leakage:.3e} above budget at dim={_MAX_ESCALATION_DIM}"
    return OracleComparison(
        params, n_gaussian, math.nan, math.nan, last_leakage, _MAX_ESCALATION_DIM, "skip", note
    )
