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
and the eigensolve all stay in float64; a non-zero phase runs the same
functions in complex128, so the oracle still tests phase independence
rather than assuming it.

The two-mode state is never held in the product basis.  The squeezed and
thermal inputs couple only Fock numbers of equal parity, by construction,
and the beam splitter conserves total photon number, so the output couples
only states of equal total parity.  It is built as two class matrices,
total number even and odd, in sector order, straight from the one-mode
inputs.  Its partial transpose splits into the same two classes and is
written one class block at a time and diagonalized in place, so the stage
peaks at about 3/4 of a matrix of ``W^4`` entries (``_LIVE_COPIES``,
rounded up).  A point whose window would not fit in the memory still
available is skipped with the note "memory" instead of being allocated.

Truncation is handled honestly, never by renormalizing: the comparison
harness checks the mass lost by the squeezed window, the thermal tail and
the two-mode output, in that order, against the budget ``tol_trace``,
escalates the cutoff past any stage over budget in steps of 20 up to 120,
and records a skip if even that is not enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import ScenarioParams, negativity_closed_form
from .states import BeamSplitter, DomainError, GaussianSpec

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
# Peak of the two-mode stage of one oracle point, in matrices of W^4
# entries of the working dtype, rounded up: the two parity class matrices
# (half a matrix) and one partial-transpose block (a quarter), which the
# eigensolve overwrites.  tracemalloc at W = 24 measured 0.79 (real) and
# 0.80 (complex).
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


def _layout(dim: int):
    """Where each two-mode state sits in the two class matrices.

    A state (n1, n2) belongs to class (n1 + n2) mod 2; within its class the
    states are in sector order (by total n1 + n2, then by n1).  Returns
    ``(flats, pos)``: ``flats[c]`` lists the flat product-basis indices
    n1 * dim + n2 of class ``c`` in that order, and ``pos[n1, n2]`` is the
    state's index in its class.
    """
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    total = n1 + n2
    order = np.lexsort((n1, total, total % 2))
    flats = np.split(order, [np.count_nonzero(total % 2 == 0)])
    pos = np.empty(dim * dim, dtype=np.intp)
    for flat in flats:
        pos[flat] = np.arange(flat.size)
    return flats, pos.reshape(dim, dim)


def _conjugated_classes(rho1: np.ndarray, rho2: np.ndarray, blocks) -> list:
    """U (rho1 x rho2) U^ as its two class matrices (see ``_layout``).

    Each class matrix is built straight from the one-mode inputs: the rows
    of one sector at a time are gathered from rho1 x rho2 and multiplied by
    the sector's block, then each sector's columns by the block's adjoint.
    Both inputs couple only Fock numbers of equal parity and U conserves
    total photon number, so the couplings between the classes are zero and
    never formed.
    """
    dim = rho1.shape[0]
    flats, _ = _layout(dim)
    dtype = np.result_type(rho1, rho2, blocks[0])
    out = []
    for c, flat in enumerate(flats):
        n1, n2 = np.divmod(flat, dim)
        mat = np.empty((flat.size, flat.size), dtype)
        spans = []
        lo = 0
        for block in blocks[c::2]:
            hi = lo + block.shape[0]
            slab = rho1[n1[lo:hi, None], n1] * rho2[n2[lo:hi, None], n2]
            mat[lo:hi] = block @ slab
            spans.append((lo, hi, block))
            lo = hi
        for lo, hi, block in spans:
            mat[:, lo:hi] = mat[:, lo:hi] @ block.conj().T
        out.append(mat)
    return out


def _output_classes(rho1: np.ndarray, rho2: np.ndarray, bs: BeamSplitter) -> tuple[list, float]:
    """U (rho1 x rho2) U^ as its two class matrices, Hermitian averaged.

    Returns the matrices and their leakage, |1 - total trace|; comparing it
    with a budget is the caller's decision.
    """
    sectors = _beam_splitter_sectors(bs.theta, bs.phi, rho1.shape[0])
    mats = _conjugated_classes(rho1, rho2, sectors)
    for mat in mats:
        _hermitize(mat)
    leakage = abs(1.0 - sum(np.trace(mat).real for mat in mats))
    return mats, leakage


def _pt_block(mats: list, pos: np.ndarray, q: int) -> np.ndarray:
    """Class ``q`` block of the partial transpose, written from the class matrices.

    Its basis, the states (n1, n2) with n1 + n2 = q mod 2, runs in groups
    by the parity of n2, each ordered by n1, then n2.  The rows of one m1
    are then contiguous, and against each group of columns they read one
    class matrix.
    """
    x = np.arange(pos.shape[0])
    groups = [(x[(x + g - q) % 2 == 0], x[x % 2 == g]) for g in (0, 1)]
    size = sum(n1s.size * n2s.size for n1s, n2s in groups)
    block = np.empty((size, size), mats[0].dtype)
    row = 0
    for m1s, m2s in groups:
        col = 0
        for g, (n1s, n2s) in enumerate(groups):
            width = n1s.size * n2s.size
            # block[(m1, m2), (n1, n2)] = state[(m1, n2), (n1, m2)]: the
            # column of the state runs over (n1, m2), its row over n2.
            state_cols = np.repeat(pos[n1s, m2s[:, None]], n2s.size, axis=1)
            for i, m1 in enumerate(m1s):
                lo = row + i * m2s.size
                state_rows = np.tile(pos[m1, n2s], n1s.size)
                mat = mats[(m1 + g) % 2]
                block[lo : lo + m2s.size, col : col + width] = mat[state_rows, state_cols]
            col += width
        row += m1s.size * m2s.size
    return block


def _pt_trace_norm(mats: list, dim: int) -> float:
    """Sum of |eigenvalues| of the partial transpose of a state given as class matrices.

    The partial transpose couples (m1, m2) with (n1, n2) only where the
    state couples (m1, n2) with (n1, m2), so it splits into the same
    classes by m1 + m2.  Its blocks are written one at a time and
    diagonalized in place, so the peak is the state and one block.
    """
    from scipy.linalg import eigh

    _, pos = _layout(dim)
    norm = 0.0
    for q in (0, 1):
        block = _pt_block(mats, pos, q)
        # block.T is the Fortran-ordered view of a Hermitian matrix; its
        # eigenvalues are those of the block, and LAPACK works on it in place.
        eigenvalues = eigh(block.T, eigvals_only=True, overwrite_a=True, check_finite=False)
        norm += float(np.abs(eigenvalues).sum())
        del block  # before the next one is allocated
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
        rho2 = np.diag(_thermal_weights(params.nbar, window))
        leakages = [_leakage(rho1), _leakage(rho2)]
        if not any(leakage > cfg.tol_trace for leakage in leakages):
            mats, out_leakage = _output_classes(rho1, rho2, params.splitter())
            leakages.append(out_leakage)
        over = [leakage for leakage in leakages if leakage > cfg.tol_trace]
        if over:
            last_leakage = over[0]
            continue
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
