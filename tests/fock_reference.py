"""Earlier routes of the Fock oracle, kept as the references its builds must match.

The squeezed input was the squeezer exponentiated on a working space wider
than the window and compressed to it (``operator_squeezed_thermal``); the
engine now fills the window from the state's own recurrence, which is also
evaluated here in decimal arithmetic (``decimal_squeezed_thermal``).

Before the engine built the partial transpose one class at a time
(``gaussbs.fock._pt_class``), it built both parity classes of the output
(``_output_classes``), Hermitian averaged them, and overwrote them with the
two classes of the partial transpose (``_partial_transpose``).  That route
must match the per-class build to rounding: its products run over a whole
class's columns, the engine's over one quadrant's, so BLAS may round an
entry the other way.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from gaussbs.fock import (
    _class_numbers,
    _deflated,
    _hermitize,
    _live,
    _quadrants,
    _sector_block,
    _thermal_weights,
)
from gaussbs.states import GaussianSpec


def operator_squeezed_thermal(spec: GaussianSpec, dim: int, margin: int) -> np.ndarray:
    """S rho_th S^ built on ``dim + margin`` Fock states, then compressed to ``dim``.

    In a fixed Fock parity the squeezer generator r (a a - a^ a^) / 2 is a
    real tridiagonal matrix (SU(1,1)), exponentiated by ``_sector_block``,
    and the thermal seed is cut at the working width.  Exponentiating the
    truncated generator reflects amplitude off the boundary, so the window
    is off by what the margin does not absorb: 1.1e-2 at (tau, u) =
    (0.3, 0.05) with W = 40 and a margin of 64, and within 1e-15 with a
    margin of 1,500.  Built at phi_b = 0, Hermitian averaged.
    """
    nbar_seed = (1.0 - spec.u) / (2.0 * spec.u)
    r = -0.5 * math.log(spec.u * (1.0 - 2.0 * spec.tau))
    work = dim + margin
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


def decimal_squeezed_thermal(tau: float, u: float, dim: int) -> np.ndarray:
    """The recurrence of ``gaussbs.fock.fock_squeezed_thermal`` in 40-digit decimals.

    The coefficients are taken from the float inputs exactly, with
    e^{-2r} = u (1 - 2 tau) and n_s + 1/2 = (1 - u) / (2 u) + 1/2, and every
    entry is rounded to float64 once, at the end.  Entries between opposite
    parities are never computed: they are zero.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        tau, u, half = Decimal(tau), Decimal(u), Decimal("0.5")
        squeeze, seed = u * (1 - 2 * tau), (1 - u) / (2 * u) + half
        sigma_x, sigma_p = squeeze * seed + half, seed / squeeze + half
        a, b = -(1 / sigma_x - 1 / sigma_p) / 2, 1 - (1 / sigma_x + 1 / sigma_p) / 2
        root = [Decimal(k).sqrt() for k in range(dim)]
        rho = [[Decimal(0)] * dim for _ in range(dim)]
        rho[0][0] = 1 / (sigma_x * sigma_p).sqrt()
        for n in range(2, dim, 2):
            rho[0][n] = a * root[n - 1] * rho[0][n - 2] / root[n]
        for m in range(1, dim):
            for n in range(m % 2, dim, 2):
                value = b * root[n] * rho[m - 1][n - 1] if n else Decimal(0)
                if m > 1:
                    value += a * root[m - 1] * rho[m - 2][n]
                rho[m][n] = value / root[m]
        return np.array([[float(x) for x in row] for row in rho])


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

    The input states (a, b) past the last nonzero weight (``_live``) are
    left out of Y, of its factor rows and of the products: every term they
    add is an exact zero.  A sector s >= dim + live - 1 then has no input
    left, and its box rows are written as zeros, so ``blocks`` need hold
    only the sectors below it.
    """
    dim = rho1.shape[0]
    live = _live(weights)
    quads = _quadrants(w1, w2)
    n1, n2 = _class_numbers(w1, w2, c)  # of the columns (c1, c2)
    total = n1 + n2
    sectors = blocks[c::2]
    sizes = np.array([block.shape[0] for block in sectors])
    starts = np.cumsum(sizes**2) - sizes**2
    lo = np.maximum(0, total - dim + 1)
    # flat[base + a] is U[(c1, c2), (a, t - a)] for every column (c1, c2) of a built sector.
    flat = np.concatenate([block.ravel() for block in sectors])
    # A column of a sector past them meets inputs outside the window alone, and its factor is 0.
    sector = np.minimum(total // 2, sizes.size - 1)
    base = starts[sector] + (n1 - lo) * sizes[sector] - lo
    # factor[b, col] is weights[b] U[col, (t - b, b)], or 0 where t - b is outside the window.
    factor = np.empty((live, total.size))
    for b in range(live):
        a = total - b
        inside = (a >= 0) & (a < dim)
        np.multiply(flat.take(base + a, mode="clip"), inside * weights[b], out=factor[b])
    totals = np.arange(c, 2 * dim - 1, 2)
    # Every entry is written: each state of the box lies in exactly one sector,
    # and every row of the box in that sector is computed or zeroed.
    mat = np.empty((total.size, total.size))
    for s in totals:
        first, last = max(0, s - dim + 1), min(s, dim - 1)
        top, bottom = max(first, s - w2 + 1), min(last, w1 - 1)  # the box's n1
        if top > bottom:
            continue
        start = max(first, s - live + 1)  # the first input (a, s - a) of nonzero weight
        if start <= last:
            # Rows (a, s - a), a ascending: rho1[a, t - s + a] depends on the column through t alone.
            a = np.arange(start, last + 1)[:, None]
            y = rho1[a, np.clip(a + (totals - s), 0, dim - 1)].take(total // 2, axis=1)
            y *= factor[s - last : s - start + 1][::-1]  # b = s - a
            block = sectors[s // 2][:, start - first :]
        for n1_first in (top, top + 1):
            count = len(range(n1_first, bottom + 1, 2))
            offset, _, h2 = quads[n1_first & 1, (s - n1_first) & 1]
            row = offset + (n1_first // 2) * h2 + (s - n1_first) // 2
            step = max(h2 - 1, 1)  # n1 up by 2 and n2 down by 2
            out = mat[row : row + step * count : step]
            if start > last:
                out[...] = 0.0
            else:
                np.matmul(block[n1_first - first : bottom - first + 1 : 2], y, out=out)
    return mat


def _output_classes(rho1: np.ndarray, weights: np.ndarray, sectors, w1: int, w2: int) -> list:
    """The two class matrices of the w1 x w2 box of U (rho1 x diag(weights)) U^, Hermitian averaged.

    ``sectors`` are the splitter's blocks for the window of rho1
    (``gaussbs.fock._sectors``), and ``weights`` is the diagonal of the
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
