"""Mutual-coupling model for discrete arrays.

Coupling distorts the element-domain channel vector as h -> C h with
C = (z_a + z_t) (Z + z_t I)^(-1), where Z is the mutual impedance matrix.
The diagonal of Z is set to zero: self-impedance is absorbed into z_a, which
keeps (Z + z_t I) well conditioned at the default 50-ohm termination.  The
distorted vectors feed the same (g, rho) statistics and capacity formulas as
the uncoupled channel.

Neither C nor Z is ever formed.  The elements sit on a regular lattice, so
Z depends only on the index offset between two elements: its action is a
2-D convolution with the (2 M_z - 1) x (2 M_x - 1) offset kernel, applied by
FFT on a circulant embedding.  (Z + z_t I) x = h is solved by GMRES, right
preconditioned by the two-level Strang circulant of the central offsets,
which one FFT inverts (Strang, Stud. Appl. Math. 74, 1986; Chan and Jin,
An Introduction to Iterative Toeplitz Solvers, SIAM 2007).  Both users'
vectors and a fixed random +-1 column iterate in one batched Krylov loop;
||A||_1 ||A^(-1) r||_1 / ||r||_1 is a cheap lower estimate of the condition
number (Dixon, SIAM J. Numer. Anal. 20, 1983), with ||A||_1 taken from the
kernel's column sums.  The random column only feeds that estimate: it is
solved loosely, and its failure is logged, not raised.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair, element_channel, pair_from_vectors
from .geometry import DiscreteAperture, UserPlacement, Wavelength

log = logging.getLogger(__name__)

CONDITION_REPORT_THRESHOLD = 1e8

RESIDUAL_TOLERANCE = 1e-14
"Relative residual ||h - A x|| / ||h|| at which each user's column of the solve stops."

PROBE_TOLERANCE = 1e-3
"""Relative residual at which the condition probe stops.  The estimate is
compared with CONDITION_REPORT_THRESHOLD and needs about one correct digit."""

MAX_ITERATIONS = 200
"""Krylov steps before a solve that has not converged is given up.  Solves in
the benchmark's coupled box (15^2-41^2 elements, spacing 0.3-0.5 lambda)
take 19-65 steps, 41^2 arrays at 0.05-2 lambda at most 89."""

BREAKDOWN_RATIO = 1e-13
"""A new Krylov direction shorter than this share of A M^-1 v is rounding
noise: the space is invariant, and the column stops there."""

SINGULAR_RESIDUAL = 1e-8
"""Relative residual above which a column stopped by a breakdown has no
solution, so the system is singular.  A nonsingular system leaves about
eps * cond, 1e-8 at the condition number CONDITION_REPORT_THRESHOLD."""

_BASIS_BLOCK = 32
"""Krylov vectors per basis block; the basis grows one block at a time.
numpy advises huge pages for arrays of 4 MB and more, so one basis sized for
MAX_ITERATIONS steps would hold 2 MB for every page touched: at 41^2 that
raises a coupled command's peak by 5 MB."""


@dataclass(frozen=True)
class CouplingModel:
    "Impedance parameters of the coupling matrix."

    z_antenna: float = 50.0
    z_termination: float = 50.0
    impedance_scale: float = 0.1

    def __post_init__(self):
        if self.z_termination <= 0.0:
            raise ValueError("termination impedance must be positive")


def offset_kernel(a: DiscreteAperture, wl: Wavelength, model: CouplingModel) -> np.ndarray:
    """Mutual impedance scale * exp(-j k0 d) / d^2 on the index offsets.

    Entry [o_z + M_z - 1, o_x + M_x - 1] couples two elements o_z rows and
    o_x columns apart; the zero offset (the diagonal of Z) is zero.
    """
    mz, mx = a.elements_z, a.elements_x
    oz = np.arange(1 - mz, mz)[:, None]
    ox = np.arange(1 - mx, mx)[None, :]
    dist = a.spacing * np.hypot(oz, ox)
    dist[mz - 1, mx - 1] = 1.0  # placeholder; the zero offset is the diagonal
    kernel = model.impedance_scale * np.exp(-1j * wl.k0 * dist) / dist**2
    kernel[mz - 1, mx - 1] = 0.0
    return kernel


def _fft_size(n: int) -> int:
    "Smallest 5-smooth integer >= n."
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class CouplingSystem:
    """A = Z + z_t I on an M_z x M_x element lattice, applied by FFT.

    Vectors are the rows of an array of shape (columns, M_z * M_x), in the
    element order of element_centers (m_x fastest).  The offset kernel sits
    in a circulant of 5-smooth size P_z x P_x >= (2 M_z - 1) x (2 M_x - 1),
    offset o at index o mod P, so A x is a zero-padded 2-D FFT convolution.
    """

    def __init__(self, kernel: np.ndarray, z_termination: float):
        mz, mx = (kernel.shape[0] + 1) // 2, (kernel.shape[1] + 1) // 2
        self.grid = (mz, mx)
        self.count = mz * mx
        self._pad = (_fft_size(2 * mz - 1), _fft_size(2 * mx - 1))
        embedded = np.zeros(self._pad, dtype=complex)
        embedded[: 2 * mz - 1, : 2 * mx - 1] = kernel
        embedded = np.roll(embedded, (1 - mz, 1 - mx), axis=(0, 1))
        embedded[0, 0] += z_termination
        # the unscaled inverse transforms' 1/(P_z P_x) is folded into the symbols
        self._symbol = np.fft.fft2(embedded) / embedded.size
        # two-level Strang circulant: the central M_z x M_x offsets, rolled
        # so that the zero offset is at index 0
        cz, cx = mz - 1 - mz // 2, mx - 1 - mx // 2
        strang = np.roll(kernel[cz : cz + mz, cx : cx + mx], (-(mz // 2), -(mx // 2)), axis=(0, 1))
        strang[0, 0] += z_termination
        self._strang_inverse = 1.0 / (np.fft.fft2(strang) * self.count)
        # A is symmetric, so its column sums are |A| applied to ones
        magnitude = np.fft.fft2(np.abs(embedded)) / embedded.size
        self.norm1 = float(self._convolve(magnitude, np.ones((1, self.count))).real.max())

    def _convolve(self, symbol: np.ndarray, x: np.ndarray) -> np.ndarray:
        "Rows of x convolved with a circulant symbol; the zero padding is never transformed."
        (mz, mx), (pz, px) = self.grid, self._pad
        spectrum = np.fft.fft(np.fft.fft(x.reshape(-1, mz, mx), n=px, axis=2), n=pz, axis=1)
        y = np.fft.ifft(spectrum * symbol, axis=1, norm="forward")[:, :mz]
        return np.fft.ifft(y, axis=2, norm="forward")[:, :, :mx].reshape(-1, self.count)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        "A x for each row of x."
        return self._convolve(self._symbol, x)

    def precondition(self, x: np.ndarray) -> np.ndarray:
        "S^-1 x for each row of x, with S the Strang circulant of A."
        mz, mx = self.grid
        spectrum = np.fft.fft2(x.reshape(-1, mz, mx)) * self._strang_inverse
        return np.fft.ifft2(spectrum, norm="forward").reshape(-1, self.count)


def coupling_system(a: DiscreteAperture, wl: Wavelength, model: CouplingModel) -> CouplingSystem:
    "The coupled system Z + z_t I of the array."
    return CouplingSystem(offset_kernel(a, wl, model), model.z_termination)


def _filled(blocks: list[np.ndarray], count: int):
    "(offset, view) of the first count Krylov vectors, block by block."
    for start in range(0, count, _BASIS_BLOCK):
        yield start, blocks[start // _BASIS_BLOCK][:, : min(_BASIS_BLOCK, count - start)]


def _gmres(
    system: CouplingSystem, b: np.ndarray, tolerance: np.ndarray
) -> tuple[np.ndarray, list[int], list[str | None]]:
    """Solve A x = b for each row of b by right-preconditioned GMRES.

    All rows share one batched Arnoldi loop (classical Gram-Schmidt, applied
    twice) with complex Givens rotations.  Row c stops once its residual
    estimate falls to tolerance[c] of its norm, or at a breakdown.  Stopped
    rows at the end of b leave the batch; the loop ends when every row has
    stopped, or after MAX_ITERATIONS steps.  Returns the solutions, the
    steps each row took, and for each row None or why it failed: no
    convergence, or a breakdown whose least-squares solution leaves a true
    residual above SINGULAR_RESIDUAL.  Raises LinAlgError on a non-finite
    step.
    """
    ncol, n = b.shape
    beta = np.linalg.norm(b, axis=1)
    target = tolerance * beta
    safe_beta = np.where(beta > 0.0, beta, 1.0)  # a zero row stays zero
    v = b / safe_beta[:, None]
    blocks: list[np.ndarray] = []
    # per row: rotations (cosine, sine, conjugate sine), columns of the
    # triangular factor, and the rotated right-hand side beta e_1
    rotations: list[list[tuple[float, complex, complex]]] = [[] for _ in range(ncol)]
    tri: list[list[list[complex]]] = [[] for _ in range(ncol)]
    g = [[complex(x)] for x in beta]
    steps = [0 if x == 0.0 else None for x in beta]
    broken: list[int] = []
    residual = beta.copy()
    live = ncol  # rows live.. have stopped and are no longer iterated
    k = 0
    while True:
        while live and steps[live - 1] is not None:
            live -= 1
        if not live or k == MAX_ITERATIONS:
            break
        if k % _BASIS_BLOCK == 0:
            blocks.append(np.empty((ncol, _BASIS_BLOCK, n), dtype=complex))
        blocks[-1][:live, k % _BASIS_BLOCK] = v[:live]
        w = system.matvec(system.precondition(v[:live]))
        w_norm = np.linalg.norm(w, axis=1)
        h = np.zeros((live, k + 1), dtype=complex)
        for _ in range(2):
            for start, basis in _filled(blocks, k + 1):
                basis = basis[:live]
                coef = np.matmul(basis, w.conj()[:, :, None])[:, :, 0].conj()
                w -= np.matmul(coef[:, None, :], basis)[:, 0]
                h[:, start : start + basis.shape[1]] += coef
        h_next = np.linalg.norm(w, axis=1)
        if not np.all(np.isfinite(h_next)):
            raise np.linalg.LinAlgError("coupling system matrix is numerically singular")
        for c, (col, below) in enumerate(zip(h.tolist(), h_next.tolist())):
            if steps[c] is not None:
                continue
            for j, (cos, sin, sin_conj) in enumerate(rotations[c]):
                top, bot = col[j], col[j + 1]
                col[j] = cos * top + sin * bot
                col[j + 1] = cos * bot - sin_conj * top
            top = col[k]
            rad = math.hypot(abs(top), below)
            phase = top / abs(top) if top else 1.0
            cos, sin = (abs(top) / rad, phase * below / rad) if rad else (1.0, 0j)
            col[k] = cos * top + sin * below
            rotations[c].append((cos, sin, sin.conjugate()))
            tri[c].append(col[: k + 1])
            g[c].append(-sin.conjugate() * g[c][k])
            g[c][k] *= cos
            residual[c] = abs(g[c][k + 1])
            if residual[c] <= target[c]:
                steps[c] = k + 1
            elif below <= BREAKDOWN_RATIO * w_norm[c]:
                steps[c] = k + 1
                broken.append(c)
        v = w / np.where(h_next > 0.0, h_next, 1.0)[:, None]
        k += 1
    failures: list[str | None] = [None] * ncol
    for c, m in enumerate(steps):
        if m is None:
            steps[c] = k
            failures[c] = (
                f"coupled solve did not converge: relative residual "
                f"{residual[c] / safe_beta[c]:.1e} after {k} iterations"
            )
    # x = S^-1 V y, with y from each row's leading triangle; after a
    # breakdown that triangle may be singular, so it is solved in least squares
    u = np.zeros((ncol, n), dtype=complex)
    for c, m in enumerate(steps):
        if m:
            r = np.zeros((m, m), dtype=complex)
            for j, col in enumerate(tri[c][:m]):
                r[: j + 1, j] = col
            if c in broken:
                y = np.linalg.lstsq(r, g[c][:m], rcond=None)[0]
            else:
                y = np.linalg.solve(r, g[c][:m])
            for start, basis in _filled(blocks, m):
                u[c] += y[start : start + basis.shape[1]] @ basis[c]
    x = system.precondition(u)
    if broken:
        # the space is invariant: the true residual tells a solution from none
        true = np.linalg.norm(b[broken] - system.matvec(x[broken]), axis=1) / safe_beta[broken]
        for c, rel in zip(broken, true.tolist()):
            if not rel <= SINGULAR_RESIDUAL:
                failures[c] = "coupling system matrix is numerically singular"
    return x, steps, failures


def coupled_pair(
    a: DiscreteAperture,
    p1: UserPlacement,
    p2: UserPlacement,
    wl: Wavelength,
    model: CouplingModel | None = None,
) -> ChannelPair:
    """Channel statistics of the mutually coupled discrete array.

    Solves (Z + z_t I) x = h for both users' element vectors, scales by
    z_a + z_t, and warns when the condition estimate exceeds
    CONDITION_REPORT_THRESHOLD.
    """
    model = model or CouplingModel()
    # a fixed seed keeps the estimate, and so the warning, reproducible
    probe = np.random.default_rng(0).integers(0, 2, a.count) * 2.0 - 1.0
    rhs = np.vstack([element_channel(a, p1, wl), element_channel(a, p2, wl), probe])
    tolerance = np.array([RESIDUAL_TOLERANCE, RESIDUAL_TOLERANCE, PROBE_TOLERANCE])
    with np.errstate(all="ignore"):  # a singular system raises below instead
        system = coupling_system(a, wl, model)
        x, steps, failures = _gmres(system, rhs, tolerance)
    log.debug("coupled solve steps: user 1 %d, user 2 %d, probe %d", *steps)
    for failure in failures[:2]:
        if failure:
            raise np.linalg.LinAlgError(failure)
    if not np.all(np.isfinite(x[:2])):
        raise np.linalg.LinAlgError("coupling system matrix is numerically singular")
    if failures[2] or not np.all(np.isfinite(x[2])):
        log.warning("coupling system condition not estimated: %s", failures[2] or "probe overflowed")
    else:
        cond = system.norm1 * np.linalg.norm(x[2], 1) / a.count
        if cond > CONDITION_REPORT_THRESHOLD:
            log.warning("coupling system is ill conditioned: cond estimate = %.3e", cond)
    scale = model.z_antenna + model.z_termination
    return pair_from_vectors(scale * x[0], scale * x[1])
