"""Mutual-coupling matrix model for discrete arrays.

Coupling distorts the element-domain channel vector as h -> C h with
C = (z_a + z_t) (Z + z_t I)^(-1), where Z is the mutual impedance matrix.
The diagonal of Z is set to zero: self-impedance is absorbed into z_a, which
keeps (Z + z_t I) well conditioned at the default 50-ohm termination.  The
distorted vectors feed the same (g, rho) statistics and capacity formulas as
the uncoupled channel.

C is never formed for the statistics: one LU solve of (Z + z_t I) takes both
users' channel vectors as right-hand sides.  The elements sit on a regular
lattice, so Z depends only on the index offset between two elements and is
built from one kernel evaluation per offset.  A fixed random +-1 column is
solved alongside; ||A||_1 ||A^(-1) r||_1 / ||r||_1 is a cheap lower estimate
of the condition number (Dixon, SIAM J. Numer. Anal. 20, 1983) that replaces
an SVD.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair, element_channel, pair_from_vectors
from .geometry import DiscreteAperture, UserPlacement, Wavelength

log = logging.getLogger(__name__)

CONDITION_REPORT_THRESHOLD = 1e8


@dataclass(frozen=True)
class CouplingModel:
    "Impedance parameters of the coupling matrix."

    z_antenna: float = 50.0
    z_termination: float = 50.0
    impedance_scale: float = 0.1

    def __post_init__(self):
        if self.z_termination <= 0.0:
            raise ValueError("termination impedance must be positive")


def mutual_impedance(
    a: DiscreteAperture, wl: Wavelength, model: CouplingModel
) -> np.ndarray:
    """Mutual impedance matrix scale * exp(-j k0 d_ij) / d_ij^2, zero diagonal.

    The kernel is evaluated once on the (2 M_z - 1) x (2 M_x - 1) grid of
    index offsets and gathered into the element order of element_centers
    (m_x fastest).
    """
    mz, mx = a.elements_z, a.elements_x
    oz = np.arange(1 - mz, mz)[:, None]
    ox = np.arange(1 - mx, mx)[None, :]
    dist = a.spacing * np.hypot(oz, ox)
    dist[mz - 1, mx - 1] = 1.0  # placeholder; the zero offset is the diagonal
    kernel = model.impedance_scale * np.exp(-1j * wl.k0 * dist) / dist**2
    kernel[mz - 1, mx - 1] = 0.0
    iz = np.arange(mz)
    ix = np.arange(mx)
    rows_z = (iz[:, None] - iz[None, :] + mz - 1)[:, None, :, None]
    rows_x = (ix[:, None] - ix[None, :] + mx - 1)[None, :, None, :]
    return kernel[rows_z, rows_x].reshape(a.count, a.count)


def _coupled_solve(
    a: DiscreteAperture, wl: Wavelength, model: CouplingModel, rhs: np.ndarray
) -> np.ndarray:
    "(z_a + z_t) (Z + z_t I)^(-1) rhs for the columns of rhs, with a condition check."
    system = mutual_impedance(a, wl, model)
    system.flat[:: a.count + 1] += model.z_termination
    # a fixed seed keeps the estimate, and so the warning, reproducible
    probe = np.random.default_rng(0).integers(0, 2, a.count) * 2.0 - 1.0
    x = np.linalg.solve(system, np.column_stack([rhs, probe]))
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("coupling system matrix is numerically singular")
    cond = np.linalg.norm(system, 1) * np.linalg.norm(x[:, -1], 1) / a.count
    if cond > CONDITION_REPORT_THRESHOLD:
        log.warning("coupling system is ill conditioned: cond estimate = %.3e", cond)
    return (model.z_antenna + model.z_termination) * x[:, :-1]


def coupling_matrix(
    a: DiscreteAperture, wl: Wavelength, model: CouplingModel | None = None
) -> np.ndarray:
    "Dense coupling matrix C = (z_a + z_t) (Z + z_t I)^(-1)."
    return _coupled_solve(a, wl, model or CouplingModel(), np.eye(a.count))


def coupled_pair(
    a: DiscreteAperture,
    p1: UserPlacement,
    p2: UserPlacement,
    wl: Wavelength,
    model: CouplingModel | None = None,
) -> ChannelPair:
    "Channel statistics of the mutually coupled discrete array."
    h = np.column_stack([element_channel(a, p1, wl), element_channel(a, p2, wl)])
    x = _coupled_solve(a, wl, model or CouplingModel(), h)
    return pair_from_vectors(x[:, 0], x[:, 1])
