"""Dense reference of the coupling model for the tests.

The library never forms the mutual impedance matrix Z; these helpers do, so
that its FFT operator and Krylov solve can be checked against a dense LU.
"""

import numpy as np

from capalink.channel import element_channel, pair_from_vectors
from capalink.coupling import CouplingModel, offset_kernel


def mutual_impedance(a, wl, model):
    "Dense Z: the offset kernel gathered into the element order (m_x fastest)."
    mz, mx = a.elements_z, a.elements_x
    kernel = offset_kernel(a, wl, model)
    iz = np.arange(mz)
    ix = np.arange(mx)
    rows_z = (iz[:, None] - iz[None, :] + mz - 1)[:, None, :, None]
    rows_x = (ix[:, None] - ix[None, :] + mx - 1)[None, :, None, :]
    return kernel[rows_z, rows_x].reshape(a.count, a.count)


def system_matrix(a, wl, model):
    "Dense Z + z_t I."
    return mutual_impedance(a, wl, model) + model.z_termination * np.eye(a.count)


def strang_matrix(a, wl, model):
    """Dense two-level Strang circulant of Z + z_t I: each index offset
    wrapped into the central window [-(M // 2), M // 2] of its axis."""
    mz, mx = a.elements_z, a.elements_x
    kernel = offset_kernel(a, wl, model)
    iz = np.repeat(np.arange(mz), mx)
    ix = np.tile(np.arange(mx), mz)
    oz = (iz[:, None] - iz[None, :] + mz // 2) % mz - mz // 2
    ox = (ix[:, None] - ix[None, :] + mx // 2) % mx - mx // 2
    return kernel[oz + mz - 1, ox + mx - 1] + model.z_termination * np.eye(a.count)


def coupling_matrix(a, wl, model=None):
    "Dense C = (z_a + z_t) (Z + z_t I)^(-1)."
    model = model or CouplingModel()
    return (model.z_antenna + model.z_termination) * np.linalg.inv(system_matrix(a, wl, model))


def dense_pair(a, p1, p2, wl, model):
    "Coupled channel statistics by one dense LU solve."
    h = np.column_stack([element_channel(a, p1, wl), element_channel(a, p2, wl)])
    x = (model.z_antenna + model.z_termination) * np.linalg.solve(system_matrix(a, wl, model), h)
    return pair_from_vectors(x[:, 0], x[:, 1])


class DenseSystem:
    "A given matrix behind the interface of coupling.CouplingSystem, unpreconditioned."

    def __init__(self, matrix):
        self.matrix = matrix
        self.norm1 = float(np.linalg.norm(matrix, 1))

    def matvec(self, x):
        return x @ self.matrix.T

    def precondition(self, x):
        return x
