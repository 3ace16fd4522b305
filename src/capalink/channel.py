"""Line-of-sight channel kernel and the (g1, g2, rho) sufficient statistics.

Every capacity formula downstream consumes only the per-user channel gains
g_k = int |G_k|^2 and the complex correlation factor
rho = int G_1* G_2 / sqrt(g1 g2).  This module provides the closed forms for
planar and linear apertures, the Chebyshev tensor rule for continuous-aperture
correlation, of the order scenario.auto_quadrature_order picks, and
planar_oracle, which integrates every statistic of one or two users in one
adaptive pass for cross-checking.

A discretized channel has one format, the element-domain vector
sqrt(area) Q(center) over a set of cells: the elements of a discrete array
(element_channel) or the cells of a uniform grid on a planar aperture
(grid_channel).  The area is folded into the vector, so every aperture
integral becomes a plain vector product, and pair_from_vectors turns one
or two such vectors into their Statistics, the shape every statistics
routine returns.  Each rule has positive weights and normalizes by its own
gain sums, so |rho| <= 1 by Cauchy-Schwarz; normalized_correlation removes
the rounding beyond it.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    DiscreteAperture,
    LinearAperture,
    PlanarAperture,
    UserPlacement,
    Wavelength,
    element_centers,
    user_position,
)
from .numerics import ORACLE_MAX_PANELS, NonConvergenceError, adaptive_integrate_2d, chebyshev_nodes

log = logging.getLogger(__name__)

PLANAR_GAIN_BOUND = 0.5
"Energy-conservation ceiling for any planar aperture."


@dataclass(frozen=True)
class ChannelPair:
    "Sufficient statistics of a two-user channel: gains and correlation."

    g1: float
    g2: float
    rho: complex

    def __post_init__(self):
        if not (self.g1 > 0.0 and self.g2 > 0.0):
            raise ValueError("channel gains must be positive")
        if abs(self.rho) > 1.0 + 1e-12:
            raise ValueError(f"|rho| = {abs(self.rho)} exceeds 1")

    @property
    def rho_bar(self) -> float:
        "Spatial separability 1 - |rho|^2, in [0, 1]."
        return max(0.0, 1.0 - abs(self.rho) ** 2)


class Statistics(NamedTuple):
    """Channel statistics of one or two users: their gains, and rho for two.

    rho is None for one user.  Unpacks as (gains, rho).
    """

    gains: tuple[float, ...]
    rho: complex | None

    @property
    def pair(self) -> ChannelPair:
        "The two-user ChannelPair that the closed forms take."
        if self.rho is None:
            raise ValueError("this command needs two users; the scene has one")
        return ChannelPair(*self.gains, self.rho)


def normalized_correlation(cross: complex, g1: float, g2: float, where: str) -> complex:
    """cross / sqrt(g1 g2) of the rule named by where, divided by max(1, |rho|).

    Rounding carries the ratio at most a few ulps past 1 (4.4e-16 over 4266
    scenes of every aperture kind).  Raises ValueError when sqrt(g1 g2) is
    not a positive finite number, as when a far user's gain sum underflows,
    or when the cross sum is not finite, as when k0 (R_2 - R_1) overflows.
    """
    norm = math.sqrt(g1 * g2)
    if not 0.0 < norm < math.inf:
        raise ValueError(
            f"{where} cannot normalize rho: its gain sums {g1:.6g} and {g2:.6g} "
            "have no positive finite geometric mean"
        )
    if not cmath.isfinite(cross):
        raise ValueError(f"{where} cannot normalize rho: its cross sum is {cross}")
    rho = cross / norm
    return rho / max(1.0, abs(rho))


def kernel_Q(wl: Wavelength, p: UserPlacement, x, z):
    """Aperture-plane channel kernel at (x, 0, z) for the given user.

    Q(x, z) = sqrt(r Psi) exp(-j k0 sqrt(D)) / (sqrt(4 pi) D^(3/4)) with
    D = x^2 + z^2 - 2 r (Phi x + Theta z) + r^2.  Vectorized over x, z.
    """
    r = p.range_m
    D = x**2 + z**2 - 2.0 * r * (p.cos_x * x + p.cos_z * z) + r**2
    if np.any(D <= 0.0):
        raise ValueError("evaluation point coincides with the user position")
    return (
        math.sqrt(r * p.cos_front)
        * np.exp(-1j * wl.k0 * np.sqrt(D))
        / (math.sqrt(4.0 * math.pi) * D**0.75)
    )


def gain_planar(a: PlanarAperture, p: UserPlacement) -> float:
    """Closed-form channel gain for a planar aperture.

    The gain is the solid angle the aperture subtends at the user over 4 pi,
    the paper's four arctan terms over {L_x/2r +- Phi} x {L_z/2r +- Theta}.
    Those terms cancel for far users, so the solid angle is summed instead
    over the two triangles of the rectangle with the Van Oosterom-Strackee
    formula (IEEE Trans. Biomed. Eng. 30, 1983): the triple product of the
    corner vectors is exactly Psi L_x L_z / r^2, and for far users the
    denominator is a sum of positive terms.  Always below the 1/2
    energy-conservation bound.
    """
    r, psi = p.range_m, p.cos_front
    hx, hz = a.length_x / (2.0 * r), a.length_z / (2.0 * r)
    # corner vectors from the user, in units of r, counter-clockwise; the
    # common component -Psi normal to the aperture enters through psi**2
    corners = [
        (sx * hx - p.cos_x, sz * hz - p.cos_z)
        for sx, sz in ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    ]
    norms = [math.sqrt(x * x + z * z + psi * psi) for x, z in corners]

    def dot(i, j):
        return corners[i][0] * corners[j][0] + corners[i][1] * corners[j][1] + psi * psi

    triple = psi * (2.0 * hx) * (2.0 * hz)
    total = 0.0
    for i, j, k in ((0, 1, 2), (0, 2, 3)):
        den = (
            norms[i] * norms[j] * norms[k]
            + dot(i, j) * norms[k]
            + dot(i, k) * norms[j]
            + dot(j, k) * norms[i]
        )
        total += math.atan2(triple, den)
    gain = total / (2.0 * math.pi)
    if not 0.0 < gain < PLANAR_GAIN_BOUND:
        raise ValueError(f"gain {gain} escaped the (0, 1/2) energy bound")
    return gain


def gain_linear(a: LinearAperture, p: UserPlacement) -> float:
    "Closed-form channel gain for a thin linear aperture along z."
    if not a.is_thin:
        log.warning(
            "linear-aperture gain assumes length_x << length_z; got %.3g x %.3g",
            a.length_x,
            a.length_z,
        )
    r, lz = p.range_m, a.length_z
    th = p.cos_z
    rho_geom = (lz - 2.0 * r * th) / math.sqrt(lz**2 - 4.0 * r * th * lz + 4.0 * r**2)
    rho_geom += (lz + 2.0 * r * th) / math.sqrt(lz**2 + 4.0 * r * th * lz + 4.0 * r**2)
    return a.length_x * math.sin(p.phi) * rho_geom / (4.0 * math.pi * r * math.sin(p.theta))


def element_channel(a: DiscreteAperture, p: UserPlacement, wl: Wavelength) -> np.ndarray:
    "Element-domain channel vector sqrt(A_s) Q(element centers) of a discrete array."
    pts = element_centers(a)
    return math.sqrt(a.element_area) * kernel_Q(wl, p, pts[:, 0], pts[:, 2])


def grid_channel(
    a: PlanarAperture, p: UserPlacement, wl: Wavelength, n_x: int, n_z: int
) -> np.ndarray:
    """Element-domain channel vector of a uniform n_x by n_z cell grid.

    sqrt(cell area) Q(cell centers) on the planar aperture, in element order
    (x varies fastest), so its products are the midpoint rule of the
    aperture integrals.
    """
    if n_x < 1 or n_z < 1:
        raise ValueError("grid resolutions must be >= 1")
    xs = (np.arange(n_x) + 0.5) / n_x * a.length_x - a.length_x / 2.0
    zs = (np.arange(n_z) + 0.5) / n_z * a.length_z - a.length_z / 2.0
    q = kernel_Q(wl, p, xs[None, :], zs[:, None])
    return math.sqrt(a.area / (n_x * n_z)) * q.ravel()


def pair_from_vectors(*h: np.ndarray) -> Statistics:
    "Statistics of one or two element-domain channel vectors: an exact finite sum."
    gains = tuple(float(np.vdot(v, v).real) for v in h)
    if len(h) == 1:
        return Statistics(gains, None)
    return Statistics(
        gains, normalized_correlation(complex(np.vdot(*h)), *gains, "pair_from_vectors")
    )


CORRELATION_ROW_BLOCK = 64
"Rows of the tensor rule summed at a time; bounds the rule's temporaries."


def correlation_on_rule(
    wl: Wavelength,
    p1: UserPlacement,
    p2: UserPlacement,
    x: np.ndarray,
    z: np.ndarray,
    wx: np.ndarray,
    wz: np.ndarray,
    where: str,
) -> complex:
    """Normalized correlation of the two kernels on a tensor-product rule.

    The cross sum sum_ij wx_i wz_j Q_1* Q_2 over the nodes (x_i, 0, z_j) is
    divided by the square root of the same-rule gain sums, so the leading
    quadrature error cancels and Cauchy-Schwarz keeps |rho| <= 1 at any
    order.  Each kernel is sqrt(r Psi / 4 pi) R^(-3/2) exp(-j k0 R), with R
    the path length from the node to the user; the constant factors cancel
    in the ratio, so a node costs the real amplitude (R_1 R_2)^(-3/2) and
    the cosine and sine of one phase k0 (R_2 - R_1).  R^2 is at least
    (r Psi)^2 > 0, since users stand in front of the aperture plane.  Rows
    of x are summed in blocks of CORRELATION_ROW_BLOCK, and the weights
    enter as wx_block @ block @ wz.
    """
    s1, s2 = user_position(p1), user_position(p2)
    re = im = g1 = g2 = 0.0
    # a far user's d r overflows and its gain sum falls to 0, or an overflowing
    # phase makes the cross sum nan: normalized_correlation reports either
    with np.errstate(over="ignore", invalid="ignore"):
        dz1, dz2 = (z - s1[2]) ** 2, (z - s2[2]) ** 2
        for i in range(0, len(x), CORRELATION_ROW_BLOCK):
            xb = x[i:i + CORRELATION_ROW_BLOCK, None]
            wb = wx[i:i + CORRELATION_ROW_BLOCK]
            d1 = (xb - s1[0]) ** 2 + s1[1] ** 2 + dz1
            d2 = (xb - s2[0]) ** 2 + s2[1] ** 2 + dz2
            r1, r2 = np.sqrt(d1), np.sqrt(d2)
            phase = wl.k0 * (r2 - r1)
            r12 = r1 * r2
            amp = 1.0 / (r12 * np.sqrt(r12))
            re += wb @ (amp * np.cos(phase)) @ wz
            im -= wb @ (amp * np.sin(phase)) @ wz
            g1 += wb @ (1.0 / (d1 * r1)) @ wz
            g2 += wb @ (1.0 / (d2 * r2)) @ wz
    return normalized_correlation(complex(re, im), float(g1), float(g2), where)


def correlation_planar(
    a: PlanarAperture,
    p1: UserPlacement,
    p2: UserPlacement,
    wl: Wavelength,
    order: int,
) -> complex:
    """Channel correlation factor for a planar aperture via the Chebyshev rule.

    The tensor-product rule of the given order over the aperture, weighted
    by sqrt(1 - psi^2) on each axis, summed by correlation_on_rule.
    """
    rule = chebyshev_nodes(order)
    w = rule.sqrt_weights
    return correlation_on_rule(
        wl, p1, p2, a.length_x / 2.0 * rule.nodes, a.length_z / 2.0 * rule.nodes, w, w,
        "correlation_planar",
    )


def correlation_linear(
    a: LinearAperture,
    p1: UserPlacement,
    p2: UserPlacement,
    wl: Wavelength,
    order: int,
) -> complex:
    """Channel correlation factor for a thin linear aperture via the Chebyshev rule.

    The 1-D rule along the strip, on the single row x = 0; normalizing by
    the same-rule gain sums cancels the length_x factor and the leading
    quadrature error, and keeps |rho| <= 1.
    """
    rule = chebyshev_nodes(order)
    return correlation_on_rule(
        wl, p1, p2, np.zeros(1), a.length_z / 2.0 * rule.nodes, np.ones(1),
        rule.sqrt_weights, "correlation_linear",
    )


def planar_oracle(
    a: PlanarAperture,
    users: tuple[UserPlacement, ...],
    wl: Wavelength,
    rel_tol: float = 1e-8,
) -> Statistics:
    """Brute-force gains and correlation: one adaptive integration over the aperture.

    The integrand evaluates each user's kernel once per node and returns
    |Q_1|^2, and for two users |Q_2|^2 and Q_1* Q_2, on a leading axis, so
    every statistic is integrated on one panel tree.  Returns the users'
    gains and, for two users, rho = int Q_1* Q_2 / sqrt(g1 g2) through
    normalized_correlation; for one user rho is None.

    Two users' relative phase k0 (R_2 - R_1) is first taken at the
    aperture's corners and centre.  A span above 2 pi ORACLE_MAX_PANELS
    rad needs more than one panel per period along a line every leaf
    crosses, beyond the panel budget, so NonConvergenceError is raised
    before any integration.
    """
    hx, hz = a.length_x / 2.0, a.length_z / 2.0
    if len(users) == 2:
        pts = np.array([[sx * hx, 0.0, sz * hz] for sx, sz in
                        ((-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0))])
        r1, r2 = (np.linalg.norm(pts - user_position(u), axis=1) for u in users)
        span = wl.k0 * float(np.ptp(r2 - r1))
        if not span <= 2.0 * math.pi * ORACLE_MAX_PANELS:
            raise NonConvergenceError(
                f"the users' relative phase spans {span:.3e} rad over the aperture, "
                f"more than {ORACLE_MAX_PANELS} oracle panels can resolve"
            )

    def integrand(x, z):
        q = [kernel_Q(wl, u, x, z) for u in users]
        # filled in place; np.stack would copy every component once more
        out = np.empty((2 * len(q) - 1,) + q[0].shape, dtype=complex)
        for k, qk in enumerate(q):
            out[k] = np.abs(qk) ** 2
        if len(q) == 2:
            np.multiply(np.conj(q[0]), q[1], out=out[2])
        return out

    out = adaptive_integrate_2d(integrand, ((-hx, hx), (-hz, hz)), rel_tol)
    gains = tuple(float(v.real) for v in out[:len(users)])
    if len(users) == 1:
        return Statistics(gains, None)
    return Statistics(gains, normalized_correlation(complex(out[2]), *gains, "planar_oracle"))


def downlink_snr_coefficient(rx_area: float, sigma2: float, k0: float, eta: float) -> float:
    """Per-unit-power downlink SNR coefficient c_k = A_u k0^2 eta^2 / (4 pi sigma^2).

    The downlink SNR at allocated power x is c_k * x.
    """
    if min(rx_area, sigma2) <= 0.0:
        raise ValueError("downlink_snr_coefficient arguments must be positive")
    try:
        return rx_area * k0**2 * eta**2 / (4.0 * math.pi * sigma2)
    except OverflowError:
        raise ValueError(f"wavenumber {k0!r} overflows the downlink SNR coefficient") from None


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows a float as a linear ratio") from None
