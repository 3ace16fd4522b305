"""Uplink capacity: interference whitening, SIC, ZF, and the rate region.

Closed forms take the (gain, gain, correlation) statistics; the capacity
formulas also take arrays of transmit SNRs, so `pentagon` forms many
pentagons at once.  The rate region is the convex hull of one pentagon, as
the tuple of its counterclockwise vertices.  The SIC pipeline of the
paper's Table I (whiten, MRC-decode, subtract, MRC-decode) re-derives the
same SNRs from two element-domain channel vectors (channel.grid_channel),
and verify uses it to cross-check the algebra end to end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair
from .regions import convex_hull

SNR_CAP = 1e30
"Linear SNR ceiling reported for degenerate (noise-free) simulations."


class SicOrder(enum.Enum):
    """Which user goes first: decoded first (and then subtracted) in the
    uplink, encoded first (and pre-canceled by the other) in the downlink."""

    USER2_FIRST = "2->1"
    USER1_FIRST = "1->2"


class MuRoot(enum.Enum):
    """Branch choice for the whitening coefficient.

    VANISHING is -1/g + 1/(g sqrt(1 + snr g)), the root that tends to 0 as the
    interferer SNR vanishes, so the whitener degenerates to the identity.
    """

    VANISHING = "vanishing"
    ALTERNATE = "alternate"


@dataclass(frozen=True)
class Rates:
    "Per-user rates in bits/s/Hz, uplink or downlink."

    r1: float
    r2: float

    @property
    def total(self) -> float:
        return self.r1 + self.r2


def su_capacity(gamma_bar, g: float):
    """Single-user capacity log2(1 + gamma_bar * g), bits/s/Hz, in either
    direction; elementwise over an array of SNRs."""
    if np.any(gamma_bar < 0.0):
        raise ValueError("transmit SNR must be nonnegative")
    return np.log2(1.0 + gamma_bar * g)


def whitening_mu(gamma1: float, g1: float, root: MuRoot = MuRoot.VANISHING) -> float:
    "Whitening coefficient mu_1 = -1/g1 +- 1/(g1 sqrt(1 + gamma1 g1))."
    if gamma1 < 0.0 or g1 <= 0.0:
        raise ValueError("need gamma1 >= 0 and g1 > 0")
    s = math.sqrt(1.0 + gamma1 * g1)
    if root is MuRoot.VANISHING:
        return -1.0 / g1 + 1.0 / (g1 * s)
    return -1.0 / g1 - 1.0 / (g1 * s)


def whiten(h1: np.ndarray, mu1: float, f: np.ndarray) -> np.ndarray:
    """Rank-one whitening update f + mu1 <h1, f> h1 of an element-domain vector.

    The discrete form of delta(r' - r) + mu1 G1(r') G1*(r): it whitens
    interference-plus-noise colored by the user-1 channel h1.
    """
    return f + mu1 * np.vdot(h1, f) * h1


def sic_snrs(
    gamma1: float, gamma2: float, ch: ChannelPair, order: SicOrder
) -> tuple[float, float]:
    """Post-SIC decode SNRs (user 1, user 2) for the given order.

    The user decoded last sees no interference; the user decoded first pays
    the whitened-interference penalty 1 - snr_j g_j |rho|^2 / (1 + snr_j g_j).
    """
    if gamma1 < 0.0 or gamma2 < 0.0:
        raise ValueError("transmit SNRs must be nonnegative")
    r2 = abs(ch.rho) ** 2
    if order is SicOrder.USER2_FIRST:
        penalty = 1.0 - gamma1 * ch.g1 * r2 / (1.0 + gamma1 * ch.g1)
        return gamma1 * ch.g1, gamma2 * ch.g2 * penalty
    penalty = 1.0 - gamma2 * ch.g2 * r2 / (1.0 + gamma2 * ch.g2)
    return gamma1 * ch.g1 * penalty, gamma2 * ch.g2


def sic_rates(gamma1: float, gamma2: float, ch: ChannelPair, order: SicOrder) -> Rates:
    s1, s2 = sic_snrs(gamma1, gamma2, ch, order)
    return Rates(r1=math.log2(1.0 + s1), r2=math.log2(1.0 + s2))


def sum_capacity_ul(gamma1, gamma2, ch: ChannelPair):
    "Order-independent two-user sum-rate capacity, bits/s/Hz; elementwise over arrays."
    if np.any((gamma1 < 0.0) | (gamma2 < 0.0)):
        raise ValueError("transmit SNRs must be nonnegative")
    return np.log2(
        1.0
        + gamma1 * gamma2 * ch.g1 * ch.g2 * ch.rho_bar
        + gamma1 * ch.g1
        + gamma2 * ch.g2
    )


def zf_sum_rate_ul(gamma1: float, gamma2: float, ch: ChannelPair) -> float:
    "Sum rate of the linear zero-forcing detector; never exceeds capacity."
    rb = ch.rho_bar
    return math.log2(1.0 + gamma1 * ch.g1 * rb) + math.log2(1.0 + gamma2 * ch.g2 * rb)


def pentagon(gamma1, gamma2, ch: ChannelPair) -> np.ndarray:
    """Vertices of the capacity pentagon at transmit SNRs of one shape, (..., 5, 2).

    Counterclockwise from the origin: (0, 0), (C1, 0), the two SIC operating
    points (C1, Cs - C1) and (Cs - C2, C2), and (0, C2).  Degenerate pentagons
    repeat vertices; the hull drops them.
    """
    c1 = su_capacity(gamma1, ch.g1)
    c2 = su_capacity(gamma2, ch.g2)
    cs = sum_capacity_ul(gamma1, gamma2, ch)
    zero = np.zeros_like(cs)
    r1 = np.stack([zero, c1, c1, cs - c2, zero], axis=-1)
    r2 = np.stack([zero, zero, cs - c1, c2, c2], axis=-1)
    return np.stack([r1, r2], axis=-1)


def region_ul(gamma1: float, gamma2: float, ch: ChannelPair) -> tuple:
    "Pentagon capacity region as its tuple of CCW (R1, R2) vertices."
    return tuple(convex_hull(pentagon(gamma1, gamma2, ch)))


def simulate_table1(
    h1: np.ndarray,
    h2: np.ndarray,
    gamma1: float,
    gamma2: float,
    root: MuRoot = MuRoot.VANISHING,
) -> tuple[float, float]:
    """Decode SNRs (user 1, user 2) of the four-step SIC pipeline, order 2->1.

    Steps on element-domain channel vectors: whiten the user-1-colored
    interference, MRC-decode user 2 from the whitened observation, subtract
    the reconstructed user-2 signal, MRC-decode user 1.  The whitened noise
    is white at unit intensity, so each MRC decode SNR is the transmit SNR
    times the squared norm of the channel it matches.  All statistics
    (gains, correlation, mu1) come from the vectors, so the result converges
    to the closed forms as the grid refines.  Neither SNR exceeds SNR_CAP.
    """
    g1 = float(np.vdot(h1, h1).real)
    h2_whitened = whiten(h1, whitening_mu(gamma1, g1, root), h2)
    snr1 = gamma1 * g1
    snr2 = gamma2 * float(np.vdot(h2_whitened, h2_whitened).real)
    return min(snr1, SNR_CAP), min(snr2, SNR_CAP)
