"""Downlink capacity through uplink-downlink duality.

The downlink problem is solved in its dual-uplink form: split the sum power
across the two dual users (closed-form KKT split), map the split to source
current vectors (forward transform), or recover the dual split from given
currents (reverse transform).  The transforms act on element-domain channel
vectors (channel.grid_channel), so their integrals are plain vector
products.  DPC rates are the dual uplink's SIC rates with the order
reversed (Vishwanath, Jindal & Goldsmith, IEEE Trans. IT 49, 2003), so the
rate formulas live in uplink only.  The sum capacity is one closed form at
the optimal split.  ZF precoding with two-channel water-filling is built on
the same statistics, and the capacity region is the convex hull of the dual
pentagons of all splits, formed as one array (uplink.pentagon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair
from .regions import convex_hull
from .uplink import Rates, SicOrder, pentagon, sic_rates

RHO_BAR_FLOOR = 1e-12
"Below this separability the KKT threshold is undefined (coincident users)."

DEFAULT_SPLITS = 201
"Power splits region_dl sweeps unless told otherwise."

MAX_SPLITS = 100_000
"""Most power splits region_dl accepts.  Each split adds its pentagon's
five vertices to the hull input: 1e5 splits take about 1.4 s and peak near
125 MB in one process (2-vCPU Xeon, one BLAS thread); 2001 take 0.01 s."""


@dataclass(frozen=True)
class DualLink:
    """Two-user downlink scene reduced to what the duality formulas consume.

    snr_per_power holds the per-unit-power SNR coefficients
    c_k = A_u,k k0^2 eta^2 / (4 pi sigma_k^2); the downlink SNR of user k at
    allocated power x is c_k * x.
    """

    ch: ChannelPair
    snr_per_power: tuple[float, float]
    power: float

    def __post_init__(self):
        if not self.power > 0.0:
            raise ValueError("power budget must be positive")
        if min(self.snr_per_power) <= 0.0:
            raise ValueError("SNR coefficients must be positive")

    def snr_at(self, k: int, x: float) -> float:
        return self.snr_per_power[k] * x


@dataclass(frozen=True)
class DualPowerSplit:
    "Optimal dual-uplink power split with the KKT threshold diagnostics."

    p1: float
    p2: float
    xi: float
    branch: str


def kkt_threshold(link: DualLink) -> float:
    """Threshold xi deciding the dual power split.

    Equal to (c1 g1 - c2 g2) / (c1 c2 g1 g2 rho_bar); undefined for
    rho_bar ~ 0, handled by the caller's coincident-user branch.
    """
    c1, c2 = link.snr_per_power
    g1, g2 = link.ch.g1, link.ch.g2
    rb = link.ch.rho_bar
    return (c1 * g1 - c2 * g2) / (c1 * c2 * g1 * g2 * rb)


def dual_power_allocation(link: DualLink) -> DualPowerSplit:
    """Closed-form KKT power split of the dual uplink problem.

    The unconstrained stationary point is P1 = (P + xi)/2, which meets the
    corner branches continuously at xi = +-P.  For coincident users (rho_bar
    below RHO_BAR_FLOOR) superposing both streams brings no gain and all
    power goes to the stronger single-user channel.
    """
    p = link.power
    if link.ch.rho_bar < RHO_BAR_FLOOR:
        c1g1 = link.snr_at(0, p) * link.ch.g1
        c2g2 = link.snr_at(1, p) * link.ch.g2
        if c1g1 >= c2g2:
            return DualPowerSplit(p1=p, p2=0.0, xi=math.inf, branch="coincident-1")
        return DualPowerSplit(p1=0.0, p2=p, xi=-math.inf, branch="coincident-2")
    xi = kkt_threshold(link)
    if xi >= p:
        return DualPowerSplit(p1=p, p2=0.0, xi=xi, branch="all-to-1")
    if xi <= -p:
        return DualPowerSplit(p1=0.0, p2=p, xi=xi, branch="all-to-2")
    return DualPowerSplit(p1=(p + xi) / 2.0, p2=(p - xi) / 2.0, xi=xi, branch="interior")


def dpc_rates(link: DualLink, p1: float, p2: float, order: SicOrder) -> Rates:
    """Per-user downlink rates under dirty-paper coding at a given split.

    The dual uplink SIC rates with the opposite order: encoding 2->1 in the
    downlink achieves the dual 1->2 uplink rates.
    """
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("allocated powers must be nonnegative")
    dual_order = SicOrder.USER1_FIRST if order is SicOrder.USER2_FIRST else SicOrder.USER2_FIRST
    return sic_rates(link.snr_at(0, p1), link.snr_at(1, p2), link.ch, dual_order)


def sum_capacity_dl(link: DualLink) -> float:
    """Downlink sum capacity log2(1 + e1 + e2 + e1 e2 rho_bar) at the optimal
    dual power split, with e_k = snr_k(P_k*) g_k.

    At a corner split one e_k is 0, and the expression is the other user's
    single-user capacity at the full budget, bit for bit.
    """
    split = dual_power_allocation(link)
    e1 = link.snr_at(0, split.p1) * link.ch.g1
    e2 = link.snr_at(1, split.p2) * link.ch.g2
    return np.log2(1.0 + e1 + e2 + e1 * e2 * link.ch.rho_bar)


def water_fill_two(c1: float, c2: float, power: float) -> tuple[float, float]:
    """Closed-form water-filling over two parallel channels.

    Maximizes log2(1 + c1 P1) + log2(1 + c2 P2) under P1 + P2 = power.
    Degenerate channels (c_k = 0) receive power only if the other is also
    degenerate.
    """
    if power < 0.0:
        raise ValueError("power must be nonnegative")
    if c1 <= 0.0 and c2 <= 0.0:
        return power / 2.0, power / 2.0
    if c1 <= 0.0:
        return 0.0, power
    if c2 <= 0.0:
        return power, 0.0
    level = (power + 1.0 / c1 + 1.0 / c2) / 2.0
    if level >= max(1.0 / c1, 1.0 / c2):
        return level - 1.0 / c1, level - 1.0 / c2
    return (power, 0.0) if c1 >= c2 else (0.0, power)


def zf_precoding_dl(link: DualLink) -> Rates:
    """Zero-forcing precoding with water-filled powers.

    Effective per-unit-power gains are c_k g_k (1 - |rho|^2); at |rho| = 1 the
    projection annihilates both channels and the rates are zero.
    """
    rb = link.ch.rho_bar
    c1 = link.snr_per_power[0] * link.ch.g1 * rb
    c2 = link.snr_per_power[1] * link.ch.g2 * rb
    p1, p2 = water_fill_two(c1, c2, link.power)
    return Rates(r1=math.log2(1.0 + c1 * p1), r2=math.log2(1.0 + c2 * p2))


def _norm2(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def currents_from_dual(
    p1: float, p2: float, h1hat: np.ndarray, h2hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward duality transform: dual power split to the downlink source
    currents (J1, J2) of the 2->1 encoding order.

    The user-1 current is the normalized projection of H1hat* away from a
    P2-weighted share of H2hat*, and the user-2 current is a rescaled
    conjugate-matched beam.  Both are formed from their coefficients in
    span{H1hat*, H2hat*}, so the total current power equals p1 + p2 to
    rounding on any grid.
    """
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("allocated powers must be nonnegative")
    h1 = _norm2(h1hat)
    h2 = _norm2(h2hat)
    if h1 <= 0.0 or h2 <= 0.0:
        raise ValueError("channel vectors must have positive norm")
    q = complex(np.vdot(h1hat, h2hat))  # int H1hat* H2hat

    # J1 = sqrt(p1) (H1hat* - c H2hat*) / sqrt(d)
    c = p2 * q / (1.0 + p2 * h2)
    d = h1 - p2 * abs(q) ** 2 / (1.0 + p2 * h2)
    if p1 > 0.0:
        a, b = math.sqrt(p1) / math.sqrt(d), -math.sqrt(p1) / math.sqrt(d) * c
    else:
        a, b = 0.0 + 0.0j, 0.0 + 0.0j
    j1 = a * np.conj(h1hat) + b * np.conj(h2hat)

    # |int H2hat J1|^2 through the span coefficients; note
    # int H2hat conj(H1hat) equals q itself, not its conjugate.
    x = abs(a * q + b * h2) ** 2

    # J2 = sqrt(p2) H2hat* sqrt(1 + x) / sqrt(h2)
    j2 = math.sqrt(p2) * math.sqrt(1.0 + x) / math.sqrt(h2) * np.conj(h2hat)
    return j1, j2


def rates_from_currents(
    j1: np.ndarray, j2: np.ndarray, h1hat: np.ndarray, h2hat: np.ndarray
) -> Rates:
    "Downlink DPC rates of the 2->1 encoding order from current/channel integrals."
    s1 = abs(np.sum(h1hat * j1)) ** 2
    x21 = abs(np.sum(h2hat * j1)) ** 2
    s2 = abs(np.sum(h2hat * j2)) ** 2
    return Rates(r1=math.log2(1.0 + s1), r2=math.log2(1.0 + s2 / (1.0 + x21)))


def dual_from_currents(
    j1: np.ndarray, j2: np.ndarray, h1hat: np.ndarray, h2hat: np.ndarray
) -> tuple[float, float]:
    """Reverse duality transform: currents to the dual-uplink power split (P1, P2).

    The recovered powers achieve the downlink rates in the dual uplink and
    never exceed the total current power (Cauchy-Schwarz).
    """
    h1 = _norm2(h1hat)
    h2 = _norm2(h2hat)
    if h2 <= 0.0 or h1 <= 0.0:
        raise ValueError("channel vectors must have positive norm")
    q = complex(np.vdot(h1hat, h2hat))
    c21 = abs(np.sum(h2hat * j1)) ** 2
    p2 = abs(np.sum(h2hat * j2)) ** 2 / (h2 * (1.0 + c21))
    denom = h1 - p2 * abs(q) ** 2 / (1.0 + p2 * h2)
    p1 = abs(np.sum(h1hat * j1)) ** 2 / denom
    return p1, p2


def region_dl(link: DualLink, n_splits: int = DEFAULT_SPLITS) -> tuple:
    """Downlink capacity region: convex hull of the dual-uplink pentagons.

    Sweeps n_splits evenly spaced power splits (P1, P - P1) and hulls the
    vertices of all their dual pentagons at once.
    """
    if not 2 <= n_splits <= MAX_SPLITS:
        raise ValueError(f"need between 2 and {MAX_SPLITS} power splits, got {n_splits}")
    # the last quotient can round above the budget, leaving p2 < 0
    p1 = np.minimum(link.power * np.arange(n_splits) / (n_splits - 1), link.power)
    p2 = link.power - p1
    vertices = pentagon(link.snr_at(0, p1), link.snr_at(1, p2), link.ch)
    return tuple(convex_hull(vertices.reshape(-1, 2)))
