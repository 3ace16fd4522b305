"""Uplink capacity: MRC, interference whitening, SIC, ZF, and the rate region.

Closed forms take the (gain, gain, correlation) statistics; the rate region
is the tuple of its counterclockwise vertices.  The grid-based routines (the
MRC detector, the whitening operator and the SIC pipeline) re-derive the
same SNRs from discretized fields, and verify uses them to cross-check the
algebra end to end.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair
from .numerics import SampledField, inner_product, norm_squared, sample_noise_batch

log = logging.getLogger(__name__)

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


def su_capacity(gamma_bar: float, g: float) -> float:
    "Single-user capacity log2(1 + gamma_bar * g), bits/s/Hz, in either direction."
    if gamma_bar < 0.0:
        raise ValueError("transmit SNR must be nonnegative")
    return math.log2(1.0 + gamma_bar * g)


def mrc_detector(h: SampledField) -> SampledField:
    "Unit-norm detector aligned with the channel response."
    hh = norm_squared(h)
    if hh <= 0.0:
        raise ValueError("cannot build an MRC detector from a zero field")
    return h.scaled(1.0 / math.sqrt(hh))


def whitening_mu(gamma1: float, g1: float, root: MuRoot = MuRoot.VANISHING) -> float:
    "Whitening coefficient mu_1 = -1/g1 +- 1/(g1 sqrt(1 + gamma1 g1))."
    if gamma1 < 0.0 or g1 <= 0.0:
        raise ValueError("need gamma1 >= 0 and g1 > 0")
    s = math.sqrt(1.0 + gamma1 * g1)
    if root is MuRoot.VANISHING:
        return -1.0 / g1 + 1.0 / (g1 * s)
    return -1.0 / g1 - 1.0 / (g1 * s)


@dataclass(frozen=True)
class WhiteningOperator:
    """Rank-one update delta(r' - r) + mu1 G1(r') G1*(r) on a grid.

    apply() whitens interference-plus-noise colored by the user-1 channel.
    """

    g1_field: SampledField
    gamma1: float
    root: MuRoot = MuRoot.VANISHING

    @property
    def g1(self) -> float:
        return norm_squared(self.g1_field)

    @property
    def mu1(self) -> float:
        return whitening_mu(self.gamma1, self.g1, self.root)

    def apply(self, f: SampledField) -> SampledField:
        return f.plus(self.g1_field, self.mu1 * inner_product(self.g1_field, f))


def whitening_build(
    g1_field: SampledField, gamma1: float, root: MuRoot = MuRoot.VANISHING
) -> WhiteningOperator:
    op = WhiteningOperator(g1_field=g1_field, gamma1=gamma1, root=root)
    _ = op.mu1  # validates (gamma1, g1) eagerly
    return op


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


def sum_capacity_ul(gamma1: float, gamma2: float, ch: ChannelPair) -> float:
    "Order-independent two-user sum-rate capacity, bits/s/Hz."
    if gamma1 < 0.0 or gamma2 < 0.0:
        raise ValueError("transmit SNRs must be nonnegative")
    return math.log2(
        1.0
        + gamma1 * gamma2 * ch.g1 * ch.g2 * ch.rho_bar
        + gamma1 * ch.g1
        + gamma2 * ch.g2
    )


def zf_sum_rate_ul(gamma1: float, gamma2: float, ch: ChannelPair) -> float:
    "Sum rate of the linear zero-forcing detector; never exceeds capacity."
    rb = ch.rho_bar
    return math.log2(1.0 + gamma1 * ch.g1 * rb) + math.log2(1.0 + gamma2 * ch.g2 * rb)


def region_ul(gamma1: float, gamma2: float, ch: ChannelPair) -> tuple:
    """Pentagon capacity region as its tuple of CCW (R1, R2) vertices.

    Corners are the two SIC operating points; degenerate vertices (zero side
    lengths, no inter-user interference) are merged.
    """
    c1 = su_capacity(gamma1, ch.g1)
    c2 = su_capacity(gamma2, ch.g2)
    cs = sum_capacity_ul(gamma1, gamma2, ch)
    verts = [
        (0.0, 0.0),
        (c1, 0.0),
        (c1, cs - c1),
        (cs - c2, c2),
        (0.0, c2),
    ]
    out = []
    for v in verts:
        if not out or not (
            math.isclose(v[0], out[-1][0], abs_tol=1e-12)
            and math.isclose(v[1], out[-1][1], abs_tol=1e-12)
        ):
            out.append(v)
    if len(out) > 1 and math.isclose(out[0][0], out[-1][0], abs_tol=1e-12) and math.isclose(
        out[0][1], out[-1][1], abs_tol=1e-12
    ):
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Table1Result:
    "Discretized SIC pipeline output: rates, SNRs, and the cancellation residual."

    rates: Rates
    gamma1: float
    gamma2: float
    residual_projection: float
    capped: bool


def _empirical_noise_variances(g1_field, g2_whitened, w_op, seed, draws):
    """Monte-Carlo powers of the disturbance behind the two decode SNRs.

    User 1 decodes against thermal noise alone (post-SIC); user 2 decodes
    the whitened interference-plus-noise field.  Both projected variances
    converge to 1 (the exact discrete value) as draws grow.
    """
    grid = g1_field.grid
    noise = sample_noise_batch(grid, 1.0, seed, draws)
    v1 = mrc_detector(g1_field)
    proj1 = noise @ (grid.weights * np.conj(v1.values))

    rng = np.random.default_rng([seed, 1])
    symbols = (rng.standard_normal(draws) + 1j * rng.standard_normal(draws)) / math.sqrt(2.0)
    z = math.sqrt(w_op.gamma1) * np.outer(symbols, g1_field.values) + noise
    colored = z @ (grid.weights * np.conj(g1_field.values))
    whitened = z + w_op.mu1 * np.outer(colored, g1_field.values)
    v2 = mrc_detector(g2_whitened)
    proj2 = whitened @ (grid.weights * np.conj(v2.values))
    return float(np.mean(np.abs(proj1) ** 2)), float(np.mean(np.abs(proj2) ** 2))


def simulate_table1(
    g1_field: SampledField,
    g2_field: SampledField,
    gamma1: float,
    gamma2: float,
    seed: int = 0,
    root: MuRoot = MuRoot.VANISHING,
    wavelength: float | None = None,
    noise_draws: int = 0,
) -> Table1Result:
    """Run the four-step SIC pipeline (order 2->1) on discretized fields.

    Steps: whiten the user-1-colored interference, MRC-decode user 2 from the
    whitened observation, subtract the reconstructed user-2 signal, MRC-decode
    user 1.  All statistics (gains, correlation, mu1) come from the grid, so
    the result converges to the closed forms as the grid refines.

    With noise_draws = 0 the noise power behind each decode SNR is the exact
    discrete value; with noise_draws > 0 it is estimated from that many
    seeded noise realizations pushed through the same operators.  The seed
    also fixes the symbol draw used for the cancellation-residual check.
    """
    if wavelength is not None:
        cell = math.sqrt(float(np.max(g1_field.grid.weights)))
        if cell > wavelength / 4.0:
            log.warning(
                "grid cell %.4g m is coarser than a quarter wavelength %.4g m; "
                "the pipeline may under-resolve the kernel phase",
                cell,
                wavelength / 4.0,
            )
    w = whitening_build(g1_field, gamma1, root)
    g2_whitened = w.apply(g2_field)
    snr2 = gamma2 * norm_squared(g2_whitened)
    snr1 = gamma1 * norm_squared(g1_field)
    if noise_draws > 0:
        var1, var2 = _empirical_noise_variances(
            g1_field, g2_whitened, w, seed, noise_draws
        )
        snr1 /= var1
        snr2 /= var2

    # Cancellation check on one signal realization: after subtracting the
    # reconstructed user-2 term, no user-2 component may remain.
    rng = np.random.default_rng(seed)
    s1, s2 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / math.sqrt(2.0)
    signal = g1_field.scaled(math.sqrt(gamma1) * s1).plus(
        g2_field, math.sqrt(gamma2) * s2
    )
    residual = signal.plus(g2_field, -math.sqrt(gamma2) * s2)
    leftover = residual.plus(g1_field, -math.sqrt(gamma1) * s1)
    resid_proj = abs(inner_product(g2_field, leftover))

    capped = snr1 > SNR_CAP or snr2 > SNR_CAP
    snr1 = min(snr1, SNR_CAP)
    snr2 = min(snr2, SNR_CAP)
    return Table1Result(
        rates=Rates(r1=math.log2(1.0 + snr1), r2=math.log2(1.0 + snr2)),
        gamma1=snr1,
        gamma2=snr2,
        residual_projection=resid_proj,
        capped=capped,
    )
