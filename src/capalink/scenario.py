"""Scene assembly: geometry, budgets, and defaults bound into one object.

A Scene is the validated unit of work for the CLI and the verification
suites; channel_pair, the one statistics entry, turns it into the gains of
one or two users and, for two, rho, on the one rule order that
auto_quadrature_order picks.  Defaults reproduce the reference simulation
setup: a 0.5 m x 0.5 m planar aperture at 2.4 GHz-band wavelength 0.125 m
serving two co-directional users at 10 m and 20 m with 30/40 dB uplink
transmit SNRs and a 50 dB downlink sum SNR.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import channel, coupling, downlink, uplink
from .channel import ChannelPair, Statistics, db_to_linear, downlink_snr_coefficient
from .coupling import CouplingModel
from .downlink import DualLink
from .geometry import (
    DiscreteAperture,
    LinearAperture,
    PlanarAperture,
    UserPlacement,
    Wavelength,
)
from .uplink import SicOrder

log = logging.getLogger(__name__)

LIMITS = {
    # the correlation rule costs order^2: 1000 takes 0.05 s, 10000 about 5 s and 80 MB
    "quadrature_order": (1, 10000),
    # `gain` on 401 x 401 takes 0.05 s and 47 MB resident, 6 s and 380 MB coupled
    "elements": (1, 401),
    # five hull input vertices a split: 1e5 splits take about 1.4 s and 125 MB
    "splits": (2, 100_000),
    # rows are allocated up front; at about 54 ms an area row above 100 m^2, 1000 take a minute
    "steps": (1, 1000),
    "seed": (0, math.inf),
}
"""Range (lowest, highest) of each whole-number input: rule order, elements
per side, downlink power splits, sweep rows and seed.  Costs measured in one
process with one BLAS thread on a 2-vCPU Xeon."""

DEFAULT_SPLITS = 201
"Power splits of a downlink region when none are asked for."


class SceneError(ValueError):
    "A scene failed validation."


def read_number(name: str, value, limit: str | None = None) -> float | int:
    """value, a config number or a parsed option, as a finite float or, with a
    limit (a key of LIMITS), a whole number in that range.  Anything else,
    strings and booleans included, raises SceneError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(f"{name} must be a number, got {value!r}")
    if limit is None:
        # JSON NaN and Infinity, 1e400 read as inf, and integers past the float range
        if not abs(value) <= sys.float_info.max:
            raise SceneError(f"{name} must be a finite number, got {value}")
        return float(value)
    lo, hi = LIMITS[limit]
    if not ((isinstance(value, int) or value.is_integer()) and lo <= value <= hi):
        raise SceneError(f"{name} must be a whole number from {lo} to {hi}, got {value}")
    return int(value)


@dataclass(frozen=True)
class Finding:
    severity: str  # "warning"
    message: str


@dataclass(frozen=True)
class Scene:
    wavelength: Wavelength
    aperture: PlanarAperture | LinearAperture | DiscreteAperture
    users: tuple[UserPlacement, ...]
    ul_snr_db: tuple[float, ...]
    dl_sum_snr_db: float | None = None
    dl_power: float | None = None
    quadrature_order: int | None = None  # None: auto_quadrature_order picks by area

    def __post_init__(self):
        if len(self.users) not in (1, 2):
            raise SceneError(f"scene needs 1 or 2 users, got {len(self.users)}")
        if len(self.ul_snr_db) != len(self.users):
            raise SceneError("one uplink SNR per user is required")

    @property
    def is_two_user(self) -> bool:
        return len(self.users) == 2

    @property
    def ul_snr_linear(self) -> tuple[float, ...]:
        return tuple(db_to_linear(db) for db in self.ul_snr_db)

    def snr_coefficient(self, k: int) -> float:
        "Downlink SNR per unit allocated power for user k."
        u = self.users[k]
        return downlink_snr_coefficient(
            u.rx_area, u.noise_intensity, self.wavelength.k0, self.wavelength.eta
        )

    @property
    def downlink_power(self) -> float:
        """Sum power budget of the downlink.

        Either given directly, or derived from the sum-SNR constraint through
        the per-unit-power SNR map (which requires both users to share the
        same map).
        """
        if self.dl_power is not None:
            return self.dl_power
        if self.dl_sum_snr_db is None:
            raise SceneError("scene has no downlink budget (dl_sum_snr_db or dl_power)")
        coeffs = [self.snr_coefficient(k) for k in range(len(self.users))]
        if max(coeffs) - min(coeffs) > 1e-9 * max(coeffs):
            raise SceneError(
                "users have different SNR-per-power maps; the sum-SNR budget is "
                "ambiguous, specify dl_power instead"
            )
        return db_to_linear(self.dl_sum_snr_db) / coeffs[0]


def scene_defaults() -> Scene:
    "The reference two-user planar-aperture scene."
    wl = Wavelength(0.125)
    a_u = wl.isotropic_rx_area
    return Scene(
        wavelength=wl,
        aperture=PlanarAperture(0.5, 0.5),
        users=(
            UserPlacement(10.0, math.pi / 6, math.pi / 3, a_u, 1.0),
            UserPlacement(20.0, math.pi / 6, math.pi / 3, a_u, 1.0),
        ),
        ul_snr_db=(30.0, 40.0),
        dl_sum_snr_db=50.0,
    )


def validate(scene: Scene) -> list[Finding]:
    "Warnings on the scene's model assumptions; computes no statistics."
    findings: list[Finding] = []
    ap = scene.aperture
    area = ap.area
    for i, u in enumerate(scene.users, start=1):
        if u.rx_area * 10.0 > area:
            findings.append(
                Finding(
                    "warning",
                    f"user {i} rx_area {u.rx_area:.3g} is not small against the "
                    f"aperture area {area:.3g}; the sub-wavelength-user model "
                    "degrades",
                )
            )
        if u.rx_area > scene.wavelength.lam**2:
            findings.append(
                Finding(
                    "warning",
                    f"user {i} rx_area {u.rx_area:.3g} exceeds lambda^2; not a "
                    "sub-wavelength antenna",
                )
            )
    if isinstance(ap, LinearAperture) and not ap.is_thin:
        findings.append(
            Finding("warning", "linear aperture is not thin (length_x > length_z/10)")
        )
    return findings


def auto_quadrature_order(scene: Scene) -> int:
    "Rule order of a CAPA correlation: the scene's if set, else 20 up to 100 m^2, 1000 above."
    if scene.quadrature_order is not None:
        return scene.quadrature_order
    return 20 if scene.aperture.area <= 100.0 else 1000


def channel_pair(scene: Scene, coupling_model: CouplingModel | None = None) -> Statistics:
    """Statistics of the scene's one or two users, for every aperture kind.

    A discrete array's statistics come from its element vectors, coupled
    if a model is given.  A planar or linear aperture's gains come from
    closed forms, then rho from the Chebyshev rule of the order
    auto_quadrature_order picks.  Coincident users (rho_bar < 1e-9) log a
    warning.
    """
    wl = scene.wavelength
    ap = scene.aperture
    if isinstance(ap, DiscreteAperture):
        if coupling_model is not None:
            stats = coupling.coupled_pair(ap, scene.users, wl, coupling_model)
        else:
            stats = channel.pair_from_vectors(
                *(channel.element_channel(ap, u, wl) for u in scene.users)
            )
    elif coupling_model is not None:
        raise SceneError("mutual coupling is modeled for discrete apertures only")
    else:
        if isinstance(ap, LinearAperture):
            gain, correlation = channel.gain_linear, channel.correlation_linear
        else:
            gain, correlation = channel.gain_planar, channel.correlation_planar
        gains = tuple(gain(ap, u) for u in scene.users)
        n = auto_quadrature_order(scene)
        rho = correlation(ap, *scene.users, wl, n) if scene.is_two_user else None
        stats = Statistics(gains, rho)
    if stats.rho is not None and stats.pair.rho_bar < 1e-9:
        log.warning("users are spatially coincident: rho_bar = %.3g", stats.pair.rho_bar)
    return stats


def asymptotic_pair(scene: Scene) -> Statistics:
    """Statistics of the infinite aperture: each user's limit gain, rho = 0.

    A planar aperture captures half the radiated power, a discrete array the
    occupied share of that half, and a thin strip L_x sin(phi) /
    (2 pi r sin(theta)); the users decorrelate in the limit.
    """
    if not scene.is_two_user:
        raise SceneError("asymptotic_pair needs a two-user scene")
    ap = scene.aperture
    if isinstance(ap, LinearAperture):
        g1, g2 = (
            ap.length_x * math.sin(u.phi) / (2.0 * math.pi * u.range_m * math.sin(u.theta))
            for u in scene.users
        )
        return Statistics((g1, g2), 0j)
    g = 0.5 * ap.occupation_ratio if isinstance(ap, DiscreteAperture) else 0.5
    return Statistics((g, g), 0j)


def dual_link(scene: Scene, ch: ChannelPair) -> DualLink:
    "Downlink scene in dual-uplink form, on the statistics ch."
    return DualLink(
        ch=ch,
        snr_per_power=(scene.snr_coefficient(0), scene.snr_coefficient(1)),
        power=scene.downlink_power,
    )


def rates(scene: Scene, stats: Statistics, link: str) -> dict:
    """Every named rate of one link, "ul" or "dl", on stats, in bits/s/Hz;
    only that link's budget is read.

    Ck_<link> is user k's single-user capacity.  Two users add the sum
    capacity C_<link>, the ZF sum rate R_<link>_zf and Rates: the uplink's
    SIC rates of both decode orders, the downlink's DPC rates (2->1) at its
    DualPowerSplit `split` and its ZF rates.
    """
    report = {}
    if stats.rho is not None:
        ch = stats.pair
        if link == "ul":
            s1, s2 = scene.ul_snr_linear
            report = {"C_ul": uplink.sum_capacity_ul(s1, s2, ch),
                      "R_ul_zf": uplink.zf_sum_rate_ul(s1, s2, ch),
                      "rates_2_then_1": uplink.sic_rates(s1, s2, ch, SicOrder.USER2_FIRST),
                      "rates_1_then_2": uplink.sic_rates(s1, s2, ch, SicOrder.USER1_FIRST)}
        else:
            dl = dual_link(scene, ch)
            split, zf = downlink.dual_power_allocation(dl), downlink.zf_precoding_dl(dl)
            report = {"C_dl": downlink.sum_capacity_dl(dl), "R_dl_zf": zf.total, "split": split,
                      "rates": downlink.dpc_rates(dl, split.p1, split.p2, SicOrder.USER2_FIRST),
                      "rates_zf": zf}
    for k, g in enumerate(stats.gains):  # after the DualLink, which checks the budget first
        snr = (scene.ul_snr_linear[k] if link == "ul"
               else scene.snr_coefficient(k) * scene.downlink_power)
        report[f"C{k + 1}_{link}"] = uplink.su_capacity(snr, g)
    return report


def region(scene: Scene, stats: Statistics, link: str, splits: int) -> tuple:
    """Capacity region of one link as its tuple of CCW (R1, R2) vertices: the
    uplink pentagon, or the hull of the downlink's dual pentagons over
    `splits` power splits."""
    ch = stats.pair
    if link == "ul":
        return uplink.region_ul(*scene.ul_snr_linear, ch)
    return downlink.region_dl(dual_link(scene, ch), splits)


SWEEP_PARAMS = ("aperture_area", "occupation", "snr")

SWEEP_COLUMNS = ("C_ul", "R_ul_zf", "C1_ul", "C2_ul", "C_dl", "R_dl_zf", "g1", "g2", "rho_abs2",
                 "asy_ul", "asy_dl")
"Columns of a sweep row after the swept value."


def sweep(scene: Scene, param: str, start: float, stop: float, steps: int) -> list[list[float]]:
    """Rows of a parameter sweep: each of `steps` values from start to stop,
    linear in dB for `snr` and geometric otherwise, then the SWEEP_COLUMNS
    of its scene.

    `aperture_area` keeps the aperture kind: a planar aperture keeps its
    aspect ratio, a strip its length_x; a discrete array is rejected, its
    area follows from its grid.  `occupation` sets a discrete array's
    element area to the value times spacing^2, `snr` every user's uplink
    SNR in dB.  The asymptotes are the rates on asymptotic_pair: the uplink
    one is the sum of the single-user capacities.  Every step keeps the
    scene's quadrature_order, so None picks each row's rule by its own area.
    """
    if param == "snr":
        if not math.isfinite(stop - start):
            raise SceneError(f"the snr span {start} to {stop} dB overflows a float")
        values = np.linspace(start, stop, steps)
    elif not (start > 0 and stop > 0):
        raise SceneError(f"a {param} sweep needs --start and --stop above 0")
    else:
        values = np.geomspace(start, stop, steps)
    discrete = isinstance(scene.aperture, DiscreteAperture)
    if param == "aperture_area" and discrete:
        raise SceneError("an SPDA's area is set by its grid; sweep --param occupation instead")
    if param == "occupation" and not discrete:
        raise SceneError("an occupation sweep needs a discrete aperture")
    if param not in SWEEP_PARAMS:
        raise SceneError(f"unknown sweep parameter {param!r}")
    rows = []
    for v in values:
        step = _sweep_step(scene, param, float(v))
        stats = channel_pair(step)
        ch, asy = stats.pair, asymptotic_pair(step)
        asy_ul = rates(step, asy, "ul")
        r = {**rates(step, stats, "ul"), **rates(step, stats, "dl"), "g1": ch.g1, "g2": ch.g2,
             "rho_abs2": abs(ch.rho) ** 2, "asy_ul": asy_ul["C1_ul"] + asy_ul["C2_ul"],
             "asy_dl": rates(step, asy, "dl")["C_dl"]}
        rows.append([float(v), *(r[c] for c in SWEEP_COLUMNS)])
    return rows


def _sweep_step(scene: Scene, param: str, value: float) -> Scene:
    ap = scene.aperture
    if param == "snr":
        return replace(scene, ul_snr_db=tuple(value for _ in scene.ul_snr_db))
    if param == "occupation":
        grid = DiscreteAperture(ap.elements_x, ap.elements_z, ap.spacing, value * ap.spacing**2)
        return replace(scene, aperture=grid)
    if isinstance(ap, LinearAperture):
        return replace(scene, aperture=LinearAperture(ap.length_x, value / ap.length_x))
    aspect = ap.length_x / ap.length_z
    return replace(
        scene, aperture=PlanarAperture(math.sqrt(value * aspect), math.sqrt(value / aspect))
    )


# Config file schema.  Unknown keys anywhere are errors so that typos in
# parameter studies fail loudly.

_SCENE_KEYS = {
    "wavelength",
    "aperture",
    "users",
    "downlink_sum_snr_db",
    "downlink_power",
    "quadrature_order",
}
_APERTURE_KEYS = {
    "planar": {"type", "length_x", "length_z"},
    "linear": {"type", "length_x", "length_z"},
    "spda": {"type", "elements_x", "elements_z", "spacing", "element_area", "occupation"},
}
_USER_KEYS = ("range", "theta_deg", "phi_deg", "rx_area", "noise", "snr_db")


def _check_keys(obj: dict, allowed, context: str):
    unknown = set(obj).difference(allowed)
    if unknown:
        raise SceneError(f"unknown {context} keys: {sorted(unknown)}")


def scene_from_dict(cfg: dict) -> Scene:
    "Build a validated Scene from a parsed config mapping; every number goes through read_number."
    _check_keys(cfg, _SCENE_KEYS, "scene")
    try:
        wl = Wavelength(read_number("wavelength", cfg["wavelength"]))
        ap_cfg = dict(cfg["aperture"])
        kind = ap_cfg.get("type")
        if kind not in _APERTURE_KEYS:
            raise SceneError(f"aperture type must be one of {sorted(_APERTURE_KEYS)}")
        _check_keys(ap_cfg, _APERTURE_KEYS[kind], f"{kind} aperture")
        if kind != "spda":
            shape = PlanarAperture if kind == "planar" else LinearAperture
            ap = shape(*(read_number(k, ap_cfg[k]) for k in ("length_x", "length_z")))
        else:
            spacing = read_number("spacing", ap_cfg["spacing"])
            if "element_area" in ap_cfg and "occupation" in ap_cfg:
                raise SceneError("give element_area or occupation, not both")
            if "occupation" in ap_cfg:
                element_area = read_number("occupation", ap_cfg["occupation"]) * spacing**2
            else:
                element_area = read_number("element_area", ap_cfg["element_area"])
            ap = DiscreteAperture(
                *(read_number(k, ap_cfg[k], "elements") for k in ("elements_x", "elements_z")),
                spacing,
                element_area,
            )
        users, snrs = [], []
        for u_cfg in cfg["users"]:
            u_cfg = {"rx_area": wl.isotropic_rx_area, "noise": 1.0, "snr_db": 30.0, **u_cfg}
            _check_keys(u_cfg, _USER_KEYS, "user")
            r, theta, phi, rx_area, noise, snr = (read_number(k, u_cfg[k]) for k in _USER_KEYS)
            users.append(UserPlacement(r, math.radians(theta), math.radians(phi), rx_area, noise))
            snrs.append(snr)
        budget = (
            read_number(k, cfg[k]) if k in cfg else None
            for k in ("downlink_sum_snr_db", "downlink_power")
        )
        order = cfg.get("quadrature_order")
        if order is not None:  # an absent key or null leaves the order to the area
            order = read_number("quadrature_order", order, "quadrature_order")
        return Scene(wl, ap, tuple(users), tuple(snrs), *budget, order)
    except SceneError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"malformed scene config: {exc}") from exc


def load_scene(path: str) -> Scene:
    with open(path, encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))


def scene_to_dict(scene: Scene) -> dict:
    "Round-trippable config mapping, including derived quantities omitted."
    ap = scene.aperture
    if not isinstance(ap, DiscreteAperture):
        kind = "planar" if isinstance(ap, PlanarAperture) else "linear"
        ap_cfg = {"type": kind, "length_x": ap.length_x, "length_z": ap.length_z}
    else:
        ap_cfg = {
            "type": "spda",
            "elements_x": ap.elements_x,
            "elements_z": ap.elements_z,
            "spacing": ap.spacing,
            "element_area": ap.element_area,
        }
    cfg = {
        "wavelength": scene.wavelength.lam,
        "aperture": ap_cfg,
        "users": [
            {
                "range": u.range_m,
                "theta_deg": math.degrees(u.theta),
                "phi_deg": math.degrees(u.phi),
                "rx_area": u.rx_area,
                "noise": u.noise_intensity,
                "snr_db": snr,
            }
            for u, snr in zip(scene.users, scene.ul_snr_db)
        ],
        "quadrature_order": scene.quadrature_order,
    }
    if scene.dl_sum_snr_db is not None:
        cfg["downlink_sum_snr_db"] = scene.dl_sum_snr_db
    if scene.dl_power is not None:
        cfg["downlink_power"] = scene.dl_power
    return cfg
