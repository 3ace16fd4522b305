"""Scene assembly: geometry, budgets, and defaults bound into one object.

A Scene is the validated unit of work for the CLI and the verification
suites; channel_pair, the one statistics entry, turns it into the gains of
one or two users and, for two, rho.  Defaults reproduce the reference
simulation setup: a 0.5 m x 0.5 m planar aperture at 2.4 GHz-band wavelength
0.125 m serving two co-directional users at 10 m and 20 m with 30/40 dB
uplink transmit SNRs and a 50 dB downlink sum SNR.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace

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

log = logging.getLogger(__name__)

DEFAULT_QUADRATURE_ORDER = 20
SWEEP_QUADRATURE_ORDER = 1000
"Order for asymptotic sweeps; plain scenes with area <= 100 m^2 use 20."

LARGE_APERTURE_AREA = 100.0

MAX_QUADRATURE_ORDER = 10000
"""Largest Chebyshev rule order a scene accepts.  The correlation rule costs
order^2: order 1000 takes 0.05 s, order 10000 about 5 s and 80 MB."""

class SceneError(ValueError):
    "A scene failed validation."


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
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER

    def __post_init__(self):
        if len(self.users) not in (1, 2):
            raise SceneError(f"scene needs 1 or 2 users, got {len(self.users)}")
        if len(self.ul_snr_db) != len(self.users):
            raise SceneError("one uplink SNR per user is required")
        if self.quadrature_order < 1:
            raise SceneError("quadrature order must be >= 1")
        if self.quadrature_order > MAX_QUADRATURE_ORDER:
            raise SceneError(
                f"quadrature order must be <= {MAX_QUADRATURE_ORDER}, got {self.quadrature_order}"
            )

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


def channel_pair(
    scene: Scene,
    order: int | None = None,
    coupling_model: CouplingModel | None = None,
) -> Statistics:
    """Statistics of the scene's one or two users, for every aperture kind.

    A discrete array's statistics come from its element vectors, coupled
    if a model is given.  A planar or linear aperture's gains come from
    closed forms, then rho from the Chebyshev rule of the given order
    (default: the scene's).  Coincident users (rho_bar < 1e-9) log a
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
        n = order if order is not None else scene.quadrature_order
        rho = correlation(ap, *scene.users, wl, n) if scene.is_two_user else None
        stats = Statistics(gains, rho)
    if stats.rho is not None and stats.pair.rho_bar < 1e-9:
        log.warning(
            "users are spatially coincident (rho_bar ~ 0); superposition "
            "coding brings no gain over the stronger user"
        )
    return stats


def asymptotic_pair(scene: Scene) -> ChannelPair:
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
        return ChannelPair(g1, g2, 0j)
    g = 0.5 * ap.occupation_ratio if isinstance(ap, DiscreteAperture) else 0.5
    return ChannelPair(g, g, 0j)


def dual_link(scene: Scene, ch: ChannelPair) -> DualLink:
    "Downlink scene in dual-uplink form, on the statistics ch."
    return DualLink(
        ch=ch,
        snr_per_power=(scene.snr_coefficient(0), scene.snr_coefficient(1)),
        power=scene.downlink_power,
    )


def auto_quadrature_order(scene: Scene) -> int:
    "Default order 20 for desk-scale apertures, 1000 for asymptotic sizes."
    area = scene.aperture.area
    return DEFAULT_QUADRATURE_ORDER if area <= LARGE_APERTURE_AREA else SWEEP_QUADRATURE_ORDER


SWEEP_PARAMS = ("aperture_area", "occupation", "snr")

SWEEP_COLUMNS = ("C_ul", "R_ul_zf", "C1_ul", "C2_ul", "C_dl", "R_dl_zf", "g1", "g2", "rho_abs2",
                 "asy_ul", "asy_dl")
"Columns of a sweep row after the swept value."


def sweep(scene: Scene, param: str, values, order: int | None = None) -> list[list[float]]:
    """Rows of a parameter sweep: each value, then the SWEEP_COLUMNS of its scene.

    `aperture_area` keeps the aperture kind: a planar aperture keeps its
    aspect ratio, a strip its length_x; a discrete array is rejected, its
    area follows from its grid.  `occupation` sets a discrete array's
    element area to the value times spacing^2, `snr` every user's uplink
    SNR in dB.  The asymptotes are the sum capacities on asymptotic_pair:
    the uplink one is the sum of the single-user capacities.  order=None
    picks each row's rule by auto_quadrature_order.
    """
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
        ch = channel_pair(step, order=auto_quadrature_order(step) if order is None else order).pair
        asy = asymptotic_pair(step)
        s1, s2 = step.ul_snr_linear
        link = dual_link(step, ch)
        rows.append([
            float(v),
            uplink.sum_capacity_ul(s1, s2, ch),
            uplink.zf_sum_rate_ul(s1, s2, ch),
            uplink.su_capacity(s1, ch.g1),
            uplink.su_capacity(s2, ch.g2),
            downlink.sum_capacity_dl(link),
            downlink.zf_precoding_dl(link).total,
            ch.g1,
            ch.g2,
            abs(ch.rho) ** 2,
            uplink.su_capacity(s1, asy.g1) + uplink.su_capacity(s2, asy.g2),
            downlink.sum_capacity_dl(dual_link(step, asy)),
        ])
    return rows


def _sweep_step(scene: Scene, param: str, value: float) -> Scene:
    ap = scene.aperture
    if param == "snr":
        return replace(scene, ul_snr_db=tuple(value for _ in scene.ul_snr_db))
    if param == "occupation":
        return with_aperture(
            scene,
            DiscreteAperture(ap.elements_x, ap.elements_z, ap.spacing, value * ap.spacing**2),
        )
    if isinstance(ap, LinearAperture):
        return with_aperture(scene, LinearAperture(ap.length_x, value / ap.length_x))
    aspect = ap.length_x / ap.length_z
    return with_aperture(
        scene, PlanarAperture(math.sqrt(value * aspect), math.sqrt(value / aspect))
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
_USER_KEYS = {"range", "theta_deg", "phi_deg", "rx_area", "noise", "snr_db"}


def _check_keys(obj: dict, allowed: set, context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SceneError(f"unknown {context} keys: {sorted(unknown)}")


def _number(obj: dict, key: str, default: float | None = None) -> float:
    "obj[key], or the default if given and the key is absent, as a finite float."
    x = float(obj[key] if default is None else obj.get(key, default))
    if not math.isfinite(x):  # JSON NaN and Infinity, and 1e400 read as inf
        raise SceneError(f"{key} must be a finite number, got {x}")
    return x


def _count(obj: dict, key: str, default: int | None = None) -> int:
    "obj[key], or the default if given and the key is absent, as an integral number."
    x = _number(obj, key, default)
    if x != int(x):
        raise SceneError(f"{key} must be a whole number, got {x}")
    return int(x)


def scene_from_dict(cfg: dict) -> Scene:
    "Build a validated Scene from a parsed config mapping."
    _check_keys(cfg, _SCENE_KEYS, "scene")
    try:
        wl = Wavelength(_number(cfg, "wavelength"))
        ap_cfg = dict(cfg["aperture"])
        kind = ap_cfg.get("type")
        if kind not in _APERTURE_KEYS:
            raise SceneError(f"aperture type must be one of {sorted(_APERTURE_KEYS)}")
        _check_keys(ap_cfg, _APERTURE_KEYS[kind], f"{kind} aperture")
        if kind == "planar":
            ap = PlanarAperture(_number(ap_cfg, "length_x"), _number(ap_cfg, "length_z"))
        elif kind == "linear":
            ap = LinearAperture(_number(ap_cfg, "length_x"), _number(ap_cfg, "length_z"))
        else:
            spacing = _number(ap_cfg, "spacing")
            if "element_area" in ap_cfg and "occupation" in ap_cfg:
                raise SceneError("give element_area or occupation, not both")
            if "occupation" in ap_cfg:
                element_area = _number(ap_cfg, "occupation") * spacing**2
            else:
                element_area = _number(ap_cfg, "element_area")
            ap = DiscreteAperture(
                _count(ap_cfg, "elements_x"), _count(ap_cfg, "elements_z"), spacing, element_area
            )
        users = []
        snrs = []
        for u_cfg in cfg["users"]:
            u_cfg = dict(u_cfg)
            _check_keys(u_cfg, _USER_KEYS, "user")
            users.append(
                UserPlacement(
                    range_m=_number(u_cfg, "range"),
                    theta=math.radians(_number(u_cfg, "theta_deg")),
                    phi=math.radians(_number(u_cfg, "phi_deg")),
                    rx_area=_number(u_cfg, "rx_area", wl.isotropic_rx_area),
                    noise_intensity=_number(u_cfg, "noise", 1.0),
                )
            )
            snrs.append(_number(u_cfg, "snr_db", 30.0))
        return Scene(
            wavelength=wl,
            aperture=ap,
            users=tuple(users),
            ul_snr_db=tuple(snrs),
            dl_sum_snr_db=(
                _number(cfg, "downlink_sum_snr_db") if "downlink_sum_snr_db" in cfg else None
            ),
            dl_power=_number(cfg, "downlink_power") if "downlink_power" in cfg else None,
            quadrature_order=_count(cfg, "quadrature_order", DEFAULT_QUADRATURE_ORDER),
        )
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
    if isinstance(ap, PlanarAperture):
        ap_cfg = {"type": "planar", "length_x": ap.length_x, "length_z": ap.length_z}
    elif isinstance(ap, LinearAperture):
        ap_cfg = {"type": "linear", "length_x": ap.length_x, "length_z": ap.length_z}
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


def with_aperture(scene: Scene, aperture) -> Scene:
    return replace(scene, aperture=aperture)
