"""Seeded scene configs and the fixed rounds of operations of each workload.

A run repeats whole rounds.  Every round of a workload has the same make-up
of command kinds and sizes, so a run's failed share does not depend on the
seed or on how many rounds fit in the run.  Seeded scenes come from
`numpy.random.default_rng([seed, round, slot, ...])`; the named-fault scenes do
not depend on the seed, only on the round index, so that no two commands of
a run share a scene.

The seeded families are kept inside the input range where the program's
fixed-order rules meet the benchmark's tolerances; the named faults live in
the fault scenes, so that they show in every run at the same share.
"""

from __future__ import annotations

import math

import numpy as np

LAMBDA = 0.125
ISO_AREA = LAMBDA**2 / (4.0 * math.pi)
K0 = 2.0 * math.pi / LAMBDA
C_ISO = ISO_AREA * K0**2 * (120.0 * math.pi) ** 2 / (4.0 * math.pi)
"Downlink SNR per unit power of a unit-noise user with the isotropic area."

FAULT_A_VARIANTS = 64
"Fault-(a) scenes with a stored reference; rounds beyond this reuse them."


def _user(r, th, ph, snr_db, **extra):
    return {"range": float(r), "theta_deg": float(th), "phi_deg": float(ph), "snr_db": float(snr_db), **extra}


def _scene(aperture, users, *, dl_db=None, power=None):
    cfg = {"wavelength": LAMBDA, "aperture": aperture, "users": users}
    if dl_db is not None:
        cfg["downlink_sum_snr_db"] = float(dl_db)
    else:
        cfg["downlink_power"] = float(power)
    return cfg


def _codirectional_users(rng, r_lo, r_hi):
    "The paper's pair: one direction, user 2 farther out."
    th, ph = rng.uniform(30.0, 60.0), rng.uniform(60.0, 100.0)
    r1 = rng.uniform(r_lo, r_hi)
    r2 = r1 * rng.uniform(1.5, 4.0)
    return (r1, th, ph), (r2, th, ph)


def _split_safe(power, splits):
    """Step down to a power whose last DL region split is exactly `power`.

    downlink.region_dl takes p1 = P * i / (n - 1); for about 1 % (2001 splits)
    to 7 % (201 splits) of values, p1 rounds above P at i = n - 1 and the
    command dies with a traceback.  Seeded scenes avoid those values so that
    the failure shows only in the fixed scene of fault (d)."""
    while power * (splits - 1) / (splits - 1) > power:
        power = float(np.nextafter(power, 0.0))
    return power


def _budget(rng, users, distinct: bool, corner: bool = False, splits: int | None = None):
    """Users and downlink budget; distinct SNR maps need an explicit power.

    With `corner` the power stays below |xi| of the infinite-aperture KKT
    split (gains 1/2, rho 0), so the asymptote lies on a single-user branch.
    With `splits` (a DL region command) the power is explicit and split-safe."""
    (a, b) = users
    s1, s2 = rng.uniform(20.0, 40.0, 2)
    if not distinct:
        users = [_user(*a, s1), _user(*b, s2)]
        if splits is None:
            return users, {"dl_db": rng.uniform(40.0, 60.0)}
        return users, {"power": _split_safe(10.0 ** rng.uniform(0.0, 4.0), splits)}
    noise = rng.uniform(2.5, 4.0)
    rx = ISO_AREA * rng.uniform(0.8, 1.0)
    c1, c2 = C_ISO * rx / ISO_AREA, C_ISO / noise
    if corner:
        xi = (c1 - c2) / (c1 * c2 * 0.5)
        power = xi * rng.uniform(0.2, 0.9)
    else:
        power = 10.0 ** rng.uniform(0.0, 4.0)
    if splits is not None:
        power = _split_safe(power, splits)
    return [_user(*a, s1, rx_area=rx), _user(*b, s2, noise=noise)], {"power": power}


def _op(kind, argv, cfg, rows=1, fault=None):
    return {"kind": kind, "argv": argv, "config": cfg, "rows": rows, "fault": fault}


SWEEP = ["sweep", "--param", "aperture_area"]


def fault_a_scene(variant: int):
    """The default scene, both ranges scaled by 1 + 1e-6 * variant.

    Its 9-row default sweep misses |rho|^2 by more than 1e-3 at 13.3, 50 and
    1e4 m^2 (the fixed 20/1000 switch of scenario.auto_quadrature_order)."""
    f = 1.0 + 1e-6 * variant
    return _scene(
        {"type": "planar", "length_x": 0.5, "length_z": 0.5},
        [_user(10.0 * f, 30.0, 60.0, 30.0), _user(20.0 * f, 30.0, 60.0, 40.0)],
        dl_db=50.0,
    )


def fault_b_scene(rnd: int):
    """Distinct SNR maps whose infinite-aperture KKT split is interior.

    cli._asymptote_dl gives user 1 (P - xi)/2 instead of (P + xi)/2 there,
    so asy_dl is wrong on every row of the sweep."""
    f = 1.0 + 1e-4 * rnd
    return _scene(
        {"type": "planar", "length_x": 0.5, "length_z": 0.5},
        [_user(12.0 * f, 30.0, 60.0, 30.0), _user(24.0 * f, 30.0, 60.0, 35.0, noise=2.0)],
        power=1e-4,
    )


def fault_c_scene(rnd: int):
    """Users in different directions where order 20 misses |rho| by ~1e-2.

    `verify --suite all` exits 2 on it: its own oracle check allows 5e-3."""
    f = 1.0 + 1e-5 * rnd
    return _scene(
        {"type": "planar", "length_x": 1.18, "length_z": 1.18},
        [_user(11.3 * f, 65.0, 33.0, 30.0), _user(9.8 * f, 151.0, 71.0, 40.0)],
        dl_db=50.0,
    )


def area_sweep_round(seed, rnd):
    ops = [
        _op("sweep", SWEEP + ["--start", "0.25", "--stop", "1e4", "--steps", "9"],
            fault_a_scene(rnd % FAULT_A_VARIANTS), rows=9, fault="a"),
        _op("sweep", SWEEP + ["--start", "0.5", "--stop", "400", "--steps", "2"],
            fault_b_scene(rnd), rows=2, fault="b"),
    ]
    for slot in range(8):
        rng = np.random.default_rng([seed, rnd, slot])
        users, budget = _budget(rng, _codirectional_users(rng, 8.0, 40.0), distinct=slot % 2 == 1, corner=True)
        start = 10.0 ** rng.uniform(math.log10(0.25), math.log10(1.5))
        stop = 10.0 ** rng.uniform(math.log10(150.0), math.log10(600.0))
        cfg = _scene({"type": "planar", "length_x": 0.5, "length_z": 0.5}, users, **budget)
        ops.append(_op("sweep", SWEEP + ["--start", repr(start), "--stop", repr(stop), "--steps", "2"], cfg, rows=2))
    return ops


SCENE_COMMANDS = (
    ("scene", ["scene", "print"]),
    ("gain", ["gain"]),
    ("capacity_ul", ["capacity", "--link", "ul"]),
    ("capacity_ul_zf", ["capacity", "--link", "ul", "--scheme", "zf"]),
    ("capacity_dl", ["capacity", "--link", "dl", "--dual-trace"]),
    ("capacity_dl_zf", ["capacity", "--link", "dl", "--scheme", "zf"]),
    ("region_ul", ["region", "--link", "ul"]),
    ("region_dl", ["region", "--link", "dl", "--splits", "2001"]),
)


def _batch_aperture(rng, kind):
    if kind == "planar":
        return {"type": "planar", "length_x": rng.uniform(0.3, 1.2), "length_z": rng.uniform(0.3, 1.2)}
    if kind == "linear":
        lz = rng.uniform(1.0, 4.0)
        return {"type": "linear", "length_x": lz / rng.uniform(12.0, 40.0), "length_z": lz}
    m = [int(v) for v in 2 * rng.integers(4, 11, 2) + 1]  # odd, 9..21
    return {"type": "spda", "elements_x": m[0], "elements_z": m[1],
            "spacing": LAMBDA * rng.uniform(0.25, 0.5), "occupation": rng.uniform(0.3, 1.0)}


def _dl_splits(argv):
    return int(argv[argv.index("--splits") + 1]) if argv[0] == "region" and "dl" in argv else None


def fault_d_scene(rnd: int):
    """A DL region whose power P = 2.244 (as a float, 2.2439999999999998)
    makes P * 2000 / 2000 round above P, so the last of 2001 splits gets a
    negative p2 and uplink.su_capacity_ul raises out of region --link dl."""
    f = 1.0 + 1e-4 * rnd
    return _scene(
        {"type": "planar", "length_x": 0.5, "length_z": 0.5},
        [_user(10.0 * f, 30.0, 60.0, 30.0), _user(20.0 * f, 30.0, 60.0, 40.0)],
        power=2.2439999999999998,
    )


def scene_batch_round(seed, rnd):
    ops = [_op("region_dl", ["region", "--link", "dl", "--splits", "2001"], fault_d_scene(rnd), fault="d")]
    for k, kind in enumerate(("planar", "linear", "spda")):
        for j, (name, argv) in enumerate(SCENE_COMMANDS):
            rng = np.random.default_rng([seed, rnd, k, j])
            ap = _batch_aperture(rng, kind)
            users, budget = _budget(rng, _codirectional_users(rng, 8.0, 40.0), distinct=(j + k) % 2 == 1,
                                    splits=_dl_splits(argv))
            ops.append(_op(name, list(argv), _scene(ap, users, **budget)))
    return ops


def _offset_direction(rng, side):
    """Two directions whose far-field relative phase spans 15-25 rad per axis.

    Order 20 resolves that span; the adaptive oracle needs many panels."""
    while True:
        th1, ph1 = rng.uniform(50.0, 130.0, 2)
        u = np.array([math.cos(math.radians(ph1)) * math.sin(math.radians(th1)), math.cos(math.radians(th1))])
        du = rng.uniform(15.0, 25.0, 2) * rng.choice([-1.0, 1.0], 2) / (K0 * side)
        v = u + du
        if v @ v < 0.8:
            break
    th2 = math.degrees(math.acos(v[1]))
    ph2 = math.degrees(math.atan2(math.sqrt(1.0 - v @ v), v[0]))
    return (th1, ph1), (th2, ph2)


def oracle_round(seed, rnd):
    ops = [_op("verify", ["verify", "--suite", "all", "--seed", str(rnd)], fault_c_scene(rnd), fault="c")]
    for slot in range(12):
        rng = np.random.default_rng([seed, rnd, slot, 1])  # apart from the sweeps' streams
        side = rng.uniform(0.8, 1.2)
        (th1, ph1), (th2, ph2) = _offset_direction(rng, side)
        r1, r2 = rng.uniform(10.0, 30.0, 2)
        users, budget = _budget(rng, ((r1, th1, ph1), (r2, th2, ph2)), distinct=False)
        cfg = _scene({"type": "planar", "length_x": side, "length_z": side}, users, **budget)
        if slot % 2 == 0:
            ops.append(_op("gain_oracle", ["gain", "--oracle"], cfg))
        else:
            ops.append(_op("verify", ["verify", "--suite", "all", "--seed", str(int(rng.integers(1 << 30)))], cfg))
    return ops


COUPLED_SIZES = [15] * 2 + [19] * 4 + [25] * 2 + [29, 41]
"Elements per side; the 41x41 array sets the peak memory."
COUPLED_COMMANDS = (
    ("gain", ["gain"]),
    ("capacity_ul", ["capacity", "--link", "ul"]),
    ("capacity_dl", ["capacity", "--link", "dl", "--dual-trace"]),
    ("region_ul", ["region", "--link", "ul"]),
    ("region_dl", ["region", "--link", "dl", "--splits", "201"]),
)


def coupled_round(seed, rnd):
    ops = []
    for slot, m in enumerate(COUPLED_SIZES):
        rng = np.random.default_rng([seed, rnd, slot])
        name, argv = COUPLED_COMMANDS[slot % len(COUPLED_COMMANDS)]
        ap = {"type": "spda", "elements_x": m, "elements_z": m,
              "spacing": LAMBDA * rng.uniform(0.3, 0.5), "occupation": rng.uniform(0.3, 0.9)}
        users, budget = _budget(rng, _codirectional_users(rng, 5.0, 20.0), distinct=slot % 2 == 1,
                                splits=_dl_splits(argv))
        model = ["--mutual-coupling", "--za", repr(rng.uniform(30.0, 80.0)),
                 "--zt", repr(rng.uniform(30.0, 80.0)), "--z-scale", repr(rng.uniform(0.05, 0.15))]
        ops.append(_op(name, list(argv) + model, _scene(ap, users, **budget)))
    return ops


SCENE_BLOCKS = 12
"scene_batch blocks per scenes_coupled round: about as much time as the coupled part without its 41x41 array."


def sweeps_oracle_round(seed, rnd):
    "Channel statistics: area sweeps, then oracle and verify commands."
    return area_sweep_round(seed, rnd) + oracle_round(seed, rnd)


def scenes_coupled_round(seed, rnd):
    """Single-scene commands with one mutually coupled array after each of
    the first blocks, so that every kind of command is timed across the
    whole round rather than in one stretch of it."""
    coupled = coupled_round(seed, rnd)
    ops = []
    for block in range(SCENE_BLOCKS):
        ops += scene_batch_round(seed, rnd * SCENE_BLOCKS + block) + coupled[block:block + 1]
    return ops


ROUNDS = {"sweeps_oracle": sweeps_oracle_round, "scenes_coupled": scenes_coupled_round}

WARMUP_ARGV = ["gain"]
"The untimed first command of every fresh interpreter: the built-in scene."
