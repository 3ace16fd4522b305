"""Check each command's output against the reference or a property the method must have.

`check_op` returns an `Outcome`: how many operations the command counts for
(sweep rows, else 1), which of them failed and why, and the correct digits of
each checked number against the full reference.

Tolerances:
- gains, exact element sums, the coupled solve, the closed forms evaluated at
  the statistics the program printed, echoes and asymptotes: 1e-9 relative;
- |rho|^2 of a sweep row: 1e-3 relative (the area sweep's accuracy claim);
- |rho| from the fixed order-20 planar and linear rules in single-scene
  commands: 5e-3 absolute, the tolerance of the program's own `verify`;
- adaptive-oracle values: 1e-6 relative;
- largest sum rate of an exact-statistics region: 1e-6 relative; its area:
  1e-9 relative plus half the program's hull threshold (1e-12) per pentagon
  vertex, the most its pruning of nearly collinear vertices can remove;
- rates compared with each other (SIC orders against the sum rate, UL corner
  sums, DL sum rates against their bounds): 1e-12 relative plus LOG2_ROUND.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref

EXACT = 1e-9
SWEEP_RHO2 = 1e-3
RULE_RHO = 5e-3
ORACLE = 1e-6
HULL = 1e-6
HULL_EPS = 1e-12
"regions.convex_hull drops a vertex whose cross product is at most this."
LOG2_ROUND = 1e-15
"""Absolute rounding of rates the program computes as log2(1 + x): 1 + x
rounds by up to 2**-53, about 1.6e-16 bits per term.  Relative tolerances
get this added, since on rates of 1e-4 bits/s/Hz (strongly coupled arrays)
it is 1e-12 of the rate."""


@dataclass
class Outcome:
    rows: int = 1
    failed_rows: set = field(default_factory=set)
    reasons: list = field(default_factory=list)
    digits: list = field(default_factory=list)
    cert: float = 0.0  # worst certificate of the reference values used

    def fail(self, why, row=0):
        self.failed_rows.add(row)
        self.reasons.append(why)

    def near(self, name, got, want, rel, row=0, absolute=0.0):
        if not abs(got - want) <= rel * abs(want) + absolute:
            self.fail(f"{name}: got {got!r}, want {want!r}", row)

    def score(self, got, want):
        "Correct digits of one output against the full reference, in [0, 12]."
        if want == 0.0:
            return
        err = abs(got - want) / abs(want)
        self.digits.append(12.0 if err == 0.0 else min(12.0, max(0.0, -math.log10(err))))


@dataclass
class Scene:
    "What the reference needs from a config, with the CLI's defaults applied."

    cfg: dict
    lam: float
    pos: tuple
    snr: tuple
    c: tuple
    power: float

    @classmethod
    def parse(cls, cfg):
        lam = cfg["wavelength"]
        iso = lam**2 / (4.0 * math.pi)
        users = cfg["users"]
        c = tuple(ref.snr_per_power(lam, u.get("rx_area", iso), u.get("noise", 1.0)) for u in users)
        if "downlink_power" in cfg:
            power = cfg["downlink_power"]
        else:
            power = 10.0 ** (cfg["downlink_sum_snr_db"] / 10.0) / c[0]
        return cls(
            cfg,
            lam,
            tuple(ref.position(u["range"], u["theta_deg"], u["phi_deg"]) for u in users),
            tuple(10.0 ** (u["snr_db"] / 10.0) for u in users),
            c,
            power,
        )

    def element_area(self):
        ap = self.cfg["aperture"]
        return ap["occupation"] * ap["spacing"] ** 2 if "occupation" in ap else ap["element_area"]

    def stats(self, argv):
        ap = self.cfg["aperture"]
        s1, s2 = self.pos
        if ap["type"] == "planar":
            return ref.planar_stats(self.lam, ap["length_x"], ap["length_z"], s1, s2)
        if ap["type"] == "linear":
            return ref.linear_stats(self.lam, ap["length_x"], ap["length_z"], s1, s2)
        grid = (ap["elements_x"], ap["elements_z"], ap["spacing"], self.element_area())
        if "--mutual-coupling" in argv:
            za, zt, scale = (float(argv[argv.index(flag) + 1]) for flag in ("--za", "--zt", "--z-scale"))
            return ref.coupled_stats(self.lam, *grid, s1, s2, za, zt, scale)
        return ref.spda_stats(self.lam, *grid, s1, s2)

    @property
    def exact(self):
        "Element sums and the coupled solve have no rule error."
        return self.cfg["aperture"]["type"] == "spda"


def _printed_stats(report):
    return ref.Stats(report["g1"], report["g2"], complex(math.sqrt(max(report["rho_abs2"], 0.0)), 0.0))


def _check_stats(o, scene, report, st):
    """Gains to 1e-9; |rho| to the tolerance of the rule that produced it."""
    o.near("g1", report["g1"], st.g1, EXACT)
    o.near("g2", report["g2"], st.g2, EXACT)
    if scene.exact:
        o.near("rho_abs2", report["rho_abs2"], st.rho_abs2, EXACT, absolute=1e-15)
    else:
        o.near("|rho|", math.sqrt(report["rho_abs2"]), abs(st.rho), 0.0, absolute=RULE_RHO)
    for k in ("g1", "g2", "rho_abs2"):
        o.score(report[k], getattr(st, k))


def _read_csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_sweep(o, scene, op, out, stored):
    header, rows = _read_csv(out)
    argv = op["argv"]
    start, stop, steps = (float(argv[argv.index(f) + 1]) for f in ("--start", "--stop", "--steps"))
    areas = np.geomspace(start, stop, int(steps))
    o.rows = len(areas)
    if len(rows) != len(areas):
        o.fail(f"{len(rows)} rows for {len(areas)} areas")
        o.failed_rows.update(range(len(areas)))
        return
    s1, s2 = scene.snr
    c1, c2 = scene.c
    asy_ul, asy_dl = ref.asymptote_ul(s1, s2), ref.asymptote_dl(c1, c2, scene.power)
    for i, (area, values) in enumerate(zip(areas, rows)):
        r = dict(zip(header, values))
        side = math.sqrt(float(area))
        st = stored.get(float(area)) or ref.planar_stats(scene.lam, side, side, *scene.pos)
        o.cert = max(o.cert, st.cert)
        o.near("area", r["aperture_area"], float(area), 1e-12, i)
        o.near("g1", r["g1"], st.g1, EXACT, i)
        o.near("g2", r["g2"], st.g2, EXACT, i)
        o.near("rho_abs2", r["rho_abs2"], st.rho_abs2, SWEEP_RHO2, i)
        p = _printed_stats(r)
        closed = {
            "C_ul": lambda s: ref.ul_sum(s1, s2, s),
            "R_ul_zf": lambda s: ref.ul_zf(s1, s2, s),
            "C1_ul": lambda s: ref.log2p(s1 * s.g1),
            "C2_ul": lambda s: ref.log2p(s2 * s.g2),
            "C_dl": lambda s: ref.dl_sum(c1, c2, scene.power, s),
            "R_dl_zf": lambda s: sum(ref.dl_zf(c1, c2, scene.power, s)),
        }
        for name, f in closed.items():
            o.near(name, r[name], f(p), EXACT, i)
            o.score(r[name], f(st))
        o.near("asy_ul", r["asy_ul"], asy_ul, EXACT, i)
        o.near("asy_dl", r["asy_dl"], asy_dl, EXACT, i)
        for name, want in (("g1", st.g1), ("g2", st.g2), ("rho_abs2", st.rho_abs2),
                           ("asy_ul", asy_ul), ("asy_dl", asy_dl)):
            o.score(r[name], want)


def check_scene_print(o, scene, op, out):
    rep = json.loads(out)
    cfg = scene.cfg
    o.near("wavelength", rep["wavelength"], cfg["wavelength"], 1e-15)
    for key, want in cfg["aperture"].items():
        if key == "occupation":
            o.near("element_area", rep["aperture"]["element_area"], scene.element_area(), 1e-12)
        elif key == "type":
            if rep["aperture"]["type"] != want:
                o.fail(f"aperture type {rep['aperture']['type']}")
        else:
            o.near(key, rep["aperture"][key], want, 1e-12)
    iso = scene.lam**2 / (4.0 * math.pi)
    for got, want in zip(rep["users"], cfg["users"]):
        for key in ("range", "theta_deg", "phi_deg", "snr_db"):
            o.near(key, got[key], want[key], 1e-12)
        o.near("rx_area", got["rx_area"], want.get("rx_area", iso), 1e-12)
        o.near("noise", got["noise"], want.get("noise", 1.0), 1e-12)
    d = rep["derived"]
    derived = [("k0", d["k0"], ref.k0_of(scene.lam)), ("eta", d["eta"], ref.ETA0),
               ("isotropic_rx_area", d["isotropic_rx_area"], iso)]
    derived += [("ul_snr_linear", got, want) for got, want in zip(d["ul_snr_linear"], scene.snr)]
    if "downlink_power" in d:
        derived.append(("downlink_power", d["downlink_power"], scene.power))
    elif "downlink_sum_snr_db" in cfg:
        o.fail("downlink_power missing")
    for name, got, want in derived:
        o.near(name, got, want, EXACT)
        o.score(got, want)
    if any(sev == "error" for sev, _ in d["findings"]):
        o.fail(f"error findings: {d['findings']}")


def check_gain(o, scene, op, out, st):
    rep = json.loads(out)
    _check_stats(o, scene, rep, st)
    o.near("rho_bar", rep["rho_bar"], 1.0 - rep["rho_abs2"], 0.0, absolute=1e-15)
    o.near("rho parts", rep["rho_real"] ** 2 + rep["rho_imag"] ** 2, rep["rho_abs2"], 1e-12)
    for part, want in (("rho_real", st.rho.real), ("rho_imag", st.rho.imag)):
        o.score(rep[part], want)
    if scene.exact:
        o.near("rho", abs(complex(rep["rho_real"], rep["rho_imag"]) - st.rho), 0.0, 0.0, absolute=EXACT)
    if "--oracle" in op["argv"]:
        for k, want in (("oracle_g1", st.g1), ("oracle_g2", st.g2), ("oracle_rho_abs2", st.rho_abs2)):
            o.near(k, rep[k], want, ORACLE, absolute=1e-12)
            o.score(rep[k], want)


def check_capacity(o, scene, op, out, st):
    rep = json.loads(out)
    _check_stats(o, scene, rep, st)
    argv = op["argv"]
    s1, s2 = scene.snr
    c1, c2 = scene.c
    p = _printed_stats(rep)
    zf = "zf" in argv
    if "ul" in argv:
        if zf:
            pairs = [("sum_rate", rep["sum_rate"], lambda s: ref.ul_zf(s1, s2, s))]
        else:
            pairs = [
                ("sum_rate", rep["sum_rate"], lambda s: ref.ul_sum(s1, s2, s)),
                # 2 then 1: user 2 is decoded first
                ("r1 2->1", rep["rates_2_then_1"][0], lambda s: ref.sic(s2, s.g2, s1, s.g1, s.rho_bar)[1]),
                ("r2 2->1", rep["rates_2_then_1"][1], lambda s: ref.sic(s2, s.g2, s1, s.g1, s.rho_bar)[0]),
                ("r1 1->2", rep["rates_1_then_2"][0], lambda s: ref.sic(s1, s.g1, s2, s.g2, s.rho_bar)[0]),
                ("r2 1->2", rep["rates_1_then_2"][1], lambda s: ref.sic(s1, s.g1, s2, s.g2, s.rho_bar)[1]),
            ]
            for order in ("rates_2_then_1", "rates_1_then_2"):
                o.near(f"{order} sum", sum(rep[order]), rep["sum_rate"], 1e-12, absolute=LOG2_ROUND)
    elif zf:
        pairs = [
            ("sum_rate", rep["sum_rate"], lambda s: sum(ref.dl_zf(c1, c2, scene.power, s))),
            ("r1", rep["rates"][0], lambda s: ref.dl_zf(c1, c2, scene.power, s)[0]),
            ("r2", rep["rates"][1], lambda s: ref.dl_zf(c1, c2, scene.power, s)[1]),
        ]
    else:
        split = lambda s: ref.dl_split(c1, c2, scene.power, s)  # noqa: E731
        pairs = [
            ("sum_rate", rep["sum_rate"], lambda s: ref.dl_sum(c1, c2, scene.power, s)),
            ("r1", rep["rates"][0], lambda s: ref.dpc_rates(c1, c2, *split(s), s)[0]),
            ("r2", rep["rates"][1], lambda s: ref.dpc_rates(c1, c2, *split(s), s)[1]),
        ]
        trace = rep["dual_trace"]
        for k, want in zip(("p1", "p2"), split(p)):
            o.near(k, trace[k], want, EXACT, absolute=1e-12 * scene.power)
        o.near("p1 + p2", trace["p1"] + trace["p2"], scene.power, 1e-12)
        grid = np.linspace(0.0, scene.power, 201)
        best = max(ref.dl_sum_at(c1, c2, x, scene.power - x, p) for x in grid)
        if rep["sum_rate"] < best - 1e-12 * best - LOG2_ROUND:
            o.fail(f"DL sum rate {rep['sum_rate']} below a sampled split's {best}")
        if 0.0 < trace["p1"] < scene.power:
            want_branch = "interior"
        else:
            want_branch = "all-to-1" if trace["p1"] > 0 else "all-to-2"
        if trace["branch"] != want_branch:
            o.fail(f"branch {trace['branch']} for p1 = {trace['p1']}")
    for name, got, f in pairs:
        o.near(name, got, f(p), EXACT, absolute=LOG2_ROUND)
        o.score(got, f(st))


def _convex_ccw(vertices):
    n = len(vertices)
    for i in range(n):
        (x0, y0), (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
        if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < -1e-12:
            return False
    return True


def check_region(o, scene, op, out, st):
    _, rows = _read_csv(out)
    vertices = [tuple(r) for r in rows]
    argv = op["argv"]
    s1, s2 = scene.snr
    c1, c2 = scene.c
    if not _convex_ccw(vertices):
        o.fail("region is not convex and counter-clockwise")
    got = ref.polygon_summary(vertices)
    if "ul" in argv:
        want = ref.polygon_summary(ref.pentagon(s1, s2, st))
        corners = [v for v in vertices if v[0] > 0.0 and v[1] > 0.0]
        sums = [x + y for x, y in corners]
        if sums and max(sums) - min(sums) > 1e-12 * max(sums) + LOG2_ROUND:
            o.fail(f"UL corner sums differ: {sums}")
        if not scene.exact and sums:
            # The sum capacity bounds |rho|: log2(1 + a + b + a b (1 - |rho|^2)).
            a, b = s1 * st.g1, s2 * st.g2
            rho = math.sqrt(max(0.0, 1.0 - (2.0 ** max(sums) - 1.0 - a - b) / (a * b)))
            o.near("|rho| implied by the sum rate", rho, abs(st.rho), 0.0, absolute=RULE_RHO)
    else:
        splits = int(argv[argv.index("--splits") + 1])
        want = ref.polygon_summary(ref.dl_region(c1, c2, scene.power, st, splits))
        if not scene.exact:
            lo_st = ref.Stats(st.g1, st.g2, min(1.0, abs(st.rho) + RULE_RHO))
            hi_st = ref.Stats(st.g1, st.g2, max(0.0, abs(st.rho) - RULE_RHO))
            lo = ref.dl_sum(c1, c2, scene.power, lo_st) * (1.0 - 1e-6)
            hi = ref.dl_sum(c1, c2, scene.power, hi_st) * (1.0 + 1e-12) + LOG2_ROUND
            if not lo <= got["max_sum"] <= hi:
                o.fail(f"DL max sum rate {got['max_sum']} outside [{lo}, {hi}]")
        elif got["max_sum"] > ref.dl_sum(c1, c2, scene.power, st) * (1.0 + 1e-12) + LOG2_ROUND:
            o.fail("DL region exceeds the DL sum capacity")
    o.near("max_r1", got["max_r1"], want["max_r1"], EXACT)
    o.near("max_r2", got["max_r2"], want["max_r2"], EXACT)
    if scene.exact:
        # Each vertex the program's hull drops takes at most HULL_EPS / 2 of
        # area with it; on low-rate regions that is ~1e-6 of the whole.
        candidates = 5 * (int(argv[argv.index("--splits") + 1]) if "dl" in argv else 1)
        o.near("max_sum", got["max_sum"], want["max_sum"], HULL)
        o.near("area", got["area"], want["area"], EXACT, absolute=0.5 * HULL_EPS * candidates)
    for k in want:
        o.score(got[k], want[k])


VERIFY_CHECKS = {
    "gain-1-vs-oracle", "gain-2-vs-oracle", "rho-magnitude-vs-oracle", "rho-phase-vs-oracle",
    "whitened-covariance-5se", "mu-root-invariance",
    "duality-power-recovery", "duality-sum-power", "duality-rate-identity",
}


def check_verify(o, scene, op, out):
    rep = json.loads(out)
    names = {c["name"] for c in rep["checks"]}
    if names != VERIFY_CHECKS:
        o.fail(f"verify ran {sorted(names)}")
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    if failing or not rep["passed"]:
        o.fail(f"verify failed {failing}")


def check_op(op, stored_sweeps):
    """Outcome of one recorded command; any exception is a failure of all its rows."""
    o = Outcome(rows=op["rows"])
    try:
        scene = Scene.parse(op["config"])
        kind = op["kind"]
        if op["rc"] != 0:
            o.fail(f"exit code {op['rc']}: {op['stderr'].strip()[-300:]}")
            if kind != "verify":
                o.failed_rows.update(range(o.rows))
                return o
        if kind == "sweep":
            check_sweep(o, scene, op, op["stdout"], stored_sweeps(op["config"]))
        elif kind == "scene":
            check_scene_print(o, scene, op, op["stdout"])
        elif kind == "verify":
            check_verify(o, scene, op, op["stdout"])
        else:
            st = scene.stats(op["argv"])
            o.cert = st.cert
            if kind.startswith("gain"):
                check_gain(o, scene, op, op["stdout"], st)
            elif kind.startswith("capacity"):
                check_capacity(o, scene, op, op["stdout"], st)
            else:
                check_region(o, scene, op, op["stdout"], st)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        o.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        o.failed_rows.update(range(o.rows))
    return o
