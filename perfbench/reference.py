"""Independent reference for every number the benchmark checks.

Nothing here imports capalink.  The channel statistics are integrated anew
with composite Gauss-Legendre panels, and the closed forms are derived again
from the sum-rate expressions rather than copied, so agreement with the
program is evidence and not a tautology.

Planar statistics: the aperture is split, per axis, at the users' foot
points and graded geometrically away from them.  Each panel gets enough
nodes to resolve the relative phase k0 (R2 - R1) across it, measured on a
sample of the panel.  Every value is computed twice, the second time with
every panel's node count doubled, and the difference is its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ETA0 = 120.0 * math.pi


def k0_of(lam: float) -> float:
    return 2.0 * math.pi / lam


def position(r: float, theta_deg: float, phi_deg: float) -> np.ndarray:
    "Cartesian user position; the aperture lies in the y = 0 plane."
    th, ph = math.radians(theta_deg), math.radians(phi_deg)
    return r * np.array([math.cos(ph) * math.sin(th), math.sin(ph) * math.sin(th), math.cos(th)])


@dataclass(frozen=True)
class Stats:
    "Channel statistics with their certificate: the change under doubling."

    g1: float
    g2: float
    rho: complex
    cert: float = 0.0

    @property
    def rho_abs2(self) -> float:
        return abs(self.rho) ** 2

    @property
    def rho_bar(self) -> float:
        return 1.0 - abs(self.rho) ** 2


def _fields(x, z, s1, s2, k0):
    """Power densities a_k = y_k / (4 pi R_k^3) and the cross density G1* G2."""
    r1 = np.sqrt((x - s1[0]) ** 2 + s1[1] ** 2 + (z - s1[2]) ** 2)
    r2 = np.sqrt((x - s2[0]) ** 2 + s2[1] ** 2 + (z - s2[2]) ** 2)
    a1 = s1[1] / (4.0 * math.pi * r1**3)
    a2 = s2[1] / (4.0 * math.pi * r2**3)
    return a1, a2, np.sqrt(a1 * a2) * np.exp(-1j * k0 * (r2 - r1))


def _relative_phase_slope(axis, t, other, s1, s2):
    "max over `other` of |d(R2 - R1)/dt| at each t, for t along `axis`."
    x, z = (t[:, None], other[None, :]) if axis == 0 else (other[None, :], t[:, None])
    slope = 0.0
    for s, sign in ((s2, 1.0), (s1, -1.0)):
        r = np.sqrt((x - s[0]) ** 2 + s[1] ** 2 + (z - s[2]) ** 2)
        slope = slope + sign * ((x - s[0]) if axis == 0 else (z - s[2])) / r
    return np.abs(slope).max(axis=1)


def _axis_rule(length, other_length, axis, s1, s2, k0, refine):
    "Composite Gauss-Legendre nodes and weights along one aperture axis."
    half = length / 2.0
    breaks = {-half, half}
    for s in (s1, s2):
        c = min(max(s[axis], -half), half)
        breaks.add(c)
        for sign in (-1.0, 1.0):
            w = s[1] / 4.0
            while -half < c + sign * w < half:
                breaks.add(c + sign * w)
                w *= 1.5
    breaks = np.array(sorted(breaks))
    other = np.linspace(-other_length / 2.0, other_length / 2.0, 129)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        slope = _relative_phase_slope(axis, np.linspace(a, b, 17), other, s1, s2).max()
        n = refine * (int(math.ceil(0.6 * k0 * slope * (b - a))) + 12)
        xg, wg = np.polynomial.legendre.leggauss(n)
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * xg)
        weights.append(0.5 * (b - a) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _planar_once(lx, lz, s1, s2, k0, refine):
    x, wx = _axis_rule(lx, lz, 0, s1, s2, k0, refine)
    z, wz = _axis_rule(lz, lx, 2, s1, s2, k0, refine)
    g1 = g2 = 0.0
    cross = 0.0j
    for i in range(0, x.size, 512):  # row blocks keep memory bounded
        w = wx[i : i + 512, None] * wz[None, :]
        a1, a2, c = _fields(x[i : i + 512, None], z[None, :], s1, s2, k0)
        g1 += float(np.sum(w * a1))
        g2 += float(np.sum(w * a2))
        cross += complex(np.sum(w * c))
    return g1, g2, cross


def _certify(once) -> Stats:
    g1, g2, cross = once(1)
    f1, f2, fcross = once(2)
    rho = fcross / math.sqrt(f1 * f2)
    # Relative for the gains; absolute for rho, whose scale is |rho| <= 1.
    cert = max(abs(g1 - f1) / f1, abs(g2 - f2) / f2, abs(cross / math.sqrt(g1 * g2) - rho))
    return Stats(f1, f2, rho, cert)


CERT_LIMIT = 1e-10
"A reference value whose doubling changes it by more than this is refused."


def planar_stats(lam, lx, lz, s1, s2) -> Stats:
    """Certified planar statistics; raises if the rule has not converged or
    its gains miss the arctan identity by more than 1e-12 relative (or the
    rounding of the identity's own terms, where they cancel)."""
    k0 = k0_of(lam)
    st = _certify(lambda refine: _planar_once(lx, lz, s1, s2, k0, refine))
    for g, s in ((st.g1, s1), (st.g2, s2)):
        exact, scale = planar_gain_arctan(lx, lz, s)
        if abs(g - exact) > 1e-12 * exact + 1e-15 * scale:
            raise RuntimeError(f"reference gain {g!r} misses the arctan identity {exact!r}")
    if st.cert > CERT_LIMIT:
        raise RuntimeError(f"reference certificate {st.cert:.1e} above {CERT_LIMIT}")
    return st


def planar_gain_arctan(lx, lz, s):
    """Closed-form planar gain, used only to check the quadrature above.

    Integrating y / (4 pi R^3) over a rectangle gives, per corner (u, v)
    relative to the foot point, atan(u v / (y sqrt(u^2 + v^2 + y^2))) / (4 pi).
    Returns the gain and the sum of the terms' magnitudes: for far users the
    terms cancel, and the identity then holds only to rounding of that sum.
    """
    y = s[1]
    terms = [
        su * sv * math.atan(u * v / (y * math.sqrt(u * u + v * v + y * y))) / (4.0 * math.pi)
        for u, su in ((lx / 2 - s[0], 1), (-lx / 2 - s[0], -1))
        for v, sv in ((lz / 2 - s[2], 1), (-lz / 2 - s[2], -1))
    ]
    return sum(terms), sum(abs(t) for t in terms)


def linear_stats(lam, lx, lz, s1, s2) -> Stats:
    """Thin strip along z at x = 0: gains carry the width, rho does not."""
    k0 = k0_of(lam)

    def once(refine):
        z, wz = _axis_rule(lz, 0.0, 2, s1, s2, k0, refine)
        a1, a2, c = _fields(0.0, z, s1, s2, k0)
        return lx * float(wz @ a1), lx * float(wz @ a2), lx * complex(wz @ c)

    st = _certify(once)
    if st.cert > CERT_LIMIT:
        raise RuntimeError(f"reference certificate {st.cert:.1e} above {CERT_LIMIT}")
    return st


def element_grid(mx, mz, spacing):
    ix = (np.arange(mx) - (mx - 1) / 2) * spacing
    iz = (np.arange(mz) - (mz - 1) / 2) * spacing
    z, x = np.meshgrid(iz, ix, indexing="ij")  # x varies fastest
    return x.ravel(), z.ravel()


def element_vectors(lam, mx, mz, spacing, area, s1, s2):
    "Element-domain channel vectors sqrt(A) G_k(centre), with their phases."
    k0 = k0_of(lam)
    x, z = element_grid(mx, mz, spacing)
    out = []
    for s in (s1, s2):
        r = np.sqrt((x - s[0]) ** 2 + s[1] ** 2 + (z - s[2]) ** 2)
        out.append(np.sqrt(area * s[1] / (4.0 * math.pi * r**3)) * np.exp(-1j * k0 * r))
    return out


def vector_stats(h1, h2) -> Stats:
    g1 = float(np.vdot(h1, h1).real)
    g2 = float(np.vdot(h2, h2).real)
    return Stats(g1, g2, complex(np.vdot(h1, h2)) / math.sqrt(g1 * g2))


def spda_stats(lam, mx, mz, spacing, area, s1, s2) -> Stats:
    return vector_stats(*element_vectors(lam, mx, mz, spacing, area, s1, s2))


def coupled_stats(lam, mx, mz, spacing, area, s1, s2, za, zt, scale) -> Stats:
    """Solve (Z + zt I) x = (za + zt) h for both users; Z has a zero diagonal."""
    k0 = k0_of(lam)
    h1, h2 = element_vectors(lam, mx, mz, spacing, area, s1, s2)
    ix, iz = np.meshgrid(np.arange(mx), np.arange(mz), indexing="xy")
    ix, iz = ix.ravel(), iz.ravel()
    d = spacing * np.hypot(ix[:, None] - ix[None, :], iz[:, None] - iz[None, :])
    np.fill_diagonal(d, 1.0)
    system = scale * np.exp(-1j * k0 * d) / d**2
    np.fill_diagonal(system, zt)
    x = np.linalg.solve(system, (za + zt) * np.column_stack([h1, h2]))
    return vector_stats(x[:, 0], x[:, 1])


# ----------------------------------------------------------------------------
# Closed forms, written from the sum-rate expressions.

def log2p(x):
    return math.log2(1.0 + x)


def ul_sum(s1, s2, st: Stats) -> float:
    a, b = s1 * st.g1, s2 * st.g2
    return log2p(a + b + a * b * st.rho_bar)


def sic(s_first, g_first, s_last, g_last, rho_bar):
    """(rate of the user decoded first, rate of the user decoded last).

    The first user is decoded against the other's whitened interference,
    whose MMSE SNR is x (1 + y rho_bar) / (1 + y)."""
    x, y = s_first * g_first, s_last * g_last
    return log2p(x * (1.0 + y * rho_bar) / (1.0 + y)), log2p(y)


def ul_zf(s1, s2, st: Stats) -> float:
    return log2p(s1 * st.g1 * st.rho_bar) + log2p(s2 * st.g2 * st.rho_bar)


def dl_split(c1, c2, power, st: Stats):
    """Maximise the dual sum rate over p1 + p2 = power.

    1 + a p1 + b p2 + k p1 p2 is a concave quadratic in p1 for k > 0 with
    its peak at p1 = (power + (a - b) / k) / 2."""
    a, b = c1 * st.g1, c2 * st.g2
    k = a * b * st.rho_bar
    if k <= 1e-12 * a * b:
        return (power, 0.0) if a >= b else (0.0, power)
    p1 = min(max(0.5 * (power + (a - b) / k), 0.0), power)
    return p1, power - p1


def dl_sum_at(c1, c2, p1, p2, st: Stats) -> float:
    a, b = c1 * st.g1 * p1, c2 * st.g2 * p2
    return log2p(a + b + a * b * st.rho_bar)


def dl_sum(c1, c2, power, st: Stats) -> float:
    return dl_sum_at(c1, c2, *dl_split(c1, c2, power, st), st)


def dpc_rates(c1, c2, p1, p2, st: Stats):
    "DPC with user 2 encoded first: user 1 sees user 2 pre-cancelled."
    e1, e2 = c1 * st.g1 * p1, c2 * st.g2 * p2
    return log2p(e1 * (1.0 + e2 * st.rho_bar) / (1.0 + e2)), log2p(e2)


def dl_zf(c1, c2, power, st: Stats):
    "ZF precoding: water-filling over gains c_k g_k rho_bar."
    a = (c1 * st.g1 * st.rho_bar, c2 * st.g2 * st.rho_bar)
    level = 0.5 * (power + 1.0 / a[0] + 1.0 / a[1])
    p = [level - 1.0 / a[0], level - 1.0 / a[1]]
    if min(p) < 0.0:
        p = [power, 0.0] if a[0] >= a[1] else [0.0, power]
    return log2p(a[0] * p[0]), log2p(a[1] * p[1])


def pentagon(s1, s2, st: Stats):
    c1, c2, cs = log2p(s1 * st.g1), log2p(s2 * st.g2), ul_sum(s1, s2, st)
    return [(0.0, 0.0), (c1, 0.0), (c1, cs - c1), (cs - c2, c2), (0.0, c2)]


def hull(points):
    "Andrew's monotone chain, counter-clockwise, collinear points dropped."
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def dl_region(c1, c2, power, st: Stats, splits: int):
    "Hull of the dual pentagons at evenly spaced splits."
    p1 = power * np.arange(splits) / (splits - 1)
    a = c1 * st.g1 * p1
    b = c2 * st.g2 * (power - p1)
    r1 = np.log2(1.0 + a)
    r2 = np.log2(1.0 + b)
    rs = np.log2(1.0 + a + b + a * b * st.rho_bar)
    # Axis vertices other than the extreme ones lie inside the hull.
    pts = [(0.0, 0.0), (float(r1.max()), 0.0), (0.0, float(r2.max()))]
    for u, v, s in zip(r1.tolist(), r2.tolist(), rs.tolist()):
        pts += [(u, s - u), (s - v, v)]
    return hull(pts)


def polygon_summary(vertices):
    "Extremes and area of a rate region, comparable across hull implementations."
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return {
        "max_r1": max(v[0] for v in vertices),
        "max_r2": max(v[1] for v in vertices),
        "max_sum": max(v[0] + v[1] for v in vertices),
        "area": 0.5 * area,
    }


def asymptote_ul(s1, s2) -> float:
    "Infinite planar aperture: both gains reach 1/2 and the users decorrelate."
    return log2p(s1 / 2.0) + log2p(s2 / 2.0)


def asymptote_dl(c1, c2, power) -> float:
    return dl_sum(c1, c2, power, Stats(0.5, 0.5, 0j))


def snr_per_power(lam, rx_area, noise) -> float:
    "Downlink SNR per unit power, A_u k0^2 eta^2 / (4 pi sigma^2)."
    return rx_area * k0_of(lam) ** 2 * ETA0**2 / (4.0 * math.pi * noise)
