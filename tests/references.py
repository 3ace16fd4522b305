"""Reference helpers that only the tests call.

The library keeps only what the program runs.  These are the independent
routes the tests check it against: plain Chebyshev-Gauss integration, a 1-D
front end of the adaptive oracle, the discretized ZF detector and MRT
current, the whitening quadratic and inverse, the dual objective, the
grid-noise and Table-I pipeline checks, and tests of a rate region given as
its counterclockwise vertex tuple.
"""

import math

import numpy as np

from capalink import channel
from capalink.downlink import DualLink
from capalink.numerics import (
    ChebyshevRule,
    SampledField,
    _adaptive_integrate,
    inner_product,
    norm_squared,
    sample_noise_batch,
)
from capalink.regions import HULL_EPS, _cross
from capalink.uplink import WhiteningOperator, mrc_detector, simulate_table1, sum_capacity_ul
from capalink.verify import grid_fields

# numerics


def cg_integrate_1d(f, half_width: float, rule: ChebyshevRule) -> complex:
    """Integrate f over [-half_width, half_width] with the Chebyshev rule.

    Evaluates (pi a / n) * sum_j sqrt(1 - psi_j^2) f(a psi_j).  The integrand
    must be vectorized over a numpy array of abscissae.
    """
    x = half_width * rule.nodes
    vals = np.asarray(f(x))
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    s = np.sum(rule.sqrt_weights * vals)
    return complex(math.pi * half_width / rule.order * s)


def cg_integrate_2d(f, half_x: float, half_z: float, rule: ChebyshevRule) -> complex:
    """Tensor-product Chebyshev rule over [-half_x, half_x] x [-half_z, half_z].

    f(x, z) must broadcast over a (n, 1) x-column and (1, n) z-row.
    """
    n = rule.order
    x = (half_x * rule.nodes)[:, None]
    z = (half_z * rule.nodes)[None, :]
    vals = np.asarray(f(x, z))
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    w = rule.sqrt_weights
    s = np.sum(w[:, None] * w[None, :] * vals)
    return complex((math.pi**2 * half_x * half_z) / n**2 * s)


def adaptive_integrate_1d(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    abs_floor: float = 1e-14,
    max_panels: int = 4096,
) -> complex:
    """Adaptive Gauss-Kronrod integration of a (complex) vectorized integrand.

    Globally adaptive: panels are bisected in batches until the summed error
    estimate drops below max(rel_tol * |integral|, abs_floor).  f receives
    a (panels, 15) array of abscissae.
    """
    return _adaptive_integrate(f, [a], [b], rel_tol, abs_floor, max_panels)


# uplink


def whitening_mu_residual(mu: float, gamma1: float, g1: float) -> float:
    "Residual of the defining quadratic; zero for both admissible roots."
    return (
        2.0 * mu
        + gamma1
        + 2.0 * mu * gamma1 * g1
        + mu**2 * g1
        + gamma1 * mu**2 * g1**2
    )


def apply_inverse(op: WhiteningOperator, f: SampledField) -> SampledField:
    "Exact inverse of op.apply, so the whitening transform is lossless."
    mu = op.mu1
    coeff = -mu / (1.0 + mu * op.g1)
    return f.plus(op.g1_field, coeff * inner_product(op.g1_field, f))


def zf_detector(h_k: SampledField, h_other: SampledField) -> SampledField:
    "Projection of h_k onto the orthogonal complement of the other channel."
    denom = norm_squared(h_other)
    if denom <= 0.0:
        raise ValueError("interfering channel has zero norm")
    # coefficient is int h_k h_other* / int |h_other|^2 = conj(<h_k, h_other>)/...
    coeff = np.conj(inner_product(h_k, h_other)) / denom
    return h_k.plus(h_other, -coeff)


# downlink


def mrt_current(h: SampledField, power: float) -> SampledField:
    "Source current aligned with the conjugate channel, carrying the given power."
    if power < 0.0:
        raise ValueError("power must be nonnegative")
    hh = norm_squared(h)
    if hh <= 0.0:
        raise ValueError("cannot build an MRT current from a zero field")
    return SampledField(h.grid, math.sqrt(power / hh) * np.conj(h.values))


def dual_objective(link: DualLink, p1: float, p2: float) -> float:
    "Dual-uplink sum rate at an arbitrary feasible split."
    return sum_capacity_ul(link.snr_at(0, p1), link.snr_at(1, p2), link.ch)


# verify


def projected_noise_variance_check(
    scene, seed: int = 0, draws: int = 100_000, sigma2: float = 1.0, resolution=(4, 4)
) -> float:
    """Relative error of Var(<V, N>) against sigma2 for a unit-norm detector."""
    g1_field = grid_fields(scene, resolution)[0]
    detector = mrc_detector(g1_field)
    if abs(inner_product(detector, detector) - 1.0) > 1e-12:
        raise RuntimeError("detector failed to normalize on this grid")
    noise = sample_noise_batch(g1_field.grid, sigma2, seed, draws)
    proj = noise @ (g1_field.grid.weights * np.conj(detector.values))
    var = float(np.mean(np.abs(proj) ** 2))
    return abs(var - sigma2) / sigma2


def table1_closed_form_gap(scene, resolution) -> dict:
    """Discretized SIC pipeline vs the closed-form post-whitening SNR.

    The closed form uses the arctan gains and the adaptive-oracle correlation,
    so the gap measures pure grid error of the operator pipeline.
    """
    g1_field, g2_field = grid_fields(scene, resolution)  # planar apertures only
    ap = scene.aperture
    s1, s2 = scene.ul_snr_linear
    res = simulate_table1(
        g1_field, g2_field, s1, s2, wavelength=scene.wavelength.lam
    )
    g1 = channel.gain_planar(ap, scene.users[0])
    g2 = channel.gain_planar(ap, scene.users[1])
    rho = channel.channel_pair_planar_oracle(ap, *scene.users, scene.wavelength)[2]
    r2 = min(abs(rho), 1.0) ** 2
    gamma2_closed = s2 * g2 * (1.0 - s1 * g1 * r2 / (1.0 + s1 * g1))
    gamma1_closed = s1 * g1
    return {
        "gamma1_pipeline": res.gamma1,
        "gamma2_pipeline": res.gamma2,
        "gamma1_closed": gamma1_closed,
        "gamma2_closed": gamma2_closed,
        "gamma1_gap": abs(res.gamma1 - gamma1_closed) / gamma1_closed,
        "gamma2_gap": abs(res.gamma2 - gamma2_closed) / gamma2_closed,
        "residual_projection": res.residual_projection,
    }


# rate regions, given as counterclockwise vertex tuples


def contains(v, point, eps: float = 1e-9) -> bool:
    "Point-in-convex-polygon test (CCW boundary counted as inside)."
    n = len(v)
    if n == 0:
        return False
    if n == 1:
        return abs(point[0] - v[0][0]) <= eps and abs(point[1] - v[0][1]) <= eps
    for i in range(n):
        if _cross(v[i], v[(i + 1) % n], point) < -eps:
            return False
    return True


def max_sum_rate(v) -> float:
    return max((x + y for x, y in v), default=0.0)


def is_convex(v, eps: float = HULL_EPS) -> bool:
    n = len(v)
    if n < 4:
        return True
    return all(
        _cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) >= -eps for i in range(n)
    )
