"""Reference helpers that only the tests call.

The library keeps only what the program runs.  These are the independent
routes the tests check it against: plain Chebyshev-Gauss integration, a 1-D
front end of the adaptive oracle, the white-noise sampler of a weighted
grid, the MRC and ZF detectors and the MRT current on element-domain
vectors, the whitening quadratic and inverse, the dual objective, the
grid-noise and Table-I pipeline checks, and tests of a rate region given as
its counterclockwise vertex tuple.
"""

import math

import numpy as np

from capalink import channel
from capalink.downlink import DualLink
from capalink.numerics import ChebyshevRule, _adaptive_integrate
from capalink.regions import HULL_EPS, _cross
from capalink.uplink import simulate_table1, sum_capacity_ul
from capalink.verify import grid_channels

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


def sample_noise_batch(
    weights: np.ndarray, sigma2: float, seed: int, draws: int
) -> np.ndarray:
    """Matrix of independent white aperture noise realizations, shape (draws, N).

    Per-point variance is sigma2 / weights_i, the discrete stand-in for the
    Dirac-delta covariance on cells of those areas: with it,
    Var(sum_i w_i conj(V_i) N_i) = sigma2 sum_i w_i |V_i|^2 holds exactly, and
    sqrt(weights) N is white at intensity sigma2 in the element domain.  The
    real parts of all draws come first from the seeded generator, then the
    imaginary parts.
    """
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    rng = np.random.default_rng(seed)
    out = np.empty((draws, weights.size), dtype=complex)
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    out *= np.sqrt(sigma2 / (2.0 * weights))
    return out


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


def mrc_detector(h: np.ndarray) -> np.ndarray:
    "Unit-norm detector aligned with the element-domain channel h."
    hh = np.vdot(h, h).real
    if hh <= 0.0:
        raise ValueError("cannot build an MRC detector from a zero channel")
    return h / math.sqrt(hh)


def apply_inverse(h1: np.ndarray, mu1: float, f: np.ndarray) -> np.ndarray:
    "Exact inverse of uplink.whiten(h1, mu1, .), so the whitening is lossless."
    coeff = -mu1 / (1.0 + mu1 * np.vdot(h1, h1).real)
    return f + coeff * np.vdot(h1, f) * h1


def zf_detector(h_k: np.ndarray, h_other: np.ndarray) -> np.ndarray:
    "Projection of h_k onto the orthogonal complement of the other channel."
    denom = np.vdot(h_other, h_other).real
    if denom <= 0.0:
        raise ValueError("interfering channel has zero norm")
    return h_k - np.vdot(h_other, h_k) / denom * h_other


# downlink


def mrt_current(h: np.ndarray, power: float) -> np.ndarray:
    "Source current aligned with the conjugate channel, carrying the given power."
    if power < 0.0:
        raise ValueError("power must be nonnegative")
    hh = np.vdot(h, h).real
    if hh <= 0.0:
        raise ValueError("cannot build an MRT current from a zero channel")
    return math.sqrt(power / hh) * np.conj(h)


def dual_objective(link: DualLink, p1: float, p2: float) -> float:
    "Dual-uplink sum rate at an arbitrary feasible split."
    return sum_capacity_ul(link.snr_at(0, p1), link.snr_at(1, p2), link.ch)


# verify


def projected_noise_variance_check(
    scene, seed: int = 0, draws: int = 100_000, sigma2: float = 1.0, resolution=(4, 4)
) -> float:
    """Relative error of Var(<V, N>) against sigma2 for a unit-norm detector."""
    detector = mrc_detector(grid_channels(scene, resolution)[0])
    if abs(np.vdot(detector, detector) - 1.0) > 1e-12:
        raise RuntimeError("detector failed to normalize on this grid")
    n_x, n_z = resolution
    weights = np.full(n_x * n_z, scene.aperture.area / (n_x * n_z))
    noise = sample_noise_batch(weights, sigma2, seed, draws)
    proj = noise @ (np.sqrt(weights) * np.conj(detector))
    var = float(np.mean(np.abs(proj) ** 2))
    return abs(var - sigma2) / sigma2


def table1_closed_form_gap(scene, resolution) -> dict:
    """Discretized SIC pipeline vs the closed-form post-whitening SNR.

    The closed form uses the arctan gains and the adaptive-oracle correlation,
    so the gap measures pure grid error of the operator pipeline.
    """
    h1, h2 = grid_channels(scene, resolution)  # planar apertures only
    ap = scene.aperture
    s1, s2 = scene.ul_snr_linear
    gamma1, gamma2 = simulate_table1(h1, h2, s1, s2)
    g1 = channel.gain_planar(ap, scene.users[0])
    g2 = channel.gain_planar(ap, scene.users[1])
    rho = channel.planar_oracle(ap, scene.users, scene.wavelength)[1]
    r2 = min(abs(rho), 1.0) ** 2
    gamma2_closed = s2 * g2 * (1.0 - s1 * g1 * r2 / (1.0 + s1 * g1))
    gamma1_closed = s1 * g1
    return {
        "gamma1_pipeline": gamma1,
        "gamma2_pipeline": gamma2,
        "gamma1_closed": gamma1_closed,
        "gamma2_closed": gamma2_closed,
        "gamma1_gap": abs(gamma1 - gamma1_closed) / gamma1_closed,
        "gamma2_gap": abs(gamma2 - gamma2_closed) / gamma2_closed,
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
