"""Quadrature rules and the adaptive integration oracle.

Two layers live here.  Chebyshev-Gauss nodes and weights feed the
closed-form correlation sums in channel.correlation_on_rule.  A globally
adaptive 2-D Gauss-Kronrod integrator acts as the brute-force oracle every
closed form is checked against: its leaf panels live in numpy arrays, and
each refinement pass evaluates all new panels' tensor 7-15 nodes in bounded
batches with one integrand call per batch, then splits every panel whose
error estimate exceeds its share of the tolerance (Berntsen, Espelid &
Genz, ACM TOMS 17, 1991).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gauss-Kronrod 7-15 pair on [-1, 1].  Odd-indexed Kronrod nodes are the
# embedded Gauss nodes.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


class NonConvergenceError(RuntimeError):
    "Raised when the adaptive oracle exhausts its panel budget."


@dataclass(frozen=True)
class ChebyshevRule:
    """First-kind Chebyshev-Gauss nodes cos((2j-1) pi / (2n)), j = 1..n.

    The companion weight pi/n together with the sqrt(1 - psi^2) factor turns
    the rule into an open quadrature for plain (unweighted) integrals.
    """

    order: int
    nodes: np.ndarray

    @property
    def sqrt_weights(self) -> np.ndarray:
        "sqrt(1 - psi_j^2) factors applied when integrating unweighted f."
        return np.sqrt(1.0 - self.nodes**2)


def chebyshev_nodes(n: int) -> ChebyshevRule:
    "Build the order-n Chebyshev-Gauss rule."
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    j = np.arange(1, n + 1)
    nodes = np.cos((2 * j - 1) * math.pi / (2 * n))
    nodes.setflags(write=False)
    return ChebyshevRule(order=n, nodes=nodes)


ORACLE_CHUNK_NODES = 100_000
"Most integrand nodes the oracle evaluates in one call, which bounds its memory."

ORACLE_MAX_PANELS = 1 << 20
"Most leaf panels the 2-D oracle may hold before it reports non-convergence."


def _gk_panels(f, centers: np.ndarray, halves: np.ndarray):
    """Tensor Gauss-Kronrod 7-15 rule on a batch of d-dimensional panels.

    Panel i is the box centers[i] +- halves[i].  Axis k's nodes reach f with
    shape (p, 1, .., 15, .., 1), so f broadcasts them to the (p, 15, .., 15)
    node grid; its result is broadcast to that shape too.  Returns each
    panel's Kronrod value and |Kronrod - embedded Gauss| error estimate.
    """
    p, d = centers.shape
    shape = (p,) + (_KRONROD_NODES.size,) * d
    axes = []
    for k in range(d):
        nodes = centers[:, k, None] + halves[:, k, None] * _KRONROD_NODES
        axes.append(nodes.reshape((p,) + (1,) * k + (-1,) + (1,) * (d - 1 - k)))
    vals = np.broadcast_to(np.asarray(f(*axes)), shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on a panel")
    kronrod, gauss = vals, vals[(slice(None),) + (slice(1, None, 2),) * d]
    for _ in range(d):
        kronrod = kronrod @ _KRONROD_WEIGHTS
        gauss = gauss @ _GAUSS_WEIGHTS
    vol = np.prod(halves, axis=1)
    return vol * kronrod, np.abs(vol) * np.abs(kronrod - gauss)


def _adaptive_integrate(f, lo, hi, rel_tol, abs_floor, max_panels):
    """Globally adaptive tensor Gauss-Kronrod cubature over the box [lo, hi].

    Each pass evaluates every new leaf panel in batches of at most
    ORACLE_CHUNK_NODES nodes, then splits into 2^d halves each leaf whose
    error exceeds half the tolerance times its share of the volume.  The
    loop stops once the summed error is at most
    tol = max(rel_tol |I|, abs_floor).  A pass that splits nothing leaves a
    summed error of at most tol / 2, so every pass either splits or stops.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    d = lo.size
    corners = np.array(np.meshgrid(*[[-0.5, 0.5]] * d, indexing="ij")).reshape(d, -1).T
    chunk = max(1, ORACLE_CHUNK_NODES // _KRONROD_NODES.size**d)
    total_vol = abs(float(np.prod(0.5 * (hi - lo))))
    centers, halves = (0.5 * (lo + hi))[None, :], (0.5 * (hi - lo))[None, :]
    vals = np.empty(0, dtype=complex)
    errs = np.empty(0)
    new_c, new_h = centers, halves
    while True:
        parts = [_gk_panels(f, new_c[i:i + chunk], new_h[i:i + chunk])
                 for i in range(0, len(new_c), chunk)]
        vals = np.concatenate([vals] + [v for v, _ in parts])
        errs = np.concatenate([errs] + [e for _, e in parts])
        total, total_err = complex(np.sum(vals)), float(np.sum(errs))
        tol = max(rel_tol * abs(total), abs_floor)
        if total_err <= tol:
            return total
        split = errs > 0.5 * tol * np.abs(np.prod(halves, axis=1)) / total_vol
        n_leaves = len(vals) + (2**d - 1) * int(np.count_nonzero(split))
        if n_leaves > max_panels:
            raise NonConvergenceError(
                f"adaptive integration did not converge within {max_panels} panels "
                f"(error estimate {total_err:.3e}, value {abs(total):.3e})"
            )
        keep = ~split
        new_h = np.repeat(0.5 * halves[split], 2**d, axis=0)
        new_c = (centers[split][:, None, :] + corners * halves[split][:, None, :]).reshape(-1, d)
        centers = np.concatenate([centers[keep], new_c])
        halves = np.concatenate([halves[keep], new_h])
        vals, errs = vals[keep], errs[keep]


def adaptive_integrate_2d(
    f,
    bounds,
    rel_tol: float = 1e-8,
    abs_floor: float = 1e-14,
) -> complex:
    """Adaptive tensor Gauss-Kronrod integration of f(x, z) over a rectangle.

    bounds is ((x_lo, x_hi), (z_lo, z_hi)).  Panels are quartered in batches
    until the summed error estimate drops below
    max(rel_tol * |integral|, abs_floor).  f receives x of shape
    (panels, 15, 1) and z of shape (panels, 1, 15) and must broadcast them.
    At most ORACLE_MAX_PANELS leaf panels are held.
    """
    (x_lo, x_hi), (z_lo, z_hi) = bounds
    return _adaptive_integrate(
        f, [x_lo, z_lo], [x_hi, z_hi], rel_tol, abs_floor, ORACLE_MAX_PANELS
    )
