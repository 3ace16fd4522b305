"""Quadrature rules and the adaptive integration oracle.

Two layers live here.  Chebyshev-Gauss nodes and weights feed the
closed-form correlation sums in channel.correlation_on_rule.  A globally
adaptive 2-D Gauss-Kronrod integrator acts as the brute-force oracle every
closed form is checked against: its leaf panels live in numpy arrays, and
each refinement pass evaluates all new panels' tensor 7-15 nodes in bounded
batches with one integrand call per batch, then splits every panel whose
error estimate exceeds its share of the tolerance.  The integrand may be a
vector: its components share one panel tree, each with its own sum, error
estimate and tolerance (Berntsen, Espelid & Genz, ACM TOMS 17, 1991).
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
"""Most integrand values (nodes times components) the oracle computes in one
call, which bounds its memory."""

ORACLE_MAX_PANELS = 1 << 20
"Most leaf panels the 2-D oracle may hold before it reports non-convergence."


def _gk_panels(f, centers: np.ndarray, halves: np.ndarray):
    """Tensor Gauss-Kronrod 7-15 rule on a batch of d-dimensional panels.

    Panel i is the box centers[i] +- halves[i].  Axis k's nodes reach f with
    shape (p, 1, .., 15, .., 1), so f broadcasts them to the (p, 15, .., 15)
    node grid; its result is broadcast to that shape too, after any leading
    component axes of a vector integrand.  Returns each panel's Kronrod
    value and |Kronrod - embedded Gauss| error estimate, of shape (p,) for
    a scalar integrand and (components, p) for a vector one.
    """
    p, d = centers.shape
    shape = (p,) + (_KRONROD_NODES.size,) * d
    axes = []
    for k in range(d):
        nodes = centers[:, k, None] + halves[:, k, None] * _KRONROD_NODES
        axes.append(nodes.reshape((p,) + (1,) * k + (-1,) + (1,) * (d - 1 - k)))
    vals = np.asarray(f(*axes))
    vals = np.broadcast_to(vals, vals.shape[:max(0, vals.ndim - d - 1)] + shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on a panel")
    kronrod, gauss = vals, vals[(Ellipsis,) + (slice(1, None, 2),) * d]
    for _ in range(d):
        kronrod = kronrod @ _KRONROD_WEIGHTS
        gauss = gauss @ _GAUSS_WEIGHTS
    vol = np.prod(halves, axis=1)
    return vol * kronrod, np.abs(vol) * np.abs(kronrod - gauss)


def _adaptive_integrate(f, lo, hi, rel_tol, abs_floor, max_panels):
    """Globally adaptive tensor Gauss-Kronrod cubature over the box [lo, hi].

    Each pass evaluates every new leaf panel in batches of at most
    ORACLE_CHUNK_NODES values, then splits into 2^d halves each leaf whose
    error, in any component, exceeds half that component's tolerance times
    the leaf's share of the volume.  The loop stops once every component's
    summed error is at most tol = max(rel_tol |I|, abs_floor).  A pass that
    splits nothing leaves each summed error at most tol / 2, so every pass
    either splits or stops.  Returns a complex for a scalar integrand and
    an array of the components' integrals for a vector one.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    d = lo.size
    corners = np.array(np.meshgrid(*[[-0.5, 0.5]] * d, indexing="ij")).reshape(d, -1).T
    total_vol = abs(float(np.prod(0.5 * (hi - lo))))
    centers, halves = (0.5 * (lo + hi))[None, :], (0.5 * (hi - lo))[None, :]
    # the root panel alone tells the component count, which sizes the batches
    vals, errs = _gk_panels(f, centers, halves)
    vals = vals.astype(complex)
    chunk = max(1, ORACLE_CHUNK_NODES // (vals.size * _KRONROD_NODES.size**d))
    new_c = new_h = centers[:0]
    while True:
        parts = [_gk_panels(f, new_c[i:i + chunk], new_h[i:i + chunk])
                 for i in range(0, len(new_c), chunk)]
        vals = np.concatenate([vals] + [v for v, _ in parts], axis=-1)
        errs = np.concatenate([errs] + [e for _, e in parts], axis=-1)
        total, total_err = np.sum(vals, axis=-1), np.sum(errs, axis=-1)
        tol = np.maximum(rel_tol * np.abs(total), abs_floor)
        if np.all(total_err <= tol):
            return complex(total) if total.ndim == 0 else total
        share = 0.5 * tol[..., None] * np.abs(np.prod(halves, axis=1)) / total_vol
        split = (errs > share).reshape(-1, len(halves)).any(axis=0)
        n_leaves = len(halves) + (2**d - 1) * int(np.count_nonzero(split))
        if n_leaves > max_panels:
            worst = np.argmax(total_err / tol)
            raise NonConvergenceError(
                f"adaptive integration did not converge within {max_panels} panels "
                f"(error estimate {total_err.flat[worst]:.3e}, "
                f"value {abs(total.flat[worst]):.3e})"
            )
        keep = ~split
        new_h = np.repeat(0.5 * halves[split], 2**d, axis=0)
        new_c = (centers[split][:, None, :] + corners * halves[split][:, None, :]).reshape(-1, d)
        centers = np.concatenate([centers[keep], new_c])
        halves = np.concatenate([halves[keep], new_h])
        vals, errs = vals[..., keep], errs[..., keep]


def adaptive_integrate_2d(
    f,
    bounds,
    rel_tol: float = 1e-8,
    abs_floor: float = 1e-14,
) -> complex | np.ndarray:
    """Adaptive tensor Gauss-Kronrod integration of f(x, z) over a rectangle.

    bounds is ((x_lo, x_hi), (z_lo, z_hi)).  Panels are quartered in batches
    until each component's summed error estimate drops below
    max(rel_tol * |integral|, abs_floor).  f receives x of shape
    (panels, 15, 1) and z of shape (panels, 1, 15) and must broadcast them;
    a vector integrand returns its components on a leading axis, of shape
    (components, panels, 15, 15), and gets back the array of their
    integrals, all on one panel tree.  At most ORACLE_MAX_PANELS leaf
    panels are held.
    """
    (x_lo, x_hi), (z_lo, z_hi) = bounds
    return _adaptive_integrate(
        f, [x_lo, z_lo], [x_hi, z_hi], rel_tol, abs_floor, ORACLE_MAX_PANELS
    )
