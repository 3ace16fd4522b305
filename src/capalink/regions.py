"""The convex hull that turns capacity pentagons (uplink.pentagon) into a
rate region: the tuple of its counterclockwise (R1, R2) vertices, without
repeated or collinear points.  The uplink region is the hull of one
pentagon, the downlink region that of all power splits' dual pentagons.
"""

from __future__ import annotations

import numpy as np

HULL_EPS = 1e-12
"Collinearity epsilon for hull cross products on rate values."


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Monotone-chain convex hull of (n, 2) points, counterclockwise,
    duplicates removed.

    Collinear boundary points within HULL_EPS are dropped.
    """
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    # plain floats: the chain walks point by point, which is slow on ndarrays
    pts = sorted(set(zip(x.tolist(), y.tolist())))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and _cross(lower[-2], lower[-1], p) <= HULL_EPS:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and _cross(upper[-2], upper[-1], p) <= HULL_EPS:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
