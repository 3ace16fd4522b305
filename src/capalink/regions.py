"""The convex hull that merges the dual-uplink pentagons into a region.

A rate region is the tuple of its counterclockwise (R1, R2) vertices.
"""

from __future__ import annotations

HULL_EPS = 1e-12
"Collinearity epsilon for hull cross products on rate values."


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points, eps: float = HULL_EPS):
    """Monotone-chain convex hull, counterclockwise, duplicates removed.

    Collinear boundary points within eps are dropped.
    """
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and _cross(lower[-2], lower[-1], p) <= eps:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and _cross(upper[-2], upper[-1], p) <= eps:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
