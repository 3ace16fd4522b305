"""Rate-region polygons and the convex hull used to merge dual regions."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class RegionPolygon:
    "Achievable-rate region boundary: CCW-ordered (R1, R2) vertices."

    vertices: tuple

    @property
    def area(self) -> float:
        "Shoelace area; nonnegative for CCW vertex order."
        v = self.vertices
        n = len(v)
        if n < 3:
            return 0.0
        s = 0.0
        for i in range(n):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % n]
            s += x0 * y1 - x1 * y0
        return 0.5 * s

    def contains(self, point, eps: float = 1e-9) -> bool:
        "Point-in-convex-polygon test (CCW boundary counted as inside)."
        v = self.vertices
        n = len(v)
        if n == 0:
            return False
        if n == 1:
            return abs(point[0] - v[0][0]) <= eps and abs(point[1] - v[0][1]) <= eps
        for i in range(n):
            if _cross(v[i], v[(i + 1) % n], point) < -eps:
                return False
        return True

    def max_sum_rate(self) -> float:
        return max((x + y for x, y in self.vertices), default=0.0)

    def is_convex(self, eps: float = HULL_EPS) -> bool:
        v = self.vertices
        n = len(v)
        if n < 4:
            return True
        return all(
            _cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) >= -eps for i in range(n)
        )
