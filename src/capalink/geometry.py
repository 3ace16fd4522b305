"""Base-station aperture shapes and user placement.

The BS aperture always lies in the x-z plane, centered at the origin, with
normal vector e = (0, 1, 0).  Users are placed in spherical coordinates
(range, elevation theta, azimuth phi) and must sit strictly in front of the
aperture (direction cosine Psi > 0).  All angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FREE_SPACE_IMPEDANCE = 120.0 * math.pi
"Impedance of free space, ohms."


@dataclass(frozen=True)
class Wavelength:
    "Carrier wavelength in meters; owns the derived wavenumber."

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"wavelength must be positive, got {self.lam}")

    @property
    def k0(self) -> float:
        "Wavenumber 2*pi/lambda, rad/m."
        return 2.0 * math.pi / self.lam

    @property
    def eta(self) -> float:
        return FREE_SPACE_IMPEDANCE

    @property
    def isotropic_rx_area(self) -> float:
        "Effective aperture of an isotropic antenna, lambda^2/(4 pi)."
        return self.lam**2 / (4.0 * math.pi)


@dataclass(frozen=True)
class PlanarAperture:
    "Rectangular continuous aperture with edges parallel to the x/z axes."

    length_x: float
    length_z: float

    def __post_init__(self):
        if not (self.length_x > 0.0 and self.length_z > 0.0):
            raise ValueError("aperture side lengths must be positive")

    @property
    def area(self) -> float:
        return self.length_x * self.length_z


@dataclass(frozen=True)
class LinearAperture:
    """Thin continuous strip along the z axis.

    The intended regime is length_x << length_z; both are stored but the
    closed forms neglect variation along x.
    """

    length_x: float
    length_z: float

    def __post_init__(self):
        if not (self.length_x > 0.0 and self.length_z > 0.0):
            raise ValueError("aperture side lengths must be positive")

    @property
    def area(self) -> float:
        return self.length_x * self.length_z

    @property
    def is_thin(self) -> bool:
        "True when the strip satisfies the length_x <= length_z/10 regime."
        return self.length_x <= self.length_z / 10.0


@dataclass(frozen=True)
class DiscreteAperture:
    """Planar array of discrete square elements on a regular grid.

    Element counts must be odd (centers at integer multiples of the spacing,
    symmetric about the origin) and elements may not overlap.
    """

    elements_x: int
    elements_z: int
    spacing: float
    element_area: float

    def __post_init__(self):
        if self.elements_x < 1 or self.elements_x % 2 == 0:
            raise ValueError(f"elements_x must be odd and >= 1, got {self.elements_x}")
        if self.elements_z < 1 or self.elements_z % 2 == 0:
            raise ValueError(f"elements_z must be odd and >= 1, got {self.elements_z}")
        if not self.spacing > 0.0:
            raise ValueError("element spacing must be positive")
        if not self.element_area > 0.0:
            raise ValueError("element area must be positive")
        if math.sqrt(self.element_area) > self.spacing * (1.0 + 1e-12):
            raise ValueError(
                "elements overlap: sqrt(element_area) "
                f"= {math.sqrt(self.element_area):.6g} exceeds spacing {self.spacing:.6g}"
            )

    @property
    def count(self) -> int:
        return self.elements_x * self.elements_z

    @property
    def occupation_ratio(self) -> float:
        "Fraction of array area covered by elements, element_area/spacing^2."
        return self.element_area / self.spacing**2

    @property
    def span_x(self) -> float:
        return self.elements_x * self.spacing

    @property
    def span_z(self) -> float:
        return self.elements_z * self.spacing


@dataclass(frozen=True)
class UserPlacement:
    """A single-antenna user in spherical coordinates around the BS.

    range_m is the distance from the aperture center, theta the elevation
    measured from the +z axis, phi the azimuth measured from the +x axis.
    rx_area is the effective receive-aperture area and noise_intensity the
    noise power density at that user.
    """

    range_m: float
    theta: float
    phi: float
    rx_area: float
    noise_intensity: float = 1.0

    def __post_init__(self):
        if not self.range_m > 0.0:
            raise ValueError(f"user range must be positive, got {self.range_m}")
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if not 0.0 < self.phi < math.pi:
            raise ValueError(f"phi must lie in (0, pi), got {self.phi}")
        if not self.rx_area > 0.0:
            raise ValueError("rx_area must be positive")
        if not self.noise_intensity > 0.0:
            raise ValueError("noise_intensity must be positive")
        if not self.cos_front > 0.0:
            # Grazing users make the projected-aperture factor vanish and the
            # channel kernel undefined.
            raise ValueError(
                "user must be strictly in front of the aperture (sin(phi)sin(theta) > 0)"
            )

    @property
    def cos_x(self) -> float:
        "Direction cosine along x: cos(phi) sin(theta)."
        return math.cos(self.phi) * math.sin(self.theta)

    @property
    def cos_front(self) -> float:
        "Direction cosine along the aperture normal y: sin(phi) sin(theta)."
        return math.sin(self.phi) * math.sin(self.theta)

    @property
    def cos_z(self) -> float:
        "Direction cosine along z: cos(theta)."
        return math.cos(self.theta)


def user_position(p: UserPlacement) -> np.ndarray:
    "Cartesian position (x, y, z) of the user, meters."
    return p.range_m * np.array([p.cos_x, p.cos_front, p.cos_z])


def element_centers(a: DiscreteAperture) -> np.ndarray:
    """Element center positions, shape (count, 3).

    Row-major over (m_z, m_x) ascending, i.e. m_x varies fastest.
    """
    mx = (np.arange(a.elements_x) - a.elements_x // 2) * a.spacing
    mz = (np.arange(a.elements_z) - a.elements_z // 2) * a.spacing
    gz, gx = np.meshgrid(mz, mx, indexing="ij")
    out = np.column_stack([gx.ravel(), np.zeros(a.count), gz.ravel()])
    out.setflags(write=False)
    return out
