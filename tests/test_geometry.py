import math

import numpy as np
import pytest

from capalink.geometry import (
    DiscreteAperture,
    LinearAperture,
    PlanarAperture,
    UserPlacement,
    Wavelength,
    element_centers,
    user_position,
)

A_U = 0.125**2 / (4 * math.pi)


def place(r, theta, phi):
    return UserPlacement(r, theta, phi, A_U)


class TestUserPosition:
    def test_broadside(self):
        pos = user_position(place(10.0, math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(pos, [0.0, 10.0, 0.0], atol=1e-12)

    def test_oblique(self):
        pos = user_position(place(10.0, math.pi / 6, math.pi / 3))
        expected = [
            10 * math.cos(math.pi / 3) * math.sin(math.pi / 6),
            10 * math.sin(math.pi / 3) * math.sin(math.pi / 6),
            10 * math.cos(math.pi / 6),
        ]
        np.testing.assert_allclose(pos, expected, rtol=1e-15)
        np.testing.assert_allclose(pos, [2.5, 4.330127018922193, 8.660254037844387])

    def test_scaling_with_range(self):
        pos = user_position(place(20.0, math.pi / 6, math.pi / 3))
        np.testing.assert_allclose(
            pos, 2 * user_position(place(10.0, math.pi / 6, math.pi / 3)), rtol=1e-15
        )

    def test_norm_equals_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = rng.uniform(0.1, 100.0)
            p = place(r, rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05))
            assert abs(np.linalg.norm(user_position(p)) - r) <= 1e-12 * r

    @pytest.mark.parametrize("theta,phi", [
        (math.pi / 2, math.pi),      # in-plane
        (math.pi / 2, 0.0),          # in-plane
        (0.0, math.pi / 2),          # on the z axis
        (math.pi / 2, 3 * math.pi / 2),  # behind the aperture
    ])
    def test_rejects_non_frontal_users(self, theta, phi):
        with pytest.raises(ValueError):
            place(10.0, theta, phi)


class TestElementCenters:
    def test_single_element(self):
        a = DiscreteAperture(1, 1, 0.0625, 0.0625**2)
        np.testing.assert_array_equal(element_centers(a), [[0.0, 0.0, 0.0]])

    def test_symmetric_triple(self):
        a = DiscreteAperture(3, 1, 0.1, 0.001)
        np.testing.assert_allclose(
            element_centers(a),
            [[-0.1, 0, 0], [0.0, 0, 0], [0.1, 0, 0]],
            atol=1e-15,
        )

    def test_grid_count(self):
        a = DiscreteAperture(3, 3, 0.0625, 0.001)
        pts = element_centers(a)
        assert pts.shape == (9, 3)
        assert len({(p[0], p[2]) for p in pts}) == 9

    def test_reflection_symmetry(self):
        a = DiscreteAperture(5, 7, 0.03, 0.0005)
        pts = element_centers(a)
        as_set = {tuple(np.round(p, 12)) for p in pts}
        mirrored = {tuple(np.round(-p, 12)) for p in pts}
        assert as_set == mirrored

    def test_row_major_order(self):
        a = DiscreteAperture(3, 3, 1.0, 0.5)
        pts = element_centers(a)
        # m_z varies slowest, m_x fastest
        np.testing.assert_allclose(pts[0], [-1.0, 0.0, -1.0])
        np.testing.assert_allclose(pts[1], [0.0, 0.0, -1.0])
        np.testing.assert_allclose(pts[3], [-1.0, 0.0, 0.0])


class TestApertureTypes:
    def test_even_counts_rejected(self):
        with pytest.raises(ValueError):
            DiscreteAperture(4, 3, 0.1, 0.001)
        with pytest.raises(ValueError):
            DiscreteAperture(3, 2, 0.1, 0.001)

    def test_overlapping_elements_rejected(self):
        with pytest.raises(ValueError):
            DiscreteAperture(3, 3, 0.1, 0.02)  # sqrt(0.02) > 0.1

    def test_full_occupation_is_exact(self):
        a = DiscreteAperture(3, 3, 0.1, 0.1**2)
        assert a.occupation_ratio == pytest.approx(1.0, abs=1e-15)
        assert math.sqrt(a.element_area) == pytest.approx(a.spacing, abs=1e-15)

    def test_discrete_area_is_occupied_area(self):
        a = DiscreteAperture(5, 3, 0.1, 0.004)
        assert a.area == 15 * 0.004

    def test_planar_area(self):
        assert PlanarAperture(0.5, 0.5).area == pytest.approx(0.25)
        with pytest.raises(ValueError):
            PlanarAperture(-1.0, 1.0)

    def test_linear_thinness(self):
        assert LinearAperture(0.01, 0.5).is_thin
        assert not LinearAperture(0.2, 0.5).is_thin

    def test_wavelength_derived(self):
        wl = Wavelength(0.125)
        assert wl.k0 == pytest.approx(2 * math.pi / 0.125)
        assert wl.eta == pytest.approx(120 * math.pi)
        assert wl.isotropic_rx_area == pytest.approx(0.125**2 / (4 * math.pi))

    def test_wavelength_with_infinite_wavenumber_rejected(self):
        # 2 pi / 5e-324 overflows to inf; a phase k0 R is then NaN
        with pytest.raises(ValueError, match="wavenumber"):
            Wavelength(5e-324)
        assert math.isfinite(Wavelength(1e-300).k0)
