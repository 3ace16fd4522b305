import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from capalink.channel import (
    ChannelPair,
    correlation_planar,
    db_to_linear,
    downlink_snr_coefficient,
    element_channel,
    gain_linear,
    gain_planar,
    gain_spda,
    kernel_Q,
    pair_from_vectors,
    planar_oracle,
)
from capalink.geometry import (
    DiscreteAperture,
    LinearAperture,
    PlanarAperture,
    UserPlacement,
    Wavelength,
    element_centers,
)
from capalink.numerics import chebyshev_nodes
from capalink.scenario import channel_pair, scene_defaults
from references import adaptive_integrate_1d

WL = Wavelength(0.125)
A_U = WL.isotropic_rx_area
USER1 = UserPlacement(10.0, math.pi / 6, math.pi / 3, A_U)
USER2 = UserPlacement(20.0, math.pi / 6, math.pi / 3, A_U)
APERTURE = PlanarAperture(0.5, 0.5)


def random_placement(rng, r_lo=5.0, r_hi=50.0):
    return UserPlacement(
        rng.uniform(r_lo, r_hi),
        rng.uniform(0.35, math.pi - 0.35),
        rng.uniform(0.35, math.pi - 0.35),
        A_U,
    )


class TestKernel:
    def test_broadside_magnitude_at_center(self):
        p = UserPlacement(7.0, math.pi / 2, math.pi / 2, A_U)
        q = kernel_Q(WL, p, 0.0, 0.0)
        assert abs(q) == pytest.approx(1.0 / (math.sqrt(4 * math.pi) * 7.0), rel=1e-14)

    def test_broadside_phase_at_center(self):
        p = UserPlacement(7.0, math.pi / 2, math.pi / 2, A_U)
        q = kernel_Q(WL, p, 0.0, 0.0)
        expected = -WL.k0 * 7.0
        assert cmath.phase(q) == pytest.approx(
            math.remainder(expected, 2 * math.pi), abs=1e-12
        )

    def test_energy_integral_matches_gain(self):
        (got,), _ = planar_oracle(APERTURE, (USER1,), WL)
        assert got == pytest.approx(gain_planar(APERTURE, USER1), rel=1e-6)

    def test_far_aperture_decay_three_halves(self):
        # with the projected-aperture factor, |Q| falls off as x^(-3/2)
        # along the aperture once x dominates the user range
        x = 1e5
        ratio = abs(kernel_Q(WL, USER1, 2 * x, 0.0)) / abs(kernel_Q(WL, USER1, x, 0.0))
        assert ratio == pytest.approx(2.0 ** -1.5, rel=1e-3)


class TestPlanarGain:
    def test_arctan_sixth(self):
        # broadside user with both sides equal to twice the range
        p = UserPlacement(10.0, math.pi / 2, math.pi / 2, A_U)
        a = PlanarAperture(20.0, 20.0)
        assert gain_planar(a, p) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert planar_oracle(a, (p,), WL)[0] == pytest.approx((1.0 / 6.0,), rel=1e-6)

    def test_infinite_aperture_limit(self):
        a = PlanarAperture(1e6, 1e6)
        g = gain_planar(a, USER1)
        assert 0.499 <= g <= 0.5
        assert g == pytest.approx(0.5, abs=1e-3)

    def test_default_scene_vs_oracle(self):
        gains, _ = planar_oracle(APERTURE, (USER1, USER2), WL)
        for user, oracle in zip((USER1, USER2), gains):
            assert gain_planar(APERTURE, user) == pytest.approx(oracle, rel=1e-6)

    def test_energy_conservation_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            lx, lz = rng.uniform(0.05, 100.0, size=2)
            g = gain_planar(PlanarAperture(lx, lz), random_placement(rng, 1.0, 80.0))
            assert 0.0 < g < 0.5

    def test_far_users_match_gauss_legendre(self):
        # the paper's four arctan terms cancel to ~1e-12 relative here
        nodes, weights = np.polynomial.legendre.leggauss(48)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = PlanarAperture(*rng.uniform(0.2, 1.0, size=2))
            p = UserPlacement(
                rng.uniform(20.0, 60.0), *rng.uniform(0.3, math.pi - 0.3, size=2), A_U
            )
            x = (a.length_x / 2.0 * nodes)[:, None]
            z = (a.length_z / 2.0 * nodes)[None, :]
            q = kernel_Q(WL, p, x, z)
            ref = np.sum(np.outer(weights, weights) * np.abs(q) ** 2) * a.area / 4.0
            assert gain_planar(a, p) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_monotone_in_each_side(self):
        sides = np.linspace(0.1, 5.0, 10)
        for lz in sides:
            gains = [gain_planar(PlanarAperture(lx, lz), USER1) for lx in sides]
            assert np.all(np.diff(gains) > 0)
        for lx in sides:
            gains = [gain_planar(PlanarAperture(lx, lz), USER1) for lz in sides]
            assert np.all(np.diff(gains) > 0)


class TestLinearGain:
    def test_symmetric_user_algebraic_form(self):
        # Theta = 0 collapses the two geometric terms
        p = UserPlacement(10.0, math.pi / 2, math.pi / 3, A_U)
        a = LinearAperture(0.01, 0.5)
        expected = (
            a.length_x
            * math.sin(p.phi)
            * a.length_z
            / (2 * math.pi * p.range_m * math.sin(p.theta) * math.hypot(a.length_z, 2 * p.range_m))
        )
        assert gain_linear(a, p) == pytest.approx(expected, rel=1e-14)

    def test_infinite_strip_limit(self):
        a = LinearAperture(0.01, 1e6)
        expected = a.length_x * math.sin(USER1.phi) / (
            2 * math.pi * USER1.range_m * math.sin(USER1.theta)
        )
        assert gain_linear(a, USER1) == pytest.approx(expected, rel=1e-5)

    def test_matches_1d_integral(self):
        a = LinearAperture(0.01, 0.5)
        val = adaptive_integrate_1d(
            lambda z: np.abs(kernel_Q(WL, USER1, 0.0, z)) ** 2,
            -a.length_z / 2,
            a.length_z / 2,
        )
        assert gain_linear(a, USER1) == pytest.approx(a.length_x * val.real, rel=1e-6)

    def test_warns_when_not_thin(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            gain_linear(LinearAperture(0.2, 0.5), USER1)
        assert any("length_x" in r.message for r in caplog.records)


class TestSpdaGain:
    def test_single_element(self):
        p = UserPlacement(10.0, math.pi / 2, math.pi / 2, A_U)
        a = DiscreteAperture(1, 1, 0.05, A_U)
        assert gain_spda(a, p, WL) == pytest.approx(
            A_U / (4 * math.pi * 100.0), rel=1e-14
        )

    def test_full_occupation_approaches_planar(self):
        m = 201
        d = 0.5 / m
        a = DiscreteAperture(m, m, d, d * d)
        gp = gain_planar(APERTURE, USER1)
        assert abs(gain_spda(a, USER1, WL) - gp) / gp < 0.02

    def test_linear_in_element_area(self):
        a1 = DiscreteAperture(5, 5, 0.05, 0.002)
        a2 = DiscreteAperture(5, 5, 0.05, 0.001)
        assert gain_spda(a1, USER1, WL) == pytest.approx(
            2 * gain_spda(a2, USER1, WL), rel=1e-14
        )


class TestPlanarCorrelation:
    def test_identical_users_exactly_one(self):
        rho = correlation_planar(APERTURE, USER1, USER1, WL, 20)
        assert abs(rho) == pytest.approx(1.0, abs=1e-14)

    def test_conjugate_symmetry(self):
        r12 = correlation_planar(APERTURE, USER1, USER2, WL, 20)
        r21 = correlation_planar(APERTURE, USER2, USER1, WL, 20)
        assert r12 == pytest.approx(np.conj(r21), abs=1e-14)

    def test_order_stability_default_scene(self):
        r20 = abs(correlation_planar(APERTURE, USER1, USER2, WL, 20)) ** 2
        r40 = abs(correlation_planar(APERTURE, USER1, USER2, WL, 40)) ** 2
        assert abs(r20 - r40) < 1e-3

    def test_magnitude_never_exceeds_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p1, p2 = random_placement(rng), random_placement(rng)
            rho = correlation_planar(APERTURE, p1, p2, WL, 20)
            assert abs(rho) <= 1.0 + 1e-12

    def test_agrees_with_oracle(self):
        rho = correlation_planar(APERTURE, USER1, USER2, WL, 40)
        _, oracle = planar_oracle(APERTURE, (USER1, USER2), WL)
        assert abs(abs(rho) - min(abs(oracle), 1.0)) < 5e-4


    @pytest.mark.parametrize("order", [20, 1000])
    def test_matches_kernel_tensor_sum(self, order):
        # the rule written out with kernel_Q and the full n^2 weight matrix
        a = PlanarAperture(20.0, 20.0)
        rule = chebyshev_nodes(order)
        x = (a.length_x / 2 * rule.nodes)[:, None]
        z = (a.length_z / 2 * rule.nodes)[None, :]
        w = rule.sqrt_weights[:, None] * rule.sqrt_weights[None, :]
        q1, q2 = kernel_Q(WL, USER1, x, z), kernel_Q(WL, USER2, x, z)
        expected = np.sum(w * np.conj(q1) * q2) / math.sqrt(
            np.sum(w * np.abs(q1) ** 2) * np.sum(w * np.abs(q2) ** 2)
        )
        got = correlation_planar(a, USER1, USER2, WL, order)
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestOracleLargeAperture:
    # default scene at the 6th point of the 0.25-1e4 m^2 geometric sweep;
    # reference from composite Gauss-Legendre panels certified by doubling
    AREA = 188.03015465431966
    RHO_REF = complex(3.192213815378611e-4, 2.0927816181284326e-2)

    def test_correlation_matches_reference(self):
        side = math.sqrt(self.AREA)
        _, rho = planar_oracle(PlanarAperture(side, side), (USER1, USER2), WL)
        assert abs(rho - self.RHO_REF) <= 1e-9 * abs(self.RHO_REF)

    def test_gain_at_ten_thousand_square_meters(self):
        a = PlanarAperture(100.0, 100.0)
        gains, _ = planar_oracle(a, (USER1, USER2), WL)
        assert gains == pytest.approx((gain_planar(a, USER1), gain_planar(a, USER2)), rel=1e-6)


def spda_rho(a, p1, p2, wl):
    return pair_from_vectors(element_channel(a, p1, wl), element_channel(a, p2, wl)).rho


class TestSpdaCorrelation:
    def test_pair_matches_element_sum(self):
        # the uncoupled discrete-array statistics against the element sums
        # g_k = A_s sum |Q_k|^2 and rho = A_s sum Q_1* Q_2 / sqrt(g1 g2)
        d = WL.lam / 3
        a = DiscreteAperture(7, 5, d, 0.4 * d * d)
        pts = element_centers(a)
        q1 = kernel_Q(WL, USER1, pts[:, 0], pts[:, 2])
        q2 = kernel_Q(WL, USER2, pts[:, 0], pts[:, 2])
        g1 = a.element_area * np.sum(np.abs(q1) ** 2)
        g2 = a.element_area * np.sum(np.abs(q2) ** 2)
        rho = a.element_area * np.sum(np.conj(q1) * q2) / math.sqrt(g1 * g2)
        scene = replace(scene_defaults(), users=(USER1, USER2), aperture=a)
        pair = channel_pair(scene)
        assert pair.g1 == pytest.approx(g1, rel=1e-14, abs=0.0)
        assert pair.g2 == pytest.approx(g2, rel=1e-14, abs=0.0)
        assert abs(pair.rho - rho) <= 1e-14 * abs(rho)
        assert gain_spda(a, USER2, WL) == pytest.approx(g2, rel=1e-14, abs=0.0)

    def test_identical_users(self):
        a = DiscreteAperture(5, 5, 0.06, 0.002)
        assert abs(spda_rho(a, USER1, USER1, WL)) == pytest.approx(1.0, abs=1e-14)

    def test_single_element_rank_one(self):
        a = DiscreteAperture(1, 1, 0.05, A_U)
        assert abs(spda_rho(a, USER1, USER2, WL)) == pytest.approx(1.0, abs=1e-14)

    def test_full_occupation_matches_planar(self):
        m = 41
        d = 0.5 / m
        a = DiscreteAperture(m, m, d, d * d)
        rho_s = spda_rho(a, USER1, USER2, WL)
        rho_p = correlation_planar(APERTURE, USER1, USER2, WL, 40)
        assert abs(abs(rho_s) - abs(rho_p)) < 5e-3


class TestSnrMaps:
    def test_downlink_map_linear_in_power(self):
        c = downlink_snr_coefficient(A_U, 1.0, WL.k0, WL.eta)
        assert c * 0.0 == 0.0
        p1, p2 = 0.7, 1.8
        assert c * (p1 + p2) == pytest.approx(c * p1 + c * p2)

    def test_db_overflow_names_the_value(self):
        assert db_to_linear(3080.0) == pytest.approx(1e308)
        with pytest.raises(ValueError, match="3090"):
            db_to_linear(3090.0)


class TestClampContract:
    def test_in_range_untouched(self):
        from capalink.channel import clamp_correlation

        rho = 0.3 - 0.4j
        assert clamp_correlation(rho, "test") == rho

    def test_small_overshoot_clamped_with_warning(self, caplog):
        import logging

        from capalink.channel import clamp_correlation

        with caplog.at_level(logging.WARNING):
            out = clamp_correlation((1.0 + 5e-7) * np.exp(0.4j), "test")
        assert abs(out) == pytest.approx(1.0, abs=1e-15)
        assert cmath.phase(out) == pytest.approx(0.4)
        assert any("clamping" in r.message for r in caplog.records)

    def test_gross_overshoot_rejected(self):
        from capalink.channel import CorrelationOverflowError, clamp_correlation

        with pytest.raises(CorrelationOverflowError):
            clamp_correlation(1.5 + 0j, "test")


class TestChannelPair:
    def test_rho_bar_range(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.6 + 0.3j)
        assert 0.0 <= ch.rho_bar <= 1.0
        assert ch.rho_bar == pytest.approx(1 - abs(0.6 + 0.3j) ** 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ChannelPair(g1=-0.1, g2=0.2, rho=0.0)
        with pytest.raises(ValueError):
            ChannelPair(g1=0.1, g2=0.2, rho=1.5)
