import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capalink import channel
from capalink.channel import ChannelPair
from capalink.geometry import PlanarAperture, UserPlacement, Wavelength
from capalink.uplink import (
    SNR_CAP,
    MuRoot,
    SicOrder,
    region_ul,
    sic_rates,
    sic_snrs,
    simulate_table1,
    su_capacity,
    sum_capacity_ul,
    whiten,
    whitening_mu,
    zf_sum_rate_ul,
)
from references import (
    apply_inverse,
    is_convex,
    mrc_detector,
    whitening_mu_residual,
    zf_detector,
)

WL = Wavelength(0.125)
A_U = WL.isotropic_rx_area
USER1 = UserPlacement(10.0, math.pi / 6, math.pi / 3, A_U)
USER2 = UserPlacement(20.0, math.pi / 6, math.pi / 3, A_U)
APERTURE = PlanarAperture(0.5, 0.5)


def random_pair(rng):
    g1, g2 = rng.uniform(1e-5, 0.499, size=2)
    mag = rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2 * math.pi)
    return ChannelPair(g1=g1, g2=g2, rho=mag * np.exp(1j * phase))


def grid_channels(n=120):
    return (
        channel.grid_channel(APERTURE, USER1, WL, n, n),
        channel.grid_channel(APERTURE, USER2, WL, n, n),
    )


def norm2(v):
    return np.vdot(v, v).real


class TestSingleUser:
    def test_zero_snr(self):
        assert su_capacity(0.0, 0.3) == 0.0

    def test_unit_received_snr(self):
        assert su_capacity(6.0, 1.0 / 6.0) == pytest.approx(1.0)

    def test_thirty_db_sixth_gain(self):
        assert su_capacity(1e3, 1.0 / 6.0) == pytest.approx(7.389, abs=5e-4)


class TestMrcDetector:
    def test_constant_field_normalized(self):
        # a constant field on an 8 x 8 grid of a 2 m x 2 m aperture
        h = np.full(64, math.sqrt(4.0 / 64) * (3.0 - 4.0j))
        v = mrc_detector(h)
        assert norm2(v) == pytest.approx(1.0, abs=1e-12)

    def test_snr_matches_closed_form_argument(self):
        g1, _ = grid_channels(200)
        v = mrc_detector(g1)
        snr_scale = abs(np.vdot(v, g1)) ** 2 / norm2(v)
        assert snr_scale == pytest.approx(channel.gain_planar(APERTURE, USER1), rel=1e-3)

    def test_optimality_against_perturbations(self):
        g1, _ = grid_channels(40)
        v = mrc_detector(g1)
        best = abs(np.vdot(v, g1)) ** 2 / norm2(v)
        rng = np.random.default_rng(4)
        cell = math.sqrt(APERTURE.area / g1.size)
        for _ in range(50):
            noise = rng.standard_normal(g1.size) + 1j * rng.standard_normal(g1.size)
            w = v + 0.1 * cell * noise
            other = abs(np.vdot(w, g1)) ** 2 / norm2(w)
            assert other <= best * (1 + 1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            mrc_detector(np.zeros(4, dtype=complex))


class TestWhitening:
    def test_zero_interference_is_identity(self):
        g1, _ = grid_channels(30)
        mu = whitening_mu(0.0, norm2(g1))
        assert mu == pytest.approx(0.0, abs=1e-15)
        f = (2.3 - 1.0j) * g1
        np.testing.assert_allclose(whiten(g1, mu, f), f, rtol=1e-12)

    def test_inverse_round_trip(self):
        g1, _ = grid_channels(30)
        mu = whitening_mu(1e3, norm2(g1))
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = rng.standard_normal(g1.size) + 1j * rng.standard_normal(g1.size)
            back = apply_inverse(g1, mu, whiten(g1, mu, f))
            np.testing.assert_allclose(back, f, atol=1e-10)

    def test_both_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            gamma = rng.uniform(0.0, 1e4)
            g = rng.uniform(1e-5, 0.499)
            for root in MuRoot:
                mu = whitening_mu(gamma, g, root)
                scale = max(1.0, gamma)
                assert abs(whitening_mu_residual(mu, gamma, g)) <= 1e-10 * scale

    def test_roots_share_deflation_factor(self):
        # (1 + mu g)^2 is root independent, which is why the decode SNR is too
        rng = np.random.default_rng(6)
        for _ in range(100):
            gamma = rng.uniform(1e-3, 1e4)
            g = rng.uniform(1e-5, 0.499)
            a = (1.0 + whitening_mu(gamma, g, MuRoot.VANISHING) * g) ** 2
            b = (1.0 + whitening_mu(gamma, g, MuRoot.ALTERNATE) * g) ** 2
            assert a == pytest.approx(b, rel=1e-10)
            assert a == pytest.approx(1.0 / (1.0 + gamma * g), rel=1e-12)

    def test_whitened_covariance_is_white(self):
        from capalink.scenario import scene_defaults
        from capalink.verify import whitening_covariance_check

        measured, tolerance = whitening_covariance_check(scene_defaults())
        assert measured <= tolerance

    def test_snr_identical_for_either_root(self):
        g1, g2 = grid_channels(60)
        _, a = simulate_table1(g1, g2, 1e3, 1e4, root=MuRoot.VANISHING)
        _, b = simulate_table1(g1, g2, 1e3, 1e4, root=MuRoot.ALTERNATE)
        assert abs(a - b) <= 1e-10 * a


class TestSicSnrs:
    def test_orthogonal_channels(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.0)
        assert sic_snrs(100.0, 50.0, ch, SicOrder.USER2_FIRST) == pytest.approx(
            (10.0, 10.0)
        )

    def test_aligned_interference_limit(self):
        ch = ChannelPair(g1=0.4, g2=0.3, rho=1.0)
        _, s2 = sic_snrs(1e12, 10.0, ch, SicOrder.USER2_FIRST)
        assert s2 == pytest.approx(10.0 * 0.3 / (1 + 1e12 * 0.4), rel=1e-6)

    def test_pipeline_reproduces_closed_form(self):
        g1f, g2f = grid_channels(200)
        gamma1, gamma2 = simulate_table1(g1f, g2f, 1e3, 1e4)
        g1 = channel.gain_planar(APERTURE, USER1)
        g2 = channel.gain_planar(APERTURE, USER2)
        _, rho = channel.planar_oracle(APERTURE, (USER1, USER2), WL)
        expected = 1e4 * g2 * (1 - 1e3 * g1 * abs(rho) ** 2 / (1 + 1e3 * g1))
        assert gamma2 == pytest.approx(expected, rel=1e-3)
        assert gamma1 == pytest.approx(1e3 * g1, rel=1e-3)


class TestSumCapacity:
    def test_single_user_reduction(self):
        ch = ChannelPair(g1=0.2, g2=0.3, rho=0.5)
        assert sum_capacity_ul(40.0, 0.0, ch) == pytest.approx(su_capacity(40.0, 0.2))

    def test_collocated_users(self):
        ch = ChannelPair(g1=0.2, g2=0.3, rho=1.0)
        assert sum_capacity_ul(10.0, 20.0, ch) == pytest.approx(
            math.log2(1 + 10 * 0.2 + 20 * 0.3)
        )

    def test_order_invariance_100_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            ch = random_pair(rng)
            s1, s2 = rng.uniform(0.0, 1e4, size=2)
            csum = sum_capacity_ul(s1, s2, ch)
            r21 = sic_rates(s1, s2, ch, SicOrder.USER2_FIRST)
            r12 = sic_rates(s1, s2, ch, SicOrder.USER1_FIRST)
            assert abs(r21.total - csum) <= 1e-12
            assert abs(r12.total - csum) <= 1e-12

    @given(
        s1=st.floats(0.0, 1e6),
        s2=st.floats(0.0, 1e6),
        g1=st.floats(1e-6, 0.499),
        g2=st.floats(1e-6, 0.499),
        mag=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_order_invariance_property(self, s1, s2, g1, g2, mag):
        ch = ChannelPair(g1=g1, g2=g2, rho=mag)
        r21 = sic_rates(s1, s2, ch, SicOrder.USER2_FIRST)
        r12 = sic_rates(s1, s2, ch, SicOrder.USER1_FIRST)
        assert abs(r21.total - r12.total) <= 1e-12 * max(1.0, r21.total)

    def test_monotonicity(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.4)
        base = sum_capacity_ul(100.0, 200.0, ch)
        assert sum_capacity_ul(150.0, 200.0, ch) > base
        assert sum_capacity_ul(100.0, 300.0, ch) > base
        up_g = ChannelPair(g1=0.15, g2=0.2, rho=0.4)
        assert sum_capacity_ul(100.0, 200.0, up_g) > base
        up_rho = ChannelPair(g1=0.1, g2=0.2, rho=0.6)
        assert sum_capacity_ul(100.0, 200.0, up_rho) < base


class TestZeroForcing:
    def test_orthogonal_equals_single_user_sum(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.0)
        expected = su_capacity(100.0, 0.1) + su_capacity(50.0, 0.2)
        assert zf_sum_rate_ul(100.0, 50.0, ch) == pytest.approx(expected)

    def test_fully_aligned_kills_both(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=1.0)
        assert zf_sum_rate_ul(100.0, 50.0, ch) == 0.0

    def test_dominated_by_capacity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            ch = random_pair(rng)
            s1, s2 = rng.uniform(0.0, 1e4, size=2)
            assert zf_sum_rate_ul(s1, s2, ch) <= sum_capacity_ul(s1, s2, ch) + 1e-12

    def test_discrete_detector_matches_closed_form(self):
        g1f, g2f = grid_channels(200)
        v1 = zf_detector(g1f, g2f)
        assert abs(np.vdot(v1, g2f)) < 1e-10
        snr_scale = abs(np.vdot(v1, g1f)) ** 2 / norm2(v1)
        g1 = channel.gain_planar(APERTURE, USER1)
        _, rho = channel.planar_oracle(APERTURE, (USER1, USER2), WL)
        assert snr_scale == pytest.approx(g1 * (1 - abs(rho) ** 2), rel=1e-3)


class TestRegion:
    def test_orthogonal_rectangle(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.0)
        poly = region_ul(10.0, 20.0, ch)
        c1 = su_capacity(10.0, 0.1)
        c2 = su_capacity(20.0, 0.2)
        assert len(poly) == 4
        assert (round(c1, 12), round(c2, 12)) in {
            (round(x, 12), round(y, 12)) for x, y in poly
        }

    def test_silent_second_user_segment(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.3)
        poly = region_ul(10.0, 0.0, ch)
        assert poly == ((0.0, 0.0), (su_capacity(10.0, 0.1), 0.0))

    def test_corners_match_sic_rates(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ch = random_pair(rng)
            s1, s2 = rng.uniform(0.1, 1e4, size=2)
            poly = region_ul(s1, s2, ch)
            r21 = sic_rates(s1, s2, ch, SicOrder.USER2_FIRST)
            r12 = sic_rates(s1, s2, ch, SicOrder.USER1_FIRST)
            verts = {(round(x, 9), round(y, 9)) for x, y in poly}
            assert (round(r21.r1, 9), round(r21.r2, 9)) in verts
            assert (round(r12.r1, 9), round(r12.r2, 9)) in verts

    def test_pentagon_structure_and_convexity(self):
        ch = ChannelPair(g1=0.1, g2=0.2, rho=0.7)
        poly = region_ul(100.0, 200.0, ch)
        assert len(poly) == 5
        assert is_convex(poly)
        c1 = su_capacity(100.0, 0.1)
        c2 = su_capacity(200.0, 0.2)
        csum = sum_capacity_ul(100.0, 200.0, ch)
        for x, y in poly:
            assert x <= c1 + 1e-12 and y <= c2 + 1e-12 and x + y <= csum + 1e-12


class TestTable1Simulation:
    def test_noise_free_is_capped(self):
        g1f, g2f = grid_channels(30)
        assert simulate_table1(g1f, g2f, 1e40, 1e40) == (SNR_CAP, SNR_CAP)
