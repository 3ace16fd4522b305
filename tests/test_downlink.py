import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from capalink import channel, scenario
from capalink.channel import ChannelPair
from capalink.downlink import (
    DualLink,
    currents_from_dual,
    dpc_rates,
    dual_from_currents,
    dual_power_allocation,
    kkt_threshold,
    rates_from_currents,
    region_dl,
    sum_capacity_dl,
    zf_precoding_dl,
)
from capalink.geometry import PlanarAperture, UserPlacement, Wavelength
from capalink.uplink import SicOrder, region_ul, sic_rates, su_capacity, sum_capacity_ul
from references import (
    contains,
    dual_objective,
    is_convex,
    max_sum_rate,
    mrt_current,
    water_fill_two,
)

WL = Wavelength(0.125)
A_U = WL.isotropic_rx_area
USER1 = UserPlacement(10.0, math.pi / 6, math.pi / 3, A_U)
USER2 = UserPlacement(20.0, math.pi / 6, math.pi / 3, A_U)
APERTURE = PlanarAperture(0.5, 0.5)


def random_link(rng, power=None):
    g1, g2 = rng.uniform(1e-4, 0.499, size=2)
    mag = rng.uniform(0.0, 0.999)
    phase = rng.uniform(0.0, 2 * math.pi)
    c1, c2 = rng.uniform(1.0, 1e4, size=2)
    return DualLink(
        ch=ChannelPair(g1=g1, g2=g2, rho=mag * np.exp(1j * phase)),
        snr_per_power=(c1, c2),
        power=power if power is not None else rng.uniform(0.1, 100.0),
    )


def grid_hats(n=48, c1=None, c2=None):
    f1 = channel.grid_channel(APERTURE, USER1, WL, n, n)
    f2 = channel.grid_channel(APERTURE, USER2, WL, n, n)
    c1 = 3.0e4 if c1 is None else c1
    c2 = 3.0e4 if c2 is None else c2
    return math.sqrt(c1) * f1, math.sqrt(c2) * f2


def norm2(v):
    return np.vdot(v, v).real


class TestSingleUserDownlink:
    def test_zero_power(self):
        assert su_capacity(0.0, 0.3) == 0.0

    def test_mrt_current_power(self):
        h, _ = grid_hats(20)
        j = mrt_current(h, 3.7)
        assert norm2(j) == pytest.approx(3.7, abs=1e-10)


class TestDualPowerAllocation:
    def test_symmetric_users_split_evenly(self):
        link = DualLink(
            ch=ChannelPair(g1=0.2, g2=0.2, rho=0.5),
            snr_per_power=(100.0, 100.0),
            power=4.0,
        )
        split = dual_power_allocation(link)
        assert split.p1 == pytest.approx(2.0)
        assert split.p2 == pytest.approx(2.0)
        assert split.xi == pytest.approx(0.0)

    def test_worthless_second_channel(self):
        link = DualLink(
            ch=ChannelPair(g1=0.2, g2=1e-12, rho=0.5),
            snr_per_power=(100.0, 100.0),
            power=4.0,
        )
        split = dual_power_allocation(link)
        assert (split.p1, split.p2) == (4.0, 0.0)

    def test_budget_exhausted(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            link = random_link(rng)
            split = dual_power_allocation(link)
            assert split.p1 + split.p2 == pytest.approx(link.power, rel=1e-12)
            assert split.p1 >= 0.0 and split.p2 >= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            link = random_link(rng)
            split = dual_power_allocation(link)
            best = dual_objective(link, split.p1, split.p2)
            p1_grid = np.linspace(0.0, link.power, 10_001)
            for p1 in p1_grid:
                assert dual_objective(link, p1, link.power - p1) <= best + 1e-9

    def test_coincident_users_fall_back(self):
        # rho_bar = 0: the threshold is +inf and picks the stronger user's corner
        link = DualLink(
            ch=ChannelPair(g1=0.3, g2=0.1, rho=1.0),
            snr_per_power=(10.0, 10.0),
            power=2.0,
        )
        split = dual_power_allocation(link)
        assert split.branch == "all-to-1" and split.xi == math.inf
        assert (split.p1, split.p2) == (2.0, 0.0)

    def test_nearly_coincident_users_keep_the_interior_split(self):
        # rho_bar = 1e-13 at a 200 dB budget: superposing both streams gains
        # about 19 bits over the stronger user alone
        link = DualLink(
            ch=ChannelPair(g1=0.25, g2=0.25, rho=math.sqrt(1.0 - 1e-13)),
            snr_per_power=(1.0, 1.0),
            power=1e20,
        )
        best = sum_capacity_dl(link)
        for p1 in np.linspace(0.0, link.power, 10_001):
            assert dual_objective(link, p1, link.power - p1) <= best + 1e-9

    @pytest.mark.parametrize("g1,g2,branch", [
        (0.45, 1e-3, "all-to-1"),
        (1e-3, 0.45, "all-to-2"),
    ])
    def test_corner_branches_beat_brute_force(self, g1, g2, branch):
        # strongly lopsided channels push the threshold past the budget
        link = DualLink(
            ch=ChannelPair(g1=g1, g2=g2, rho=0.9),
            snr_per_power=(50.0, 50.0),
            power=1.0,
        )
        split = dual_power_allocation(link)
        assert split.branch == branch
        best = dual_objective(link, split.p1, split.p2)
        for p1 in np.linspace(0.0, link.power, 10_001):
            assert dual_objective(link, p1, link.power - p1) <= best + 1e-9

    def test_threshold_keeps_the_closed_form_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            link = random_link(rng)
            (c1, c2), ch = link.snr_per_power, link.ch
            expected = (c1 * ch.g1 - c2 * ch.g2) / (c1 * c2 * ch.g1 * ch.g2 * ch.rho_bar)
            assert kkt_threshold(link) == expected

    @pytest.mark.parametrize("g1,g2", [(1e-160, 3e-160), (3e-170, 1e-160), (1e-160, 1e-311)])
    def test_threshold_of_vanishing_gains(self, g1, g2):
        # c1 c2 g1 g2 rho_bar falls below the normal floats or underflows to 0
        link = DualLink(
            ch=ChannelPair(g1=g1, g2=g2, rho=0.6), snr_per_power=(50.0, 80.0), power=1.0
        )
        e1, e2 = (Fraction(c) * Fraction(g) for c, g in zip(link.snr_per_power, (g1, g2)))
        exact = (e1 - e2) / (e1 * e2 * Fraction(link.ch.rho_bar))
        xi = kkt_threshold(link)
        if abs(exact) > sys.float_info.max:
            assert xi == (math.inf if exact > 0 else -math.inf)
        else:
            assert abs(xi - float(exact)) <= 1e-15 * abs(float(exact))
        assert dual_power_allocation(link).branch == ("all-to-1" if exact > 0 else "all-to-2")

    def test_interior_split_continuous_at_corners(self):
        # as the threshold approaches the budget, the interior split meets
        # the corner allocation without a jump
        def link_for(g2):
            return DualLink(
                ch=ChannelPair(g1=0.3, g2=g2, rho=0.8),
                snr_per_power=(100.0, 100.0),
                power=5.0,
            )

        g2 = 0.3
        prev = dual_power_allocation(link_for(g2))
        while prev.branch == "interior":
            g2 *= 0.9
            cur = dual_power_allocation(link_for(g2))
            if cur.branch != "interior":
                assert prev.p1 == pytest.approx(link_for(g2).power, rel=0.2)
                break
            prev = cur
        else:
            pytest.fail("never left the interior branch")


class TestCurrentsFromDual:
    def test_no_power_to_second_user_reduces_to_mrt(self):
        h1, h2 = grid_hats()
        j1, j2 = currents_from_dual(2.0, 0.0, h1, h2)
        assert norm2(j2) == pytest.approx(0.0, abs=1e-30)
        mrt = mrt_current(h1, 2.0)
        # equal up to a global phase: compare rank-one alignment and power
        assert norm2(j1) == pytest.approx(2.0, rel=1e-12)
        overlap = abs(np.sum(h1 * j1)) ** 2 / (
            norm2(h1) * norm2(j1)
        )
        mrt_overlap = abs(np.sum(h1 * mrt)) ** 2 / (
            norm2(h1) * norm2(mrt)
        )
        assert overlap == pytest.approx(mrt_overlap, rel=1e-12)

    def test_power_conservation(self):
        rng = np.random.default_rng(5)
        h1, h2 = grid_hats()
        for _ in range(25):
            p1, p2 = rng.uniform(0.01, 10.0, size=2)
            j1, j2 = currents_from_dual(p1, p2, h1, h2)
            assert norm2(j1) + norm2(j2) == pytest.approx(p1 + p2, rel=1e-6)

    def test_rates_match_closed_forms(self):
        h1, h2 = grid_hats()
        # closed forms evaluated with the same grid statistics
        g1 = norm2(h1)
        g2 = norm2(h2)
        rho = np.vdot(h1, h2) / math.sqrt(g1 * g2)
        link = DualLink(ch=ChannelPair(g1=g1, g2=g2, rho=rho), snr_per_power=(1.0, 1.0), power=5.0)
        for p1, p2 in ((1.0, 4.0), (3.3, 1.7), (5.0, 0.0)):
            j1, j2 = currents_from_dual(p1, p2, h1, h2)
            got = rates_from_currents(j1, j2, h1, h2)
            want = dpc_rates(link, p1, p2, SicOrder.USER2_FIRST)
            assert got.r1 == pytest.approx(want.r1, rel=1e-6, abs=1e-12)
            assert got.r2 == pytest.approx(want.r2, rel=1e-6, abs=1e-12)


class TestDpcRates:
    def test_single_user_reduction(self):
        link = DualLink(
            ch=ChannelPair(g1=0.2, g2=0.3, rho=0.5),
            snr_per_power=(10.0, 20.0),
            power=4.0,
        )
        rates = dpc_rates(link, 4.0, 0.0, SicOrder.USER2_FIRST)
        assert rates.r1 == pytest.approx(math.log2(1 + 10 * 4 * 0.2))
        assert rates.r2 == 0.0

    def test_orthogonal_channels(self):
        link = DualLink(
            ch=ChannelPair(g1=0.2, g2=0.3, rho=0.0),
            snr_per_power=(10.0, 20.0),
            power=4.0,
        )
        rates = dpc_rates(link, 1.0, 3.0, SicOrder.USER2_FIRST)
        assert rates.r1 == pytest.approx(math.log2(1 + 10 * 1 * 0.2))
        assert rates.r2 == pytest.approx(math.log2(1 + 20 * 3 * 0.3))

    def test_sum_equals_dual_uplink_capacity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            link = random_link(rng)
            p1 = rng.uniform(0.0, link.power)
            p2 = link.power - p1
            want = sum_capacity_ul(link.snr_at(0, p1), link.snr_at(1, p2), link.ch)
            for order in SicOrder:
                assert dpc_rates(link, p1, p2, order).total == pytest.approx(
                    want, abs=1e-12
                )

    def test_matches_dual_sic_with_opposite_order(self):
        # duality: encoding 2->1 achieves the dual uplink's 1->2 SIC rates,
        # to the last bit
        rng = np.random.default_rng(5)
        opposite = {
            SicOrder.USER2_FIRST: SicOrder.USER1_FIRST,
            SicOrder.USER1_FIRST: SicOrder.USER2_FIRST,
        }
        for _ in range(1000):
            link = random_link(rng)
            p1 = rng.uniform(0.0, link.power)
            p2 = link.power - p1
            for order in SicOrder:
                dl = dpc_rates(link, p1, p2, order)
                ul = sic_rates(link.snr_at(0, p1), link.snr_at(1, p2), link.ch, opposite[order])
                assert (dl.r1, dl.r2) == (ul.r1, ul.r2)


class TestDualFromCurrents:
    def test_round_trip(self):
        h1, h2 = grid_hats()
        rng = np.random.default_rng(7)
        for _ in range(25):
            p1, p2 = rng.uniform(0.01, 10.0, size=2)
            j1, j2 = currents_from_dual(p1, p2, h1, h2)
            rec1, rec2 = dual_from_currents(j1, j2, h1, h2)
            assert rec1 == pytest.approx(p1, rel=1e-6)
            assert rec2 == pytest.approx(p2, rel=1e-6)

    def test_zero_second_current(self):
        h1, h2 = grid_hats()
        j1 = mrt_current(h1, 2.0)
        j2 = np.zeros(h1.size, dtype=complex)
        _, rec2 = dual_from_currents(j1, j2, h1, h2)
        assert rec2 == 0.0

    def test_recovered_power_bounded_by_current_power(self):
        h1, h2 = grid_hats(24)
        rng = np.random.default_rng(9)
        n = h1.size
        for _ in range(100):
            j1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            j2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rec1, rec2 = dual_from_currents(j1, j2, h1, h2)
            total = norm2(j1) + norm2(j2)
            assert rec1 + rec2 <= total * (1 + 1e-9)


class TestSumCapacityDl:
    def test_symmetric_middle_branch(self):
        link = DualLink(
            ch=ChannelPair(g1=0.2, g2=0.2, rho=0.5),
            snr_per_power=(100.0, 100.0),
            power=4.0,
        )
        eps = 100.0 * 2.0 * 0.2
        expected = math.log2(1 + 2 * eps + eps * eps * 0.75)
        assert sum_capacity_dl(link) == pytest.approx(expected)

    def test_corner_branch_is_single_user(self):
        link = DualLink(
            ch=ChannelPair(g1=0.4, g2=1e-9, rho=0.3),
            snr_per_power=(100.0, 100.0),
            power=2.0,
        )
        assert sum_capacity_dl(link) == pytest.approx(su_capacity(200.0, 0.4))

    def test_every_branch_random_links(self):
        # one expression on every branch: at a corner it is the single-user
        # capacity at the full budget, bit for bit
        rng = np.random.default_rng(23)
        hits = dict.fromkeys(["interior", "all-to-1", "all-to-2"], 0)
        for _ in range(4000):
            g1, g2 = 10.0 ** rng.uniform(-6.0, math.log10(0.499), size=2)
            mag = 1.0 if rng.uniform() < 0.2 else rng.uniform(0.0, 0.999)
            link = DualLink(
                ch=ChannelPair(g1=g1, g2=g2, rho=mag * np.exp(2j * math.pi * rng.uniform())),
                snr_per_power=tuple(10.0 ** rng.uniform(0.0, 5.0, size=2)),
                power=10.0 ** rng.uniform(-2.0, 2.0),
            )
            split = dual_power_allocation(link)
            hits[split.branch] += 1
            if split.branch == "all-to-1":
                assert sum_capacity_dl(link) == su_capacity(link.snr_at(0, link.power), g1)
            elif split.branch == "all-to-2":
                assert sum_capacity_dl(link) == su_capacity(link.snr_at(1, link.power), g2)
            else:
                assert sum_capacity_dl(link) == pytest.approx(
                    dual_objective(link, split.p1, split.p2), rel=1e-12
                )
        assert min(hits.values()) >= 100, hits

    def test_equals_dpc_sum_at_optimal_split(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            link = random_link(rng)
            split = dual_power_allocation(link)
            cdl = sum_capacity_dl(link)
            for order in SicOrder:
                assert dpc_rates(link, split.p1, split.p2, order).total == pytest.approx(
                    cdl, abs=1e-12
                )


class TestWaterFilling:
    def test_equal_channels_split_evenly(self):
        p1, p2 = water_fill_two(3.0, 3.0, 2.0)
        assert p1 == pytest.approx(1.0) and p2 == pytest.approx(1.0)

    def test_degenerate_channel_gets_nothing(self):
        p1, p2 = water_fill_two(3.0, 0.0, 2.0)
        assert (p1, p2) == (2.0, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c1, c2 = rng.uniform(1e-3, 1e3, size=2)
            power = rng.uniform(0.01, 50.0)
            p1, p2 = water_fill_two(c1, c2, power)
            best = math.log2(1 + c1 * p1) + math.log2(1 + c2 * p2)
            grid = np.linspace(0.0, power, 10_001)
            rates = np.log2(1 + c1 * grid) + np.log2(1 + c2 * (power - grid))
            assert best >= rates.max() - 1e-9

    def test_zf_rates_zero_at_full_correlation(self):
        link = DualLink(
            ch=ChannelPair(g1=0.2, g2=0.3, rho=1.0),
            snr_per_power=(10.0, 20.0),
            power=4.0,
        )
        rates = zf_precoding_dl(link)
        assert rates.r1 == 0.0 and rates.r2 == 0.0

    def test_zf_powers_are_the_water_filled_ones(self):
        # the dual split is the water-filling over c'_k = c_k g_k rho_bar,
        # on links with rho_bar = 0 and with rho_bar down to the last bit of 1
        rng = np.random.default_rng(29)
        for i in range(10_000):
            link = random_link(rng)
            if i % 10 == 0:
                rho = np.exp(2j * math.pi * rng.uniform())
            elif i % 10 == 1:
                rb = 10.0 ** rng.uniform(-30.0, -12.0)  # 0 below 2**-53
                rho = math.sqrt(1.0 - rb) * np.exp(2j * math.pi * rng.uniform())
            else:
                rho = link.ch.rho
            link = DualLink(
                ch=ChannelPair(g1=link.ch.g1, g2=link.ch.g2, rho=rho),
                snr_per_power=link.snr_per_power,
                power=link.power,
            )
            c1, c2 = (c * g * link.ch.rho_bar for c, g in
                      zip(link.snr_per_power, (link.ch.g1, link.ch.g2)))
            p1, p2 = water_fill_two(c1, c2, link.power)
            rates = zf_precoding_dl(link)
            assert abs(rates.r1 - math.log2(1.0 + c1 * p1)) <= 1e-14
            assert abs(rates.r2 - math.log2(1.0 + c2 * p2)) <= 1e-14

    def test_zf_dominated_by_capacity(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            link = random_link(rng)
            assert zf_precoding_dl(link).total <= sum_capacity_dl(link) + 1e-12


class TestRegionDl:
    def test_two_splits_contains_endpoints(self):
        rng = np.random.default_rng(2)
        link = random_link(rng, power=10.0)
        poly = region_dl(link, n_splits=2)
        c1 = su_capacity(link.snr_at(0, link.power), link.ch.g1)
        c2 = su_capacity(link.snr_at(1, link.power), link.ch.g2)
        assert contains(poly, (c1, 0.0), eps=1e-9)
        assert contains(poly, (0.0, c2), eps=1e-9)

    def test_hull_contains_every_pentagon_vertex(self):
        rng = np.random.default_rng(14)
        link = random_link(rng, power=5.0)
        poly = region_dl(link, n_splits=31)
        for i in range(31):
            p1 = link.power * i / 30
            pent = region_ul(link.snr_at(0, p1), link.snr_at(1, link.power - p1), link.ch)
            for v in pent:
                assert contains(poly, v, eps=1e-9)

    def test_hull_is_convex(self):
        rng = np.random.default_rng(15)
        link = random_link(rng, power=3.0)
        assert is_convex(region_dl(link, n_splits=51))

    def test_max_sum_rate_attains_capacity(self):
        rng = np.random.default_rng(16)
        link = random_link(rng, power=8.0)
        poly = region_dl(link, n_splits=1001)
        assert max_sum_rate(poly) == pytest.approx(sum_capacity_dl(link), rel=1e-6)

    @pytest.mark.parametrize(
        "power, n_splits",
        [(2.2439999999999998, 2001), (2.2439999999999998, 201), (0.651, 201)],
    )
    def test_last_split_stays_within_budget(self, power, n_splits):
        # power * (n - 1) / (n - 1) rounds above power for these budgets
        link = random_link(np.random.default_rng(17), power=power)
        poly = region_dl(link, n_splits=n_splits)
        c1 = su_capacity(link.snr_at(0, power), link.ch.g1)
        assert max(v[0] for v in poly) == c1


class TestSceneLevelDuality:
    def test_round_trip_on_default_scene(self):
        from capalink.verify import duality_round_trip

        res = duality_round_trip(scenario.scene_defaults(), seed=0)
        assert res["power_gap"] < 1e-6
        assert res["sum_power_gap"] < 1e-6
        assert res["rate_gap"] < 1e-6
