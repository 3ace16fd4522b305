"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
with the measured quantity (run pytest with -s to see them inline).

Criterion 9's monotone-gap clause is known to fail: for co-directional users
the absolute ZF-to-capacity gap first grows with aperture area (both schemes
start near zero rate, capacity grows faster until the users decorrelate
around 10 m^2) before collapsing toward zero.  The test states the criterion
literally and reports the measured hump.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from capalink import channel, scenario, uplink, downlink, verify
from capalink.channel import ChannelPair, element_channel, pair_from_vectors
from capalink.coupling import CouplingModel, coupled_pair
from capalink.downlink import (
    DualLink,
    currents_from_dual,
    dpc_rates,
    dual_from_currents,
    dual_power_allocation,
    rates_from_currents,
    zf_precoding_dl,
    sum_capacity_dl,
)
from capalink.geometry import (
    DiscreteAperture,
    PlanarAperture,
    UserPlacement,
    Wavelength,
)
from capalink.uplink import (
    SicOrder,
    sic_rates,
    sum_capacity_ul,
    zf_sum_rate_ul,
)
from references import (
    contains,
    dual_objective,
    projected_noise_variance_check,
    table1_closed_form_gap,
)

WL = Wavelength(0.125)
A_U = WL.isotropic_rx_area
DEFAULT = scenario.scene_defaults()


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def random_placement(rng, r_lo=5.0, r_hi=50.0):
    return UserPlacement(
        rng.uniform(r_lo, r_hi),
        rng.uniform(math.radians(20), math.radians(160)),
        rng.uniform(math.radians(20), math.radians(160)),
        A_U,
    )


def random_pair(rng):
    g1, g2 = rng.uniform(1e-5, 0.499, size=2)
    rho = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return ChannelPair(g1=g1, g2=g2, rho=rho)


def test_criterion_01_gain_oracle_randomized():
    "Closed-form gain vs adaptive oracle over 20 randomized scenes."
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        lx = rng.uniform(0.2, 2.0)
        lz = rng.uniform(0.2, min(2.0, 4.0 / lx))
        aperture = PlanarAperture(lx, lz)
        user = random_placement(rng)
        g = channel.gain_planar(aperture, user)
        (oracle,), _ = channel.planar_oracle(aperture, (user,), WL)
        worst = max(worst, abs(g - oracle) / oracle)
    elapsed = time.time() - t0
    report("criterion-01", worst <= 1e-6 and elapsed < 60,
           f"worst rel gap {worst:.3e} (tol 1e-6), {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 60


def test_criterion_02_arctan_identity():
    "Broadside user with both sides equal to 2r gives exactly 1/6."
    t0 = time.time()
    user = UserPlacement(10.0, math.pi / 2, math.pi / 2, A_U)
    aperture = PlanarAperture(20.0, 20.0)
    g = channel.gain_planar(aperture, user)
    (oracle,), _ = channel.planar_oracle(aperture, (user,), WL)
    elapsed = time.time() - t0
    ok = abs(g - 1.0 / 6.0) <= 1e-15 and abs(oracle - 1.0 / 6.0) <= 1e-6 / 6.0
    report("criterion-02", ok and elapsed < 5,
           f"closed {g:.16f}, oracle {oracle:.10f}, {elapsed:.2f}s")
    assert g == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert oracle == pytest.approx(1.0 / 6.0, rel=1e-6)
    assert elapsed < 5


def test_criterion_03_infinite_aperture_limit():
    "Million-meter aperture: half-power gains and vanishing interference."
    t0 = time.time()
    scene = replace(DEFAULT, aperture=PlanarAperture(1e6, 1e6))
    ch = scenario.channel_pair(replace(scene, quadrature_order=1000)).pair
    s1, s2 = scene.ul_snr_linear
    c_sum = sum_capacity_ul(s1, s2, ch)
    asymptote = math.log2(1 + s1 / 2) + math.log2(1 + s2 / 2)
    rel = abs(c_sum - asymptote) / asymptote
    elapsed = time.time() - t0
    ok = 0.499 <= ch.g1 <= 0.5 and 0.499 <= ch.g2 <= 0.5 and rel < 0.005
    report("criterion-03", ok and elapsed < 120,
           f"g=({ch.g1:.6f},{ch.g2:.6f}), C={c_sum:.4f} vs {asymptote:.4f} "
           f"(rel {rel:.2e}), {elapsed:.1f}s")
    assert 0.499 <= ch.g1 <= 0.5 and 0.499 <= ch.g2 <= 0.5
    assert rel < 0.005
    assert elapsed < 120


def test_criterion_04_sic_order_invariance():
    "Both SIC orders give the same rate sum over 1000 random draws."
    rng = np.random.default_rng(4)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        ch = random_pair(rng)
        s1, s2 = rng.uniform(0.0, 1e4, size=2)
        a = sic_rates(s1, s2, ch, SicOrder.USER2_FIRST).total
        b = sic_rates(s1, s2, ch, SicOrder.USER1_FIRST).total
        worst = max(worst, abs(a - b))
    elapsed = time.time() - t0
    report("criterion-04", worst <= 1e-12 and elapsed < 1,
           f"worst |sum diff| {worst:.3e} (tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1


def test_criterion_05_whitening_pipeline():
    "Discretized SIC pipeline reproduces the closed-form SNR; roots agree."
    t0 = time.time()
    gaps = table1_closed_form_gap(DEFAULT, resolution=(200, 200))
    root_gap = verify.whitening_root_invariance(DEFAULT, resolution=(200, 200))
    elapsed = time.time() - t0
    ok = gaps["gamma2_gap"] <= 1e-3 and root_gap <= 1e-10
    report("criterion-05", ok and elapsed < 60,
           f"pipeline gap {gaps['gamma2_gap']:.3e} (tol 1e-3), "
           f"root gap {root_gap:.3e} (tol 1e-10), {elapsed:.1f}s")
    assert gaps["gamma2_gap"] <= 1e-3
    assert root_gap <= 1e-10
    assert elapsed < 60


def test_criterion_06_noise_statistics():
    "Projected-noise variance matches the intensity within 3% over 1e5 draws."
    t0 = time.time()
    rel = projected_noise_variance_check(DEFAULT, seed=123, draws=100_000)
    elapsed = time.time() - t0
    report("criterion-06", rel <= 0.03 and elapsed < 30,
           f"variance rel err {rel:.4f} (tol 0.03), {elapsed:.1f}s")
    assert rel <= 0.03
    assert elapsed < 30


def test_criterion_07_duality_round_trip():
    "Forward/backward duality transforms over 50 random scenes."
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst_power = worst_sum = worst_rate = 0.0
    for _ in range(50):
        side_x, side_z = rng.uniform(0.3, 1.5, size=2)
        ap = PlanarAperture(side_x, side_z)
        u1, u2 = random_placement(rng), random_placement(rng)
        c1, c2 = rng.uniform(1e2, 1e5, size=2)
        h1 = math.sqrt(c1) * channel.grid_channel(ap, u1, WL, 40, 40)
        h2 = math.sqrt(c2) * channel.grid_channel(ap, u2, WL, 40, 40)
        p1, p2 = rng.uniform(0.05, 20.0, size=2)

        j1, j2 = currents_from_dual(p1, p2, h1, h2)
        total = np.vdot(j1, j1).real + np.vdot(j2, j2).real
        worst_sum = max(worst_sum, abs(total - (p1 + p2)) / (p1 + p2))
        rec1, rec2 = dual_from_currents(j1, j2, h1, h2)
        worst_power = max(worst_power, abs(rec1 - p1) / p1, abs(rec2 - p2) / p2)

        n1, n2 = np.vdot(h1, h1).real, np.vdot(h2, h2).real
        g1, g2 = n1 / c1, n2 / c2
        rho = np.vdot(h1, h2) / math.sqrt(n1 * n2)
        link = DualLink(
            ch=ChannelPair(g1=g1, g2=g2, rho=rho / max(1.0, abs(rho))),
            snr_per_power=(c1, c2),
            power=p1 + p2,
        )
        got = rates_from_currents(j1, j2, h1, h2)
        want = dpc_rates(link, p1, p2, SicOrder.USER2_FIRST)
        worst_rate = max(
            worst_rate,
            abs(got.r1 - want.r1) / max(want.r1, 1e-12),
            abs(got.r2 - want.r2) / max(want.r2, 1e-12),
        )
    elapsed = time.time() - t0
    ok = max(worst_power, worst_sum, worst_rate) <= 1e-6
    report("criterion-07", ok and elapsed < 120,
           f"power {worst_power:.2e}, sum-power {worst_sum:.2e}, "
           f"rates {worst_rate:.2e} (tol 1e-6), {elapsed:.1f}s")
    assert worst_power <= 1e-6
    assert worst_sum <= 1e-6
    assert worst_rate <= 1e-6
    assert elapsed < 120


def test_criterion_08_dual_allocation_vs_brute_force():
    "KKT power split beats a 10^4-point line search to 1e-9 on the objective."
    rng = np.random.default_rng(8)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        link = DualLink(
            ch=random_pair(rng),
            snr_per_power=tuple(rng.uniform(1.0, 1e4, size=2)),
            power=rng.uniform(0.1, 100.0),
        )
        split = dual_power_allocation(link)
        best = dual_objective(link, split.p1, split.p2)
        grid = np.linspace(0.0, link.power, 10_001)
        e1 = link.snr_per_power[0] * link.ch.g1 * grid
        e2 = link.snr_per_power[1] * link.ch.g2 * (link.power - grid)
        values = np.log2(1.0 + e1 + e2 + e1 * e2 * link.ch.rho_bar)
        worst = max(worst, float(values.max()) - best)
    elapsed = time.time() - t0
    report("criterion-08", worst <= 1e-9 and elapsed < 30,
           f"worst brute-force excess {worst:.3e} (tol 1e-9), {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30


def _zf_gap_sweep():
    "Absolute capacity-to-ZF gaps over the 9-point area sweep, both links."
    areas = np.geomspace(0.25, 1e4, 9)
    ul_gaps, dl_gaps = [], []
    for area in areas:
        side = math.sqrt(area)
        step = replace(DEFAULT, aperture=PlanarAperture(side, side))
        ch = scenario.channel_pair(step).pair
        s1, s2 = step.ul_snr_linear
        ul_gaps.append(sum_capacity_ul(s1, s2, ch) - zf_sum_rate_ul(s1, s2, ch))
        link = scenario.dual_link(step, ch)
        dl_gaps.append(sum_capacity_dl(link) - zf_precoding_dl(link).total)
    return areas, ul_gaps, dl_gaps


def test_criterion_09a_zf_dominance():
    "R_zf <= C for 1000 random draws, uplink and downlink."
    rng = np.random.default_rng(9)
    t0 = time.time()
    ok = True
    for _ in range(1000):
        ch = random_pair(rng)
        s1, s2 = rng.uniform(0.0, 1e4, size=2)
        ok &= zf_sum_rate_ul(s1, s2, ch) <= sum_capacity_ul(s1, s2, ch) + 1e-12
        link = DualLink(
            ch=ch, snr_per_power=tuple(rng.uniform(1.0, 1e4, size=2)),
            power=rng.uniform(0.1, 50.0),
        )
        ok &= zf_precoding_dl(link).total <= sum_capacity_dl(link) + 1e-12
    elapsed = time.time() - t0
    report("criterion-09a", bool(ok), f"dominance held on 1000 ul+dl draws, {elapsed:.1f}s")
    assert ok


def test_criterion_09b_zf_gap_monotone():
    """ZF-capacity gap monotone decreasing over the 0.25 -> 1e4 m^2 sweep.

    Known-failing: with co-directional users both schemes collapse as the
    aperture shrinks, and capacity recovers faster than ZF until the users
    decorrelate, so the absolute gap peaks mid-sweep instead of decreasing
    from the first point.  See the measured sequence in the failure message.
    """
    areas, ul_gaps, dl_gaps = _zf_gap_sweep()
    ul_monotone = all(b <= a + 1e-12 for a, b in zip(ul_gaps, ul_gaps[1:]))
    dl_monotone = all(b <= a + 1e-12 for a, b in zip(dl_gaps, dl_gaps[1:]))
    seq = ", ".join(f"{a:.3g}:{g:.3g}" for a, g in zip(areas, ul_gaps))
    report("criterion-09b", ul_monotone and dl_monotone, f"area:gap = {seq}")
    assert ul_monotone and dl_monotone, (
        "gap is not monotone over the sweep; measured area:gap pairs "
        f"(uplink) {seq}; the gap physically peaks near 4 m^2 because "
        "co-directional users leave zero-forcing nothing to work with at "
        "small apertures while capacity keeps growing"
    )


def test_criterion_09c_zf_gap_vanishes_at_top():
    "ZF comes within 0.05 bits/s/Hz of capacity at 1e4 m^2."
    t0 = time.time()
    areas, ul_gaps, dl_gaps = _zf_gap_sweep()
    elapsed = time.time() - t0
    ok = ul_gaps[-1] < 0.05 and dl_gaps[-1] < 0.05
    report("criterion-09c", ok and elapsed < 120,
           f"top gaps ul {ul_gaps[-1]:.2e}, dl {dl_gaps[-1]:.2e} (tol 0.05), {elapsed:.1f}s")
    assert ul_gaps[-1] < 0.05
    assert dl_gaps[-1] < 0.05
    assert elapsed < 120


def test_criterion_10_spda_capa_consistency():
    "Full-occupation 41x41 array within 2% of the continuous aperture."
    t0 = time.time()
    s1, s2 = DEFAULT.ul_snr_linear
    ch_capa = scenario.channel_pair(replace(DEFAULT, quadrature_order=40)).pair
    c_capa = sum_capacity_ul(s1, s2, ch_capa)

    m = 41
    d = 0.5 / m
    occupations = np.arange(0.1, 1.01, 0.1)
    capacities = []
    for occ in occupations:
        aperture = DiscreteAperture(m, m, d, occ * d * d)
        ch = scenario.channel_pair(replace(DEFAULT, aperture=aperture)).pair
        capacities.append(sum_capacity_ul(s1, s2, ch))
    rel = abs(capacities[-1] - c_capa) / c_capa
    monotone = all(b >= a - 1e-12 for a, b in zip(capacities, capacities[1:]))
    elapsed = time.time() - t0
    report("criterion-10", rel <= 0.02 and monotone and elapsed < 60,
           f"full-occupation gap {rel:.2e} (tol 0.02), monotone {monotone}, {elapsed:.1f}s")
    assert rel <= 0.02
    assert monotone
    assert elapsed < 60


def test_criterion_11_quadrature_convergence():
    "Correlation magnitude stabilizes by rule order 20 on the default scene."
    t0 = time.time()
    r20 = abs(scenario.channel_pair(replace(DEFAULT, quadrature_order=20)).rho) ** 2
    r80 = abs(scenario.channel_pair(replace(DEFAULT, quadrature_order=80)).rho) ** 2
    elapsed = time.time() - t0
    report("criterion-11", abs(r20 - r80) < 1e-3 and elapsed < 10,
           f"|rho|^2 n=20 {r20:.8f} vs n=80 {r80:.8f}, gap {abs(r20 - r80):.2e} "
           f"(tol 1e-3), {elapsed:.1f}s")
    assert abs(r20 - r80) < 1e-3
    assert elapsed < 10


def _pentagon_stats(ch, s1, s2):
    c1 = math.log2(1 + s1 * ch.g1)
    c2 = math.log2(1 + s2 * ch.g2)
    return c1, c2, sum_capacity_ul(s1, s2, ch)


def test_criterion_12_coupled_region_containment():
    "Mutual coupling shrinks the rate region; denser elements recover some."
    t0 = time.time()
    s1, s2 = DEFAULT.ul_snr_linear
    model = CouplingModel(z_antenna=50.0, z_termination=50.0, impedance_scale=0.1)
    m = 25  # 1 m^2 span at lambda/3 spacing
    d = WL.lam / 3.0
    spda = DiscreteAperture(m, m, d, A_U)
    capa_proxy = DiscreteAperture(m, m, d, d * d)  # edge-to-edge elements

    plain = pair_from_vectors(
        element_channel(spda, DEFAULT.users[0], WL),
        element_channel(spda, DEFAULT.users[1], WL),
    ).pair
    coupled = coupled_pair(spda, DEFAULT.users, WL, model).pair
    coupled_proxy = coupled_pair(capa_proxy, DEFAULT.users, WL, model).pair

    plain_stats = _pentagon_stats(plain, s1, s2)
    coupled_stats = _pentagon_stats(coupled, s1, s2)
    proxy_stats = _pentagon_stats(coupled_proxy, s1, s2)

    inside = all(c <= p + 1e-12 for c, p in zip(coupled_stats, plain_stats))
    proxy_contains = all(c <= p + 1e-12 for c, p in zip(coupled_stats, proxy_stats))

    # vertex-wise check on the actual polygons
    plain_poly = uplink.region_ul(s1, s2, plain)
    coupled_poly = uplink.region_ul(s1, s2, coupled)
    proxy_poly = uplink.region_ul(s1, s2, coupled_proxy)
    inside_v = all(contains(plain_poly, v, eps=1e-9) for v in coupled_poly)
    proxy_v = all(contains(proxy_poly, v, eps=1e-9) for v in coupled_poly)
    elapsed = time.time() - t0

    ok = inside and proxy_contains and inside_v and proxy_v
    report("criterion-12", ok and elapsed < 60,
           f"coupled-in-uncoupled {inside and inside_v}, "
           f"proxy-contains-coupled {proxy_contains and proxy_v}, {elapsed:.1f}s")
    assert inside and inside_v
    assert proxy_contains and proxy_v
    assert elapsed < 60
