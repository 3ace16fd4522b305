import math

import numpy as np
import pytest

from capalink import channel, numerics
from capalink.geometry import DiscreteAperture, PlanarAperture, UserPlacement, Wavelength
from capalink.numerics import NonConvergenceError, adaptive_integrate_2d, chebyshev_nodes
from references import (
    adaptive_integrate_1d,
    cg_integrate_1d,
    cg_integrate_2d,
    mrc_detector,
    sample_noise_batch,
)

WL = Wavelength(0.125)
USER1 = UserPlacement(10.0, math.pi / 6, math.pi / 3, WL.isotropic_rx_area)
USER2 = UserPlacement(20.0, math.pi / 6, math.pi / 3, WL.isotropic_rx_area)


class TestChebyshevNodes:
    def test_order_one(self):
        rule = chebyshev_nodes(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-16)

    def test_order_two(self):
        rule = chebyshev_nodes(2)
        np.testing.assert_allclose(rule.nodes, [math.cos(math.pi / 4), -math.cos(math.pi / 4)])

    def test_order_three_middle_node_zero(self):
        rule = chebyshev_nodes(3)
        assert rule.nodes[1] == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(rule.nodes[0], math.cos(math.pi / 6))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(0)

    def test_decreasing_and_symmetric(self):
        rule = chebyshev_nodes(17)
        assert np.all(np.diff(rule.nodes) < 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)


class TestChebyshevIntegration:
    def test_constant_1d(self):
        val = cg_integrate_1d(lambda x: np.ones_like(x), 1.0, chebyshev_nodes(20))
        assert val.real == pytest.approx(2.0, abs=1e-2)

    def test_odd_integrand_1d_exact_zero(self):
        for n in (3, 10, 33):
            val = cg_integrate_1d(lambda x: x, 2.5, chebyshev_nodes(n))
            assert abs(val) < 1e-14

    def test_quadratic_1d(self):
        val = cg_integrate_1d(lambda x: x**2, 1.0, chebyshev_nodes(100))
        assert val.real == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_constant_2d(self):
        val = cg_integrate_2d(lambda x, z: np.ones(np.broadcast_shapes(x.shape, z.shape)),
                              1.0, 1.0, chebyshev_nodes(50))
        assert val.real == pytest.approx(4.0, abs=1e-2)

    def test_odd_2d_exact_zero(self):
        val = cg_integrate_2d(lambda x, z: x * z, 1.0, 1.0, chebyshev_nodes(13))
        assert abs(val) < 1e-14

    def test_sum_of_squares_2d(self):
        val = cg_integrate_2d(lambda x, z: x**2 + z**2, 1.0, 1.0, chebyshev_nodes(100))
        assert val.real == pytest.approx(8.0 / 3.0, abs=1e-2)

    def test_linearity(self):
        rule = chebyshev_nodes(31)
        f = lambda x: np.exp(x) + 1j * x**3
        g = lambda x: np.cos(3 * x)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combined = cg_integrate_1d(lambda x: a * f(x) + b * g(x), 1.0, rule)
        separate = a * cg_integrate_1d(f, 1.0, rule) + b * cg_integrate_1d(g, 1.0, rule)
        assert abs(combined - separate) <= 1e-12 * max(1.0, abs(separate))

    def test_non_finite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
            cg_integrate_1d(lambda x: 1.0 / (x - x), 1.0, chebyshev_nodes(4))


class TestAdaptiveOracle:
    def test_unit_square(self):
        val = adaptive_integrate_2d(
            lambda x, z: np.ones_like(x) if np.ndim(x) else 1.0,
            ((0.0, 1.0), (0.0, 1.0)),
        )
        assert val.real == pytest.approx(1.0, rel=1e-10)

    def test_separable_exponential(self):
        val = adaptive_integrate_2d(
            lambda x, z: np.exp(-x - z), ((0.0, 1.0), (0.0, 1.0))
        )
        assert val.real == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-8)

    def test_complex_integrand_1d(self):
        val = adaptive_integrate_1d(lambda x: np.exp(1j * x), 0.0, math.pi)
        assert val == pytest.approx(complex(0.0, 2.0), abs=1e-10)

    def test_kernel_energy_matches_closed_form(self):
        a = PlanarAperture(0.5, 0.5)
        (got,), _ = channel.planar_oracle(a, (USER1,), WL)
        assert got == pytest.approx(channel.gain_planar(a, USER1), rel=1e-6)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            adaptive_integrate_1d(lambda x: x, 0.0, 1.0, rel_tol=2.0)

    def test_reports_non_convergence(self):
        # needle far too sharp for a 4-panel budget
        def needle(x):
            return 1.0 / (1e-14 + (x - 0.123456) ** 2)

        with pytest.raises(NonConvergenceError):
            adaptive_integrate_1d(needle, 0.0, 1.0, rel_tol=1e-12, max_panels=4)


    def test_reversed_bounds(self):
        # a reversed interval flips the sign but keeps the error control
        val = adaptive_integrate_1d(lambda x: np.exp(1j * x), math.pi, 0.0)
        assert val == pytest.approx(complex(0.0, -2.0), abs=1e-10)
        wave = adaptive_integrate_2d(
            lambda x, z: np.exp(1j * 40.0 * (x + z)), ((1.0, 0.0), (0.0, 1.0))
        )
        exact = -((np.exp(40j) - 1.0) / 40j) ** 2
        assert abs(wave - exact) <= 1e-8 * abs(exact)

    def test_reports_non_convergence_2d(self, monkeypatch):
        monkeypatch.setattr(numerics, "ORACLE_MAX_PANELS", 64)

        def wave(x, z):
            return np.exp(1j * 400.0 * (x + z))

        with pytest.raises(NonConvergenceError):
            adaptive_integrate_2d(wave, ((0.0, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize("components", [1, 3])
    def test_batches_stay_within_chunk_bound(self, monkeypatch, components):
        # a ten-panel bound per component, so that the oscillating integrand
        # needs many batches; the bound counts nodes times components
        bound = 10 * 15 * 15 * components
        monkeypatch.setattr(numerics, "ORACLE_CHUNK_NODES", bound)
        scales = np.array([1.0, 2.0, -1j])[:components, None, None, None]
        sizes = []

        def wave(x, z):
            w = np.exp(1j * 40.0 * (x + z))
            out = w if components == 1 else scales * w
            sizes.append(out.size)
            return out

        val = adaptive_integrate_2d(wave, ((0.0, 1.0), (0.0, 1.0)))
        exact = ((np.exp(40j) - 1.0) / 40j) ** 2
        expected = exact if components == 1 else scales.ravel() * exact
        assert np.all(np.abs(val - expected) <= 1e-8 * np.abs(expected))
        assert max(sizes) == bound
        assert len(sizes) > 10


# users of perfbench's fault (c) scene: different directions on a 1.18 m square
FAULT_C_USERS = (
    UserPlacement(11.3, math.radians(65.0), math.radians(33.0), WL.isotropic_rx_area),
    UserPlacement(9.8, math.radians(151.0), math.radians(71.0), WL.isotropic_rx_area),
)


class TestPlanarOracle:
    @pytest.mark.parametrize(
        "side,users",
        [
            (0.5, (USER1, USER2)),
            (1.18, FAULT_C_USERS),
            (math.sqrt(188.03015465431966), (USER1, USER2)),
        ],
        ids=["default", "fault-c", "188m2"],
    )
    def test_matches_three_scalar_integrations(self, side, users):
        bounds = ((-side / 2, side / 2), (-side / 2, side / 2))
        p1, p2 = users
        gains = [
            adaptive_integrate_2d(lambda x, z, u=u: np.abs(channel.kernel_Q(WL, u, x, z)) ** 2,
                                  bounds).real
            for u in users
        ]
        cross = adaptive_integrate_2d(
            lambda x, z: np.conj(channel.kernel_Q(WL, p1, x, z)) * channel.kernel_Q(WL, p2, x, z),
            bounds,
        )
        rho = cross / math.sqrt(gains[0] * gains[1])
        got_gains, got_rho = channel.planar_oracle(PlanarAperture(side, side), users, WL)
        assert got_gains == pytest.approx(gains, rel=1e-12, abs=0.0)
        assert abs(got_rho - rho) <= 1e-12 * abs(rho)

    @pytest.mark.parametrize("p2", [
        USER1,
        UserPlacement(10.001, math.pi / 6, math.pi / 3, WL.isotropic_rx_area),
        UserPlacement(10.0, math.pi / 6 + 1e-4, math.pi / 3, WL.isotropic_rx_area),
        USER2,
    ])
    def test_correlation_obeys_cauchy_schwarz(self, p2):
        # positive Kronrod weights on one shared tree keep |rho| <= 1 up to rounding
        _, rho = channel.planar_oracle(PlanarAperture(0.5, 0.5), (USER1, p2), WL)
        assert abs(rho) <= 1.0 + 1e-15


class TestCgConvergenceAgainstOracle:
    """Halving errors: doubling n must not grow the CG-vs-oracle gap by >10%."""

    @pytest.mark.parametrize("kind", ["energy", "cross"])
    def test_monotone_ish(self, kind):
        a = PlanarAperture(0.5, 0.5)
        hx, hz = a.length_x / 2, a.length_z / 2
        if kind == "energy":
            f = lambda x, z: np.abs(channel.kernel_Q(WL, USER1, x, z)) ** 2
        else:
            f = lambda x, z: np.conj(channel.kernel_Q(WL, USER1, x, z)) * channel.kernel_Q(
                WL, USER2, x, z
            )
        exact = adaptive_integrate_2d(f, ((-hx, hx), (-hz, hz)))
        errs = [
            abs(cg_integrate_2d(f, hx, hz, chebyshev_nodes(n)) - exact)
            for n in (10, 20, 40, 80)
        ]
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= 1.1 * prev


def cell_centers(a, n_x, n_z):
    "Cell centers of a uniform grid in element order (x varies fastest)."
    xs = (np.arange(n_x) + 0.5) / n_x * a.length_x - a.length_x / 2.0
    zs = (np.arange(n_z) + 0.5) / n_z * a.length_z - a.length_z / 2.0
    gz, gx = np.meshgrid(zs, xs, indexing="ij")
    return gx.ravel(), gz.ravel()


def uniform_weights(a, n_x, n_z):
    "Cell areas of a uniform n_x by n_z grid on the aperture."
    return np.full(n_x * n_z, a.area / (n_x * n_z))


class TestGrids:
    def test_single_cell(self):
        h = channel.grid_channel(PlanarAperture(1.0, 1.0), USER1, WL, 1, 1)
        np.testing.assert_allclose(h, [channel.kernel_Q(WL, USER1, 0.0, 0.0)], rtol=1e-15)

    def test_two_by_two(self):
        h = channel.grid_channel(PlanarAperture(1.0, 1.0), USER1, WL, 2, 2)
        x = np.array([-0.25, 0.25, -0.25, 0.25])
        z = np.array([-0.25, -0.25, 0.25, 0.25])
        np.testing.assert_allclose(h, 0.5 * channel.kernel_Q(WL, USER1, x, z), rtol=1e-13)

    def test_weights_partition_area(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            lx, lz = rng.uniform(0.1, 3.0, size=2)
            a = PlanarAperture(lx, lz)
            n_x, n_z = rng.integers(1, 40, size=2)
            h = channel.grid_channel(a, USER1, WL, n_x, n_z)
            q = channel.kernel_Q(WL, USER1, *cell_centers(a, n_x, n_z))
            assert np.sum(np.abs(h / q) ** 2) == pytest.approx(lx * lz, rel=1e-10)

    @pytest.mark.parametrize("n", [5, 41, 61])
    @pytest.mark.parametrize("side", [0.5, 3.0, 30.0])
    def test_equals_element_channel_of_the_filled_array(self, n, side):
        # one format: a grid is the fully occupied array of the same cells
        h = channel.grid_channel(PlanarAperture(side, side), USER1, WL, n, n)
        d = side / n
        e = channel.element_channel(DiscreteAperture(n, n, d, d * d), USER1, WL)
        assert np.max(np.abs(h - e)) <= 1e-12 * np.max(np.abs(e))


class TestInnerProduct:
    "Element-domain vdot equals the weighted sum sum_i w_i conj(u_i) v_i."

    def test_unit_constant(self):
        w = uniform_weights(PlanarAperture(1.0, 1.0), 4, 4)
        one = np.sqrt(w) * np.ones(w.size, dtype=complex)
        assert np.vdot(one, one) == pytest.approx(1.0)

    def test_orthogonal_pattern(self):
        w = np.array([0.5, 0.5])
        u = np.sqrt(w) * np.array([1.0 + 0j, 1.0 + 0j])
        v = np.sqrt(w) * np.array([1.0 + 0j, -1.0 + 0j])
        assert np.vdot(u, v) == pytest.approx(0.0, abs=1e-15)

    def test_kernel_energy_on_fine_grid(self):
        a = PlanarAperture(0.5, 0.5)
        h = channel.grid_channel(a, USER1, WL, 200, 200)
        assert np.vdot(h, h).real == pytest.approx(channel.gain_planar(a, USER1), rel=1e-4)

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(3)
        w = uniform_weights(PlanarAperture(0.3, 0.7), 5, 3)
        for _ in range(20):
            fu = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            fv = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            u, v = np.sqrt(w) * fu, np.sqrt(w) * fv
            lhs = np.vdot(u, v)
            assert abs(lhs - np.sum(w * np.conj(fu) * fv)) <= 1e-12 * max(1.0, abs(lhs))
            rhs = np.conj(np.vdot(v, u))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            uu = np.vdot(u, u)
            assert abs(uu.imag) < 1e-14 and uu.real >= 0.0


class TestNoiseField:
    SIGMA2 = 2.5

    def test_zero_mean(self):
        w = uniform_weights(PlanarAperture(1.0, 1.0), 3, 3)
        draws = sample_noise_batch(w, self.SIGMA2, seed=11, draws=100_000)
        # SE of the mean of each complex sample is sqrt(sigma2/w/N)
        se = np.sqrt(self.SIGMA2 / w / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 5 * se)

    def test_projected_variance(self):
        a = PlanarAperture(0.5, 0.5)
        w = uniform_weights(a, 4, 4)
        det = mrc_detector(channel.grid_channel(a, USER1, WL, 4, 4))
        draws = sample_noise_batch(w, self.SIGMA2, seed=5, draws=100_000)
        proj = draws @ (np.sqrt(w) * np.conj(det))
        var = np.mean(np.abs(proj) ** 2)
        assert var == pytest.approx(self.SIGMA2, rel=0.03)

    def test_distinct_seeds_uncorrelated(self):
        w = uniform_weights(PlanarAperture(1.0, 1.0), 1, 1)
        a = sample_noise_batch(w, 1.0, seed=1, draws=100_000)[:, 0]
        b = sample_noise_batch(w, 1.0, seed=2, draws=100_000)[:, 0]
        corr = np.mean(np.conj(a) * b) / math.sqrt(
            np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2)
        )
        assert abs(corr) < 0.02

    def test_single_draw_reproducible(self):
        w = uniform_weights(PlanarAperture(1.0, 1.0), 2, 2)
        f1 = sample_noise_batch(w, 1.0, seed=42, draws=1)
        f2 = sample_noise_batch(w, 1.0, seed=42, draws=1)
        np.testing.assert_array_equal(f1, f2)

    def test_covariance_matches_discrete_delta(self):
        w = uniform_weights(PlanarAperture(0.8, 1.2), 4, 4)
        draws = 100_000
        z = sample_noise_batch(w, self.SIGMA2, seed=9, draws=draws)
        emp = (z.conj().T @ z) / draws
        target = np.diag(self.SIGMA2 / w)
        diag = np.sqrt(np.diag(target))
        se = np.outer(diag, diag) / math.sqrt(draws)
        assert np.max(np.abs(emp - target) / se) < 5.0
