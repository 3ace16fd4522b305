import logging
import math

import numpy as np
import pytest

from capalink import coupling
from capalink.channel import element_channel, pair_from_vectors
from capalink.coupling import (
    CouplingModel,
    coupled_pair,
    coupling_matrix,
    mutual_impedance,
)
from capalink.geometry import DiscreteAperture, UserPlacement, Wavelength, element_centers
from capalink.uplink import SicOrder, sic_rates, sum_capacity_ul

WL = Wavelength(0.125)
A_U = WL.isotropic_rx_area
USER1 = UserPlacement(10.0, math.pi / 6, math.pi / 3, A_U)
USER2 = UserPlacement(20.0, math.pi / 6, math.pi / 3, A_U)
MODEL = CouplingModel()


class TestCouplingMatrix:
    def test_single_element_scalar(self):
        a = DiscreteAperture(1, 1, 0.05, A_U)
        c = coupling_matrix(a, WL, MODEL)
        assert c.shape == (1, 1)
        # zero mutual impedance leaves (za + zt)/zt
        assert c[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_decoupled_limit_far_elements(self):
        a = DiscreteAperture(3, 3, 1e6, A_U)
        c = coupling_matrix(a, WL, MODEL)
        np.testing.assert_allclose(c, 2.0 * np.eye(9), atol=1e-9)

    def test_symmetry(self):
        a = DiscreteAperture(5, 3, WL.lam / 3, A_U)
        z = mutual_impedance(a, WL, MODEL)
        np.testing.assert_allclose(z, z.T, atol=1e-15)
        c = coupling_matrix(a, WL, MODEL)
        np.testing.assert_allclose(c, c.T, atol=1e-8)

    def test_zero_diagonal_impedance(self):
        a = DiscreteAperture(3, 3, WL.lam / 3, A_U)
        z = mutual_impedance(a, WL, MODEL)
        assert np.all(np.diag(z) == 0.0)

    @pytest.mark.parametrize("mx, mz", [(5, 3), (3, 7)])
    def test_lattice_impedance_matches_pairwise_distances(self, mx, mz):
        # a transposed offset grid or the wrong element order (m_x fastest)
        # shows up only on non-square arrays
        a = DiscreteAperture(mx, mz, WL.lam / 3, A_U)
        pts = element_centers(a)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(dist, 1.0)
        ref = MODEL.impedance_scale * np.exp(-1j * WL.k0 * dist) / dist**2
        np.fill_diagonal(ref, 0.0)
        z = mutual_impedance(a, WL, MODEL)
        np.testing.assert_allclose(z, ref, rtol=0, atol=1e-15 * np.abs(ref).max())


class TestCoupledSolve:
    def test_matches_dense_inverse(self):
        a = DiscreteAperture(25, 25, WL.lam / 3, A_U)
        model = CouplingModel(z_antenna=40.0, z_termination=60.0, impedance_scale=0.12)
        system = mutual_impedance(a, WL, model) + model.z_termination * np.eye(a.count)
        c = (model.z_antenna + model.z_termination) * np.linalg.inv(system)
        ref = pair_from_vectors(
            c @ element_channel(a, USER1, WL), c @ element_channel(a, USER2, WL)
        )
        got = coupled_pair(a, USER1, USER2, WL, model)
        assert got.g1 == pytest.approx(ref.g1, rel=1e-12, abs=0.0)
        assert got.g2 == pytest.approx(ref.g2, rel=1e-12, abs=0.0)
        assert abs(got.rho - ref.rho) <= 1e-12 * abs(ref.rho)

    def test_ill_conditioned_system_is_reported(self, monkeypatch, caplog):
        # Z + z_t I = Q diag(s) Q^T with singular values from 1 down to 1e-10
        a = DiscreteAperture(5, 5, WL.lam / 3, A_U)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((a.count, a.count)))
        system = (q * np.geomspace(1.0, 1e-10, a.count)) @ q.T
        assert np.linalg.cond(system) == pytest.approx(1e10, rel=1e-3)
        monkeypatch.setattr(
            coupling, "mutual_impedance",
            lambda *args: system - MODEL.z_termination * np.eye(a.count),
        )
        with caplog.at_level(logging.WARNING, logger="capalink.coupling"):
            coupled_pair(a, USER1, USER2, WL, MODEL)
        assert "ill conditioned" in caplog.text

    def test_well_conditioned_system_is_quiet(self, caplog):
        a = DiscreteAperture(15, 15, WL.lam / 3, A_U)
        with caplog.at_level(logging.WARNING, logger="capalink.coupling"):
            coupled_pair(a, USER1, USER2, WL, MODEL)
        assert caplog.text == ""

    def test_singular_system_raises(self, monkeypatch):
        a = DiscreteAperture(3, 3, WL.lam / 3, A_U)
        # rank one: Z + z_t I is the all-ones matrix
        monkeypatch.setattr(
            coupling, "mutual_impedance",
            lambda *args: np.ones((a.count, a.count)) - MODEL.z_termination * np.eye(a.count),
        )
        with pytest.raises(np.linalg.LinAlgError):
            coupled_pair(a, USER1, USER2, WL, MODEL)

    def test_overflowing_solution_raises(self):
        # a subnormal termination on a single element overflows 1 / (Z + z_t)
        a = DiscreteAperture(1, 1, 0.05, A_U)
        with pytest.raises(np.linalg.LinAlgError):
            coupled_pair(a, USER1, USER2, WL, CouplingModel(z_termination=1e-320))


class TestCoupledChannel:
    def test_scalar_scaling(self):
        a = DiscreteAperture(5, 5, WL.lam / 3, A_U)
        base = pair_from_vectors(
            element_channel(a, USER1, WL), element_channel(a, USER2, WL)
        )
        scaled = pair_from_vectors(
            2.0 * np.eye(a.count) @ element_channel(a, USER1, WL),
            2.0 * np.eye(a.count) @ element_channel(a, USER2, WL),
        )
        assert scaled.g1 == pytest.approx(4 * base.g1, rel=1e-12)
        assert scaled.g2 == pytest.approx(4 * base.g2, rel=1e-12)
        assert abs(scaled.rho) == pytest.approx(abs(base.rho), abs=1e-12)

    def test_correlation_bounded(self):
        a = DiscreteAperture(7, 7, WL.lam / 3, A_U)
        pair = coupled_pair(a, USER1, USER2, WL, MODEL)
        assert abs(pair.rho) <= 1.0 + 1e-12


class TestCoupledCapacity:
    def test_order_invariance_survives_coupling(self):
        a = DiscreteAperture(7, 7, WL.lam / 3, A_U)
        ch = coupled_pair(a, USER1, USER2, WL, MODEL)
        csum = sum_capacity_ul(1e3, 1e4, ch)
        for order in SicOrder:
            assert sic_rates(1e3, 1e4, ch, order).total == pytest.approx(csum, abs=1e-12)

    def test_coupling_degrades_default_geometry(self):
        # reference mutual-coupling setup: 1 m^2 span, lambda/3 spacing
        m = 25
        a = DiscreteAperture(m, m, WL.lam / 3, A_U)
        plain = pair_from_vectors(
            element_channel(a, USER1, WL), element_channel(a, USER2, WL)
        )
        coupled = coupled_pair(a, USER1, USER2, WL, MODEL)
        assert coupled.g1 < plain.g1
        assert coupled.g2 < plain.g2
        assert sum_capacity_ul(1e3, 1e4, coupled) < sum_capacity_ul(1e3, 1e4, plain)
