import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capalink
from capalink import coupling
from capalink.channel import element_channel, pair_from_vectors
from capalink.coupling import CouplingModel, coupled_pair, coupling_system
from capalink.geometry import DiscreteAperture, UserPlacement, Wavelength, element_centers
from capalink.uplink import SicOrder, sic_rates, sum_capacity_ul
from dense_coupling import (
    DenseSystem,
    coupling_matrix,
    dense_pair,
    mutual_impedance,
    strang_matrix,
    system_matrix,
)

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


class TestCouplingSystem:
    @pytest.mark.parametrize("mx, mz", [(5, 3), (3, 7), (1, 1), (9, 9)])
    def test_operator_matches_dense_matrix(self, mx, mz):
        a = DiscreteAperture(mx, mz, WL.lam / 3, A_U)
        model = CouplingModel(z_termination=60.0, impedance_scale=0.12)
        dense = system_matrix(a, WL, model)
        system = coupling_system(a, WL, model)
        x = np.random.default_rng(5).standard_normal((3, a.count, 2)) @ [1.0, 1j]
        np.testing.assert_allclose(
            system.matvec(x), x @ dense.T, rtol=0, atol=1e-13 * np.abs(x @ dense.T).max()
        )
        assert system.norm1 == pytest.approx(np.linalg.norm(dense, 1), rel=1e-13)

    @pytest.mark.parametrize("mx, mz", [(5, 3), (3, 7), (9, 9)])
    def test_preconditioner_inverts_the_strang_circulant(self, mx, mz):
        a = DiscreteAperture(mx, mz, WL.lam / 3, A_U)
        strang = strang_matrix(a, WL, MODEL)
        system = coupling_system(a, WL, MODEL)
        x = np.random.default_rng(6).standard_normal((3, a.count, 2)) @ [1.0, 1j]
        np.testing.assert_allclose(system.precondition(x @ strang.T), x, rtol=0, atol=1e-12)


BOX_CORNERS = [
    (m, spacing, zt, scale)
    for m in (15, 41)
    for spacing in (0.3, 0.5)
    for zt in (30.0, 80.0)
    for scale in (0.05, 0.15)
]


def _assert_matches_dense(a, model):
    ref = dense_pair(a, USER1, USER2, WL, model)
    got = coupled_pair(a, (USER1, USER2), WL, model).pair
    assert got.g1 == pytest.approx(ref.g1, rel=1e-12, abs=0.0)
    assert got.g2 == pytest.approx(ref.g2, rel=1e-12, abs=0.0)
    assert abs(got.rho - ref.rho) <= 1e-12 * abs(ref.rho)
    gap, ref_gap = 1.0 - abs(got.rho) ** 2, 1.0 - abs(ref.rho) ** 2
    assert gap == pytest.approx(ref_gap, rel=1e-11, abs=0.0)


class TestCoupledSolve:
    def test_matches_dense_inverse(self):
        a = DiscreteAperture(25, 25, WL.lam / 3, A_U)
        model = CouplingModel(z_antenna=40.0, z_termination=60.0, impedance_scale=0.12)
        c = coupling_matrix(a, WL, model)
        ref = pair_from_vectors(
            c @ element_channel(a, USER1, WL), c @ element_channel(a, USER2, WL)
        ).pair
        got = coupled_pair(a, (USER1, USER2), WL, model).pair
        assert got.g1 == pytest.approx(ref.g1, rel=1e-12, abs=0.0)
        assert got.g2 == pytest.approx(ref.g2, rel=1e-12, abs=0.0)
        assert abs(got.rho - ref.rho) <= 1e-12 * abs(ref.rho)

    def test_matches_dense_lu_at_41(self):
        a = DiscreteAperture(41, 41, WL.lam / 3, WL.lam**2 / 18)
        _assert_matches_dense(a, MODEL)

    @pytest.mark.parametrize("m, spacing, zt, scale", BOX_CORNERS)
    def test_matches_dense_lu_at_box_corners(self, m, spacing, zt, scale):
        # the benchmark's coupled arrays: 15^2-41^2, spacing 0.3-0.5 lambda,
        # z_t 30-80 ohm, impedance scale 0.05-0.15; here |rho| is 0.74-0.9992
        d = spacing * WL.lam
        a = DiscreteAperture(m, m, d, 0.5 * d * d)
        _assert_matches_dense(a, CouplingModel(z_antenna=30.0, z_termination=zt, impedance_scale=scale))

    @pytest.mark.parametrize(
        "m, spacing, scale",
        [(1, 0.05, 0.1), (3, 1e6, 0.1)] + [(15, WL.lam / 3, s) for s in np.geomspace(1e-16, 1e-8, 17)],
    )
    def test_matches_dense_lu_near_decoupled(self, m, spacing, scale):
        # a single element, far-apart elements and a vanishing impedance scale
        # make the preconditioned operator the identity to within rounding:
        # the Krylov space breaks down at once and the solve must not call
        # that singular
        a = DiscreteAperture(m, m, spacing, A_U)
        _assert_matches_dense(a, CouplingModel(impedance_scale=scale))

    def test_probe_stops_at_its_loose_tolerance(self):
        a = DiscreteAperture(15, 15, WL.lam / 3, A_U)
        probe = np.random.default_rng(0).integers(0, 2, a.count) * 2.0 - 1.0
        rhs = np.vstack([element_channel(a, USER1, WL), element_channel(a, USER2, WL), probe])
        tol = coupling.RESIDUAL_TOLERANCE
        system = coupling_system(a, WL, MODEL)
        _, tight, _ = coupling._gmres(system, rhs, np.array([tol, tol, tol]))
        _, steps, failures = coupling._gmres(
            system, rhs, np.array([tol, tol, coupling.PROBE_TOLERANCE])
        )
        assert failures == [None, None, None]
        assert steps[:2] == tight[:2]
        assert steps[2] < tight[2] / 2

    def test_unconverged_probe_only_warns(self, monkeypatch, caplog):
        # the users' vectors converge in about 40 steps; the probe never does
        monkeypatch.setattr(coupling, "PROBE_TOLERANCE", 0.0)
        monkeypatch.setattr(coupling, "MAX_ITERATIONS", 60)
        a = DiscreteAperture(15, 15, WL.lam / 3, A_U)
        with caplog.at_level(logging.WARNING, logger="capalink.coupling"):
            _assert_matches_dense(a, MODEL)
        assert "not estimated" in caplog.text and "did not converge" in caplog.text

    def test_ill_conditioned_system_is_reported(self, monkeypatch, caplog):
        # Z + z_t I = Q diag(s) Q^T with singular values from 1 down to 1e-10
        a = DiscreteAperture(5, 5, WL.lam / 3, A_U)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((a.count, a.count)))
        system = (q * np.geomspace(1.0, 1e-10, a.count)) @ q.T
        assert np.linalg.cond(system) == pytest.approx(1e10, rel=1e-3)
        monkeypatch.setattr(coupling, "coupling_system", lambda *args: DenseSystem(system))
        with caplog.at_level(logging.WARNING, logger="capalink.coupling"):
            coupled_pair(a, (USER1, USER2), WL, MODEL)
        assert "ill conditioned" in caplog.text

    def test_well_conditioned_system_is_quiet(self, caplog):
        a = DiscreteAperture(15, 15, WL.lam / 3, A_U)
        with caplog.at_level(logging.WARNING, logger="capalink.coupling"):
            coupled_pair(a, (USER1, USER2), WL, MODEL)
        assert caplog.text == ""

    def test_singular_system_raises(self, monkeypatch):
        a = DiscreteAperture(3, 3, WL.lam / 3, A_U)
        # rank one: Z + z_t I is the all-ones matrix
        monkeypatch.setattr(
            coupling, "coupling_system", lambda *args: DenseSystem(np.ones((a.count, a.count)))
        )
        with pytest.raises(np.linalg.LinAlgError):
            coupled_pair(a, (USER1, USER2), WL, MODEL)

    def test_overflowing_solution_raises(self):
        # a subnormal termination on a single element overflows 1 / (Z + z_t)
        a = DiscreteAperture(1, 1, 0.05, A_U)
        with pytest.raises(np.linalg.LinAlgError):
            coupled_pair(a, (USER1, USER2), WL, CouplingModel(z_termination=1e-320))

    def test_unconverged_solve_raises(self, monkeypatch):
        # the default 15^2 array needs about 40 steps to reach the tolerance
        monkeypatch.setattr(coupling, "MAX_ITERATIONS", 5)
        a = DiscreteAperture(15, 15, WL.lam / 3, A_U)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            coupled_pair(a, (USER1, USER2), WL, MODEL)

    def test_61_array_gain_peaks_under_100_mb(self):
        # in a fresh interpreter, which reports its own peak resident set;
        # a dense 3721 x 3721 system and its LU alone take about 0.5 GB
        src = str(Path(capalink.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="1")
        script = Path(__file__).with_name("coupled_scale.py")
        run = subprocess.run([sys.executable, str(script), "61"], capture_output=True,
                             text=True, env=env, timeout=300)
        report = json.loads(run.stdout.splitlines()[-1])
        assert run.returncode == 0 and report["exit"] == 0 and report["strict_json"], report
        assert report["peak_rss_mb"] < 100.0, report


class TestCoupledChannel:
    def test_scalar_scaling(self):
        a = DiscreteAperture(5, 5, WL.lam / 3, A_U)
        base = pair_from_vectors(
            element_channel(a, USER1, WL), element_channel(a, USER2, WL)
        ).pair
        scaled = pair_from_vectors(
            2.0 * np.eye(a.count) @ element_channel(a, USER1, WL),
            2.0 * np.eye(a.count) @ element_channel(a, USER2, WL),
        ).pair
        assert scaled.g1 == pytest.approx(4 * base.g1, rel=1e-12)
        assert scaled.g2 == pytest.approx(4 * base.g2, rel=1e-12)
        assert abs(scaled.rho) == pytest.approx(abs(base.rho), abs=1e-12)

    def test_correlation_bounded(self):
        a = DiscreteAperture(7, 7, WL.lam / 3, A_U)
        pair = coupled_pair(a, (USER1, USER2), WL, MODEL).pair
        assert abs(pair.rho) <= 1.0 + 1e-12


class TestCoupledCapacity:
    def test_order_invariance_survives_coupling(self):
        a = DiscreteAperture(7, 7, WL.lam / 3, A_U)
        ch = coupled_pair(a, (USER1, USER2), WL, MODEL).pair
        csum = sum_capacity_ul(1e3, 1e4, ch)
        for order in SicOrder:
            assert sic_rates(1e3, 1e4, ch, order).total == pytest.approx(csum, abs=1e-12)

    def test_coupling_degrades_default_geometry(self):
        # reference mutual-coupling setup: 1 m^2 span, lambda/3 spacing
        m = 25
        a = DiscreteAperture(m, m, WL.lam / 3, A_U)
        plain = pair_from_vectors(
            element_channel(a, USER1, WL), element_channel(a, USER2, WL)
        ).pair
        coupled = coupled_pair(a, (USER1, USER2), WL, MODEL).pair
        assert coupled.g1 < plain.g1
        assert coupled.g2 < plain.g2
        assert sum_capacity_ul(1e3, 1e4, coupled) < sum_capacity_ul(1e3, 1e4, plain)
