from dataclasses import replace

import numpy as np
import pytest

from capalink.geometry import PlanarAperture
from capalink.scenario import scene_defaults, scene_from_dict
from capalink.uplink import MuRoot, whitening_mu
from capalink.verify import (
    WHITENING_ROUNDOFF,
    grid_channels,
    whitened_covariance_deviation,
    whitening_covariance_check,
)
from references import whitening_mu_residual

# users in different directions on a 1.18 m aperture, where the order-20
# correlation rule is off (the benchmark's fault-(c) geometry)
FAULT_C = scene_from_dict({
    "wavelength": 0.125,
    "aperture": {"type": "planar", "length_x": 1.18, "length_z": 1.18},
    "users": [
        {"range": 11.3, "theta_deg": 65.0, "phi_deg": 33.0, "snr_db": 30.0},
        {"range": 9.8, "theta_deg": 151.0, "phi_deg": 71.0, "snr_db": 40.0},
    ],
    "downlink_sum_snr_db": 50.0,
})
SCENES = {"default": scene_defaults(), "fault-c": FAULT_C}


def whitening_inputs(scene):
    h1 = grid_channels(scene, (4, 4))[0]
    snr1 = scene.ul_snr_linear[0]
    g1 = float(np.vdot(h1, h1).real)
    return h1, snr1, g1


class TestWhitenedCovarianceCheck:
    @pytest.mark.parametrize("name", list(SCENES))
    def test_white_at_either_root(self, name):
        h1, snr1, g1 = whitening_inputs(SCENES[name])
        measured, tolerance = whitening_covariance_check(SCENES[name])
        assert tolerance == pytest.approx(WHITENING_ROUNDOFF * (1.0 + snr1 * g1), rel=1e-12)
        assert measured <= tolerance
        for root in MuRoot:
            mu = whitening_mu(snr1, g1, root)
            assert whitened_covariance_deviation(h1, snr1, mu) <= tolerance

    @pytest.mark.parametrize("root", list(MuRoot))
    def test_catches_relative_mu_error(self, root):
        base = scene_defaults()
        for db in np.linspace(0.0, 90.0, 10):
            for side in np.geomspace(0.3, 30.0, 5):
                scene = replace(
                    base, ul_snr_db=(db, base.ul_snr_db[1]), aperture=PlanarAperture(side, side)
                )
                h1, snr1, g1 = whitening_inputs(scene)
                mu = whitening_mu(snr1, g1, root)
                tolerance = WHITENING_ROUNDOFF * (1.0 + snr1 * g1)
                assert whitened_covariance_deviation(h1, snr1, mu) <= tolerance
                bad = whitened_covariance_deviation(h1, snr1, mu * (1.0 + 1e-6))
                assert bad > tolerance, (db, side)

    @pytest.mark.parametrize("name", list(SCENES))
    def test_equals_mu_residual_off_root(self, name):
        # W S W^H - I = c h h^H with c the residual of mu's quadratic
        h1, snr1, g1 = whitening_inputs(SCENES[name])
        mu = whitening_mu(snr1, g1) * (1.0 + 1e-6)
        expected = abs(whitening_mu_residual(mu, snr1, g1)) * np.max(np.abs(h1) ** 2)
        got = whitened_covariance_deviation(h1, snr1, mu)
        assert got == pytest.approx(expected, rel=1e-6)
