import json
import math
from dataclasses import replace

import numpy as np
import pytest

from capalink import channel, scenario
from capalink.geometry import DiscreteAperture, LinearAperture, PlanarAperture
from capalink.numerics import chebyshev_nodes
from capalink.scenario import (
    SceneError,
    load_scene,
    scene_defaults,
    scene_from_dict,
    scene_to_dict,
    validate,
)


class TestDefaults:
    def test_isotropic_user_aperture(self):
        s = scene_defaults()
        assert s.users[0].rx_area == pytest.approx(1.2434e-3, rel=1e-4)
        assert s.users[0].rx_area == pytest.approx(0.125**2 / (4 * math.pi))

    def test_linear_snrs(self):
        s = scene_defaults()
        assert s.ul_snr_linear == pytest.approx((1e3, 1e4))

    def test_shared_angles(self):
        s = scene_defaults()
        for u in s.users:
            assert u.theta == pytest.approx(math.pi / 6)
            assert u.phi == pytest.approx(math.pi / 3)
        assert (s.users[0].range_m, s.users[1].range_m) == (10.0, 20.0)

    def test_golden_serialization(self):
        assert scene_to_dict(scene_defaults()) == scene_to_dict(scene_defaults())

    def test_downlink_budget_from_sum_snr(self):
        s = scene_defaults()
        c = s.snr_coefficient(0)
        assert c * s.downlink_power == pytest.approx(1e5, rel=1e-12)


class TestValidation:
    def test_default_scene_clean(self):
        findings = validate(scene_defaults())
        assert not [f for f in findings if f.severity == "error"]

    def test_in_plane_user_rejected_at_construction(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"][0]["phi_deg"] = 180.0
        with pytest.raises(SceneError):
            scene_from_dict(cfg)

    def test_oversized_user_aperture_warns(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"][0]["rx_area"] = 0.25
        findings = validate(scene_from_dict(cfg))
        assert any("rx_area" in f.message for f in findings if f.severity == "warning")

    def test_validate_is_total(self):
        # validation returns findings, never raises, on any constructible scene
        s = scene_defaults()
        assert isinstance(validate(s), list)
        assert validate(s) == validate(s)


class TestConfigSchema:
    def test_unknown_scene_key_rejected(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["wavelenght"] = 0.1
        with pytest.raises(SceneError, match="unknown scene keys"):
            scene_from_dict(cfg)

    def test_unknown_user_key_rejected(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"][0]["power_dbm"] = 3.0
        with pytest.raises(SceneError, match="unknown user keys"):
            scene_from_dict(cfg)

    def test_round_trip(self, tmp_path):
        s = scene_defaults()
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_to_dict(s)))
        loaded = load_scene(str(path))
        assert scene_to_dict(loaded) == scene_to_dict(s)

    @pytest.mark.parametrize("order", [None, 7])
    def test_quadrature_order_round_trips(self, order):
        # an unset order is written as null and read back unset
        cfg = scene_to_dict(replace(scene_defaults(), quadrature_order=order))
        assert cfg["quadrature_order"] == order
        assert scene_from_dict(cfg).quadrature_order == order

    def test_absent_quadrature_order_is_unset(self):
        cfg = scene_to_dict(scene_defaults())
        del cfg["quadrature_order"]
        assert scene_from_dict(cfg).quadrature_order is None

    @pytest.mark.parametrize("value", [0, False, [], "x"])
    def test_falsy_or_malformed_quadrature_order_rejected(self, value):
        # only an absent key or null leaves the order unset
        cfg = {**scene_to_dict(scene_defaults()), "quadrature_order": value}
        with pytest.raises(SceneError):
            scene_from_dict(cfg)

    def test_spda_occupation_shorthand(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["aperture"] = {
            "type": "spda",
            "elements_x": 5,
            "elements_z": 5,
            "spacing": 0.1,
            "occupation": 0.5,
        }
        s = scene_from_dict(cfg)
        assert isinstance(s.aperture, DiscreteAperture)
        assert s.aperture.element_area == pytest.approx(0.005)

    def test_user_count_bounds(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"] = []
        with pytest.raises(SceneError):
            scene_from_dict(cfg)
        cfg["users"] = [scene_to_dict(scene_defaults())["users"][0]] * 3
        with pytest.raises(SceneError):
            scene_from_dict(cfg)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, token):
        # json reads NaN and Infinity, and 1e400 overflows to inf
        text = json.dumps(scene_to_dict(scene_defaults()))
        text = text.replace('"snr_db": 30.0', f'"snr_db": {token}')
        cfg = json.loads(text)
        assert not math.isfinite(cfg["users"][0]["snr_db"])
        with pytest.raises(SceneError, match="snr_db must be a finite number"):
            scene_from_dict(cfg)

    @pytest.mark.parametrize("key", ["quadrature_order", "grid"])
    def test_non_finite_integers_rejected(self, key):
        cfg = scene_to_dict(scene_defaults())
        cfg[key] = math.inf if key == "quadrature_order" else [math.inf, 10]
        with pytest.raises(SceneError):
            scene_from_dict(cfg)

    def test_empty_grid_rejected(self):
        # no command computes on a grid from the scene; the key is unknown
        cfg = scene_to_dict(scene_defaults())
        cfg["grid"] = [0, 0]
        with pytest.raises(SceneError, match=r"unknown scene keys: \['grid'\]"):
            scene_from_dict(cfg)


class TestDerived:
    def test_channel_pair_variants(self):
        s = scene_defaults()
        ch = scenario.channel_pair(s).pair
        assert 0 < ch.g2 < ch.g1 < 0.5
        sl = scenario.with_aperture(s, LinearAperture(0.01, 0.5))
        chl = scenario.channel_pair(sl).pair
        assert 0 < chl.g1 < 0.5 and abs(chl.rho) <= 1.0
        m = 41
        d = 0.5 / m
        ss = scenario.with_aperture(s, DiscreteAperture(m, m, d, d * d))
        chs = scenario.channel_pair(ss).pair
        assert chs.g1 == pytest.approx(ch.g1, rel=0.02)

    @pytest.mark.parametrize("order", [20, 1000])
    def test_linear_rule_matches_kernel_sum(self, order):
        # the 1-D rule along the strip written out with kernel_Q
        s = scenario.with_aperture(scene_defaults(), LinearAperture(0.01, 400.0))
        s = replace(s, quadrature_order=order)
        rule = chebyshev_nodes(order)
        z = s.aperture.length_z / 2 * rule.nodes
        q1, q2 = (channel.kernel_Q(s.wavelength, u, 0.0, z) for u in s.users)
        w = rule.sqrt_weights
        expected = np.sum(w * np.conj(q1) * q2) / math.sqrt(
            np.sum(w * np.abs(q1) ** 2) * np.sum(w * np.abs(q2) ** 2)
        )
        got = scenario.channel_pair(s).rho
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_ambiguous_sum_snr_rejected(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"][1]["noise"] = 2.0
        s = scene_from_dict(cfg)
        with pytest.raises(SceneError, match="dl_power"):
            s.downlink_power

    def test_explicit_power_override(self):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"][1]["noise"] = 2.0
        cfg["downlink_power"] = 3.5
        del cfg["downlink_sum_snr_db"]
        assert scene_from_dict(cfg).downlink_power == 3.5

    def test_auto_quadrature_order(self):
        s = scene_defaults()
        assert scenario.auto_quadrature_order(s) == 20
        big = scenario.with_aperture(s, PlanarAperture(100.0, 100.0))
        assert scenario.auto_quadrature_order(big) == 1000
        # an explicit order wins at any area
        for scene in (s, big):
            for order in (1, 20, 64, 1000):
                assert scenario.auto_quadrature_order(replace(scene, quadrature_order=order)) == order

    def test_sweep_rows(self):
        rows = scenario.sweep(scene_defaults(), "snr", np.array([10.0, 20.0]))
        assert [len(r) for r in rows] == [1 + len(scenario.SWEEP_COLUMNS)] * 2
        assert [r[0] for r in rows] == [10.0, 20.0]
        assert rows[0][1] < rows[1][1]  # C_ul grows with the uplink SNR

    @pytest.mark.parametrize("param", ["occupation", "grid"])
    def test_sweep_rejects_parameter_the_aperture_lacks(self, param):
        with pytest.raises(SceneError):
            scenario.sweep(scene_defaults(), param, [1.0])
