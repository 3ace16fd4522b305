import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import capalink
from capalink import channel, scenario
from capalink.cli import main
from capalink.geometry import LinearAperture, PlanarAperture
from capalink.numerics import adaptive_integrate_2d
from capalink.scenario import LIMITS, scene_defaults, scene_to_dict
from test_cli_fuzz import assert_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(out):
    "The rows of a CSV report, each a dict from column name to value."
    header, *lines = out.strip().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def sweep_rows(capsys, *argv):
    "The rows of a sweep that exits 0."
    code, out = run(capsys, "sweep", *argv)
    assert code == 0
    return csv_rows(out)


def write_config(tmp_path, aperture):
    "The default scene with the given aperture config, written to a file."
    cfg = scene_to_dict(scene_defaults())
    cfg["aperture"] = aperture
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def one_user_config(tmp_path, aperture=None):
    "The default scene with its first user only, and the given aperture config."
    cfg = scene_to_dict(scene_defaults())
    cfg["users"] = cfg["users"][:1]
    if aperture is not None:
        cfg["aperture"] = aperture
    path = tmp_path / "one-user.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def far_users(range_m):
    "The default users' config entries with user 1 moved out to range_m."
    users = scene_to_dict(scene_defaults())["users"]
    users[0]["range"] = range_m
    return users


FAR_USERS = far_users(1e103)
"User 1 so far away that the rule's gain sum for it underflows to 0."


class TestSceneCommand:
    @pytest.mark.parametrize("extra,order,resolved", [([], None, 1000),
                                                      (["--quad-order", "7"], 7, 7)])
    def test_printed_scene_reloads_to_the_same_capacity(
        self, extra, order, resolved, capsys, tmp_path
    ):
        # a 225 m^2 aperture, where the order picked by area is 1000
        config = write_config(tmp_path, {"type": "planar", "length_x": 15.0, "length_z": 15.0})
        code, out = run(capsys, "scene", "print", "--config", config, *extra)
        assert code == 0
        printed = json.loads(out)
        derived = printed.pop("derived")
        assert printed["quadrature_order"] == order
        assert derived["quadrature_order"] == resolved
        path = tmp_path / "printed.json"
        path.write_text(json.dumps(printed))
        first = run(capsys, "capacity", "--config", config, *extra)
        assert first[0] == 0
        assert run(capsys, "capacity", "--config", str(path)) == first

    def test_discrete_scene_prints_no_rule_order(self, capsys):
        code, out = run(capsys, "scene", "print", "--aperture", "spda", "--elements", "5")
        assert code == 0
        assert "quadrature_order" not in json.loads(out)["derived"]


class TestGainCommand:
    def test_oracle_gap_small(self, capsys):
        code, out = run(capsys, "gain", "--oracle")
        assert code == 0
        rep = json.loads(out)
        assert rep["gap_g1"] < 1e-6
        assert rep["gap_g2"] < 1e-6

    def test_spda_close_to_planar(self, capsys):
        code, out = run(capsys, "gain", "--aperture", "spda", "--occupation", "1.0")
        assert code == 0
        spda = json.loads(out)
        code, out = run(capsys, "gain", "--aperture", "planar")
        planar = json.loads(out)
        assert spda["g1"] == pytest.approx(planar["g1"], rel=0.02)
        assert spda["g2"] == pytest.approx(planar["g2"], rel=0.02)

    def test_single_user_omits_rho(self, capsys, tmp_path):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"] = cfg["users"][:1]
        del cfg["downlink_sum_snr_db"]
        path = tmp_path / "single.json"
        path.write_text(json.dumps(cfg))
        code, out = run(capsys, "gain", "--config", str(path))
        assert code == 0
        rep = json.loads(out)
        assert "rho_abs2" not in rep and "g2" not in rep

    def test_one_user_spda_is_coupled(self, capsys, tmp_path):
        argv = ["gain", "--aperture", "spda", "--elements", "15", "--mutual-coupling",
                "--za", "5", "--zt", "500", "--z-scale", "0.9"]
        _, out = run(capsys, *argv)
        two = json.loads(out)
        _, out = run(capsys, *argv, "--config", one_user_config(tmp_path))
        one = json.loads(out)
        _, out = run(capsys, *argv[:5], "--config", one_user_config(tmp_path))
        uncoupled = json.loads(out)
        assert one["g1"] == pytest.approx(two["g1"], rel=1e-14, abs=0.0)
        assert abs(one["g1"] - uncoupled["g1"]) > 0.5 * uncoupled["g1"]

    @pytest.mark.parametrize(
        "aperture",
        [{"type": "planar", "length_x": 0.5, "length_z": 0.5},
         {"type": "linear", "length_x": 0.05, "length_z": 1.0}],
    )
    def test_one_user_coupling_of_a_continuous_aperture_exits_one(
        self, aperture, capsys, tmp_path
    ):
        path = one_user_config(tmp_path, aperture)
        assert main(["gain", "--mutual-coupling", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: mutual coupling is modeled for discrete apertures only"
        ]


class TestCapacityCommand:
    def test_zf_dominated(self, capsys):
        _, out = run(capsys, "capacity", "--link", "ul", "--scheme", "capacity")
        cap = json.loads(out)["sum_rate"]
        _, out = run(capsys, "capacity", "--link", "ul", "--scheme", "zf")
        zf = json.loads(out)["sum_rate"]
        assert zf <= cap + 1e-12

    def test_downlink_rates_sum_to_capacity(self, capsys):
        code, out = run(capsys, "capacity", "--link", "dl", "--dual-trace")
        assert code == 0
        rep = json.loads(out)
        assert sum(rep["rates"]) == pytest.approx(rep["sum_rate"], abs=1e-12)
        assert "dual_trace" in rep

    def test_single_user_closed_form(self, capsys, tmp_path):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"] = cfg["users"][:1]
        del cfg["downlink_sum_snr_db"]
        path = tmp_path / "single.json"
        path.write_text(json.dumps(cfg))
        code, out = run(capsys, "capacity", "--config", str(path))
        assert code == 0
        rep = json.loads(out)
        s = scenario.scene_from_dict(cfg)
        (g,), _ = scenario.channel_pair(s)
        assert rep["capacity"] == pytest.approx(math.log2(1 + 1e3 * g))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [["capacity", "--link", "ul"], ["capacity", "--link", "ul", "--scheme", "zf"],
         ["region", "--link", "ul"]],
    )
    @pytest.mark.parametrize("budget", [None, 1e308])
    def test_uplink_reads_no_downlink_budget(self, argv, budget, capsys, tmp_path):
        cfg = scene_to_dict(scene_defaults())
        del cfg["downlink_sum_snr_db"]
        if budget is not None:
            cfg["downlink_power"] = budget
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg))
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main(argv + ["--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == default.err == ""
        assert captured.out == default.out


class TestRegionCommand:
    def test_uplink_pentagon_five_vertices(self, capsys):
        code, out = run(capsys, "region", "--link", "ul")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "R1,R2"
        assert len(lines) - 1 == 5

    def test_downlink_hull_contains_endpoints(self, capsys):
        code, out = run(capsys, "region", "--link", "dl", "--splits", "41")
        assert code == 0
        rows = [tuple(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
        r1_max = max(r[0] for r in rows)
        r2_max = max(r[1] for r in rows)
        assert any(abs(r[0] - r1_max) < 1e-9 and r[1] == 0.0 for r in rows)
        assert any(r[0] == 0.0 and abs(r[1] - r2_max) < 1e-9 for r in rows)

    def test_area_nondecreasing_in_aperture(self, capsys, tmp_path):
        areas = []
        for side in (0.25, 0.5, 1.0):
            cfg = scene_to_dict(scene_defaults())
            cfg["aperture"]["length_x"] = side
            cfg["aperture"]["length_z"] = side
            path = tmp_path / f"s{side}.json"
            path.write_text(json.dumps(cfg))
            _, out = run(capsys, "region", "--link", "ul", "--config", str(path))
            rows = [tuple(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
            poly_area = 0.0
            for i in range(len(rows)):
                x0, y0 = rows[i]
                x1, y1 = rows[(i + 1) % len(rows)]
                poly_area += x0 * y1 - x1 * y0
            areas.append(poly_area / 2)
        assert areas[0] <= areas[1] <= areas[2]


class TestSweepCommand:
    def test_csv_shape_and_header(self, capsys):
        code, out = run(
            capsys, "sweep", "--param", "aperture_area",
            "--start", "0.25", "--stop", "4.0", "--steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "aperture_area"
        assert len(lines) == 4
        assert all(len(ln.split(",")) == len(lines[0].split(",")) for ln in lines[1:])

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_quad_order_sets_every_row(self, source, capsys, tmp_path):
        # rows on both sides of 100 m^2, where the order picked by area switches
        argv = ["--param", "aperture_area", "--start", "50", "--stop", "200", "--steps", "2"]
        if source == "flag":
            extra = ["--quad-order", "3"]
        else:
            path = tmp_path / "order.json"
            path.write_text(json.dumps({**scene_to_dict(scene_defaults()), "quadrature_order": 3}))
            extra = ["--config", str(path)]
        by_area = sweep_rows(capsys, *argv)
        for row, auto in zip(sweep_rows(capsys, *argv, *extra), by_area):
            side = math.sqrt(row["aperture_area"])
            step = replace(scene_defaults(), aperture=PlanarAperture(side, side))
            rho = scenario.channel_pair(replace(step, quadrature_order=3)).rho
            assert row["rho_abs2"] == abs(rho) ** 2 != auto["rho_abs2"]

    def test_single_scene_and_sweep_row_agree_at_large_area(self, capsys, tmp_path):
        # the default users over the stored reference's 188 m^2 square
        path = Path(__file__).parents[1] / "perfbench" / "fault_a_reference.json"
        reference = json.loads(path.read_text())
        area = reference["areas"][5]
        variant = reference["variants"][0]
        assert [u["range"] for u in variant["config"]["users"]] == [10.0, 20.0]
        _, _, rho_re, rho_im, _ = variant["stats"][5]
        expected = rho_re**2 + rho_im**2
        side = math.sqrt(area)
        config = write_config(tmp_path, {"type": "planar", "length_x": side, "length_z": side})
        printed = [json.loads(run(capsys, *argv, "--config", config)[1])["rho_abs2"]
                   for argv in (["gain"], ["capacity", "--link", "ul"])]
        rows = sweep_rows(capsys, "--param", "aperture_area", "--start", "0.25",
                          "--stop", "1e4", "--steps", "9")
        (row,) = [r for r in rows if r["aperture_area"] == pytest.approx(area, rel=1e-12)]
        for value in printed:
            assert value == pytest.approx(row["rho_abs2"], rel=1e-12)
        assert row["rho_abs2"] == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize(
        "argv,values",
        [
            # dB values step linearly, through 0 dB and negative values
            (["--param", "snr", "--start", "-10", "--stop", "10", "--steps", "3"],
             [-10.0, 0.0, 10.0]),
            (["--param", "snr", "--start", "10", "--stop", "40", "--steps", "4"],
             [10.0, 20.0, 30.0, 40.0]),
            # an area or occupation steps geometrically, so both bounds must be positive
            (["--param", "aperture_area", "--start", "-1", "--stop", "4"], None),
            (["--param", "aperture_area", "--start", "1", "--stop", "0"], None),
            (["--param", "occupation", "--start", "0", "--stop", "1"], None),
            # the span of the dB grid overflows a float
            (["--param", "snr", "--start", "-1e308", "--stop", "1e308"], None),
        ],
    )
    def test_grid_in_a_fresh_interpreter(self, argv, values):
        # the real stderr: no numpy warning, and one error: line on a rejected grid
        src = str(Path(capalink.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "capalink.cli", "sweep", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        if values is None:
            assert proc.returncode == 1 and proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
            return
        assert proc.returncode == 0 and proc.stderr == ""
        header, *lines = proc.stdout.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert [r[0] for r in rows] == values
        assert all(math.isfinite(v) for r in rows for v in r)

    def test_occupation_sweep_monotone_and_matches_capa(self, capsys):
        code, out = run(
            capsys, "sweep", "--param", "occupation",
            "--start", "0.1", "--stop", "1.0", "--steps", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        cols = lines[0].split(",")
        c_ul = [float(ln.split(",")[cols.index("C_ul")]) for ln in lines[1:]]
        assert all(b >= a for a, b in zip(c_ul, c_ul[1:]))
        _, out = run(capsys, "capacity", "--link", "ul")
        capa = json.loads(out)["sum_rate"]
        assert c_ul[-1] == pytest.approx(capa, rel=0.02)

    def test_large_aperture_approaches_asymptote(self, capsys):
        code, out = run(
            capsys, "sweep", "--param", "aperture_area",
            "--start", "1e6", "--stop", "1e6", "--steps", "1",
        )
        assert code == 0
        line = out.strip().splitlines()[1].split(",")
        cols = out.strip().splitlines()[0].split(",")
        c_ul = float(line[cols.index("C_ul")])
        asy = float(line[cols.index("asy_ul")])
        assert abs(c_ul - asy) / asy < 0.005

    def test_downlink_asymptote_with_distinct_snr_maps(self, capsys, tmp_path):
        # noise 2 on user 2 halves its SNR map; at this power the
        # infinite-aperture KKT split is interior, P1 = (P + xi) / 2
        cfg = scene_to_dict(scene_defaults())
        cfg["users"][1]["noise"] = 2.0
        del cfg["downlink_sum_snr_db"]
        cfg["downlink_power"] = 1e-4
        path = tmp_path / "distinct.json"
        path.write_text(json.dumps(cfg))
        code, out = run(
            capsys, "sweep", "--config", str(path), "--param", "aperture_area",
            "--start", "1", "--stop", "1", "--steps", "1",
        )
        assert code == 0
        cols, row = (ln.split(",") for ln in out.strip().splitlines())
        scene = scenario.load_scene(str(path))
        c1, c2, p, g = scene.snr_coefficient(0), scene.snr_coefficient(1), 1e-4, 0.5
        xi = (c1 - c2) / (c1 * c2 * g)
        assert c1 != c2 and 0.0 < xi < p
        expected = math.log2(1 + c1 * g * (p + xi) / 2) + math.log2(1 + c2 * g * (p - xi) / 2)
        brute = max(
            math.log2(1 + c1 * g * p * t) + math.log2(1 + c2 * g * p * (1 - t))
            for t in (i / 10000 for i in range(10001))
        )
        assert float(row[cols.index("asy_dl")]) == pytest.approx(expected, rel=1e-12)
        assert expected >= brute

    def test_downlink_asymptote_of_linear_aperture(self, capsys, tmp_path):
        # a thin strip's gains tend to L_x sin(phi) / (2 pi r sin(theta)),
        # not to the planar 1/2
        cfg = scene_to_dict(scene_defaults())
        cfg["aperture"] = {"type": "linear", "length_x": 0.02, "length_z": 0.5}
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(cfg))
        code, out = run(
            capsys, "sweep", "--config", str(path), "--param", "snr",
            "--start", "10", "--stop", "10", "--steps", "1",
        )
        assert code == 0
        cols, row = (ln.split(",") for ln in out.strip().splitlines())
        scene = scenario.load_scene(str(path))
        g1, g2 = (
            0.02 * math.sin(u.phi) / (2 * math.pi * u.range_m * math.sin(u.theta))
            for u in scene.users
        )
        c, p = scene.snr_coefficient(0), scene.downlink_power
        assert scene.snr_coefficient(1) == c
        # equal SNR maps and rho = 0: interior KKT split P1 = (P + xi) / 2
        xi = (g1 - g2) / (c * g1 * g2)
        assert 0.0 < xi < p
        expected = math.log2(1 + c * g1 * (p + xi) / 2) + math.log2(1 + c * g2 * (p - xi) / 2)
        assert float(row[cols.index("asy_dl")]) == pytest.approx(expected, rel=1e-12)


    def test_linear_area_sweep_keeps_the_strip(self, capsys, tmp_path):
        # the area scales length_z at a fixed length_x
        path = write_config(tmp_path, {"type": "linear", "length_x": 0.02, "length_z": 0.5})
        rows = sweep_rows(capsys, "--config", path, "--param", "aperture_area",
                          "--start", "0.01", "--stop", "100", "--steps", "3")
        scene = scenario.load_scene(path)
        s1, s2 = scene.ul_snr_linear
        g1, g2 = (0.02 * math.sin(u.phi) / (2 * math.pi * u.range_m * math.sin(u.theta))
                  for u in scene.users)
        c, p = scene.snr_coefficient(0), scene.downlink_power
        xi = (g1 - g2) / (c * g1 * g2)  # equal SNR maps, interior split as below
        asy_ul = math.log2(1 + s1 * g1) + math.log2(1 + s2 * g2)
        asy_dl = math.log2(1 + c * g1 * (p + xi) / 2) + math.log2(1 + c * g2 * (p - xi) / 2)
        for row in rows:
            strip = LinearAperture(0.02, row["aperture_area"] / 0.02)
            assert row["g1"] == channel.gain_linear(strip, scene.users[0])
            assert row["g2"] == channel.gain_linear(strip, scene.users[1])
            assert row["asy_ul"] == pytest.approx(asy_ul, rel=1e-14)
            assert row["asy_dl"] == pytest.approx(asy_dl, rel=1e-12)

    def test_aperture_override_to_linear_gives_strip_rows(self, capsys):
        rows = sweep_rows(capsys, "--aperture", "linear", "--param", "aperture_area",
                          "--start", "1", "--stop", "4", "--steps", "2")
        users = scene_defaults().users
        for row in rows:
            strip = LinearAperture(0.5, row["aperture_area"] / 0.5)
            assert row["g1"] == channel.gain_linear(strip, users[0])

    def test_planar_area_sweep_keeps_aspect_ratio(self, capsys, tmp_path):
        path = write_config(tmp_path, {"type": "planar", "length_x": 0.4, "length_z": 0.9})
        argv = ["--param", "aperture_area", "--start", "0.36", "--stop", "36", "--steps", "2"]
        rows = sweep_rows(capsys, "--config", path, *argv)
        squares = sweep_rows(capsys, *argv)
        users = scene_defaults().users
        for row, square in zip(rows, squares):
            side = math.sqrt(row["aperture_area"])
            rect = PlanarAperture(side * 2 / 3, side * 3 / 2)
            assert row["g1"] == pytest.approx(channel.gain_planar(rect, users[0]), rel=1e-14)
            assert row["g2"] == pytest.approx(channel.gain_planar(rect, users[1]), rel=1e-14)
            assert abs(row["g1"] - square["g1"]) > 1e-3 * square["g1"]
        # at the config's own area the row is the config's scene
        _, out = run(capsys, "gain", "--config", path)
        assert rows[0]["g1"] == pytest.approx(json.loads(out)["g1"], rel=1e-14)

    def test_occupation_sweep_honours_elements(self, capsys):
        argv = ["sweep", "--param", "occupation", "--elements", "21",
                "--start", "0.1", "--stop", "1", "--steps", "3"]
        _, plain = run(capsys, *argv)
        _, spda = run(capsys, *argv, "--aperture", "spda")
        _, default = run(capsys, *argv[:3], *argv[5:])
        assert plain == spda != default


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--seed", "0")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"]
        assert all(c["passed"] for c in rep["checks"])

    def test_report_is_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        code, out = run(capsys, "verify", "--suite", "all", "--seed", "0")
        assert code == 0
        rep = json.loads(out, parse_constant=reject)
        informational = [c for c in rep["checks"] if c["tolerance"] is None]
        assert [c["name"] for c in informational] == ["rho-phase-vs-oracle"]
        assert informational[0]["passed"]

    @pytest.mark.parametrize(
        "suite,names",
        [
            ("all", ["gain-1-vs-oracle", "whitening-skipped", "duality-skipped"]),
            ("whitening", ["whitening-skipped"]),
            ("duality", ["duality-skipped"]),
        ],
    )
    def test_single_user_skips_two_user_suites(self, suite, names, capsys, tmp_path):
        cfg = scene_to_dict(scene_defaults())
        cfg["users"] = cfg["users"][:1]
        path = tmp_path / "single.json"
        path.write_text(json.dumps(cfg))
        code, out = run(capsys, "verify", "--suite", suite, "--config", str(path))
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == names

    def test_duality_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "duality", "--seed", "42")
        assert code == 0
        rep = json.loads(out)
        names = {c["name"] for c in rep["checks"]}
        assert "duality-power-recovery" in names


class TestDeterminismAndExitCodes:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["region", "--link", "dl", "--splits", "51"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_reads_the_config_once(self, tmp_path, monkeypatch):
        calls = []
        load = scenario.load_scene

        def counted(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(scenario, "load_scene", counted)
        config = write_config(tmp_path, scene_to_dict(scene_defaults())["aperture"])
        out, man = tmp_path / "r.json", tmp_path / "m.json"
        assert main(["gain", "--config", config, "--output", str(out),
                     "--manifest", str(man)]) == 0
        assert calls == [config]
        assert json.loads(man.read_text())["scene"] == json.loads(Path(config).read_text())

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "r.csv"
        man = tmp_path / "m.json"
        code = main([
            "region", "--link", "ul", "--output", str(out), "--manifest", str(man)
        ])
        assert code == 0
        manifest = json.loads(man.read_text())
        assert manifest["command"] == "region"
        assert manifest["seed"] is None  # only verify reads a seed
        assert str(out) in manifest["outputs"]

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wavelength": 0.125, "users": [], "aperture": {}}))
        assert main(["gain", "--config", str(path)]) == 1

    def test_zero_quad_order_exits_one(self, capsys):
        # 0 must reach validation rather than fall back to the scene's order
        assert main(["gain", "--quad-order", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: argument --quad-order: value must be a whole number from 1 to 10000, got 0"
        ]

    def test_failed_verification_exits_two(self, capsys, monkeypatch):
        from capalink import verify

        monkeypatch.setattr(
            verify, "_verify_duality", lambda scene, seed: [verify._check("forced", 1.0, 0.5)]
        )
        assert main(["verify", "--suite", "duality"]) == 2

    def test_non_convergence_exits_three(self, capsys, monkeypatch):
        from capalink import channel, cli
        from capalink.numerics import NonConvergenceError

        def blow_up(*a, **k):
            raise NonConvergenceError("forced")

        monkeypatch.setattr(channel, "planar_oracle", blow_up)
        assert main(["gain", "--oracle"]) == 3

    @pytest.mark.parametrize("users", [1, 2])
    @pytest.mark.parametrize("argv", [["gain", "--oracle"], ["verify", "--suite", "oracle"]])
    def test_oracle_integrates_once(self, argv, users, capsys, monkeypatch, tmp_path):
        from capalink import channel

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return adaptive_integrate_2d(*args, **kwargs)

        cfg = scene_to_dict(scene_defaults())
        cfg["users"] = cfg["users"][:users]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(channel, "adaptive_integrate_2d", counted)
        assert main(argv + ["--config", str(path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [["gain", "--oracle"], ["verify", "--suite", "oracle"]])
    def test_unresolvable_phase_exits_three_before_integrating(
        self, argv, capsys, monkeypatch, tmp_path
    ):
        # k0 = 6.3e300: the users' relative phase spans 1.6e298 rad over the aperture
        from capalink import numerics

        calls = []
        gk_panels = numerics._gk_panels

        def counted(*args):
            calls.append(args)
            return gk_panels(*args)

        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({**scene_to_dict(scene_defaults()), "wavelength": 1e-300}))
        monkeypatch.setattr(numerics, "_gk_panels", counted)
        assert main(argv + ["--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "rad over the aperture" in errors[0]
        assert captured.err.splitlines()[-1] == errors[0]
        assert calls == []

    def test_singular_coupled_system_exits_three(self, capsys):
        # a subnormal termination overflows the single-element coupled solve
        argv = ["gain", "--aperture", "spda", "--elements", "1", "--mutual-coupling"]
        assert main(argv + ["--zt", "1e-320"]) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gain", "--aperture", "spda", "--elements", "40"],
            ["gain", "--aperture", "spda", "--occupation", "1.5"],
            ["region", "--link", "dl", "--splits", "1"],
            ["sweep", "--param", "aperture_area", "--start", "0", "--stop", "1"],
            ["sweep", "--param", "occupation", "--start", "0.5", "--stop", "2"],
            ["gain", "--aperture", "spda", "--mutual-coupling", "--zt", "-1"],
            ["gain", "--config", "GRID_ZERO"],
            ["sweep", "--param", "snr", "--start", "nan", "--stop", "10", "--steps", "2"],
            ["gain", "--aperture", "spda", "--elements", "5", "--mutual-coupling", "--za", "nan"],
            ["gain", "--mutual-coupling", "--z-scale=-inf"],
            ["gain", "--no-such-option"],
            ["gain", "--aperture", "spda", "--elements", "0"],
            ["sweep", "--param", "snr", "--start", "1e300", "--stop", "1e308", "--steps", "2"],
            ["capacity", "--quad-order", "100000000"],
            ["gain", "--config", "HUGE_ORDER"],
            ["scene", "print", "--mutual-coupling"],
            ["verify", "--za", "70"],
            ["sweep", "--param", "snr", "--start", "1", "--stop", "2", "--z-scale", "0.2"],
            ["gain", "--config", "MISSING"],
            ["ENV_MISSING", "gain"],
            ["capacity", "--link", "dl", "--output", "NO_DIR"],
            ["region", "--output", "WRITABLE", "--manifest", "NO_DIR"],
            ["region", "--link", "dl", "--splits", "100000001"],
            ["region", "--link", "ul", "--splits", "100000000"],
            ["region", "--splits", "201"],
            ["gain", "--config", "FRACTIONAL_ORDER"],
            ["gain", "--config", "FRACTIONAL_ELEMENTS"],
            ["sweep", "--param", "snr", "--start", "1", "--stop", "2", "--steps", "0"],
            ["sweep", "--param", "snr", "--start", "1", "--stop", "2", "--steps", "-1"],
            ["sweep", "--param", "snr", "--start", "1", "--stop", "2", "--steps", "1001"],
            ["sweep", "--param", "aperture_area", "--config", "SPDA", "--start", "1", "--stop", "2"],
            ["gain", "--config", "HUGE_ELEMENTS"],
            ["gain", "--aperture", "spda", "--elements", "1000000001"],
            # a config number is a JSON number, never a string or a boolean
            ["gain", "--config", "STRING_ORDER"],
            ["gain", "--config", "TRUE_ORDER"],
            ["gain", "--config", "STRING_WAVELENGTH"],
            # only verify reads a seed
            ["scene", "print", "--seed", "1"],
            ["gain", "--seed", "1"],
            ["capacity", "--seed", "1"],
            ["region", "--seed", "1"],
            ["sweep", "--param", "snr", "--start", "1", "--stop", "2", "--seed", "1"],
            # the oracle integrates over a planar aperture only
            ["gain", "--oracle", "--aperture", "spda", "--elements", "5"],
        ],
    )
    def test_bad_input_exits_one_with_one_error_line(self, argv, capsys, tmp_path, monkeypatch):
        paths = {
            "MISSING": tmp_path / "missing.json",
            "NO_DIR": tmp_path / "no-such-dir" / "out.json",
            "WRITABLE": tmp_path / "out.csv",
        }
        spda = {"type": "spda", "elements_x": 11, "elements_z": 11, "spacing": 0.05,
                "occupation": 0.5}
        for name, key, value in [("GRID_ZERO", "grid", [0, 0]),
                                 ("HUGE_ORDER", "quadrature_order", 100000000),
                                 ("FRACTIONAL_ORDER", "quadrature_order", 20.9),
                                 ("FRACTIONAL_ELEMENTS", "aperture", {**spda, "elements_x": 3.7}),
                                 ("SPDA", "aperture", spda),
                                 ("HUGE_ELEMENTS", "aperture", {**spda, "elements_x": 10**9 + 1}),
                                 ("STRING_ORDER", "quadrature_order", "20"),
                                 ("TRUE_ORDER", "quadrature_order", True),
                                 ("STRING_WAVELENGTH", "wavelength", "0.125")]:
            cfg = scene_to_dict(scene_defaults())
            cfg[key] = value
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(cfg))
        if argv[0] == "ENV_MISSING":
            monkeypatch.setenv("CAPALINK_CONFIG", str(paths["MISSING"]))
            argv = argv[1:]
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "changes,argv",
        [
            # k0^2 overflows a float in the downlink SNR coefficient
            ({"wavelength": 1e-300}, ["scene", "print"]),
            ({"wavelength": 1e-300}, ["capacity", "--link", "dl"]),
            ({"wavelength": 1e-300}, ["region", "--link", "dl"]),
            ({"wavelength": 1e-300}, ["verify", "--suite", "duality"]),
            ({"wavelength": 1e-300}, ["sweep", "--param", "snr", "--start", "1", "--stop", "2"]),
            # 2 pi / 5e-324 is inf: the wavelength is rejected before any phase
            ({"wavelength": 5e-324, "aperture": {"type": "linear", "length_x": 0.05,
                                                 "length_z": 1.0}}, ["gain"]),
            # the strip's closed-form gain squares its length
            ({"aperture": {"type": "linear", "length_x": 0.05, "length_z": 1e300}}, ["gain"]),
            # a 5e-324 wavelength on the default planar aperture
            ({"wavelength": 5e-324}, ["gain"]),
            # user 1's gain sum on the rule underflows to 0
            ({"users": FAR_USERS}, ["gain"]),
            ({"users": FAR_USERS}, ["capacity"]),
            ({"users": FAR_USERS}, ["sweep", "--param", "snr", "--start", "1", "--stop", "2"]),
            # user 1's squared distances overflow as well, and the phases with them
            ({"users": far_users(1e160)}, ["gain"]),
            # k0 (R2 - R1) overflows: the cross sum is nan
            ({"wavelength": 1e-307}, ["gain"]),
            ({"wavelength": 1e-307, "aperture": {"type": "linear", "length_x": 0.05,
                                                 "length_z": 1.0}}, ["gain"]),
        ],
    )
    def test_extreme_scene_values_exit_one(self, changes, argv, capsys, tmp_path):
        cfg = {**scene_to_dict(scene_defaults()), **changes}
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(cfg))
        assert main(argv + ["--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_user_names_the_gain_sums(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({**scene_to_dict(scene_defaults()), "users": FAR_USERS}))
        assert main(["gain", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: correlation_planar cannot normalize rho: its gain sums 0 and 0.0203092 "
            "have no positive finite geometric mean"
        ]
        # scene print computes no statistics
        assert main(["scene", "print", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--link", "dl", "--dual-trace"],
            ["sweep", "--param", "snr", "--start", "10", "--stop", "20", "--steps", "2"],
        ],
    )
    def test_vanishing_gains_reach_the_downlink_split(self, argv, capsys, tmp_path):
        # c1 c2 g1 g2 rho_bar underflows to 0 on a 1e-308 m wide aperture
        path = write_config(tmp_path, {"type": "planar", "length_x": 1e-308, "length_z": 0.5})
        code = main(argv + ["--config", path])
        captured = capsys.readouterr()
        if code == 0:
            assert_report(captured.out)
        else:
            assert code == 1 and captured.out == ""
            lines = captured.err.splitlines()
            assert [line for line in lines if line.startswith("error:")] == lines[-1:]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--link", "dl", "--scheme", "zf"],
            ["sweep", "--param", "snr", "--start", "10", "--stop", "20", "--steps", "2"],
        ],
    )
    def test_vanishing_gains_reach_zero_forcing(self, argv, capsys, tmp_path):
        # the ZF gains c'_k = c_k g_k rho_bar are subnormal, so 1/c'_k overflows
        path = write_config(tmp_path, {"type": "planar", "length_x": 1e-308, "length_z": 0.5})
        assert main(argv + ["--config", path]) == 0
        out = capsys.readouterr().out
        if argv[0] == "capacity":
            rates = json.loads(out)["rates"]
        else:
            rates = [row["R_dl_zf"] for row in csv_rows(out)]
        assert len(rates) == 2 and all(math.isfinite(r) for r in rates)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strip_gain_past_the_energy_bound_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, {"type": "linear", "length_x": 1e300, "length_z": 0.5})
        assert main(["gain", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line for line in lines if line.startswith("error:")] == [
            "error: gain 1.7243840013784052e+296 escaped the (0, 1/2) energy bound"
        ] == lines[-1:]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_csv_exits_one(self, capsys, tmp_path):
        # at 3080 dB the dual sum rate's product e1 e2 rho_bar overflows to inf
        cfg = {**scene_to_dict(scene_defaults()), "downlink_sum_snr_db": 3080.0}
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(cfg))
        assert main(["region", "--link", "dl", "--splits", "3", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line for line in lines if line.startswith("error:")] == [
            "error: out of range float value in a CSV row: inf,1.0066512146110255e+03"
        ] == lines[-1:]

    def test_largest_splits_and_steps_run(self, capsys):
        code, out = run(capsys, "region", "--link", "dl", "--splits", "2001")
        assert code == 0 and out.startswith("R1,R2\n")
        argv = ["sweep", "--param", "snr", "--start", "1", "--stop", "2"]
        most = LIMITS["steps"][1]
        code, out = run(capsys, *argv, "--steps", str(most))
        assert code == 0
        assert len(out.splitlines()) == most + 1

    def test_element_count_ceiling(self, capsys, tmp_path):
        # the ceiling is read at the input boundary, before any per-element work
        most = LIMITS["elements"][1]
        spda = {"type": "spda", "elements_x": most, "elements_z": most, "spacing": 0.01,
                "element_area": 1e-4}
        assert main(["scene", "print", "--config", write_config(tmp_path, spda)]) == 0
        assert main(["scene", "print", "--aperture", "spda", "--elements", str(most)]) == 0
        capsys.readouterr()
        for m in (most + 2, 10**9 + 1):
            for key in ("elements_x", "elements_z"):
                path = write_config(tmp_path, {**spda, key: m})
                assert main(["scene", "print", "--config", path]) == 1
                assert capsys.readouterr().err.splitlines() == [
                    f"error: {key} must be a whole number from 1 to {most}, got {m}"
                ]
            assert main(["scene", "print", "--aperture", "spda", "--elements", str(m)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: argument --elements: value must be a whole number "
                f"from 1 to {most}, got {m}"
            ]

    def test_full_precision_formatting(self, capsys):
        _, out = run(capsys, "region", "--link", "ul")
        value = out.strip().splitlines()[2].split(",")[0]
        mantissa = value.split("e")[0]
        assert len(mantissa.split(".")[1]) == 16


class TestWorkCounts:
    "Each command computes its statistics once: rule nodes and kernel points, counted."

    @pytest.mark.parametrize(
        "argv,rule_nodes,kernel_points",
        [
            (["scene", "print"], 0, 0),
            (["capacity", "--link", "ul"], 400, 0),
            (["capacity", "--link", "dl"], 400, 0),
            (["gain", "--aperture", "spda", "--elements", "41", "--mutual-coupling"], 0, 3362),
        ],
    )
    def test_counts(self, argv, rule_nodes, kernel_points, capsys, monkeypatch):
        counts = {"rule": 0, "kernel": 0}
        on_rule, kernel = channel.correlation_on_rule, channel.kernel_Q

        def counted_rule(wl, p1, p2, x, z, *rest):
            counts["rule"] += len(x) * len(z)
            return on_rule(wl, p1, p2, x, z, *rest)

        def counted_kernel(wl, p, x, z):
            counts["kernel"] += np.broadcast(x, z).size
            return kernel(wl, p, x, z)

        monkeypatch.setattr(channel, "correlation_on_rule", counted_rule)
        monkeypatch.setattr(channel, "kernel_Q", counted_kernel)
        assert main(argv) == 0
        assert counts == {"rule": rule_nodes, "kernel": kernel_points}
