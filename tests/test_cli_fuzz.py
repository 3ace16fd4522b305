"""Hypothesis fuzz test of the command line.

Every command line built from the six commands and their options, valid or
not, must end with an exit code in {0, 1, 2, 3}, print no traceback, and
leave a report that is strict JSON or a CSV with a header.  Values are
bounded so that no example starts a large computation: at most 15 x 15
coupled elements, 300 power splits, 4 sweep rows below 100 m^2 and rule
orders up to 64 (larger values appear only past their ceilings, where they
are rejected before any work).  Each whole-number option also draws the two
values just outside its range in scenario.LIMITS.  The search is
derandomized, so a run is reproducible.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capalink.cli import main
from capalink.scenario import LIMITS, scene_defaults, scene_to_dict


def _mostly(valid, invalid):
    "Values from valid three times in four, else from the list of invalid ones."
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(invalid) if i == 0 else valid
    ).map(str)


def past_limits(key: str) -> list[int]:
    "The whole numbers just outside LIMITS[key]: lo - 1 and, if bounded, hi + 1."
    lo, hi = LIMITS[key]
    return [lo - 1] + ([hi + 1] if math.isfinite(hi) else [])


def _float(lo, hi):
    "Floats in [lo, hi], else spellings the float options must reject."
    return _mostly(st.floats(lo, hi), ["nan", "inf", "-inf", "1e308", "x"])


COMMON = {
    "--quad-order": _mostly(
        st.sampled_from([1, 7, 20, 64]), [-1, 0, 10**8, *past_limits("quadrature_order")]
    ),
    "--aperture": st.sampled_from(["planar", "linear", "spda", "bogus"]),
    "--occupation": _float(0.05, 1.0),
    "--elements": _mostly(st.sampled_from([1, 3, 5, 15]), [-3, 0, 4, *past_limits("elements")]),
}
COUPLING = {
    "--mutual-coupling": None,
    "--za": _float(1.0, 200.0),
    "--zt": _float(1.0, 200.0),
    "--z-scale": _float(0.0, 1.0),
}
COMMANDS = {
    "scene": {},
    "gain": {"--oracle": None},
    "capacity": {
        "--link": st.sampled_from(["ul", "dl"]),
        "--scheme": st.sampled_from(["capacity", "zf"]),
        "--dual-trace": None,
    },
    "region": {
        "--link": st.sampled_from(["ul", "dl"]),
        "--splits": _mostly(st.integers(2, 300), [-1, 0, 1, 10**8, *past_limits("splits")]),
    },
    "sweep": {"--steps": _mostly(st.integers(1, 4), [-2, 0, 1001, 10**9, *past_limits("steps")])},
    "verify": {
        "--suite": st.sampled_from(["all", "whitening", "duality", "oracle", "bogus"]),
        "--seed": _mostly(st.integers(0, 10**6), [-2, *past_limits("seed")]),
    },
}
COUPLED = {"gain", "capacity", "region"}
"Commands that take the coupling options; the others must reject them."
SWEEP_REQUIRED = {
    "--param": st.sampled_from(["aperture_area", "occupation", "snr"]),
    "--start": _mostly(st.floats(0.05, 100.0), ["-1", "0", "nan", "1e308", "x"]),
    "--stop": _mostly(st.floats(0.05, 100.0), ["-1", "0", "nan", "1e308", "x"]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    "Paths the file options draw from: readable, missing, a directory, unwritable."
    d = tmp_path_factory.mktemp("fuzz")
    config = d / "scene.json"
    config.write_text(json.dumps(scene_to_dict(scene_defaults())))
    report, manifest, missing = d / "report.txt", d / "manifest.json", d / "no-dir" / "x"
    return {
        "report": report,
        "--config": st.sampled_from([str(config)] * 2 + [str(d / "missing.json"), str(d)]),
        "--output": st.sampled_from([str(report)] * 2 + [str(missing), str(d)]),
        "--manifest": st.sampled_from([str(manifest)] * 2 + [str(missing)]),
    }


@st.composite
def command_lines(draw, files):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = {**COMMON, **COMMANDS[command]}
    options.update((k, files[k]) for k in ("--config", "--output", "--manifest"))
    if command in COUPLED or draw(st.integers(0, 3)) == 0:
        options.update(COUPLING)
    argv = [command] + (["print"] if command == "scene" else [])
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=5, unique=True))
    if "--mutual-coupling" in chosen and "--elements" not in chosen:
        chosen.append("--elements")  # the default 41 x 41 coupled solve is too slow here
    if command == "sweep":
        chosen += list(SWEEP_REQUIRED)
        options.update(SWEEP_REQUIRED)
    for flag in chosen:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    return argv


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def assert_report(text: str):
    "Strict JSON, or a CSV whose header names its columns and whose rows are numbers."
    if text.startswith("{"):
        json.loads(text, parse_constant=_reject)
        return
    header, *rows = text.splitlines()
    columns = header.split(",")
    for name in columns:
        with pytest.raises(ValueError):
            float(name)
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(columns)
        [float(c) for c in cells]


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_any_command_line_exits_cleanly(files, data):
    argv = data.draw(command_lines(files))
    files["report"].unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (1, 3):
        assert err.getvalue().splitlines()[-1].startswith("error:")
    report = out.getvalue()
    if files["report"].exists():
        report = files["report"].read_text()
    if report:
        assert_report(report)
