"""Hypothesis fuzz test of the scene config contents.

Configs are drawn at random: two users in front of a planar, linear or
discrete aperture, with optional budgets and rule orders, and then up to
three faults: a value replaced by a tiny or huge number, a fraction, null
or a wrong type, a key deleted, or an unknown key added.  Each config runs
a cheap command, which must end with an exit code in {0, 1, 2, 3}, print no
traceback, print exactly one error: line, as its last line, on exit 1 or 3,
and leave strict JSON or a CSV with a header.  Sizes stay bounded: at most
15 x 15 elements, rule orders up to 64 and 50 power splits; larger counts
appear only where they are rejected before any work.  The search is
derandomized, so a run is reproducible.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from capalink.cli import main
from test_cli_fuzz import assert_report

REPLACEMENTS = [0, -1.0, 5e-324, 1e-300, 1e300, math.inf, math.nan, 3.7, 20.9,
                None, "x", "1", True, [], {}]
"What a fault puts in place of a value: tiny and huge numbers, fractions and wrong types."

PLANAR = st.fixed_dictionaries(
    {"type": st.just("planar"), "length_x": st.floats(0.1, 2.0), "length_z": st.floats(0.1, 2.0)}
)
LINEAR = st.fixed_dictionaries(
    {"type": st.just("linear"), "length_x": st.floats(0.01, 0.1), "length_z": st.floats(0.5, 4.0)}
)
SPDA = st.fixed_dictionaries(
    {"type": st.just("spda"), "elements_x": st.sampled_from([1, 3, 5, 15]),
     "elements_z": st.sampled_from([1, 3, 5, 15]), "spacing": st.floats(0.02, 0.1),
     "occupation": st.floats(0.05, 1.0)},
)
USER = st.fixed_dictionaries(
    {"range": st.floats(2.0, 50.0), "theta_deg": st.floats(10.0, 170.0),
     "phi_deg": st.floats(10.0, 170.0)},
    optional={"rx_area": st.floats(1e-4, 1e-2), "noise": st.floats(0.1, 10.0),
              "snr_db": st.floats(-10.0, 60.0)},
)
SCENE = st.fixed_dictionaries(
    {"wavelength": st.floats(0.05, 0.5), "aperture": st.one_of(PLANAR, LINEAR, SPDA),
     "users": st.lists(USER, min_size=2, max_size=2), "downlink_power": st.floats(0.1, 10.0)},
    optional={"downlink_sum_snr_db": st.floats(0.0, 60.0),
              "quadrature_order": st.sampled_from([1, 7, 20, 64])},
)
"Configs a user might write: bounded sizes, two users, optional keys."


def _slots(obj) -> list:
    "Every (container, key) pair in a nested config, list items included."
    out = []
    for key in (list(obj) if isinstance(obj, dict) else range(len(obj))):
        out.append((obj, key))
        if isinstance(obj[key], (dict, list)):
            out += _slots(obj[key])
    return out


@st.composite
def configs(draw):
    "A plausible config with up to three faults: a value replaced or deleted, or an unknown key."
    cfg = draw(SCENE)
    for _ in range(draw(st.integers(0, 3))):
        holder, key = draw(st.sampled_from(_slots(cfg)))
        fault = draw(st.sampled_from(["replace", "delete", "unknown key"]))
        if fault == "replace":
            holder[key] = draw(st.sampled_from(REPLACEMENTS))
        elif fault == "delete":
            del holder[key]
        else:
            (holder if isinstance(holder, dict) else cfg)["bogus"] = 1
    return cfg


COMMANDS = st.one_of(
    st.sampled_from([
        ["scene", "print"],
        ["gain"],
        ["capacity", "--link", "ul"],
        ["capacity", "--link", "dl", "--dual-trace"],
        ["capacity", "--link", "dl", "--scheme", "zf"],
        ["region", "--link", "ul"],
        ["verify", "--suite", "duality"],
    ]),
    st.integers(2, 50).map(lambda n: ["region", "--link", "dl", "--splits", str(n)]),
)


@given(cfg=configs(), argv=COMMANDS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_any_config_exits_cleanly(tmp_path_factory, cfg, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--config", str(path)])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code in (1, 3):
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    if out.getvalue():
        assert_report(out.getvalue())
