"""Command-line front end: scene print, gain, capacity, region, sweep, verify.

This module parses arguments and formats reports; every statistic, limit
and check comes from the library modules.

Single-scene reports are strict JSON (no NaN or infinities); regions and
sweeps emit CSV, as strict, with a header row and 17-significant-digit
scientific formatting so runs are reproducible byte for byte given the same
arguments.

Exit codes: 0 success, 1 validation error (a rejected command line, numeric
options that scenario.read_number refuses included, any ValueError that is
not a numeric failure, a float overflow from extreme scene values, or a
config, report or manifest file that cannot be read or written), 2
verification failure, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, channel, scenario, verify
from .coupling import CouplingModel
from .geometry import DiscreteAperture, LinearAperture, PlanarAperture
from .numerics import NonConvergenceError
from .scenario import Scene, SceneError, read_number, scene_defaults, scene_to_dict, validate

CONFIG_ENV_VAR = "CAPALINK_CONFIG"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_NONCONVERGENCE = 3


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(stream, header: list[str], rows: list[list[float]]):
    "Header and full-precision rows: NaN or an infinity raises ValueError, as in _json."
    stream.write(",".join(header) + "\n")
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise ValueError(f"out of range float value in a CSV row: {','.join(map(_fmt, row))}")
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _json(obj) -> str:
    "Indented, key-sorted strict JSON: NaN or an infinity raises ValueError."
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(args, scene: Scene, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        checksum = hashlib.sha256(text.encode()).hexdigest()
        if args.manifest:
            manifest = {
                "command": args.command,
                "version": __version__,
                "seed": getattr(args, "seed", None),
                "scene": scene_to_dict(scene),
                "outputs": {args.output: checksum},
            }
            with open(args.manifest, "w", encoding="utf-8") as fh:
                fh.write(_json(manifest))
    else:
        sys.stdout.write(text)


def _resolve_scene(args) -> Scene:
    if args.config:
        scene = scenario.load_scene(args.config)
    elif os.environ.get(CONFIG_ENV_VAR):
        scene = scenario.load_scene(os.environ[CONFIG_ENV_VAR])
    else:
        scene = scene_defaults()
    if getattr(args, "quad_order", None) is not None:
        scene = replace(scene, quadrature_order=args.quad_order)
    if getattr(args, "aperture", None):
        scene = _override_aperture(scene, args.aperture, args)
    is_discrete = isinstance(scene.aperture, DiscreteAperture)
    if getattr(args, "param", None) == "occupation" and not is_discrete:
        scene = _override_aperture(scene, "spda", args)  # only an SPDA has an occupation
    return scene


def _override_aperture(scene: Scene, kind: str, args) -> Scene:
    ap = scene.aperture
    if isinstance(ap, DiscreteAperture):
        length_x, length_z = ap.span_x, ap.span_z
    else:
        length_x, length_z = ap.length_x, ap.length_z
    if kind == "planar":
        return replace(scene, aperture=PlanarAperture(length_x, length_z))
    if kind == "linear":
        return replace(scene, aperture=LinearAperture(length_x, length_z))
    # SPDA override keeps the physical span and fills it with an odd element
    # count at the requested occupation.
    m = args.elements
    d = length_z / m
    return replace(scene, aperture=DiscreteAperture(m, m, d, args.occupation * d * d))


def _coupling_model(args) -> CouplingModel | None:
    if not args.mutual_coupling:
        return None
    return CouplingModel(args.za, args.zt, args.z_scale)


def _warn(scene: Scene):
    "Print the scene's validation warnings to stderr."
    for f in validate(scene):
        print(f"warning: {f.message}", file=sys.stderr)


def cmd_gain(args) -> int:
    scene = _resolve_scene(args)
    if args.oracle and not isinstance(scene.aperture, PlanarAperture):
        raise SceneError("--oracle requires a planar aperture")
    _warn(scene)
    stats = scenario.channel_pair(scene, coupling_model=_coupling_model(args))
    report: dict = {"command": "gain", "version": __version__}
    for k, g in enumerate(stats.gains, start=1):
        report[f"g{k}"] = g
    if stats.rho is not None:
        ch = stats.pair
        report.update(
            rho_abs2=abs(ch.rho) ** 2,
            rho_bar=ch.rho_bar,
            rho_real=ch.rho.real,
            rho_imag=ch.rho.imag,
        )
    if args.oracle:
        gains, rho = channel.planar_oracle(scene.aperture, scene.users, scene.wavelength)
        for k, o in enumerate(gains, start=1):
            report[f"oracle_g{k}"] = o
            report[f"gap_g{k}"] = abs(report[f"g{k}"] - o) / o
        if rho is not None:
            report["oracle_rho_abs2"] = abs(rho) ** 2
    _emit(args, scene, _json(report))
    return EXIT_OK


def cmd_capacity(args) -> int:
    scene = _resolve_scene(args)
    _warn(scene)
    stats = scenario.channel_pair(scene, coupling_model=_coupling_model(args))
    rates = scenario.rates(scene, stats, args.link)
    link, zf = args.link, args.scheme == "zf"
    report: dict = {"command": "capacity", "version": __version__, "link": link,
                    "scheme": args.scheme}
    if stats.rho is None:
        report["capacity"] = rates[f"C1_{link}"]
    else:
        ch = stats.pair
        report.update(g1=ch.g1, g2=ch.g2, rho_abs2=abs(ch.rho) ** 2)
        report["sum_rate"] = rates[f"R_{link}_zf" if zf else f"C_{link}"]
        if link == "dl":
            r = rates["rates_zf" if zf else "rates"]
            report["rates"] = [r.r1, r.r2]
            if args.dual_trace and not zf:
                s = rates["split"]
                xi = s.xi if math.isfinite(s.xi) else str(s.xi)
                report["dual_trace"] = {"p1": s.p1, "p2": s.p2, "xi": xi, "branch": s.branch}
        elif not zf:
            for key in ("rates_2_then_1", "rates_1_then_2"):
                report[key] = [rates[key].r1, rates[key].r2]
    _emit(args, scene, _json(report))
    return EXIT_OK


def cmd_region(args) -> int:
    if args.link == "ul" and args.splits is not None:
        raise SceneError("--splits applies to the downlink region only (--link dl)")
    scene = _resolve_scene(args)
    _warn(scene)
    stats = scenario.channel_pair(scene, coupling_model=_coupling_model(args))
    splits = scenario.DEFAULT_SPLITS if args.splits is None else args.splits
    vertices = scenario.region(scene, stats, args.link, splits)
    buf = io.StringIO()
    _write_csv(buf, ["R1", "R2"], [list(v) for v in vertices])
    _emit(args, scene, buf.getvalue())
    return EXIT_OK


def cmd_sweep(args) -> int:
    scene = _resolve_scene(args)
    _warn(scene)
    rows = scenario.sweep(scene, args.param, args.start, args.stop, args.steps)
    buf = io.StringIO()
    _write_csv(buf, [args.param, *scenario.SWEEP_COLUMNS], rows)
    _emit(args, scene, buf.getvalue())
    return EXIT_OK


def cmd_scene(args) -> int:
    scene = _resolve_scene(args)
    findings = validate(scene)
    resolved = scene_to_dict(scene)
    resolved["derived"] = {
        "k0": scene.wavelength.k0,
        "eta": scene.wavelength.eta,
        "isotropic_rx_area": scene.wavelength.isotropic_rx_area,
        "ul_snr_linear": list(scene.ul_snr_linear),
        "findings": [[f.severity, f.message] for f in findings],
    }
    if not isinstance(scene.aperture, DiscreteAperture):
        resolved["derived"]["quadrature_order"] = scenario.auto_quadrature_order(scene)
    try:
        resolved["derived"]["downlink_power"] = scene.downlink_power
    except SceneError:
        pass
    _emit(args, scene, _json(resolved))
    return EXIT_OK


def cmd_verify(args) -> int:
    scene = _resolve_scene(args)
    _warn(scene)
    checks = verify.run_suites(scene, args.suite, args.seed)
    ok = all(c["passed"] for c in checks)
    report = {"command": "verify", "suite": args.suite, "passed": ok, "checks": checks}
    _emit(args, scene, _json(report))
    return EXIT_OK if ok else EXIT_VERIFICATION


class _UsageError(Exception):
    "A command line argparse rejects; main reports it as one error: line."


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Number:
    """The type of every numeric option: its text parsed as an int for a
    whole-number option (limit, a key of scenario.LIMITS) or as a float, then
    read by scenario.read_number.  A rejected value is one argparse error."""

    def __init__(self, limit: str | None = None):
        self.limit = limit

    def __call__(self, text: str):
        try:
            return read_number("value", int(text) if self.limit else float(text), self.limit)
        except ValueError as exc:  # SceneError, or text that is not a number
            raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help=f"scene config JSON (or ${CONFIG_ENV_VAR})")
    p.add_argument("--output", help="write the report to this file")
    p.add_argument("--manifest", help="write a run manifest JSON to this file")
    p.add_argument(
        "--quad-order",
        type=_Number("quadrature_order"),
        help="Chebyshev rule order (default by area)",
    )
    p.add_argument(
        "--aperture", choices=["planar", "linear", "spda"], help="override aperture type"
    )
    p.add_argument("--occupation", type=_Number(), default=1.0, help="SPDA occupation ratio")
    p.add_argument(
        "--elements", type=_Number("elements"), default=41, help="SPDA elements per side"
    )


def _add_coupling(p: argparse.ArgumentParser):
    "Mutual-coupling options, on the commands that compute coupled statistics."
    p.add_argument("--mutual-coupling", action="store_true")
    defaults = CouplingModel  # its field defaults
    p.add_argument(
        "--za", type=_Number(), default=defaults.z_antenna, help="antenna impedance, ohms"
    )
    p.add_argument(
        "--zt", type=_Number(), default=defaults.z_termination, help="termination impedance, ohms"
    )
    p.add_argument(
        "--z-scale", type=_Number(), default=defaults.impedance_scale, help="mutual impedance scale"
    )


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="capalink",
        description="Capacity limits of continuous-aperture two-user MISO links",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="echo the fully resolved scene")
    p.add_argument("action", choices=["print"])
    _add_common(p)
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("gain", help="channel gains and correlation")
    _add_common(p)
    _add_coupling(p)
    p.add_argument("--oracle", action="store_true", help="cross-check against adaptive integration")
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("capacity", help="sum rates and per-user rates")
    _add_common(p)
    _add_coupling(p)
    p.add_argument("--link", choices=["ul", "dl"], default="ul")
    p.add_argument("--scheme", choices=["capacity", "zf"], default="capacity")
    p.add_argument("--dual-trace", action="store_true", help="report the dual power split")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("region", help="capacity region vertices as CSV")
    _add_common(p)
    _add_coupling(p)
    p.add_argument("--link", choices=["ul", "dl"], default="ul")
    p.add_argument(
        "--splits",
        type=_Number("splits"),
        help=f"downlink power splits (default {scenario.DEFAULT_SPLITS})",
    )
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sweep", help="parameter sweep as CSV")
    _add_common(p)
    p.add_argument("--param", choices=scenario.SWEEP_PARAMS, required=True)
    p.add_argument("--start", type=_Number(), required=True)
    p.add_argument("--stop", type=_Number(), required=True)
    p.add_argument("--steps", type=_Number("steps"), default=9)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run machine-checkable consistency suites")
    _add_common(p)
    p.add_argument(
        "--seed", type=_Number("seed"), default=0, help="seed of the duality suite's interior split"
    )
    p.add_argument("--suite", choices=["all", "whitening", "duality", "oracle"], default="all")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, SceneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (np.linalg.LinAlgError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    # after the clause above: LinAlgError subclasses ValueError
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:  # float arithmetic on extreme scene values
        print(f"error: a scene value is out of float range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
