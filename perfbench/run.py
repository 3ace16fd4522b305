"""capalink benchmark: two CLI workloads, checked against an independent reference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweeps_oracle --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --regen-reference

The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  `--regen-reference` rewrites the stored
reference of the fixed fault-(a) sweep scenes, fault_a_reference.json.

The workload runs in a fresh interpreter (worker.py) so that its peak memory
is its own; this process never imports capalink.  BLAS and OpenMP get one
thread.  Scratch files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

THREADS = "1"
"BLAS threads: one is steadier here than two (see README) and within nproc."
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
os.environ.pop("CAPALINK_CONFIG", None)

import numpy as np  # noqa: E402  (after the thread caps)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import scenes  # noqa: E402

SETUP_SAMPLES = 4
"""Fresh interpreters timed before the workload, and as many after it: the
machine's speed drifts over seconds, so samples that span the run give a
steadier median than samples taken back to back."""
WORKER_TIMEOUT_S = 150.0
FAULT_A_FILE = os.path.join(HERE, "fault_a_reference.json")
FAULT_A_AREAS = [float(a) for a in np.geomspace(0.25, 1e4, 9)]

TAIL_BAND = {"sweeps_oracle": (0.67, 0.89), "scenes_coupled": (0.87, 0.96)}
"""Quantile band of each workload's command times that `op_tail_ms` averages.

Every round has the same make-up, so each band falls inside one group of
like commands: `verify` (65-91 % of the sorted times) and
`region --link dl --splits 2001` (85-97 %).  The machine runs in phases up
to twice as fast as each other; a single percentile inside a group jumps
between the fast and the slow value as the share of fast commands crosses
its rank (p90 spread by 0.3-0.4 of its median across seeds), while the mean
over the band moves with that share."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "correct_digits": "digits",
}


def _scene_key(cfg):
    return json.dumps(cfg, sort_keys=True)


def regen_reference():
    variants = []
    for j in range(scenes.FAULT_A_VARIANTS):
        cfg = scenes.fault_a_scene(j)
        pos = checks.Scene.parse(cfg).pos
        rows = []
        for area in FAULT_A_AREAS:
            side = math.sqrt(area)
            st = ref.planar_stats(cfg["wavelength"], side, side, *pos)
            rows.append([st.g1, st.g2, st.rho.real, st.rho.imag, st.cert])
        variants.append({"config": cfg, "stats": rows})
        print(f"variant {j}: worst certificate {max(r[4] for r in rows):.1e}", flush=True)
    rows = ",\n".join("  " + json.dumps(v) for v in variants)
    with open(FAULT_A_FILE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"areas": {json.dumps(FAULT_A_AREAS)},\n "variants": [\n{rows}\n ]}}\n')


def _load_stored():
    with open(FAULT_A_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    table = {}
    for v in data["variants"]:
        table[_scene_key(v["config"])] = {
            a: ref.Stats(g1, g2, complex(re, im), cert)
            for a, (g1, g2, re, im, cert) in zip(data["areas"], v["stats"])
        }
    return lambda cfg: table.get(_scene_key(cfg), {})


def _worker(root, workdir, *extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"worker {extra[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def _setup_samples(root, workdir):
    return [_worker(root, workdir, "--mode", "setup", timeout=30) for _ in range(SETUP_SAMPLES)]


def _measure(args, root, workdir):
    setup = _setup_samples(root, workdir)
    _worker(
        root, workdir, "--mode", "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), timeout=WORKER_TIMEOUT_S,
    )
    setup += _setup_samples(root, workdir)
    with open(os.path.join(workdir, "results.json"), encoding="utf-8") as fh:
        res = json.load(fh)
    with open(os.path.join(workdir, "ops.jsonl"), encoding="utf-8") as fh:
        res["ops"] = [json.loads(line) for line in fh]
    return statistics.median(setup), res


def _timing(ops):
    seconds = [op["seconds"] for op in ops]
    return sum(op["rows"] for op in ops) / sum(seconds), seconds


def _band_mean(ms, lo, hi):
    "Mean of the sorted values from quantile `lo` to quantile `hi`."
    srt = np.sort(ms)
    return float(srt[int(lo * len(srt)):math.ceil(hi * len(srt))].mean())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(scenes.ROUNDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regen-reference", action="store_true")
    args = ap.parse_args()
    if args.regen_reference:
        regen_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "capalink", "cli.py")):
        print(f"error: no capalink source under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s, res = _measure(args, root, workdir)
        stored = _load_stored()
        attempted = failed = 0
        unexpected = []
        digits = []
        cert = 0.0
        by_kind = {}
        for op in res["ops"]:
            o = checks.check_op(op, stored)
            cert = max(cert, o.cert)
            label = op["kind"] + (f"/fault-{op['fault']}" if op["fault"] else "")
            by_kind.setdefault(label, []).append(op["seconds"])
            attempted += o.rows
            failed += len(o.failed_rows)
            digits += o.digits
            if o.failed_rows and op["fault"] is None:
                unexpected.append(f"{op['kind']} {' '.join(op['argv'])}: {'; '.join(o.reasons)[:500]}")
        for kind, secs in sorted(by_kind.items()):
            print(f"  {kind:22s} {len(secs):5d} commands, median {1e3 * statistics.median(secs):9.2f} ms",
                  file=sys.stderr)
        print(f"  worst reference certificate {cert:.1e}", file=sys.stderr)
        for line in unexpected[:20]:
            print(f"unexpected failure: {line}", file=sys.stderr)
        if args.trace:
            plain = [op for op in res["ops"] if not op["traced"]]
            traced = [op for op in res["ops"] if op["traced"]]
            overhead = 100.0 * (1.0 - _timing(traced)[0] / _timing(plain)[0])
            layer_units = {k: ("ms" if k.endswith("_ms") else "count") for k in res["per_layer"]}
            layer_units["coupling.matrix_bytes"] = "bytes-computed"
            metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in res["per_layer"].items()}
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            spans = os.path.relpath(os.path.join(workdir, "spans.json"), root)
            print(f"traced spans written to {spans}", file=sys.stderr)
        else:
            ops_per_s, seconds = _timing(res["ops"])
            ms = 1e3 * np.asarray(seconds)
            values = {
                "setup_s": setup_s,
                "ops_per_s": ops_per_s,
                "op_p50_ms": float(np.percentile(ms, 50)),
                "op_tail_ms": _band_mean(ms, *TAIL_BAND[args.workload]),
                "peak_rss_mb": res["peak_rss_mb"],
                "correct_digits": float(np.mean(digits)),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(
            f"{args.workload} seed {args.seed}: {res['rounds']} rounds, {len(res['ops'])} commands, "
            f"{attempted} operations, {failed} failed, tail band {TAIL_BAND[args.workload]}",
            file=sys.stderr,
        )
        print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            for name in os.listdir(workdir):
                if name != "spans.json":
                    os.remove(os.path.join(workdir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
