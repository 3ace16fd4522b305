"""The process that runs a workload: one fresh interpreter calling capalink.cli.main.

    python3 perfbench/worker.py --root DIR --workdir DIR --mode setup
    python3 perfbench/worker.py --root DIR --workdir DIR --mode run \\
        --workload NAME --seed N --seconds S --trace 0|1

`setup` imports the CLI, runs the warm-up command and exits; the caller
times the whole process.  `run` does the same untimed, then repeats whole
rounds of the workload until `--seconds` have passed.  It writes every
command's argv, config, exit code, output and wall time to WORKDIR/ops.jsonl
and the run's summary to WORKDIR/results.json.  With `--trace 1` odd rounds
run under the tracer and even rounds without it, so the two halves give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import capalink.cli

    if not os.path.abspath(capalink.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"capalink was imported from {capalink.cli.__file__}, not from {src}")
    return capalink.cli


def _call(cli, argv):
    """Run one command; an uncaught exception is what a shell user sees as a
    traceback and exit code 1, so it is recorded the same way."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - the command's failure is the record
            rc = 1
            traceback.print_exc()
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def run(args, cli):
    sys.path.insert(0, HERE)
    import scenes
    from tracing import Tracer

    make_round = scenes.ROUNDS[args.workload]
    tracer = Tracer() if args.trace else None
    with open(os.path.join(args.workdir, "ops.jsonl"), "w", encoding="utf-8") as log:
        rnd = 0
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < args.seconds or (tracer and rnd < 2):
            traced = bool(tracer) and rnd % 2 == 1
            ops = make_round(args.seed, rnd)
            paths = []
            for i, op in enumerate(ops):
                path = os.path.join(args.workdir, f"r{rnd}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op["config"], fh)
                paths.append(path)
            records = []
            if traced:
                tracer.install()
            try:
                for op, path in zip(ops, paths):
                    dt, rc, out, err = _call(cli, op["argv"] + ["--config", path])
                    records.append({**op, "round": rnd, "traced": traced, "seconds": dt,
                                    "rc": rc, "stdout": out, "stderr": err[-2000:]})
            finally:
                if traced:
                    tracer.uninstall()
            # Streamed out per round so that the records do not grow this process.
            for rec in records:
                log.write(json.dumps(rec) + "\n")
            rnd += 1
    result = {"rounds": rnd, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["per_layer"] = {**tracer.self_ms(), **{k: float(v) for k, v in tracer.counts.items()}}
        with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"], "spans": tracer.spans}, fh)
    with open(os.path.join(args.workdir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    cli = _import_cli(args.root)
    sys.path.insert(0, HERE)
    from scenes import WARMUP_ARGV

    _, rc, _, err = _call(cli, list(WARMUP_ARGV))
    if rc != 0:
        raise SystemExit(f"warm-up command failed with exit code {rc}: {err}")
    if args.mode == "run":
        run(args, cli)


if __name__ == "__main__":
    main()
