"""Time and peak memory of one mutually coupled `capalink gain` on a large array.

    PYTHONPATH=src python tests/coupled_scale.py ELEMENTS [MAX_RSS_MB]

Writes the default scene with an ELEMENTS x ELEMENTS array at lambda/3
spacing (occupation 0.5) to a temporary config file, runs
`gain --mutual-coupling --config FILE` in this interpreter, and prints one
JSON line: elements, exit code, whether stdout parsed as strict JSON,
seconds, and peak resident set size in MB.  Exits 1 unless the command
exits 0 with strict JSON and, if MAX_RSS_MB is given, peaks below it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time

from capalink import cli
from capalink.scenario import scene_defaults, scene_to_dict


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MB.

    Linux carries ru_maxrss over exec, so it also counts the process that
    spawned this one (a test runner, say); VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _strict(text: str) -> bool:
    def reject(constant):
        raise ValueError(constant)

    try:
        json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    return True


def main(argv) -> int:
    m = int(argv[0])
    limit = float(argv[1]) if len(argv) > 1 else None
    cfg = scene_to_dict(scene_defaults())
    spacing = cfg["wavelength"] / 3.0
    cfg["aperture"] = {
        "type": "spda", "elements_x": m, "elements_z": m, "spacing": spacing, "occupation": 0.5
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["gain", "--mutual-coupling", "--config", path])
        seconds = time.perf_counter() - start
    peak_mb = _peak_rss_mb()
    strict = _strict(out.getvalue())
    print(json.dumps({"elements": m, "exit": code, "strict_json": strict,
                      "seconds": round(seconds, 3), "peak_rss_mb": round(peak_mb, 1)}))
    ok = code == 0 and strict and (limit is None or peak_mb < limit)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
