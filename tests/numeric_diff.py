"""Compare two directories of CLI outputs number by number.

    python tests/numeric_diff.py BASE_DIR HEAD_DIR [REL_TOL]

Every file in BASE_DIR must exist in HEAD_DIR and the other way round.  In
each pair the text with its numbers blanked out must be identical, and every
number must agree with its counterpart within REL_TOL (default 1e-13)
relative to the larger magnitude.  Prints the worst relative difference and
the count of differing numbers per file, and exits 1 on any mismatch, so a
change that moves outputs only in their last digits shows that here while a
byte-for-byte diff fails.
"""

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|-?Infinity|NaN")


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(base: str, head: str, rel_tol: float) -> str:
    "One line: the mismatch found, or how many numbers differ and by how much."
    if NUMBER.sub("#", base) != NUMBER.sub("#", head):
        return "MISMATCH: text outside the numbers differs"
    pairs = zip(NUMBER.findall(base), NUMBER.findall(head))
    diffs = [_relative(float(a), float(b)) for a, b in pairs if a != b]
    worst = max(diffs, default=0.0)
    verdict = "ok" if worst <= rel_tol else "MISMATCH"
    return f"{verdict}: {len(diffs)} numbers differ, worst by {worst:.3g} relative"


def main(argv) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, head_dir = Path(argv[1]), Path(argv[2])
    rel_tol = float(argv[3]) if len(argv) == 4 else 1e-13
    names = sorted({p.name for p in base_dir.iterdir()} | {p.name for p in head_dir.iterdir()})
    failed = False
    for name in names:
        if not (base_dir / name).is_file() or not (head_dir / name).is_file():
            print(f"{name}: MISMATCH: present on one side only")
            failed = True
            continue
        base = (base_dir / name).read_text(encoding="utf-8")
        head = (head_dir / name).read_text(encoding="utf-8")
        line = compare(base, head, rel_tol)
        failed |= line.startswith("MISMATCH")
        print(f"{name}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
