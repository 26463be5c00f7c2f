"""Per-layer diff of two traced benchmark runs.

    python3 bench/diff.py BEFORE AFTER

Each argument is a trace file written by ``bench/run.py --trace 1`` (under
``.bench_out/``) or saved standard output of such a run, whose last line is
the JSON result.  Run both sides with the same workload and seed.  Every
metric is printed with both values, the change and the ratio, largest
relative change first, so a perf change shows in which layer its saving
appears.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> dict[str, float]:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = json.loads(text.strip().splitlines()[-1])
    metrics = dict(doc["metrics"])
    for name, value in doc.get("end_to_end", {}).items():
        metrics[f"end_to_end.{name}"] = value
    return {k: v["value"] if isinstance(v, dict) else v for k, v in metrics.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    before, after = (load(path) for path in argv)
    rows = []
    for name in before.keys() | after.keys():
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            rows.append((float("inf"), name, a, b, None, None))
            continue
        ratio = b / a if a else (1.0 if b == a else float("inf"))
        rows.append((abs(ratio - 1), name, a, b, b - a, ratio))
    rows.sort(key=lambda row: (-row[0], row[1]))
    print(f"{'metric':48s} {'before':>12s} {'after':>12s} {'change':>12s} {'ratio':>8s}")
    for _, name, a, b, delta, ratio in rows:
        cells = [f"{x:12.6g}" if isinstance(x, (int, float)) else f"{'-':>12s}" for x in (a, b, delta)]
        shown = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8s}"
        print(f"{name:48s} {' '.join(cells)} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
