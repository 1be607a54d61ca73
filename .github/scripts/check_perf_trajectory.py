"""Check the two speed floors of a perf-trajectory report.

    python .github/scripts/check_perf_trajectory.py REPORT.json

``REPORT.json`` is the output of ``benchmarks/perf_trajectory.py``.  Both
floors are ratios measured within that one run, so runner noise cancels:
the cold-fit speedup of the hist engine over exact on the deployed
GB-750xdepth-10 (``fit.engines.hist_speedup``, at least 3x) and the 1-row
packed predict speedup over the per-tree object path
(``predict.rows1.speedup``, at least 200x).  When ``GITHUB_STEP_SUMMARY``
is set, the fit-engine and predict sections are appended to the job
summary first.  Prints one line per floor and exits non-zero with a message
on the first missing or failed one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional, Sequence

#: (path in the report, floor, what the ratio measures).
FLOORS = (
    (("fit", "engines", "hist_speedup"), 3.0, "hist fit speedup at GB-750xdepth-10"),
    (("predict", "rows1", "speedup"), 200.0, "1-row packed predict speedup"),
)


def _lookup(report: Any, path: Sequence[str]) -> Any:
    value = report
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise SystemExit(f"report has no {'.'.join(path)}")
        value = value[key]
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="JSON written by benchmarks/perf_trajectory.py")
    args = parser.parse_args(argv)

    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        sections = {
            "fit_engines": _lookup(report, ("fit", "engines")),
            "predict": _lookup(report, ("predict",)),
        }
        with open(summary, "a", encoding="utf-8") as fh:
            name = os.path.basename(args.report)
            fh.write(f"### GB fit engines + packed prediction ({name})\n\n```json\n")
            fh.write(json.dumps(sections, indent=2))
            fh.write("\n```\n")
    for path, floor, what in FLOORS:
        value = _lookup(report, path)
        if not value >= floor:
            raise SystemExit(f"{what} {value:.2f}x < {floor:g}x")
        print(f"{what}: {value:.2f}x >= {floor:g}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
