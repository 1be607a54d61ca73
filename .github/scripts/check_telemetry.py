"""Check a serve fleet's telemetry, and optionally a memo server's.

    python .github/scripts/check_telemetry.py REPORT.json --replicas 2 \
        [--memo memo://127.0.0.1:7501]

``REPORT.json`` is the output of ``repro-chem query fleet-stats``.  It must
hold ``--replicas`` replica snapshots, each with ``schema_version`` 1 and a
non-zero ``serve.requests`` count.  With ``--memo``, the memo server's
telemetry is scraped over the wire and must carry ``schema_version`` 1 and
a non-zero ``wire.frames`` count.  Prints one line per checked service and
exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.parallel.service import parse_memo_url
from repro.parallel.wire import fetch_telemetry

#: The snapshot schema this check understands.
SCHEMA_VERSION = 1


def _check_schema(name: str, doc: dict) -> None:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SystemExit(f"{name}: schema_version {version!r}, expected {SCHEMA_VERSION}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="JSON written by `repro-chem query fleet-stats`")
    parser.add_argument("--replicas", type=int, required=True,
                        help="number of replicas the report must hold")
    parser.add_argument("--memo", help="memo://host:port to scrape as well")
    args = parser.parse_args(argv)

    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    if len(report) != args.replicas:
        raise SystemExit(f"expected {args.replicas} replicas, got {sorted(report)}")
    for url, doc in report.items():
        _check_schema(url, doc)
        served = sum(
            value
            for key, value in doc["metrics"]["counters"].items()
            if key.startswith("serve.requests{")
        )
        if served <= 0:
            raise SystemExit(f"{url}: no requests served: {doc['metrics']['counters']}")
        print(f"{url}: schema_version={SCHEMA_VERSION}, {served} requests served")

    if args.memo:
        host, port = parse_memo_url(args.memo)
        doc = fetch_telemetry(host, port)
        _check_schema(args.memo, doc)
        frames = doc["metrics"]["counters"].get("wire.frames", 0)
        if frames <= 0:
            raise SystemExit(f"{args.memo}: no frames served")
        print(f"{args.memo}: schema_version={SCHEMA_VERSION}, {frames} frames served")
    return 0


if __name__ == "__main__":
    sys.exit(main())
