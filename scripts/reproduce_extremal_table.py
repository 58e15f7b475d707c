#!/usr/bin/env python3
"""Rebuild the catalog of certified extremal families and print every row.

Each shipped family is constructed from scratch, measured, bounded by the
dual LP at u = 2d - 1 and checked for attainment.  A row that fails any of
these steps is reported and the script exits nonzero.
"""

import argparse
import json
import sys
import time

from expanderlp import TABLE_SPECS
from expanderlp.certify import catalog_row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args()

    start = time.monotonic()
    rows = [catalog_row(spec) for spec in TABLE_SPECS]
    elapsed = time.monotonic() - start

    if args.json:
        print(json.dumps({"rows": rows, "seconds": round(elapsed, 3)}, indent=2))
    else:
        width = max(len(r["name"]) for r in rows)
        print(f"{'family':>{width}} {'v':>4} {'k':>2} {'girth':>5} {'d':>2} {'bound':>9} tight")
        for r in rows:
            bound = "-" if r["bound"] is None else f"{r['bound']:.4f}"
            mark = "yes" if r["tight"] else "NO"
            print(
                f"{r['name']:>{width}} {r['v']:>4} {r['k']:>2} {r['girth']:>5} "
                f"{r['d']:>2} {bound:>9} {mark}"
            )
        print(f"rebuilt {len(rows)} families in {elapsed:.2f}s")

    bad = [r["name"] for r in rows if not r["tight"]]
    if bad:
        print(f"attainment failed for: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
