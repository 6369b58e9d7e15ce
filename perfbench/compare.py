"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Prints, per metric, each side's median and quartile spread and the change
of the medians.  Refuses (exit 2) when the records mix workloads, trace
modes or dual backends, since their numbers do not measure the same thing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

MATCH = ("workload", "trace", "backend")


def _load(paths):
    return [json.loads(open(p).read()) for p in paths]


def _summary(values):
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, None
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    for key in MATCH:
        seen = {r["info"][key] for r in base + new}
        if len(seen) > 1:
            print(f"refusing to compare: records differ in {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    names = sorted({k for r in base + new for k in r["result"]["metrics"]})
    print(f"{'metric':52s} {'base':>12s} {'spread':>7s} {'new':>12s} {'spread':>7s} {'change':>8s}")
    for name in names:
        sides = [
            _summary([r["result"]["metrics"].get(name, {}).get("value") for r in records])
            for records in (base, new)
        ]
        (b, bs), (n, ns) = sides
        change = f"{(n - b) / b:+.1%}" if b and n is not None else "-"
        cells = [f"{x:12.5g}" if x is not None else f"{'-':>12s}" for x in (b, n)]
        spreads = [f"{s:7.1%}" if s is not None else f"{'-':>7s}" for s in (bs, ns)]
        print(f"{name:52s} {cells[0]} {spreads[0]} {cells[1]} {spreads[1]} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
