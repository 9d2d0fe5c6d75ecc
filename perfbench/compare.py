#!/usr/bin/env python3
"""Summarise and compare benchmark records written by `run.py --record`.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

With one file: per workload and metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median, next to the bound
`BENCHMARK.json` sets (end-to-end metrics only).

With two files: also the change's median against the base's, as a share
of the base median in the direction that is worse, and a verdict: within
the bound, or a regression. Where the base's own spread exceeds the
bound the verdict is "unresolved", or "better" when every change run is
better than every base run.

Records carry a machine fingerprint (cores, CPU model, target, rustc).
Records whose fingerprints differ are incomparable: they are reported
as such and never pooled. The exit code is 1 on a regression, on
incomparable records, or on a record whose result was not correct.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu", "target", "rustc")


def load(path):
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def machine(record):
    fp = record.get("fingerprint", {})
    return tuple(fp.get(k) for k in MACHINE_KEYS)


def series(records):
    """(workload, trace) -> metric -> list of values."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        result = r.get("result") or {}
        for name, m in (result.get("metrics") or {}).items():
            out[(r["workload"], r["trace"])][name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(p) for p in sys.argv[1:]]
    status = 0

    machines = {machine(r) for records in sides for r in records}
    if len(machines) > 1:
        print("incomparable: records come from different machines:")
        for m in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(MACHINE_KEYS, m)))
        return 1
    for records in sides:
        for r in records:
            if not (r.get("result") or {}).get("correct", False):
                print(f"not correct: {r['workload']} seed {r['seed']} trace {r['trace']}")
                status = 1

    base = series(sides[0])
    change = series(sides[1]) if len(sides) == 2 else None
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<28} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
              + ("  change median      worse  verdict" if change else ""))
        for name, values in sorted(base[key].items()):
            q1, q2, q3 = quartiles(values)
            spec_m = bounds.get(name)
            bound = spec_m["bound"] if spec_m else None
            line = (f"  {name:<28} {len(values):>3} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                    f"{spread(values):>8.3f} {bound if bound is not None else '-':>6}")
            if change and name in change.get(key, {}):
                other = change[key][name]
                c2 = statistics.median(other)
                higher = spec_m and spec_m["better"] == "higher"
                worse = ((q2 - c2) if higher else (c2 - q2)) / abs(q2) if q2 else 0.0
                all_better = (min(other) > max(values)) if higher else (max(other) < min(values))
                if bound is None:
                    verdict = "-"
                elif spread(values) > bound:
                    verdict = "better" if all_better else "unresolved"
                elif worse <= bound:
                    verdict = "within bound"
                else:
                    verdict = "REGRESSION"
                    status = 1
                line += f"  {c2:>14.6g} {worse:>+9.3f}  {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
