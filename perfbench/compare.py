"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files as run.py writes them to
``.perfbench_work/results/`` (copy them away between the two commits).
Results are grouped by workload and trace mode.  For every seed present in
both sets the inputs' sha256 must agree: a comparison of results whose
inputs differ is refused (exit 2).  For each metric it prints both medians
and quartiles, the change as a share of the base median, and, for
end-to-end metrics, whether the change is worse than the bound in
BENCHMARK.json.  Exit code 1 when some metric is worse beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> dict:
    groups: dict[tuple, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        groups.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    mismatched = [
        (key, seed)
        for key in base.keys() & change.keys()
        for seed in base[key].keys() & change[key].keys()
        if base[key][seed]["inputs_sha256"] != change[key][seed]["inputs_sha256"]
    ]
    if mismatched:
        print(f"refused: input digests differ for {sorted(mismatched)}", file=sys.stderr)
        return 2
    regressed = False
    for key in sorted(base.keys() & change.keys()):
        seeds = sorted(base[key].keys() & change[key].keys())
        if not seeds:
            continue
        print(f"{key[0]} trace={key[1]} seeds={seeds}")
        for name in base[key][seeds[0]]["metrics"]:
            b = [base[key][s]["metrics"][name]["value"] for s in seeds]
            c = [change[key][s]["metrics"][name]["value"] for s in seeds]
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            line = (f"  {name:44s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                    f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {delta:+.2%}")
            if name in bounds:
                bound, direction = bounds[name]
                worse = delta > bound if direction == "lower" else -delta > bound
                regressed |= worse
                line += "  WORSE THAN BOUND" if worse else f"  within {bound:.0%}"
            elif better.get(name):
                line += f"  ({better[name]} is better)"
            print(line)
        failed = sum(change[key][s]["failed"] for s in seeds)
        attempted = sum(change[key][s]["attempted"] for s in seeds)
        print(f"  change: {failed} of {attempted} operations failed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
