"""Summarise the results that ``run.py`` left in ``bench/out/``.

    python3 bench/summarize.py [--out bench/baseline.json]

For every workload and end-to-end metric it reports the median, the
quartiles, and the spread (the distance between the quartiles as a share of
the median) over the untraced runs. For the per-layer metrics it reports the
median over the traced runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(out_dir: Path) -> dict:
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted(out_dir.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        runs[result["args"]["workload"]][result["args"]["trace"]].append(result)
    summary = {"env": None, "workloads": {}}
    for workload, by_trace in sorted(runs.items()):
        entry = {}
        plain = by_trace[0]
        if plain:
            summary["env"] = plain[-1]["env"]
            entry["seeds"] = sorted(r["args"]["seed"] for r in plain)
            entry["attempted"] = sum(r["attempted"] for r in plain)
            entry["failed"] = sum(r["failed"] for r in plain)
            entry["end_to_end"] = {}
            series = {name: (m["unit"], [r["metrics"][name]["value"] for r in plain])
                      for name, m in plain[0]["metrics"].items()}
            # medians are kept for reference; they are not gated metrics
            series["solve_s.p50"] = ("s", [r["extra"]["solve_s.p50"] for r in plain])
            series["step_ms.p50"] = ("ms", [r["extra"]["step_ms.p50"] for r in plain])
            for name, (unit, values) in series.items():
                q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                               else values * 3)
                entry["end_to_end"][name] = {
                    "unit": unit, "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med}
        if by_trace[1]:
            traced = by_trace[1]
            entry["per_layer_seeds"] = sorted(r["args"]["seed"] for r in traced)
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]}
        summary["workloads"][workload] = entry
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    summary = summarize(HERE / "out")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {entry.get('attempted', 0)} operations, "
              f"{entry.get('failed', 0)} failed")
        for name, m in entry.get("end_to_end", {}).items():
            print(f"  {name:12s} median {m['median']:.6g} {m['unit']:3s} "
                  f"quartiles {m['q1']:.6g}..{m['q3']:.6g} spread {m['spread']:.3f}")


if __name__ == "__main__":
    main()
