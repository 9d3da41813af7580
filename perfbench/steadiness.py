"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

    python3 perfbench/steadiness.py [--first-seed 1] [--save FILE] [--against FILE]

Runs ``run.py`` on every workload of BENCHMARK.json with RUNS consecutive
seeds, one run after the other, each with the run length from
BENCHMARK.json, and prints for every metric the median and the quartiles (``statistics.quantiles(n=4)``) of the per-run values,
the spread (Q3 - Q1) / median, and the metric's bound.  A spread above a
third of the bound is flagged.  --save keeps every run's result as JSON
(put it under perfbench/_work/, which git ignores); --against compares
this set's medians with a saved set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", type=Path, default=None)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    previous = json.loads(args.against.read_text()) if args.against else {}

    runs = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs[w] = [one_run(w, args.first_seed + i, spec["run_seconds"])
                   for i in range(RUNS)]
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        print(f"== {w}: {RUNS} runs, seeds {args.first_seed}.."
              f"{args.first_seed + RUNS - 1}, all correct: "
              f"{all(r['correct'] for r in runs[w])}, failed shares: {sorted(shares)}")
        for name in runs[w][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"  {name:36s} median {med:12.6g}  q1 {q1:11.6g}  q3 {q3:11.6g}"
                    f"  spread {spread:7.4f}  bound {bounds[name]}")
            if spread > bounds[name] / 3:
                line += "  ABOVE 1/3 BOUND"
            old = previous.get(w)
            if old:
                old_med = statistics.median(r["metrics"][name]["value"] for r in old)
                line += f"  vs saved {med / old_med - 1:+.4f}"
            print(line, flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
