"""Benchmark of ``horseshoe all`` on three workloads, with oracle checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every pipeline run happens in a fresh interpreter
(``perfbench/worker.py``), so module-level caches and the output directory
start empty, as they do for a user.  A run makes one untimed warm-up
set-up, then repeats the pipeline while the next repetition still fits in
S seconds (at least three times), and reports medians.  Outputs are
checked against the closed forms and identities in ``oracles.py``, and
every repetition must reproduce the first one's files byte for byte.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
the repetitions alternate traced and untraced ones and the last line holds
the per-layer metrics of the traced ones (see ``layertrace.py``).  Metric
names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

MIN_REPS = 3
MIB = float(1 << 20)
RUN_LIMIT_S = 170.0

# RunConfig overrides per workload; the seed and out_dir are added per run.
WORKLOADS = {
    # Sweep down to 2^-7, below the default 2^-6, where M(r) holds 17160
    # words: the scale-stopped word tree (m_inventory, manifold_envelope,
    # pair classification in ntr_sum) dominates.  pair_budget is cut from
    # 20000 so one pipeline run stays near seven seconds; the per-stratum
    # floor of 16 pairs still classifies about 3000 pairs at 2^-7.
    "verdict_affine": {
        "family": "affine", "a": 0.8, "b": 0.55,
        "enum_r": [2.0 ** -4, 2.0 ** -7], "pair_budget": 2000,
    },
    # lam = 2^-1/2: the fiber law is a trapezoid with a closed-form I(r).
    # The lift (2 threads), the srb.blob write and its digest dominate;
    # a coarse sweep keeps the word tree small.
    "lift_trapezoid": {
        "family": "baker", "lam": 2.0 ** -0.5,
        "samples": 2_000_000, "iters": 40, "workers": 2,
        "y_bins": 1200, "fiber_bins": 64,
        "enum_r": [2.0 ** -3, 2.0 ** -4],
    },
    # Deep full-tree walks (cylinder_table, diagnostics, figure bands)
    # instead of the scale-stopped search; coarse sweep, small lift.
    "walks_affine": {
        "family": "affine", "a": 0.8, "b": 0.55,
        "enum_r": [2.0 ** -2, 2.0 ** -3], "samples": 50_000,
        "fat_depth": 16, "diag_word_depth": 11, "figure_n": 9,
    },
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def output_mb(out):
    """Bytes of every output file but the manifest (it records timings)."""
    return sum(p.stat().st_size for p in Path(out).iterdir()
               if p.is_file() and p.name != "manifest.json") / MIB


def worker(workload, seed, rep_dir, mode, deadline):
    """Run worker.py once in a fresh interpreter; its result dict, or None."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    config = dict(WORKLOADS[workload], seed=seed, out_dir=str(rep_dir / "out"))
    (rep_dir / "config.json").write_text(json.dumps(config))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(rep_dir / "config.json")]
    cmd += {"setup": ["--setup-only"], "pipeline": [],
            "traced": ["--trace", str(rep_dir / "spans.jsonl")]}[mode]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} {mode} run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {workload} {mode} run failed:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode != "setup":
        if not Path(res["package"]).resolve().is_relative_to(ROOT / "src"):
            fail(f"imported horseshoe from {res['package']}, not from this checkout")
        out = rep_dir / "out"
        res["out"] = out
        res["digests"] = oracles.file_digests(out)
        res["output_mb"] = output_mb(out)
        res["untiled"] = oracles.untiled_scales(out, res["config"]["enum_r"])
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "horseshoe" / "__init__.py").is_file():
        fail(f"no horseshoe sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    # untimed warm-up: compiles the package and brings numpy and scipy
    # into the file cache
    if worker(args.workload, args.seed, work / "warmup", "setup", deadline) is None:
        fail("warm-up run failed")

    # One repetition is a pipeline run (traced every other time with
    # --trace 1), whose interpreter also times set-up.  Its operations are
    # the pipeline run and the enumeration of M(r) at each scale, which
    # fails when the words do not tile [0,1].
    ops_per_rep = 1 + len(WORKLOADS[args.workload]["enum_r"])
    reps, failed, durations = [], 0, []
    t_loop = time.monotonic()
    for k in itertools.count(1):
        t0 = time.monotonic()
        mode = "traced" if args.trace and k % 2 == 1 else "pipeline"
        res = worker(args.workload, args.seed, work / f"rep{k}", mode, deadline)
        if res is None:
            failed += ops_per_rep
        else:
            failed += len(res["untiled"])
            if reps:
                shutil.rmtree(reps[-1]["out"].parent)
            reps.append(res)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - t_loop
        if (k >= MIN_REPS and elapsed + statistics.median(durations) > args.seconds
                or time.monotonic() + 2 * max(durations) > deadline):
            break
    if not reps:
        fail("every pipeline run failed")

    problems = oracles.check_run(reps[-1]["out"], reps[-1]["config"])
    if any(r["digests"] != reps[0]["digests"] for r in reps):
        problems.append("repetition outputs differ from the first one's")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        traced = [r["trace"] for r in reps if "trace" in r]
        figures = {name: statistics.median(t[name] for t in traced)
                   for name in traced[0]}
        figures["trace.untraced_pipeline_s"] = statistics.median(
            r["verdict_s"] for r in reps if "trace" not in r)
        figures["trace.overhead_s"] = (figures["cli.pipeline_s"]
                                       - figures["trace.untraced_pipeline_s"])
    else:
        figures = {name: statistics.median(r[name] for r in reps)
                   for name in ("setup_s", "verdict_s", "peak_rss_mb", "output_mb")}

    result = {"correct": not problems, "attempted": ops_per_rep * len(durations),
              "failed": failed, "metrics": {}}
    for m in metrics:
        if m["name"] not in figures:
            fail(f"metric {m['name']} was not measured")
        value = figures[m["name"]]
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:14.6g} {m['unit']}")
    print("verdict_s per repetition:", " ".join(f"{r['verdict_s']:.3f}" for r in reps))
    print(f"{args.workload}: {len(durations)} timed pipeline runs, "
          f"{len(durations) - len(reps)} of them failed; "
          f"scales not tiled by M(r): {reps[-1]['untiled']}; "
          f"{len(problems)} check failures")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
