"""One ``horseshoe all`` pipeline run in a fresh interpreter.

Usage: python3 perfbench/worker.py CONFIG_JSON [--setup-only | --trace SPANS_JSONL]

CONFIG_JSON holds RunConfig overrides (out_dir included).  The worker
times set-up (import of the package with numpy and scipy, RunConfig
construction and validation, map construction) and the pipeline
(``run_pipeline``, first stage to written manifest), reads its own peak
resident set, and prints one JSON line.  --setup-only stops after set-up.
With --trace it first installs
the benchmark's span recorder around the package's public functions and
adds the per-layer figures to that line; the raw spans go to SPANS_JSONL.
"""

import json
import sys
import time

_T0 = time.perf_counter()

import resource  # noqa: E402  (stdlib; kept after the clock starts)
from pathlib import Path  # noqa: E402


def main(argv):
    overrides = json.loads(Path(argv[0]).read_text())
    spans_path = argv[2] if argv[1:2] == ["--trace"] else None

    import horseshoe
    from horseshoe import cli

    config = cli.RunConfig(**overrides)
    cli.finalize_config(config)
    cli.build_spec(config)
    setup_s = time.perf_counter() - _T0
    if argv[1:] == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return

    run = cli.run_pipeline
    tracer = None
    if spans_path is not None:
        import layertrace
        tracer = layertrace.install()
        run = tracer.wrap("cli.run_pipeline", run)

    t1 = time.perf_counter()
    run(config)
    verdict_s = time.perf_counter() - t1

    result = {
        "package": horseshoe.__file__,
        "config": config.as_dict(),
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
