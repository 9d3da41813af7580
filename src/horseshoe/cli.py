"""Command line pipeline runner.

One subcommand per pipeline stage plus ``all``, which chains them and
writes a manifest.  Flags mirror the RunConfig fields; a JSON config file
named with --config takes precedence over flags.  Exit codes: 0 success,
2 configuration problem, 3 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, cache, conditions
from .conditions import fatness_fit
from .diagnostics import run_diagnostics
from .errors import (
    CacheError,
    ConfigError,
    HorseshoeError,
    StageError,
)
from .figures import emit_strip_polygons
from .maps import make_affine_example, make_baker, validate_hyperbolicity
from .measures import (
    lift_srb,
    load_srb,
    save_srb,
    tsujii_criterion,
    ulam_acip,
)
from .symbolic import load_inventory, m_inventory, save_inventory


@dataclass
class RunConfig:
    """Every knob of the pipeline, one flat record.

    The r sweeps must decrease strictly; the seed is mandatory so any two
    runs of the same config are comparable byte for byte.
    """

    # map selection
    family: str = "baker"
    lam: float = 0.5
    a: float = 0.8
    b: float = 0.55
    # enumeration
    x_grid_n: int = 65
    enum_r: tuple = (2.0 ** -4, 2.0 ** -5, 2.0 ** -6)
    # measure
    bins: int = 4096
    samples: int = 200_000
    iters: int = 30
    seed: int = 7
    workers: int = 1
    fiber_bins: int = 256
    y_bins: int = 4096
    r_list: tuple = (2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    # conditions
    delta: float | None = None
    tail_depth: int = 48
    pair_budget: int = 20_000
    fat_depth: int = 10
    # diagnostics
    diag_word_depth: int = 8
    diag_lattice: int = 32
    cone_depth: int = 10
    # figure and output
    figure_n: int = 5
    figure_grid: int = 129
    out_dir: str = "horseshoe_run"

    def as_dict(self):
        return dataclasses.asdict(self)


@dataclass
class RunManifest:
    map_hash: str
    versions: dict
    wall_clock: dict = field(default_factory=dict)
    peak_rss_mb: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    failed_stage: str | None = None


_WORD_BUDGET = 400_000  # tree nodes one M(r) or cylinder table may expand
_FAT_DEPTH_MIN = 2  # the shallowest depth fatness_fit fits
_FAMILIES = ("baker", "affine")
# the field sets follow the defaults; the seed may be 0, so it is checked apart
_INT_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                    if type(f.default) is int and f.name != "seed")
_LIST_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                     if type(f.default) is tuple)


def _scales(values, what):
    """``values`` as a tuple of positive finite floats, strictly decreasing."""
    try:
        vals = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must hold numbers only: {exc}") from exc
    if not vals:
        raise ConfigError(f"{what} must not be empty")
    if not all(0 < v < math.inf for v in vals):  # NaN fails too
        raise ConfigError(f"{what} must be positive and finite, got {vals}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{what} must decrease strictly, got {vals}")
    return tuple(vals)


def finalize_config(config):
    """Validate invariants and normalize field types in place."""
    if config.family not in _FAMILIES:
        raise ConfigError(f"unknown map family {config.family!r}")
    for name in _LIST_FIELDS:
        setattr(config, name, _scales(getattr(config, name), name))
    labels = [_label(r) for r in config.enum_r]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"enum_r blob labels must differ, got {labels}")
    if type(config.seed) is not int or config.seed < 0:  # a bool is no seed
        raise ConfigError(f"seed must be a non-negative integer (and is "
                          f"mandatory), got {config.seed!r}")
    for name in _INT_FIELDS:
        value = getattr(config, name)
        try:
            whole = int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} must be a positive integer: {exc}") from exc
        if isinstance(value, bool) or whole != value or whole < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        setattr(config, name, whole)
    if config.fat_depth <= _FAT_DEPTH_MIN:
        raise ConfigError(f"fat_depth must exceed {_FAT_DEPTH_MIN}")
    if config.x_grid_n < 2:
        raise ConfigError(f"x_grid_n must be at least 2, got {config.x_grid_n}")
    if config.bins < 16 or config.bins & (config.bins - 1):
        raise ConfigError(f"bins must be a power of two >= 16, got {config.bins}")
    if config.delta is not None:
        config.delta = _scales([config.delta], "delta")[0]
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} not writable: {exc}") from exc
    return config


def build_spec(config):
    try:
        if config.family == "baker":
            return make_baker(config.lam)
        return make_affine_example(config.a, config.b)
    except (HorseshoeError, TypeError, ValueError) as exc:
        raise ConfigError(f"map parameters rejected: {exc}") from exc


def default_delta(config):
    if config.delta is not None:
        return float(config.delta)
    if config.family == "affine":
        return (config.a - config.b) / 4.0
    return 0.1


# ---------------------------------------------------------------------------
# stages


def _write_json(path, payload):
    """The one JSON writer: sorted keys, two-space indent, final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, columns):
    """The one CSV writer: the header line, then one line per row, each
    value as its ``repr``.  A column goes through ``tolist`` first, so every
    value is a plain Python number.  Each row is written as it is formatted,
    so the file's text is never held whole."""
    rows = zip(*(map(repr, np.asarray(c).tolist()) for c in columns))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _record(obj, *skip):
    """A dataclass's fields by name, those in ``skip`` left out."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if f.name not in skip}


def _out(ctx, name):
    """Path of output file ``name``, noted in ``ctx`` for the manifest."""
    ctx.setdefault("outputs", set()).add(name)
    return Path(ctx["config"].out_dir) / name


def _spec(ctx):
    if "spec" not in ctx:
        ctx["spec"] = build_spec(ctx["config"])
    return ctx["spec"]


def _acip(ctx):
    if "acip" not in ctx:
        cfg = ctx["config"]
        ctx["acip"] = ulam_acip(_spec(ctx), bins=cfg.bins)
    return ctx["acip"]


def _label(r):
    """A scale as it names its inventory blob and its enumeration.json entry."""
    return f"{r:.10g}"


def _checkpoint(path, load, key, want, build, save):
    """The one reuse rule: ``load(path)`` checks the map hash, and the blob is
    reused when ``key`` of what it holds is ``want``; a missing blob or any
    CacheError is a miss, built afresh and rewritten."""
    if path.exists():
        try:
            found = load(path)
            if key(found) == want:
                return found
        except CacheError:
            pass
    made = build()
    save(made, path)
    return made


def _inventories(ctx):
    """M(r) for every ``enum_r`` scale, keyed by r and the x grid size."""
    if "inventories" not in ctx:
        cfg, spec = ctx["config"], _spec(ctx)
        ctx["inventories"] = [_checkpoint(
            _out(ctx, f"inventory_r{_label(r)}.blob"),
            lambda path: load_inventory(path, spec),
            lambda inv: (inv.r, inv.x_grid.size), (r, cfg.x_grid_n),
            lambda: m_inventory(spec, r, x_grid_n=cfg.x_grid_n,
                                budget=_WORD_BUDGET),
            lambda inv, path: save_inventory(inv, path, spec))
            for r in cfg.enum_r]
    return ctx["inventories"]


def _srb(ctx):
    """The lift, keyed by seed, sample count, steps and histogram bins."""
    if "srb" not in ctx:
        cfg, spec = ctx["config"], _spec(ctx)
        ctx["srb"] = _checkpoint(
            _out(ctx, "srb.blob"),
            lambda path: load_srb(path, spec.map_hash),
            lambda srb: (srb.seed, srb.n_samples, srb.iterations_used,
                         srb.fiber_bins, srb.y_bins),
            (cfg.seed, cfg.samples, cfg.iters, cfg.fiber_bins, cfg.y_bins),
            lambda: lift_srb(spec, _acip(ctx), cfg.iters, cfg.samples, cfg.seed,
                             fiber_bins=cfg.fiber_bins, y_bins=cfg.y_bins,
                             workers=cfg.workers),
            lambda srb, path: save_srb(path, srb))
    return ctx["srb"]


def stage_validate(ctx):
    spec = _spec(ctx)
    rep = validate_hyperbolicity(spec)
    checks = {name: _record(c, "witness") for name, c in rep.checks.items()}
    payload = {
        "map": spec.label,
        "map_hash": spec.map_hash,
        "parameters": spec.params_dict,
        "grid_n": rep.grid_resolution,
        "alpha": spec.alpha,
        "k0": spec.k0,
        "checks": checks,
        "inconclusive": sorted(rep.inconclusive),
        "passed": rep.passed(),
    }
    _write_json(_out(ctx, "hyperbolicity.json"), payload)
    if not rep.passed():
        failing = [n for n, c in rep.checks.items() if not c.passed]
        raise StageError("validate", f"hyperbolicity checks failed: {failing}")


def stage_enumerate(ctx):
    summary = {}
    for inv in _inventories(ctx):
        summary[_label(inv.r)] = {
            "file": f"inventory_r{_label(inv.r)}.blob",
            "words": len(inv.words),
            "mass": inv.mass(),
            "mass_defect": abs(inv.mass() - 1.0),
            "len_min": int(inv.lengths.min()),
            "len_max": int(inv.lengths.max()),
        }
    _write_json(_out(ctx, "enumeration.json"), summary)


def stage_acip(ctx):
    cfg = ctx["config"]
    dens = _acip(ctx)
    edges = np.linspace(0.0, 1.0, cfg.bins + 1)
    _write_csv(_out(ctx, "acip.csv"), "bin_lo,mass,density",
               (edges[:-1], dens.masses, dens.density()))
    _write_json(_out(ctx, "acip.json"), _record(dens, "masses"))


def stage_lift(ctx):
    meta = _srb(ctx).meta()
    del meta["fiber_range"], meta["sq_bins"]
    _write_json(_out(ctx, "lift.json"), meta)


def stage_criterion(ctx):
    cfg = ctx["config"]
    table = tsujii_criterion(_srb(ctx), cfg.r_list)
    # the last stage to read the lift: its counts are freed before the later
    # stages run, and a later reader reloads them through _srb's checkpoint
    ctx.pop("srb")
    _write_csv(_out(ctx, "criterion.csv"), "r,I_r",
               (table.r_values, table.i_of_r))
    _write_json(_out(ctx, "criterion.json"), table.report())
    ctx["criterion"] = table


def stage_fatness(ctx):
    cfg = ctx["config"]
    fit = fatness_fit(_spec(ctx), cfg.fat_depth, depth_min=_FAT_DEPTH_MIN,
                      x_grid_n=cfg.x_grid_n, budget=_WORD_BUDGET)
    _write_json(_out(ctx, "fatness.json"),
                dict(_record(fit, "partial"), passed=fit.passed))
    ctx["fatness"] = fit


def stage_transversality(ctx):
    cfg = ctx["config"]
    # called through its module, so wrappers put on conditions.ntr_sum see it
    sweep = conditions.NtrSweep.fit([
        conditions.ntr_sum(_spec(ctx), inv, default_delta(cfg),
                           tail_depth=cfg.tail_depth,
                           pair_budget=cfg.pair_budget, seed=cfg.seed)
        for inv in _inventories(ctx)])
    reps = sweep.reports
    columns = [[getattr(rep, name) for rep in reps] for name in (
        "r", "delta", "n_pairs", "n_ntr", "sum_value", "sum_se")]
    _write_csv(_out(ctx, "ntr.csv"), "r,delta,n_pairs,n_ntr,sum,sum_se,subsampled",
               columns + [[int(rep.subsampled) for rep in reps]])
    _write_json(_out(ctx, "ntr.json"), {
        "exponent_fit": sweep.exponent,
        "reports": [dict(_record(rep, "sum_value", "meta"), sum=rep.sum_value)
                    for rep in reps]})
    ctx["ntr"] = sweep


def stage_diagnostics(ctx):
    cfg = ctx["config"]
    rep = run_diagnostics(_spec(ctx), word_depth=cfg.diag_word_depth,
                          lattice_n=cfg.diag_lattice, depth=cfg.cone_depth)
    _write_csv(_out(ctx, "diagnostics_lattice.csv"), ",".join(rep.lattice),
               rep.lattice.values())
    _write_json(_out(ctx, "diagnostics.json"), _record(rep, "lattice"))


def stage_figure(ctx):
    cfg = ctx["config"]
    stem = f"strips_n{cfg.figure_n}"
    emit_strip_polygons(_spec(ctx), cfg.figure_n, svg_path=_out(ctx, stem + ".svg"),
                        csv_path=_out(ctx, stem + ".csv"), x_grid_n=cfg.figure_grid)


def _trend(values):
    if all(v == 0.0 for v in values):
        return "zero"
    if all(b < a for a, b in zip(values, values[1:])):
        return "decreasing"
    if all(b > a for a, b in zip(values, values[1:])):
        return "increasing"
    if all(b <= a for a, b in zip(values, values[1:])):
        return "nonincreasing"
    return "mixed"


def stage_verdict(ctx):
    """Runs only in ``run_pipeline``, after every other stage succeeded."""
    fit, sweep = ctx["fatness"], ctx["ntr"]
    _write_json(_out(ctx, "verdict.json"), {
        "fat": bool(fit.passed),
        "transversal_window": _trend([rep.sum_value for rep in sweep.reports]),
        "I_r_window": ctx["criterion"].verdict,
        "fat_epsilon": fit.epsilon,
        "ntr_exponent": sweep.exponent,
        "map_hash": _spec(ctx).map_hash,
    })


STAGES = (
    ("validate", stage_validate),
    ("enumerate", stage_enumerate),
    ("acip", stage_acip),
    ("lift", stage_lift),
    ("criterion", stage_criterion),
    ("fatness", stage_fatness),
    ("transversality", stage_transversality),
    ("diagnostics", stage_diagnostics),
    ("figure", stage_figure),
)
_STAGE_MAP = dict(STAGES)

_MANIFEST_NAME = "manifest.json"


def _versions():
    return {
        "package": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "cache_format": cache.FORMAT_VERSION,
    }


def _run_stage(ctx, name, fn, manifest):
    """Run one stage, timing it into ``manifest`` with the process's peak
    resident set after it, in MiB.

    Any exception leaves as a StageError naming the stage, and the manifest
    records that stage as the failed one.
    """
    t0 = time.perf_counter()
    try:
        fn(ctx)
    except Exception as exc:
        manifest.failed_stage = name
        if isinstance(exc, StageError):
            raise
        raise StageError(name, exc) from exc
    finally:
        manifest.wall_clock[name] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        manifest.peak_rss_mb[name] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _start(config):
    """Stage context and an empty manifest for a finalized config."""
    ctx = {"config": config}
    return ctx, RunManifest(map_hash=_spec(ctx).map_hash,
                            versions=_versions(), config=config.as_dict())


def run_pipeline(config):
    """Run every stage in order and write the manifest.

    The manifest records wall-clock per stage and a digest of each file
    this run wrote or reused (``_out``), not of files an earlier run left
    in the directory.  It is the only output that differs between otherwise
    identical runs, so byte-level comparisons should skip it.  On stage
    failure the partial manifest is still written, with the failing stage
    named.
    """
    ctx, manifest = _start(finalize_config(config))
    out = Path(config.out_dir)
    try:
        for name, fn in STAGES + (("verdict", stage_verdict),):
            _run_stage(ctx, name, fn, manifest)
    finally:
        for name in sorted(ctx.get("outputs", ())):
            if (out / name).is_file():
                manifest.files[name] = cache.file_sha256(out / name)
        _write_json(out / _MANIFEST_NAME, dataclasses.asdict(manifest))
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


_HELP = {
    "lam": "baker fiber contraction",
    "a": "affine family slope at u=0",
    "b": "affine family slope at u=1",
    "enum_r": "comma-separated decreasing scales",
    "r_list": "comma-separated decreasing radii",
}


def _flag(name):
    """One flag per field: its name with dashes, ``--out`` for ``out_dir``."""
    return "--out" if name == "out_dir" else "--" + name.replace("_", "-")


def _add_flags(p):
    for f in dataclasses.fields(RunConfig):
        # the type follows the default: delta's None means a number, and a
        # tuple is given as comma-separated text
        kind = float if f.default is None else type(f.default)
        p.add_argument(_flag(f.name), dest=f.name,
                       type=str if kind is tuple else kind, help=_HELP.get(f.name),
                       choices=_FAMILIES if f.name == "family" else None)
    p.add_argument("--config", type=str, help="JSON file overriding all flags")


def _config_from(ns):
    config = RunConfig()
    for f in dataclasses.fields(RunConfig):
        val = getattr(ns, f.name, None)
        if val is None:
            continue
        if f.name in _LIST_FIELDS and isinstance(val, str):
            val = tuple(v.strip() for v in val.split(",") if v.strip())
        setattr(config, f.name, val)
    if ns.config is not None:
        try:
            overrides = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        for key, val in overrides.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if key in _LIST_FIELDS and isinstance(val, list):
                val = tuple(val)
            setattr(config, key, val)
    return config


def make_parser():
    parser = argparse.ArgumentParser(
        prog="horseshoe",
        description="Strip-map pipeline: validation, enumeration, measure "
                    "lifting, absolute-continuity conditions, diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _ in STAGES + (("all", None),):
        p = sub.add_parser(name, help=f"run the {name} stage"
                           if name != "all" else "run the whole pipeline")
        _add_flags(p)
    return parser


def main(argv=None):
    parser = make_parser()
    ns = parser.parse_args(argv)
    try:
        config = finalize_config(_config_from(ns))
        # building the map here makes rejected map parameters config errors
        ctx, manifest = _start(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if ns.command == "all":
            manifest = run_pipeline(config)
            verdict = json.loads(
                (Path(config.out_dir) / "verdict.json").read_text())
            print(json.dumps(verdict, sort_keys=True))
            print(f"manifest: {Path(config.out_dir) / _MANIFEST_NAME} "
                  f"({len(manifest.files)} files)")
        else:
            _run_stage(ctx, ns.command, _STAGE_MAP[ns.command], manifest)
            print(f"{ns.command}: ok (outputs in {config.out_dir})")
    except StageError as exc:
        print(f"{exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
