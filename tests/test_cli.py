import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horseshoe import cache, cli
from horseshoe.cli import (
    RunConfig,
    default_delta,
    finalize_config,
    main,
    make_parser,
    run_pipeline,
)
from horseshoe.errors import CacheError, ConfigError
from horseshoe.figures import emit_strip_polygons, strip_polygons
from horseshoe.symbolic import load_inventory, m_inventory, save_inventory

from test_measures import _traced_peak


def _tiny_args(out, extra=()):
    return [
        "--lam", "0.5",
        "--bins", "256",
        "--samples", "20000",
        "--iters", "10",
        "--fiber-bins", "64",
        "--y-bins", "1200",
        "--r-list", "0.125,0.0625,0.03125",
        "--enum-r", "0.0625,0.03125",
        "--x-grid-n", "33",
        "--tail-depth", "24",
        "--fat-depth", "8",
        "--diag-word-depth", "5",
        "--diag-lattice", "6",
        "--cone-depth", "6",
        "--figure-n", "3",
        "--figure-grid", "33",
        "--out", str(out),
        *extra,
    ]


# ---------------------------------------------------------------------------
# configuration plumbing


def test_flags_feed_config(tmp_path):
    ns = make_parser().parse_args(
        ["acip", "--family", "affine", "--a", "0.8", "--b", "0.55",
         "--bins", "512", "--out", str(tmp_path)])
    from horseshoe.cli import _config_from
    cfg = _config_from(ns)
    assert cfg.family == "affine"
    assert cfg.bins == 512
    assert cfg.a == 0.8 and cfg.b == 0.55


@pytest.mark.parametrize("f", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_every_flag_parses_its_default(tmp_path, monkeypatch, f):
    """A field's default, given as text to its generated flag, comes back
    from _config_from and finalize_config with the same value and type
    (delta's default None cannot be typed, so it is given a number)."""
    monkeypatch.chdir(tmp_path)  # the out_dir default is a relative path
    want = 0.0625 if f.default is None else f.default
    text = ",".join(map(str, want)) if isinstance(want, tuple) else str(want)
    ns = make_parser().parse_args(["validate", cli._flag(f.name), text])
    got = getattr(finalize_config(cli._config_from(ns)), f.name)
    assert got == want and type(got) is type(want)
    if isinstance(want, tuple):
        assert [type(v) for v in got] == [type(v) for v in want]


def test_config_file_beats_flags(tmp_path):
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({"lam": 0.4, "samples": 5000,
                                 "r_list": [0.25, 0.125]}))
    ns = make_parser().parse_args(
        ["acip", "--lam", "0.7", "--bins", "512",
         "--config", str(cfile), "--out", str(tmp_path)])
    from horseshoe.cli import _config_from
    cfg = _config_from(ns)
    assert cfg.lam == 0.4          # file wins over the flag
    assert cfg.samples == 5000
    assert cfg.bins == 512         # flag not present in the file survives
    assert cfg.r_list == (0.25, 0.125)


def test_unknown_config_key_rejected(tmp_path):
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({"lamda": 0.4}))
    ns = make_parser().parse_args(["acip", "--config", str(cfile),
                                   "--out", str(tmp_path)])
    from horseshoe.cli import _config_from
    with pytest.raises(ConfigError):
        _config_from(ns)


def test_finalize_rejects_bad_settings(tmp_path):
    base = dict(out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        finalize_config(RunConfig(family="tent", **base))
    with pytest.raises(ConfigError):
        finalize_config(RunConfig(r_list=(0.1, 0.2), **base))
    with pytest.raises(ConfigError):
        finalize_config(RunConfig(enum_r=(0.1, 0.1), **base))
    # two scales that would share one inventory file name
    with pytest.raises(ConfigError, match="labels"):
        finalize_config(RunConfig(enum_r=(0.25, 0.24999999999), **base))
    with pytest.raises(ConfigError):
        finalize_config(RunConfig(samples=0, **base))
    with pytest.raises(ConfigError, match="fat_depth"):
        finalize_config(RunConfig(fat_depth=2, **base))
    assert finalize_config(RunConfig(fat_depth=3, **base)).fat_depth == 3


@pytest.mark.parametrize("override", [
    {"samples": "abc"}, {"enum_r": "abc"}, {"lam": "x"}, {"delta": "x"},
    {"fat_depth": 10.9}, {"workers": True}, {"seed": True},
    {"x_grid_n": 1}, {"bins": 1}, {"bins": 100},
], ids=["samples", "enum_r", "lam", "delta", "fractional", "boolean",
        "boolean_seed", "one_grid_point", "one_bin", "bins_not_power_of_two"])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, override):
    """Refused before any stage runs, so no stage writes a file."""
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps(override))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "hyperbolicity.json").exists()


def test_negative_seed_is_config_error(tmp_path, capsys):
    """Rejected with the other settings, not later inside the lift."""
    assert main(["all", "--seed", "-3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer" in err and "-3" in err
    assert not (tmp_path / "hyperbolicity.json").exists()


def test_default_delta_by_family(tmp_path):
    cfg = RunConfig(family="affine", a=0.8, b=0.55, out_dir=str(tmp_path))
    assert default_delta(cfg) == pytest.approx((0.8 - 0.55) / 4.0)
    cfg = RunConfig(family="baker", lam=0.5, out_dir=str(tmp_path))
    assert default_delta(cfg) == pytest.approx(0.1)
    cfg = RunConfig(family="baker", lam=0.5, delta=0.03, out_dir=str(tmp_path))
    assert default_delta(cfg) == pytest.approx(0.03)


# ---------------------------------------------------------------------------
# whole-pipeline runs


def test_tiny_full_run(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["all", *_tiny_args(out)]) == 0
    printed = capsys.readouterr().out
    verdict = json.loads(printed.splitlines()[0])
    assert verdict["fat"] is True
    assert verdict["I_r_window"] == "bounded"

    names = {p.name for p in out.iterdir()}
    assert {"hyperbolicity.json", "enumeration.json", "acip.csv", "acip.json",
            "srb.blob", "lift.json", "criterion.csv", "criterion.json",
            "fatness.json", "ntr.csv", "ntr.json", "diagnostics.json",
            "diagnostics_lattice.csv", "strips_n3.svg", "strips_n3.csv",
            "verdict.json", "manifest.json"} <= names
    assert any(n.startswith("inventory_r") for n in names)
    # every field of the numeric tables reads as a number: no numpy scalar
    # repr and no boolean reaches a file
    for name in ("acip.csv", "criterion.csv", "ntr.csv",
                 "diagnostics_lattice.csv"):
        header, *rows = (out / name).read_text().splitlines()
        assert rows, name
        for row in rows:
            fields = row.split(",")
            assert len(fields) == header.count(",") + 1, name
            for value in fields:
                float(value)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] is None
    for name, digest in manifest["files"].items():
        assert cache.file_sha256(out / name) == digest
    assert set(manifest["wall_clock"]) == {
        "validate", "enumerate", "acip", "lift", "criterion", "fatness",
        "transversality", "diagnostics", "figure", "verdict"}
    # the process's peak resident set after each stage, in stage order
    assert set(manifest["peak_rss_mb"]) == set(manifest["wall_clock"])
    rss = [manifest["peak_rss_mb"][name]
           for name, _ in cli.STAGES + (("verdict", None),)]
    assert rss[0] > 0 and all(a <= b for a, b in zip(rss, rss[1:]))


def test_single_stage_command(tmp_path, capsys):
    assert main(["validate", "--lam", "0.6", "--out", str(tmp_path)]) == 0
    assert "validate: ok" in capsys.readouterr().out
    assert (tmp_path / "hyperbolicity.json").exists()


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["fatness", "--fat-depth", "2", "--out", str(tmp_path)]) == 2
    assert "fat_depth" in capsys.readouterr().err
    assert main(["all", "--lam", "1.5", "--out", str(tmp_path)]) == 2
    assert "map parameters rejected" in capsys.readouterr().err
    # knobs that only ever held their default are gone
    for key, val in (("depth_max", 24), ("grid_n", 256), ("strict_a4", False),
                     ("word_budget", 400_000), ("weighting", "lebesgue"),
                     ("bounded_ratio", 2.0), ("fat_depth_min", 2),
                     ("formats", ["csv", "json", "svg"])):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({key: val}))
        assert main(["acip", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    # non-finite values and clashing scale labels are refused before any stage
    for flags, what in ((["--enum-r", "nan"], "enum_r"),
                        (["--r-list", "inf,0.1"], "r_list"),
                        (["--delta", "inf"], "delta"),
                        (["--delta", "nan"], "delta"),
                        (["--enum-r", "0.25,0.24999999999"], "enum_r")):
        out = tmp_path / "nonfinite"
        assert main(["all", *flags, "--out", str(out)]) == 2, flags
        assert what in capsys.readouterr().err
        assert not out.exists()


def test_enumerate_checkpoint_bytes_pinned(tmp_path):
    """The inventory blobs and their summary keep their exact bytes.

    ``perfbench/oracles.py`` parses the ``symbols``/``lengths`` arrays of
    these blobs, so their format is pinned by digest; the blobs must also
    load back to the inventories they were written from.
    """
    assert main(["enumerate", "--family", "affine", "--enum-r",
                 "0.0625,0.015625", "--seed", "7", "--out", str(tmp_path)]) == 0
    digests = {name: cache.file_sha256(tmp_path / name) for name in (
        "inventory_r0.0625.blob", "inventory_r0.015625.blob",
        "enumeration.json")}
    assert digests == {
        "inventory_r0.0625.blob":
            "b176939c3f544dd941e173cfabfdcfc86fadddef2ec967da374af2e1bf8d2a02",
        "inventory_r0.015625.blob":
            "9f192aa13016415f9fde6d77b8cea71a4cb05f53c616ed7be327387b91571da9",
        "enumeration.json":
            "120f0431c1678bdd84284f86bfbbe548629956df5610014e05245cc2a55d9b0b",
    }
    spec = cli.build_spec(RunConfig(family="affine"))
    for r in (0.0625, 0.015625):
        inv = m_inventory(spec, r)
        back = load_inventory(tmp_path / f"inventory_r{r:.10g}.blob", spec)
        assert back.words.tolist() == inv.words.tolist()
        assert back.lengths.tolist() == inv.lengths.tolist()


def test_lift_checkpoint_bytes_pinned(tmp_path):
    """The lift checkpoint holds the two count histograms and nothing else."""
    assert main(["lift", "--family", "baker", "--lam", "0.5", "--samples",
                 "20000", "--iters", "10", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    digests = {name: cache.file_sha256(tmp_path / name)
               for name in ("srb.blob", "lift.json")}
    assert digests == {
        "srb.blob":
            "4a0d880ffe284edd548da98eaac0315f0dfc760581387cce027178812b99127f",
        "lift.json":
            "a7e305649fc4e181029bfaa6e8033451fd4f22b15b1106631ebeb46870664981",
    }
    _, arrays = cache.read_blob(tmp_path / "srb.blob")
    assert sorted(arrays) == ["cond_counts", "sq_counts"]


@pytest.mark.parametrize("args, digests", [
    (["diagnostics", "--family", "affine", "--seed", "7"], {
        "diagnostics.json":
            "da7fdae8bcfcbb4f5f1e53cb58ef8263d75c6dad151df48b2759783152bb3bca",
        "diagnostics_lattice.csv":
            "bbc3f63a0cd79b6f400ef9f114efa97b7f7a6e5377b56820808e8bf8f67fa58f",
    }),
    (["figure", "--family", "affine", "--figure-n", "5"], {
        "strips_n5.svg":
            "fb5b00d675399faa43c3a845649f88cf41669ca66e1a33e5e8c208b0f4919cdc",
        "strips_n5.csv":
            "b411fa5ac857e4324ae5b1bbc933e288d4b591ad8c2a9d70bf86ec54cbfefbda",
    }),
    (["criterion", "--family", "affine", "--samples", "20000", "--iters", "10",
      "--seed", "7"], {
        "criterion.csv":
            "2439c2f866eb7ac43dafc7f959430839ab29eb52248332ffcca2b2467c451427",
        "criterion.json":
            "d1dd469cb5e164cfb026357e8b0101eddbc7ba2ff9fea0f47bf46d0753d3d8e4",
    }),
    (["validate", "--family", "affine"], {
        "hyperbolicity.json":
            "ee17bd46d1b83f70a8ea1ffee4c598a2bc3f9219f7f4842f7829b5d5ea975fdf",
    }),
    (["validate", "--family", "baker", "--lam", "0.5"], {
        "hyperbolicity.json":
            "73ff3d7372f26f00233db5a637ba7ee2ef7e24000d7b5c5abd2fe7832b798a47",
    }),
    (["transversality", "--family", "affine", "--seed", "7"], {
        "ntr.csv":
            "e1902c56a1bf14ee9960f0879898b071973a2c63aac44704066abd24dde1af2b",
        "ntr.json":
            "6a1bdb70a1ac6bd68f4e7a74d54c25408f11d3143c7381222c05581ec36b684e",
    }),
    (["acip", "--family", "affine"], {
        "acip.csv":
            "631c0e2d8f81babe69744d684f95b8c05bb01ab947f72d4ce1eb2fb8c2d4539a",
        "acip.json":
            "f1b594bd2f99f0763a0e6dc5cb13f3e68ce23d46bdec10baf460c9156d703b6f",
    }),
], ids=["diagnostics", "figure", "criterion", "validate_affine", "validate_baker",
        "transversality", "acip"])
def test_word_family_outputs_bytes_pinned(tmp_path, args, digests):
    """The width constants, strip bands, I(r) sweep, hyperbolicity checks
    (with the estimated alpha and k0), charged sums and base density keep
    their exact bytes."""
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert {name: cache.file_sha256(tmp_path / name) for name in digests} == digests


def test_strip_figure_is_written_band_by_band(tmp_path, affine):
    """Writing the depth-9 figure (512 bands) holds no more than its
    polygons do: the SVG and CSV text go to the files a band at a time.
    Measured: 7.35 MiB for the polygons and the same for the written figure;
    holding each file's text whole read 21.4 MiB."""
    _, polygons = _traced_peak(lambda: strip_polygons(affine, 9))
    _, figure = _traced_peak(lambda: emit_strip_polygons(
        affine, 9, tmp_path / "strips.svg", tmp_path / "strips.csv"))
    assert figure <= polygons + (1 << 20)


def test_criterion_frees_the_lift(tmp_path, monkeypatch):
    """The criterion stage, the lift's last reader, takes the estimate out
    of the stage context; a later reader reloads the same counts from the
    checkpoint without lifting again."""
    config = finalize_config(RunConfig(
        samples=20_000, iters=10, fiber_bins=64, y_bins=1200,
        out_dir=str(tmp_path)))
    ctx, _ = cli._start(config)
    used, real = [], cli.tsujii_criterion

    def recorded(srb, r_list):
        used.append(srb)
        return real(srb, r_list)

    monkeypatch.setattr(cli, "tsujii_criterion", recorded)
    cli.stage_criterion(ctx)
    assert "srb" not in ctx and len(used) == 1
    lifts = _counted(monkeypatch, "lift_srb")
    again = cli._srb(ctx)
    assert lifts == [] and again is not used[0]
    assert np.array_equal(again.cond_counts, used[0].cond_counts)
    assert np.array_equal(again.sq_counts, used[0].sq_counts)


def _counted(monkeypatch, name):
    """Calls of ``cli.<name>`` from here on, by their positional arguments."""
    calls, real = [], getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def _read_outputs(out, *names):
    return {name: (out / name).read_bytes() for name in names}


def test_each_scale_enumerated_once(tmp_path, monkeypatch):
    calls = _counted(monkeypatch, "m_inventory")
    config = finalize_config(
        RunConfig(lam=0.5, enum_r=(0.3, 0.15), out_dir=str(tmp_path)))
    ctx = {"config": config}
    cli.stage_enumerate(ctx)
    cli.stage_transversality(ctx)
    assert [r for _, r in calls] == [0.3, 0.15]
    assert [rep.r for rep in ctx["ntr"].reports] == [0.3, 0.15]
    written = _read_outputs(tmp_path, "ntr.csv", "ntr.json")
    # a later run on the same directory reads the inventories back
    cli.stage_transversality({"config": config})
    assert len(calls) == 2
    assert _read_outputs(tmp_path, "ntr.csv", "ntr.json") == written


def test_criterion_after_lift_reads_the_checkpoint(tmp_path, monkeypatch):
    calls = _counted(monkeypatch, "lift_srb")
    config = finalize_config(RunConfig(
        lam=0.5, samples=20_000, iters=10, fiber_bins=64, y_bins=1200,
        out_dir=str(tmp_path)))
    ctx = {"config": config}
    cli.stage_lift(ctx)
    cli.stage_criterion(ctx)
    assert len(calls) == 1
    written = _read_outputs(tmp_path, "criterion.csv", "criterion.json")
    cli.stage_criterion({"config": config})
    assert len(calls) == 1
    assert _read_outputs(tmp_path, "criterion.csv", "criterion.json") == written


_SMALL = ["--lam", "0.5", "--samples", "20000", "--iters", "10",
          "--fiber-bins", "64", "--y-bins", "1200", "--enum-r", "0.3,0.15",
          "--x-grid-n", "33", "--seed", "7"]
# blob -> (stage writing it, stage reading it, builder, kind tag)
_CHECKPOINTS = {
    "inventory_r0.3.blob": ("enumerate", "transversality", "m_inventory",
                            "m_inventory"),
    "srb.blob": ("lift", "criterion", "lift_srb", "srb_estimate"),
}


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _drop_meta(key):
    def drop(path):
        meta, arrays = cache.read_blob(path)
        del meta[key]
        cache.write_blob(path, _CHECKPOINTS[path.name][3], meta, arrays)
    return drop


@pytest.mark.parametrize("blob, change, damage", [
    ("inventory_r0.3.blob", ["--lam", "0.6"], None),
    ("srb.blob", ["--lam", "0.6"], None),
    # the same file name, but not the exact stored r
    ("inventory_r0.3.blob", ["--enum-r", "0.30000000001,0.15"], None),
    ("inventory_r0.3.blob", ["--x-grid-n", "17"], None),
    ("srb.blob", ["--seed", "8"], None),
    ("inventory_r0.3.blob", [], _truncate),
    ("srb.blob", [], _truncate),
    ("inventory_r0.3.blob", [], _drop_meta("map_hash")),
    ("srb.blob", [], _drop_meta("contraction_budget")),
], ids=["inventory_other_map", "srb_other_map", "inventory_other_r",
        "inventory_other_x_grid_n", "srb_other_seed", "inventory_truncated",
        "srb_truncated", "inventory_missing_field", "srb_missing_field"])
def test_checkpoint_miss_is_recomputed(tmp_path, monkeypatch, blob, change,
                                       damage):
    """A blob written for another key, or damaged, is built afresh and
    rewritten; the rewritten blob is then a hit."""
    writer, reader, builder, _ = _CHECKPOINTS[blob]
    path = tmp_path / blob
    assert main([writer, *_SMALL, "--out", str(tmp_path)]) == 0
    original = path.read_bytes()
    if damage is not None:
        damage(path)
    calls = _counted(monkeypatch, builder)
    assert main([reader, *_SMALL, *change, "--out", str(tmp_path)]) == 0
    built = len(calls)
    assert built >= 1
    if damage is not None:
        assert path.read_bytes() == original
    assert main([reader, *_SMALL, *change, "--out", str(tmp_path)]) == 0
    assert len(calls) == built


def test_second_run_reuses_every_checkpoint(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["all", *_tiny_args(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    inventories = _counted(monkeypatch, "m_inventory")
    lifts = _counted(monkeypatch, "lift_srb")
    assert main(["all", *_tiny_args(out)]) == 0
    assert inventories == [] and lifts == []
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == sorted(second)
    del first["manifest.json"], second["manifest.json"]
    assert first == second


def test_manifest_lists_only_this_runs_files(tmp_path):
    """A fresh directory's manifest lists every file the run left; a second
    run with one scale fewer neither lists nor deletes the stale blob."""
    out = tmp_path / "run"
    assert main(["all", *_tiny_args(out, ("--enum-r", "0.3,0.15"))]) == 0
    first = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(first) == sorted(p.name for p in out.iterdir()
                                   if p.name != "manifest.json")
    assert main(["all", *_tiny_args(out, ("--enum-r", "0.3"))]) == 0
    second = json.loads((out / "manifest.json").read_text())["files"]
    assert (out / "inventory_r0.15.blob").exists()
    assert set(first) - set(second) == {"inventory_r0.15.blob"}
    for name, digest in second.items():
        assert cache.file_sha256(out / name) == digest


def test_stage_error_exit_code(tmp_path, capsys, monkeypatch):
    # a scale above |J| = 1.2 has no word family
    assert main(["enumerate", "--enum-r", "1.5", "--out", str(tmp_path)]) == 3
    assert "stage 'enumerate' failed" in capsys.readouterr().err

    # a single stage wraps any exception, not only the package's own
    def broken(ctx):
        raise RuntimeError("disk on fire")

    monkeypatch.setitem(cli._STAGE_MAP, "acip", broken)
    assert main(["acip", "--out", str(tmp_path)]) == 3
    assert "disk on fire" in capsys.readouterr().err


def test_unknown_command_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_failed_stage_recorded_in_manifest(tmp_path):
    cfg = RunConfig(family="affine", enum_r=(1.5,), out_dir=str(tmp_path))
    from horseshoe.errors import StageError
    with pytest.raises(StageError):
        run_pipeline(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_stage"] == "enumerate"
    assert set(manifest["wall_clock"]) == {"validate", "enumerate"}
    assert set(manifest["peak_rss_mb"]) == {"validate", "enumerate"}
    assert "hyperbolicity.json" in manifest["files"]


def test_runs_are_reproducible(tmp_path, baker_half):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    code1 = main(["all", *_tiny_args(out1, ("--workers", "1"))])
    code2 = main(["all", *_tiny_args(out2, ("--workers", "3"))])
    assert code1 == 0 and code2 == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        if name == "manifest.json":
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# ---------------------------------------------------------------------------
# the cache container


def test_truncated_blob_refused(tmp_path, baker06):
    inv = m_inventory(baker06, 0.3)
    path = tmp_path / "inv.blob"
    save_inventory(inv, path, baker06)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CacheError):
        cache.read_blob(path)


@pytest.mark.parametrize("header", [
    b"[1, 2]",
    b'{"kind": "x", "meta": {}, "payload_sha256": "%s", "arrays": [{"name": "v"}]}',
    b'{"kind": "x", "meta": {}, "payload_sha256": "%s", "arrays": '
    b'[{"name": "v", "dtype": "<f8", "shape": [9], "offset": 0, "nbytes": 32}]}',
], ids=["not_an_object", "array_fields_missing", "array_too_long"])
def test_unreadable_header_refused(tmp_path, header):
    payload = bytes(32)
    if b"%s" in header:
        header = header % hashlib.sha256(payload).hexdigest().encode()
    path = tmp_path / "bad.blob"
    path.write_bytes(cache.MAGIC + struct.pack("<IQ", cache.FORMAT_VERSION,
                                               len(header)) + header + payload)
    with pytest.raises(CacheError):
        cache.read_blob(path)


def test_future_format_version_refused(tmp_path, baker06):
    inv = m_inventory(baker06, 0.3)
    path = tmp_path / "inv.blob"
    save_inventory(inv, path, baker06)
    raw = bytearray(path.read_bytes())
    raw[4] += 1  # little-endian uint32 version field
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="version"):
        cache.read_blob(path)


def test_import_loads_no_scipy():
    """The package and its command line import numpy only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, horseshoe, horseshoe.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_pipeline_imports_no_numpy_ma(tmp_path):
    """A tiny ``all`` never imports ``numpy.ma``; numpy 2.4's ``np.unique``
    does, at 15 ms and 0.6 MiB, so the word-tree and pair code take
    distinct symbols from ``symbolic._distinct``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; from horseshoe.cli import main; "
             f"code = main({['all', *_tiny_args(tmp_path / 'run')]!r}); "
             "print(code, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"
