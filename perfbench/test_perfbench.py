"""Tests of the benchmark's oracles, checks and span recorder.

    python3 -m pytest perfbench/test_perfbench.py -q

The closed forms are checked against numbers obtained another way (dense
quadrature, direct sampling of the Bernoulli convolution); the output
checks are run on a small traced pipeline run and must pass on it and
fail on wrong inputs, such as the lam = 0.7 trapezoid applied to the
lam = 2^-1/2 run.
"""

import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402

LAM = 2.0 ** -0.5
R_LIST = [2.0 ** -k for k in range(3, 8)]


def test_trapezoid_norm_matches_dense_quadrature():
    a, b = oracles.trapezoid_sides(LAM)
    for r in (2.0 ** -3, 2.0 ** -7, 0.3):
        z = np.linspace(-r - 0.01, a + b + r + 0.01, 2_000_001)
        w = oracles.trapezoid_cdf(z + r, a, b) - oracles.trapezoid_cdf(z - r, a, b)
        dense = np.trapezoid(w * w, z) / (r * r)
        assert oracles.trapezoid_window_norm(LAM, r) == pytest.approx(dense, rel=1e-7)


def test_trapezoid_norm_values_and_limit():
    got = [oracles.trapezoid_window_norm(LAM, r) for r in R_LIST]
    # r = 2^-3 .. 2^-7, rising toward 4 (a - b/3) / a^2
    want = [4.96124, 5.15009, 5.20118, 5.21444, 5.21781]
    assert got == pytest.approx(want, abs=1e-5)
    assert oracles.trapezoid_limit(LAM) == pytest.approx(5.218951, abs=1e-6)
    assert all(x < y for x, y in zip(got, got[1:]))
    assert oracles.trapezoid_window_norm(LAM, 2.0 ** -14) == pytest.approx(
        oracles.trapezoid_limit(LAM), abs=1e-3)
    for r, v in zip(R_LIST, got):
        lo, hi = oracles.window_norm_bounds(r)
        assert lo <= v <= hi


def test_trapezoid_is_the_bernoulli_convolution_law():
    """(1 - lam) sum_k eps_k lam^k with fair bits, against the trapezoid CDF."""
    rng = np.random.default_rng(12)
    n = 200_000
    bits = rng.integers(0, 2, size=(n, 60))
    y = (1.0 - LAM) * bits @ (LAM ** np.arange(60))
    a, b = oracles.trapezoid_sides(LAM)
    ys = np.sort(y)
    cdf = oracles.trapezoid_cdf(ys, a, b)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 1.95 / math.sqrt(n)  # 0.1% critical value


def test_constant_slope_exponents():
    assert oracles.constant_slope_epsilon(LAM) == pytest.approx(1.0, abs=1e-12)
    assert oracles.constant_slope_epsilon(0.5) == pytest.approx(0.0, abs=1e-12)
    lo, hi = oracles.constant_slope_epsilon(0.55), oracles.constant_slope_epsilon(0.8)
    assert 0.159 < lo < 0.16 and 2.10 < hi < 2.11


def _write_container(path, meta, arrays):
    descriptors, chunks, offset = [], [], 0
    for name in sorted(arrays):
        raw = np.ascontiguousarray(arrays[name]).tobytes()
        descriptors.append({"name": name, "dtype": arrays[name].dtype.str,
                            "shape": list(arrays[name].shape),
                            "offset": offset, "nbytes": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = json.dumps({"kind": "m_inventory", "meta": meta, "arrays": descriptors,
                         "payload_sha256": hashlib.sha256(payload).hexdigest()}).encode()
    Path(path).write_bytes(b"HSC\x01" + struct.pack("<IQ", 1, len(header))
                           + header + payload)


def _inventory_dir(out, words):
    """An output directory holding one inventory of the doubling base."""
    out.mkdir()
    lo = [sum((s - 1) * 2.0 ** -(len(w) - k) for k, s in enumerate(w)) for w in words]
    words = [w for _, w in sorted(zip(lo, words), key=lambda p: (p[0], len(p[1])))]
    lengths = np.array([len(w) for w in words], dtype=np.int32)
    _write_container(out / "inv.blob", {"r": 0.5}, {
        "symbols": np.array([s for w in words for s in w], dtype=np.int32),
        "lengths": lengths, "base_lo": np.array(sorted(lo)),
        "base_len": np.ldexp(1.0, -lengths.astype(int)),
        "x_grid": np.zeros(2), "diam": np.zeros(len(words))})
    (out / "enumeration.json").write_text(json.dumps({"0.5": {
        "file": "inv.blob", "words": len(words), "mass_defect": 0.0,
        "len_min": int(lengths.min()), "len_max": int(lengths.max())}}))
    return out


def test_tiling_check_sees_overlap_that_the_mass_misses(tmp_path):
    tiling = [(1, 1), (2, 1), (1, 2), (2, 2)]
    assert oracles.untiled_scales(_inventory_dir(tmp_path / "a", tiling), [0.5]) == []
    # prefix-free in append order, so the lengths sum to 1, but
    # I_(1) = [0, 1/2] overlaps I_(2,1) = [1/4, 1/2] and [1/2, 3/4] is missed
    skewed = [(1,), (2, 1), (2, 2)]
    out = _inventory_dir(tmp_path / "b", skewed)
    assert sum(2.0 ** -len(w) for w in skewed) == 1.0
    assert oracles.untiled_scales(out, [0.5]) == [0.5]
    assert oracles.check_inventories(out, [0.5]) == []


# ---------------------------------------------------------------------------
# a small traced pipeline run of baker(2^-1/2)

SMALL = {"family": "baker", "lam": LAM, "samples": 1_000_000, "iters": 40,
         "y_bins": 1200, "fiber_bins": 64, "enum_r": [2.0 ** -3, 2.0 ** -4],
         "fat_depth": 8, "diag_word_depth": 5, "figure_n": 4, "seed": 5}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = BENCH.parent
    if not (root / "src" / "horseshoe").is_dir():
        pytest.skip("no horseshoe sources next to the benchmark")
    work = tmp_path_factory.mktemp("small")
    config = dict(SMALL, out_dir=str(work / "out"))
    (work / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(work / "config.json"),
         "--trace", str(work / "spans.jsonl")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return work / "out", result


def test_checks_pass_on_a_correct_run(small_run):
    out, result = small_run
    assert oracles.check_run(out, result["config"]) == []
    assert oracles.untiled_scales(out, SMALL["enum_r"]) == []


def test_wrong_trapezoid_oracle_fails(small_run):
    out, _ = small_run
    assert oracles.check_trapezoid(out, LAM) == []
    assert len(oracles.check_trapezoid(out, 0.7)) == len(R_LIST)


def test_checks_fail_on_wrong_expectations(small_run, tmp_path):
    out, result = small_run
    assert oracles.check_figure(out, SMALL["figure_n"], 65)
    assert oracles.check_fatness(out, 9, 1.0, 1.0)
    assert oracles.check_fatness(out, 8, 1.1, 2.0)
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    ntr = json.loads((bad / "ntr.json").read_text())
    ntr["reports"][0]["n_pairs"] += 2
    (bad / "ntr.json").write_text(json.dumps(ntr))
    assert oracles.check_pair_counts(bad, SMALL["enum_r"])
    assert oracles.check_manifest(bad, oracles.file_digests(bad))


def test_trace_reports_every_per_layer_metric(small_run):
    _, result = small_run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    report = result["trace"]
    derived = {"trace.untraced_pipeline_s", "trace.overhead_s"}
    missing = {m["name"] for m in spec["per_layer"]} - derived - set(report)
    assert not missing
    stages = sum(v for k, v in report.items() if k.startswith("cli.stage."))
    assert stages <= report["cli.pipeline_s"]
    assert report["cli.outside_stages_s"] == pytest.approx(
        report["cli.pipeline_s"] - stages)
    assert report["measures.sample_steps"] == SMALL["samples"] * SMALL["iters"]
    assert report["figures.polygons"] == 2 ** SMALL["figure_n"]
    assert report["symbolic.cylinder_words"] == 2 ** (SMALL["fat_depth"] + 1) - 2
