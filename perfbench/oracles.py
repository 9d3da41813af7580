"""Closed forms, bounds and output checks, computed apart from the program.

Nothing here imports ``horseshoe``: the checks read the files a
``horseshoe all`` run leaves in its output directory (JSON, CSV and the
cache containers, through a reader of the documented container layout)
and compare them with values derived by hand:

* the fiber law of ``baker(2^-1/2)``, a Bernoulli convolution that is the
  sum of two independent uniforms (a trapezoid), whose window norm I(r)
  is integrated exactly here;
* the uniform invariant density of the doubling base;
* the width exponent log 2 / log(1/lam) - 1 of constant-slope fibers, and
  the interval the affine family's exponent must fall in;
* counts and identities any correct run meets (exact dyadic cylinders,
  the number of ordered pairs with distinct leads, the number of words in
  a full tree, the number of figure bands, byte-identical repetitions).

Every check returns a list of failure messages; an empty list is a pass.
The tiling of the base by the inventory words is reported apart, by
``untiled_scales``: the affine family's inventories fail it on every run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# extended fiber interval J of both built-in families
J_LEN = 1.2

_MAGIC = b"HSC\x01"


# ---------------------------------------------------------------------------
# closed forms


def trapezoid_sides(lam):
    """Widths (a, b), a > b, of the two uniforms whose sum is the fiber law.

    For baker(lam) with fair bits the fiber coordinate is
    (1 - lam) * sum_k eps_k lam^k.  With lam^2 = 1/2 the even and the odd
    terms are each a uniform variable, so the law is
    U[0, 2(1-lam)] + U[0, 2 lam (1-lam)].  For any other lam these are just
    the widths of a trapezoid, which is how a wrong oracle is made in the
    tests.
    """
    a = 2.0 * (1.0 - lam)
    return a, a * lam


def trapezoid_cdf(z, a, b):
    """CDF of U[0,a] + U[0,b] with b <= a (piecewise quadratic)."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    rise = (z > 0) & (z < b)
    flat = (z >= b) & (z < a)
    fall = (z >= a) & (z < a + b)
    out[rise] = z[rise] ** 2 / (2 * a * b)
    out[flat] = (z[flat] - b / 2) / a
    out[fall] = 1.0 - (a + b - z[fall]) ** 2 / (2 * a * b)
    out[z >= a + b] = 1.0
    return out


def trapezoid_window_norm(lam, r):
    """r^-2 * integral of (F(z+r) - F(z-r))^2 dz for the trapezoid law.

    The window mass is piecewise quadratic between the kinks of F shifted
    by +-r, so its square is a quartic there and 5-point Gauss-Legendre on
    each piece integrates it exactly.
    """
    a, b = trapezoid_sides(lam)
    kinks = np.array([0.0, b, a, a + b])
    bp = np.unique(np.concatenate([kinks - r, kinks + r]))
    nodes, weights = np.polynomial.legendre.leggauss(5)
    lo, hi = bp[:-1], bp[1:]
    half = (hi - lo) / 2
    z = (lo + hi)[:, None] / 2 + half[:, None] * nodes[None, :]
    w = trapezoid_cdf(z + r, a, b) - trapezoid_cdf(z - r, a, b)
    return float(np.sum(half[:, None] * weights[None, :] * w * w)) / (r * r)


def trapezoid_limit(lam):
    """lim_{r->0} of the window norm: 4 * integral f^2 = 4 (a - b/3) / a^2."""
    a, b = trapezoid_sides(lam)
    return 4.0 * (a - b / 3.0) / (a * a)


def constant_slope_epsilon(slope):
    """Width exponent of a doubling base under constant fiber slope."""
    return math.log(2.0) / math.log(1.0 / slope) - 1.0


def window_norm_bounds(r, support=J_LEN):
    """Bounds on I(r) for any probability law on an interval of that length.

    The window mass W has integral 2r and W <= 1, so integral W^2 <= 2r;
    Cauchy-Schwarz over the support widened by r on each side gives
    integral W^2 >= (2r)^2 / (support + 2r).
    """
    return 4.0 / (support + 2.0 * r), 2.0 / r


def trapezoid_tolerance(lam, r, n_kept, col_min, y_cell, n_iter):
    """(below, above) allowance of a sampled I(r) around the exact trapezoid.

    * sampling: the linear part of the estimate is a mean of N bounded
      terms of range 4 r^2 max f per column, so its standard deviation is
      at most 4 max f / sqrt(N) after the r^-2 scaling; six of them hold
      for any seed;
    * self-pair bias: the variance term of E[integral W_hat^2] is positive
      and at most 2r / N_col, so it only raises I(r), by <= 2/(r N_col);
    * binning: a piecewise-linear CDF on cells h differs from F by at most
      h^2 max|f'| / 8, which moves I(r) by at most h^2 max|f'| / r;
    * truncation: n_iter steps leave the fiber coordinate short by at most
      lam^n_iter, which moves I(r) by at most 8 lam^n_iter max f / r.
    """
    a, b = trapezoid_sides(lam)
    fmax, fprime = 1.0 / a, 1.0 / (a * b)
    sampling = 6.0 * 4.0 * fmax / math.sqrt(n_kept)
    binning = y_cell ** 2 * fprime / r
    truncation = 8.0 * lam ** n_iter * fmax / r
    bias = 2.0 / (r * col_min)
    return sampling + binning + truncation, sampling + binning + truncation + bias


# ---------------------------------------------------------------------------
# reading outputs


def read_container(path):
    """(meta, arrays) of a cache container, verifying its payload digest.

    Layout: magic, little-endian u32 version and u64 header length, JSON
    header, raw C-ordered array bytes at the offsets the header records.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a cache container")
    _, hlen = struct.unpack_from("<IQ", raw, 4)
    header = json.loads(raw[16:16 + hlen])
    payload = raw[16 + hlen:]
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise ValueError(f"{path}: payload digest mismatch")
    arrays = {}
    for d in header["arrays"]:
        buf = payload[d["offset"]:d["offset"] + d["nbytes"]]
        arrays[d["name"]] = np.frombuffer(buf, dtype=d["dtype"]).reshape(d["shape"])
    return header["meta"], arrays


def _json(out, name):
    return json.loads((Path(out) / name).read_text())


def file_digests(out):
    """sha256 of every output file except the manifest (it holds timings)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())
            if p.is_file() and p.name != "manifest.json"}


# ---------------------------------------------------------------------------
# checks on one output directory


def check_manifest(out, digests):
    """The manifest's per-file digests match the files."""
    recorded = _json(out, "manifest.json")["files"]
    recorded.pop("manifest.json", None)
    if recorded != digests:
        return ["manifest digests differ from the files"]
    return []


def check_acip_uniform(out, bins):
    """The doubling base has the uniform invariant density."""
    fails = []
    acip = _json(out, "acip.json")
    for key in ("l_bound", "L_bound"):
        if abs(acip[key] - 1.0) > 1e-9:
            fails.append(f"acip {key} = {acip[key]!r}, uniform density is 1")
    with open(Path(out) / "acip.csv") as fh:
        masses = np.array([float(row["mass"]) for row in csv.DictReader(fh)])
    if masses.size != bins or np.abs(masses * bins - 1.0).max() > 1e-9:
        fails.append("acip.csv masses are not uniform 1/bins")
    return fails


def _inventory(out, r):
    entry = _json(out, "enumeration.json")[f"{r:.10g}"]
    _, arrays = read_container(Path(out) / entry["file"])
    return entry, arrays


def untiled_scales(out, enum_r):
    """Scales whose inventory words do not tile [0,1] left to right.

    Sorted by left end, each base interval must start where the previous
    one ends; a family whose lengths sum to 1 can still overlap and leave
    gaps, which the mass identity alone cannot see.
    """
    bad = []
    for r in enum_r:
        _, arr = _inventory(out, r)
        lo, ln = arr["base_lo"], arr["base_len"]
        if (abs(lo[0]) > 1e-12 or abs(lo[-1] + ln[-1] - 1.0) > 1e-12
                or np.abs(lo[1:] - (lo[:-1] + ln[:-1])).max(initial=0.0) > 1e-12):
            bad.append(r)
    return bad


def check_inventories(out, enum_r):
    """Mass defect, summary agreement and exact dyadic cylinders of every M(r)."""
    fails = []
    for r in enum_r:
        entry, arr = _inventory(out, r)
        key = f"{r:.10g}"
        if entry["mass_defect"] > 1e-12:
            fails.append(f"r={key}: mass defect {entry['mass_defect']:.3g} > 1e-12")
        lengths = arr["lengths"].astype(int)
        if lengths.size != entry["words"] or lengths.size == 0:
            fails.append(f"r={key}: {lengths.size} words in the blob, "
                         f"{entry['words']} in the summary")
            continue
        if (lengths.min(), lengths.max()) != (entry["len_min"], entry["len_max"]):
            fails.append(f"r={key}: word length range differs from the summary")
        # doubling base: |I_w| = 2^-n, and symbol k (0-based) of a length-n
        # word is the binary digit of weight 2^-(n-k) of the left end
        if np.any(arr["base_len"] != np.ldexp(1.0, -lengths)):
            fails.append(f"r={key}: base lengths are not 2^-len(word)")
        symbols = arr["symbols"].astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        weight = np.repeat(lengths, lengths) - (
            np.arange(symbols.size) - np.repeat(starts, lengths))
        expect_lo = np.add.reduceat((symbols - 1) * np.ldexp(1.0, -weight), starts)
        if np.any(expect_lo != arr["base_lo"]):
            fails.append(f"r={key}: base intervals differ from the dyadic cylinders")
    return fails


def check_pair_counts(out, enum_r):
    """ntr n_pairs equals a recount of ordered pairs with distinct leads."""
    fails = []
    reports = {f"{rep['r']:.10g}": rep for rep in _json(out, "ntr.json")["reports"]}
    for r in enum_r:
        key = f"{r:.10g}"
        _, arr = _inventory(out, r)
        lengths = arr["lengths"].astype(int)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        leads = arr["symbols"][starts[lengths > 0]]
        per_lead = np.bincount(leads).astype(np.int64)
        want = int(per_lead.sum()) ** 2 - int((per_lead * per_lead).sum())
        got = reports[key]["n_pairs"]
        if got != want:
            fails.append(f"r={key}: ntr n_pairs {got}, recount {want}")
    return fails


def check_fatness(out, fat_depth, eps_lo, eps_hi, tol=1e-9):
    fails = []
    fat = _json(out, "fatness.json")
    want_words = 2 ** (fat_depth + 1) - 4
    if fat["words_used"] != want_words:
        fails.append(f"fatness words_used {fat['words_used']}, full tree has {want_words}")
    if not eps_lo - tol <= fat["epsilon"] <= eps_hi + tol:
        fails.append(f"fatness epsilon {fat['epsilon']!r} outside [{eps_lo!r}, {eps_hi!r}]")
    return fails


def check_criterion_bounds(out):
    fails = []
    crit = _json(out, "criterion.json")
    for r, val in zip(crit["r"], crit["I_r"]):
        lo, hi = window_norm_bounds(r)
        if not lo <= val <= hi:
            fails.append(f"I({r:.6g}) = {val!r} outside [{lo:.6g}, {hi:.6g}]")
    return fails


def check_trapezoid(out, lam):
    """Sampled I(r) within its error allowance of the exact trapezoid value."""
    fails = []
    crit = _json(out, "criterion.json")
    lift = _json(out, "lift.json")
    meta, arr = read_container(Path(out) / "srb.blob")
    cond = arr["cond_counts"]
    col = cond.sum(axis=1)
    if col.min() <= 0:
        return ["an x column of the lift holds no samples"]
    y_cell = (meta["fiber_range"][1] - meta["fiber_range"][0]) / meta["y_bins"]
    for r, val in zip(crit["r"], crit["I_r"]):
        exact = trapezoid_window_norm(lam, r)
        below, above = trapezoid_tolerance(lam, r, lift["kept"], int(col.min()),
                                           y_cell, lift["iterations_used"])
        if not exact - below <= val <= exact + above:
            fails.append(f"I({r:.6g}) = {val!r}, trapezoid oracle {exact!r} "
                         f"allows [-{below:.3g}, +{above:.3g}]")
    return fails


def check_figure(out, n, grid):
    """2^n bands, each a closed polygon inside the unit square."""
    fails = []
    words = {}
    with open(Path(out) / f"strips_n{n}.csv") as fh:
        for row in csv.DictReader(fh):
            x, y = float(row["x"]), float(row["y"])
            if not (-1e-12 <= x <= 1 + 1e-12 and -1e-12 <= y <= 1 + 1e-12):
                fails.append(f"band {row['word']} leaves the unit square at ({x}, {y})")
                break
            words[row["word"]] = words.get(row["word"], 0) + 1
    if len(words) != 2 ** n:
        fails.append(f"figure has {len(words)} bands, expected 2^{n}")
    if any(v != 2 * grid for v in words.values()):
        fails.append(f"a band does not have {2 * grid} vertices")
    svg = (Path(out) / f"strips_n{n}.svg").read_text()
    if svg.count("<polygon") != 2 ** n:
        fails.append("svg polygon count differs from 2^n")
    return fails


def check_consistency(out, config):
    fails = []
    lift = _json(out, "lift.json")
    if (lift["n_samples"] != config["samples"]
            or lift["kept"] + lift["discarded"] != lift["n_samples"]
            or lift["iterations_used"] != config["iters"]):
        fails.append("lift.json sample accounting is inconsistent")
    verdict = _json(out, "verdict.json")
    if verdict["fat_epsilon"] != _json(out, "fatness.json")["epsilon"]:
        fails.append("verdict fat_epsilon differs from fatness.json")
    if verdict["ntr_exponent"] != _json(out, "ntr.json")["exponent_fit"]:
        fails.append("verdict ntr_exponent differs from ntr.json")
    return fails


def check_run(out, config):
    """Every check but the tiling one that applies to the built-in families."""
    fails = []
    fails += check_manifest(out, file_digests(out))
    fails += check_acip_uniform(out, config["bins"])
    fails += check_inventories(out, config["enum_r"])
    fails += check_pair_counts(out, config["enum_r"])
    fails += check_criterion_bounds(out)
    fails += check_figure(out, config["figure_n"], config["figure_grid"])
    fails += check_consistency(out, config)
    if config["family"] == "baker":
        eps = constant_slope_epsilon(config["lam"])
        fails += check_fatness(out, config["fat_depth"], eps, eps)
        if abs(config["lam"] ** 2 - 0.5) < 1e-15:
            fails += check_trapezoid(out, config["lam"])
    else:
        fails += check_fatness(out, config["fat_depth"],
                               constant_slope_epsilon(config["b"]),
                               constant_slope_epsilon(config["a"]))
    return fails
