"""Base-factor density, measure lifting, and the fiberwise L2 criterion.

The base factor of a skew product is the piecewise expanding interval map
induced on the first coordinate.  Its invariant density is estimated by a
transfer-matrix (cell-overlap) discretization; the two-dimensional invariant
measure is then realized by drawing base points from that density, pushing
them through the strip map, and histogramming fiber conditionals.  The L2
criterion integrates squared sliding-window masses of those conditionals.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    ParameterError,
    ResolutionError,
    SampleDiscardError,
)
from .maps import GhmSpec

_BOUNDARY_TOL = 1e-12
_JITTER = 1e-12
_CHUNK = 1 << 18
_SQ_BINS = 256
_MAX_DISCARD_FRAC = 0.01  # share of samples that may leave the domain
_DIVERGING_SLOPE = -0.2  # I(r) log-log slope at or below which it diverges
_BOUNDED_RATIO = 2.0  # spread of the three smallest-r values of a bounded I(r)


# ---------------------------------------------------------------------------
# base factor


@dataclass(frozen=True)
class PiecewiseAffineBase:
    """Standalone expanding interval map, for density estimation on its own.

    ``breaks`` partitions [0,1]; branch i sends x to slopes[i]*x + offsets[i].
    Branches need not be onto [0,1] (Markov test maps are not), but must map
    into it.
    """

    breaks: tuple
    slopes: tuple
    offsets: tuple

    def __post_init__(self):
        if len(self.slopes) != len(self.breaks) - 1:
            raise ParameterError("one slope per base interval required")
        if len(self.offsets) != len(self.slopes):
            raise ParameterError("one offset per base interval required")


def _base_of(spec_or_base):
    if isinstance(spec_or_base, GhmSpec):
        sks = spec_or_base.skew
        breaks = tuple(float(v) for v in spec_or_base.base_breaks)
        return PiecewiseAffineBase(
            breaks=breaks,
            slopes=tuple(sk.base_slope for sk in sks),
            offsets=tuple(sk.base_offset for sk in sks),
        )
    return spec_or_base


@dataclass
class Density1D:
    """Binned base-invariant density with essential-bound estimates."""

    bins: int
    masses: np.ndarray
    l_bound: float
    L_bound: float
    residual: float = 0.0
    sweeps: int = 0

    def density(self):
        return self.masses * self.bins

    def cdf_edges(self):
        return np.concatenate([[0.0], np.cumsum(self.masses)])


def ulam_transition(base, bins):
    """Cell-to-cell transfer fractions of the base map, as a COO triple.

    Returns integer arrays ``j``, ``k`` and float ``frac``: ``frac`` is the
    fraction of cell j that lands in cell k, computed from exact interval
    overlaps, so piecewise-affine images carry no quadrature error.  There
    is one entry per (j, k), ordered by j then k.  Branches sharing a cell
    (only cells that hold a break) emit the same (j, k) more than once;
    those terms are summed in branch order, starting from 0.0.
    """
    base = _base_of(base)
    edges = np.linspace(0.0, 1.0, bins + 1)
    parts = []
    for (blo, bhi), m, c in zip(zip(base.breaks, base.breaks[1:]),
                                base.slopes, base.offsets):
        j_first = max(int(np.searchsorted(edges, blo, side="right")) - 1, 0)
        j_last = min(int(np.searchsorted(edges, bhi, side="left")) - 1, bins - 1)
        j = np.arange(j_first, j_last + 1)
        a = np.maximum(edges[j], blo)
        b = np.minimum(edges[j + 1], bhi)
        keep = b > a
        j, a, b = j[keep], a[keep], b[keep]
        ia, ib = m * a + c, m * b + c
        ia, ib = np.minimum(ia, ib), np.maximum(ia, ib)
        k_first = np.maximum(np.searchsorted(edges, ia, side="right") - 1, 0)
        k_last = np.minimum(np.searchsorted(edges, ib, side="left") - 1, bins - 1)
        n_k = np.maximum(k_last - k_first + 1, 0)
        start = np.repeat(np.cumsum(n_k) - n_k, n_k)
        k = np.repeat(k_first, n_k) + np.arange(start.size) - start
        ia, ib, j = np.repeat(ia, n_k), np.repeat(ib, n_k), np.repeat(j, n_k)
        lo = np.maximum(edges[k], ia)
        hi = np.minimum(edges[k + 1], ib)
        keep = hi > lo
        j, k, lo, hi = j[keep], k[keep], lo[keep], hi[keep]
        # fraction of cell j whose image covers [lo, hi]
        parts.append((j, k, (hi - lo) / abs(m) / (edges[j + 1] - edges[j])))
    j, k, frac = (np.concatenate(col) for col in zip(*parts))
    key = j * bins + k
    order = np.argsort(key, kind="stable")
    key, j, k, frac = key[order], j[order], k[order], frac[order]
    first = np.concatenate([[True], key[1:] != key[:-1]])
    frac = np.bincount(np.cumsum(first) - 1, weights=frac)
    return j[first], k[first], frac


def ulam_acip(spec_or_base, bins=4096, tol=1e-12, max_sweeps=100_000):
    """Stationary cell masses of the transfer discretization.

    Power-iterates the mass transport from the uniform vector until the
    total-variation step residual reaches ``tol``.  The triple of
    ``ulam_transition`` is ordered by k once (stably, so j stays ascending
    within each k); a sweep is then ``np.bincount(k, frac * v[j])``, which
    adds each column's terms in ascending j from 0.0.  That is the order in
    which a CSR mat-vec with the transposed matrix sums them, so the masses
    equal a sparse-matrix power iteration's bit for bit.
    """
    if bins < 16 or bins & (bins - 1) != 0:
        raise ParameterError(f"bin count must be a power of two >= 16, got {bins}")
    if not tol > 0.0:
        raise ParameterError("a zero residual tolerance is unreachable; use tol > 0")
    j, k, frac = ulam_transition(spec_or_base, bins)
    order = np.argsort(k, kind="stable")
    j, k, frac = j[order], k[order], frac[order]
    v = np.full(bins, 1.0 / bins)
    history = []
    for sweep in range(1, max_sweeps + 1):
        w = np.bincount(k, weights=frac * v[j], minlength=bins)
        s = w.sum()
        if s <= 0:
            raise ConvergenceError("transfer matrix lost all mass", history)
        w /= s
        residual = 0.5 * float(np.abs(w - v).sum())
        history.append(residual)
        v = w
        if residual <= tol:
            dens = v * bins
            return Density1D(bins=bins, masses=v,
                            l_bound=float(dens.min()), L_bound=float(dens.max()),
                            residual=residual, sweeps=sweep)
    raise ConvergenceError(
        f"no residual <= {tol} within {max_sweeps} sweeps "
        f"(last {min(5, len(history))}: {history[-5:]})", history)


# ---------------------------------------------------------------------------
# lifting


@dataclass
class SrbEstimate:
    """Sampled two-dimensional invariant measure with fiber conditionals.

    ``cond_counts`` is the (x-bin, y-bin) histogram over [0,1] x J used for
    fiber conditionals; ``sq_counts`` is a square histogram over [0,1]^2 for
    density grids.  The two count histograms are all the lift keeps.
    """

    spec_hash: str
    seed: int
    n_samples: int
    iterations_used: int
    fiber_bins: int
    y_bins: int
    fiber_range: tuple
    cond_counts: np.ndarray
    sq_counts: np.ndarray
    sq_bins: int
    kept: int
    discarded: int
    jittered: int
    contraction_budget: float

    def column_mass(self):
        return self.cond_counts.sum(axis=1) / self.kept

    def conditionals(self):
        """Per-column probability vectors over the fiber bins (rows sum to 1)."""
        counts = self.cond_counts.astype(float)
        tot = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(tot > 0, counts / tot, 0.0)
        return out

    @property
    def y_cell(self):
        return (self.fiber_range[1] - self.fiber_range[0]) / self.y_bins


def _draw_base_points(density, n, rng):
    """Inverse-CDF sampling of the binned density (linear within cells)."""
    cums = density.cdf_edges()
    u = rng.random(n)
    j = np.searchsorted(cums, u, side="right") - 1
    j = np.clip(j, 0, density.bins - 1)
    mass = density.masses[j]
    frac = np.where(mass > 0, (u - cums[j]) / np.maximum(mass, 1e-300), 0.0)
    return (j + frac) / density.bins


def _constant_fibers(spec):
    """Per-branch (slope, offset) tables when every fiber is constant-affine.

    That is every fiber that ``affine_fiber`` built from float slope and
    offset, as in the baker family; ``maps._const`` records the float on the
    callable it makes.  Returns None when any branch lacks the mark.
    """
    try:
        return (np.array([sk.fiber.slope.constant for sk in spec.skew]),
                np.array([sk.fiber.offset.constant for sk in spec.skew]))
    except AttributeError:
        return None


def _step_chunk(spec, n):
    """The strip-map step of one chunk of n points, on buffers it owns.

    Returns ``step(x, y, counters) -> (u, v)``, one forward application of
    the map.  A point with |x - b| <= ``_BOUNDARY_TOL`` for some inner break
    b is first moved right by ``_JITTER`` and counted in
    ``counters["jittered"]``.  A point's branch is then the number of inner
    breaks <= x, so points left of 0 take the first branch and points right
    of 1 the last.  The base step applies that branch's slope and offset.

    The boundary test, jitter, branch index, base step and gathers write
    through ``out=`` into work buffers allocated here once, so every step
    of a chunk reuses them.  The step never writes into the caller's x or
    y; the u (and table-path v) it returns is overwritten by the next step.
    Gathers use ``take(..., mode="clip")``, which writes ``out`` directly
    (the default mode buffers it); the branch index is always in range.
    When every fiber is constant-affine (``_constant_fibers``), v is
    gathered as slope[i] * y + offset[i], the same two IEEE operations as
    ``fiber.value``.  Otherwise each fiber map is evaluated on the whole
    chunk and ``np.where`` keeps every point's own branch, in a new array.
    """
    inner = spec.base_breaks[1:-1]
    slopes = np.array([sk.base_slope for sk in spec.skew], dtype=float)
    offsets = np.array([sk.base_offset for sk in spec.skew], dtype=float)
    tables = _constant_fibers(spec)
    fibers = [sk.fiber for sk in spec.skew]
    # near and idx start at zero: a one-strip map has no inner break to set them
    near = np.zeros(n, dtype=bool)
    hit = np.empty(n, dtype=bool)
    idx = np.zeros(n, dtype=np.intp)
    tmp = np.empty(n)
    u = np.empty(n)
    v = np.empty(n) if tables is not None else None

    def step(x, y, counters):
        for k, b in enumerate(inner):
            np.subtract(x, b, out=tmp)
            np.abs(tmp, out=tmp)
            np.less_equal(tmp, _BOUNDARY_TOL, out=hit if k else near)
            if k:
                np.logical_or(near, hit, out=near)
        n_near = int(np.count_nonzero(near))
        if n_near:
            counters["jittered"] += n_near
            if x is not u:
                np.copyto(u, x)
            np.add(u, _JITTER, out=u, where=near)
            x = u
        for k, b in enumerate(inner):
            np.greater_equal(x, b, out=hit if k else idx)
            if k:
                np.add(idx, hit, out=idx)
        slopes.take(idx, out=tmp, mode="clip")
        np.multiply(tmp, x, out=u)
        offsets.take(idx, out=tmp, mode="clip")
        np.add(u, tmp, out=u)
        if tables is None:
            w = fibers[-1].value(u, y)
            for i, fib in enumerate(fibers[:-1]):
                w = np.where(idx == i, fib.value(u, y), w)
            return u, w
        tables[0].take(idx, out=tmp, mode="clip")
        np.multiply(tmp, y, out=v)
        tables[1].take(idx, out=tmp, mode="clip")
        np.add(v, tmp, out=v)
        return u, v

    return step


def _bin_index(v, lo, hi, n):
    """Bin of each value among n equal bins on [lo, hi], shifted up by one.

    The bins are those of ``np.histogramdd``: edges ``np.linspace(lo, hi,
    n + 1)``, bin k holding edges[k] <= v < edges[k + 1], and the top edge hi
    folded into the last bin.  Values below lo (and NaN) get 0, values above
    hi get n + 1.  The arithmetic floor is at most one bin off next to an
    edge; one comparison with each edge of the guessed bin corrects it.
    """
    edges = np.linspace(lo, hi, n + 1)
    # lower[s] is the lower edge of shifted bin s; nudging the top edge up one
    # ulp folds v == hi into bin n
    lower = np.concatenate(([-np.inf], edges[:-1], [np.nextafter(hi, np.inf)]))
    t = (v - lo) * (n / (hi - lo))
    t += 1.0
    np.fmax(t, 0.0, out=t)
    np.fmin(t, n, out=t)
    s = t.astype(np.intp)
    s -= v < lower.take(s)
    s += v >= lower.take(s + 1)
    return s


def _grid_counts(x, y, nx, ny, yrange):
    """int64 counts of the points on nx x ny equal bins over [0,1] x yrange.

    The same counts as NumPy's two-dimensional histogram with ``bins=[nx, ny]``
    and ``range=[[0, 1], yrange]``: points outside the range fall into the
    outlier rim and are dropped.
    """
    flat = _bin_index(x, 0.0, 1.0, nx) * (ny + 2)
    flat += _bin_index(y, yrange[0], yrange[1], ny)
    counts = np.bincount(flat, minlength=(nx + 2) * (ny + 2))
    return counts.reshape(nx + 2, ny + 2)[1:-1, 1:-1].astype(np.int64)


def lift_srb(spec, density, n_iter, n_samples, seed,
             fiber_bins=256, y_bins=4096, workers=1):
    """Push base-density samples through the map and histogram the endpoints.

    The iteration count realizes the lifting limit at finite depth: fibers
    contract by at least the largest slope per step, and the leftover fiber
    uncertainty (max slope)^n_iter * |J| is recorded on the estimate so the
    caller can compare it with the histogram resolution.  Work is split into
    fixed-size chunks with per-chunk child seeds; results are merged in chunk
    order, so the outcome is identical for any worker count.

    Each step is ``_step_chunk``: a point with |x - b| <= ``_BOUNDARY_TOL``
    for an inner break b moves right by ``_JITTER`` (counted in ``jittered``)
    and then takes branch i = the number of inner breaks <= x.  A chunk
    builds its step once, and its n_iter steps reuse that step's work
    buffers, written through ``out=`` and gathered with ``mode="clip"``;
    constant-affine fibers are gathered from per-branch tables, and any
    other map falls back to ``fiber.value`` and ``np.where``.  After the
    last step, points outside [-tol, 1 + tol] x J are discarded; the rest are
    counted on equal bins as ``np.histogramdd`` bins them (``_grid_counts``),
    into ``cond_counts`` and the ``_SQ_BINS`` square ``sq_counts``; the
    endpoints themselves are not kept.  More than ``_MAX_DISCARD_FRAC`` of
    the samples discarded raises ``SampleDiscardError``.
    """
    if n_iter < 1:
        raise ParameterError("need at least one iteration to leave the base line")
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    jlo, jhi = spec.extended_fiber
    contraction = max(hi for _, hi in spec.fiber_slope_bounds)

    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(_CHUNK, n_samples - k * _CHUNK) for k in range(n_chunks)]

    def run_chunk(args):
        child_seed, m = args
        rng = np.random.default_rng(child_seed)
        counters = {"jittered": 0}
        x = _draw_base_points(density, m, rng)
        y = np.zeros_like(x)
        step = _step_chunk(spec, m)
        for _ in range(n_iter):
            x, y = step(x, y, counters)
        good = (x >= -_BOUNDARY_TOL) & (x <= 1 + _BOUNDARY_TOL) & (y >= jlo) & (y <= jhi)
        dropped = int(m - good.sum())
        if dropped:
            x, y = x[good], y[good]
        cond = _grid_counts(x, y, fiber_bins, y_bins, (jlo, jhi))
        sq = _grid_counts(x, y, _SQ_BINS, _SQ_BINS, (0.0, 1.0))
        return cond, sq, dropped, counters["jittered"]

    args = list(zip(seeds, sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, args))
    else:
        results = [run_chunk(a) for a in args]

    cond = np.zeros((fiber_bins, y_bins), dtype=np.int64)
    sq = np.zeros((_SQ_BINS, _SQ_BINS), dtype=np.int64)
    discarded = 0
    jittered = 0
    for c, s, d, j in results:
        cond += c
        sq += s
        discarded += d
        jittered += j
    if discarded > _MAX_DISCARD_FRAC * n_samples:
        raise SampleDiscardError(
            f"{discarded} of {n_samples} orbit samples left the domain",
            discarded, n_samples)
    kept = n_samples - discarded
    return SrbEstimate(
        spec_hash=spec.map_hash,
        seed=int(seed),
        n_samples=int(n_samples),
        iterations_used=int(n_iter),
        fiber_bins=int(fiber_bins),
        y_bins=int(y_bins),
        fiber_range=(jlo, jhi),
        cond_counts=cond,
        sq_counts=sq,
        sq_bins=_SQ_BINS,
        kept=int(kept),
        discarded=int(discarded),
        jittered=int(jittered),
        contraction_budget=float(contraction ** n_iter * (jhi - jlo)),
    )


def density_grid(srb, nx, ny):
    """Weight-normalized histogram of the estimate over the unit square.

    The grid is read off the stored square histogram by summing blocks, so
    nx and ny must divide ``srb.sq_bins``.
    """
    if nx < 1 or ny < 1:
        raise ParameterError("grid shape must be at least 1x1")
    if srb.sq_bins % nx or srb.sq_bins % ny:
        raise ParameterError(
            f"grid {nx}x{ny} does not divide the stored {srb.sq_bins}^2 histogram")
    fx = srb.sq_bins // nx
    fy = srb.sq_bins // ny
    blocks = srb.sq_counts.reshape(nx, fx, ny, fy).sum(axis=(1, 3))
    return blocks / blocks.sum()


# ---------------------------------------------------------------------------
# sliding-window L2 machinery


_NORM_ROWS = 32  # histogram rows per block of the window integrals


def _sliding_sq_integrals(masses, edges, radii):
    """(radii, rows) array: integral of (mass of the radius-r window)^2 dz, exactly.

    The window mass W(z) = C(z+r) - C(z-r) of a row is piecewise linear
    between the breakpoints edges -/+ r; each segment contributes
    len * (w1^2 + w1*w2 + w2^2)/3.  The piecewise-linear CDFs C are built
    once; each radius is evaluated ``_NORM_ROWS`` rows at a time.
    """
    nbins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    width = (hi - lo) / nbins
    cums = np.cumsum(np.pad(masses, ((0, 0), (1, 0))), axis=1)
    out = np.empty((len(radii), masses.shape[0]))
    for k, r in enumerate(radii):
        bp = np.unique(np.concatenate([edges - r, edges + r]))
        zc = np.clip(np.stack((bp + r, bp - r)), lo, hi)
        j = np.minimum(((zc - lo) / width).astype(int), nbins - 1)
        frac = (zc - (lo + j * width)) / width
        seg = np.diff(bp)
        for start in range(0, masses.shape[0], _NORM_ROWS):
            rows = slice(start, start + _NORM_ROWS)
            c, m = cums[rows], masses[rows]
            w = (c[:, j[0]] + m[:, j[0]] * frac[0]) - (c[:, j[1]] + m[:, j[1]] * frac[1])
            w1, w2 = w[:, :-1], w[:, 1:]
            out[k, rows] = np.sum(seg[None, :] * (w1 * w1 + w1 * w2 + w2 * w2) / 3.0,
                                  axis=1)
    return out


def _l2_norms(srb, radii):
    """Squared window norms of every fiber bin, one row per radius."""
    cell = srb.y_cell
    for r in radii:
        if r <= 0.0 or r < cell:
            raise ResolutionError(
                f"radius {r} below conditional histogram resolution {cell:.3g}")
    edges = np.linspace(srb.fiber_range[0], srb.fiber_range[1], srb.y_bins + 1)
    return _sliding_sq_integrals(srb.conditionals(), edges, radii)


@dataclass
class CriterionTable:
    """I(r) sweep: radii, values, and a window verdict."""

    r_values: np.ndarray
    i_of_r: np.ndarray
    verdict: str

    def loglog_slope(self):
        return float(np.polyfit(np.log(self.r_values), np.log(self.i_of_r), 1)[0])

    def to_csv(self, path):
        lines = ["r,I_r"]
        for r, v in zip(self.r_values, self.i_of_r):
            lines.append(f"{float(r)!r},{float(v)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def report(self):
        return {
            "r": [float(v) for v in self.r_values],
            "I_r": [float(v) for v in self.i_of_r],
            "weighting": "lebesgue",
            "verdict": self.verdict,
            "loglog_slope": self.loglog_slope(),
        }


def tsujii_criterion(srb, r_list):
    """I(r) over a decreasing radius sweep, with a boundedness verdict.

    I(r) = r^-2 * integral of the squared window norms across the base,
    weighted by base Lebesgue measure over the nonempty columns.  Every
    branch is affine onto [0,1], so Lebesgue measure is base-invariant and
    the factor density is uniform.  The verdict examines only the computed
    window: "bounded" when the three smallest radii vary by less than
    ``_BOUNDED_RATIO``, "diverging" when the log-log slope is at or below
    ``_DIVERGING_SLOPE``, else "indeterminate"; no limit claim is made.
    """
    r_list = [float(r) for r in r_list]
    if not r_list:
        raise ParameterError("empty radius sweep")
    if any(b >= a for a, b in zip(r_list, r_list[1:])):
        raise ParameterError("radius sweep must be strictly decreasing")
    weights = np.where(srb.column_mass() > 0, 1.0 / srb.fiber_bins, 0.0)
    norms = _l2_norms(srb, r_list)
    i_vals = np.empty(len(r_list))
    for k, r in enumerate(r_list):
        i_vals[k] = float(np.dot(weights, norms[k])) / (r * r)
    small = i_vals[-3:] if len(i_vals) >= 3 else i_vals
    slope = float(np.polyfit(np.log(r_list), np.log(i_vals), 1)[0]) if len(r_list) > 1 else 0.0
    # systematic growth toward small r outranks a narrow-window ratio: the
    # window ratio of a slowly diverging sweep can sit below any fixed bound
    if slope <= _DIVERGING_SLOPE:
        verdict = "diverging"
    elif float(small.max()) / float(small.min()) < _BOUNDED_RATIO:
        verdict = "bounded"
    else:
        verdict = "indeterminate"
    return CriterionTable(r_values=np.array(r_list), i_of_r=i_vals, verdict=verdict)


# ---------------------------------------------------------------------------
# checkpointing


def save_srb(path, srb):
    from . import cache

    arrays = {"cond_counts": srb.cond_counts, "sq_counts": srb.sq_counts}
    meta = {
        "spec_hash": srb.spec_hash, "seed": srb.seed, "n_samples": srb.n_samples,
        "iterations_used": srb.iterations_used, "fiber_bins": srb.fiber_bins,
        "y_bins": srb.y_bins, "fiber_range": list(srb.fiber_range),
        "sq_bins": srb.sq_bins, "kept": srb.kept, "discarded": srb.discarded,
        "jittered": srb.jittered, "contraction_budget": srb.contraction_budget,
    }
    return cache.write_blob(path, "srb_estimate", meta, arrays)


def load_srb(path, expect_spec_hash=None):
    from . import cache
    from .errors import CacheError

    meta, arrays = cache.read_blob(path, expect_kind="srb_estimate")
    if expect_spec_hash is not None and meta["spec_hash"] != expect_spec_hash:
        raise CacheError(f"{path}: checkpoint belongs to another map instance")
    return SrbEstimate(
        spec_hash=meta["spec_hash"], seed=meta["seed"], n_samples=meta["n_samples"],
        iterations_used=meta["iterations_used"], fiber_bins=meta["fiber_bins"],
        y_bins=meta["y_bins"], fiber_range=tuple(meta["fiber_range"]),
        cond_counts=arrays["cond_counts"], sq_counts=arrays["sq_counts"],
        sq_bins=meta["sq_bins"], kept=meta["kept"], discarded=meta["discarded"],
        jittered=meta["jittered"], contraction_budget=meta["contraction_budget"])
