"""Base-factor density, measure lifting, and the fiberwise L2 criterion.

The base factor of a skew product is the piecewise expanding interval map
induced on the first coordinate.  Every branch is affine onto [0,1], so its
invariant density is uniform: one transfer sweep on the map, a cell-overlap
discretization, returns it with its defect, and the two-dimensional measure
is sampled by backward composition: a uniform base point, fiber maps
composed along an i.i.d. backward itinerary, and histograms of the fiber
conditionals.  The L2 criterion integrates squared sliding-window masses of
those conditionals.  For a column's integer counts c_i on y cells of width
h and total N, that integral is sum_d a(d) kappa_r(d) / N^2: a(d) = sum_i
c_i c_{i+d} is the counts' autocorrelation, exact in integers, and
kappa_r(d) = h^-2 times the integral of (2r - |y - y'|)_+ over two cells d
apart, in closed form.  One FFT gives a(d) for every radius; each radius
then costs O(columns * min(2r/h + 1, occupied cells)).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import cache
from .errors import (
    CacheError,
    ParameterError,
    ResolutionError,
    SampleDiscardError,
)

_CHUNK = 1 << 18
_LANE = 1 << 14  # general-path lift points per lane, and per binning slice: 128 KiB per float row
_TABLE_LANE = 1 << 16  # table-path lift points per lane: 33 bytes a point over its five rows
_SQ_BINS = 256
_FFT_BUDGET = 1 << 21  # rows x FFT length of one criterion block: 16 MiB a float array
_MAX_DISCARD_FRAC = 0.01  # share of samples whose y may fall outside J
_DIVERGING_SLOPE = -0.2  # I(r) log-log slope at or below which it diverges
_BOUNDED_RATIO = 2.0  # spread of the three smallest-r values of a bounded I(r)


# ---------------------------------------------------------------------------
# base factor


@dataclass
class Density1D:
    """Binned base-invariant density with essential-bound estimates.

    ``residual`` is the defect of the transfer sweep that made it, and
    ``sweeps`` the number of sweeps, 1 for ``ulam_acip``.
    """

    bins: int
    masses: np.ndarray
    l_bound: float
    L_bound: float
    residual: float = 0.0
    sweeps: int = 0

    def density(self):
        return self.masses * self.bins


def ulam_transition(spec, bins):
    """Cell-to-cell transfer fractions of the base map, as a COO triple.

    Returns integer arrays ``j``, ``k`` and float ``frac``: ``frac`` is the
    fraction of cell j that lands in cell k, computed from exact interval
    overlaps, so piecewise-affine images carry no quadrature error.  There
    is one entry per (j, k), ordered by j then k.  Branches sharing a cell
    (only cells that hold a break) emit the same (j, k) more than once;
    those terms are summed in branch order, starting from 0.0.
    """
    edges = np.linspace(0.0, 1.0, bins + 1)
    parts = []
    for (blo, bhi), sk in zip(zip(spec.breaks, spec.breaks[1:]), spec.skew):
        m, c = sk.base_slope, sk.base_offset
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


def ulam_acip(spec, bins=4096):
    """Cell masses after one transfer sweep of the uniform vector.

    Every branch is affine onto [0,1], so the uniform vector is the fixed
    point; one sweep of the transfer discretization shows how closely the
    discretization keeps it, and ``residual`` reports that one-sweep
    defect, the total variation 0.5 * |w - v|_1 between the normalised
    image w and the uniform v.  The triple of ``ulam_transition`` is
    ordered by k (stably, so j stays ascending within each k), and the
    sweep is ``np.bincount(k, frac * v[j])``, which adds each column's
    terms in ascending j from 0.0, as a CSR mat-vec with the transposed
    matrix sums them.
    """
    if bins < 16 or bins & (bins - 1) != 0:
        raise ParameterError(f"bin count must be a power of two >= 16, got {bins}")
    j, k, frac = ulam_transition(spec, bins)
    order = np.argsort(k, kind="stable")
    j, k, frac = j[order], k[order], frac[order]
    v = np.full(bins, 1.0 / bins)
    w = np.bincount(k, weights=frac * v[j], minlength=bins)
    w /= w.sum()
    dens = w * bins
    return Density1D(bins=bins, masses=w,
                     l_bound=float(dens.min()), L_bound=float(dens.max()),
                     residual=0.5 * float(np.abs(w - v).sum()), sweeps=1)


# ---------------------------------------------------------------------------
# lifting


_COUNT_NAMES = ("cond_counts", "sq_counts")


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
    contraction_budget: float

    def column_mass(self):
        return self.cond_counts.sum(axis=1) / self.kept

    def meta(self):
        """Every field but the two count histograms, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in _COUNT_NAMES}

    @property
    def y_cell(self):
        return (self.fiber_range[1] - self.fiber_range[0]) / self.y_bins


def _shared_slope(spec):
    """(s, offsets) for the lift's table path: every fiber has a float
    slope and a float offset, as in the baker family, and the slopes are
    the one float s, equal bit for bit in every branch (0.0 and -0.0
    differ), with ``offsets`` the per-branch offset table.  None otherwise.
    With a shared slope every point's running product after k steps is the
    same float, s^k rounded step by step, whatever branches it took.
    """
    slopes = [sk.fiber.slope for sk in spec.skew]
    offsets = [sk.fiber.offset for sk in spec.skew]
    if not all(isinstance(c, float) for c in slopes + offsets):
        return None
    if len({v.hex() for v in slopes}) > 1:
        return None
    return slopes[0], np.array(offsets)


def _lane_rows(spec, m):
    """The work rows of ``_sample_chunk`` for chunks of up to m points.

    (floats, ints, hit) for lanes of w = min(m, lane) points: float rows x,
    y and the draws, the branch index row and a bool row; the general path
    adds float rows A and u and one block row per branch, and int rows for
    the flat gather index and the column numbers 0 .. w - 1.
    """
    table = _shared_slope(spec) is not None
    w = min(m, _TABLE_LANE if table else _LANE)
    # idx starts at zero: a one-strip map has no inner break to set it
    ints = np.zeros((1 if table else 3, w), dtype=np.intp)
    if not table:
        ints[2] = np.arange(w)
    return (np.empty((3 if table else 5 + len(spec.skew), w)), ints,
            np.empty(w, dtype=bool))


def _sample_chunk(spec, n_iter, m, rng, rows):
    """m lift samples (x, y) from ``rng``, by n_iter-step backward composition.

    A generator: it yields the samples lane by lane, each lane's (x, y) as
    views of the work rows ``rows`` (``_lane_rows``, for chunks of at least
    m points), which the next lane overwrites, so the caller bins a lane
    before it asks for the next one.

    x is drawn once, uniform on [0,1), and is never stepped.  Each step draws
    one uniform U per sample and takes branch i = the number of inner breaks
    <= U, so P(i) is the length of strip i.  The branch is composed at the
    deep end of the word built so far: B <- A * t_i(u) + B, A <- A * s_i(u),
    then u <- g_i^-1(u), from A = 1, B = 0 and u = x.  y = B is the fiber
    point y = 0 pushed through the whole backward word.

    The draws are those of m x values followed by n_iter rows of m uniforms:
    sample p reads position p of ``rng``'s stream for x and position
    (k + 1) * m + p for step k.  The points run in lanes, each through all
    n_iter steps while its rows stay in cache.  A lane reaches its
    positions with a PCG64 copy of ``rng``: ``advance(lo)`` before its x
    and ``advance(m - n)`` before each step, for a lane of n points from
    point lo.  Once the last lane is taken, ``rng`` itself is advanced past
    all m * (n_iter + 1) draws, so every sample and the generator's final
    state are those of one pass over the whole chunk, whatever the lane
    size.

    The steps write the work rows through ``out=``; U holds a step's draws
    and then its coefficients.  Gathers use ``take(..., mode="clip")``,
    which writes ``out`` directly (the default mode buffers it); every
    index is in range.

    Fibers with a shared float slope s and float offsets
    (``_shared_slope``) take the table path: A is the same a_k for every
    point at step k, so row k of an n_iter x branches table holds a_k * t_i
    (a_0 = 1, a_{k+1} = a_k * s), and a step is a draw, the branch index, a
    gather of row k and an add.  Its lanes hold ``_TABLE_LANE`` points, so
    each numpy call runs long next to a hand-off of the GIL between lift
    threads.  Other fibers take the general path in lanes of ``_LANE``.  A
    coefficient that every branch holds as one object is evaluated once on
    u; otherwise each distinct one is evaluated once into its branches'
    block rows, and each point gathers its own branch's entry at the flat
    index branch * (block row length) + column.  Both paths round A * t,
    the add and A * s alike, so they give the same bits.
    """
    inner = spec.base_breaks[1:-1]
    shared = _shared_slope(spec)
    floats, ints, hit_row = rows
    width = min(m, floats.shape[1])
    if shared is None:
        base_slopes = np.array([sk.base_slope for sk in spec.skew], dtype=float)
        base_offsets = np.array([sk.base_offset for sk in spec.skew], dtype=float)
        fibers = [sk.fiber for sk in spec.skew]
        # per coefficient, the first branch holding each branch's object
        owners = {name: [next(j for j, f in enumerate(fibers)
                              if getattr(f, name) is getattr(g, name))
                         for g in fibers] for name in ("offset", "slope")}
        block = floats[5:]
    else:
        s, offsets = shared
        steps = np.empty((n_iter, offsets.size))
        a = 1.0
        for row in steps:
            np.multiply(a, offsets, out=row)
            a *= s
    start = rng.bit_generator.state
    # seeded, not drawn from OS entropy: each lane sets its state from rng's
    lane_rng = np.random.Generator(np.random.PCG64(0))

    def own_branch(name):
        """Each point's own branch's coefficient ``name`` ("slope",
        "offset") at the lane's u."""
        owner = owners[name]
        if not any(owner):
            return fibers[0].at(name, u)
        for i, j in enumerate(owner):
            block[i, :n] = fibers[i].at(name, u) if i == j else block[j, :n]
        block.take(flat, out=U, mode="clip")
        return U

    for lo in range(0, m, width):
        n = min(width, m - lo)
        x, B, U = floats[:3, :n]
        idx, hit = ints[0, :n], hit_row[:n]
        lane_rng.bit_generator.state = start
        lane_rng.bit_generator.advance(lo)
        lane_rng.random(out=x)
        B.fill(0.0)
        if shared is None:
            A, u = floats[3:5, :n]
            A.fill(1.0)
            np.copyto(u, x)
            flat, col = ints[1:, :n]
        for k in range(n_iter):
            lane_rng.bit_generator.advance(m - n)
            lane_rng.random(out=U)
            for j, b in enumerate(inner):
                np.greater_equal(U, b, out=hit if j else idx)
                if j:
                    np.add(idx, hit, out=idx)
            if shared is not None:
                steps[k].take(idx, out=U, mode="clip")
                np.add(U, B, out=B)
                continue
            np.multiply(idx, block.shape[1], out=flat)
            np.add(flat, col, out=flat)
            np.multiply(A, own_branch("offset"), out=U)
            np.add(U, B, out=B)
            np.multiply(A, own_branch("slope"), out=A)
            base_offsets.take(idx, out=U, mode="clip")
            np.subtract(u, U, out=u)
            base_slopes.take(idx, out=U, mode="clip")
            np.divide(u, U, out=u)
        yield x, B
    rng.bit_generator.advance(m * (n_iter + 1))


def _axis(lo, hi, n):
    """(lo, hi, n, lower): n equal bins on [lo, hi] for ``_bin_index``.

    The bins are those of ``np.histogramdd``: edges ``np.linspace(lo, hi,
    n + 1)``, bin k holding edges[k] <= v < edges[k + 1], and the top edge hi
    folded into the last bin.  ``lower[s]`` is the lower edge of bin s - 1,
    shifted up by one to leave bin 0 for values below lo; nudging the top
    edge up one ulp folds v == hi into bin n.
    """
    edges = np.linspace(lo, hi, n + 1)
    return lo, hi, n, np.concatenate(
        ([-np.inf], edges[:-1], [np.nextafter(hi, np.inf)]))


def _bin_index(v, axis, out, t, hit):
    """Bin of each value of v on ``axis`` (``_axis``), shifted up by one,
    written into the intp row ``out``; t and hit are float and bool work
    rows of v's length.

    Values below lo (and NaN) get 0, values above hi get n + 1.  The
    arithmetic floor is at most one bin off next to an edge; one comparison
    with each edge of the guessed bin corrects it.
    """
    lo, hi, n, lower = axis
    np.subtract(v, lo, out=t)
    np.multiply(t, n / (hi - lo), out=t)
    np.add(t, 1.0, out=t)
    np.fmax(t, 0.0, out=t)
    np.fmin(t, n, out=t)
    np.copyto(out, t, casting="unsafe")
    lower.take(out, out=t, mode="clip")
    np.less(v, t, out=hit)
    np.subtract(out, hit, out=out)
    lower[1:].take(out, out=t, mode="clip")
    np.greater_equal(v, t, out=hit)
    np.add(out, hit, out=out)


def _bin_rows():
    """The work rows (ix, iy, t, hit) of ``_add_counts``, ``_LANE`` points each."""
    return (np.empty(_LANE, dtype=np.intp), np.empty(_LANE, dtype=np.intp),
            np.empty(_LANE), np.empty(_LANE, dtype=bool))


def _add_counts(grid, axes, x, y, work):
    """Add the points (x, y) to the int64 count ``grid`` on the bins of
    ``axes`` (an x and a y ``_axis``), as ``np.histogramdd`` counts them.

    ``grid`` is rim-padded, shape (nx + 2, ny + 2): points outside the range
    land in its rim, and its inner slice holds the histogram.  The points
    go ``_LANE`` at a time through ``work`` (``_bin_rows``): the flat bin
    index ix * (ny + 2) + iy, then one ``np.add.at``.
    """
    flat = grid.reshape(-1)
    for lo in range(0, len(x), _LANE):
        n = min(_LANE, len(x) - lo)
        ix, iy, t, hit = (row[:n] for row in work)
        _bin_index(x[lo:lo + n], axes[0], ix, t, hit)
        _bin_index(y[lo:lo + n], axes[1], iy, t, hit)
        np.multiply(ix, grid.shape[1], out=ix)
        np.add(ix, iy, out=ix)
        np.add.at(flat, ix, 1)


def lift_srb(spec, density, n_iter, n_samples, seed,
             fiber_bins=256, y_bins=4096, workers=1):
    """Sample the lifted measure by backward composition and histogram it.

    Every branch is affine onto [0,1], so the base-invariant density is
    Lebesgue, and the backward itinerary of a uniform point is i.i.d. with
    P(branch i) = the length of strip i.  The fiber conditional over x is
    then the law of the backward composition of the fiber maps along that
    itinerary (Diaconis-Freedman, "Iterated random functions", SIAM Review
    41, 1999), which ``_sample_chunk`` draws n_iter branches deep.  The
    leftover fiber uncertainty (max slope)^n_iter * |J| is recorded on the
    estimate so the caller can compare it with the histogram resolution.

    ``density`` must be the uniform one that ``ulam_acip`` returns for such
    a map: cell masses off 1/bins by more than 1e-9 relative raise
    ``ParameterError``, as the backward law would be wrong for them.

    Work is split into fixed-size chunks with per-chunk child seeds.  Each
    of W = min(workers, chunks) workers takes chunks t, t + W, t + 2W, ...
    and bins every lane as the sampler yields it (``_add_counts``) into its
    own pair of rim-padded count grids: ``cond`` over [0,1] x J and the
    ``_SQ_BINS`` square ``sq``.  The calling thread allocates each worker's
    grids and lane rows: memory that a worker thread frees stays in that
    thread's malloc arena (glibc), where the later stages, on the calling
    thread, do not reuse it.  Lane rows allocated in the workers raised the
    peak of a two-worker ``horseshoe all`` (baker 2^-1/2, 2 * 10^6 samples)
    by about 5 MiB on Linux x86-64.  Counts are
    integers, so the grids' sum at the end is the same for any worker
    count, and the samples themselves are never held beyond a lane.  x lies
    in [0,1), so the inner ``cond`` counts exactly the points with y in J
    (its rim takes the rest, NaN too), and each y outside J lies outside
    sq's range [0,1] as well: the samples missing from the summed ``cond``
    are the discarded ones.  More than ``_MAX_DISCARD_FRAC`` of the samples
    discarded raises ``SampleDiscardError``.
    """
    if n_iter < 1:
        raise ParameterError("need at least one iteration to leave the base line")
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    if workers < 1:
        raise ParameterError("need at least one worker")
    off = float(np.abs(density.masses * density.bins - 1.0).max())
    if off > 1e-9:
        raise ParameterError(
            f"the lift needs the uniform base density; cell masses are off "
            f"1/bins by up to {off:.3g} relative")
    jlo, jhi = spec.extended_fiber
    contraction = max(hi for _, hi in spec.fiber_slope_bounds)

    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(_CHUNK, n_samples - k * _CHUNK) for k in range(n_chunks)]
    cond_axes = (_axis(0.0, 1.0, fiber_bins), _axis(jlo, jhi, y_bins))
    sq_axes = (_axis(0.0, 1.0, _SQ_BINS),) * 2
    sets = [(np.zeros((fiber_bins + 2, y_bins + 2), dtype=np.int64),
             np.zeros((_SQ_BINS + 2, _SQ_BINS + 2), dtype=np.int64),
             _lane_rows(spec, sizes[0]), _bin_rows())
            for _ in range(min(workers, n_chunks))]

    def run_worker(t):
        cond, sq, rows, work = sets[t]
        for k in range(t, n_chunks, len(sets)):
            rng = np.random.default_rng(seeds[k])
            for x, y in _sample_chunk(spec, n_iter, sizes[k], rng, rows):
                _add_counts(cond, cond_axes, x, y, work)
                _add_counts(sq, sq_axes, x, y, work)

    if len(sets) > 1:
        with ThreadPoolExecutor(max_workers=len(sets)) as pool:
            list(pool.map(run_worker, range(len(sets))))
    else:
        run_worker(0)
    cond, sq = sets[0][:2]
    for c, s, _, _ in sets[1:]:
        cond += c
        sq += s
    del sets
    cond, sq = cond[1:-1, 1:-1], sq[1:-1, 1:-1]
    discarded = n_samples - int(cond.sum())
    if discarded > _MAX_DISCARD_FRAC * n_samples:
        raise SampleDiscardError(
            f"{discarded} of {n_samples} samples left the fiber interval J",
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


def _lag_weights(r, h, n):
    """kappa_r(d) for lags d = 0..n-1, with y cells of width h and 2r >= h.

    kappa_r(d) = h^-2 * integral over two cells d apart of (2r - |y - y'|)_+,
    that is E(2r - |dh + S|)_+ for S triangular on [-h, h].  Away from the
    kinks it is 2r - dh, and 2r - h/3 at d = 0; only the one or two lags
    whose cell pair straddles |y - y'| = 2r need the piecewise-cubic
    integral.
    """
    c = 2.0 * r - h * np.arange(n)
    k = np.where(c >= h, c, 0.0)
    mid = np.abs(c) < h
    t = c[mid] / h
    k[mid] = h * np.where(t >= 0.0, t + (1.0 - t) ** 3 / 6.0, (1.0 + t) ** 3 / 6.0)
    k[0] = 2.0 * r - h / 3.0
    return k


def _autocorrelation(band):
    """Every row's a(d) = sum_i c_i c_{i+d} for lags d = 0..w-1, as floats.

    One batched real FFT of length at least 2w, so no lag wraps around.
    For integer counts the result is rounded to the exact integers; a(0)
    is checked against sum c^2 computed in int64, and a mismatch (counts too
    large for float64) raises ``ParameterError``.
    """
    w = band.shape[1]
    n = 1 << (2 * w - 1).bit_length()
    f = np.fft.rfft(band, n, axis=1)
    a = np.fft.irfft(f.real ** 2 + f.imag ** 2, n, axis=1)[:, :w]
    if np.issubdtype(band.dtype, np.integer):
        np.rint(a, out=a)
        sq = (band.astype(np.int64) ** 2).sum(axis=1)
        if not np.array_equal(a[:, 0].astype(np.int64), sq):
            raise ParameterError(
                "count autocorrelation is not exact in float64; counts too large")
    return a


def _l2_norms(srb, radii):
    """(radii, rows) array: integral of (mass of the radius-r window)^2 dz per row.

    For a row of counts c_i on cells of width h, normalized by its total N,
    the integral is sum over all lags d of a(d) * kappa_r(d) / N^2, with a
    the row's autocorrelation (``_autocorrelation``) and kappa from
    ``_lag_weights``.  The counts are sliced once to the occupied y band, w
    cells wide; a radius then costs O(rows * min(2r/h + 1, w)).  Rows go in
    blocks of ``_FFT_BUDGET`` // (FFT length), a power of two, so BLAS groups
    each row as in one block (blocks of 63 rows move the norms by ulps).
    """
    h = srb.y_cell
    for r in radii:
        if r <= 0.0 or r < h:
            raise ResolutionError(
                f"radius {r} below conditional histogram resolution {h:.3g}")
    counts = srb.cond_counts
    out = np.zeros((len(radii), counts.shape[0]))
    occupied = np.flatnonzero(counts.any(axis=0))
    if occupied.size == 0:
        return out
    band = counts[:, occupied[0]: occupied[-1] + 1]
    step = max(1, _FFT_BUDGET >> (2 * band.shape[1] - 1).bit_length())
    for rows in (slice(s, s + step) for s in range(0, len(band), step)):
        a = _autocorrelation(band[rows])
        tot = band[rows].sum(axis=1).astype(float)
        scale = np.divide(1.0, tot * tot, out=np.zeros_like(tot), where=tot > 0)
        for k, r in enumerate(radii):
            lags = min(band.shape[1], int(np.ceil(2.0 * r / h + 1.0)))
            kappa = _lag_weights(r, h, lags)
            kappa[1:] *= 2.0  # lags -d and d
            out[k, rows] = (a[:, :lags] @ kappa) * scale
        del a  # before the next block's transforms
    return out


@dataclass
class CriterionTable:
    """I(r) sweep: radii, values, and a window verdict."""

    r_values: np.ndarray
    i_of_r: np.ndarray
    verdict: str = "indeterminate"

    def loglog_slope(self):
        """The least-squares slope of log I(r) against log r; None below two
        radii, where no line is determined."""
        if len(self.r_values) < 2:
            return None
        return float(np.polyfit(np.log(self.r_values), np.log(self.i_of_r), 1)[0])

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
    ``_DIVERGING_SLOPE``, else "indeterminate", as it is for a single radius,
    which has no slope; no limit claim is made.
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
    table = CriterionTable(r_values=np.array(r_list), i_of_r=i_vals)
    slope = table.loglog_slope()
    if slope is None:
        return table
    small = i_vals[-3:]
    # systematic growth toward small r outranks a narrow-window ratio: the
    # window ratio of a slowly diverging sweep can sit below any fixed bound
    if slope <= _DIVERGING_SLOPE:
        table.verdict = "diverging"
    elif float(small.max()) / float(small.min()) < _BOUNDED_RATIO:
        table.verdict = "bounded"
    return table


# ---------------------------------------------------------------------------
# checkpointing


def save_srb(path, srb):
    """Checkpoint an estimate; each count histogram is stored in the smallest
    dtype that holds its maximum (``np.min_scalar_type``)."""
    arrays = {}
    for name in _COUNT_NAMES:
        c = getattr(srb, name)
        arrays[name] = c.astype(np.min_scalar_type(c.max(initial=0)))
    return cache.write_blob(path, "srb_estimate", srb.meta(), arrays)


def load_srb(path, spec_hash):
    """Read back a checkpoint of the map with ``spec_hash``; counts are
    widened to int64, so blobs with narrowed counts and older int64 blobs
    load alike.  CacheError when the blob is another map's or lacks a
    field."""
    meta, arrays = cache.read_blob(path, expect_kind="srb_estimate")
    if meta.get("spec_hash") != spec_hash:
        raise CacheError(f"{path}: spec_hash is not {spec_hash!r}")
    try:
        meta["fiber_range"] = tuple(meta["fiber_range"])
        return SrbEstimate(**{
            f.name: arrays[f.name].astype(np.int64) if f.name in _COUNT_NAMES
            else meta[f.name] for f in fields(SrbEstimate)})
    except KeyError as exc:
        raise CacheError(f"{path}: checkpoint lacks {exc}") from exc
