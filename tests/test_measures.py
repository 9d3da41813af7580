import bisect
import dataclasses
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from horseshoe import measures
from horseshoe.errors import (
    CacheError,
    ParameterError,
    ResolutionError,
    SampleDiscardError,
)
from horseshoe.maps import (
    GhmSpec,
    SkewBranch,
    affine_fiber,
    make_affine_example,
    make_baker,
    make_custom_skew,
)
from horseshoe.measures import (
    _CHUNK,
    _LANE,
    _TABLE_LANE,
    Density1D,
    SrbEstimate,
    _autocorrelation,
    _l2_norms,
    _lag_weights,
    density_grid,
    lift_srb,
    load_srb,
    save_srb,
    _grid_counts,
    _sample_chunk,
    _shared_slope,
    tsujii_criterion,
    ulam_acip,
    ulam_transition,
)


def test_doubling_acip_is_exactly_uniform(baker06):
    dens = ulam_acip(baker06, bins=256)
    assert np.abs(dens.density() - 1.0).max() == 0.0
    assert dens.sweeps == 1 and dens.residual == 0.0
    assert dens.l_bound == pytest.approx(1.0) and dens.L_bound == pytest.approx(1.0)


def test_doubling_acip_stable_under_refinement(baker06):
    d1 = ulam_acip(baker06, bins=512)
    d2 = ulam_acip(baker06, bins=1024)
    assert np.abs(np.repeat(d1.density(), 2) - d2.density()).max() == 0.0


def _reference_triples(spec, bins):
    """The per-cell overlap loop: (j, k, frac) per branch piece, in branch,
    then j, then k order."""
    edges = np.linspace(0.0, 1.0, bins + 1).tolist()
    for (blo, bhi), sk in zip(zip(spec.breaks, spec.breaks[1:]), spec.skew):
        m, c = sk.base_slope, sk.base_offset
        j_first = bisect.bisect_right(edges, blo) - 1
        j_last = bisect.bisect_left(edges, bhi) - 1
        for j in range(max(j_first, 0), min(j_last, bins - 1) + 1):
            a, b = max(edges[j], blo), min(edges[j + 1], bhi)
            if b <= a:
                continue
            ia, ib = sorted((m * a + c, m * b + c))
            k_first = bisect.bisect_right(edges, ia) - 1
            k_last = bisect.bisect_left(edges, ib) - 1
            for k in range(max(k_first, 0), min(k_last, bins - 1) + 1):
                lo, hi = max(edges[k], ia), min(edges[k + 1], ib)
                if hi > lo:
                    yield j, k, (hi - lo) / abs(m) / (edges[j + 1] - edges[j])


def _reference_entries(spec, bins):
    """{(j, k): frac}, duplicates summed in emission order from 0.0."""
    entries = {}
    for j, k, frac in _reference_triples(spec, bins):
        entries[j, k] = entries.get((j, k), 0.0) + frac
    return entries


def _reference_acip(spec, bins, tol=1e-12):
    """Power iteration with a column-by-column mat-vec that adds each
    column's terms in ascending j, the order of a CSR product with the
    transposed matrix."""
    columns = [[] for _ in range(bins)]
    for (j, k), frac in sorted(_reference_entries(spec, bins).items()):
        columns[k].append((j, frac))
    v = np.full(bins, 1.0 / bins)
    for sweep in range(1, 10_000):
        vj = v.tolist()
        w = []
        for col in columns:
            acc = 0.0
            for j, frac in col:
                acc += frac * vj[j]
            w.append(acc)
        w = np.array(w)
        w /= w.sum()
        residual = 0.5 * float(np.abs(w - v).sum())
        v = w
        if residual <= tol:
            return v, sweep, residual
    raise AssertionError("reference power iteration did not converge")


def _onto_spec(breaks, signs):
    """A map whose every branch sends its strip onto [0, 1], increasing or
    decreasing, built from its branches directly, as ``make_custom_skew``
    builds increasing ones only; every fiber is y -> 0.5 y + 0.25, which
    the transfer sweep does not read."""
    skew = []
    for lo, hi, sign in zip(breaks, breaks[1:], signs):
        m = sign / (hi - lo)
        skew.append(SkewBranch(m, -m * (lo if sign > 0 else hi),
                               affine_fiber(0.5, 0.25, 0.0, 0.0)))
    return GhmSpec(breaks=tuple(breaks), alpha=0.5, k0=2.0,
                   extended_fiber=(-0.1, 1.1), label="onto", params=(),
                   skew=tuple(skew))


def _random_onto_specs(seed=15, count=12):
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 6))
        widths = rng.random(n) + 0.05
        if t % 3 == 0:
            widths[rng.integers(n)] *= 1e-4  # a strip narrower than a cell
        breaks = [0.0, *(np.cumsum(widths)[:-1] / widths.sum()).tolist(), 1.0]
        yield _onto_spec(breaks, rng.choice([-1.0, 1.0], size=n).tolist())


def _reference_cases():
    yield pytest.param(make_baker(0.6), 512, id="baker06-512")
    yield pytest.param(make_affine_example(0.8, 0.55), 512, id="affine-512")
    for t, spec in enumerate(_random_onto_specs()):
        bins = (64, 256)[t % 2]
        yield pytest.param(spec, bins, id=f"onto{t}-{bins}")
    # three strips inside cell 19 of 64, with widths 7.5e-6, 1.6e-6 and
    # 2.0e-6: most (19, k) sum three pieces whose total depends on the order
    # of addition, and branch order differs from ascending and descending
    three_in_one_cell = _onto_spec(
        [0.0, 0.2990698055268006, 0.2990773501052208, 0.2990789437562793,
         0.29908091110865764, 1.0], [-1.0, -1.0, 1.0, -1.0, 1.0])
    for bins in (64, 256):
        yield pytest.param(three_in_one_cell, bins, id=f"three_in_one_cell-{bins}")


@pytest.mark.parametrize("spec, bins", _reference_cases())
def test_ulam_matches_reference_loop(spec, bins):
    """The vectorised triple and the bincount sweep reproduce the per-cell
    loop and the ascending-j column sums bit for bit.  The reference power
    iteration stops after its first sweep on every map, since each branch
    is onto, so the one sweep of ``ulam_acip`` is its result."""
    j, k, frac = ulam_transition(spec, bins)
    entries = sorted(_reference_entries(spec, bins).items())
    assert j.tolist() == [jk[0] for jk, _ in entries]
    assert k.tolist() == [jk[1] for jk, _ in entries]
    assert frac.tobytes() == np.array([f for _, f in entries]).tobytes()
    masses, sweeps, residual = _reference_acip(spec, bins)
    dens = ulam_acip(spec, bins=bins)
    assert dens.masses.tobytes() == masses.tobytes()
    assert dens.sweeps == sweeps == 1
    assert dens.residual == residual


@pytest.mark.parametrize("bins", [0, 7, 100, 8])
def test_acip_bin_validation(baker06, bins):
    with pytest.raises(ParameterError):
        ulam_acip(baker06, bins=bins)


def _lift(spec, n=40_000, iters=12, **kw):
    dens = ulam_acip(spec, bins=256)
    return lift_srb(spec, dens, iters, n, seed=99, **kw)


def test_lift_worker_count_invariance(baker06, affine):
    """Three chunks, the last one short, stepped on borrowed buffer sets by
    two, three or four threads (three sets at most), merge to the one-worker
    result, on the constant-fiber table path (baker) and on the generic
    path (affine)."""
    assert _shared_slope(baker06) is not None
    assert _shared_slope(affine) is None
    n = 2 * _CHUNK + 1000
    for spec in (baker06, affine):
        a = _lift(spec, n=n, iters=3, workers=1)
        for workers in (2, 3, 4):
            b = _lift(spec, n=n, iters=3, workers=workers)
            assert np.array_equal(a.cond_counts, b.cond_counts)
            assert np.array_equal(a.sq_counts, b.sq_counts)
            assert a.discarded == b.discarded


def _within(seconds, call):
    """call()'s result, or its exception, from a thread given ``seconds``."""
    out = []

    def run():
        try:
            out.append(("value", call()))
        except Exception as exc:
            out.append(("error", exc))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive() and len(out) == 1, "call did not finish in time"
    kind, value = out[0]
    if kind == "error":
        raise value
    return value


def test_lift_buffer_sets_survive_thread_switching(baker06, affine, monkeypatch):
    """Forty chunks on eight threads, more than the cores, with the
    interpreter switching threads every microsecond: two chunks writing one
    buffer set at once would corrupt each other's points, and a set not
    given back would leave a chunk waiting.  The counts are the one-worker
    ones."""
    monkeypatch.setattr(measures, "_CHUNK", 500)
    kw = dict(n=20_000, iters=4, fiber_bins=16, y_bins=64)
    interval = sys.getswitchinterval()
    for spec in (baker06, affine):
        want = _lift(spec, workers=1, **kw)
        sys.setswitchinterval(1e-6)
        try:
            got = _within(60, lambda: _lift(spec, workers=8, **kw))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.cond_counts, want.cond_counts)
        assert np.array_equal(got.sq_counts, want.sq_counts)


def test_failed_chunk_gives_its_buffer_set_back(baker06, monkeypatch):
    """Two buffer sets, three chunks, and every chunk fails.  The first
    chunk holds its set until the third has started, and the third can
    start only on the set the failed second gave back; the error then
    reaches the caller instead of the pool waiting forever."""
    monkeypatch.setattr(measures, "_CHUNK", 500)
    third = threading.Event()

    def failing(spec, n_iter, m, rng, xy):
        chunk = rng.bit_generator.seed_seq.spawn_key[-1]
        if chunk == 2:
            third.set()
        if chunk == 0:
            third.wait(timeout=10)
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(measures, "_sample_chunk", failing)
    with pytest.raises(RuntimeError, match="chunk failed"):
        _within(30, lambda: _lift(baker06, n=1_500, iters=2, workers=2))
    assert third.is_set()


def test_lift_counts_samples_outside_j_as_discarded(monkeypatch):
    """Branch 2 shifts the fiber by 1.5, past J = (-0.1, 1.1), so about half
    of the samples leave J.  With the discard bound lifted, the count of
    discarded samples and both histograms are those of the sampler's points
    filtered by hand; at the real bound the lift refuses the map."""
    spec = make_custom_skew((0.0, 0.5, 1.0), [
        affine_fiber(0.3, 0.0, 0.0, 0.0), affine_fiber(0.3, 1.5, 0.0, 0.0)])
    dens = ulam_acip(spec, bins=256)
    n, iters, seed = 3_000, 8, 5
    with pytest.raises(SampleDiscardError):
        lift_srb(spec, dens, iters, n, seed)
    monkeypatch.setattr(measures, "_MAX_DISCARD_FRAC", 1.0)
    srb = lift_srb(spec, dens, iters, n, seed, fiber_bins=16, y_bins=64)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    x, y = _sample_chunk(spec, iters, n, np.random.default_rng(child),
                         np.empty((2, n)))
    jlo, jhi = spec.extended_fiber
    good = (y >= jlo) & (y <= jhi)
    assert 0 < srb.discarded == n - int(good.sum()) < n
    assert srb.kept == int(good.sum())
    cond = np.histogram2d(x[good], y[good], bins=[16, 64],
                          range=[[0.0, 1.0], [jlo, jhi]])[0]
    sq = np.histogram2d(x[good], y[good], bins=[srb.sq_bins] * 2,
                        range=[[0.0, 1.0], [0.0, 1.0]])[0]
    assert np.array_equal(srb.cond_counts, cond)
    assert np.array_equal(srb.sq_counts, sq)


def test_lift_bookkeeping(baker06):
    srb = _lift(baker06)
    assert srb.kept + srb.discarded == srb.n_samples
    assert srb.discarded == 0
    assert srb.contraction_budget == pytest.approx(0.6 ** 12 * 1.2)
    assert srb.spec_hash == baker06.map_hash


def test_lift_rejects_bad_counts(baker06):
    dens = ulam_acip(baker06, bins=256)
    with pytest.raises(ParameterError):
        lift_srb(baker06, dens, 0, 100, seed=1)
    with pytest.raises(ParameterError):
        lift_srb(baker06, dens, 5, 0, seed=1)
    with pytest.raises(ParameterError):
        lift_srb(baker06, dens, 5, 100, seed=1, workers=0)


def test_density_grid_block_path_mass(baker_half):
    srb = _lift(baker_half, n=60_000)
    g = density_grid(srb, 64, 64)
    assert g.shape == (64, 64)
    assert g.sum() == pytest.approx(1.0)
    # uniform target: no cell wildly off at this sample size
    assert np.abs(g - 1.0 / 4096).max() < 6.0 / 4096


def test_density_grid_rejects_grid_not_dividing_histogram(baker_half):
    srb = _lift(baker_half)
    with pytest.raises(ParameterError):
        density_grid(srb, 100, 30)


def test_extra_step_preserves_histogram_shape(baker_half):
    srb = _lift(baker_half, n=20_000)
    # the same seed draws the same x and the same first 12 branches; the
    # 13th is composed at the deep end of each word
    again = _lift(baker_half, n=20_000, iters=13)
    assert again.cond_counts.shape == srb.cond_counts.shape
    assert again.kept > 0.99 * srb.kept
    # invariance: pushed density grid stays near uniform
    g = density_grid(again, 16, 16)
    assert np.abs(g - 1.0 / 256).max() < 3.0 / 256


def _count_estimate(cond, fiber_range=(-0.5, 1.5)):
    """Estimate holding the given conditional counts (y cells of 2/y_bins)."""
    return SrbEstimate(
        spec_hash="synthetic", seed=0, n_samples=int(cond.sum()),
        iterations_used=1, fiber_bins=cond.shape[0], y_bins=cond.shape[1],
        fiber_range=fiber_range, cond_counts=cond,
        sq_counts=np.ones((4, 4), dtype=np.int64), sq_bins=4,
        kept=int(cond.sum()), discarded=0, contraction_budget=0.0)


def _uniform_estimate(y_bins=1200, fiber_bins=8):
    """Synthetic estimate whose conditionals are exactly uniform on [0,1]."""
    jlo, jhi = -0.1, 1.1
    edges = np.linspace(jlo, jhi, y_bins + 1)
    inside = np.clip(np.minimum(edges[1:], 1.0) - np.maximum(edges[:-1], 0.0),
                     0.0, None)
    return _count_estimate(np.tile(inside * 1e6, (fiber_bins, 1)), (jlo, jhi))


@pytest.mark.parametrize("r", [2.0 ** -3, 2.0 ** -5, 2.0 ** -7])
def test_window_norm_matches_uniform_closed_form(r):
    """For the uniform conditional the squared window norm is 4r^2 - (8/3)r^3."""
    srb = _uniform_estimate()
    norms = _l2_norms(srb, [r])[0]
    want = 4.0 * r ** 2 - (8.0 / 3.0) * r ** 3
    assert np.abs(norms - want).max() < 1e-12


def test_tsujii_uniform_instance_is_flat_and_bounded():
    srb = _uniform_estimate()
    table = tsujii_criterion(srb, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6])
    want = 4.0 - (8.0 / 3.0) * np.asarray(table.r_values)
    assert np.abs(table.i_of_r - want).max() < 1e-12
    assert table.verdict == "bounded"
    assert -0.2 < table.loglog_slope() <= 0.0


def test_single_radius_has_no_slope():
    """One radius determines no log-log line: the slope is None, with no
    underdetermined fit, and the window verdict is indeterminate."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = tsujii_criterion(_uniform_estimate(), [2.0 ** -3])
        assert table.loglog_slope() is None
        assert table.report()["loglog_slope"] is None
    assert table.verdict == "indeterminate"


def test_tsujii_radius_validation(baker_half):
    srb = _uniform_estimate()
    with pytest.raises(ParameterError):
        tsujii_criterion(srb, [0.1, 0.2])
    with pytest.raises(ParameterError):
        tsujii_criterion(srb, [])
    with pytest.raises(ResolutionError):
        tsujii_criterion(srb, [1e-8])


def _one_radius_sq_integral(masses, edges, r):
    """The window integral of one radius by the breakpoint merge: W(z) is
    piecewise linear between the breakpoints edges -/+ r, and each segment
    contributes len * (w1^2 + w1*w2 + w2^2)/3."""

    def cdf_at(z):
        nbins = edges.size - 1
        lo, hi = edges[0], edges[-1]
        width = (hi - lo) / nbins
        zc = np.clip(z, lo, hi)
        j = np.minimum(((zc - lo) / width).astype(int), nbins - 1)
        frac = (zc - (lo + j * width)) / width
        cums = np.concatenate([np.zeros((masses.shape[0], 1)),
                               np.cumsum(masses, axis=1)], axis=1)
        return cums[:, j] + masses[:, j] * frac

    bp = np.unique(np.concatenate([edges - r, edges + r]))
    w = cdf_at(bp + r) - cdf_at(bp - r)
    seg = np.diff(bp)
    w1, w2 = w[:, :-1], w[:, 1:]
    return np.sum(seg[None, :] * (w1 * w1 + w1 * w2 + w2 * w2) / 3.0, axis=1)


def _poisson_rows():
    """Random rows, an empty row, a one-cell row and mass in J's end cells."""
    cond = np.random.default_rng(4).poisson(0.4, size=(37, 512))
    cond[5] = 0
    cond[6] = 0
    cond[6, 100] = 3
    cond[7, [0, 511]] = [5, 2]
    cond[8] = 0
    cond[8, 0] = 1
    return cond


def _narrow_band_rows():
    """Counts only in cells 200..230, 31 cells (0.12) wide."""
    cond = np.zeros((9, 512), dtype=np.int64)
    cond[:, 200:231] = np.random.default_rng(5).poisson(3.0, size=(9, 31))
    cond[3] = 0
    return cond


# h = 2^-8: 2r/h is the integer 64, 8 and 2 at r = 2^-3, 2^-6 and 2^-8;
# 0.0123 straddles two lags; 0.75 is wider than the narrow band
@pytest.mark.parametrize("make", [_poisson_rows, _narrow_band_rows],
                         ids=["poisson", "narrow_band"])
def test_window_integral_matches_breakpoint_reference(make):
    cond = make()
    srb = _count_estimate(cond)
    radii = [0.75, 2.0 ** -3, 2.0 ** -6, 0.0123, 2.0 ** -8]
    got = _l2_norms(srb, radii)
    assert got.shape == (len(radii), cond.shape[0])
    tot = cond.sum(axis=1, keepdims=True)
    masses = np.where(tot > 0, cond / np.maximum(tot, 1), 0.0)
    edges = np.linspace(-0.5, 1.5, cond.shape[1] + 1)
    for k, r in enumerate(radii):
        want = _one_radius_sq_integral(masses, edges, r)
        empty = tot[:, 0] == 0
        assert np.all(got[k][empty] == 0.0)
        assert np.abs(got[k][~empty] / want[~empty] - 1.0).max() <= 1e-12


@pytest.mark.parametrize("r, lags", [
    (0.0123, [0, 1, 3, 6, 7, 8]),    # 2r/h = 6.30: lags 6 and 7 straddle
    (2.0 ** -6, [0, 4, 7, 8, 9]),    # 2r/h = 8: only lag 8 straddles
    (2.0 ** -8, [0, 1, 2, 3]),       # r = h
])
def test_lag_weights_match_quadrature(r, lags):
    """kappa_r(d) against a midpoint rule for h^-2 * double integral of
    (2r - |y - y'|)_+ over two cells d apart."""
    h = 2.0 ** -8
    kappa = _lag_weights(r, h, max(lags) + 1)
    n = 2000
    y = (np.arange(n) + 0.5) * (h / n)
    for d in lags:
        dist = np.abs(y[:, None] - (y[None, :] + d * h))
        want = np.maximum(2.0 * r - dist, 0.0).mean()
        assert abs(kappa[d] - want) <= 1e-6 * 2.0 * r, d
    if 2.0 * r / h + 1.0 <= max(lags):
        assert kappa[max(lags)] == 0.0


def test_autocorrelation_exact_at_large_counts():
    """2*10^6 samples in one column, in one cell or spread over a band:
    a(d) equals the int64 correlation exactly, lag by lag."""
    rng = np.random.default_rng(6)
    band = np.zeros((3, 300), dtype=np.int64)
    band[0, 17] = 2_000_000
    band[1] = rng.multinomial(2_000_000, np.full(300, 1.0 / 300))
    band[2, :40] = rng.multinomial(2_000_000, np.full(40, 1.0 / 40))
    a = _autocorrelation(band)
    for row, c in zip(a, band):
        want = np.correlate(c, c, mode="full")[c.size - 1:]
        assert np.array_equal(row.astype(np.int64), want)
    assert a[0, 0] == 4e12


def test_autocorrelation_refuses_counts_beyond_float64():
    band = np.zeros((1, 8), dtype=np.int64)
    band[0, :3] = 10 ** 9 + 1  # a(0) = 3e18 + 6e9 + 3 is odd, above 2^53
    with pytest.raises(ParameterError):
        _autocorrelation(band)


def test_criterion_norms_equal_per_radius_norms():
    srb = _lift(make_affine_example(0.8, 0.55), n=20_000)
    radii = [2.0 ** -3, 2.0 ** -5, 2.0 ** -7]
    table = tsujii_criterion(srb, radii)
    weights = np.where(srb.column_mass() > 0, 1.0 / srb.fiber_bins, 0.0)
    for r, got in zip(radii, table.i_of_r.tolist()):
        assert got == float(np.dot(weights, _l2_norms(srb, [r])[0])) / (r * r)


def test_srb_checkpoint_roundtrip(tmp_path, baker06):
    # a nonzero counter that the lift leaves at 0, so a dropped one shows
    srb = dataclasses.replace(_lift(baker06, n=10_000), discarded=1)
    path = tmp_path / "srb.blob"
    save_srb(path, srb)
    back = load_srb(path, baker06.map_hash)
    for f in dataclasses.fields(SrbEstimate):
        got, want = getattr(back, f.name), getattr(srb, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want and type(got) is type(want), f.name
    with pytest.raises(CacheError):
        load_srb(path, "somethingelse")


def test_srb_checkpoint_narrows_counts_and_loads_int64_blobs(tmp_path, baker06):
    """Counts are stored in the smallest dtype holding their maximum and read
    back as int64; a blob written with int64 counts loads with equal counts."""
    from horseshoe import cache

    srb = _lift(baker06, n=10_000)
    srb.sq_counts[0, 0] = 300
    path = tmp_path / "srb.blob"
    save_srb(path, srb)
    _, arrays = cache.read_blob(path)
    assert arrays["cond_counts"].dtype == np.uint8
    assert arrays["sq_counts"].dtype == np.uint16
    back = load_srb(path, baker06.map_hash)
    assert back.cond_counts.dtype == back.sq_counts.dtype == np.int64
    assert np.array_equal(back.cond_counts, srb.cond_counts)
    assert np.array_equal(back.sq_counts, srb.sq_counts)

    old = tmp_path / "old.blob"
    meta, _ = cache.read_blob(path)
    cache.write_blob(old, "srb_estimate", meta,
                     {"cond_counts": srb.cond_counts, "sq_counts": srb.sq_counts})
    assert cache.read_blob(old)[1]["cond_counts"].dtype == np.int64
    back = load_srb(old, baker06.map_hash)
    assert np.array_equal(back.cond_counts, srb.cond_counts)
    assert np.array_equal(back.sq_counts, srb.sq_counts)
    assert tsujii_criterion(back, [0.1, 0.05]).i_of_r.tolist() == \
        tsujii_criterion(srb, [0.1, 0.05]).i_of_r.tolist()


@pytest.mark.parametrize("key", ["spec_hash", "contraction_budget"])
def test_srb_checkpoint_without_a_field_refused(tmp_path, baker06, key):
    """A missing meta field is a CacheError, not a KeyError."""
    from horseshoe import cache

    srb = _lift(baker06, n=10_000)
    path = tmp_path / "srb.blob"
    meta = srb.meta()
    del meta[key]
    cache.write_blob(path, "srb_estimate", meta,
                     {"cond_counts": srb.cond_counts, "sq_counts": srb.sq_counts})
    with pytest.raises(CacheError, match=key):
        load_srb(path, baker06.map_hash)


def test_srb_checkpoint_with_jittered_key_loads(tmp_path, baker06):
    """Checkpoints whose meta still counts jittered samples load: the key is
    ignored and every declared field comes back."""
    from horseshoe import cache

    srb = _lift(baker06, n=10_000)
    old = tmp_path / "old.blob"
    cache.write_blob(old, "srb_estimate", dict(srb.meta(), jittered=0),
                     {"cond_counts": srb.cond_counts, "sq_counts": srb.sq_counts})
    assert cache.read_blob(old)[0]["jittered"] == 0
    back = load_srb(old, baker06.map_hash)
    assert not hasattr(back, "jittered")
    assert back.meta() == srb.meta()
    assert np.array_equal(back.cond_counts, srb.cond_counts)
    assert np.array_equal(back.sq_counts, srb.sq_counts)


# ---------------------------------------------------------------------------
# the lift's sampler and binning against their scalar and numpy references


def _three_strip_skew():
    """Unequal breaks, u-dependent fiber slopes and offsets."""
    return make_custom_skew((0.0, 0.3, 0.55, 1.0), [
        affine_fiber(lambda u: 0.5 + 0.1 * u, lambda u: 0.05 * u, 0.1, 0.05),
        affine_fiber(lambda u: 0.45 - 0.05 * u, lambda u: 0.3 + 0.02 * u * u,
                     -0.05, lambda u: 0.04 * u),
        affine_fiber(0.4, lambda u: 0.55 - 0.1 * u, 0.0, -0.1),
    ])


def _float_fibers(spec):
    """Every fiber has a float slope and a float offset."""
    return all(isinstance(c, float) for sk in spec.skew
               for c in (sk.fiber.slope, sk.fiber.offset))


def _constant_three_strip_skew():
    """Unequal breaks, a distinct constant fiber slope and offset per branch."""
    return make_custom_skew((0.0, 0.2, 0.65, 1.0), [
        affine_fiber(0.45, 0.02, 0.0, 0.0),
        affine_fiber(0.3, 0.5, 0.0, 0.0),
        affine_fiber(0.4, 0.55, 0.0, 0.0),
    ])


def _sheared_offset_skew():
    """Constant fiber slopes, one u-dependent offset: no per-branch tables."""
    return make_custom_skew((0.0, 0.5, 1.0), [
        affine_fiber(0.5, lambda u: 0.1 * u, 0.0, 0.1),
        affine_fiber(0.5, 0.5, 0.0, 0.0),
    ])


def _negative_shared_slope_skew():
    """Both fibers reverse y with the one slope -0.5: the table path."""
    return make_custom_skew((0.0, 0.5, 1.0), [
        affine_fiber(-0.5, 0.75, 0.0, 0.0),
        affine_fiber(-0.5, 1.0, 0.0, 0.0),
    ])


def _shared_three_strip_skew():
    """Unequal breaks, the one slope 0.3 and a -0.0 offset: the table path."""
    return make_custom_skew((0.0, 0.25, 0.6, 1.0), [
        affine_fiber(0.3, -0.0, 0.0, 0.0),
        affine_fiber(0.3, 0.35, 0.0, 0.0),
        affine_fiber(0.3, 0.7, 0.0, 0.0),
    ])


def _signed_zero_slope_skew():
    """Slopes 0.0 and -0.0 compare equal but differ in their bits, so the
    map takes the general path.  A zero slope leaves no k0 to estimate."""
    return make_custom_skew((0.0, 0.5, 1.0), [
        affine_fiber(0.0, 0.25, 0.0, 0.0),
        affine_fiber(-0.0, 0.75, 0.0, 0.0),
    ], alpha=0.5, k0=1.5)


def _backward_reference(spec, n_iter, m, rng):
    """Each sample's backward word composed in a scalar loop, from the same
    generator draws: x first, then one uniform per sample per step."""
    x = rng.random(m)
    draws = rng.random((n_iter, m))
    inner = spec.breaks[1:-1]
    y = []
    for j in range(m):
        u, A, B = float(x[j]), 1.0, 0.0
        for k in range(n_iter):
            sk = spec.skew[bisect.bisect_right(inner, draws[k, j])]
            B = A * float(sk.fiber.at("offset", u)) + B
            A = A * float(sk.fiber.at("slope", u))
            u = (u - sk.base_offset) / sk.base_slope
        y.append(B)
    return x, np.array(y)


@pytest.mark.parametrize("spec, table, n_iter, m", [
    (make_baker(0.6), True, 30, 400), (make_affine_example(0.8, 0.55), False, 30, 400),
    (_three_strip_skew(), False, 30, 400), (_constant_three_strip_skew(), True, 30, 400),
    (_sheared_offset_skew(), False, 30, 400),
    (make_baker(0.6), True, 4, 2 * _LANE + 37),
    (make_affine_example(0.8, 0.55), False, 4, 2 * _LANE + 37),
    (_negative_shared_slope_skew(), True, 30, 400),
    (_shared_three_strip_skew(), True, 30, 400),
    (_signed_zero_slope_skew(), True, 30, 400),
], ids=["baker06", "affine", "three_strip", "constant_three_strip",
        "sheared_offset", "baker06_lanes", "affine_lanes",
        "negative_shared_slope", "shared_three_strip", "signed_zero_slopes"])
def test_sampler_matches_scalar_reference(spec, table, n_iter, m):
    """Bit for bit, for maps whose every fiber has a constant slope and
    offset (``table``) and for the others, on the table path (a shared
    slope, ``_shared_slope``) and on the general path; the generator ends
    where the reference's draws leave it.  affine_lanes holds two full
    general-path lanes and a ragged one, baker06_lanes one table lane;
    four steps keep the scalar loop short, and each step after the first
    moves a lane's generator past the other lanes' draws."""
    assert _float_fibers(spec) == table
    rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    x, y = _sample_chunk(spec, n_iter, m, rng, np.empty((2, m)))
    ref_x, ref_y = _backward_reference(spec, n_iter, m, ref_rng)
    assert x.tobytes() == ref_x.tobytes()
    assert y.tobytes() == ref_y.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("spec", [
    make_baker(2.0 ** -0.5), make_affine_example(0.8, 0.55),
], ids=["table_path", "general_path"])
def test_sampler_writes_into_a_reused_larger_buffer(spec):
    """A buffer wider than the chunk, holding an earlier chunk's points,
    gives a short chunk the bits and generator end state of fresh arrays;
    the columns past the chunk keep the earlier points."""
    buf = np.empty((2, 3_000))
    _sample_chunk(spec, 5, 3_000, np.random.default_rng(1), buf)
    before = buf.copy()
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    x, y = _sample_chunk(spec, 5, 1_234, rng, buf)
    ref_x, ref_y = _sample_chunk(spec, 5, 1_234, ref_rng, np.empty((2, 1_234)))
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.shares_memory(x, buf) and np.shares_memory(y, buf)
    assert buf[:, 1_234:].tobytes() == before[:, 1_234:].tobytes()


def _traced_peak(call):
    """(call(), peak bytes that tracemalloc traced during the call above what
    was traced when it began).  NumPy reports its data buffers to
    tracemalloc, so the peak counts every array the call held at once."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, slope", [
    (make_baker(2.0 ** -0.5), 2.0 ** -0.5), (_negative_shared_slope_skew(), -0.5),
    (_shared_three_strip_skew(), 0.3), (_constant_three_strip_skew(), None),
    (_signed_zero_slope_skew(), None), (make_affine_example(0.8, 0.55), None),
], ids=["baker_trapezoid", "negative_shared_slope", "shared_three_strip",
        "constant_three_strip", "signed_zero_slopes", "affine"])
def test_table_path_needs_one_slope_bit_for_bit(spec, slope):
    """The table path takes constant fibers whose slopes share their bits;
    its offset table keeps each offset's bits, the sign of -0.0 too."""
    shared = _shared_slope(spec)
    assert (shared is None) == (slope is None)
    if shared is not None:
        assert shared[0] == slope
        offsets = np.array([sk.fiber.offset for sk in spec.skew])
        assert shared[1].tobytes() == offsets.tobytes()


@pytest.mark.parametrize("spec", [
    make_baker(2.0 ** -0.5), make_affine_example(0.8, 0.55),
    _constant_three_strip_skew(),
], ids=["baker_trapezoid", "affine", "constant_three_strip"])
def test_sampler_is_lane_independent(spec, monkeypatch):
    """x, y and the generator's end state do not depend on either lane
    size: lanes of 7 and of 1,000 points give the default lanes' bits, on
    the table path (baker) and on the general path (affine, and constant
    fibers with distinct slopes)."""
    def sample():
        rng = np.random.default_rng(77)
        x, y = _sample_chunk(spec, 6, 2_500, rng, np.empty((2, 2_500)))
        return x.tobytes(), y.tobytes(), rng.bit_generator.state

    expected = sample()
    for lane in (7, 1_000):
        monkeypatch.setattr(measures, "_LANE", lane)
        monkeypatch.setattr(measures, "_TABLE_LANE", lane)
        assert sample() == expected


def test_sampler_working_set_is_lane_sized(affine):
    """Beyond its two output rows the sampler holds lane-sized work rows and
    the callable coefficients' lane-sized temporaries: 2 MiB covers them,
    while chunk-sized work rows would take about 11 MiB more here."""
    (x, y), peak = _traced_peak(
        lambda: _sample_chunk(affine, 30, 200_000, np.random.default_rng(3),
                              np.empty((2, 200_000))))
    assert peak <= x.nbytes + y.nbytes + (2 << 20)


@pytest.mark.parametrize("spec", [
    make_baker(2.0 ** -0.5), make_affine_example(0.8, 0.55),
], ids=["table_path", "general_path"])
def test_sampler_draws_no_os_entropy(spec, monkeypatch):
    """The lane generator's state is set from ``rng``'s before every lane,
    so building it reads no OS entropy, which numpy takes from
    ``secrets.randbits``."""
    def no_entropy(*args):
        raise AssertionError("OS entropy requested")

    rng = np.random.default_rng(5)
    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    _sample_chunk(spec, 3, 100, rng, np.empty((2, 100)))


def test_table_path_working_set_is_lane_sized():
    """Beyond its two output rows the table path holds three rows of
    ``_TABLE_LANE`` points (draws and gathered offsets at 8 bytes a point,
    the branch index at 8 and the hit mask at 1: 1,114,112 bytes) and the
    n_iter x branches offset table.  Measured on baker 2^-1/2 at 30 steps
    and 200,000 points: 1,127,962 bytes above the outputs.  Chunk-sized
    rows would take about 2.2 MiB more.  The generator is built before the
    trace: a first ``np.random`` call imports numpy's random module (about
    0.7 MB), which is no part of the set."""
    spec = make_baker(2.0 ** -0.5)
    rng = np.random.default_rng(3)
    (x, y), peak = _traced_peak(
        lambda: _sample_chunk(spec, 30, 200_000, rng, np.empty((2, 200_000))))
    assert peak <= x.nbytes + y.nbytes + 17 * _TABLE_LANE + (64 << 10)


def test_lift_merges_chunk_counts_as_they_arrive(baker06):
    """Eight chunks peak at the accumulators (the first chunk's rim-padded
    count arrays) plus one more chunk: its x, y and flat bin indices and
    its own count arrays.  Measured: 23.4 MiB at the default 256 x 4096
    bins, the same at two chunks; holding every chunk's counts until the
    merge read 81.8 MiB."""
    dens = ulam_acip(baker06, bins=256)
    srb, peak = _traced_peak(
        lambda: lift_srb(baker06, dens, 2, 8 * _CHUNK, seed=1))
    grids = 8 * ((srb.fiber_bins + 2) * (srb.y_bins + 2) + (srb.sq_bins + 2) ** 2)
    assert peak <= 2 * grids + 3 * 8 * _CHUNK + (1 << 20)


def test_deep_baker_lift_fills_every_column():
    """60 doubling steps: x is drawn once, so no mantissa bit runs out."""
    spec = make_baker(0.5)
    srb = lift_srb(spec, ulam_acip(spec, bins=1024), 60, 200_000, seed=3)
    assert srb.discarded == 0
    assert np.count_nonzero(srb.cond_counts.sum(axis=1)) == srb.fiber_bins == 256


def test_lift_refuses_non_uniform_density(baker06):
    dens = Density1D(bins=4, masses=np.array([0.1, 0.2, 0.3, 0.4]),
                     l_bound=0.4, L_bound=1.6)
    with pytest.raises(ParameterError):
        lift_srb(baker06, dens, 5, 1000, seed=1)


@pytest.mark.parametrize("spec", [
    make_baker(0.6), make_baker(2.0 ** -0.5), make_affine_example(0.8, 0.55),
    _three_strip_skew(), _constant_three_strip_skew(),
    make_custom_skew((0.0, 0.5, 1.0), [affine_fiber(-0.5, 0.75, 0.0, 0.0),
                                       affine_fiber(1 / 3, -0.0, 0.0, 0.0)]),
], ids=["baker06", "baker_trapezoid", "affine", "three_strip",
        "constant_three_strip", "reversing"])
def test_recorded_fiber_constants_reproduce_value(spec):
    """Where a fiber has a float slope and offset, those floats give
    fiber.value bit for bit on a lattice of [0,1] x J."""
    uu, yy = np.meshgrid(np.linspace(0.0, 1.0, 65),
                         np.linspace(*spec.extended_fiber, 257), indexing="ij")
    marked = 0
    for sk in spec.skew:
        s, t = sk.fiber.slope, sk.fiber.offset
        if not (isinstance(s, float) and isinstance(t, float)):
            continue
        marked += 1
        assert (s * yy + t).tobytes() == sk.fiber.value(uu, yy).tobytes()
    # the lift's table path takes only maps whose every fiber is marked
    assert marked == spec.n_strips or _shared_slope(spec) is None


@pytest.mark.parametrize("nx, ny, yrange", [
    (64, 1200, (-0.1, 1.1)), (256, 256, (0.0, 1.0)), (100, 30, (0.0, 1.0)),
], ids=["cond", "sq", "density_grid"])
def test_grid_counts_match_numpy_histogram(nx, ny, yrange):
    rng = np.random.default_rng(7)

    def adversarial(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1)
        outside = [lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf),
                   np.nextafter(hi, np.inf), -np.inf, np.inf, np.nan]
        v = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf), outside, [hi] * 5,
                            rng.uniform(lo - 0.2, hi + 0.2, 40_000)])
        return rng.permutation(v)

    x = adversarial(0.0, 1.0, nx)
    y = adversarial(yrange[0], yrange[1], ny)
    m = min(x.size, y.size)
    for xs, ys in [(x[:m], y[:m]), (x[:m], np.sort(y[:m])),
                   (np.sort(x[:m]), np.sort(y[:m]))]:
        want, _, _ = np.histogram2d(xs, ys, bins=[nx, ny],
                                    range=[[0.0, 1.0], list(yrange)])
        got = _grid_counts(xs, ys, nx, ny, yrange, np.empty(m, dtype=np.intp))
        assert got.dtype == np.int64 and got.shape == (nx, ny)
        assert np.array_equal(got, want.astype(np.int64))
