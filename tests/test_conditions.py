import math

import numpy as np
import pytest

from horseshoe import conditions
from horseshoe.cli import main
from horseshoe.conditions import (
    classify_transversal,
    fatness_fit,
    manifold_envelope,
    ntr_sum,
    ntr_sweep,
    overlap_volume,
    tail_slope_hull,
)
from horseshoe.errors import ParameterError
from horseshoe.maps import (
    affine_fiber,
    make_affine_example,
    make_baker,
    make_custom_skew,
)
from horseshoe.symbolic import (
    cylinder_diameter,
    envelope_hulls,
    fiber_step,
    m_inventory,
)
from test_measures import _traced_peak
from test_symbolic import _three_strip_skew


# ---------------------------------------------------------------------------
# fatness


def test_fatness_expanding_fiber_family(baker07):
    fit = fatness_fit(baker07, depth_max=9)
    want = math.log(2.0) / math.log(1.0 / 0.7) - 1.0
    assert fit.epsilon == pytest.approx(want, abs=1e-9)
    assert fit.passed
    assert fit.per_word_slack >= -1e-9
    assert not fit.partial


def test_fatness_thin_family_rejected(baker04):
    fit = fatness_fit(baker04, depth_max=9)
    want = math.log(2.0) / math.log(2.5) - 1.0
    assert fit.epsilon == pytest.approx(want, abs=1e-9)
    assert fit.epsilon < -0.2
    assert not fit.passed


def test_fatness_measure_preserving_boundary(baker_half):
    fit = fatness_fit(baker_half, depth_max=10)
    assert fit.epsilon == 0.0
    assert fit.passed


def test_fatness_strongly_thin(spec=make_baker(1.0 / 3.0)):
    fit = fatness_fit(spec, depth_max=9)
    assert fit.epsilon == pytest.approx(math.log(2.0) / math.log(3.0) - 1.0,
                                        abs=1e-9)
    assert not fit.passed


def test_fatness_affine_depth_stability(affine):
    f8 = fatness_fit(affine, depth_max=8)
    f12 = fatness_fit(affine, depth_max=12)
    assert f8.epsilon == pytest.approx(0.22401722503717436, abs=1e-10)
    assert f12.epsilon == pytest.approx(0.1908884038556553, abs=1e-10)
    assert abs(f8.epsilon - f12.epsilon) < 0.05
    assert f12.k1 == pytest.approx(0.4191149467257116, rel=1e-9)
    assert f8.passed and f12.passed
    assert f12.per_word_slack >= -1e-9


def test_fatness_budget_reports_partial(affine):
    fit = fatness_fit(affine, depth_max=12, budget=120)
    assert fit.partial
    assert fit.depth_max < 12


def test_fatness_working_set_is_block_sized(affine):
    """The depth-16 table (131,070 words) is walked ``BLOCK`` nodes at a
    time: 24 MiB holds the table and the blocks in flight, where blocks of
    4096 rows took about 41 MiB."""
    _, peak = _traced_peak(lambda: fatness_fit(affine, 16))
    assert peak <= 24 << 20


def test_fatness_validation(baker06):
    with pytest.raises(ParameterError):
        fatness_fit(baker06, depth_max=1)
    with pytest.raises(ParameterError):
        fatness_fit(baker06, depth_max=5, depth_min=6)
    # a line through one binding point fits no exponent
    with pytest.raises(ParameterError):
        fatness_fit(baker06, depth_max=5, depth_min=5)
    # budget 8 completes depth 2 only (1 + 2 + 4 nodes)
    with pytest.raises(ParameterError):
        fatness_fit(baker06, depth_max=5, budget=8)
    fit = fatness_fit(baker06, depth_max=5, budget=16)
    assert fit.partial and fit.depth_max == 3


# ---------------------------------------------------------------------------
# envelopes


def test_tail_hull_inside_cone(affine, baker06):
    for spec in (affine, baker06):
        lo, hi = tail_slope_hull(spec)
        assert -spec.alpha <= lo <= hi <= spec.alpha


def test_tail_hull_follows_fiber_maps():
    """Maps that differ only in their fiber maps get their own hulls.

    Both maps share label, params, alpha, k0 and J; the map hash still
    tells them apart, since it fingerprints the fiber maps of custom maps.
    """
    flat = make_custom_skew((0.0, 0.5, 1.0),
                            [affine_fiber(0.6, 0.0, 0.0, 0.0),
                             affine_fiber(0.6, 0.4, 0.0, 0.0)],
                            alpha=0.5, k0=1.5)
    sheared = make_custom_skew((0.0, 0.5, 1.0),
                               [affine_fiber(lambda u: 0.6 + 0.1 * u, 0.0,
                                             0.1, 0.0),
                                affine_fiber(0.6, 0.4, 0.0, 0.0)],
                               alpha=0.5, k0=1.5)
    assert flat.map_hash != sheared.map_hash
    lo, hi = tail_slope_hull(flat)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12
    lo, hi = tail_slope_hull(sheared)
    assert abs(lo) < 1e-12
    # fixed point of hi = 0.1 + (0.7 / 2) * hi
    assert hi == pytest.approx(0.1 / 0.65, rel=1e-9)


def _flat_and_sheared():
    return (make_custom_skew((0.0, 0.5, 1.0),
                             [affine_fiber(0.6, 0.0, 0.0, 0.0),
                              affine_fiber(0.6, 0.4, 0.0, 0.0)],
                             alpha=0.5, k0=1.5),
            make_custom_skew((0.0, 0.5, 1.0),
                             [affine_fiber(lambda u: 0.6 + 0.1 * u, 0.0,
                                           0.1, 0.0),
                              affine_fiber(0.6, 0.4, 0.0, 0.0)],
                             alpha=0.5, k0=1.5))


@pytest.mark.parametrize("build", [
    lambda: make_affine_example(0.8, 0.55), lambda: make_baker(0.6),
    lambda: _flat_and_sheared()[0], lambda: _flat_and_sheared()[1],
], ids=["affine", "baker06", "flat", "sheared"])
def test_tail_hull_memo_matches_fresh_hull(build):
    """The hull memoized on a map equals the one a fresh instance computes,
    at each tail depth on its own."""
    spec = build()
    deep = tail_slope_hull(spec)
    shallow = tail_slope_hull(spec, tail_depth=2)
    assert tail_slope_hull(spec) is deep
    assert tail_slope_hull(spec, tail_depth=2) is shallow
    assert deep == tail_slope_hull(build())
    assert shallow == tail_slope_hull(build(), tail_depth=2)


def test_tail_hull_memo_is_per_map():
    """Maps with equal alpha and k0 but other fibers keep their own hulls,
    whichever is asked first."""
    flat, sheared = _flat_and_sheared()
    assert tail_slope_hull(flat) != tail_slope_hull(sheared)
    flat2, sheared2 = _flat_and_sheared()
    assert tail_slope_hull(sheared2) == tail_slope_hull(sheared)
    assert tail_slope_hull(flat2) == tail_slope_hull(flat)
    assert tail_slope_hull(make_affine_example(0.8, 0.55), tail_depth=2) != \
        tail_slope_hull(make_affine_example(0.8, 0.55))


def test_tail_hull_shrinks_with_depth(affine):
    lo1, hi1 = tail_slope_hull(affine, tail_depth=2)
    lo2, hi2 = tail_slope_hull(affine, tail_depth=20)
    assert lo1 <= lo2 <= hi2 <= hi1


def test_envelope_position_is_hat_strip(baker06):
    xg = np.linspace(0.0, 1.0, 17)
    plo, phi, slo, shi = manifold_envelope(baker06, (1, 2), xg,
                                           tail_slope_hull(baker06))
    # depth-2 strip of the doubling skew: 0.36*y + 0.6*0.4, y in [0,1]
    assert np.abs(plo - 0.24).max() < 1e-12
    assert np.abs(phi - 0.6).max() < 1e-12
    assert slo.min() >= -1e-9 and shi.max() <= 1e-9


def _from_root_envelopes(spec, words, xg, hull):
    """Each row composed on its own from the root, a symbol at a time."""
    env = []
    for word in words.tolist():
        X, A, B = xg[None, :], np.ones((1, xg.size)), np.zeros((1, xg.size))
        coef = (B, A, B)
        for s in word:
            if s:
                X, A, B, coef = fiber_step(spec.skew[s - 1], X, A, B, coef)
        env.append(envelope_hulls(A, B, coef, hull))
    if not env:
        return [np.empty((0, xg.size))] * 4
    return [np.concatenate(e) for e in zip(*env)]


def _row_sets(spec, r):
    """Word rows of M(r) in a random order, with repeats, proper prefixes
    of other rows, the empty word, and no rows at all."""
    inv = m_inventory(spec, r)
    rng = np.random.default_rng(5)
    words = inv.words[rng.integers(len(inv.words), size=60)]
    cut = words.copy()
    for row, n in zip(cut, rng.integers(0, words.shape[1], size=len(cut))):
        row[n:] = 0
    mixed = np.concatenate((words, cut, words[:7], np.zeros((2, words.shape[1]),
                                                             dtype=words.dtype)))
    return inv.x_grid, [mixed[rng.permutation(len(mixed))], mixed[:0],
                        mixed[:1, :0], mixed[-1:]]


def _trie_nodes(words, block):
    """Distinct non-empty prefixes per slice of ``block`` sorted rows."""
    rows = sorted(tuple(s for s in w if s) for w in words.tolist())
    return sum(len({w[:k] for w in rows[i:i + block] for k in range(1, len(w) + 1)})
               for i in range(0, len(rows), block))


@pytest.mark.parametrize("spec, r", [
    (make_affine_example(0.8, 0.55), 2.0 ** -6),
    (make_baker(0.6), 2.0 ** -6 * 1.2),
    (_three_strip_skew(), 2.0 ** -5),
], ids=["affine", "baker06", "three_strip"])
@pytest.mark.parametrize("block", [None, 5], ids=["BLOCK", "BLOCK_5"])
def test_envelope_trie_matches_from_root_composition(monkeypatch, spec, r, block):
    """The trie kernel gives every row the bits of its from-root composition,
    and steps each distinct non-empty prefix of a slice exactly once."""
    if block is not None:
        monkeypatch.setattr(conditions, "BLOCK", block)
    stepped = []

    def spy(sk, X, *args):
        stepped.append(len(X))
        return fiber_step(sk, X, *args)

    monkeypatch.setattr(conditions, "fiber_step", spy)
    hull = tail_slope_hull(spec)
    xg, row_sets = _row_sets(spec, r)
    for words in row_sets:
        stepped.clear()
        got = conditions._envelope_rows(spec, words, xg, hull)
        want = _from_root_envelopes(spec, words, xg, hull)
        assert np.stack(got).tobytes() == np.stack(want).tobytes()
        assert sum(stepped) == _trie_nodes(words, conditions.BLOCK)


# ---------------------------------------------------------------------------
# pairwise classification


def test_separated_strips_transversal(baker04):
    v = classify_transversal(baker04, (1,), (2,), delta=0.05)
    assert v.status == "transversal"
    assert v.witness["position_gap"] > 0.05


def test_overlapping_strips_not_transversal(baker07):
    v = classify_transversal(baker07, (1,), (2,), delta=0.05)
    assert v.status == "non_transversal"


def test_affine_lead_pair_not_transversal(affine):
    v = classify_transversal(affine, (1,), (2,), delta=0.1)
    assert v.status == "non_transversal"


def test_everything_close_at_huge_delta(baker04):
    v = classify_transversal(baker04, (1,), (2,), delta=2.0)
    assert v.status == "non_transversal"


def test_refinement_never_flips_to_transversal(affine, baker04, baker07):
    pairs = [((1,), (2,)), ((1, 1), (2, 1)), ((1, 2), (2, 2)),
             ((1, 1, 2), (2, 1, 1))]
    for spec in (affine, baker04, baker07):
        for wa, wb in pairs:
            coarse = classify_transversal(spec, wa, wb, 0.05, x_grid_n=65)
            fine = classify_transversal(spec, wa, wb, 0.05, x_grid_n=257)
            if coarse.status == "transversal":
                assert fine.status == "transversal"


def test_classification_validation(baker06):
    with pytest.raises(ParameterError):
        classify_transversal(baker06, (1,), (2,), delta=0.0)
    with pytest.raises(ParameterError):
        classify_transversal(baker06, (1,), (2,), delta=0.1, x_grid_n=1)
    with pytest.raises(ParameterError):
        classify_transversal(baker06, (1, 3), (2,), delta=0.1)


# ---------------------------------------------------------------------------
# overlap volumes


def test_self_overlap_is_strip_area(baker06):
    assert overlap_volume(baker06, (1,), (1,)) == pytest.approx(0.6)
    assert overlap_volume(baker06, (1,), (1,), hat=True) == pytest.approx(0.72)


def test_tiling_strips_do_not_overlap(baker_half):
    assert overlap_volume(baker_half, (1,), (2,)) == 0.0


def test_expanding_fiber_strips_overlap(baker07):
    # plain strips [0, 0.7] and [0.3, 1.0]
    assert overlap_volume(baker07, (1,), (2,)) == pytest.approx(0.4)


def test_overlap_resolution_validation(baker06):
    with pytest.raises(ParameterError):
        overlap_volume(baker06, (1,), (2,), resolution=32)


def test_transversal_pairs_obey_volume_bound(baker04, affine):
    """Certified pairs keep hat-overlap below (1/delta) * d(a) * d(b)."""
    rng = np.random.default_rng(3)
    for spec, delta in ((baker04, 0.05), (affine, 0.0625)):
        for _ in range(12):
            na, nb = rng.integers(1, 5, size=2)
            wa = tuple(rng.integers(1, 3, size=na).tolist())
            wb = tuple(rng.integers(1, 3, size=nb).tolist())
            v = classify_transversal(spec, wa, wb, delta)
            if v.status != "transversal":
                continue
            vol = overlap_volume(spec, wa, wb, hat=True)
            bound = cylinder_diameter(spec, wa) * cylinder_diameter(spec, wb)
            assert vol <= 1.02 * bound / delta


# ---------------------------------------------------------------------------
# charged sums


def test_charged_sum_two_strip_oracle(baker06):
    """Two overlapping strips: sum = 2 * vol * |I|^2 / r^2 exactly."""
    rep = ntr_sum(baker06, m_inventory(baker06, 0.72), delta=0.1)
    assert rep.sum_value == pytest.approx(2.0 * 0.2 * 0.25 / 0.72 ** 2,
                                          abs=1e-12)
    assert rep.n_pairs == 2
    assert rep.n_ntr == 2
    assert rep.charged_fraction == 1.0
    assert not rep.subsampled


def test_charged_sum_of_the_empty_word(baker06):
    """Above every one-symbol diameter (0.72) M(r) is the empty word alone."""
    inv = m_inventory(baker06, 1.0)
    assert inv.words.shape == (1, 0) and inv.lengths.tolist() == [0]
    rep = ntr_sum(baker06, inv, delta=0.1)
    assert (rep.n_pairs, rep.n_ntr, rep.sum_value) == (0, 0.0, 0.0)


def test_tiling_family_sums_to_zero(baker_half):
    sweep = ntr_sweep(baker_half, [0.6, 0.3, 0.15], delta=0.1)
    assert all(rep.sum_value == 0.0 for rep in sweep.reports)
    assert sweep.exponent is None


def test_separated_leads_prune_everything(baker04):
    rep = ntr_sum(baker04, m_inventory(baker04, 0.3), delta=0.05)
    assert rep.n_ntr == 0
    assert rep.sum_value == 0.0
    assert rep.charged_fraction == 0.0


def test_charged_fraction_decays_for_overlapping_bands(baker07):
    coarse = ntr_sum(baker07, m_inventory(baker07, 0.5), delta=0.05)
    fine = ntr_sum(baker07, m_inventory(baker07, 0.18), delta=0.05)
    assert coarse.charged_fraction == 1.0
    assert fine.charged_fraction < coarse.charged_fraction
    assert fine.sum_value > 0.0


def test_subsampled_sum_is_deterministic_and_consistent(affine):
    inv = m_inventory(affine, 2.0 ** -3)
    exact = ntr_sum(affine, inv, delta=0.0625)
    assert not exact.subsampled
    sub1 = ntr_sum(affine, inv, delta=0.0625, pair_budget=40)
    sub2 = ntr_sum(affine, inv, delta=0.0625, pair_budget=40)
    assert sub1.subsampled
    assert sub1.sum_value == sub2.sum_value
    assert sub1.n_ntr == sub2.n_ntr
    se = max(sub1.sum_se, 1e-12)
    assert abs(sub1.sum_value - exact.sum_value) < 4.0 * se + 0.05 * exact.sum_value


@pytest.mark.parametrize("spec, r, delta", [
    (make_baker(0.7), 0.18, 0.1),
    (make_affine_example(0.8, 0.55), 2.0 ** -4, 0.015),
], ids=["baker07_0.18", "affine_2^-4"])
def test_charged_flags_are_the_pair_verdicts(monkeypatch, spec, r, delta):
    """ntr_sum charges exactly the pairs classify_transversal does not
    call transversal, on the same grid and tail depth, for every pair."""
    inv = m_inventory(spec, r)
    seen = {}
    charged_pairs = conditions._charged_pairs

    def spy(spec_, inv_, I, J, *args):
        seen["I"], seen["J"] = I, J
        seen["charged"], vals = charged_pairs(spec_, inv_, I, J, *args)
        return seen["charged"], vals

    monkeypatch.setattr(conditions, "_charged_pairs", spy)
    rep = ntr_sum(spec, inv, delta, tail_depth=48)
    assert not rep.subsampled and len(seen["I"]) == rep.n_pairs // 2

    # each word's envelope once; classify_transversal itself is unchanged
    envelope, envelopes = conditions.manifold_envelope, {}

    def one_envelope(spec_, word, x_grid, hull):
        if word not in envelopes:
            envelopes[word] = envelope(spec_, word, x_grid, hull)
        return envelopes[word]

    hull = tail_slope_hull(spec, tail_depth=48)
    monkeypatch.setattr(conditions, "tail_slope_hull", lambda s, tail_depth: hull)
    monkeypatch.setattr(conditions, "manifold_envelope", one_envelope)
    words = [tuple(w[:n]) for w, n in zip(inv.words.tolist(), inv.lengths.tolist())]
    statuses = [classify_transversal(spec, words[i], words[j], delta,
                                     x_grid_n=inv.x_grid.size, tail_depth=48).status
                for i, j in zip(seen["I"].tolist(), seen["J"].tolist())]
    assert [s != "transversal" for s in statuses] == seen["charged"].tolist()
    assert {"transversal", "non_transversal"} <= set(statuses)


@pytest.mark.parametrize("r, kwargs, want", [
    (2.0 ** -3, {}, ("2.1248905304348384", "3960.0", "0.0", None)),
    (2.0 ** -5, {"pair_budget": 300, "seed": 7},
     ("4.606803344000234", "707780.0", "0.13140782182985986", 880)),
    (2.0 ** -7, {"pair_budget": 2000, "seed": 1},
     ("5.687939929607821", "132609250.75", "0.14881659789266272", 3064)),
], ids=["exact", "sampled_2^-5", "sampled_2^-7"])
def test_charged_sum_pinned(affine, r, kwargs, want):
    """Exact and sampled sums, bit for bit, at delta = (a - b) / 4."""
    rep = ntr_sum(affine, m_inventory(affine, r), delta=0.0625, **kwargs)
    got = (repr(rep.sum_value), repr(rep.n_ntr), repr(rep.sum_se),
           rep.meta.get("classified"))
    assert got == want


def _scalar_stratum_pairs(ga, gb, share, rng):
    """The per-pick loop: a lead combination, then one scalar row draw
    from each side."""
    combos = [(s, t) for s in sorted(ga) for t in sorted(gb) if s != t]
    weights = np.array([len(ga[s]) * len(gb[t]) for s, t in combos], dtype=float)
    weights /= weights.sum()
    I, J = [], []
    for pick in rng.choice(len(combos), size=share, p=weights):
        s, t = combos[pick]
        I.append(ga[s][rng.integers(len(ga[s]))])
        J.append(gb[t][rng.integers(len(gb[t]))])
    return np.array(I), np.array(J)


def _affine_stratum():
    inv = m_inventory(make_affine_example(0.8, 0.55), 2.0 ** -5)
    groups = []
    for n in (int(inv.lengths.min()), int(inv.lengths.max())):
        at = np.flatnonzero(inv.lengths == n)
        lead = inv.words[at, 0]
        groups.append({s: at[lead == s] for s in np.unique(lead).tolist()})
    return groups


@pytest.mark.parametrize("ga, gb", [
    _affine_stratum(),
    ({1: np.array([4]), 2: np.arange(10, 17), 3: np.array([30, 31])},
     {1: np.arange(40, 43), 2: np.array([50]), 3: np.array([60])}),
], ids=["affine_2^-5", "highs_of_one"])
def test_stratum_pair_draws_match_scalar_loop(ga, gb):
    """One vectorised draw gives the scalar loop's rows and generator state."""
    for seed in (7, 1, [7, 3, 5]):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        I, J = conditions._draw_stratum_pairs(ga, gb, 500, rng)
        ref_I, ref_J = _scalar_stratum_pairs(ga, gb, 500, ref_rng)
        assert I.tolist() == ref_I.tolist() and J.tolist() == ref_J.tolist()
        assert rng.random() == ref_rng.random()


def test_ntr_csv_fields_are_plain_numbers(tmp_path):
    args = ["transversality", "--family", "baker", "--lam", repr(2.0 ** -0.5),
            "--enum-r", repr(2.0 ** -3), "--delta", "0.1", "--out", str(tmp_path)]
    assert main(args) == 0
    header, *rows = (tmp_path / "ntr.csv").read_text().splitlines()
    assert header == "r,delta,n_pairs,n_ntr,sum,sum_se,subsampled"
    assert rows
    for row in rows:
        for field in row.split(","):
            float(field)


def test_sweep_validation(baker06):
    with pytest.raises(ParameterError):
        ntr_sweep(baker06, [0.1, 0.2], delta=0.1)
    with pytest.raises(ParameterError):
        ntr_sum(baker06, m_inventory(baker06, 0.5), delta=-1.0)
