import math

import numpy as np
import pytest

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
from horseshoe.maps import affine_fiber, make_baker, make_custom_skew
from horseshoe.symbolic import cylinder_diameter, m_inventory


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


def test_fatness_validation(baker06):
    with pytest.raises(ParameterError):
        fatness_fit(baker06, depth_max=1)
    with pytest.raises(ParameterError):
        fatness_fit(baker06, depth_max=5, depth_min=6)


# ---------------------------------------------------------------------------
# envelopes


def test_tail_hull_inside_cone(affine, baker06):
    for spec in (affine, baker06):
        lo, hi = tail_slope_hull(spec)
        assert -spec.alpha <= lo <= hi <= spec.alpha


def test_tail_hull_follows_fiber_maps():
    """Maps that differ only in their fiber maps get their own hulls.

    Both maps share label, params, alpha, k0 and J, so they share a map
    hash; a hull looked up by that hash would hand the first map's hull
    to the second.
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
    assert flat.map_hash == sheared.map_hash
    lo, hi = tail_slope_hull(flat)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12
    lo, hi = tail_slope_hull(sheared)
    assert abs(lo) < 1e-12
    # fixed point of hi = 0.1 + (0.7 / 2) * hi
    assert hi == pytest.approx(0.1 / 0.65, rel=1e-9)


def test_tail_hull_shrinks_with_depth(affine):
    lo1, hi1 = tail_slope_hull(affine, tail_depth=2)
    lo2, hi2 = tail_slope_hull(affine, tail_depth=20)
    assert lo1 <= lo2 <= hi2 <= hi1


def test_envelope_matches_inventory_route(affine):
    """Same hulls out of the per-word recursion and the inventory walk."""
    hull = tail_slope_hull(affine)
    inv = m_inventory(affine, 0.12, x_grid_n=33, tail_hull=hull)
    for k, word in enumerate(inv.words):
        plo, phi, slo, shi = manifold_envelope(affine, word, inv.x_grid, hull)
        assert np.abs(inv.env_pos[k][0] - plo).max() < 1e-12
        assert np.abs(inv.env_pos[k][1] - phi).max() < 1e-12
        assert np.abs(inv.env_slope[k][0] - slo).max() < 1e-12
        assert np.abs(inv.env_slope[k][1] - shi).max() < 1e-12


def test_envelope_position_is_hat_strip(baker06):
    xg = np.linspace(0.0, 1.0, 17)
    plo, phi, slo, shi = manifold_envelope(baker06, (1, 2), xg,
                                           tail_slope_hull(baker06))
    # depth-2 strip of the doubling skew: 0.36*y + 0.6*0.4, y in [0,1]
    assert np.abs(plo - 0.24).max() < 1e-12
    assert np.abs(phi - 0.6).max() < 1e-12
    assert slo.min() >= -1e-9 and shi.max() <= 1e-9


# ---------------------------------------------------------------------------
# pairwise classification


def test_separated_strips_transversal(baker04):
    v = classify_transversal(baker04, (1,), (2,), delta=0.05)
    assert v.status == "transversal"
    assert bool(v)
    assert v.witness["position_gap"] > 0.05


def test_overlapping_strips_not_transversal(baker07):
    v = classify_transversal(baker07, (1,), (2,), delta=0.05)
    assert v.status == "non_transversal"
    assert not bool(v)


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
    rep = ntr_sum(baker06, r=0.72, delta=0.1)
    assert rep.sum_value == pytest.approx(2.0 * 0.2 * 0.25 / 0.72 ** 2,
                                          abs=1e-12)
    assert rep.n_pairs == 2
    assert rep.n_ntr == 2
    assert rep.charged_fraction == 1.0
    assert not rep.subsampled


def test_tiling_family_sums_to_zero(baker_half):
    sweep = ntr_sweep(baker_half, [0.6, 0.3, 0.15], delta=0.1)
    assert all(rep.sum_value == 0.0 for rep in sweep.reports)
    assert sweep.exponent is None


def test_separated_leads_prune_everything(baker04):
    rep = ntr_sum(baker04, r=0.3, delta=0.05)
    assert rep.n_ntr == 0
    assert rep.sum_value == 0.0
    assert rep.charged_fraction == 0.0


def test_charged_fraction_decays_for_overlapping_bands(baker07):
    coarse = ntr_sum(baker07, r=0.5, delta=0.05)
    fine = ntr_sum(baker07, r=0.18, delta=0.05)
    assert coarse.charged_fraction == 1.0
    assert fine.charged_fraction < coarse.charged_fraction
    assert fine.sum_value > 0.0


def test_subsampled_sum_is_deterministic_and_consistent(affine):
    exact = ntr_sum(affine, r=2.0 ** -3, delta=0.0625)
    assert not exact.subsampled
    sub1 = ntr_sum(affine, r=2.0 ** -3, delta=0.0625, pair_budget=40)
    sub2 = ntr_sum(affine, r=2.0 ** -3, delta=0.0625, pair_budget=40)
    assert sub1.subsampled
    assert sub1.sum_value == sub2.sum_value
    assert sub1.n_ntr == sub2.n_ntr
    se = max(sub1.sum_se, 1e-12)
    assert abs(sub1.sum_value - exact.sum_value) < 4.0 * se + 0.05 * exact.sum_value


@pytest.mark.parametrize("r, kwargs, want", [
    (2.0 ** -3, {}, ("2.1248905304348384", "3960.0", "0.0", None)),
    (2.0 ** -5, {"pair_budget": 300, "seed": 7},
     ("4.606803344000234", "707780.0", "0.13140782182985986", 880)),
    (2.0 ** -7, {"pair_budget": 2000, "seed": 1},
     ("5.687939929607821", "132609250.75", "0.14881659789266272", 3064)),
], ids=["exact", "sampled_2^-5", "sampled_2^-7"])
def test_charged_sum_pinned(affine, r, kwargs, want):
    """Exact and sampled sums, bit for bit, at delta = (a - b) / 4."""
    rep = ntr_sum(affine, r=r, delta=0.0625, **kwargs)
    got = (repr(rep.sum_value), repr(rep.n_ntr), repr(rep.sum_se),
           rep.meta.get("classified"))
    assert got == want


def test_ntr_csv_fields_are_plain_numbers(tmp_path):
    path = tmp_path / "ntr.csv"
    ntr_sweep(make_baker(2.0 ** -0.5), [2.0 ** -3], 0.1).to_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "r,delta,n_pairs,n_ntr,sum,sum_se,subsampled"
    assert rows
    for row in rows:
        for field in row.split(","):
            float(field)


def test_sweep_validation(baker06):
    with pytest.raises(ParameterError):
        ntr_sweep(baker06, [0.1, 0.2], delta=0.1)
    with pytest.raises(ParameterError):
        ntr_sum(baker06, r=0.5, delta=-1.0)
