import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from horseshoe.errors import BudgetError, CacheError, ParameterError
from horseshoe.maps import make_baker
from horseshoe.symbolic import (
    backward_orbit,
    base_cylinder,
    base_interval_length,
    cylinder_diameter,
    cylinder_table,
    enumerate_M,
    fiber_image,
    fiber_width_fn,
    load_inventory,
    m_inventory,
    save_inventory,
    truncate_alphabet,
    window_count,
)

words2 = st.lists(st.integers(1, 2), min_size=0, max_size=8).map(tuple)


def test_base_cylinder_known_interval(baker06):
    assert base_cylinder(baker06, (1, 2, 1)) == (0.25, 0.375)
    assert base_cylinder(baker06, ()) == (0.0, 1.0)


@given(words2)
def test_base_interval_length_is_slope_product(word):
    spec = make_baker(0.37)
    lo, hi = base_cylinder(spec, word)
    assert abs((hi - lo) - base_interval_length(spec, word)) < 1e-12
    assert abs(base_interval_length(spec, word) - 0.5 ** len(word)) < 1e-15


@given(words2, st.floats(min_value=0.0, max_value=1.0))
def test_backward_orbit_steps_are_preimages(word, x):
    spec = make_baker(0.55)
    orbit = backward_orbit(spec, word, x)
    assert float(orbit[0]) == x
    for k, s in enumerate(word):
        sk = spec.skew[s - 1]
        assert abs(float(sk.base_forward(orbit[k + 1])) - float(orbit[k])) < 1e-12


@given(st.floats(min_value=0.2, max_value=0.8), words2,
       st.floats(min_value=0.0, max_value=1.0))
def test_baker_fiber_widths_are_lambda_powers(lam, word, x):
    spec = make_baker(lam)
    lo, hi = fiber_image(spec, word, x, hat=True)
    assert abs((hi - lo) - lam ** len(word) * 1.2) < 1e-9
    plo, phi = fiber_image(spec, word, x, hat=False)
    assert lo - 1e-12 <= plo <= phi <= hi + 1e-12


def test_fiber_width_fn_matches_fiber_image(affine):
    xg = np.linspace(0.0, 1.0, 33)
    for word in [(1,), (2, 1), (1, 2, 2)]:
        wf = fiber_width_fn(affine, word)(xg)
        lo, hi = fiber_image(affine, word, xg, hat=True)
        assert np.abs(wf - (hi - lo)).max() < 1e-12


def test_scale_family_baker_examples(baker06):
    assert enumerate_M(baker06, 0.5 * 1.2) == [(1,), (2,)]
    level2 = enumerate_M(baker06, 0.3 * 1.2)
    assert sorted(level2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_scale_family_left_to_right_order(baker06):
    inv = m_inventory(baker06, 0.3 * 1.2)
    assert list(inv.base_lo) == sorted(inv.base_lo)


@given(st.floats(min_value=0.25, max_value=0.6),
       st.floats(min_value=0.03, max_value=0.4))
@hypothesis.settings(max_examples=25, deadline=None)
def test_scale_family_invariants(lam, r_frac):
    """Members reach the scale, children fall below it, mass is conserved."""
    spec = make_baker(lam)
    r = r_frac * 1.2
    inv = m_inventory(spec, r)
    assert len(set(inv.words)) == len(inv.words)
    for w, d in zip(inv.words, inv.diam):
        assert d >= r - 1e-12
        for s in (1, 2):
            child = cylinder_diameter(spec, w + (s,))
            assert child < r + 1e-12
    # no member extends another: in sorted order the shortest extension of w
    # would sit directly after w, so neighbor checks cover every pair
    for w, v in zip(sorted(inv.words), sorted(inv.words)[1:]):
        assert v[:len(w)] != w
    assert abs(inv.mass() - 1.0) < 1e-12


@pytest.mark.xfail(strict=True, reason="M(r) grows words by appending the "
                   "first-acting symbol, so mixed-depth families do not tile")
def test_affine_scale_family_tiles_base(affine):
    inv = m_inventory(affine, 2.0 ** -4)
    ends = inv.base_lo + inv.base_len
    assert inv.base_lo[0] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(inv.base_lo[1:] - ends[:-1]).max() < 1e-12
    assert ends[-1] == pytest.approx(1.0, abs=1e-12)


def test_scale_family_word_budget(baker06):
    with pytest.raises(BudgetError):
        m_inventory(baker06, 2.0 ** -12 * 1.2, budget=100)


def test_cylinder_table_budget_keeps_complete_levels(affine):
    words, lens, diams, complete = cylinder_table(affine, 6, budget=30)
    assert complete < 6
    assert max(len(w) for w in words) == complete
    assert 2 ** complete == sum(1 for w in words if len(w) == complete)
    with pytest.raises(BudgetError):
        cylinder_table(affine, 3, budget=1)


def test_cylinder_diameter_agrees_with_inventory(affine):
    inv = m_inventory(affine, 0.12)
    for w, d in zip(inv.words[:12], inv.diam[:12]):
        assert abs(cylinder_diameter(affine, w) - d) < 5e-4


@given(st.floats(min_value=0.3, max_value=0.7))
@hypothesis.settings(max_examples=20, deadline=None)
def test_window_count_respects_crossing_bound(lam):
    spec = make_baker(lam)
    c1, c2 = 0.02, 0.3
    total = window_count(spec, 40, c1, c2)
    bound = 1.0 + math.log(c2 / c1) / math.log(1.0 / lam)
    assert total <= bound + 1e-9


def test_truncate_alphabet_prefix_rule(baker06):
    assert truncate_alphabet([0.9, 0.8, 0.3, 0.7], 0.5) == 2
    assert truncate_alphabet([0.9, 0.8], 0.5) == 2
    assert truncate_alphabet(baker06, 0.5) == 2
    assert truncate_alphabet(baker06, 0.65) == 0


def test_inventory_roundtrip(tmp_path, baker06):
    inv = m_inventory(baker06, 2.0 ** -6 * 1.2)
    path = tmp_path / "inv.blob"
    save_inventory(inv, path, baker06)
    back = load_inventory(path, baker06)
    assert back.words == inv.words
    assert np.array_equal(back.base_len, inv.base_len)
    assert np.array_equal(back.diam, inv.diam)


def test_inventory_rejects_other_map(tmp_path, baker06, affine):
    path = tmp_path / "inv.blob"
    save_inventory(m_inventory(baker06, 0.3), path, baker06)
    with pytest.raises(CacheError):
        load_inventory(path, affine)


def test_truncated_blob_refused(tmp_path, baker06):
    path = tmp_path / "inv.blob"
    save_inventory(m_inventory(baker06, 0.3), path, baker06)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(CacheError):
        load_inventory(path)


def test_bad_symbols_rejected(baker06):
    with pytest.raises(ParameterError):
        base_cylinder(baker06, (1, 3))
    with pytest.raises(ParameterError):
        fiber_image(baker06, (0,), 0.5)
