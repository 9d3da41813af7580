import numpy as np
import pytest

from horseshoe.diagnostics import (
    adapted_derivative,
    fiber_ratio_sup,
    margin_constants,
    run_diagnostics,
    stable_distortion_ratio,
    unstable_direction,
)
from horseshoe.errors import (
    DegenerateExtensionError,
    ItineraryError,
    OutOfDomainError,
    ParameterError,
)
from horseshoe.maps import FiberMap, make_baker, make_custom_skew
from horseshoe.symbolic import base_cylinder, fiber_image


def _quadratic_skew():
    """Two-branch skew with psi(u, y) = c0 + 0.6 y + 0.05 y^2."""

    def fiber(c0):
        return FiberMap(
            value=lambda u, y: c0 + 0.6 * y + 0.05 * y * y,
            dy=lambda u, y: 0.6 + 0.1 * np.asarray(y, dtype=float),
            du=lambda u, y: np.zeros_like(np.asarray(u, dtype=float)
                                          + np.asarray(y, dtype=float)),
            dyy=lambda u, y: 0.1 + 0.0 * np.asarray(y, dtype=float),
            dyu=lambda u, y: np.zeros_like(np.asarray(y, dtype=float)),
            duu=lambda u, y: np.zeros_like(np.asarray(y, dtype=float)),
            affine=False,
            invert=lambda u, v: (-0.6 + np.sqrt(0.36 + 0.2 * (np.asarray(v) - c0))) / 0.1,
        )

    return make_custom_skew((0.0, 0.5, 1.0), [fiber(0.0), fiber(0.35)],
                            label="quadratic_demo")


# ---------------------------------------------------------------------------
# aggregate reports


def test_doubling_skew_constants_are_closed_form(baker06):
    rep = run_diagnostics(baker06, word_depth=6, lattice_n=12, depth=8)
    assert rep.k_stable == pytest.approx(1.0, abs=1e-12)
    assert rep.k2 == pytest.approx(1.0, abs=1e-12)
    assert rep.k3 == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert rep.k4 == pytest.approx(1.0, abs=1e-12)
    assert rep.c2 == pytest.approx(0.5, abs=1e-12)
    assert rep.c3 == pytest.approx(1.0 / 0.6, abs=1e-12)
    assert rep.c4 == pytest.approx(0.0, abs=1e-12)
    assert rep.eq12_ratio_max == pytest.approx(0.3, abs=1e-12)
    assert rep.eq12_margin == pytest.approx(0.36 - 0.3, abs=1e-12)
    assert rep.route_error < 1e-12
    assert rep.feasible_c4
    assert not rep.feasible_k0


def test_measure_preserving_margin_is_zero(baker_half):
    rep = run_diagnostics(baker_half, word_depth=5, lattice_n=8, depth=6)
    # ratio = lam/2 meets 1/k0^2 = 1/4 exactly at lam = 1/2
    assert rep.eq12_ratio_max == pytest.approx(0.25, abs=1e-12)
    assert abs(rep.eq12_margin) < 1e-12


def test_affine_example_report(affine):
    rep = run_diagnostics(affine, word_depth=8, lattice_n=12, depth=8)
    assert rep.k_stable == pytest.approx(1.0, abs=1e-12)
    assert rep.k2 == pytest.approx(2.2147086585217095, rel=1e-9)
    assert rep.c2 == pytest.approx(0.5, abs=1e-12)
    assert rep.c4 == pytest.approx(0.0, abs=1e-12)
    assert rep.route_error < 1e-12
    assert rep.eq12_margin > 0.4
    assert rep.feasible_c4
    payload = rep.to_json()
    assert set(payload) >= {"k_stable", "k2", "k3", "k4", "eq12_margin"}


# ---------------------------------------------------------------------------
# stable distortion


def test_stable_distortion_is_flat_for_constant_slopes(baker06, affine):
    for spec, word in ((baker06, (1, 2, 1)), (affine, (2, 1, 2))):
        lo, hi = base_cylinder(spec, word)
        x = 0.5 * (lo + hi)
        assert stable_distortion_ratio(spec, word, (x, 0.15), (x, 0.85)) \
            == pytest.approx(1.0, abs=1e-12)


def test_stable_distortion_requires_departure_point(baker06):
    lo, hi = base_cylinder(baker06, (1, 2, 1))
    outside = hi + 0.1
    with pytest.raises(OutOfDomainError):
        stable_distortion_ratio(baker06, (1, 2, 1), (outside, 0.2), (outside, 0.8))
    x = 0.5 * (lo + hi)
    with pytest.raises(ParameterError):
        stable_distortion_ratio(baker06, (1, 2, 1), (x, 0.2), (x + 0.01, 0.8))
    with pytest.raises(ParameterError):
        stable_distortion_ratio(baker06, (), (x, 0.2), (x, 0.8))


def test_stable_distortion_sees_y_dependence():
    spec = _quadratic_skew()
    lo, hi = base_cylinder(spec, (1, 2))
    x = 0.5 * (lo + hi)
    ratio = stable_distortion_ratio(spec, (1, 2), (x, 0.1), (x, 0.9))
    assert 1.0 < ratio < 1.5


# ---------------------------------------------------------------------------
# fiber ratio constants


def test_fiber_ratio_single_word_spread(affine):
    assert fiber_ratio_sup(affine, 1) == pytest.approx(0.8 / 0.55, rel=1e-9)


def test_fiber_ratio_sup_monotone_in_depth(affine):
    vals = [fiber_ratio_sup(affine, d) for d in (2, 3, 4)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[0] > 1.0


def test_fiber_ratio_flat_for_doubling(baker07):
    assert fiber_ratio_sup(baker07, 4) == pytest.approx(1.0, abs=1e-12)


def test_quadratic_fiber_widths_stay_flat():
    # y-nonlinearity alone does not spread widths across the base; that
    # takes u-dependent fiber coefficients
    spec = _quadratic_skew()
    assert fiber_ratio_sup(spec, 1) == pytest.approx(1.0, abs=1e-12)
    assert fiber_ratio_sup(spec, 3) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# unstable directions


def test_unstable_direction_base_case(affine):
    (vx, vy), err = unstable_direction(affine, (1, 2, 1), (0.3, 0.4), 0)
    assert (vx, vy) == (1.0, 0.0)
    assert err == pytest.approx(affine.alpha)


def test_unstable_direction_error_shrinks(affine):
    hist = (1, 2, 1, 1, 2)
    # the point needs a past compatible with the history: take it from the
    # image strip of the full history word
    lo, hi = fiber_image(affine, hist, 0.3)
    z = (0.3, 0.5 * (lo + hi))
    errs = []
    for depth in (1, 3, 5):
        (vx, vy), err = unstable_direction(affine, hist, z, depth)
        assert vx > 0.0
        assert abs(vy / vx) <= affine.alpha + 1e-12
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_unstable_direction_needs_enough_history(affine):
    with pytest.raises(ItineraryError):
        unstable_direction(affine, (1,), (0.3, 0.4), 2)
    with pytest.raises(ParameterError):
        unstable_direction(affine, (1,), (0.3, 0.4), -1)


# ---------------------------------------------------------------------------
# extension margins


def test_margin_inclusion_certificate(affine):
    rep = margin_constants(affine, (1, 2))
    assert rep.k3 > 0.0
    assert rep.violations == 0
    assert rep.control_r == pytest.approx(20.0 * rep.r_used)
    assert rep.control_violations > 0
    assert rep.checked == 1000


def test_margin_degenerate_extension_detected():
    squeezed = make_baker(0.6, extended_fiber=(-1e-12, 1.0 + 1e-12))
    with pytest.raises(DegenerateExtensionError):
        margin_constants(squeezed, (1,))


# ---------------------------------------------------------------------------
# adapted frames


def test_adapted_derivative_explicit_matches_assembled(affine):
    z = (0.3, 0.42)
    w = (0.3, 0.40)
    vec, _ = unstable_direction(affine, (1, 1, 2), z, 3)
    out = adapted_derivative(affine, z, w, vec, branch=1)
    auto = adapted_derivative(affine, z, w, vec)
    assert out["route_error"] < 1e-12
    assert auto["branch"] == 1
    assert np.allclose(out["g_z"], auto["g_z"], atol=0, rtol=0)
    # skew products: adapted inverse derivative is exactly diagonal
    assert out["offdiag_ratio"] == 0.0
    assert out["mixed_ratio"] == 0.0
    assert out["c2_sample"] == pytest.approx(0.5, abs=1e-12)
