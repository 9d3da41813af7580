import math

import numpy as np
import pytest

from horseshoe import cli, diagnostics
from horseshoe.diagnostics import (
    _width_constants,
    adapted_derivative,
    fiber_ratio_sup,
    margin_constants,
    run_diagnostics,
    unstable_direction,
)
from horseshoe.errors import (
    DegenerateExtensionError,
    DegenerateScaleError,
    ItineraryError,
    ParameterError,
)
from horseshoe.maps import (
    affine_fiber,
    branch_derivative,
    make_affine_example,
    make_baker,
    make_custom_skew,
)
from horseshoe.symbolic import fiber_image

from test_measures import _traced_peak


def _quadratic_skew():
    """Two-branch affine-in-y skew whose fiber slopes and offsets are all
    quadratic in the arrival point u."""
    return make_custom_skew((0.0, 0.5, 1.0), [
        affine_fiber(lambda u: 0.5 + 0.1 * u - 0.04 * u * u,
                     lambda u: 0.05 * u + 0.02 * u * u,
                     lambda u: 0.1 - 0.08 * u, lambda u: 0.05 + 0.04 * u,
                     -0.08, 0.04),
        affine_fiber(lambda u: 0.55 - 0.05 * u * u,
                     lambda u: 0.4 + 0.03 * u - 0.02 * u * u,
                     lambda u: -0.1 * u, lambda u: 0.03 - 0.04 * u,
                     -0.1, -0.04),
    ], label="quadratic_demo")


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


def test_width_constants_working_set_is_block_sized(affine):
    """The depth-11 width levels (4,094 words) come from one walk of the
    word tree in ``BLOCK``-row blocks: a block's grids and their children's
    scales, plus two floats per word.  Measured: 4.80 MB.  Composing each
    level whole from its deep end through ``fiber_image`` took 13.0 MB."""
    _, peak = _traced_peak(lambda: _width_constants(affine, 11))
    assert peak <= 11 << 19


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
    assert out["route_error"] < 1e-12
    assert out["branch"] == 1
    # skew products: adapted inverse derivative is exactly diagonal
    assert out["offdiag_ratio"] == 0.0
    assert out["mixed_ratio"] == 0.0
    assert out["c2_sample"] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# array points and the lattice


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


ARRAY_SPECS = [make_affine_example(0.8, 0.55), make_baker(0.6), _quadratic_skew()]
ARRAY_IDS = ["affine", "baker06", "quadratic"]


@pytest.mark.parametrize("spec", ARRAY_SPECS, ids=ARRAY_IDS)
def test_array_frames_match_scalar_calls(spec):
    """Directions and adapted frames of a point array equal the per-point
    scalar calls, bit for bit."""
    hist = (2, 1, 1, 2, 1)
    xs = np.linspace(0.03, 0.97, 5)
    lo, hi = fiber_image(spec, hist, xs)
    z = (np.repeat(xs[:, None], 3, axis=1),
         lo[:, None] + np.array([0.1, 0.5, 0.9]) * (hi - lo)[:, None])
    vec, err = unstable_direction(spec, hist, z, 5)
    w = (z[0] + 1e-3 * vec[0], z[1] + 1e-3 * vec[1])
    got = adapted_derivative(spec, z, w, vec, branch=2)
    assert vec[0].shape == got["c2_sample"].shape == (5, 3)
    assert got["g_z"].shape == got["g_w"].shape == (2, 2, 5, 3)
    for k in np.ndindex(z[0].shape):
        zk = (float(z[0][k]), float(z[1][k]))
        vk, ek = unstable_direction(spec, hist, zk, 5)
        assert all(type(v) is float for v in vk) and ek == err
        assert _bits((vec[0][k], vec[1][k])) == _bits(vk)
        wk = (float(w[0][k]), float(w[1][k]))
        one = adapted_derivative(spec, zk, wk, vk, branch=2)
        for key, value in one.items():
            if key != "branch":
                assert _bits(got[key][(...,) + k]) == _bits(value), key


def test_array_batch_with_one_degenerate_frame_raises():
    """The fiber slope 0.5 (u - 0.3) + 1e-12 falls below the frame floor
    over x = 0.3; at y = offset the inverse step is still defined there."""
    fiber = affine_fiber(lambda u: 0.5 * (u - 0.3) + 1e-12, 0.25, 0.5, 0.0)
    spec = make_custom_skew((0.0, 0.5, 1.0), [fiber, fiber], alpha=0.5, k0=1.5,
                            label="vanishing_slope")
    z = (np.array([0.2, 0.3, 0.4]), np.full(3, 0.25))
    flat = (np.ones(3), np.zeros(3))
    with pytest.raises(DegenerateScaleError, match=r"adapted frame at \(0\.3, 0\.25\)"):
        adapted_derivative(spec, z, z, flat, branch=1)
    with pytest.raises(DegenerateScaleError):
        adapted_derivative(spec, (0.3, 0.25), (0.3, 0.25), (1.0, 0.0), branch=1)
    ok = (z[0][::2], z[1][::2])
    assert adapted_derivative(spec, ok, ok, (np.ones(2), np.zeros(2)),
                              branch=1)["c3_sample"].shape == (2,)


def _reference_unstable_direction(spec, history, z, depth):
    """Per-point pullback and push-forward, with every matrix term written out."""
    past = []
    p = z
    for s in history[:depth]:
        p = diagnostics.apply_branch(spec, s, p, direction="inverse")
        past.append(p)
    v = np.array([1.0, 0.0])
    for k in range(depth - 1, -1, -1):
        d = diagnostics.branch_derivative(spec, history[k], past[k])
        v = np.array([d[0][0] * v[0] + d[0][1] * v[1],
                      d[1][0] * v[0] + d[1][1] * v[1]])
        v /= float(np.hypot(v[0], v[1]))
    return float(v[0]), float(v[1])


def _reference_lattice(spec, lattice_n, depth):
    """The per-point lattice loop: suprema, sample count and CSV text."""
    c2, c3, c4, eq12, route_err, n = 0.0, math.inf, 0.0, 0.0, 0.0, 0
    lines = ["x,y,eq12_ratio,offdiag_ratio,c2_sample,c3_sample"]
    for s in range(1, spec.n_strips + 1):
        history = (s,) * depth
        for xi in np.linspace(0.02, 0.98, lattice_n):
            lo, hi = fiber_image(spec, history, float(xi), hat=False)
            for t in np.linspace(0.05, 0.95, max(2, lattice_n // 8)):
                z = (float(xi), float(lo + t * (hi - lo)))
                vec = _reference_unstable_direction(spec, history, z, depth)
                w = (z[0] + 1e-3 * vec[0], z[1] + 1e-3 * vec[1])
                got = adapted_derivative(spec, z, w, vec, branch=s)
                c2 = max(c2, got["c2_sample"])
                c3 = min(c3, got["c3_sample"])
                c4 = max(c4, got["offdiag_ratio"])
                eq12 = max(eq12, got["eq12_ratio"])
                route_err = max(route_err, got["route_error"])
                n += 1
                row = (z[0], z[1], got["eq12_ratio"], got["offdiag_ratio"],
                       got["c2_sample"], got["c3_sample"])
                lines.append(",".join(repr(float(v)) for v in row))
    fields = {"c2": c2, "c3": c3, "c4": c4, "eq12_ratio_max": eq12,
              "eq12_margin": 1.0 / spec.k0 ** 2 - eq12, "route_error": route_err,
              "feasible_c4": c4 < 0.25}
    return fields, n, "\n".join(lines) + "\n"


def _sheared_derivative(spec, i, z, order=1):
    """The branch derivative with d01 = 0.25, so no matrix term is zero."""
    d = branch_derivative(spec, i, z, order)
    d[0, 1] = 0.25
    return d


@pytest.mark.parametrize("name, shear, lattice_n, depth", [
    ("affine", False, 24, 7),
    ("baker06", False, 17, 6),
    ("affine", True, 16, 5),
], ids=["affine", "baker06", "affine_sheared"])
def test_lattice_matches_per_point_loop(name, shear, lattice_n, depth,
                                        request, tmp_path, monkeypatch):
    """The array lattice gives the per-point loop's suprema, and the CSV
    writer gives that loop's text from the report's lattice columns."""
    spec = request.getfixturevalue(name)
    if shear:
        monkeypatch.setattr(diagnostics, "branch_derivative", _sheared_derivative)
    want, n, csv = _reference_lattice(spec, lattice_n, depth)
    rep = run_diagnostics(spec, word_depth=4, lattice_n=lattice_n, depth=depth)
    for key, value in want.items():
        assert _bits(getattr(rep, key)) == _bits(value), key
    assert rep.samples_used["lattice"] == n == 2 * lattice_n * max(2, lattice_n // 8)
    path = tmp_path / "lattice.csv"
    cli._write_csv(path, ",".join(rep.lattice), rep.lattice.values())
    assert path.read_text() == csv
