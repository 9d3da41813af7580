import dataclasses
import math
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from horseshoe.errors import OutOfDomainError, ParameterError
from horseshoe.maps import (
    CheckResult,
    HyperbolicityReport,
    SkewBranch,
    affine_fiber,
    apply_branch,
    branch_derivative,
    make_affine_example,
    make_baker,
    make_custom_skew,
    validate_hyperbolicity,
)

from test_diagnostics import ARRAY_IDS, ARRAY_SPECS, _bits

lams = st.floats(min_value=0.15, max_value=0.9)
unit = st.floats(min_value=0.0, max_value=1.0)


@given(lams, unit, st.floats(min_value=-0.1, max_value=1.1), st.integers(1, 2))
def test_baker_branch_round_trip(lam, t, y, i):
    spec = make_baker(lam)
    lo, hi = spec.breaks[i - 1:i + 1]
    x = lo + t * (hi - lo)
    z = apply_branch(spec, i, (x, y))
    back = apply_branch(spec, i, z, direction="inverse")
    assert abs(back[0] - x) < 1e-12
    assert abs(back[1] - y) < 1e-12


@given(unit, st.floats(min_value=0.0, max_value=1.0), st.integers(1, 2))
def test_affine_branch_round_trip(t, y, i):
    spec = make_affine_example(0.8, 0.55)
    lo, hi = spec.breaks[i - 1:i + 1]
    x = lo + t * (hi - lo)
    z = apply_branch(spec, i, (x, y))
    back = apply_branch(spec, i, z, direction="inverse")
    assert abs(back[0] - x) < 1e-12 and abs(back[1] - y) < 1e-12


@given(lams, unit, st.floats(min_value=-0.45, max_value=0.45), st.integers(1, 2))
def test_cone_invariance_under_forward_derivative(lam, t, slope_frac, i):
    """Tangent slopes within the aperture stay within it after one step."""
    spec = make_baker(lam)
    lo, hi = spec.breaks[i - 1:i + 1]
    x = lo + t * (hi - lo)
    d = branch_derivative(spec, i, (x, 0.5))
    v = np.array([1.0, spec.alpha * slope_frac / 0.45])
    w = d @ v
    assert abs(w[1] / w[0]) <= spec.alpha + 1e-12


def test_jacobian_matches_finite_differences(affine):
    h = 1e-6
    for i in (1, 2):
        lo, hi = affine.breaks[i - 1:i + 1]
        for x, y in [(lo + 0.3 * (hi - lo), 0.25), (lo + 0.7 * (hi - lo), 0.9)]:
            d = branch_derivative(affine, i, (x, y))
            fx1 = apply_branch(affine, i, (x + h, y))
            fx0 = apply_branch(affine, i, (x - h, y))
            fy1 = apply_branch(affine, i, (x, y + h))
            fy0 = apply_branch(affine, i, (x, y - h))
            num = np.array([
                [(fx1[0] - fx0[0]) / (2 * h), (fy1[0] - fy0[0]) / (2 * h)],
                [(fx1[1] - fx0[1]) / (2 * h), (fy1[1] - fy0[1]) / (2 * h)],
            ])
            assert np.abs(np.asarray(d) - num).max() < 1e-6


def test_jacobian_det_is_area_scale(baker06):
    d = branch_derivative(baker06, 1, (0.2, 0.3))
    assert abs(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0] - 2 * 0.6) < 1e-12


def test_forward_rejects_point_outside_strip(baker06):
    with pytest.raises(OutOfDomainError):
        apply_branch(baker06, 1, (0.9, 0.5))
    with pytest.raises(OutOfDomainError):
        apply_branch(baker06, 1, (0.2, 1.5))


def test_inverse_rejects_point_outside_image(baker06):
    # branch 1 image is the lower slab; a high point cannot be pulled back
    with pytest.raises(OutOfDomainError):
        apply_branch(baker06, 1, (0.4, 1.05), direction="inverse")


def test_builtin_map_hashes_are_pinned():
    """Checkpoints and inventories written earlier are keyed by these."""
    assert make_baker(0.5).map_hash == (
        "b5db0869b680e49b804d10dafc330a400216329e889019395deaa2405251c7b0")
    assert make_affine_example(0.8, 0.55).map_hash == (
        "94cef89eda7d1205e88e1118f418f5c5cc19028e012a0c1bfd75ee4688339749")


def test_k0_matches_family_formula():
    assert abs(make_baker(0.6).k0 - 1.0 / 0.6) < 1e-12
    assert abs(make_baker(0.4).k0 - 2.0) < 1e-12
    # frozen regression value for the overlapping family
    assert abs(make_affine_example(0.8, 0.55).k0 - 1.0924479165091145) < 1e-9


def test_affine_aperture_from_extreme_partials(affine):
    # sup |F2x| = 0.55 over the extended fiber, against expansion 2 - sup|F2y|
    assert abs(affine.alpha - 0.55 / (2.0 - 0.8)) < 1e-6


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.3])
def test_bad_baker_contraction_rejected(lam):
    with pytest.raises(ParameterError):
        make_baker(lam)


@pytest.mark.parametrize("a,b", [(0.8, 0.5), (0.55, 0.8), (1.0, 0.6), (0.8, 0.8)])
def test_bad_affine_parameters_rejected(a, b):
    with pytest.raises(ParameterError):
        make_affine_example(a, b)


def test_affine_domain_is_the_expansion_floor_condition():
    with pytest.raises(ParameterError, match=(
            r"a=0\.9, b=0\.6 .*expansion floor.*"
            r"a \+ 2\.42 \(a - b\)\^2 / \(2 - a\) < 1")):
        make_affine_example(0.9, 0.6)
    # the docstring's closed form decides which parameters build
    grid = np.linspace(0.51, 0.99, 17).tolist()
    for a in grid:
        for b in (v - 0.005 for v in grid):
            if not 0.5 < b < a:
                continue
            builds = a + 2.42 * (a - b) ** 2 / (2.0 - a) < 1.0
            try:
                make_affine_example(a, b)
                assert builds, (a, b)
            except ParameterError:
                assert not builds, (a, b)


def test_custom_skew_requires_fiber_contraction():
    with pytest.raises(ParameterError):
        make_custom_skew((0.0, 0.5, 1.0),
                         (affine_fiber(2.5, 0.0, 0.0, 0.0),
                          affine_fiber(2.5, 0.0, 0.0, 0.0)))


def test_all_zero_fiber_slopes_leave_k0_unestimated():
    """No slope to divide by is a ParameterError; one zero branch still
    builds, and fails a2 (a singular Jacobian) as meant."""
    with pytest.raises(ParameterError, match="every fiber slope is 0"):
        make_custom_skew((0.0, 0.5, 1.0), (affine_fiber(0.0, 0.2, 0.0, 0.0),
                                           affine_fiber(0.0, 0.5, 0.0, 0.0)))
    one = make_custom_skew((0.0, 0.5, 1.0), (affine_fiber(0.0, 0.2, 0.0, 0.0),
                                             affine_fiber(0.5, 0.5, 0.0, 0.0)))
    with warnings.catch_warnings():  # det = 0 on strip 1 warns nothing
        warnings.simplefilter("error")
        rep = validate_hyperbolicity(one, grid_n=17)
    assert rep["a2"].observed == 0.0 and not rep["a2"].passed
    strip, x, y = rep["a2"].witness  # a failing check keeps its grid point
    assert strip == 1 and 0.0 <= x <= 0.5 and y in one.extended_fiber
    assert all(c.witness is not None for c in rep.checks.values() if not c.passed)
    assert rep["eq8"].passed and not rep.passed()


def test_spec_rejects_branch_not_onto_its_strip():
    """Branch i must send [x_{i-1}, x_i] onto [0,1]; either orientation will do.

    A spec whose breaks and branches disagree would make the lift pick
    branches by the breaks and step points with the wrong base map.
    """
    fibers = [affine_fiber(0.5, 0.0, 0.0, 0.0), affine_fiber(0.5, 0.5, 0.0, 0.0)]
    spec = make_custom_skew((0.0, 0.3, 1.0), fibers)
    assert spec.breaks == (0.0, 0.3, 1.0) and spec.n_strips == 2
    with pytest.raises(ParameterError, match="branch 1"):
        dataclasses.replace(spec, breaks=(0.0, 0.5, 1.0))
    with pytest.raises(ParameterError, match="branch 2"):
        dataclasses.replace(spec, skew=(spec.skew[0],
                                        SkewBranch(2.0, -1.0, fibers[1])))
    with pytest.raises(ParameterError):
        dataclasses.replace(spec, breaks=(0.0, 0.3, 0.3, 1.0))
    flipped = SkewBranch(-1.0 / 0.3, 1.0, fibers[0])
    assert dataclasses.replace(spec, skew=(flipped, spec.skew[1])).n_strips == 2
    for lam in (0.2, 0.5, 0.9):
        assert make_baker(lam).breaks == (0.0, 0.5, 1.0)
    assert make_affine_example(0.75, 0.6).breaks == (0.0, 0.5, 1.0)
    assert make_custom_skew((0.0, 0.1, 0.55, 1.0), fibers + fibers[:1]).n_strips == 3


def _sheared_pair():
    """Two custom maps equal in label, params, breaks, alpha, k0 and J."""
    flat = make_custom_skew((0.0, 0.5, 1.0),
                            [affine_fiber(0.6, 0.0, 0.0, 0.0),
                             affine_fiber(0.6, 0.4, 0.0, 0.0)],
                            alpha=0.5, k0=1.5)
    sheared = make_custom_skew((0.0, 0.5, 1.0),
                               [affine_fiber(lambda u: 0.6 + 0.1 * u, 0.0,
                                             0.1, 0.0),
                                affine_fiber(0.6, 0.4, 0.0, 0.0)],
                               alpha=0.5, k0=1.5)
    return flat, sheared


def test_custom_map_hash_follows_fiber_maps():
    flat, sheared = _sheared_pair()
    assert flat.map_hash != sheared.map_hash
    assert flat.map_hash == _sheared_pair()[0].map_hash
    assert "map_hash" in flat.__dict__  # computed once per instance
    moved = make_custom_skew((0.0, 0.4, 1.0), [sk.fiber for sk in flat.skew],
                             alpha=0.5, k0=1.5)
    lifted = make_custom_skew((0.0, 0.5, 1.0),
                              [affine_fiber(0.6, 0.05, 0.0, 0.0), flat.skew[1].fiber],
                              alpha=0.5, k0=1.5)
    assert len({flat.map_hash, moved.map_hash, lifted.map_hash}) == 3


def test_builtin_instances_validate(baker06, affine):
    for spec in (baker06, affine):
        rep = validate_hyperbolicity(spec, grid_n=128)
        assert rep["h1"].passed and rep["h2"].passed
        assert rep.passed()


def test_affine_margin_condition_reported_not_enforced(affine):
    rep = validate_hyperbolicity(affine, grid_n=128)
    assert not rep["a4"].passed   # observed margin exceeds the nominal bound
    assert rep.passed()           # the gate ignores it


@given(lams)
@hypothesis.settings(max_examples=25)
def test_baker_hyperbolicity_margins_scale_with_lambda(lam):
    rep = validate_hyperbolicity(make_baker(lam), grid_n=32)
    assert rep["h1"].passed
    assert rep.checks["h2"].passed == (rep.checks["h2"].margin >= 0)


# ---------------------------------------------------------------------------
# array points


@pytest.mark.parametrize("spec", ARRAY_SPECS, ids=ARRAY_IDS)
def test_array_points_match_scalar_calls(spec):
    """Arrays of points give each point's scalar result, bit for bit."""
    rng = np.random.default_rng(3)
    for i in (1, 2):
        lo, hi = spec.breaks[i - 1:i + 1]
        x = lo + (hi - lo) * rng.random((3, 5))
        y = rng.uniform(-0.1, 1.1, (3, 5))
        fx, fy = apply_branch(spec, i, (x, y))
        bx, by = apply_branch(spec, i, (fx, fy), direction="inverse")
        d1 = branch_derivative(spec, i, (x, y))
        d2 = branch_derivative(spec, i, (x, y), order=2)
        assert fx.shape == by.shape == (3, 5)
        assert d1.shape == (2, 2, 3, 5) and d2.shape == (2, 3, 3, 5)
        for k in np.ndindex(x.shape):
            z = (float(x[k]), float(y[k]))
            f = apply_branch(spec, i, z)
            back = apply_branch(spec, i, f, direction="inverse")
            assert all(type(v) is float for v in f + back)
            assert _bits((fx[k], fy[k])) == _bits(f)
            assert _bits((bx[k], by[k])) == _bits(back)
            assert _bits(d1[(...,) + k]) == _bits(branch_derivative(spec, i, z))
            assert _bits(d2[(...,) + k]) == _bits(branch_derivative(spec, i, z, order=2))


def test_array_batch_names_first_point_outside(baker06):
    x = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(OutOfDomainError, match=r"point \(0\.3, 1\.05\) has no branch-1"):
        apply_branch(baker06, 1, (x, np.array([0.2, 0.3, 1.05, 1.08])),
                     direction="inverse")
    for op in (apply_branch, branch_derivative):
        with pytest.raises(OutOfDomainError, match=r"point \(0\.7, 0\.5\) outside strip 1") as exc:
            op(baker06, 1, (np.array([0.1, 0.7, 0.9]), np.full(3, 0.5)))
        assert exc.value.point == (0.7, 0.5) and exc.value.strip == 1


def _estimated(spec):
    """The same fibers with alpha and k0 left to ``make_custom_skew``."""
    return make_custom_skew(spec.breaks, [sk.fiber for sk in spec.skew],
                            extended_fiber=spec.extended_fiber)


@pytest.mark.parametrize("build", [
    lambda: _three_strip_skew(), lambda: _estimated(_sheared_pair()[1]),
    *(lambda spec=spec: _estimated(spec) for spec in ARRAY_SPECS)],
    ids=["three_strip", "sheared", *ARRAY_IDS])
def test_cone_estimate_matches_the_lattice(build):
    """alpha and k0 read at the two ends of J equal the estimate from the
    129 x 129 lattice of [0,1] x J, float for float."""
    spec = build()
    uu, yy = np.meshgrid(np.linspace(0.0, 1.0, 129),
                         np.linspace(*spec.extended_fiber, 129), indexing="ij")
    m_min = min(sk.base_slope for sk in spec.skew)
    f2x_max = max(float(np.abs(sk.fiber.du(uu, yy)).max()) * sk.base_slope
                  for sk in spec.skew)
    f2y_max = max(float(np.abs(sk.fiber.dy(uu, yy)).max()) for sk in spec.skew)
    alpha = (min(0.999, f2x_max / (m_min - f2y_max) * (1.0 + 1e-9))
             if f2x_max > 0 else 0.5)
    k0 = min(m_min, (1.0 - alpha * f2x_max / m_min) / f2y_max)
    assert _bits((spec.alpha, spec.k0)) == _bits((alpha, k0))


@pytest.mark.parametrize("spec", ARRAY_SPECS, ids=ARRAY_IDS)
def test_fiber_slope_bounds_match_the_dy_lattice(spec):
    """|slope(u)| at 257 points u has the min and max of |d psi / d y| on
    the 257 x 257 lattice of [0,1] x J, float for float."""
    uu, yy = np.meshgrid(np.linspace(0.0, 1.0, 257),
                         np.linspace(*spec.extended_fiber, 257), indexing="ij")
    lattice = [np.abs(sk.fiber.dy(uu, yy)) for sk in spec.skew]
    assert spec.fiber_slope_bounds == tuple(
        (float(v.min()), float(v.max())) for v in lattice)


# ---------------------------------------------------------------------------
# validation against the per-strip accumulator it replaced


def _reference_validation(spec, grid_n):
    """The earlier validation loop, with its own copy of every partial: the
    worst value of each check with its witness, replaced only by a strictly
    worse strip.  Returns (checks, c0, c1)."""
    jlo, jhi = spec.extended_fiber
    alpha, k0 = spec.alpha, spec.k0
    stats = {}

    def push(name, arr, xx, yy, si, mode):
        k = int(np.argmax(arr) if mode == "max" else np.argmin(arr))
        v = float(arr.flat[k])
        if name not in stats or (v > stats[name][0] if mode == "max"
                                 else v < stats[name][0]):
            stats[name] = (v, (si, float(xx.flat[k]), float(yy.flat[k])))

    for si, sk in enumerate(spec.skew, start=1):
        lo, hi = spec.breaks[si - 1:si + 1]
        xg = np.linspace(lo, hi, grid_n)
        xx, yy = np.meshgrid(xg, np.linspace(jlo, jhi, grid_n), indexing="ij")
        m, fm = sk.base_slope, sk.fiber
        uu = sk.base_forward(xx)
        f1x, f1y = np.full_like(xx, m), np.zeros_like(xx)
        f2x = np.asarray(fm.du(uu, yy), dtype=float) * m
        f2y = np.asarray(fm.dy(uu, yy), dtype=float)
        sec = np.stack([np.zeros_like(xx)] * 3 + [
            np.asarray(fm.duu(uu, yy), dtype=float) * m * m,
            np.asarray(fm.dyu(uu, yy), dtype=float) * m,
            np.asarray(fm.dyy(uu, yy), dtype=float)])
        a = np.abs(f1x)
        push("eq5", np.abs(f1y) / a, xx, yy, si, "max")
        push("eq6", np.abs(f2x) / a, xx, yy, si, "max")
        push("eq7", np.abs(f2y) / a, xx, yy, si, "max")
        push("a3", np.maximum.reduce([a, np.abs(f1y), np.abs(f2x), np.abs(f2y)]),
             xx, yy, si, "max")
        push("a4", np.maximum(np.abs(f1y), np.abs(f2x)), xx, yy, si, "max")
        push("c0", np.max(np.abs(sec), axis=0), xx, yy, si, "max")
        det = f1x * f2y - f1y * f2x
        push("a2", np.abs(det), xx, yy, si, "min")
        push("a2_max", np.abs(det), xx, yy, si, "max")
        h1, h2 = [], []
        for t in (alpha, -alpha):
            num, den = f2x + f2y * t, f1x + f1y * t
            h1.append(np.abs(num) / np.abs(den))
            h2.append(np.maximum(np.abs(den), np.abs(num)))
        for s in (alpha, -alpha):
            w1, w2 = (f2y * s - f1y) / det, (-f2x * s + f1x) / det
            h1.append(np.abs(w1) / np.abs(w2))
            h2.append(np.maximum(np.abs(w1), np.abs(w2)))
        push("h1", np.maximum.reduce(h1), xx, yy, si, "max")
        push("h2", np.minimum.reduce(h2), xx, yy, si, "min")
        ratio = np.abs(f2y).max(axis=1) / np.maximum(np.abs(f2y).min(axis=1), 1e-300)
        push("eq8", ratio, xg, np.full_like(xg, jlo), si, "max")

    c0 = stats["c0"][0]
    c1 = math.sqrt(2.0) * (1.0 + alpha) * c0

    def result(name, bound, mode="max"):
        observed, witness = stats[name]
        margin = bound - observed if mode == "max" else observed - bound
        return CheckResult(observed, bound, margin, margin >= 0.0,
                           witness if margin < 0 else None)

    checks = {"eq5": result("eq5", alpha), "eq6": result("eq6", alpha),
              "eq7": result("eq7", 1.0 / k0 ** 2 + alpha ** 2),
              "eq8": result("eq8", math.exp(c1)), "h1": result("h1", alpha),
              "h2": result("h2", k0, "min"),
              "a1": CheckResult(c0, math.inf, math.inf, math.isfinite(c0)),
              "a2": result("a2", 0.0, "min")}
    checks["a2"].passed = checks["a2"].observed > 0.0
    checks["a3"] = CheckResult(stats["a3"][0], math.inf, math.inf,
                               math.isfinite(stats["a3"][0]))
    checks["a4"] = result("a4", 0.125)
    checks["jac_range"] = CheckResult(stats["a2_max"][0], math.inf, math.inf, True)
    return checks, c0, c1


def _three_strip_skew():
    """Three strips of unequal width, u-dependent slopes and offsets."""
    return make_custom_skew((0.0, 0.3, 0.65, 1.0), [
        affine_fiber(lambda u: 0.3 + 0.05 * u * u, lambda u: 0.1 * u,
                     lambda u: 0.1 * u, 0.1, 0.1, 0.0),
        affine_fiber(lambda u: 0.35 - 0.04 * u, lambda u: 0.3 + 0.02 * u * u,
                     -0.04, lambda u: 0.04 * u, 0.0, 0.04),
        affine_fiber(0.3, lambda u: 0.65 - 0.03 * u, 0.0, -0.03),
    ], label="three_strip")


def _failing_skew():
    """The affine 0.8/0.55 fibers with a cone and an expansion floor they miss."""
    aff = make_affine_example(0.8, 0.55)
    return make_custom_skew((0.0, 0.5, 1.0), [sk.fiber for sk in aff.skew],
                            alpha=0.05, k0=3.0, label="failing")


VALIDATION_SPECS = {
    "baker03": lambda: make_baker(0.3), "baker05": lambda: make_baker(0.5),
    "baker06": lambda: make_baker(0.6),
    "affine": lambda: make_affine_example(0.8, 0.55),
    "affine_075": lambda: make_affine_example(0.75, 0.6),
    "three_strip": _three_strip_skew, "failing": _failing_skew,
}


@pytest.mark.parametrize("grid_n", [256, 17, 2])
@pytest.mark.parametrize("name", list(VALIDATION_SPECS))
def test_validation_matches_reference_loop(name, grid_n):
    """Every CheckResult field, witness included, and c0/c1, bit for bit."""
    spec = VALIDATION_SPECS[name]()
    rep = validate_hyperbolicity(spec, grid_n=grid_n)
    checks, c0, c1 = _reference_validation(spec, grid_n)
    assert repr(rep.checks) == repr(checks)
    assert _bits((rep.c0, rep.c1)) == _bits((c0, c1))
    if name == "failing":
        failed = {n for n, c in rep.checks.items() if not c.passed}
        assert failed >= {"eq6", "eq7", "h1", "h2", "a4"}
        assert all(rep[n].witness is not None for n in failed)


def test_sign_change_inside_j_fails_as_on_the_lattice():
    """m - F2x * alpha vanishes at y = 1/2, inside J, where the backward
    cone slope of h1 is infinite.  The ends of J miss that zero, but eq6
    fails at an end, and the gate and the failed checks match the lattice;
    only h1's observed value differs (finite at the ends)."""
    fiber = affine_fiber(lambda u: 0.3 + 0.4 * u, lambda u: 1.8 * u, 0.4, 1.8)
    spec = make_custom_skew((0.0, 0.5, 1.0), [fiber, fiber], alpha=0.5, k0=1.5)
    rep = validate_hyperbolicity(spec)
    checks, _, _ = _reference_validation(spec, 256)
    lattice = HyperbolicityReport(grid_resolution=256, checks=checks)
    assert rep.passed() is lattice.passed() is False
    failed = {n for n, c in rep.checks.items() if not c.passed}
    assert failed == {n for n, c in checks.items() if not c.passed}
    assert failed == {"a4", "eq6", "h1", "h2"}
    assert rep["h1"].observed == pytest.approx(2.415, abs=1e-3)
    assert checks["h1"].observed == pytest.approx(371.9, abs=0.1)
