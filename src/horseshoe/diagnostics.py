"""Distortion constants and adapted-frame derivative bounds on instances.

Everything here is an empirical estimate over recorded finite samples:
suprema over lattices, width ratios over word families, and the inverse
derivative expressed in the frame aligned with the invariant splitting.
For diagonal instances every constant collapses to its closed form, which
the tests pin to machine accuracy.

The adapted-frame lattice of ``run_diagnostics`` is one array pass per
strip: ``unstable_direction`` and ``adapted_derivative`` (like
``maps.apply_branch`` and ``maps.branch_derivative`` below them) take
points whose x and y are arrays of one shape, and each point goes through
the same IEEE operations as it would alone, so the lattice gives the
per-point results bit for bit.  A single point is the zero-dimensional
case of the same code.  ``adapted_derivative`` takes its branch and reads
the branch's Jacobian from the derivative table of ``maps``; the stable
axis of its frame is vertical, as for every skew product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import (
    DegenerateExtensionError,
    DegenerateScaleError,
    ItineraryError,
    ParameterError,
)
from .maps import (
    _derivative_table,
    _point_arrays,
    _table,
    apply_branch,
    branch_derivative,
)
from .symbolic import _level_starts, _tree_table, check_word, fiber_image

_FRAME_FLOOR = 1e-10
_PARTNER_OFFSET = 1e-3  # distance of a lattice point's partner along its direction
_LATTICE_COLUMNS = ("x", "y", "eq12_ratio", "offdiag_ratio", "c2_sample", "c3_sample")


# ---------------------------------------------------------------------------
# invariant directions


def _slope_contraction(spec):
    worst_slope = max(hi for _, hi in spec.fiber_slope_bounds)
    min_base = min(sk.base_slope for sk in spec.skew)
    return worst_slope / min_base


def unstable_direction(spec, word_history, z, depth):
    """Forward-cone direction at z whose past follows the given history.

    Pulls z back ``depth`` steps along the history, pushes the horizontal
    cone axis forward again, and returns (unit vector, slope error bound);
    the bound is the cone aperture shrunk by the per-step slope contraction.
    For points given as arrays of one shape the vector's two components are
    arrays of that shape, each point computed as it would be alone.
    """
    word_history = check_word(spec, word_history)
    if depth < 0:
        raise ParameterError("depth must be nonnegative")
    if depth > len(word_history):
        raise ItineraryError(
            f"history of length {len(word_history)} cannot supply {depth} steps")
    c = _slope_contraction(spec)
    err = spec.alpha * c ** depth
    past = [z]
    for s in word_history[:depth]:
        past.append(apply_branch(spec, s, past[-1], direction="inverse"))
    shape = np.broadcast(z[0], z[1]).shape
    vx, vy = np.ones(shape), np.zeros(shape)
    for k in range(depth - 1, -1, -1):
        d = branch_derivative(spec, word_history[k], past[k + 1])
        vx, vy = d[0][0] * vx + d[0][1] * vy, d[1][0] * vx + d[1][1] * vy
        norm = np.hypot(vx, vy)
        vx, vy = vx / norm, vy / norm
    if not shape:
        return (float(vx), float(vy)), err
    return (vx, vy), err


# ---------------------------------------------------------------------------
# fiber width constants


def _level_widths(spec, depth_max, x_grid_n=65):
    """(largest, smallest) extended width |A| * |J| over the base grid of
    every word to depth_max, from one walk of the word tree: two arrays,
    rows length by length and in ``lex_words`` order within a length."""
    jlen = spec.fiber_len
    return _tree_table(spec, depth_max, x_grid_n, attrgetter("diam"),
                       lambda c: np.abs(c.A).min(axis=1) * jlen)


def _width_constants(spec, depth_max, x_grid_n=65):
    """(k2, k4) from one pass over the width levels: the largest width spread
    to depth_max, and the worst two-sided defect of width multiplicativity
    under splicing, to depth min(depth_max, 6)."""
    wmax, wmin = _level_widths(spec, depth_max, x_grid_n)
    k2 = float((wmax / wmin).max(initial=1.0))
    diam = [None] + np.split(wmax, _level_starts(spec.n_strips, depth_max)[1:-1])
    cap, k4 = min(depth_max, 6), 1.0
    for la in range(1, cap):
        for lb in range(1, cap - la + 1):
            # wa + wb is row i_a * N^lb + i_b of its length: entry (i_a, i_b)
            dc = diam[la + lb].reshape(diam[la].size, diam[lb].size)
            q = dc * spec.fiber_len / (diam[la][:, None] * diam[lb][None, :])
            k4 = max(k4, float(q.max()), float((1.0 / q).max()))
    return k2, k4


def fiber_ratio_sup(spec, depth_max, x_grid_n=65):
    """Largest width spread over every word to depth_max."""
    return _width_constants(spec, depth_max, x_grid_n)[0]


# ---------------------------------------------------------------------------
# extension margins


@dataclass
class MarginReport:
    word: tuple
    k3: float
    fiber_spread: float
    r_used: float
    checked: int
    violations: int
    control_r: float
    control_violations: int


def _margin_k3(spec, word, x_grid_n):
    """(k3, extended widths) of ``word`` on x_grid_n base points: k3 is the
    smaller of the two margins around the plain fiber image relative to the
    extended width.  Raises DegenerateExtensionError when they vanish."""
    xg = np.linspace(0.0, 1.0, x_grid_n)
    lo, hi = (np.asarray(v) for v in fiber_image(spec, word, xg, hat=False))
    hlo, hhi = (np.asarray(v) for v in fiber_image(spec, word, xg, hat=True))
    hat_width = hhi - hlo
    k3 = float((np.minimum(lo - hlo, hhi - hi) / hat_width).min())
    if k3 < 1e-9:
        raise DegenerateExtensionError(
            f"extension margins vanish for word {word} (k3 = {k3:.3g})")
    return k3, hat_width


def margin_constants(spec, word, x_grid_n=129, n_points=1000, seed=5):
    """Relative size of the extension margins, plus an inclusion check.

    k3 comes from ``_margin_k3`` over the base grid.  The inclusion check
    draws points whose vertical distance to the plain image is below
    k3 / spread times the width and asserts they land inside the extended
    image; a deliberately oversized radius is rerun as a negative control.
    """
    word = check_word(spec, word)
    if x_grid_n < 2:
        raise ParameterError("need at least 2 grid points")
    k3, hat_width = _margin_k3(spec, word, x_grid_n)
    spread = float(hat_width.max() / hat_width.min())
    d = float(hat_width.max())
    r = 0.5 * k3 / spread * d
    rng = np.random.default_rng(seed)

    def run(radius):
        xs, side, off = (rng.random(n_points) for _ in range(3))
        li, hi_i = (np.asarray(v) for v in fiber_image(spec, word, xs, hat=False))
        hli, hhi_i = (np.asarray(v) for v in fiber_image(spec, word, xs, hat=True))
        ys = np.where(side < 0.5, li - off * radius * 0.999,
                      hi_i + off * radius * 0.999)
        return int(((ys < hli) | (ys > hhi_i)).sum())

    control_r = 10.0 * k3 / spread * d
    return MarginReport(
        word=word, k3=k3, fiber_spread=spread, r_used=r, checked=n_points,
        violations=run(r), control_r=control_r, control_violations=run(control_r))


# ---------------------------------------------------------------------------
# adapted-frame derivative


def _check_floor(values, x, y, message):
    """Raise DegenerateScaleError at the first point where |values| < _FRAME_FLOOR."""
    low = np.broadcast_to(np.abs(values) < _FRAME_FLOOR, x.shape)
    if low.any():
        k = int(np.argmax(low.ravel()))
        raise DegenerateScaleError(
            f"{message} at ({float(x.flat[k])}, {float(y.flat[k])})")


def adapted_derivative(spec, z, w, unstable_dir, branch):
    """Inverse-branch derivative of ``branch`` in the splitting-aligned frame
    at z and w.

    The frame takes the unstable direction (slope a) and the stable one as
    axes; a skew product's stable direction is vertical, so the frame at a
    point is [[1, 0], [a, 1]].  Entries are evaluated twice: from the
    explicit component expressions and from the assembled matrix product;
    both are returned with their difference so callers can assert
    agreement.  Ratios against the stable entry feed the feasibility flags.

    ``z``, ``w`` and ``unstable_dir`` may hold arrays of one shape instead
    of floats; every sample is then an array of that shape and each 2x2
    matrix has shape (2, 2) + shape.
    """
    def frames(table):
        # one 2x2 matrix per point, stacked for np.linalg.solve
        return np.moveaxis(table, (0, 1), (-2, -1))

    def entries(point):
        x, y = _point_arrays(point)
        a = (np.asarray(unstable_dir[1], dtype=float)
             / np.asarray(unstable_dir[0], dtype=float))
        # the inverse step checks the branch index and its own domain, so
        # the table is read without branch_derivative's tighter domain test
        pre = _point_arrays(apply_branch(spec, branch, (x, y), direction="inverse"))
        df = _derivative_table(spec.skew[branch - 1], *pre)
        (f1x, f1y), (f2x, f2y) = df
        jf = f1x * f2y - f1y * f2x
        _check_floor(jf, x, y, "near-degenerate adapted frame")
        # direction at the preimage: the forward derivative maps it to ours
        vx = (f2y * 1.0 - f1y * a) / jf
        vy = (-f2x * 1.0 + f1x * a) / jf
        _check_floor(vx, x, y, "pulled-back direction left the cone")
        a_pre = vy / vx
        scale = 1.0 / jf
        # explicit expansions of inv(frame(pre)) @ inv(DF) @ frame(point)
        g11 = scale * (f2y - a * f1y)
        g12 = scale * -f1y
        g21 = scale * (-a_pre * f2y - f2x + a * a_pre * f1y + a * f1x)
        g22 = scale * (a_pre * f1y + f1x)
        direct = _table(((g11, g12), (g21, g22)), x.shape)
        frame_here = frames(_table(((1.0, 0.0), (a, 1.0)), x.shape))
        frame_pre = frames(_table(((1.0, 0.0), (a_pre, 1.0)), x.shape))
        assembled = np.moveaxis(
            np.linalg.solve(frame_pre, np.linalg.solve(frames(df), frame_here)),
            (-2, -1), (0, 1))
        return direct, np.abs(direct - assembled).max(axis=(0, 1)), a_pre

    g_z, err_z, a_pre = entries(z)
    g_w, err_w, _ = entries(w)
    g22 = np.abs(g_w[1, 1])
    _check_floor(g22, *_point_arrays(w), "stable entry vanishes")
    return {
        "branch": branch,
        "g_z": g_z,
        "g_w": g_w,
        "route_error": np.maximum(err_z, err_w),
        "a_pre": a_pre,
        "c2_sample": np.abs(g_z[0, 0]),
        "c3_sample": g22,
        "eq12_ratio": np.abs(g_w[0, 0]) / g22,
        "offdiag_ratio": np.abs(g_w[0, 1]) / g22,
        "mixed_ratio": np.abs(g_w[1, 0]) / g22,
    }


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class DiagnosticsReport:
    """Distortion constants of one instance.

    ``k_stable``, the worst ratio of the fiber contraction accumulated along
    two orbits on one vertical fiber, is exactly 1: every fiber map is
    affine in y, so d psi / d y = slope(u) is the same at both points of a
    fiber, step after step.  ``lattice`` holds the adapted-frame samples:
    one array per column of ``_LATTICE_COLUMNS``, one entry per lattice
    point.
    """

    k_stable: float
    k2: float
    k3: float
    k4: float
    c2: float
    c3: float
    c4: float
    eq12_margin: float
    eq12_ratio_max: float
    feasible_c4: bool
    feasible_k0: bool
    route_error: float
    samples_used: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    lattice: dict = field(default_factory=dict)


def run_diagnostics(spec, word_depth=8, lattice_n=64, depth=10):
    """Estimate every distortion constant on one instance.

    Lattice points are taken inside each branch image (so the inverse step
    is always defined) with the unstable direction of the constant past of
    that branch; the displaced partner sits ``_PARTNER_OFFSET`` along the
    direction.  Each strip's lattice (x major, then t) is evaluated as one
    array pass.  Every lattice point is counted: x lies in [0.02, 0.98] and
    the direction is a unit vector, so the partner's x stays inside [0, 1]
    and needs no test.  Suprema are over the recorded samples only, which
    the report's ``lattice`` holds, strip by strip in the same order.
    """
    k2, k4 = _width_constants(spec, word_depth)
    margin_words = [()]
    margin_words += [(s,) for s in range(1, spec.n_strips + 1)]
    margin_words += [(1, s) for s in range(1, spec.n_strips + 1)]
    k3 = min(_margin_k3(spec, w, 65)[0] for w in margin_words)

    c2 = 0.0
    c3 = math.inf
    c4 = 0.0
    eq12 = 0.0
    route_err = 0.0
    parts = []
    n_lattice = 0
    xs = np.linspace(0.02, 0.98, lattice_n)
    ts = np.linspace(0.05, 0.95, max(2, lattice_n // 8))
    for s in range(1, spec.n_strips + 1):
        history = (s,) * depth
        lo, hi = fiber_image(spec, history, xs, hat=False)
        # one row per x, one column per t: row-major order is x, then t
        x = np.repeat(xs[:, None], ts.size, axis=1)
        z = (x, lo[:, None] + ts * (hi - lo)[:, None])
        vec, _ = unstable_direction(spec, history, z, depth)
        # |vec| = 1 and x lies in [0.02, 0.98], so the partner's x stays
        # inside [0.02 - _PARTNER_OFFSET, 0.98 + _PARTNER_OFFSET]
        w = (z[0] + _PARTNER_OFFSET * vec[0], z[1] + _PARTNER_OFFSET * vec[1])
        got = adapted_derivative(spec, z, w, vec, branch=s)
        c2 = float(got["c2_sample"].max(initial=c2))
        c3 = float(got["c3_sample"].min(initial=c3))
        c4 = float(got["offdiag_ratio"].max(initial=c4))
        eq12 = float(got["eq12_ratio"].max(initial=eq12))
        route_err = float(got["route_error"].max(initial=route_err))
        n_lattice += x.size
        parts.append((x, z[1], *(got[name] for name in _LATTICE_COLUMNS[2:])))

    return DiagnosticsReport(
        k_stable=1.0, k2=k2, k3=k3, k4=k4,
        c2=c2, c3=c3, c4=c4,
        eq12_margin=1.0 / spec.k0 ** 2 - eq12,
        eq12_ratio_max=eq12,
        feasible_c4=c4 < 0.25,
        feasible_k0=spec.k0 > 3.0,
        route_error=route_err,
        samples_used={"lattice": n_lattice,
                      "word_depth": word_depth, "cone_depth": depth},
        meta={"map": spec.label, "hash": spec.map_hash},
        lattice={name: np.concatenate([p[k].ravel() for p in parts])
                 for k, name in enumerate(_LATTICE_COLUMNS)},
    )
