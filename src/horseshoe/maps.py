"""Skew-product strip maps on the unit square.

A map is a finite family of full-height vertical strips tiling the square.
On strip i the base coordinate moves by an affine expanding branch onto
[0,1], and the fiber coordinate is contracted by a map that may depend on
the base point.  Analysis routines work on the extended domain [0,1] x J
where J is a slightly enlarged fiber interval, so that image strips keep a
safety margin around their unextended cores.

Branch fiber maps are parametrized by the *arrival* base point u = g(x).
That convention makes compositions along itineraries cheap: walking a word
backwards through base preimages hands each fiber map exactly the argument
it wants.

A branch's first and second derivative tables are assembled in one place,
``_derivative_table``.  ``branch_derivative`` reads them after its domain
test, ``validate_hyperbolicity`` reads them at the two ends of J (every
entry is affine in y), and the adapted frame of ``diagnostics`` reads
them at inverse-branch points.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import OutOfDomainError, ParameterError

_EDGE_TOL = 1e-12
_INCONCLUSIVE_BELOW = 1e-3  # |margin| under which a grid check is not trusted
# checks whose value the model fixes: F1y = 0, and F2y does not depend on y
_MODEL_CONSTANTS = {"eq5": 0.0, "eq8": 1.0}
_BUILTIN_LABELS = ("baker", "affine_example")  # families fixed by label and params


@dataclass(frozen=True)
class FiberMap:
    """Fiber action psi(u, y) = slope(u) * y + offset(u) of one branch.

    u is the arrival base point.  The six coefficients are the slope and
    offset and their first and second u-derivatives; each is a float or a
    vectorized callable of u.  The partials of psi and its inverse in y
    are derived from them below.  Every reader takes a coefficient through
    ``at``, which returns a float as it is, and the lift gathers each
    step's offsets from one precomputed table when every branch has a float
    offset and the same float slope, bit for bit.
    """

    slope: object
    offset: object
    dslope: object
    doffset: object
    d2slope: object
    d2offset: object

    def at(self, name, u):
        """Coefficient ``name`` at arrival points u.  A float is returned as
        it is: numpy broadcasting fills it, and it rounds as the filled
        array would."""
        c = getattr(self, name)
        return c if isinstance(c, float) else c(u)

    def _line(self, a, b, u, y):
        return self.at(a, u) * y + self.at(b, u)

    def _flat(self, a, u, y):
        return self.at(a, np.asarray(u, dtype=float)) + self.dyy(u, y)

    def value(self, u, y):
        return self._line("slope", "offset", u, y)

    def dy(self, u, y):
        return self._flat("slope", u, y)

    def du(self, u, y):
        return self._line("dslope", "doffset", u, y)

    def dyy(self, u, y):
        return np.zeros_like(np.asarray(y, dtype=float) + np.asarray(u, dtype=float))

    def dyu(self, u, y):
        return self._flat("dslope", u, y)

    def duu(self, u, y):
        return self._line("d2slope", "d2offset", u, y)

    def invert(self, u, v):
        """y with psi(u, y) = v."""
        return (v - self.at("offset", u)) / self.at("slope", u)


def affine_fiber(slope, offset, dslope, doffset, d2slope=None, d2offset=None):
    """Build a FiberMap for psi(u, y) = slope(u)*y + offset(u).

    Each coefficient is a vectorized callable of u or a number, kept as a
    float; an omitted second derivative is 0.
    """
    coefs = (slope, offset, dslope, doffset, d2slope, d2offset)
    return FiberMap(*(c if callable(c) else 0.0 if c is None else float(c)
                      for c in coefs))


@dataclass(frozen=True)
class SkewBranch:
    """One skew-product branch: base u = m*x + c onto [0,1], fiber ``fiber``."""

    base_slope: float
    base_offset: float
    fiber: FiberMap

    def base_forward(self, x):
        return self.base_slope * np.asarray(x, dtype=float) + self.base_offset

    def base_inverse(self, u):
        return (np.asarray(u, dtype=float) - self.base_offset) / self.base_slope


@dataclass(frozen=True)
class GhmSpec:
    """Immutable description of a skew-product instance.

    ``breaks`` is the base partition 0 = x_0 < ... < x_N = 1, strip i
    lying over [x_{i-1}, x_i]; ``skew`` holds one SkewBranch per strip, its
    base map sending that interval onto [0,1].  ``alpha`` is the cone
    aperture (max-norm sectors around the horizontal / vertical axes),
    ``k0`` the claimed one-step expansion floor for vectors in those cones.
    ``extended_fiber`` is the interval J strictly containing [0,1] used by
    all strip-geometry analysis.
    """

    breaks: tuple
    alpha: float
    k0: float
    extended_fiber: tuple
    label: str
    params: tuple
    skew: tuple

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"cone aperture must be in (0,1), got {self.alpha}")
        if not self.k0 > 1.0:
            raise ParameterError(f"expansion floor must exceed 1, got {self.k0}")
        jlo, jhi = self.extended_fiber
        if not (jlo < 0.0 < 1.0 < jhi):
            raise ParameterError(
                f"extended fiber must strictly contain [0,1], got {self.extended_fiber}")
        if len(self.breaks) != len(self.skew) + 1:
            raise ParameterError("one branch per strip required")
        if (abs(self.breaks[0]) > 1e-9 or abs(self.breaks[-1] - 1.0) > 1e-9
                or any(b <= a for a, b in zip(self.breaks, self.breaks[1:]))):
            raise ParameterError("strip breaks must increase from 0 to 1")
        for i, sk in enumerate(self.skew, 1):
            ends = sorted(sk.base_forward(self.breaks[i - 1:i + 1]).tolist())
            if abs(ends[0]) > 1e-9 or abs(ends[1] - 1.0) > 1e-9:
                raise ParameterError(
                    f"branch {i} does not map [{self.breaks[i - 1]}, "
                    f"{self.breaks[i]}] onto [0,1]")

    # -- structural helpers -------------------------------------------------

    @property
    def n_strips(self):
        return len(self.skew)

    @property
    def fiber_len(self):
        return self.extended_fiber[1] - self.extended_fiber[0]

    @property
    def base_breaks(self):
        return np.array(self.breaks)

    @property
    def params_dict(self):
        return dict(self.params)

    @cached_property
    def map_hash(self):
        """sha256 of what the map is, keying its checkpoints.

        Label and params fix a built-in family.  Any other map also hashes
        its base coefficients and its fiber values and partials (value, dy,
        du) on a fixed 17 x 17 lattice of [0,1] x J, so two maps that share
        label, params and constants still get their own hash.
        """
        fields = {
            "label": self.label,
            "params": dict(self.params),
            "alpha": self.alpha,
            "k0": self.k0,
            "fiber": list(self.extended_fiber),
            "kind": "skew_product",
            "n": self.n_strips,
        }
        if self.label not in _BUILTIN_LABELS:
            uu, yy = np.meshgrid(np.linspace(0.0, 1.0, 17),
                                 np.linspace(*self.extended_fiber, 17),
                                 indexing="ij")
            lattice = [np.array([[sk.base_slope, sk.base_offset]
                                 for sk in self.skew])]
            for sk in self.skew:
                lattice += [np.broadcast_to(f(uu, yy), uu.shape)
                            for f in (sk.fiber.value, sk.fiber.dy, sk.fiber.du)]
            fields["fingerprint"] = hashlib.sha256(b"".join(
                np.ascontiguousarray(a, dtype="<f8").tobytes()
                for a in lattice)).hexdigest()
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @cached_property
    def fiber_slope_bounds(self):
        """Per-strip (min, max) of |d psi / d y| = |slope(u)| at 257 points u
        of [0,1]; d psi / d y does not depend on y."""
        ug = np.linspace(0.0, 1.0, 257)
        d = [np.abs(sk.fiber.at("slope", ug)) for sk in self.skew]
        return tuple((float(v.min()), float(v.max())) for v in d)

    @cached_property
    def _tail_hulls(self):
        """``conditions.tail_slope_hull`` of this map, memoized by tail depth."""
        return {}


# ---------------------------------------------------------------------------
# built-in families


def make_baker(lam, extended_fiber=(-0.1, 1.1)):
    """Two-branch baker family: doubling base, constant fiber contraction.

    The published form of this family lives on the square [-1,1]^2; we work
    on the unit square, where the original first branch is the right-hand
    strip.  Constant fibers give the cone aperture 1/2 and the expansion
    floor min(2, 1/lam).
    """
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"contraction must be in (0,1), got {lam}")
    return make_custom_skew(
        (0.0, 0.5, 1.0),
        (affine_fiber(lam, 0.0, 0.0, 0.0), affine_fiber(lam, 1.0 - lam, 0.0, 0.0)),
        extended_fiber=extended_fiber, label="baker", params=(("lambda", lam),))


def make_affine_example(a, b):
    """Two-branch overlapping family with base-dependent fiber slopes.

    Fiber slope at arrival point u is sigma(u) = a + u*(b - a) for both
    branches; the left branch carries the additional offset
    (1 - a) * u * (a - b), the right branch none.  J is (-0.1, 1.1).  The
    domain is 1/2 < b < a < 1, which keeps every slope above 1/2 (area
    growth) while staying a strict contraction, together with
    a + 2.42 (a - b)^2 / (2 - a) < 1: the partials give the cone aperture
    alpha = 2.2 (a - b) / (2 - a) and the expansion floor
    k0 = (1 - 1.1 alpha (a - b)) / a, which must exceed 1.  So 0.8/0.55
    builds and 0.9/0.6 does not.
    """
    a = float(a)
    b = float(b)
    if not (0.5 < b < a < 1.0):
        raise ParameterError(f"need 1/2 < b < a < 1, got a={a}, b={b}")

    def sigma(u):
        return a + np.asarray(u, dtype=float) * (b - a)

    def offset1(u):
        return (1.0 - a) * np.asarray(u, dtype=float) * (a - b)

    try:
        return make_custom_skew(
            (0.0, 0.5, 1.0),
            (affine_fiber(sigma, offset1, b - a, (1.0 - a) * (a - b)),
             affine_fiber(sigma, 0.0, b - a, 0.0)),
            label="affine_example", params=(("a", a), ("b", b)))
    except ParameterError as exc:
        raise ParameterError(
            f"a={a}, b={b} leave the expansion floor k0 at or below 1; "
            f"need a + 2.42 (a - b)^2 / (2 - a) < 1 ({exc})") from exc


def make_custom_skew(breaks, fiber_maps, alpha=None, k0=None,
                     extended_fiber=(-0.1, 1.1), label="custom_skew", params=()):
    """Skew product with user-chosen base partition and fiber maps.

    ``breaks`` is an increasing sequence 0 = x_0 < ... < x_N = 1; branch i
    maps [x_{i-1}, x_i] affinely onto [0,1].  ``fiber_maps`` is one FiberMap
    per branch.  When ``alpha``/``k0`` are omitted they are estimated from
    the partials at 129 points u and the two ends of J, where |du| and |dy|
    peak; explicit values are accepted unchecked, which is the intended way
    to build instances that *fail* validation on purpose.
    """
    breaks = [float(v) for v in breaks]
    if breaks[0] != 0.0 or breaks[-1] != 1.0 or any(
            b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ParameterError("breaks must increase from 0 to 1")
    if len(fiber_maps) != len(breaks) - 1:
        raise ParameterError("one fiber map per base interval required")
    skew = []
    for (b1, b2), fm in zip(zip(breaks, breaks[1:]), fiber_maps):
        m = 1.0 / (b2 - b1)
        skew.append(SkewBranch(m, -b1 * m, fm))
    skew = tuple(skew)
    jlo, jhi = (float(extended_fiber[0]), float(extended_fiber[1]))

    if alpha is None or k0 is None:
        uu, yy = np.meshgrid(np.linspace(0.0, 1.0, 129), np.array([jlo, jhi]),
                             indexing="ij")
        m_min = min(sk.base_slope for sk in skew)
        f2x_max = max(float(np.abs(sk.fiber.du(uu, yy)).max()) * sk.base_slope
                      for sk in skew)
        f2y_max = max(float(np.abs(sk.fiber.dy(uu, yy)).max()) for sk in skew)
        if alpha is None:
            denom = m_min - f2y_max
            if denom <= 0:
                raise ParameterError("fiber maps do not contract below the base expansion")
            alpha = min(0.999, f2x_max / denom * (1.0 + 1e-9)) if f2x_max > 0 else 0.5
        if k0 is None:
            if f2y_max == 0.0:
                raise ParameterError("every fiber slope is 0: k0 cannot be estimated")
            k0 = min(m_min, (1.0 - alpha * f2x_max / m_min) / f2y_max)
    return GhmSpec(
        breaks=tuple(breaks),
        alpha=float(alpha),
        k0=float(k0),
        extended_fiber=(jlo, jhi),
        label=label,
        params=tuple(params),
        skew=skew,
    )


# ---------------------------------------------------------------------------
# pointwise operations


def _check_index(spec, i):
    if not 1 <= i <= spec.n_strips:
        raise ParameterError(f"branch index {i} out of range 1..{spec.n_strips}")


def _point_arrays(z):
    """x and y of a point, or of points given as two arrays of one shape."""
    x, y = np.asarray(z[0], dtype=float), np.asarray(z[1], dtype=float)
    return (x, y) if x.shape == y.shape else np.broadcast_arrays(x, y)


def _check_points(ok, x, y, message, strip):
    """Raise OutOfDomainError naming the first point where ``ok`` fails."""
    if not ok.all():
        k = int(np.argmin(np.ravel(ok)))
        point = (float(x.flat[k]), float(y.flat[k]))
        raise OutOfDomainError(message.format(point), strip=strip, point=point)


def _table(rows, shape):
    """Entries of a matrix, each broadcast to ``shape``: rows x cols + shape."""
    out = np.empty((len(rows), len(rows[0])) + shape)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = v
    return out


def apply_branch(spec, i, z, direction="forward"):
    """Apply branch ``i`` (1-based) to the point ``z``, or its inverse.

    ``z`` is one point (returns a float pair) or points whose x and y are
    arrays of one shape (returns arrays of that shape); every point goes
    through the same IEEE operations either way.  Raises OutOfDomainError,
    naming the first offending point, if any point is outside the domain.
    """
    _check_index(spec, i)
    x, y = _point_arrays(z)
    sk = spec.skew[i - 1]
    fm = sk.fiber
    jlo, jhi = spec.extended_fiber
    lo, hi = spec.breaks[i - 1:i + 1]
    if direction == "forward":
        _check_points((lo - _EDGE_TOL <= x) & (x <= hi + _EDGE_TOL)
                      & (jlo - _EDGE_TOL <= y) & (y <= jhi + _EDGE_TOL), x, y,
                      f"point {{}} outside strip {i} domain [{lo},{hi}] x J", i)
        px = sk.base_forward(x)
        py = fm.value(px, y)
    elif direction == "inverse":
        px = sk.base_inverse(x)
        py = fm.invert(x, y)
        _check_points((lo - 1e-9 <= px) & (px <= hi + 1e-9)
                      & (jlo - 1e-9 <= py) & (py <= jhi + 1e-9), x, y,
                      f"point {{}} has no branch-{i} preimage in its strip", i)
    else:
        raise ParameterError(f"unknown direction {direction!r}")
    if x.ndim == 0:
        return float(px), float(py)
    return tuple(np.array(np.broadcast_to(v, x.shape)) for v in (px, py))


def _derivative_table(sk, x, y, order=1):
    """First (2x2) or second (2x3, six partials) derivative table of branch
    ``sk`` at points (x, y) of one shape, with no domain test: entries are
    arrays of that shape, so the table has shape (2, 2) + shape or
    (2, 3) + shape.  The one place a branch's derivatives are assembled."""
    fm, m = sk.fiber, sk.base_slope
    u = sk.base_forward(x)
    if order == 1:
        return _table(((m, 0.0), (fm.du(u, y) * m, fm.dy(u, y))), x.shape)
    if order == 2:
        return _table(((0.0, 0.0, 0.0),
                       (fm.duu(u, y) * m * m, fm.dyu(u, y) * m, fm.dyy(u, y))),
                      x.shape)
    raise ParameterError(f"derivative order must be 1 or 2, got {order}")


def branch_derivative(spec, i, z, order=1):
    """First (2x2) or second (2x3, six partials) derivative table of branch i.

    For points given as arrays of one shape each entry is an array of that
    shape, so the table has shape (2, 2) + shape or (2, 3) + shape.
    """
    _check_index(spec, i)
    x, y = _point_arrays(z)
    lo, hi = spec.breaks[i - 1:i + 1]
    jlo, jhi = spec.extended_fiber
    _check_points((lo - _EDGE_TOL <= x) & (x <= hi + _EDGE_TOL)
                  & (jlo - _EDGE_TOL <= y) & (y <= jhi + _EDGE_TOL), x, y,
                  f"point {{}} outside strip {i} domain", i)
    return _derivative_table(spec.skew[i - 1], x, y, order)


# ---------------------------------------------------------------------------
# hyperbolicity validation


@dataclass
class CheckResult:
    observed: float
    bound: float
    margin: float
    passed: bool
    witness: Optional[tuple] = None  # (strip, x, y) at the worst grid point


@dataclass
class HyperbolicityReport:
    """Grid-based margins for the cone, ratio and regularity conditions.

    Margins are bound minus worst observed value, so nonnegative means the
    condition held at ``grid_resolution`` base points per strip at both
    ends of J.  Margins smaller than ``_INCONCLUSIVE_BELOW`` in absolute
    value are listed in ``inconclusive`` rather than trusted.  eq5 and eq8
    are 0 and 1 on every map (``_MODEL_CONSTANTS``), so they never fail,
    carry no witness and are never inconclusive.
    """

    grid_resolution: int
    checks: dict = field(default_factory=dict)
    c0: float = 0.0
    c1: float = 0.0

    def __getitem__(self, name):
        return self.checks[name]

    @property
    def inconclusive(self):
        return sorted(name for name, c in self.checks.items()
                      if name not in _MODEL_CONSTANTS
                      and abs(c.margin) < _INCONCLUSIVE_BELOW)

    def passed(self):
        """Whether every gating check holds; a1, a3, a4 and jac_range are
        reported only."""
        return all(self.checks[n].passed
                   for n in ("h1", "h2", "eq5", "eq6", "eq7", "eq8", "a2"))


def validate_hyperbolicity(spec, grid_n=256):
    """Evaluate every cone / ratio / regularity condition on a base grid.

    Works per strip on grid_n base points times the two ends of J, reading
    the partials from the branch's derivative tables.  Each check keeps one
    (worst value, grid witness) per strip, and the worst over strips is the
    first strip's unless a later one is strictly worse, so a NaN never
    replaces a value.  Never raises for violations; the report carries
    worst margins and the argmax grid point of each failing check.

    Why the ends of J suffice: F1x = m, F1y = 0 and F2y = slope(u) do not
    depend on y (so eq5 is 0 and eq8, the spread of |F2y| along a fiber,
    is 1), and F2x and duu are affine in y, so |.| peaks at an end.  A
    minimum or a denominator reaches a zero inside J only in two cases,
    and in both the gate fails at an end as it does on a full lattice:
    m - F2x alpha changes sign on J (then |F2x| / m >= 1/alpha > alpha, so
    eq6 fails at an end), or F2x + F2y t does with |.| > m at both ends
    (then h1 fails at an end).  In the first case h1's observed value is
    finite at the ends while its supremum over J is infinite.
    """
    if grid_n < 2:
        raise ParameterError("need at least 2 validation base points per strip")
    jlo, jhi = spec.extended_fiber
    alpha, k0 = spec.alpha, spec.k0
    # worst value of each check, in report order; a1 is c0, the largest
    # second-order partial, and jac_range the largest |Jacobian|
    picks = {"eq5": max, "eq6": max, "eq7": max, "eq8": max, "h1": max,
             "h2": min, "a1": max, "a2": min, "a3": max, "a4": max,
             "jac_range": max}
    seen = {name: [] for name in picks}
    for name, value in _MODEL_CONSTANTS.items():
        seen[name] = [(value, None)]

    for si, sk in enumerate(spec.skew, start=1):
        lo, hi = spec.breaks[si - 1:si + 1]
        xx, yy = np.meshgrid(np.linspace(lo, hi, grid_n), np.array([jlo, jhi]),
                             indexing="ij")

        def note(name, arr):
            k = int(np.argmax(arr) if picks[name] is max else np.argmin(arr))
            at = np.unravel_index(k, arr.shape)
            seen[name].append((float(arr[at]), (si, float(xx[at]), float(yy[at]))))

        (f1x, f1y), (f2x, f2y) = _derivative_table(sk, xx, yy)
        absf1x = np.abs(f1x)
        note("eq6", np.abs(f2x) / absf1x)
        note("eq7", np.abs(f2y) / absf1x)
        note("a3", np.maximum.reduce([absf1x, np.abs(f1y), np.abs(f2x), np.abs(f2y)]))
        note("a4", np.maximum(np.abs(f1y), np.abs(f2x)))
        note("a1", np.abs(_derivative_table(sk, xx, yy, order=2)).max(axis=(0, 1)))
        det = f1x * f2y - f1y * f2x
        note("a2", np.abs(det))
        note("jac_range", np.abs(det))

        # cone images of the boundary slopes t = +-alpha: out-slope vs alpha
        # (h1) and expansion vs k0 (h2) of (1, t) forward and of (t, 1)
        # backward, DF^{-1} (t, 1) = (F2y*t - F1y, -F2x*t + F1x) / det
        # on a singular Jacobian (det = 0, where a2 fails) they are inf or NaN
        h1_vals, h2_vals = [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in (alpha, -alpha):
                num, den = f2x + f2y * t, f1x + f1y * t
                w1, w2 = (f2y * t - f1y) / det, (-f2x * t + f1x) / det
                h1_vals += [np.abs(num) / np.abs(den), np.abs(w1) / np.abs(w2)]
                h2_vals += [np.maximum(np.abs(den), np.abs(num)),
                            np.maximum(np.abs(w1), np.abs(w2))]
        note("h1", np.maximum.reduce(h1_vals))
        note("h2", np.minimum.reduce(h2_vals))

    worst = {name: pick(seen[name], key=lambda vw: vw[0])
             for name, pick in picks.items()}
    c0 = worst["a1"][0]
    report = HyperbolicityReport(grid_resolution=grid_n, c0=c0,
                                 c1=math.sqrt(2.0) * (1.0 + alpha) * c0)
    bounds = {"eq5": alpha, "eq6": alpha, "eq7": 1.0 / k0 ** 2 + alpha ** 2,
              "eq8": math.exp(report.c1), "h1": alpha, "h2": k0, "a2": 0.0,
              "a4": 0.125}
    for name, (observed, witness) in worst.items():
        bound = bounds.get(name, math.inf)
        if name not in bounds:  # reported only
            margin = math.inf
            passed = name == "jac_range" or math.isfinite(observed)
        else:
            margin = bound - observed if picks[name] is max else observed - bound
            # a2's margin is the min |Jacobian| itself; nonzero means invertible
            passed = observed > 0.0 if name == "a2" else margin >= 0.0
        report.checks[name] = CheckResult(observed=observed, bound=bound,
                                          margin=margin, passed=passed,
                                          witness=None if passed else witness)
    return report
