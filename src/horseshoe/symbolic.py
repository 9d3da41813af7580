"""Words, cylinder geometry, and maximal-word families.

A word is a tuple of 1-based strip indices, most recent symbol first: the
cylinder of w = (a1, ..., an) is the image strip obtained by applying branch
an first and branch a1 last.  Its base interval I_w collects the starting
points whose base itinerary runs through the word in that (reversed) order,
and its fiber image U_w(x) is the vertical interval the composition leaves
over an arrival point x.  Widths are measured on the extended fiber J; the
diameter d(w) is the largest extended width over the base.

Enumeration of the family M(r) -- words whose extended width has dropped to
scale r -- expands the word tree a block of nodes at a time.  Each node
carries the arrival-point grid of its deep end plus the affine coefficients
of the composed fiber action, so a block grows by every symbol in a few
array operations of O(nodes * grid).  Where a node has some children at or
above scale r and some below, the below-scale children are emitted along
with the deeper descendants.  The family is prefix-free, so the base
lengths sum to one (sum |I_w| = 1), and it agrees with the plain "maximal
word" rule whenever sibling widths cross the threshold together.

The base intervals need not tile [0,1], though.  A word grows by appending
the symbol that acts first, so I_ws is not contained in I_w.  A family of
uniform depth (the baker family) still tiles; one of mixed depths may
overlap and leave gaps.  For the affine family a = 0.8, b = 0.55 the
intervals of M(2^-4) cover only about 0.77 of [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import BudgetError, DegenerateScaleError, ParameterError
from .maps import GhmSpec

_ALPHABET_CAP = 10 ** 6
BLOCK = 4096  # rows per block of the batched word-tree and pair kernels


def check_word(spec, word):
    word = tuple(int(s) for s in word)
    for s in word:
        if not 1 <= s <= spec.n_strips:
            raise ParameterError(f"symbol {s} outside 1..{spec.n_strips} in word {word}")
    return word


def base_cylinder(spec, word):
    """Base interval I_w, by folding inverse base branches over the word."""
    word = check_word(spec, word)
    lo, hi = 0.0, 1.0
    for s in word:
        sk = spec.skew[s - 1]
        a = float(sk.base_inverse(lo))
        b = float(sk.base_inverse(hi))
        lo, hi = (a, b) if a <= b else (b, a)
    return lo, hi


def base_interval_length(spec, word):
    """|I_w| as the exact product of inverse base slopes."""
    word = check_word(spec, word)
    out = 1.0
    for s in word:
        out /= spec.skew[s - 1].base_slope
    return out


def backward_orbit(spec, word, x):
    """Arrival-to-deep base orbit: X[0] = x, X[k] = preimage under symbol k."""
    word = check_word(spec, word)
    x = np.asarray(x, dtype=float)
    orbit = [x]
    for s in word:
        orbit.append(spec.skew[s - 1].base_inverse(orbit[-1]))
    return orbit


def fiber_image(spec, word, x, hat=False):
    """Fiber interval U_w(x) (or the extended version over J) at base point x.

    Pushes the full fiber from the deep end of the word toward the arrival
    point.  Returns (lo, hi) as floats for scalar x, arrays otherwise.
    Every branch is full, so every itinerary is feasible.
    """
    word = check_word(spec, word)
    orbit = backward_orbit(spec, word, x)
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    if hat:
        lo0, hi0 = spec.extended_fiber
    else:
        lo0, hi0 = 0.0, 1.0
    shape = np.shape(orbit[0])
    lo = np.full(shape, lo0, dtype=float)
    hi = np.full(shape, hi0, dtype=float)
    for k in range(len(word), 0, -1):
        fm = spec.skew[word[k - 1] - 1].fiber
        u = orbit[k - 1]
        a = fm.value(u, lo)
        b = fm.value(u, hi)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
    if scalar:
        return float(lo), float(hi)
    return lo, hi


def fiber_width_fn(spec, word):
    """Vectorized x -> |hat U_w(x)|, exact for affine-in-y fibers."""
    word = check_word(spec, word)
    jlen = spec.fiber_len
    all_affine = all(spec.skew[s - 1].fiber.affine for s in word)

    def width(x):
        if not all_affine:
            lo, hi = fiber_image(spec, word, x, hat=True)
            return np.abs(np.asarray(hi) - np.asarray(lo))
        orbit = backward_orbit(spec, word, x)
        w = np.full(np.shape(orbit[0]), jlen, dtype=float)
        for k in range(len(word), 0, -1):
            fm = spec.skew[word[k - 1] - 1].fiber
            w = w * np.abs(fm.slope(orbit[k - 1]))
        return w

    return width


_golden = (math.sqrt(5.0) - 1.0) / 2.0


def cylinder_diameter(spec, word, x_grid_n=257, refine=True):
    """max_x |hat U_w(x)|: grid maximum plus golden-section refinement.

    The grid maximum alone is within the fiber-ratio distortion constant of
    the true maximum; refinement narrows the remaining bracket around the
    best grid cell.
    """
    word = check_word(spec, word)
    if x_grid_n < 2:
        raise ParameterError("need at least 2 base grid points")
    width = fiber_width_fn(spec, word)
    xg = np.linspace(0.0, 1.0, x_grid_n)
    vals = np.asarray(width(xg))
    j = int(np.argmax(vals))
    best = float(vals[j])
    if not refine or len(word) == 0:
        return best
    a = xg[max(j - 1, 0)]
    b = xg[min(j + 1, x_grid_n - 1)]
    # golden-section ascent on the bracket around the best grid point
    c = b - _golden * (b - a)
    d = a + _golden * (b - a)
    fc = float(width(c))
    fd = float(width(d))
    for _ in range(60):
        if b - a < 1e-13:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _golden * (b - a)
            fc = float(width(c))
        else:
            a, c, fc = c, d, fd
            d = a + _golden * (b - a)
            fd = float(width(d))
    return max(best, fc, fd)


def _affine_slopes(spec):
    slopes = []
    for sk in spec.skew:
        if not sk.fiber.affine:
            raise ParameterError(
                "maximal-word enumeration needs affine-in-y fiber maps")
        slopes.append(sk.fiber.slope)
    return slopes


@dataclass
class MInventory:
    """The family M(r) with per-word scalars (and optional envelopes)."""

    r: float
    x_grid: np.ndarray
    words: list
    base_lo: np.ndarray
    base_len: np.ndarray
    diam: np.ndarray
    env_pos: list | None = None       # per word: (lo, hi) arrays of U_w on grid
    env_slope: list | None = None     # per word: (lo, hi) manifold slope hulls

    def mass(self):
        return math.fsum(self.base_len.tolist())


def enumerate_M(spec, r, x_grid_n=65, budget=None):
    """Words of the scale-r family, in left-to-right base order."""
    return m_inventory(spec, r, x_grid_n=x_grid_n, budget=budget).words


def fiber_step(sk, X, A, B, coef=None):
    """Children under branch ``sk`` of a batch of word-tree nodes.

    Rows are nodes and columns grid points: X is the deep-end grid, A and B
    the composed fiber scale and shift (hat width = |A| * |J|), and ``coef``
    the slope coefficients (Sy, Sp, S0), with manifold slope
    Sy * tail_pos + Sp * tail_slope + S0, or None when not tracked.  The
    one-step slope action is affine in (position, slope), so it composes
    like the fiber action.  Returns the children's (X, A, B, coef).
    """
    fib = sk.fiber
    sv = fib.slope(X)
    tv = fib.offset(X)
    if coef is not None:
        sy, sp, s0 = coef
        coef = (sy * sv + sp * fib.dslope(X),
                sp * sv / sk.base_slope,
                sy * tv + sp * fib.doffset(X) + s0)
    return sk.base_inverse(X), A * sv, A * tv + B, coef


def envelope_hulls(A, B, coef, hull):
    """(pos_lo, pos_hi, slope_lo, slope_hi) of composed coefficients.

    Tail positions range over [0, 1] and tail slopes over ``hull``.
    """
    tlo, thi = hull
    sy, sp, s0 = coef
    return (B + np.minimum(A, 0.0), B + np.maximum(A, 0.0),
            s0 + np.minimum(sy, 0.0) + np.minimum(sp * tlo, sp * thi),
            s0 + np.maximum(sy, 0.0) + np.maximum(sp * tlo, sp * thi))


def _join(parts):
    """One block out of row-wise parts; a lone part is used as it is."""
    if len(parts) == 1:
        return parts[0]
    return [np.concatenate(f) for f in zip(*parts)]


def m_inventory(spec, r, x_grid_n=65, budget=None, tail_hull=None):
    """Enumerate M(r) with base intervals, diameters, optional envelopes.

    A node is of the family when its extended width is still >= r but every
    child drops below r; children below r at nodes that stay partly above
    are emitted too (see module docstring).  The base lengths sum to one,
    but the base intervals need not tile [0,1] when the family mixes depths.
    ``budget`` caps the number of tree nodes expanded.

    The tree is expanded in blocks of at most ``BLOCK`` nodes of one depth.
    Words of one length are base cylinders of that length, so their left
    ends differ, and sorting by (left end, length) fixes the order whatever
    the order of expansion.

    ``tail_hull = (lo, hi)`` additionally propagates manifold envelopes: the
    fiber interval of each word together with the slope hull obtained by
    pushing tail slopes in [lo, hi] (and tail positions in [0, 1]) through
    the word (see ``fiber_step`` and ``envelope_hulls``).
    """
    r = float(r)
    jlen = spec.fiber_len
    if r >= jlen:
        raise DegenerateScaleError(f"scale {r} is not below the fiber length {jlen}")
    if r <= 0.0:
        raise ParameterError("scale must be positive")
    _affine_slopes(spec)
    contraction = max(b for _, b in spec.fiber_slope_bounds())
    if contraction >= 1.0:
        raise ParameterError("fiber maps must contract (max slope below 1)")
    if x_grid_n < 2:
        raise ParameterError("need at least 2 base grid points")
    xg = np.linspace(0.0, 1.0, x_grid_n)
    n_sym = spec.n_strips
    sym_type = np.min_scalar_type(n_sym)

    track_env = tail_hull is not None
    if track_env:
        hull = (float(tail_hull[0]), float(tail_hull[1]))

    # a block is a list of per-node arrays for nodes of one depth: words
    # (n, depth), base interval lo and len, then (n, grid) arrays X, A, B
    # and, when envelopes are tracked, Sy, Sp, S0 (see fiber_step)
    words = []
    # emitted groups: (length, base lo, base len, diam[, envelopes])
    out = []

    def emit(fields, keep, d):
        # fields: words, base lo, base len and, for envelopes, A, B, Sy, Sp, S0
        if not keep.any():
            return
        word, lo, ln = (f[keep] for f in fields[:3])
        words.extend(map(tuple, word.tolist()))
        env = ()
        if track_env:
            A, B, *coef = (f[keep] for f in fields[3:])
            env = envelope_hulls(A, B, coef, hull)
        out.append((word.shape[1], lo, ln, d[keep], *env))

    zero = np.zeros((1, len(xg)))
    one = np.ones((1, len(xg)))
    stack = [[np.zeros((1, 0), dtype=sym_type), np.zeros(1), np.ones(1),
              xg[None, :], one, zero] + ([zero, one, zero] if track_env else [])]
    visited = 0
    while stack:
        block = stack.pop()
        word, lo, ln, X, A, B = block[:6]
        visited += len(word)
        if budget is not None and visited > budget:
            raise BudgetError(f"enumeration exceeded node budget {budget}")
        # a child is kept whole only in its above-scale rows; the rest wait
        # in ``below`` until it is known whether their parent is a leaf
        leaf = np.ones(len(word), dtype=bool)
        grown, below = [], []
        for s in range(1, n_sym + 1):
            sk = spec.skew[s - 1]
            X_c, A_c, B_c, coef_c = fiber_step(sk, X, A, B,
                                               tuple(block[6:]) or None)
            d_c = np.abs(A_c).max(axis=1) * jlen
            above = d_c >= r
            leaf &= ~above
            child = [np.concatenate(
                         (word, np.full((len(word), 1), s, dtype=sym_type)),
                         axis=1),
                     np.minimum(sk.base_inverse(lo), sk.base_inverse(lo + ln)),
                     ln / sk.base_slope, X_c, A_c, B_c, *(coef_c or ())]
            if above.any():
                grown.append([f[above] for f in child])
            below.append((~above, d_c,
                          child[:3] + child[4:] if track_env else child[:3]))
        emit(block[:3] + block[4:], leaf, np.abs(A).max(axis=1) * jlen)
        for below_c, d_c, fields in below:
            emit(fields, below_c & ~leaf, d_c)
        # above-scale children go on in blocks of at most BLOCK rows; each
        # symbol's share has at most as many rows as the parent block
        batch = []
        for part in grown:
            if batch and sum(len(p[0]) for p in batch) + len(part[0]) > BLOCK:
                stack.append(_join(batch))
                batch = []
            batch.append(part)
        if batch:
            stack.append(_join(batch))

    def column(j):
        return np.concatenate([g[j] for g in out])

    order = np.lexsort((np.repeat([g[0] for g in out], [len(g[1]) for g in out]),
                        column(1)))
    inv = MInventory(
        r=r,
        x_grid=xg,
        words=[words[k] for k in order],
        base_lo=column(1)[order],
        base_len=column(2)[order],
        diam=column(3)[order],
    )
    if track_env:
        pos_lo, pos_hi, slope_lo, slope_hi = (column(j)[order] for j in range(4, 8))
        inv.env_pos = list(zip(pos_lo, pos_hi))
        inv.env_slope = list(zip(slope_lo, slope_hi))
    return inv


def truncate_alphabet(contractions, r):
    """Largest N with every one of the first N strips contracting by more than r.

    ``contractions`` may be a GhmSpec (per-strip minimum fiber contraction is
    measured) or any iterable of per-strip contraction factors, possibly a
    generator; iteration stops at the first failure or at a safety cap.
    """
    if isinstance(contractions, GhmSpec):
        values = [lo for lo, _ in contractions.fiber_slope_bounds()]
    else:
        values = contractions
    n = 0
    for v in islice(values, _ALPHABET_CAP):
        if float(v) > r:
            n += 1
        else:
            break
    return n


def cylinder_table(spec, depth_max, x_grid_n=65, budget=None):
    """All words to depth_max with base lengths and extended widths.

    Breadth-first by depth so a budget cut still leaves complete levels;
    returns (words, base_len array, diam array, deepest complete depth).
    """
    _affine_slopes(spec)
    if depth_max < 1:
        raise ParameterError("need depth_max >= 1")
    jlen = spec.fiber_len
    xg = np.linspace(0.0, 1.0, x_grid_n)
    words, lens, diams = [], [], []
    level = [((), 1.0, xg, np.ones_like(xg))]
    visited = 1
    complete = 0
    for depth in range(1, depth_max + 1):
        nxt = []
        for word, iln, X, A in level:
            for s in range(1, spec.n_strips + 1):
                sk = spec.skew[s - 1]
                A_c = A * sk.fiber.slope(X)
                entry = (word + (s,), iln / sk.base_slope,
                         sk.base_inverse(X), A_c)
                nxt.append(entry)
        visited += len(nxt)
        if budget is not None and visited > budget:
            break
        for word, iln, X, A in nxt:
            words.append(word)
            lens.append(iln)
            diams.append(float(np.abs(A).max()) * jlen)
        complete = depth
        level = nxt
    if complete == 0:
        raise BudgetError(
            f"budget {budget} too small for even one full level")
    return words, np.array(lens), np.array(diams), complete


def window_count(spec, depth_max, c1, c2, x_grid_n=65):
    """Total |I|-weighted count of words (all depths) with c1 < d < c2.

    Used to exercise the crossing bound: a nested chain of cylinders spends
    at most 1 + log(c2/c1)/log(1/M) generations inside (c1, c2) when each
    step shrinks widths by at least the factor M < 1, and integrating over
    the base turns that into this weighted count.
    """
    if not 0.0 < c1 < c2:
        raise ParameterError("need 0 < c1 < c2")
    _affine_slopes(spec)
    jlen = spec.fiber_len
    xg = np.linspace(0.0, 1.0, x_grid_n)
    total = 0.0
    stack = [((), 1.0, xg, np.ones_like(xg))]
    while stack:
        word, iln, X, A = stack.pop()
        d = float(np.abs(A).max()) * jlen
        if c1 < d < c2:
            total += iln
        if len(word) >= depth_max or d <= c1:
            continue
        for s in range(1, spec.n_strips + 1):
            sk = spec.skew[s - 1]
            stack.append((word + (s,), iln / sk.base_slope,
                          sk.base_inverse(X), A * sk.fiber.slope(X)))
    return total


# ---------------------------------------------------------------------------
# inventory persistence


def save_inventory(inv, path, spec=None):
    """Checkpoint an MInventory (words and scalars only) to a cache blob."""
    from .cache import write_blob

    flat = np.array([s for w in inv.words for s in w], dtype=np.int32)
    lens = np.array([len(w) for w in inv.words], dtype=np.int32)
    meta = {"r": inv.r, "n_words": len(inv.words)}
    if spec is not None:
        meta["map_hash"] = spec.map_hash
    return write_blob(path, "m_inventory", meta, {
        "symbols": flat,
        "lengths": lens,
        "x_grid": inv.x_grid,
        "base_lo": inv.base_lo,
        "base_len": inv.base_len,
        "diam": inv.diam,
    })


def load_inventory(path, spec=None):
    """Reload a checkpointed inventory; verifies the map hash when given."""
    from .cache import read_blob
    from .errors import CacheError

    meta, arrays = read_blob(path, expect_kind="m_inventory")
    if spec is not None and "map_hash" in meta and meta["map_hash"] != spec.map_hash:
        raise CacheError(
            f"{path}: inventory belongs to map {meta['map_hash'][:12]}, "
            f"not {spec.map_hash[:12]}")
    words = []
    pos = 0
    flat = arrays["symbols"]
    for n in arrays["lengths"]:
        words.append(tuple(int(s) for s in flat[pos: pos + int(n)]))
        pos += int(n)
    return MInventory(
        r=float(meta["r"]), x_grid=arrays["x_grid"], words=words,
        base_lo=arrays["base_lo"], base_len=arrays["base_len"],
        diam=arrays["diam"])
