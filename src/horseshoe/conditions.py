"""Fatness fits and pairwise transversality of maximal-scale families.

Fatness compares base-interval lengths with fiber widths across all words of
moderate depth.  Transversality is decided per pair of words from manifold
envelopes: the fiber interval pins every tail's position, and pushing the
tail slope hull through the word pins every tail's slope.  Verdicts are
three-valued; the non-transversal sum charges everything not certified
transversal, so it upper-bounds the true sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .symbolic import (
    BLOCK,
    _distinct,
    check_word,
    cylinder_table,
    envelope_hulls,
    fiber_image,
    fiber_step,
    m_inventory,
)

_FP_MARGIN = 1e-12
_HULL_U_N = 257  # arrival points sampled by tail_slope_hull


# ---------------------------------------------------------------------------
# fatness


@dataclass
class FatnessFit:
    """Fitted width-versus-length exponent over an enumerated word family.

    The defining inequality |I_w| <= k1 * d(w)^(1+epsilon) is tight by
    construction: k1 is the smallest admissible constant for the fitted
    epsilon, so per_word_slack is zero up to rounding.  The family counts
    as fat when epsilon is nonnegative; the measure-preserving boundary
    case fits an exact zero (stored as such), and genuinely thin families
    come out clearly negative.
    """

    k1: float
    epsilon: float
    per_word_slack: float
    words_used: int
    depth_min: int
    depth_max: int
    partial: bool = False
    residual: float = 0.0

    @property
    def passed(self):
        return self.epsilon >= 0.0 and self.per_word_slack >= -1e-9


def fatness_fit(spec, depth_max, depth_min=2, x_grid_n=65, budget=400_000):
    """Fit (k1, epsilon) against the binding words of each depth.

    At finite depth any exponent is admissible with a large enough constant,
    so the exponent has to come from the growth rate of the binding
    constraints: per depth the word maximizing |I|/d is the one that limits
    the exponent, and the fitted epsilon is the least-squares slope of
    log|I| against log d through those binding points (two at least),
    minus one.  This recovers the exact exponent for collinear families and
    the worst slope-product rate otherwise.  The constant k1 is then the
    smallest admissible one over every enumerated word, so the reported
    slack is zero up to rounding.
    """
    if not 1 <= depth_min < depth_max:
        raise ParameterError("need 1 <= depth_min < depth_max")
    words, lens, diams, complete = cylinder_table(
        spec, depth_max, x_grid_n=x_grid_n, budget=budget)
    partial = complete < depth_max
    depth_hi = min(depth_max, complete)
    if depth_hi <= depth_min:
        raise ParameterError(
            f"budget {budget} leaves fewer than two depths from {depth_min}")
    depths = np.count_nonzero(words, axis=1)
    log_i = np.log(lens)
    log_d = np.log(diams)
    ratio = log_i - log_d
    bind_x, bind_y = [], []
    for n in range(depth_min, depth_hi + 1):
        level = np.flatnonzero(depths == n)
        k = level[np.argmax(ratio[level])]
        bind_x.append(log_d[k])
        bind_y.append(log_i[k])
    bind_x = np.array(bind_x)
    bind_y = np.array(bind_y)
    coef, res = np.polyfit(bind_x, bind_y, 1, full=True)[:2]
    slope = float(coef[0])
    residual = float(res[0]) if len(res) else 0.0
    epsilon = slope - 1.0
    if abs(epsilon) < 1e-12:
        epsilon = 0.0
    sel = (depths >= depth_min) & (depths <= depth_hi)
    log_k1 = float(np.max(log_i[sel] - (1.0 + epsilon) * log_d[sel]))
    slack = float(np.min(log_k1 + (1.0 + epsilon) * log_d[sel] - log_i[sel]))
    return FatnessFit(
        k1=math.exp(log_k1),
        epsilon=epsilon,
        per_word_slack=slack,
        words_used=int(sel.sum()),
        depth_min=depth_min,
        depth_max=depth_hi,
        partial=partial,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# manifold envelopes


def tail_slope_hull(spec, tail_depth=48):
    """Slope interval containing every manifold slope after many steps.

    Starts from the invariant cone aperture and repeatedly applies the hull
    of the one-step slope action over all branches, arrival points, and
    positions; cone invariance makes the iterates nested, which is also
    enforced numerically.  Arrival points are sampled at ``_HULL_U_N``
    grid points.  The hull is computed once per map instance and tail depth
    and kept on the map, so the memo is keyed by what the map is.
    """
    hulls = spec._tail_hulls
    if tail_depth in hulls:
        return hulls[tail_depth]
    ug = np.linspace(0.0, 1.0, _HULL_U_N)
    plo, phi = -spec.alpha, spec.alpha
    for _ in range(tail_depth):
        lo_new, hi_new = np.inf, -np.inf
        for sk in spec.skew:
            fib = sk.fiber
            sv = fib.at("slope", ug)
            spv = fib.at("dslope", ug)
            tpv = fib.at("doffset", ug)
            mm = sv / sk.base_slope
            lo_b = np.minimum(spv, 0.0) + np.minimum(mm * plo, mm * phi) + tpv
            hi_b = np.maximum(spv, 0.0) + np.maximum(mm * plo, mm * phi) + tpv
            lo_new = min(lo_new, float(lo_b.min()))
            hi_new = max(hi_new, float(hi_b.max()))
        lo_new, hi_new = max(lo_new, plo), min(hi_new, phi)
        if abs(lo_new - plo) < 1e-15 and abs(hi_new - phi) < 1e-15:
            plo, phi = lo_new, hi_new
            break
        plo, phi = lo_new, hi_new
    hulls[tail_depth] = (plo, phi)
    return hulls[tail_depth]


def _envelope_rows(spec, words, x_grid, hull):
    """Envelopes of many words at once, one row per word.

    ``words`` is a symbol array, one word per row, zero-padded on the
    right, in any order and with repeats.  The rows are composed along the
    trie of their prefixes, so a prefix that several rows share is stepped
    once.  The rows are sorted lexicographically and cut into slices of
    ``BLOCK`` rows, so a level of a slice holds at most ``BLOCK`` nodes.
    At level k a row starts a new node where its (parent node, k-th
    symbol) differs from the previous row's; the new nodes are their
    parents stepped by ``fiber_step``, one call per symbol.  A row's
    envelope is taken at the node of its last symbol (the root for the
    empty word).  Each row goes through the IEEE operations of its own
    from-root composition, so the result does not depend on the order,
    the repeats or the slicing of the rows.  Returns (pos_lo, pos_hi,
    slope_lo, slope_hi), each of shape (words, grid).
    """
    xg = np.asarray(x_grid, dtype=float)
    words = np.asarray(words)
    out = [np.empty((len(words), xg.size)) for _ in range(4)]
    lengths = np.count_nonzero(words, axis=1)
    order = (np.lexsort(words.T[::-1]) if words.shape[1]
             else np.arange(len(words)))
    for start in range(0, len(words), BLOCK):
        rows = order[start:start + BLOCK]
        sym, length = words[rows], lengths[rows]
        node = np.zeros(len(rows), dtype=np.intp)  # each row's node, by level
        # the level's (X, A, B, Sy, Sp, S0), one row per node
        level = [xg[None, :], np.ones((1, xg.size)), np.zeros((1, xg.size))]
        level += [level[2], level[1], level[2]]
        for k in range(int(length.max()) + 1):
            done = np.flatnonzero(length == k)
            if done.size:
                A, B, *coef = (v[node[done]] for v in level[1:])
                for o, e in zip(out, envelope_hulls(A, B, coef, hull)):
                    o[rows[done]] = e
            live = np.flatnonzero(length > k)
            if not live.size:
                break
            parent, s = node[live], sym[live, k]
            new = np.ones(live.size, dtype=bool)
            new[1:] = (parent[1:] != parent[:-1]) | (s[1:] != s[:-1])
            # the new nodes are grouped by symbol: the level's arrays become
            # the gathered parents, one array at a time, and each symbol's
            # slice is overwritten by its children
            by_sym = np.argsort(s[new], kind="stable")
            rank = np.empty_like(by_sym)
            rank[by_sym] = np.arange(by_sym.size)
            node[live] = rank[np.cumsum(new) - 1]
            parent, s = parent[new][by_sym], s[new][by_sym]
            for i, v in enumerate(level):
                level[i] = v[parent]
            cut = np.flatnonzero(np.diff(s)) + 1
            for lo, hi in zip((0, *cut.tolist()), (*cut.tolist(), s.size)):
                at = slice(lo, hi)
                X, A, B, *coef = (v[at] for v in level)
                X, A, B, coef = fiber_step(spec.skew[s[lo] - 1], X, A, B, coef)
                for v, child in zip(level, (X, A, B, *coef)):
                    v[at] = child
    return out


def manifold_envelope(spec, word, x_grid, hull):
    """Per-x position and slope hulls of all tail manifolds through a word.

    Returns (pos_lo, pos_hi, slope_lo, slope_hi) arrays over x_grid.  The
    word composes into affine coefficients of the tail position (in [0,1])
    and the tail slope (in ``hull``, the ``tail_slope_hull`` of ``spec``),
    evaluated pointwise; this is the one-word case of the batched
    composition ``ntr_sum`` uses.
    """
    word = np.array([check_word(spec, word)], dtype=np.intp)
    return tuple(e[0] for e in _envelope_rows(spec, word, x_grid, hull))


# ---------------------------------------------------------------------------
# pairwise classification


@dataclass
class TransversalityVerdict:
    pair: tuple
    status: str
    delta: float
    witness: dict
    margin: float
    x_grid_n: int
    tail_depth: int


def _gap(lo_a, hi_a, lo_b, hi_b):
    """Per-x distance between the hulls [lo_a, hi_a] and [lo_b, hi_b]."""
    return np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))


def _gap_arrays(env_a, env_b):
    return _gap(*env_a[:2], *env_b[:2]), _gap(*env_a[2:], *env_b[2:])


def _certified(pos_gap, slope_gap, delta, margin):
    """Grid points where the position or the slope hulls are more than
    delta plus the margin apart: the transversality certificate."""
    return (pos_gap > delta + margin) | (slope_gap > delta + margin)


def _decide(pos_gap, slope_gap, delta, margin, xg):
    """Three-way verdict from per-x envelope separations.

    Separation is measured between hull sets, so a positive gap survives
    every tail choice; certificates carry a rigidity margin covering the
    envelope drift between grid points.
    """
    cert_t = _certified(pos_gap, slope_gap, delta, margin)
    cert_n = (pos_gap <= delta - margin) & (slope_gap <= delta - margin)
    worst = np.maximum(pos_gap, slope_gap)
    if bool(cert_t.all()):
        k = int(np.argmin(worst))
        status = "transversal"
    elif bool(cert_n.any()):
        idx = np.flatnonzero(cert_n)
        k = int(idx[np.argmin(worst[idx])])
        status = "non_transversal"
    else:
        idx = np.flatnonzero(~cert_t)
        k = int(idx[0])
        status = "inconclusive"
    witness = {"x": float(xg[k]),
               "position_gap": float(pos_gap[k]),
               "slope_gap": float(slope_gap[k])}
    return status, witness


def classify_transversal(spec, word_a, word_b, delta,
                         x_grid_n=257, tail_depth=48):
    """Classify one pair of words at separation scale delta.

    transversal: at every grid x, position or slope hulls are separated by
    more than delta plus the margin, for every pair of tails at once.
    non_transversal: at some x both hull separations sit below delta minus
    the margin.  Everything else is inconclusive; refinement of the grid or
    the tail depth never upgrades a verdict to transversal.
    """
    if not delta > 0.0:
        raise ParameterError("need delta > 0")
    if x_grid_n < 2:
        raise ParameterError("need at least 2 grid points")
    word_a = check_word(spec, word_a)
    word_b = check_word(spec, word_b)
    xg = np.linspace(0.0, 1.0, x_grid_n)
    hull = tail_slope_hull(spec, tail_depth=tail_depth)
    env_a = manifold_envelope(spec, word_a, xg, hull)
    env_b = manifold_envelope(spec, word_b, xg, hull)
    pos_gap, slope_gap = _gap_arrays(env_a, env_b)
    margin = spec.alpha * (xg[1] - xg[0]) + _FP_MARGIN
    status, witness = _decide(pos_gap, slope_gap, delta, margin, xg)
    return TransversalityVerdict(
        pair=(word_a, word_b), status=status, delta=float(delta),
        witness=witness, margin=margin, x_grid_n=x_grid_n,
        tail_depth=tail_depth)


def overlap_volume(spec, word_a, word_b, resolution=256, hat=False):
    """Area of the intersection of two image cylinders.

    Integrates the per-x fiber interval overlap with the trapezoid rule.
    The plain fiber intervals are used unless ``hat`` asks for the extended
    ones; extended strips of adjacent branches may overlap even when the
    plain strips tile.
    """
    if resolution < 64:
        raise ParameterError("need resolution >= 64")
    xg = np.linspace(0.0, 1.0, resolution + 1)
    lo_a, hi_a = fiber_image(spec, word_a, xg, hat=hat)
    lo_b, hi_b = fiber_image(spec, word_b, xg, hat=hat)
    inter = np.clip(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b),
                    0.0, None)
    return float(np.trapezoid(inter, xg))


# ---------------------------------------------------------------------------
# non-transversal sums


@dataclass
class NtrSumReport:
    """Charged-pair sum at one scale; ordered pairs with distinct leads.

    ``n_pairs`` counts ordered pairs whose leading symbols differ; the same
    unordered pair therefore enters twice, matching the squared-family
    indexing.  ``n_ntr`` counts the charged ones (not certified
    transversal).  In the subsampled regime both counts and the sum carry a
    stratified standard error.
    """

    r: float
    delta: float
    sum_value: float
    n_pairs: int
    n_ntr: float
    subsampled: bool = False
    sum_se: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def charged_fraction(self):
        return self.n_ntr / self.n_pairs if self.n_pairs else 0.0


def _live_leads(spec, delta, xg, hull, margin):
    """live[a, b]: leading-symbol pairs a != b whose single-symbol words do
    not already separate.

    A separated pair of hulls stays separated for every deeper extension
    (extensions only shrink the hulls), so such leads prune whole blocks.
    """
    n = spec.n_strips
    envs = [None] + [manifold_envelope(spec, (s,), xg, hull) for s in range(1, n + 1)]
    live = np.zeros((n + 1,) * 2, dtype=bool)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                live[a, b] = not _certified(*_gap_arrays(envs[a], envs[b]),
                                            delta, margin).all()
    return live


def _charged_pairs(spec, inv, I, J, live, xg, hull, delta, margin):
    """Classify the word pairs (I[k], J[k]) of an inventory.

    Pairs not marked ``live`` (pruned by their leads) are never charged.
    The envelopes of the words in live pairs are built once, then the live
    pairs are classified ``BLOCK`` rows at a time in one workspace of three
    float and two bool rows per pair, allocated once per call: the gaps go
    in place through the IEEE operations of ``_gap``, and only pairs with a
    grid point not ``_certified`` (charged) build their overlap.  Returns
    the charged flags and values vol * |I_a| * |I_b| (zero when uncharged).
    """
    charged = np.zeros(len(I), dtype=bool)
    vals = np.zeros(len(I))
    ks = np.flatnonzero(live)
    need = _distinct(np.concatenate((I[ks], J[ks])))
    row = np.empty(len(inv.words), dtype=np.intp)
    row[need] = np.arange(len(need))
    pos_lo, pos_hi, slope_lo, slope_hi = _envelope_rows(
        spec, inv.words[need], xg, hull)
    shape = (min(BLOCK, len(ks)), xg.size)
    u, v, w = (np.empty(shape) for _ in range(3))
    cert, more = (np.empty(shape, dtype=bool) for _ in range(2))

    def take(env, at, out):  # mode "raise" would gather through a temporary
        return env.take(at, axis=0, out=out, mode="clip")

    for start in range(0, len(ks), BLOCK):
        kb = ks[start:start + BLOCK]
        a, b = row[I[kb]], row[J[kb]]
        x, y, z, c, m = (t[:len(kb)] for t in (u, v, w, cert, more))
        for lo, hi, flag in ((slope_lo, slope_hi, c), (pos_lo, pos_hi, m)):
            # _gap in place: maximum(0, maximum(lo_a - hi_b, lo_b - hi_a))
            np.subtract(take(lo, a, x), take(hi, b, y), out=x)
            np.subtract(take(lo, b, y), take(hi, a, z), out=y)
            np.maximum(0.0, np.maximum(x, y, out=x), out=x)
            np.greater(x, delta + margin, out=flag)
        ch = ~np.logical_or(c, m, out=c).all(axis=1)
        kc, a, b = kb[ch], a[ch], b[ch]
        x, y, z = u[:len(kc)], v[:len(kc)], w[:len(kc)]
        np.minimum(take(pos_hi, a, x), take(pos_hi, b, y), out=x)
        np.maximum(take(pos_lo, a, y), take(pos_lo, b, z), out=y)
        np.clip(np.subtract(x, y, out=x), 0.0, None, out=x)
        charged[kc] = True
        vals[kc] = (np.trapezoid(x, xg, axis=-1)
                    * inv.base_len[I[kc]] * inv.base_len[J[kc]])
    return charged, vals


def _draw_stratum_pairs(ga, gb, share, rng):
    """``share`` random (I, J) row pairs of one length stratum.

    ``ga`` and ``gb`` map a lead symbol to its word rows.  Each pair first
    picks a lead combination (s, t), s != t, with weight |ga[s]| * |gb[t]|,
    then a row of ga[s] and a row of gb[t].  The row draws are one
    ``rng.integers`` call on the interleaved highs, which gives the values
    of, and leaves ``rng`` as, alternating scalar draws per pair.
    """
    combos = [(s, t) for s in sorted(ga) for t in sorted(gb) if s != t]
    na = np.array([len(ga[s]) for s, _ in combos])
    nb = np.array([len(gb[t]) for _, t in combos])
    weights = (na * nb).astype(float)
    weights /= weights.sum()
    pick = rng.choice(len(combos), size=share, p=weights)
    k = rng.integers(np.column_stack((na[pick], nb[pick])).ravel()).reshape(-1, 2)
    rows_a = np.concatenate([ga[s] for s, _ in combos])
    rows_b = np.concatenate([gb[t] for _, t in combos])
    return (rows_a[(np.cumsum(na) - na)[pick] + k[:, 0]],
            rows_b[(np.cumsum(nb) - nb)[pick] + k[:, 1]])


def ntr_sum(spec, inv, delta, tail_depth=48, pair_budget=100_000, seed=7):
    """Charged-pair volume sum over ``inv``, the ``m_inventory`` of M(r).

    Sums r^-2 * vol * |I_a| * |I_b| over pairs with distinct leading symbols
    that are not certified transversal, on the inventory's grid.  Small
    families are done exactly; large ones are estimated by stratified
    sampling over length pairs with a reported standard error.  Every pair
    is drawn first; then the envelopes of the words in pairs whose leads do
    not already separate are built once each, along the trie of their
    prefixes (``_envelope_rows``), and the pairs are classified in batches.
    """
    if not delta > 0.0:
        raise ParameterError("need delta > 0")
    r = inv.r
    xg = inv.x_grid
    margin = spec.alpha * (xg[1] - xg[0]) + _FP_MARGIN
    hull = tail_slope_hull(spec, tail_depth=tail_depth)
    live = _live_leads(spec, delta, xg, hull, margin)
    # lead symbols; the empty word, which is all of M(r) when it occurs,
    # leads with 0 and so pairs with nothing
    first = (inv.words[:, 0] if inv.words.shape[1]
             else np.zeros(len(inv.words), dtype=inv.words.dtype))

    # ordered pair count over distinct leading symbols; by_len[n][s] holds
    # the rows of the words of length n and lead s, in row order
    lengths = _distinct(inv.lengths).tolist()
    by_len = {}
    for n in lengths:
        at = np.flatnonzero(inv.lengths == n)
        by_len[n] = {s: at[first[at] == s] for s in _distinct(first[at]).tolist()}

    def cross_count(la, lb):
        ga, gb = by_len[la], by_len[lb]
        total = sum(len(v) for v in ga.values()) * sum(len(v) for v in gb.values())
        same = sum(len(ga.get(s, ())) * len(gb.get(s, ())) for s in ga)
        return total - same

    strata = []
    n_pairs = 0
    for ii, la in enumerate(lengths):
        for lb in lengths[ii:]:
            c = cross_count(la, lb)
            if la != lb:
                c *= 2
            if c:
                strata.append((la, lb, c))
                n_pairs += c

    if n_pairs == 0:
        return NtrSumReport(r=float(r), delta=float(delta), sum_value=0.0,
                            n_pairs=0, n_ntr=0.0,
                            meta={"words": len(inv.words)})

    exact = n_pairs // 2 <= pair_budget
    if exact:
        # every unordered live pair once, in (i, j) order
        I, J = np.triu_indices(len(inv.words), 1)
        keep = live[first[I], first[J]]
        I, J = I[keep], J[keep]
    else:
        # stratified sampling over length pairs, deterministic per stratum
        I, J, shares = [], [], []
        for la, lb, c in strata:
            share = max(16, int(round(pair_budget * c / n_pairs)))
            rng = np.random.default_rng([seed, la, lb])
            pick_i, pick_j = _draw_stratum_pairs(by_len[la], by_len[lb], share, rng)
            I.append(pick_i)
            J.append(pick_j)
            shares.append(share)
        I, J = np.concatenate(I), np.concatenate(J)

    charged, vals = _charged_pairs(spec, inv, I, J, live[first[I], first[J]],
                                   xg, hull, delta, margin)
    if exact:
        total = 0.0
        for v in vals[charged].tolist():
            total += v
        return NtrSumReport(
            r=float(r), delta=float(delta),
            sum_value=2.0 * total / (r * r),
            n_pairs=n_pairs, n_ntr=2.0 * int(charged.sum()),
            meta={"words": len(inv.words)})

    chs = charged.astype(float)
    total = 0.0
    var_acc = 0.0
    ntr_est = 0.0
    start = 0
    for (_, _, c), share in zip(strata, shares):
        v = vals[start:start + share]
        total += c * float(v.mean())
        ntr_est += c * float(chs[start:start + share].mean())
        var_acc += (c ** 2) * float(v.var(ddof=1)) / share
        start += share
    return NtrSumReport(
        r=float(r), delta=float(delta),
        sum_value=total / (r * r),
        n_pairs=n_pairs, n_ntr=ntr_est,
        subsampled=True, sum_se=math.sqrt(var_acc) / (r * r),
        meta={"words": len(inv.words), "classified": start})


@dataclass
class NtrSweep:
    reports: list
    exponent: float | None

    @classmethod
    def fit(cls, reports):
        """The sweep of ``reports`` with the log-log slope of sum against r.

        Only positive sums enter the fit; all-zero sweeps (exactly tiling
        families) report None.
        """
        pos = [(rep.r, rep.sum_value) for rep in reports if rep.sum_value > 0]
        exponent = None
        if len(pos) >= 2:
            lr = np.log([p[0] for p in pos])
            ls = np.log([p[1] for p in pos])
            exponent = float(np.polyfit(lr, ls, 1)[0])
        return cls(reports=reports, exponent=exponent)


def ntr_sweep(spec, r_list, delta, **kwargs):
    """Sweep the charged sum over decreasing scales and fit its decay rate.

    Each M(r) comes from ``m_inventory(spec, r)`` on its default grid and
    without a budget; the keywords go to ``ntr_sum``, and ``NtrSweep.fit``
    fits the rate.
    """
    r_list = [float(r) for r in r_list]
    if any(b >= a for a, b in zip(r_list, r_list[1:])):
        raise ParameterError("scale sweep must be strictly decreasing")
    return NtrSweep.fit([
        ntr_sum(spec, m_inventory(spec, r), delta, **kwargs)
        for r in r_list])
