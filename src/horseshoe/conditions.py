"""Fatness fits and pairwise transversality of maximal-scale families.

Fatness compares base-interval lengths with fiber widths across all words of
moderate depth.  Transversality is decided per pair of words from manifold
envelopes: the fiber interval pins every tail's position, and pushing the
tail slope hull through the word pins every tail's slope.  Verdicts are
three-valued; the non-transversal sum charges everything not certified
transversal, so it upper-bounds the true sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ParameterError
from .symbolic import (
    BLOCK,
    check_word,
    cylinder_table,
    envelope_hulls,
    fiber_image,
    fiber_step,
    m_inventory,
)

_FP_MARGIN = 1e-12


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
    log|I| against log d through those binding points, minus one.  This
    recovers the exact exponent for collinear families and the worst
    slope-product rate otherwise.  The constant k1 is then the smallest
    admissible one over every enumerated word, so the reported slack is
    zero up to rounding.
    """
    if depth_max < 2:
        raise ParameterError("need depth_max >= 2")
    if not 1 <= depth_min <= depth_max:
        raise ParameterError("need 1 <= depth_min <= depth_max")
    words, lens, diams, complete = cylinder_table(
        spec, depth_max, x_grid_n=x_grid_n, budget=budget)
    partial = complete < depth_max
    depth_hi = min(depth_max, complete)
    if depth_hi < depth_min:
        raise ParameterError(
            f"budget {budget} cannot reach depth {depth_min}")
    depths = np.array([len(w) for w in words])
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


def tail_slope_hull(spec, tail_depth=48, u_grid_n=257):
    """Slope interval containing every manifold slope after many steps.

    Starts from the invariant cone aperture and repeatedly applies the hull
    of the one-step slope action over all branches, arrival points, and
    positions; cone invariance makes the iterates nested, which is also
    enforced numerically.
    """
    ug = np.linspace(0.0, 1.0, u_grid_n)
    plo, phi = -spec.alpha, spec.alpha
    for _ in range(tail_depth):
        lo_new, hi_new = np.inf, -np.inf
        for sk in spec.skew:
            fib = sk.fiber
            sv = fib.slope(ug)
            spv = fib.dslope(ug)
            tpv = fib.doffset(ug)
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
    return plo, phi


def _envelope_rows(spec, words, x_grid, hull):
    """Envelopes of many words at once, one row per word.

    Words are composed ``BLOCK`` at a time as rows of a symbol array,
    zero-padded on the right: at step k the rows whose k-th symbol is s
    take branch s (``fiber_step``), and padded rows stay put.  Returns
    (pos_lo, pos_hi, slope_lo, slope_hi), each of shape (words, grid).
    """
    xg = np.asarray(x_grid, dtype=float)
    out = [np.empty((len(words), xg.size)) for _ in range(4)]
    for start in range(0, len(words), BLOCK):
        part = words[start:start + BLOCK]
        lens = np.array([len(w) for w in part])
        sym = np.zeros((len(part), lens.max()), dtype=np.intp)
        sym[np.arange(sym.shape[1]) < lens[:, None]] = list(
            chain.from_iterable(part))
        X = np.tile(xg, (len(part), 1))
        A, B = np.ones_like(X), np.zeros_like(X)
        coef = [np.zeros_like(X), np.ones_like(X), np.zeros_like(X)]
        for col in sym.T:
            for s in np.unique(col[col > 0]).tolist():
                sk = spec.skew[s - 1]
                if not sk.fiber.affine:
                    raise ParameterError("envelopes need affine-in-y fiber maps")
                rows = np.flatnonzero(col == s)
                X[rows], A[rows], B[rows], new = fiber_step(
                    sk, X[rows], A[rows], B[rows], [c[rows] for c in coef])
                for c, v in zip(coef, new):
                    c[rows] = v
        for o, e in zip(out, envelope_hulls(A, B, coef, hull)):
            o[start:start + len(part)] = e
    return out


def manifold_envelope(spec, word, x_grid, hull):
    """Per-x position and slope hulls of all tail manifolds through a word.

    Returns (pos_lo, pos_hi, slope_lo, slope_hi) arrays over x_grid.  The
    word composes into affine coefficients of the tail position (in [0,1])
    and the tail slope (in ``hull``, the ``tail_slope_hull`` of ``spec``),
    evaluated pointwise; this is the one-word case of the batched
    composition ``ntr_sum`` uses.
    """
    word = check_word(spec, word)
    return tuple(e[0] for e in _envelope_rows(spec, [word], x_grid, hull))


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

    def __bool__(self):
        return self.status == "transversal"


def _gap_arrays(env_a, env_b):
    pos_gap = np.maximum(0.0, np.maximum(env_a[0] - env_b[1],
                                         env_b[0] - env_a[1]))
    slope_gap = np.maximum(0.0, np.maximum(env_a[2] - env_b[3],
                                           env_b[2] - env_a[3]))
    return pos_gap, slope_gap


def _decide(pos_gap, slope_gap, delta, margin, xg):
    """Three-way verdict from per-x envelope separations.

    Separation is measured between hull sets, so a positive gap survives
    every tail choice; certificates carry a rigidity margin covering the
    envelope drift between grid points.
    """
    cert_t = (pos_gap > delta + margin) | (slope_gap > delta + margin)
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
    exponent_fit: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def charged_fraction(self):
        return self.n_ntr / self.n_pairs if self.n_pairs else 0.0

    def as_record(self):
        return {
            "r": self.r, "delta": self.delta, "n_pairs": self.n_pairs,
            "n_ntr": self.n_ntr, "sum": self.sum_value,
            "exponent_fit": self.exponent_fit,
            "subsampled": self.subsampled, "sum_se": self.sum_se,
        }


def _symbol_pair_transversal(spec, delta, xg, hull, margin):
    """Leading-symbol pairs whose single-symbol words already separate.

    A separated pair of hulls stays separated for every deeper extension
    (extensions only shrink the hulls), so such leads prune whole blocks.
    """
    n = spec.n_strips
    envs = [manifold_envelope(spec, (s,), xg, hull) for s in range(1, n + 1)]
    pruned = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            pos_gap, slope_gap = _gap_arrays(envs[a - 1], envs[b - 1])
            status, _ = _decide(pos_gap, slope_gap, delta, margin, xg)
            pruned[(a, b)] = status == "transversal"
    return pruned


def _charged_pairs(spec, inv, I, J, live, xg, hull, delta, margin):
    """Classify the word pairs (I[k], J[k]) of an inventory.

    Pairs not marked ``live`` (pruned by their leads) are never charged.
    The envelopes of the words in live pairs are built once, then the live
    pairs are classified ``BLOCK`` rows at a time.  Returns the charged
    flags and the charged values vol * |I_a| * |I_b| (zero when uncharged).
    """
    charged = np.zeros(len(I), dtype=bool)
    vals = np.zeros(len(I))
    ks = np.flatnonzero(live)
    need = np.unique(np.concatenate((I[ks], J[ks])))
    row = np.empty(len(inv.words), dtype=np.intp)
    row[need] = np.arange(len(need))
    env = _envelope_rows(spec, [inv.words[k] for k in need], xg, hull)
    for start in range(0, len(ks), BLOCK):
        kb = ks[start:start + BLOCK]
        env_a = [e[row[I[kb]]] for e in env]
        env_b = [e[row[J[kb]]] for e in env]
        pos_gap, slope_gap = _gap_arrays(env_a, env_b)
        ch = ~((pos_gap > delta + margin)
               | (slope_gap > delta + margin)).all(axis=1)
        pa, qa = env_a[0][ch], env_a[1][ch]
        pb, qb = env_b[0][ch], env_b[1][ch]
        inter = np.clip(np.minimum(qa, qb) - np.maximum(pa, pb), 0.0, None)
        kc = kb[ch]
        charged[kc] = True
        vals[kc] = (np.trapezoid(inter, xg, axis=-1)
                    * inv.base_len[I[kc]] * inv.base_len[J[kc]])
    return charged, vals


def ntr_sum(spec, r, delta, x_grid_n=65, tail_depth=48,
            pair_budget=100_000, seed=7, budget=None):
    """Charged-pair volume sum at scale r.

    Enumerates the scale-r family and sums r^-2 * vol * |I_a| * |I_b| over
    pairs with distinct leading symbols that are not certified transversal.
    Small families are done exactly; large ones are estimated by stratified
    sampling over length pairs with a reported standard error.  Every pair
    is drawn first; then the envelopes of the words in pairs whose leads do
    not already separate are built once each, and the pairs are classified
    in batches.
    """
    if not delta > 0.0:
        raise ParameterError("need delta > 0")
    inv = m_inventory(spec, r, x_grid_n=x_grid_n, budget=budget)
    xg = inv.x_grid
    margin = spec.alpha * (xg[1] - xg[0]) + _FP_MARGIN
    hull = tail_slope_hull(spec, tail_depth=tail_depth)
    pruned = _symbol_pair_transversal(spec, delta, xg, hull, margin)
    # live[a, b]: pairs with leads a != b need classifying
    live = np.zeros((spec.n_strips + 1,) * 2, dtype=bool)
    for (a, b), sep in pruned.items():
        live[a, b] = not sep
    first = np.array([w[0] if w else 0 for w in inv.words])

    # ordered pair count over distinct leading symbols
    by_len = {}
    for k, w in enumerate(inv.words):
        if w:
            by_len.setdefault(len(w), {}).setdefault(w[0], []).append(k)
    lengths = sorted(by_len)

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
        I, J = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for a, b in zip(*np.nonzero(live)):
            ii, jj = np.meshgrid(np.flatnonzero(first == a),
                                 np.flatnonzero(first == b), indexing="ij")
            I.append(ii[ii < jj])
            J.append(jj[ii < jj])
        I, J = np.concatenate(I), np.concatenate(J)
        order = np.lexsort((J, I))
        I, J = I[order], J[order]
    else:
        # stratified sampling over length pairs, deterministic per stratum
        I, J, shares = [], [], []
        for la, lb, c in strata:
            share = max(16, int(round(pair_budget * c / n_pairs)))
            rng = np.random.default_rng([seed, la, lb])
            ga, gb = by_len[la], by_len[lb]
            weights = []
            combos = []
            for s in sorted(ga):
                for t in sorted(gb):
                    if s == t:
                        continue
                    combos.append((s, t))
                    weights.append(len(ga[s]) * len(gb[t]))
            weights = np.array(weights, dtype=float)
            weights /= weights.sum()
            for pick in rng.choice(len(combos), size=share, p=weights):
                s, t = combos[pick]
                I.append(ga[s][rng.integers(len(ga[s]))])
                J.append(gb[t][rng.integers(len(gb[t]))])
            shares.append(share)
        I, J = np.array(I), np.array(J)

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

    def to_csv(self, path):
        lines = ["r,delta,n_pairs,n_ntr,sum,sum_se,subsampled"]
        for rep in self.reports:
            lines.append(
                f"{rep.r!r},{rep.delta!r},{rep.n_pairs},{rep.n_ntr!r},"
                f"{rep.sum_value!r},{rep.sum_se!r},{int(rep.subsampled)}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path=None):
        payload = {"exponent_fit": self.exponent,
                   "reports": [rep.as_record() for rep in self.reports]}
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return payload


def ntr_sweep(spec, r_list, delta, **kwargs):
    """Sweep the charged sum over decreasing scales and fit its decay rate.

    The exponent is the log-log slope of the sum against the scale over the
    reports with positive sums; all-zero sweeps (exactly tiling families)
    report None.
    """
    r_list = [float(r) for r in r_list]
    if any(b >= a for a, b in zip(r_list, r_list[1:])):
        raise ParameterError("scale sweep must be strictly decreasing")
    reports = [ntr_sum(spec, r, delta, **kwargs) for r in r_list]
    pos = [(rep.r, rep.sum_value) for rep in reports if rep.sum_value > 0]
    exponent = None
    if len(pos) >= 2:
        lr = np.log([p[0] for p in pos])
        ls = np.log([p[1] for p in pos])
        exponent = float(np.polyfit(lr, ls, 1)[0])
    for rep in reports:
        rep.exponent_fit = exponent
    return NtrSweep(reports=reports, exponent=exponent)
