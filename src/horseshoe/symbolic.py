"""Words, cylinder geometry, and maximal-word families.

A word is a row of 1-based strip indices, most recent symbol first: the
cylinder of w = (a1, ..., an) is the image strip obtained by applying branch
an first and branch a1 last.  Its base interval I_w collects the starting
points whose base itinerary runs through the word in that (reversed) order,
and its fiber image U_w(x) is the vertical interval the composition leaves
over an arrival point x.  Widths are measured on the extended fiber J; the
diameter d(w) is the largest extended width over the base.

Functions of one word take it as a tuple.  A family of words is kept in
the walker's format: an (n, L) symbol array, one word per row, zero-padded
on the right to the longest length L (0 is no symbol), with the lengths
beside it.  ``MInventory`` and ``cylinder_table`` return their words so,
and the envelopes and the checkpoint read them so.

Every walk that shares prefixes steps each prefix once with the step of
``fiber_step``, in one of two ways.  The walker ``_walk`` grows the tree:
it pops a block of at most ``BLOCK`` nodes of one depth and grows each
node by every symbol.  A node carries the arrival-point grid of its deep
end, the composed fiber scale and its lex index within its depth, so a
block grows in a few array operations of O(nodes * grid).  The caller sees
the block with its children and says by mask which children are pushed;
only pushed children get their grid stepped.  ``m_inventory`` keeps the
children at or above scale r.  ``cylinder_table`` and the width constants
of ``diagnostics`` keep every child above their last depth, and
``_tree_table`` writes each word's row at its lex index.  The envelopes of
``conditions`` (``_envelope_rows``) compose a given set of words instead,
along the trie of their prefixes: the rows are sorted, and each level
steps only the distinct prefixes that some row runs through.  On a sampled
word set the walker would grow every child of every node.
``cylinder_diameter`` composes one word with ``fiber_step``, a symbol at a
time, so its grid widths are the walker's bit for bit.  Every fiber map is
affine in y (``maps.FiberMap``), so a composition is one scale and one
shift per grid point.

M(r) is the family of words whose extended width has dropped to scale r.
Where a node has some children at or above scale r and some below, the
below-scale children are emitted along with the deeper descendants.  The
family is prefix-free and complete over the alphabet (each proper prefix of
a word has all N children, each a word or again a prefix), so the base
lengths sum to one (sum |I_w| = 1).  It agrees with the plain "maximal
word" rule whenever sibling widths cross the threshold together.  When
every one-symbol word is below scale r, M(r) is the empty word alone.

Completeness and prefix-freeness together mean that every backward
itinerary, an infinite symbol sequence read most recent symbol first, has
exactly one prefix in M(r).  Prefix-freeness allows at most one.  For
one at least, follow the itinerary down from the empty word: each node on
the way is a word of M(r) or a proper prefix, whose child along the
itinerary is again one of the two, and M(r) is finite, so the walk ends
at a word.  So the pairs (w, w') of M(r) split the pairs of itineraries
into disjoint classes that cover them all, and that is what Tsujii-type
sums over M(r) x M(r) index: no pair of tails is counted twice or left out.

The base intervals need not tile [0,1], though.  A word grows by appending
the symbol that acts first, so I_ws is not contained in I_w.  A family of
uniform depth (the baker family) still tiles; one of mixed depths may
overlap and leave gaps.  For the affine family a = 0.8, b = 0.55 the
intervals of M(2^-4) cover only about 0.77 of [0,1].

``fiber_image`` composes whole words, each from the deep end toward the
arrival point, a block of equal-length rows at a time.  The bands of
``figures`` (``lex_words`` rows) and the extension margins of
``diagnostics`` go through it: it keeps the exact nesting U_ws inside U_w,
which composing from the root breaks by an ulp.  Every width family reads
the walker's composition instead, a word's extended width being |A| * |J|:
``m_inventory``, ``cylinder_table``, ``cylinder_diameter`` and the width
constants of ``diagnostics``.  That rounds differently from
``fiber_image``'s hi - lo, by up to about 1e-15 relative.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import cache
from .errors import BudgetError, CacheError, DegenerateScaleError, ParameterError

# Rows per block of the batched word-tree and pair kernels.  At 1024 rows a
# block's grid arrays (rows x 65 base points) are 520 KiB each; at 4096 they
# were 2 MiB, and ``conditions.fatness_fit`` to depth 16 traced a 41 MiB
# peak instead of 17 MiB.  Every row is computed alike in any block, so no
# output depends on it.
BLOCK = 1024


def check_word(spec, word):
    word = tuple(word)
    try:
        word = tuple(map(operator.index, word))
    except TypeError as exc:
        raise ParameterError(f"word {word} has a non-integer symbol") from exc
    for s in word:
        if not 1 <= s <= spec.n_strips:
            raise ParameterError(f"symbol {s} outside 1..{spec.n_strips} in word {word}")
    return word


def _distinct(a):
    """The distinct values of an array of small non-negative ints, ascending.

    ``np.unique`` gives the same, but in numpy 2.4 it imports ``numpy.ma``
    on its first call (15 ms and 0.6 MiB), which nothing else in the
    package needs.
    """
    return np.flatnonzero(np.bincount(np.ravel(a)))


def lex_words(n_strips, depth, dtype=int):
    """All words of one length as (n_strips**depth, depth) rows, lexicographic."""
    return (np.indices((n_strips,) * depth, dtype=dtype)
            .reshape(depth, n_strips ** depth).T + 1)


def fiber_image(spec, words, x, hat=False):
    """Fiber intervals U_w(x) (or the extended ones over J) at base points x.

    ``words`` is one word as a tuple, or equal-length words as an (n, d)
    symbol array, one word per row.  Each row takes the backward base orbit
    of x, then pushes the full fiber from the deep end of the word toward
    the arrival point, ``BLOCK`` rows at a time and grouped by symbol at
    each step.  Returns (lo, hi): floats for one word at scalar x, else
    arrays of x's shape, with a leading row axis for a row array.
    """
    one = np.ndim(words) < 2
    rows = np.asarray([words] if one else words)
    # an integer array's smallest and largest symbols stand for them all
    integer = rows.dtype.kind in "iu" and rows.size
    check_word(spec, (rows.min(), rows.max()) if integer else rows.ravel().tolist())
    x = np.asarray(x, dtype=float)
    lo = np.full(rows.shape[:1] + x.shape, spec.extended_fiber[0] if hat else 0.0)
    hi = np.full(rows.shape[:1] + x.shape, spec.extended_fiber[1] if hat else 1.0)
    for start in range(0, len(rows), BLOCK):
        block = rows[start:start + BLOCK]
        blo, bhi = lo[start:start + BLOCK], hi[start:start + BLOCK]
        orbit = [np.broadcast_to(x, blo.shape)]
        for col in block.T:
            orbit.append(np.empty(blo.shape))
            for s in _distinct(col).tolist():
                r = np.flatnonzero(col == s)
                orbit[-1][r] = spec.skew[s - 1].base_inverse(orbit[-2][r])
        for k in range(block.shape[1], 0, -1):
            for s in _distinct(block[:, k - 1]).tolist():
                r = np.flatnonzero(block[:, k - 1] == s)
                fm = spec.skew[s - 1].fiber
                u = orbit[k - 1][r]
                a, b = fm.value(u, blo[r]), fm.value(u, bhi[r])
                blo[r], bhi[r] = np.minimum(a, b), np.maximum(a, b)
    if not one:
        return lo, hi
    return (float(lo[0]), float(hi[0])) if x.ndim == 0 else (lo[0], hi[0])


_golden = (math.sqrt(5.0) - 1.0) / 2.0
_DIAM_GRID_N = 257  # base grid of cylinder_diameter, refined around its maximum


def _word_widths(spec, word, x):
    """|hat U_w(x)| at base points x, composed as the walker composes a node."""
    X = np.asarray(x, dtype=float)
    A = np.ones_like(X)
    for s in word:
        X, A, _, _ = fiber_step(spec.skew[s - 1], X, A)
    return np.abs(A) * spec.fiber_len


def cylinder_diameter(spec, word):
    """max_x |hat U_w(x)|: grid maximum plus golden-section refinement.

    The widths are those of the word-tree walk.  The grid maximum alone is
    within the fiber-ratio distortion constant of the true maximum;
    refinement narrows the remaining bracket around the best grid cell.
    """
    word = check_word(spec, word)
    xg = np.linspace(0.0, 1.0, _DIAM_GRID_N)
    vals = _word_widths(spec, word, xg)
    j = int(np.argmax(vals))
    best = float(vals[j])
    if len(word) == 0:
        return best
    a = xg[max(j - 1, 0)]
    b = xg[min(j + 1, _DIAM_GRID_N - 1)]
    # golden-section ascent on the bracket around the best grid point
    c = b - _golden * (b - a)
    d = a + _golden * (b - a)
    fc = float(_word_widths(spec, word, c))
    fd = float(_word_widths(spec, word, d))
    for _ in range(60):
        if b - a < 1e-13:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _golden * (b - a)
            fc = float(_word_widths(spec, word, c))
        else:
            a, c, fc = c, d, fd
            d = a + _golden * (b - a)
            fd = float(_word_widths(spec, word, d))
    return max(best, fc, fd)


@dataclass
class MInventory:
    """The family M(r) with per-word base intervals and diameters.

    ``words`` is an (n, L) symbol array, one word per row, zero-padded on
    the right to the longest length L; ``lengths`` holds the word lengths.
    Rows run in (base_lo, length) order.
    """

    r: float
    x_grid: np.ndarray
    words: np.ndarray
    lengths: np.ndarray
    base_lo: np.ndarray
    base_len: np.ndarray
    diam: np.ndarray

    def mass(self):
        return math.fsum(self.base_len.tolist())


def fiber_step(sk, X, A, B=None, coef=None):
    """Children under branch ``sk`` of a batch of word-tree nodes.

    Rows are nodes and columns grid points: X is the deep-end grid, A and B
    the composed fiber scale and shift (hat width = |A| * |J|), and ``coef``
    the slope coefficients (Sy, Sp, S0), with manifold slope
    Sy * tail_pos + Sp * tail_slope + S0.  The one-step slope action is
    affine in (position, slope), so it composes like the fiber action.
    Returns the children's (X, A, B, coef); walks that need only widths
    leave out B and coef and get them back as None.
    """
    fib = sk.fiber
    sv = fib.at("slope", X)
    if coef is not None:
        tv = fib.at("offset", X)
        sy, sp, s0 = coef
        coef = (sy * sv + sp * fib.at("dslope", X),
                sp * sv / sk.base_slope,
                sy * tv + sp * fib.at("doffset", X) + s0)
        B = A * tv + B
    return sk.base_inverse(X), A * sv, B, coef


def envelope_hulls(A, B, coef, hull):
    """(pos_lo, pos_hi, slope_lo, slope_hi) of composed coefficients.

    Tail positions range over [0, 1] and tail slopes over ``hull``.
    """
    tlo, thi = hull
    sy, sp, s0 = coef
    return (B + np.minimum(A, 0.0), B + np.maximum(A, 0.0),
            s0 + np.minimum(sy, 0.0) + np.minimum(sp * tlo, sp * thi),
            s0 + np.maximum(sy, 0.0) + np.maximum(sp * tlo, sp * thi))


# Word-tree nodes of one depth, one row each: the words as an (n, depth)
# symbol array, their lex indices within the depth, the base intervals'
# left ends and lengths, the (n, grid) deep-end grids X and fiber scales A,
# and the extended widths |A| * |J|.  A child's lex index is its parent's
# times N plus s - 1; it is exact while N^depth < 2^63, which every
# full-tree walk meets, and the scale-stopped walk never reads it.
# Children carry X = None: the walker steps X for the rows it pushes only.
_Nodes = namedtuple("_Nodes", "word index lo ln X A diam")


def _join(parts):
    """One block out of row-wise parts; a lone part is used as it is."""
    if len(parts) == 1:
        return parts[0]
    return _Nodes(*(np.concatenate(f) for f in zip(*parts)))


def _padded(rows, width):
    """Symbol arrays of any depths as one (n, width) array, padded with 0."""
    return np.concatenate([np.pad(w, ((0, 0), (0, width - w.shape[1])))
                           for w in rows])


def _walk(spec, x_grid_n, keep):
    """Depth-first walk of the word tree, a block of same-depth nodes at a time.

    Starts from the empty word and yields (block, children, kept) for each
    popped block: ``children[s - 1]`` holds the block's children under
    symbol s, row for row, and ``kept[s - 1]`` the mask ``keep(child)``
    returned for them.  Only kept children are pushed, those of all symbols
    together in blocks of at most ``BLOCK`` rows; each symbol's share has at
    most as many rows as the parent block.

    A child's A is its parent's A times the branch's fiber slope at the
    parent's X, the step of ``fiber_step``; branches that hold one slope
    object evaluate it once per block.  The children's X, the parent's X
    under the base inverse, is stepped when they are pushed, for the kept
    rows alone.
    """
    if x_grid_n < 2:
        raise ParameterError("need at least 2 base grid points")
    jlen = spec.fiber_len
    n_sym = spec.n_strips
    xg = np.linspace(0.0, 1.0, x_grid_n)
    sym_type = np.min_scalar_type(n_sym)
    stack = [_Nodes(np.zeros((1, 0), dtype=sym_type), np.zeros(1, dtype=np.intp),
                    np.zeros(1), np.ones(1), xg[None, :], np.ones((1, x_grid_n)),
                    np.array([jlen]))]
    while stack:
        block = stack.pop()
        slopes, children, kept = {}, [], []
        for s, sk in enumerate(spec.skew, 1):
            slope = sk.fiber.slope
            if id(slope) not in slopes:
                slopes[id(slope)] = sk.fiber.at("slope", block.X)
            A = block.A * slopes[id(slope)]
            child = _Nodes(
                np.concatenate((block.word, np.full((len(block.ln), 1), s,
                                                    dtype=sym_type)), axis=1),
                block.index * n_sym + (s - 1),
                np.minimum(sk.base_inverse(block.lo),
                           sk.base_inverse(block.lo + block.ln)),
                block.ln / sk.base_slope, None, A, np.abs(A).max(axis=1) * jlen)
            children.append(child)
            kept.append(keep(child))
        yield block, children, kept
        batch, rows = [], 0
        for sk, child, k in zip(spec.skew, children, kept):
            n = int(k.sum())
            if not n:
                continue
            if batch and rows + n > BLOCK:
                stack.append(_join(batch))
                batch, rows = [], 0
            part = child._replace(X=block.X)
            if n < len(k):
                part = _Nodes(*(f[k] for f in part))
            batch.append(part._replace(X=sk.base_inverse(part.X)))
            rows += n
        if batch:
            stack.append(_join(batch))


def _level_starts(n_strips, depth):
    """First row of each length 1..depth in a table of every word to
    ``depth``, length by length, and the table's row count last."""
    return np.cumsum([0] + [n_strips ** d for d in range(1, depth + 1)])


def _tree_table(spec, depth, x_grid_n, *reads):
    """One array per ``read``, holding ``read(nodes)`` for every word to
    ``depth``: rows run length by length and in ``lex_words`` order within
    a length, each written at its lex index as the full walk reaches it."""
    starts = _level_starts(spec.n_strips, depth)
    out = np.empty((len(reads), starts[-1]))
    if depth < 1:
        return out
    for _, children, _ in _walk(
            spec, x_grid_n,
            lambda c: np.full(len(c.ln), c.word.shape[1] < depth)):
        for child in children:
            rows = starts[child.word.shape[1] - 1] + child.index
            for col, read in zip(out, reads):
                col[rows] = read(child)
    return out


def m_inventory(spec, r, x_grid_n=65, budget=None):
    """Enumerate M(r) with base intervals and diameters.

    A node is of the family when its extended width is still >= r but every
    child drops below r; children below r at nodes that stay partly above
    are emitted too (see module docstring).  The base lengths sum to one,
    but the base intervals need not tile [0,1] when the family mixes depths.
    ``budget`` caps the number of tree nodes expanded.

    The walk pushes the children at or above scale r.  Words of one length
    are base cylinders of that length, so their left ends differ, and
    sorting by (left end, length) fixes the order whatever the order of
    expansion.
    """
    r = float(r)
    if r >= spec.fiber_len:
        raise DegenerateScaleError(
            f"scale {r} is not below the fiber length {spec.fiber_len}")
    if r <= 0.0:
        raise ParameterError("scale must be positive")
    if max(b for _, b in spec.fiber_slope_bounds) >= 1.0:
        raise ParameterError("fiber maps must contract (max slope below 1)")

    out = []  # emitted groups: (words, lengths, base lo, base len, diam)

    def emit(nodes, mask):
        if mask.any():
            out.append((nodes.word[mask],
                        np.full(mask.sum(), nodes.word.shape[1]),
                        nodes.lo[mask], nodes.ln[mask], nodes.diam[mask]))

    visited = 0
    for block, children, kept in _walk(spec, x_grid_n, lambda c: c.diam >= r):
        visited += len(block.ln)
        if budget is not None and visited > budget:
            raise BudgetError(f"enumeration exceeded node budget {budget}")
        # a leaf has no child at or above r; the below-scale children of
        # the other nodes are emitted next to their deeper siblings
        leaf = ~np.logical_or.reduce(kept)
        emit(block, leaf)
        for child, k in zip(children, kept):
            emit(child, ~k & ~leaf)

    words, *rest = zip(*out)
    length, lo, ln, diam = map(np.concatenate, rest)
    order = np.lexsort((length, lo))
    return MInventory(
        r=r,
        x_grid=np.linspace(0.0, 1.0, x_grid_n),
        words=_padded(words, length.max())[order],
        lengths=length[order],
        base_lo=lo[order],
        base_len=ln[order],
        diam=diam[order],
    )


def cylinder_table(spec, depth_max, x_grid_n=65, budget=None):
    """All words to depth_max with base lengths and extended widths.

    The tree is full, so a node budget resolves to a depth before the walk:
    the table stops at the deepest complete depth d, the largest with
    1 + N + ... + N^d <= budget.  Returns (words, base_len array, diam
    array, d), the words as a (n, d) symbol array padded with 0, depth by
    depth and in lexicographic order within each depth.
    """
    if depth_max < 1:
        raise ParameterError("need depth_max >= 1")
    complete, nodes = 0, 1
    while complete < depth_max:
        nodes += spec.n_strips ** (complete + 1)
        if budget is not None and nodes > budget:
            break
        complete += 1
    if complete == 0:
        raise BudgetError(
            f"budget {budget} too small for even one full level")
    lens, diams = _tree_table(spec, complete, x_grid_n,
                              operator.attrgetter("ln"),
                              operator.attrgetter("diam"))
    starts = _level_starts(spec.n_strips, complete)
    words = np.zeros((starts[-1], complete),
                     dtype=np.min_scalar_type(spec.n_strips))
    for d in range(1, complete + 1):
        words[starts[d - 1]:starts[d], :d] = lex_words(
            spec.n_strips, d, words.dtype)
    return words, lens, diams, complete


# ---------------------------------------------------------------------------
# inventory persistence


def save_inventory(inv, path, spec):
    """Checkpoint an MInventory of ``spec`` (words and scalars only)."""
    meta = {"r": inv.r, "n_words": len(inv.words), "map_hash": spec.map_hash}
    return cache.write_blob(path, "m_inventory", meta, {
        "symbols": inv.words[inv.words > 0].astype(np.int32),
        "lengths": inv.lengths.astype(np.int32),
        "x_grid": inv.x_grid,
        "base_lo": inv.base_lo,
        "base_len": inv.base_len,
        "diam": inv.diam,
    })


def load_inventory(path, spec):
    """Reload an inventory checkpointed for ``spec``; CacheError when the
    blob is another map's or lacks a field."""
    meta, arrays = cache.read_blob(path, expect_kind="m_inventory")
    if meta.get("map_hash") != spec.map_hash:
        raise CacheError(f"{path}: map_hash is not {spec.map_hash!r}")
    try:
        symbols, lengths = arrays["symbols"], arrays["lengths"].astype(int)
        words = np.zeros((lengths.size, lengths.max(initial=0)),
                         dtype=np.min_scalar_type(symbols.max(initial=1)))
        words[np.arange(words.shape[1]) < lengths[:, None]] = symbols
        return MInventory(
            r=float(meta["r"]), x_grid=arrays["x_grid"], words=words,
            lengths=lengths, base_lo=arrays["base_lo"],
            base_len=arrays["base_len"], diam=arrays["diam"])
    except KeyError as exc:
        raise CacheError(f"{path}: checkpoint lacks {exc}") from exc
