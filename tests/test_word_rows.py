"""Word families composed as rows agree with one-word compositions.

``fiber_image`` composes a block of equal-length word rows at once, and the
diagnostics width constants read whole levels of the word-tree walk.  Each
is compared here, byte for byte or with ``==``, against a
one-word-at-a-time reference: for ``fiber_image`` a compact copy of its
deep-end composition, for the width constants the walker's own one-word
composition ``symbolic._word_widths`` (the one ``cylinder_diameter``
uses), run over tuple walks of every word.  A block size of 7 rows splits
every level over several blocks.
"""

import numpy as np
import pytest

from horseshoe import symbolic
from horseshoe.diagnostics import _width_constants, fiber_ratio_sup
from horseshoe.maps import make_affine_example, make_baker
from horseshoe.symbolic import _word_widths, fiber_image, lex_words

from test_diagnostics import _quadratic_skew
from test_symbolic import _three_strip_skew

SPECS = [make_affine_example(0.8, 0.55), make_baker(0.6), _three_strip_skew(),
         _quadratic_skew()]
SPEC_IDS = ["affine", "baker06", "three_strip", "quadratic"]


def _one_word_image(spec, word, x, hat=False):
    """U_w(x) of one word, composed on its own from the deep end."""
    orbit = [np.asarray(x, dtype=float)]  # arrival point, then its preimages
    for s in word:
        orbit.append(spec.skew[s - 1].base_inverse(orbit[-1]))
    lo0, hi0 = spec.extended_fiber if hat else (0.0, 1.0)
    lo = np.full(np.shape(orbit[0]), lo0, dtype=float)
    hi = np.full(np.shape(orbit[0]), hi0, dtype=float)
    for k in range(len(word), 0, -1):
        fm = spec.skew[word[k - 1] - 1].fiber
        a = fm.value(orbit[k - 1], lo)
        b = fm.value(orbit[k - 1], hi)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
    return lo, hi


def _tuple_widths(spec, depth_max, x_grid_n=65):
    """Extended width grid of every word to depth_max, one word at a time."""
    xg = np.linspace(0.0, 1.0, x_grid_n)
    table, stack = {}, [()]
    while stack:
        word = stack.pop()
        if word:
            table[word] = _word_widths(spec, word, xg)
        if len(word) < depth_max:
            stack.extend(word + (s,) for s in range(1, spec.n_strips + 1))
    return table


def _tuple_ratio_sup(spec, depth_max):
    out = 1.0
    for wd in _tuple_widths(spec, depth_max).values():
        out = max(out, float(wd.max() / wd.min()))
    return out


def _tuple_concatenation(spec, depth):
    jlen = spec.fiber_len
    cap = min(depth, 6)
    table = {w: float(wd.max()) for w, wd in _tuple_widths(spec, cap).items()}
    worst = 1.0
    for wa, da in table.items():
        for wb, db in table.items():
            if len(wa) + len(wb) > cap:
                continue
            q = table[wa + wb] * jlen / (da * db)
            worst = max(worst, q, 1.0 / q)
    return worst


def test_lex_words_index_concatenations():
    words = lex_words(3, 4).tolist()
    assert words == sorted(words) and len(words) == 81
    short = {tuple(w): i for i, w in enumerate(lex_words(3, 1).tolist())}
    pairs = {tuple(w): i for i, w in enumerate(lex_words(3, 3).tolist())}
    for k, w in enumerate(words):
        assert k == short[tuple(w[:1])] * 27 + pairs[tuple(w[1:])]
    assert lex_words(2, 0).shape == (1, 0)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("hat", [False, True], ids=["plain", "hat"])
def test_fiber_image_rows_match_one_word_composition(spec, hat, monkeypatch):
    """Every word to depth 5 and random depth-9 words, grid and scalar x.

    The small block size splits the rows over several blocks, so block
    boundaries and the symbol grouping inside each block are both covered.
    """
    xg = np.linspace(0.0, 1.0, 65)
    rng = np.random.default_rng(9)
    levels = [lex_words(spec.n_strips, d) for d in range(1, 6)]
    levels.append(rng.integers(1, spec.n_strips + 1, size=(40, 9)))
    for block in (symbolic.BLOCK, 7):
        monkeypatch.setattr(symbolic, "BLOCK", block)
        for rows in levels:
            for x in (xg, 0.3712):
                lo, hi = fiber_image(spec, rows, x, hat=hat)
                ref = [_one_word_image(spec, w, x, hat) for w in rows.tolist()]
                assert lo.tobytes() == np.array([r[0] for r in ref]).tobytes()
                assert hi.tobytes() == np.array([r[1] for r in ref]).tobytes()
    for w in levels[-1][:8].tolist() + [[2, 1, 1]]:
        for x in (xg, 0.3712):
            got = fiber_image(spec, tuple(w), x, hat=hat)
            ref = _one_word_image(spec, w, x, hat)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
    assert fiber_image(spec, (), 0.5, hat=hat) == (
        spec.extended_fiber if hat else (0.0, 1.0))


@pytest.mark.parametrize("spec, depth", [
    (SPECS[0], 7), (SPECS[1], 6), (SPECS[2], 5), (SPECS[3], 6)], ids=SPEC_IDS)
def test_width_constants_match_tuple_walks(spec, depth, monkeypatch):
    want = (_tuple_ratio_sup(spec, depth), _tuple_concatenation(spec, depth))
    for block in (symbolic.BLOCK, 7):
        monkeypatch.setattr(symbolic, "BLOCK", block)
        assert fiber_ratio_sup(spec, depth) == want[0]
        assert _width_constants(spec, depth) == want
    assert fiber_ratio_sup(spec, 0) == 1.0
    assert _width_constants(spec, 1)[1] == 1.0
