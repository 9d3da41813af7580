import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from horseshoe import symbolic
from horseshoe.conditions import _envelope_rows, tail_slope_hull
from horseshoe.errors import BudgetError, CacheError, ParameterError
from horseshoe.maps import (
    SkewBranch,
    affine_fiber,
    make_affine_example,
    make_baker,
    make_custom_skew,
)
from horseshoe.symbolic import (
    _word_widths,
    check_word,
    cylinder_diameter,
    cylinder_table,
    fiber_image,
    load_inventory,
    m_inventory,
    save_inventory,
)

words2 = st.lists(st.integers(1, 2), min_size=0, max_size=8).map(tuple)


def _word_tuples(words, lengths):
    """Packed word rows as tuples, checking the zero padding on the way."""
    rows = words.tolist()
    lengths = lengths.tolist()
    assert len(rows) == len(lengths)
    for row, n in zip(rows, lengths):
        assert all(row[:n]) and not any(row[n:]), (row, n)
    return [tuple(row[:n]) for row, n in zip(rows, lengths)]


@given(st.floats(min_value=0.2, max_value=0.8), words2,
       st.floats(min_value=0.0, max_value=1.0))
def test_baker_fiber_widths_are_lambda_powers(lam, word, x):
    spec = make_baker(lam)
    lo, hi = fiber_image(spec, word, x, hat=True)
    assert abs((hi - lo) - lam ** len(word) * 1.2) < 1e-9
    plo, phi = fiber_image(spec, word, x, hat=False)
    assert lo - 1e-12 <= plo <= phi <= hi + 1e-12


def test_cylinder_widths_match_fiber_image(affine):
    xg = np.linspace(0.0, 1.0, 33)
    for word in [(1,), (2, 1), (1, 2, 2)]:
        wf = _word_widths(affine, word, xg)
        lo, hi = fiber_image(affine, word, xg, hat=True)
        assert np.abs(wf - (hi - lo)).max() < 1e-12


def test_scale_family_baker_examples(baker06):
    inv = m_inventory(baker06, 0.5 * 1.2)
    assert _word_tuples(inv.words, inv.lengths) == [(1,), (2,)]
    inv = m_inventory(baker06, 0.3 * 1.2)
    level2 = _word_tuples(inv.words, inv.lengths)
    assert sorted(level2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_scale_family_left_to_right_order(baker06):
    inv = m_inventory(baker06, 0.3 * 1.2)
    assert list(inv.base_lo) == sorted(inv.base_lo)


@given(st.floats(min_value=0.25, max_value=0.6),
       st.floats(min_value=0.03, max_value=0.4))
@hypothesis.settings(max_examples=25, deadline=None)
def test_scale_family_invariants(lam, r_frac):
    """Members reach the scale, children fall below it, mass is conserved."""
    spec = make_baker(lam)
    r = r_frac * 1.2
    inv = m_inventory(spec, r)
    words = _word_tuples(inv.words, inv.lengths)
    assert len(set(words)) == len(words)
    for w, d in zip(words, inv.diam):
        assert d >= r - 1e-12
        for s in (1, 2):
            child = cylinder_diameter(spec, w + (s,))
            assert child < r + 1e-12
    # no member extends another: in sorted order the shortest extension of w
    # would sit directly after w, so neighbor checks cover every pair
    for w, v in zip(sorted(words), sorted(words)[1:]):
        assert v[:len(w)] != w
    assert abs(inv.mass() - 1.0) < 1e-12


@pytest.mark.xfail(strict=True, reason="M(r) grows words by appending the "
                   "first-acting symbol, so mixed-depth families do not tile")
def test_affine_scale_family_tiles_base(affine):
    inv = m_inventory(affine, 2.0 ** -4)
    ends = inv.base_lo + inv.base_len
    assert inv.base_lo[0] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(inv.base_lo[1:] - ends[:-1]).max() < 1e-12
    assert ends[-1] == pytest.approx(1.0, abs=1e-12)


def _dfs_inventory(spec, r, tail_hull, x_grid_n=65):
    """Node-at-a-time depth-first M(r) walk: the reference for the kernel.

    Returns the words, base left ends, base lengths, diameters and the
    envelopes (pos_lo, pos_hi, slope_lo, slope_hi) in left-to-right order.
    """
    jlen = spec.fiber_len
    tlo, thi = tail_hull
    xg = np.linspace(0.0, 1.0, x_grid_n)
    one, zero = np.ones_like(xg), np.zeros_like(xg)
    stack = [((), 0.0, 1.0, xg, one, zero, (zero, one, zero))]
    rows = []
    while stack:
        node = stack.pop()
        word, ilo, iln, X, A, B, (sy, sp, s0) = node
        above, below = [], []
        for s in range(spec.n_strips, 0, -1):
            sk = spec.skew[s - 1]
            fib = sk.fiber
            sv, tv = fib.at("slope", X), fib.at("offset", X)
            child = (word + (s,),
                     float(sk.base_inverse(np.array([ilo, ilo + iln])).min()),
                     iln / sk.base_slope, sk.base_inverse(X), A * sv,
                     A * tv + B,
                     (sy * sv + sp * fib.at("dslope", X), sp * sv / sk.base_slope,
                      sy * tv + sp * fib.at("doffset", X) + s0))
            d_c = float(np.abs(child[4]).max()) * jlen
            (above if d_c >= r else below).append((child, d_c))
        if above:
            stack.extend(child for child, _ in above)
            rows.extend(below)
        else:
            rows.append((node, float(np.abs(A).max()) * jlen))
    base_lo = np.array([node[1] for node, _ in rows])
    order = np.lexsort((np.array([len(node[0]) for node, _ in rows]), base_lo))
    rows = [rows[k] for k in order]
    env = [(B + np.minimum(A, 0.0), B + np.maximum(A, 0.0),
            s0 + np.minimum(sy, 0.0) + np.minimum(sp * tlo, sp * thi),
            s0 + np.maximum(sy, 0.0) + np.maximum(sp * tlo, sp * thi))
           for (_, _, _, _, A, B, (sy, sp, s0)), _ in rows]
    return ([node[0] for node, _ in rows], base_lo[order],
            np.array([node[2] for node, _ in rows]),
            np.array([d for _, d in rows]), env)


def _three_strip_skew():
    """Unequal breaks, u-dependent fiber slopes and offsets."""
    return make_custom_skew((0.0, 0.3, 0.55, 1.0), [
        affine_fiber(lambda u: 0.5 + 0.1 * u, lambda u: 0.05 * u, 0.1, 0.05),
        affine_fiber(lambda u: 0.45 - 0.05 * u, lambda u: 0.3 + 0.02 * u * u,
                     -0.05, lambda u: 0.04 * u),
        affine_fiber(0.4, lambda u: 0.55 - 0.1 * u, 0.0, -0.1),
    ])


@pytest.mark.parametrize("spec, r", [
    (make_baker(0.6), 2.0 ** -6 * 1.2),
    (make_affine_example(0.8, 0.55), 2.0 ** -6),
    (_three_strip_skew(), 2.0 ** -5),
], ids=["baker06", "affine", "three_strip"])
def test_block_kernel_matches_node_walk(spec, r):
    hull = tail_slope_hull(spec)
    inv = m_inventory(spec, r)
    words, base_lo, base_len, diam, env = _dfs_inventory(spec, r, hull)
    assert len(set(len(w) for w in words)) > 1 or spec.label == "baker"
    assert _word_tuples(inv.words, inv.lengths) == words
    assert inv.base_lo.tobytes() == base_lo.tobytes()
    assert inv.base_len.tobytes() == base_len.tobytes()
    assert inv.diam.tobytes() == diam.tobytes()
    rows = _envelope_rows(spec, inv.words, inv.x_grid, hull)
    assert np.stack(rows, axis=1).tobytes() == np.array(env).tobytes()


@pytest.mark.parametrize("spec, r", [
    (make_affine_example(0.8, 0.55), 2.0 ** -6),
    (make_affine_example(0.8, 0.55), 2.0 ** -7),
    (make_baker(0.6), 2.0 ** -6 * 1.2),
    (_three_strip_skew(), 2.0 ** -5),
], ids=["affine_2^-6", "affine_2^-7", "baker06", "three_strip"])
def test_scale_family_is_complete_prefix_code(spec, r):
    """Every backward itinerary has exactly one prefix in M(r).

    The packed rows are walked as a trie: no word may end at a node that
    is the prefix of another word, and every proper prefix must have all
    N children, each either a word or again a prefix.
    """
    inv = m_inventory(spec, r)
    trie = {}  # prefix -> True where a word ends, False where words pass
    for row, n in zip(inv.words.tolist(), inv.lengths.tolist()):
        assert all(row[:n]) and not any(row[n:])
        word = tuple(row[:n])
        for k in range(n):
            assert trie.setdefault(word[:k], False) is False, word[:k]
        assert word not in trie, word
        trie[word] = True
    prefixes = [p for p, is_word in trie.items() if not is_word]
    assert () in prefixes
    for p in prefixes:
        for s in range(1, spec.n_strips + 1):
            assert p + (s,) in trie, p + (s,)


@pytest.mark.parametrize("spec", [
    make_affine_example(0.8, 0.55),
    make_baker(0.6),
    _three_strip_skew(),
], ids=["affine", "baker06", "three_strip"])
@pytest.mark.parametrize("hat", [False, True], ids=["plain", "hat"])
def test_appended_symbol_nests_fiber_image(spec, hat):
    """U_ws(x) lies inside U_w(x), exactly, at every grid point.

    Appending s acts first: the strip of ws is the strip of w applied to
    the image of the fiber under F_s, which stays inside the fiber.
    """
    xg = np.linspace(0.0, 1.0, 65)
    level = [()]
    for _ in range(6):
        for w in level:
            lo, hi = fiber_image(spec, w, xg, hat=hat)
            for s in range(1, spec.n_strips + 1):
                lo_s, hi_s = fiber_image(spec, w + (s,), xg, hat=hat)
                assert np.all(lo <= lo_s) and np.all(hi_s <= hi), (w, s)
        level = [w + (s,) for w in level for s in range(1, spec.n_strips + 1)]


def _separated_skew():
    """Three strips whose fiber images lie in disjoint bands; slopes vary with u."""
    return make_custom_skew((0.0, 0.4, 0.7, 1.0), [
        affine_fiber(lambda u: 0.25 + 0.05 * u, 0.0, 0.05, 0.0),
        affine_fiber(lambda u: 0.3 - 0.05 * u, lambda u: 0.35 + 0.02 * u,
                     -0.05, 0.02),
        affine_fiber(lambda u: 0.2 + 0.1 * u * u, 0.7, lambda u: 0.2 * u, 0.0),
    ], label="separated")


def _scale_family_overlaps(spec, r):
    """Count of adjacent overlapping plain fibers U_w(x), w in M(r), over the grid.

    Rows of each length are composed together; at every grid x the fibers
    are sorted by lower end and each must end strictly below the next.
    """
    inv = m_inventory(spec, r)
    parts = [fiber_image(spec, inv.words[inv.lengths == n, :n], inv.x_grid)
             for n in np.unique(inv.lengths).tolist()]
    lo = np.concatenate([p[0] for p in parts])
    hi = np.concatenate([p[1] for p in parts])
    assert lo.shape == (len(inv.words), len(inv.x_grid))
    order = np.argsort(lo, axis=0, kind="stable")
    lo, hi = (np.take_along_axis(v, order, axis=0) for v in (lo, hi))
    return len(np.unique(inv.lengths)), int((hi[:-1] >= lo[1:]).sum())


def test_scale_family_fibers_are_disjoint():
    """Without overlaps between strip images, M(r) splits every fiber.

    Two words of a prefix-free family first differ at some symbol; at a
    common arrival point their fibers then sit in the images of two
    different branches, which are disjoint, under the same injective prefix.
    The overlapping affine family is the control: its fibers do meet.
    """
    lengths, overlaps = _scale_family_overlaps(_separated_skew(), 2.0 ** -13)
    assert lengths > 1 and overlaps == 0
    assert _scale_family_overlaps(make_affine_example(0.8, 0.55), 2.0 ** -5)[1] > 0


def _level_table(spec, depth_max, budget=None, x_grid_n=65):
    """Node-at-a-time breadth-first cylinder table: the walker's reference."""
    xg = np.linspace(0.0, 1.0, x_grid_n)
    words, lens, diams = [], [], []
    level = [((), 1.0, xg, np.ones_like(xg))]
    visited, complete = 1, 0
    for depth in range(1, depth_max + 1):
        nxt = [(word + (s,), iln / sk.base_slope, sk.base_inverse(X),
                A * sk.fiber.at("slope", X))
               for word, iln, X, A in level
               for s, sk in enumerate(spec.skew, 1)]
        visited += len(nxt)
        if budget is not None and visited > budget:
            break
        for word, iln, X, A in nxt:
            words.append(word)
            lens.append(iln)
            diams.append(float(np.abs(A).max()) * spec.fiber_len)
        complete, level = depth, nxt
    return words, np.array(lens), np.array(diams), complete


@pytest.mark.parametrize("spec, depth, budget", [
    (make_affine_example(0.8, 0.55), 10, None),
    (_three_strip_skew(), 7, None),
    (make_affine_example(0.8, 0.55), 12, 120),
    (make_affine_example(0.8, 0.55), 12, 127),
], ids=["affine", "three_strip", "affine_budget", "affine_budget_edge"])
def test_cylinder_table_matches_level_walk(spec, depth, budget, monkeypatch):
    """Bit for bit, at the default block size and at 7 rows a block."""
    want = _level_table(spec, depth, budget=budget)
    for block in (symbolic.BLOCK, 7):
        monkeypatch.setattr(symbolic, "BLOCK", block)
        got = cylinder_table(spec, depth, budget=budget)
        assert got[0].shape == (len(want[0]), want[3])
        assert _word_tuples(got[0], np.array([len(w) for w in want[0]])) == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert got[3] == want[3]


def test_walk_evaluates_a_shared_slope_once_and_steps_pushed_rows(monkeypatch):
    """Two branches hold one slope callable: each popped block evaluates it
    once, on the block's X.  The children's X is stepped for the pushed
    rows only, whole shares and masked ones, over blocks of 7 rows."""
    calls = []

    def slope(u):
        calls.append(np.ndim(u))
        return 0.5 + 0.1 * u

    spec = make_custom_skew((0.0, 0.4, 1.0), [
        affine_fiber(slope, 0.0, 0.1, 0.0), affine_fiber(slope, 0.45, 0.1, 0.0)])
    stepped = []
    base_inverse = SkewBranch.base_inverse

    def counted(self, u):
        if np.ndim(u) == 2:
            stepped.append(len(u))
        return base_inverse(self, u)

    monkeypatch.setattr(SkewBranch, "base_inverse", counted)
    monkeypatch.setattr(symbolic, "BLOCK", 7)
    calls.clear()
    blocks = pushed = grown = whole = 0
    for _, children, kept in symbolic._walk(spec, 65, lambda c: c.diam >= 0.05):
        blocks += 1
        pushed += sum(int(k.sum()) for k in kept)
        grown += sum(len(c.ln) for c in children)
        whole += sum(bool(k.all()) for k in kept)
        assert all(c.X is None for c in children)
    assert calls == [2] * blocks
    assert sum(stepped) == pushed < grown
    assert 0 < whole < 2 * blocks


def test_scale_family_budget_counts_nodes(affine):
    """M(2^-6) expands 9291 nodes, however they are batched."""
    inv = m_inventory(affine, 2.0 ** -6, budget=9291)
    assert len(inv.words) == 4646
    with pytest.raises(BudgetError):
        m_inventory(affine, 2.0 ** -6, budget=9290)


def test_scale_family_word_budget(baker06):
    with pytest.raises(BudgetError):
        m_inventory(baker06, 2.0 ** -12 * 1.2, budget=100)


def test_cylinder_table_budget_keeps_complete_levels(affine):
    words, lens, diams, complete = cylinder_table(affine, 6, budget=30)
    depths = np.count_nonzero(words, axis=1)
    assert complete < 6
    assert words.shape[1] == depths.max() == complete
    assert 2 ** complete == np.sum(depths == complete)
    with pytest.raises(BudgetError):
        cylinder_table(affine, 3, budget=1)


def test_cylinder_diameter_agrees_with_inventory(affine):
    inv = m_inventory(affine, 0.12)
    words = _word_tuples(inv.words, inv.lengths)
    for w, d in zip(words[:12], inv.diam[:12]):
        assert abs(cylinder_diameter(affine, w) - d) < 5e-4


@pytest.mark.parametrize("spec, r", [
    (make_affine_example(0.8, 0.55), 2.0 ** -5),
    (_three_strip_skew(), 2.0 ** -5),
], ids=["affine", "three_strip"])
def test_cylinder_grid_widths_are_the_walker_diameters(spec, r):
    """One word composed with the walker's step gives its diameter exactly.

    On the inventory's grid the maximum width equals ``MInventory.diam``
    bit for bit, and the refined diameter never falls below it.
    """
    inv = m_inventory(spec, r)
    words = _word_tuples(inv.words, inv.lengths)
    assert len(set(inv.lengths.tolist())) > 1
    for w, d in zip(words, inv.diam.tolist()):
        assert float(_word_widths(spec, w, inv.x_grid).max()) == d, w
    for w, d in zip(words[::97], inv.diam[::97].tolist()):
        assert cylinder_diameter(spec, w) >= d


def test_inventory_roundtrip(tmp_path, baker06, affine):
    # uniform depths, mixed depths, and M(r) = {()} above every one-symbol
    # diameter
    for spec, r in ((baker06, 2.0 ** -6 * 1.2), (affine, 2.0 ** -5),
                    (baker06, 1.0)):
        inv = m_inventory(spec, r)
        path = tmp_path / "inv.blob"
        save_inventory(inv, path, spec)
        back = load_inventory(path, spec)
        assert (_word_tuples(back.words, back.lengths)
                == _word_tuples(inv.words, inv.lengths))
        assert back.words.shape == inv.words.shape
        assert np.array_equal(back.base_len, inv.base_len)
        assert np.array_equal(back.diam, inv.diam)


def test_inventory_rejects_other_map(tmp_path, baker06, affine):
    path = tmp_path / "inv.blob"
    save_inventory(m_inventory(baker06, 0.3), path, baker06)
    with pytest.raises(CacheError):
        load_inventory(path, affine)


def test_custom_inventory_rejects_map_with_other_fibers(tmp_path):
    """Custom maps sharing alpha and k0 refuse each other's checkpoint."""
    from test_maps import _sheared_pair

    flat, sheared = _sheared_pair()
    for spec, other in ((flat, sheared), (sheared, flat)):
        path = tmp_path / "inv.blob"
        save_inventory(m_inventory(spec, 0.3), path, spec)
        assert load_inventory(path, spec).r == 0.3
        with pytest.raises(CacheError):
            load_inventory(path, other)


def test_truncated_blob_refused(tmp_path, baker06):
    path = tmp_path / "inv.blob"
    save_inventory(m_inventory(baker06, 0.3), path, baker06)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(CacheError):
        load_inventory(path, baker06)


@pytest.mark.parametrize("key", ["map_hash", "r"])
def test_inventory_without_a_field_refused(tmp_path, baker06, key):
    """A blob with no map hash loads for no map, and a missing field is a
    CacheError, not a KeyError."""
    from horseshoe import cache

    path = tmp_path / "inv.blob"
    save_inventory(m_inventory(baker06, 0.3), path, baker06)
    meta, arrays = cache.read_blob(path)
    del meta[key]
    cache.write_blob(path, "m_inventory", meta, arrays)
    with pytest.raises(CacheError, match=key):
        load_inventory(path, baker06)


def test_bad_symbols_rejected(baker06):
    with pytest.raises(ParameterError):
        check_word(baker06, (1, 3))
    with pytest.raises(ParameterError):
        fiber_image(baker06, (0,), 0.5)
    # word rows: a symbol out of range in any row, or a non-integer array
    for rows in (np.array([[1, 2], [3, 1]]), np.array([[1, 2], [-1, 1]]),
                 np.array([[1.0, 2.0]]), np.array([["1", "2"]])):
        with pytest.raises(ParameterError):
            fiber_image(baker06, rows, 0.5)
    with pytest.raises(ParameterError):
        check_word(baker06, (1.7, 2.2))
    with pytest.raises(ParameterError):
        check_word(baker06, (1.0, 2))
    assert check_word(baker06, np.array([1, 2])) == (1, 2)
